"""Tridiagonal ladder Hamiltonian and its time evolution.

Starting from M input photons and N excited atoms, the interaction only
connects the states with l = 0..N additionally emitted copies, so the
dynamics restricts to an (N+1)-dimensional ladder.  The restricted
Hamiltonian is real symmetric tridiagonal with zero diagonal and

    offdiag[l] = gamma * sqrt((l+1) (N-l) (M+l+d)),   l = 0..N-1,

which contains both boundary rows: the l=0 row couples with strength
gamma*sqrt(N(M+d)) and the l=N row with gamma*sqrt(N(M+N+d-1)).

Each emission moves the ladder by one rung, so H only couples even l to
odd l.  With the even rungs first, H = [[0, B], [B^T, 0]], where the
bidiagonal B holds the couplings from even to odd rungs, and H^2 splits
into the even block E = B B^T and the odd block F = B^T B (the pairing of
Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965)).  Both are
tridiagonal and half the size of H.  Their eigenvectors are the left and
right singular vectors of B, and exp(-i H t) has the blocks

    even -> even:  U cos(sigma t) U^T + u_0 u_0^T
    even -> odd:   -i V sin(sigma t) U^T
    odd  -> even:  -i U sin(sigma t) V^T
    odd  -> odd:   V cos(sigma t) V^T,

where u_0 is the zero mode of E that exists when N is even (E has one row
more than F then).  V is taken from its own eigendecomposition of F, not
from B^T U / sigma: that shortcut divides the errors of U by sigma, and its
V is orthonormal only to about 4e-12 at N = 1000, while the eigenvectors of
E and F are each orthonormal to round-off (about 1e-15).
"""

import math
from dataclasses import dataclass

import numpy as np

# Largest atom number N that `ladder_matrix` accepts.  Evolving the ladder
# holds three (N/2 + 1)-square float64 blocks (the even and odd eigenvectors
# and the eigensolver's workspace), about 0.6 GB at this bound.
MAX_LADDER_ATOMS = 10_000


@dataclass(frozen=True)
class LadderHamiltonian:
    """Restriction of the cloning Hamiltonian to the emission ladder."""

    d: int
    N: int
    M: int
    gamma: float
    offdiag: tuple[float, ...]

    @property
    def size(self) -> int:
        return self.N + 1

    def matrix(self) -> np.ndarray:
        """Dense (N+1) x (N+1) real symmetric matrix, zero diagonal."""
        h = np.zeros((self.size, self.size))
        off = np.asarray(self.offdiag)
        h[np.arange(self.N), np.arange(1, self.size)] = off
        h[np.arange(1, self.size), np.arange(self.N)] = off
        return h


@dataclass(frozen=True)
class EvolutionProfile:
    """Amplitudes f_l(t) for finding l additional copies at time t."""

    t: float
    amplitudes: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def ladder_matrix(d: int, N: int, M: int, gamma: float = 1.0) -> LadderHamiltonian:
    """Build the emission-ladder Hamiltonian for d modes, N atoms, M photons."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if not 1 <= N <= MAX_LADDER_ATOMS:
        raise ValueError(f"number of excited atoms must be in 1..{MAX_LADDER_ATOMS}, got {N}")
    if M < 0:
        raise ValueError(f"input photon number must be >= 0, got {M}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"coupling gamma must be positive and finite, got {gamma}")
    off = tuple(gamma * math.sqrt((l + 1) * (N - l) * (M + l + d)) for l in range(N))
    return LadderHamiltonian(d=d, N=N, M=M, gamma=float(gamma), offdiag=off)


def _parity_spectrum(h: LadderHamiltonian, t: float):
    """Singular vectors of the even-to-odd coupling B and their phases at time t.

    Returns (u, v, zero, cos, sin): u (even rungs) and v (odd rungs) hold
    paired singular vectors in their columns, with B v_k = sigma_k u_k and
    sigma_k >= 0; zero holds the null vector of E = B B^T as its one column
    when N is even and has no column when N is odd; cos and sin are
    cos(sigma t) and sin(sigma t).  Raises ValueError when a phase sigma t
    is not finite: t is inf or nan, or so large that sigma t overflows.
    """
    from scipy.linalg import eigh_tridiagonal

    off = np.asarray(h.offdiag)
    n_even, n_odd = h.N // 2 + 1, (h.N + 1) // 2
    # B[i, i] = off[2i] couples rung 2i to 2i+1, B[i+1, i] = off[2i+1]
    # couples rung 2i+2 to 2i+1.
    diag, sub = off[0::2], off[1::2]
    e_diag = np.zeros(n_even)
    e_diag[:n_odd] += diag * diag
    e_diag[1:] += sub * sub
    f_diag = diag * diag
    f_diag[: n_even - 1] += sub * sub
    _, u = eigh_tridiagonal(e_diag, diag[: n_even - 1] * sub)
    _, v = eigh_tridiagonal(f_diag, sub[: n_odd - 1] * diag[1:])
    # Ascending eigenvalues: E's extra zero mode (N even) sorts first, and
    # the rest pair with F's in order, both being sigma_k^2.
    zero, u = u[:, : n_even - n_odd], u[:, n_even - n_odd :]
    # sigma_k = u_k^T B v_k; a negative value means v_k has the wrong sign.
    r = np.einsum("i,ik,ik->k", diag, u[:n_odd], v)
    r += np.einsum("i,ik,ik->k", sub, u[1:], v[: n_even - 1])
    v *= np.where(r < 0.0, -1.0, 1.0)
    with np.errstate(over="ignore"):
        sigma_t = np.abs(r) * t
    if not np.all(np.isfinite(sigma_t)):
        raise ValueError(f"evolution phases sigma * t must be finite, got t = {t}")
    return u, v, zero, np.cos(sigma_t), np.sin(sigma_t)


def propagator(h: LadderHamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-i H t) on the ladder, assembled from its four parity blocks.

    See the module docstring for the blocks and for why the odd-rung
    vectors come from F = B^T B rather than from B^T U.
    """
    u, v, zero, cos, sin = _parity_spectrum(h, t)
    p = np.empty((h.size, h.size), dtype=complex)
    p[0::2, 0::2] = (u * cos) @ u.T + zero @ zero.T
    p[1::2, 1::2] = (v * cos) @ v.T
    p[1::2, 0::2] = -1j * ((v * sin) @ u.T)
    p[0::2, 1::2] = -1j * ((u * sin) @ v.T)
    return p


def evolve(h: LadderHamiltonian, t: float) -> EvolutionProfile:
    """Amplitudes f_l(t) = <l| exp(-i H t) |0> of the emission ladder.

    |0> is an even rung, so only the first column of the even-rung blocks
    is needed: f on even l is U (cos(sigma t) U[0]) + u_0 u_0[0], which is
    real, and f on odd l is -i V (sin(sigma t) U[0]), which is imaginary.
    Both are real matrix-vector products on half-size eigenvectors of
    E = B B^T and F = B^T B (see the module docstring).  Unitarity holds
    to a few 1e-15.
    """
    u, v, zero, cos, sin = _parity_spectrum(h, t)
    f = np.zeros(h.size, dtype=complex)
    f.real[0::2] = u @ (cos * u[0]) + zero @ zero[0]
    f.imag[1::2] = -(v @ (sin * u[0]))
    return EvolutionProfile(t=float(t), amplitudes=f)


def emission_probabilities(h: LadderHamiltonian, t: float) -> np.ndarray:
    """|f_l(t)|^2 for l = 0..N; sums to 1."""
    return evolve(h, t).probabilities
