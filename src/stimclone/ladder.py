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
bidiagonal B holds the couplings from even to odd rungs, so H^2 splits
into E = B B^T and F = B^T B (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205
(1965)).  Every run starts at l = 0, so only the first column of
exp(-i H t) is needed:

    even -> even:  U cos(sigma t) U^T + u_0 u_0^T
    even -> odd:   -i V sin(sigma t) U^T,

where U and sigma^2 > 0 are eigenpairs of the half-size tridiagonal E, u_0
is its zero mode when N is even, and V = B^T U / sigma: only E is
diagonalised.  W = B^T U / sigma with sigma_k = ||B^T u_k|| divides the
errors of U by sigma, so W^T W = I + D with ||D|| ~ 2e-12 at N = 1000 and
5e-11 at N = 4000, enough to move sum p by 3e-12.  Loewdin's symmetric
orthonormalization (J. Chem. Phys. 18, 365 (1950)), W (I + D)^(-1/2) =
W (I - D/2 + 3 D^2/8 - ...), is applied to first order to the one vector
the block acts on, W y - W (W^T W y - y) / 2.  The dropped term is second
order in D, below 1e-20; sum p stays within 3e-15 of 1 (d <= 6, N <= 1000).
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import check_count

# Largest atom number N that `ladder_matrix` accepts.  Evolving the ladder
# holds two (N/2 + 1)-square float64 blocks, the even eigenvectors and the
# solver's workspace or B^T U: 0.4 GB at this bound (`evolve` peaks at 460 MiB).
MAX_LADDER_ATOMS = 10_000

# Largest |sigma t| accepted: one ulp of the phase is then 2^-20, about 1e-6 rad.
MAX_PHASE = 2**32


@dataclass(frozen=True)
class EvolutionProfile:
    """Amplitudes f_l(t) for finding l additional copies at time t."""

    amplitudes: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def ladder_matrix(d: int, N: int, M: int, gamma: float = 1.0) -> np.ndarray:
    """The emission ladder for d modes, N atoms and M photons, as its N couplings.

    Returns offdiag, a read-only float64 array of length N; the ladder
    Hamiltonian is np.diag(offdiag, 1) + np.diag(offdiag, -1).
    """
    d = check_count("qudit dimension", d, 2)
    N = check_count("number of excited atoms", N, 1, MAX_LADDER_ATOMS)
    M = check_count("input photon number", M, 0, 2**53 - N - d)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"coupling gamma must be positive and finite, got {gamma}")
    # In floats, so a large M cannot overflow; every factor is an exact float.
    l = np.arange(N, dtype=float)
    off = gamma * np.sqrt((l + 1) * (N - l) * (M + l + d))
    off.setflags(write=False)
    return off


def evolve(h: np.ndarray, t: float) -> EvolutionProfile:
    """Amplitudes f_l(t) = <l| exp(-i H t) |0> of the ladder with couplings h.

    From the module docstring's blocks: U (cos(sigma t) U[0]) + u_0 u_0[0] on
    even l and -i W (I - D/2) (sin(sigma t) U[0]) on odd l.  Unitarity holds
    to a few 1e-15; f matches expm_multiply to 2e-13 up to t ||H|| ~ 7e3
    (N <= 1000).  Rounding sigma t costs p_l about 6e-11 at a phase of 1e6
    and up to 2e-7 near MAX_PHASE.  Raises ValueError unless h is a finite 1-d
    array of 1..MAX_LADDER_ATOMS couplings, and unless every |sigma t| <
    MAX_PHASE: t is inf or nan, or sigma t overflows or is too coarse.
    """
    from scipy.linalg import eigh_tridiagonal

    off = np.asarray(h, dtype=float)
    if off.ndim != 1 or not np.isfinite(off).all():
        raise ValueError("couplings h must be a finite 1-d array")
    N = check_count("number of couplings", off.size, 1, MAX_LADDER_ATOMS)
    n_even, n_odd = N // 2 + 1, (N + 1) // 2
    # B[i, i] = off[2i] couples rung 2i to 2i+1, B[i+1, i] = off[2i+1]
    # couples rung 2i+2 to 2i+1.
    diag, sub = off[0::2], off[1::2]
    e_diag = np.zeros(n_even)
    e_diag[:n_odd] += diag * diag
    e_diag[1:] += sub * sub
    _, u = eigh_tridiagonal(e_diag, diag[: n_even - 1] * sub)
    # Ascending eigenvalues: E's extra zero mode (N even) sorts first.
    zero, u = u[:, : n_even - n_odd], u[:, n_even - n_odd :]
    # w = B^T u in column blocks: no temporary as large as u is live next to w.
    w = u[:n_odd] * diag[:, None]
    for k in range(0, n_odd, 128):
        w[: len(sub), k : k + 128] += sub[:, None] * u[1:, k : k + 128]
    sigma = np.sqrt(np.einsum("ik,ik->k", w, w))
    w /= sigma
    # Python floats: an overflow gives inf without a warning, and nan fails the test.
    if not float(sigma.max()) * abs(float(t)) < MAX_PHASE:
        raise ValueError(f"phases sigma * t must be finite and below {MAX_PHASE}, got t = {t}")
    sigma_t = sigma * float(t)
    f = np.zeros(N + 1, dtype=complex)
    f.real[0::2] = u @ (np.cos(sigma_t) * u[0]) + zero @ zero[0]
    y = np.sin(sigma_t) * u[0]
    wy = w @ y
    f.imag[1::2] = 0.5 * (w @ (w.T @ wy - y)) - wy
    return EvolutionProfile(f)
