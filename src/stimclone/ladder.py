"""Tridiagonal ladder Hamiltonian and its time evolution.

Starting from M input photons and N excited atoms, the interaction only
connects the states with l = 0..N additionally emitted copies, so the
dynamics restricts to an (N+1)-dimensional ladder.  The restricted
Hamiltonian is real symmetric tridiagonal with zero diagonal and

    offdiag[l] = gamma * sqrt((l+1) (N-l) (M+l+d)),   l = 0..N-1,

which contains both boundary rows: the l=0 row couples with strength
gamma*sqrt(N(M+d)) and the l=N row with gamma*sqrt(N(M+N+d-1)).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal


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
    if N < 1:
        raise ValueError(f"number of excited atoms must be >= 1, got {N}")
    if M < 0:
        raise ValueError(f"input photon number must be >= 0, got {M}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"coupling gamma must be positive and finite, got {gamma}")
    off = tuple(gamma * math.sqrt((l + 1) * (N - l) * (M + l + d)) for l in range(N))
    return LadderHamiltonian(d=d, N=N, M=M, gamma=float(gamma), offdiag=off)


def _spectrum(h: LadderHamiltonian, t: float):
    """Eigenvectors v of the ladder and the phases exp(-i w t) of its eigenvalues w."""
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    w, v = eigh_tridiagonal(np.zeros(h.size), np.asarray(h.offdiag))
    return v, np.exp(-1j * w * t)


def propagator(h: LadderHamiltonian, t: float) -> np.ndarray:
    """Unitary exp(-i H t) on the ladder, via eigendecomposition."""
    v, phases = _spectrum(h, t)
    return (v * phases) @ v.T


def evolve(h: LadderHamiltonian, t: float) -> EvolutionProfile:
    """Amplitudes f_l(t) = <l| exp(-i H t) |0> of the emission ladder.

    The matrix is real symmetric tridiagonal, so the exponential is computed
    exactly (to round-off) from its eigendecomposition; unitarity is
    preserved to better than 1e-10.  Only the first column is formed.
    """
    v, phases = _spectrum(h, t)
    return EvolutionProfile(t=float(t), amplitudes=v @ (phases * v[0]))


def emission_probabilities(h: LadderHamiltonian, t: float) -> np.ndarray:
    """|f_l(t)|^2 for l = 0..N; sums to 1."""
    return evolve(h, t).probabilities
