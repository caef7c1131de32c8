"""Partial traces, fidelities, closed-form references, and the shrinking factor.

Reductions stay in the occupation representation throughout: the one-qudit
marginal of an L-boson sector density is read off transition-operator
expectations, rho_1[r, s] = Tr(rho_L a_s^dag a_r) / L, which keeps every cost
polynomial in the sector size.

A clone output is reduced straight from its clone coefficients
B[j, k] = c_j amp(j, k), the coefficient of |j+k>_a |k>_b: with n = j+k and
j' = j - e_r + e_s in the input sector,

    rho_1[r, s] = (1/L) sum_{j,k} B[j, k] conj(B[j', k]) sqrt(n_r (n_s + 1)),

and the L-copy fidelity is sum_k |sum_j conj(t_{j+k}) B[j, k]|^2 for the
target amplitudes t.  A mixed output is a stack of such components, one per
eigenvector of its input, and both sums also run over the component axis.
Both touch only the |J| x |K| nonzeros of each component, so none of the
dense amplitude matrix, the a x a density and the (ab) x (ab) joint density
is ever formed.  `trace_out_b` forms the a x a density for callers that want
it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .cloner import CloneOutput, PureQudit, SymmetricDensity, expand_identical
from .fock import rank, sector_array


@dataclass(frozen=True)
class SingleQuditDensity:
    """d x d reduced density operator of one output copy."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, x: PureQudit) -> "SingleQuditDensity":
        return cls(np.outer(x.x, x.x.conj()))

    @classmethod
    def maximally_mixed(cls, d: int) -> "SingleQuditDensity":
        return cls(np.eye(d) / d)


def trace_out_b(out: CloneOutput) -> SymmetricDensity:
    """Density of the M+l output copies, after discarding the b register.

    With Psi_i the amplitude matrix of component i this is sum_i Psi_i Psi_i^dag;
    a pure output has a single component.
    """
    psi = np.moveaxis(out.amplitudes, -2, 0).reshape(len(out.a_basis), -1)
    rho = psi @ psi.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return SymmetricDensity(out.a_basis, rho)


@cache
def _hops(d: int, total: int) -> tuple:
    """(r, s, src, dst) for every r != s over the (d, total) sector.

    src holds the rows of the vectors n with n_r > 0, and dst the rows of
    n - e_r + e_s, both in canonical order.
    """
    vectors = sector_array(d, total)
    hops = []
    for r in range(d):
        src = np.flatnonzero(vectors[:, r])
        for s in range(d):
            if s != r:
                shifted = vectors[src]  # a fresh copy: fancy indexing
                shifted[:, r] -= 1
                shifted[:, s] += 1
                hops.append((r, s, src, rank(shifted)))
    return tuple(hops)


def reduce_to_single(rho_L: SymmetricDensity | CloneOutput) -> SingleQuditDensity:
    """One-qudit marginal of an L-boson symmetric density or of a clone output.

    rho_1[r, s] = Tr(rho_L a_s^dag a_r) / L.  The matrix element of
    a_s^dag a_r between occupation vectors n and n - e_r + e_s is
    sqrt(n_r (n_s + 1 - delta_rs)).  A `CloneOutput` is reduced from its
    clone coefficients (see the module docstring).
    """
    cloned = isinstance(rho_L, CloneOutput)
    L = rho_L.L if cloned else rho_L.total
    if L < 1:
        raise ValueError("single-qudit reduction needs at least one boson")
    d = rho_L.d
    rho1 = np.zeros((d, d), dtype=complex)
    if cloned:
        j, k = sector_array(d, rho_L.M), sector_array(d, rho_L.l)
        b = rho_L.coefficients.reshape(-1, len(j), len(k))
        weights = np.sum(np.abs(b) ** 2, axis=0)
        rho1[np.diag_indices(d)] = j.T @ weights.sum(axis=1) + k.T @ weights.sum(axis=0)
        for r, s, src, dst in _hops(d, rho_L.M):
            n_r = j[src, r, None] + k[None, :, r]
            n_s = j[src, s, None] + k[None, :, s]
            rho1[r, s] = np.sum(b[:, src] * b[:, dst].conj() * np.sqrt(n_r * (n_s + 1)))
    else:
        n, matrix = sector_array(d, L), rho_L.matrix
        rho1[np.diag_indices(d)] = n.T @ np.diagonal(matrix)
        for r, s, src, dst in _hops(d, L):
            rho1[r, s] = np.sum(np.sqrt(n[src, r] * (n[src, s] + 1)) * matrix[src, dst])
    rho1 /= L
    rho1 = 0.5 * (rho1 + rho1.conj().T)
    return SingleQuditDensity(rho1)


def fidelity_single(rho1: SingleQuditDensity, x: PureQudit) -> float:
    """Overlap <x| rho_1 |x> of one output copy with the reference qudit."""
    if rho1.d != x.d:
        raise ValueError(f"dimension mismatch: density is {rho1.d}-level, qudit is {x.d}-level")
    return float(np.vdot(x.x, rho1.matrix @ x.x).real)


def fidelity_global(out: CloneOutput, x: PureQudit) -> float:
    """Overlap of the full L-copy output with L perfect copies of x."""
    if out.d != x.d:
        raise ValueError(f"dimension mismatch: output is {out.d}-level, qudit is {x.d}-level")
    target = expand_identical(x, out.L).amplitudes
    overlaps = np.sum(target[out.a_index].conj() * out.coefficients, axis=-2)
    return float(np.sum(np.abs(overlaps) ** 2))


def _check_cloning_shape(M: int, L: int, d: int) -> None:
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if M < 1:
        raise ValueError(f"input copy number must be >= 1, got {M}")
    if L < M:
        raise ValueError(f"output copies L={L} fewer than input copies M={M}")


def closed_form_single(M: int, L: int, d: int) -> float:
    """Optimal single-copy fidelity (M(L+d) + L - M) / (L(M+d)), exact rational."""
    _check_cloning_shape(M, L, d)
    return float(Fraction(M * (L + d) + L - M, L * (M + d)))


def closed_form_global(M: int, L: int, d: int) -> float:
    """Optimal L-copy fidelity L!(M+d-1)! / (M!(L+d-1)!), exact rational."""
    _check_cloning_shape(M, L, d)
    num = math.factorial(L) * math.factorial(M + d - 1)
    den = math.factorial(M) * math.factorial(L + d - 1)
    return float(Fraction(num, den))


@dataclass(frozen=True)
class ShrinkingFit:
    """Least-squares fit of rho_out = eta * rho_in + (1 - eta) * I/d.

    `isotropic` is True when the residual clears the gate; otherwise `eta` is
    still the best-fit value and `residual` says how far from isotropic the
    pair is.
    """

    eta: float
    residual: float
    isotropic: bool


def shrinking_factor(
    rho_in_1: SingleQuditDensity,
    rho_out_1: SingleQuditDensity,
    residual_tol: float = 1e-9,
) -> ShrinkingFit:
    """Fit the isotropic-shrinking model between one-qudit input and output.

    Both traceless parts are compared entrywise: eta minimizes the Frobenius
    norm of (rho_out - I/d) - eta (rho_in - I/d).
    """
    if rho_in_1.d != rho_out_1.d:
        raise ValueError("input and output reduced densities have different dimensions")
    d = rho_in_1.d
    identity = np.eye(d) / d
    a = rho_in_1.matrix - identity
    b = rho_out_1.matrix - identity
    norm_a_sq = np.vdot(a, a).real
    if norm_a_sq < 1e-24:
        # Fully mixed input: the model fits with any eta; report eta = 0.
        residual = float(np.linalg.norm(b))
        return ShrinkingFit(eta=0.0, residual=residual, isotropic=residual < residual_tol)
    eta = float(np.vdot(a, b).real / norm_a_sq)
    residual = float(np.linalg.norm(b - eta * a))
    return ShrinkingFit(eta=eta, residual=residual, isotropic=residual < residual_tol)
