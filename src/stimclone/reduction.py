"""Partial traces, fidelities, closed-form references, and the shrinking factor.

Reductions stay in the occupation representation throughout: the one-qudit
marginal of an L-boson sector density is read off transition-operator
expectations, rho_1[r, s] = Tr(rho_L a_s^dag a_r) / L, which keeps every cost
polynomial in the sector size.

A clone output sum_{j,k} c_j amp[j, k] |j+k>_a |k>_b, with amp the table of
`fock.clone_coefficients` and k in the (d, l) sector K, is reduced from that
table and the entries rho_in[j, j'] = c_j conj(c_j') of its input density,
read only where the formula needs them.  With n = j + k and j' = j - e_r + e_s
the clone formula gives

    amp[j', k] / amp[j, k] = sqrt(j_r (n_s + 1) / (n_r (j_s + 1))),

so each a_s^dag a_r term amp[j, k] amp[j', k] sqrt(n_r (n_s + 1)) is
amp[j, k]^2 sqrt(j_r / (j_s + 1)) (n_s + 1).  The rows of amp^2 sum to 1, so
the sum over k needs only emitted = (amp * amp) @ K, the mean number of
photons emitted into each mode:

    rho_1[r, r] = sum_j rho_in[j, j] (j_r + emitted[j, r]) / L,
    rho_1[r, s] = sum_j rho_in[j, j'] sqrt(j_r / (j_s + 1)) (j_s + 1 + emitted[j, s]) / L.

A density of L bosons is the M = L case with emitted = 0.  Both sums run in
one pass over the flat table of `_hops`.  The L-copy fidelity is
sum_k |sum_j conj(t_{j+k}) c_j amp[j, k]|^2 for the target amplitudes t,
with j only over the inputs with c_j != 0 (`CloneOutput.nonzero_rows`).  A
mixed output stacks one c per eigenvector of its input, and both sums also
run over that axis.  Neither forms the dense amplitude matrix
or a density of the a or ab registers; `trace_out_b` forms the a x a density
for callers that want it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .cloner import CloneOutput, PureQudit, SymmetricDensity, expand_identical
from .fock import clone_coefficients, rank, sector_array


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
    """Every term of the operators a_s^dag a_r on the (d, total) sector, as flat arrays.

    Returns (rs, s, src, dst, root, ratio): term t takes the vector n in row
    src[t] to n - e_r + e_s in row dst[t], with rs = r d + s.  For r != s
    (rows with n_r > 0) root = sqrt(n_r (n_s + 1)) and ratio = sqrt(n_r / (n_s + 1));
    for r = s (every row) root = n_r and ratio = 1.
    """
    vectors = sector_array(d, total)
    src, r, s = np.nonzero((vectors[:, :, None] > 0) | np.eye(d, dtype=bool))
    n_r, n_s1 = vectors[src, r], vectors[src, s] + 1
    shifted = vectors[src]  # a fresh copy: fancy indexing
    shifted[np.arange(len(src)), r] -= 1
    shifted[np.arange(len(src)), s] += 1
    root = np.where(r == s, n_r, np.sqrt(n_r * n_s1))
    ratio = np.where(r == s, 1.0, np.sqrt(n_r / n_s1))
    return r * d + s, s, src, rank(shifted), root, ratio


def reduce_to_single(rho_L: SymmetricDensity | CloneOutput) -> SingleQuditDensity:
    """One-qudit marginal of an L-boson symmetric density or of a clone output.

    rho_1[r, s] = Tr(rho_L a_s^dag a_r) / L by the formula of the module
    docstring.  A density has no emitted photons, so it needs no clone table
    and may have any total.
    """
    d, cloned = rho_L.d, isinstance(rho_L, CloneOutput)
    M, L = (rho_L.M, rho_L.L) if cloned else (rho_L.total, rho_L.total)
    if L < 1:
        raise ValueError("single-qudit reduction needs at least one boson")
    rs, s, src, dst, root, ratio = _hops(d, M)
    if cloned:
        c = rho_L.inputs.reshape(-1, rho_L.inputs.shape[-1])
        rho_in = (c[:, src] * c[:, dst].conj()).sum(axis=0)
        amp = clone_coefficients(d, M, rho_L.l)[0]
        emitted = (amp * amp) @ sector_array(d, rho_L.l)
    else:
        rho_in, emitted = rho_L.matrix[src, dst], np.zeros((len(rho_L.basis), d))
    terms = rho_in * (root + ratio * emitted[src, s])
    rho1 = np.bincount(rs, terms.real, d * d) + 1j * np.bincount(rs, terms.imag, d * d)
    rho1 = rho1.reshape(d, d) / L
    return SingleQuditDensity(0.5 * (rho1 + rho1.conj().T))


def fidelity_single(rho1: SingleQuditDensity, x: PureQudit) -> float:
    """Overlap <x| rho_1 |x> of one output copy with the reference qudit."""
    if rho1.d != x.d:
        raise ValueError(f"dimension mismatch: density is {rho1.d}-level, qudit is {x.d}-level")
    return float(np.vdot(x.x, rho1.matrix @ x.x).real)


def fidelity_global(out: CloneOutput, x: PureQudit) -> float:
    """Overlap of the full L-copy output with L perfect copies of x."""
    if out.d != x.d:
        raise ValueError(f"dimension mismatch: output is {out.d}-level, qudit is {x.d}-level")
    target = expand_identical(x, out.L)
    coefficients, a_index = out.nonzero_rows()
    overlaps = np.sum(target[a_index].conj() * coefficients, axis=-2)
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
