"""Partial traces, fidelities, closed-form references, and the shrinking factor.

Reductions stay in the occupation representation throughout: the one-qudit
marginal of an L-boson sector density is read off transition-operator
expectations, rho_1[r, s] = Tr(rho_L a_s^dag a_r) / L, which keeps every cost
polynomial in the sector size.

A clone output sum_{j,k} c_j amp[j, k] |j+k>_a |k>_b, with amp the table of
`fock.clone_coefficients` and k in the (d, l) sector K, has the input density
rho_in[j, j'] = c_j conj(c_j') (summed over components).  amp[j, k]^2, which is
proportional to prod_i C(j_i + k_i, k_i), is the Dirichlet-multinomial (Polya
urn) law of l draws with weights j + 1, so the mean number of photons emitted
into mode r is emitted[j, r] = l (j_r + 1) / (M + d): stimulated emission
(Simon, Weihs & Zeilinger, Phys. Rev. Lett. 84, 2993 (2000)).  With n = j + k
and j' = j - e_r + e_s, amp[j', k] / amp[j, k] = sqrt(j_r (n_s + 1) / (n_r (j_s + 1))),
so the a_s^dag a_r term sums over k to sqrt(j_r / (j_s + 1)) (j_s + 1 + emitted[j, s])
for r != s and to j_r + emitted[j, r] for r = s.  Both are the input's term
times (L + d) / (M + d), plus l / (M + d) on the diagonal, so with the input's
one-body moment m[r, s] = Tr(rho_in a_s^dag a_r)

    rho_1 = ((L + d) m + l I) / (L (M + d)),

the input's marginal m / M shrunk isotropically by eta = M (L + d) / (L (M + d))
(Werner, Phys. Rev. A 58, 1827 (1998)); no clone table is read.  A density of
L bosons is the case M = L, l = 0.  m is the Gram matrix <a_s psi|a_r psi> of
the lowered input, <P[p]| a_r |psi> = sqrt(P[p, r] + 1) c[rank(P[p] + e_r)] on
the (d, M - 1) sector P (`_raising`), summed over components.  The L-copy
fidelity is sum_k |sum_j c_j conj(t_{j+k}) amp[j, k]|^2 for the target
amplitudes t, with j over the live rows (`CloneOutput.live_rows`), summed over
the components of a mixed output: one matrix product, a gemv or a gemm.
Neither forms the dense amplitude matrix or a density of the a or ab registers.

`trace_out_b` forms the a x a density for callers that want it, from the same
live rows of the table and their ranks of j + k (`CloneOutput.live_rows`) and
rho_in = c^T conj(c) (summed over components), without the dense a x b view:
with G_k[rank(j + k), j] = amp[j, k],

    rho_a = sum_k G_k rho_in G_k^T,

so each (j, j', k) with j, j' live adds rho_in[j, j'] amp[j, k] amp[j', k] at
(rank(j + k), rank(j' + k)).  That is |J|^2 |K| terms for |J| live rows; they
are summed with `np.add.at` in blocks of input rows j of at most |A|^2 / 4
terms (one row at least), so a block's temporaries hold no more entries than a
quarter of the |A|^2 result.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .cloner import CloneOutput, PureQudit, SymmetricDensity, expand_identical
from .fock import check_count, rank, sector_array

ISOTROPY_TOL = 1e-9


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


def trace_out_b(out: CloneOutput) -> SymmetricDensity:
    """Density of the M+l output copies, after discarding the b register.

    rho_a = sum_k G_k rho_in G_k^T with G_k[rank(j + k), j] = amp[j, k], summed
    in blocks of input rows of at most |A|^2 / 4 terms (module docstring).  One
    body serves basis, pure and mixed outputs; only the input rows nonzero in
    some component are built and summed, so a basis output costs |K| terms.
    """
    live, amp, a_index = out.live_rows()
    c = out.inputs.reshape(-1, out.inputs.shape[-1])[:, live]
    rho_in = c.T @ c.conj()
    n_a = len(out.a_basis)
    rho = np.zeros(n_a * n_a, dtype=complex)
    step = max(1, n_a * n_a // (4 * amp.size))
    for start in range(0, len(live), step):
        rows = slice(start, start + step)
        pairs = (a_index[rows, None] * n_a + a_index).ravel()
        np.add.at(rho, pairs, (rho_in[rows, :, None] * (amp[rows, None] * amp)).ravel())
    rho = rho.reshape(n_a, n_a)
    rho += rho.conj().T
    rho *= 0.5
    return SymmetricDensity(out.a_basis, rho)


@cache
def _raising(d: int, total: int) -> tuple:
    """(up, root) with a_r^dag |P[p]> = root[p, r] |up[p, r]> on the (d, total) sector P.

    up[p, r] is the rank of P[p] + e_r and root = sqrt(P + 1); both are empty for total < 0.
    """
    lower = sector_array(d, total) if total >= 0 else np.zeros((0, d), dtype=np.int64)
    return rank(lower[:, None], np.eye(d, dtype=np.int64)), np.sqrt(lower + 1)


def reduce_to_single(rho_L: SymmetricDensity | CloneOutput) -> SingleQuditDensity:
    """One-qudit marginal of an L-boson symmetric density or of a clone output.

    rho_1 = ((L + d) m + l I) / (L (M + d)) with m[r, s] = Tr(rho_in a_s^dag a_r),
    the Gram matrix of the lowered input, by the emission law of the module
    docstring.  Only the input density is read, never the clone table; a density
    is the case M = L, l = 0, so it may have any total.
    """
    d, cloned = rho_L.d, isinstance(rho_L, CloneOutput)
    M, L = (rho_L.M, rho_L.L) if cloned else (rho_L.total, rho_L.total)
    if L < 1:
        raise ValueError("single-qudit reduction needs at least one boson")
    up, root = _raising(d, M - 1)
    if cloned:
        lowered = (rho_L.inputs[..., up] * root).reshape(-1, d)  # [(i, p), r]: <P[p]| a_r |psi_i>
        m = lowered.T @ lowered.conj()
    else:
        gathered = rho_L.matrix[up[:, :, None], up[:, None, :]]  # [p, r, s]: rho[up_pr, up_ps]
        m = (root[:, :, None] * root[:, None, :] * gathered).sum(0)
    # The factor comes before the division by L: for a density it is exactly 1.0.
    rho1 = (m * ((L + d) / (M + d)) + np.eye(d) * ((L - M) / (M + d))) / L
    return SingleQuditDensity(0.5 * (rho1 + rho1.conj().T))


def fidelity_single(rho1: SingleQuditDensity, x: PureQudit) -> float:
    """Overlap <x| rho_1 |x> of one output copy with the reference qudit."""
    if rho1.d != x.d:
        raise ValueError(f"dimension mismatch: density is {rho1.d}-level, qudit is {x.d}-level")
    return float(np.vdot(x.x, rho1.matrix @ x.x).real)


def fidelity_global(out: CloneOutput, x: PureQudit) -> float:
    """Overlap of the full L-copy output with L perfect copies of x, in one matrix product."""
    if out.d != x.d:
        raise ValueError(f"dimension mismatch: output is {out.d}-level, qudit is {x.d}-level")
    target = expand_identical(x, out.L)
    live, amp, a_index = out.live_rows()
    overlaps = out.inputs[..., live] @ (target[a_index].conj() * amp)
    return float(np.sum(np.abs(overlaps) ** 2))


def _check_cloning_shape(M: int, L: int, d: int) -> tuple[int, int, int]:
    d = check_count("qudit dimension", d, 2)
    M = check_count("input copy number", M, 1)
    return M, check_count("output copy number", L, M), d


def closed_form_single(M: int, L: int, d: int) -> float:
    """Optimal single-copy fidelity (M(L+d) + L - M) / (L(M+d)), correctly rounded."""
    M, L, d = _check_cloning_shape(M, L, d)
    return (M * (L + d) + L - M) / (L * (M + d))


def closed_form_global(M: int, L: int, d: int) -> float:
    """Optimal L-copy fidelity d[M] / d[L], correctly rounded, with d[n] = C(n+d-1, d-1) the
    symmetric-subspace dimension of n qudits (Werner, Phys. Rev. A 58, 1827 (1998))."""
    M, L, d = _check_cloning_shape(M, L, d)
    return math.comb(M + d - 1, d - 1) / math.comb(L + d - 1, d - 1)


@dataclass(frozen=True)
class ShrinkingFit:
    """Least-squares fit of rho_out = eta * rho_in + (1 - eta) * I/d.

    `isotropic` is True when the residual is below ISOTROPY_TOL; otherwise
    `eta` is still the best-fit value and `residual` says how far from
    isotropic the pair is.
    """

    eta: float
    residual: float
    isotropic: bool


def shrinking_factor(rho_in_1: SingleQuditDensity, rho_out_1: SingleQuditDensity) -> ShrinkingFit:
    """Fit the isotropic-shrinking model between one-qudit input and output.

    Both traceless parts are compared entrywise: eta minimizes the Frobenius
    norm of (rho_out - I/d) - eta (rho_in - I/d).  A fully mixed input fits
    with any eta and reports eta = 0.
    """
    if rho_in_1.d != rho_out_1.d:
        raise ValueError("input and output reduced densities have different dimensions")
    d = rho_in_1.d
    identity = np.eye(d) / d
    a = rho_in_1.matrix - identity
    b = rho_out_1.matrix - identity
    norm_a_sq = np.vdot(a, a).real
    eta = 0.0 if norm_a_sq < 1e-24 else float(np.vdot(a, b).real / norm_a_sq)
    residual = float(np.linalg.norm(b - eta * a))
    return ShrinkingFit(eta=eta, residual=residual, isotropic=residual < ISOTROPY_TOL)
