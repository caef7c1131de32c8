"""Cloning output states for basis, identical-pure, and mixed symmetric inputs.

An input of M identical bosons over d modes, together with l additionally
emitted photons, produces a joint state on two registers: the `a` register
holding the M+l output copies and the `b` register holding the l anti-clone
excitations.  Within a fixed l the idle-atom count is the constant N-l and
factors out of every a/b observable, so it is carried only as the label l.

Outputs are conditioned on l.  The unconditional output is the mixture over
l weighted by the emission probabilities from `stimclone.ladder`.
"""

from dataclasses import dataclass

import numpy as np

from .fock import (
    OccupationVector,
    SectorBasis,
    check_count,
    clone_coefficients,
    clone_counts,
    enumerate_sector,
    log_multinomials,
    rank,
    sector_array,
)

# `clone_mixed` rejects density inputs with eigenvalues below this; anything
# between -PSD_TOLERANCE and 0 is treated as round-off, dropped and renormalized.
PSD_TOLERANCE = 1e-8
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_NORM_TOL = 1e-12
_CLONE_NORM_TOL = 1e-9  # a clone_pure |inputs|^2 is (1 +- _NORM_TOL)^M, within 2e-10 of 1


@dataclass(frozen=True)
class PureQudit:
    """A single d-level bosonic excitation, amplitudes x_i per mode."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=complex)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("pure qudit needs a 1-d amplitude vector of length >= 2")
        if not np.all(np.isfinite(x)):
            raise ValueError("pure qudit amplitudes must be finite")
        if abs(np.vdot(x, x).real - 1.0) > _NORM_TOL:
            raise ValueError(f"pure qudit is not normalized: |x|^2 = {float(np.vdot(x, x).real)}")
        object.__setattr__(self, "x", x)

    @property
    def d(self) -> int:
        return self.x.size

    @classmethod
    def random(cls, d: int, rng: np.random.Generator) -> "PureQudit":
        """Haar-random direction: normalized complex Gaussian vector."""
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return cls(v / np.linalg.norm(v))


@dataclass(frozen=True)
class SymmetricDensity:
    """Density operator on one fixed-total occupation sector.

    The constructor checks that the matrix is finite, Hermitian and of unit
    trace.  Positivity is checked by `clone_mixed` on the eigendecomposition
    it computes anyway: it rejects eigenvalues below -PSD_TOLERANCE and drops
    milder negatives as round-off.
    """

    basis: SectorBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(self.basis)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        # |mat - mat^H|^2 = (Re - Re^T)^2 + (Im + Im^T)^2, in place: one density of temporaries.
        re, im = mat.real - mat.real.T, mat.imag + mat.imag.T
        re *= re
        re += np.square(im, out=im)
        if np.sqrt(np.max(re)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace is {float(np.trace(mat).real)}, expected 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def total(self) -> int:
        return self.basis.total


@dataclass(frozen=True)
class CloneOutput:
    """Joint output conditioned on l extra copies, stored as its input coefficients.

    An input sum_j c_j |J[j]> of the (d, M) sector J clones to
    sum_{j,k} c_j amp[j, k] |J[j] + K[k]>_a |K[k]>_b, with K = b_basis and amp
    the table of `fock.clone_coefficients(d, M, l)`.  Only c is stored, as the
    array `inputs` of shape (|J|,) or (components, |J|), with unit norm within
    _CLONE_NORM_TOL, and d, M, l as `fock.clone_counts`' ints.  `live_rows()`
    is the one accessor of the table: it builds amp and the a_basis ranks of J[j] + K[k]
    at the live rows alone, the inputs nonzero in some component, and keeps neither.

    A mixed output has one leading component axis: inputs[i] = sqrt(p_i) v_i
    for the eigenpairs (p_i, v_i) of the input, and the joint density is the
    sum of the components' projectors.  `amplitudes[..., p, q]` is the dense
    view, the coefficient of |a_basis[p]>_a |b_basis[q]>_b, formed on each
    access and not kept.
    """

    d: int
    M: int
    l: int
    inputs: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs)
        *counts, n_j, _ = clone_counts(self.d, self.M, self.l)
        if inputs.ndim not in (1, 2) or inputs.shape[-1] != n_j:
            raise ValueError(f"inputs must have shape ({n_j},) or (components, {n_j}), "
                             f"got {inputs.shape}")
        norm_sq = float(np.vdot(inputs, inputs).real)  # nan or inf for a non-finite entry
        if not abs(norm_sq - 1.0) <= _CLONE_NORM_TOL:
            raise ValueError(f"inputs must be finite with unit norm, got |inputs|^2 = {norm_sq}")
        for name, value in zip(("d", "M", "l", "inputs"), (*counts, inputs)):
            object.__setattr__(self, name, value)

    @property
    def L(self) -> int:
        return self.M + self.l

    @property
    def a_basis(self) -> SectorBasis:
        return enumerate_sector(self.d, self.L)

    @property
    def b_basis(self) -> SectorBasis:
        return enumerate_sector(self.d, self.l)

    def live_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(live, amp, a_index): the input rows nonzero in any component, and their clone table.

        a_index[r, k] is the a_basis position of J[live[r]] + K[k].  A basis output
        has one live row, a pure output one per c_j != 0.
        """
        live = np.flatnonzero(self.inputs.reshape(-1, self.inputs.shape[-1]).any(axis=0))
        return (live, *clone_coefficients(self.d, self.M, self.l, live))

    @property
    def amplitudes(self) -> np.ndarray:
        live, amp, a_index = self.live_rows()
        coefficients = self.inputs[..., live, None] * amp
        shape = self.inputs.shape[:-1] + (len(self.a_basis), len(self.b_basis))
        amps = np.zeros(shape, dtype=coefficients.dtype)
        amps[..., a_index, np.arange(len(self.b_basis))] = coefficients
        return amps

    def to_density(self) -> np.ndarray:
        """Dense (ab) x (ab) joint density, indexed by p * len(b_basis) + q."""
        flat = self.amplitudes.reshape(-1, len(self.a_basis) * len(self.b_basis))
        return flat.T @ flat.conj()


def clone_basis_state(j, l: int) -> CloneOutput:
    """Clone a single occupation basis vector, conditioned on l extra copies.

    The result is sum_k amp(j, k) |j+k>_a |k>_b over all k of total l, which
    is already normalized.
    """
    j = OccupationVector(j)
    c = np.zeros(clone_counts(j.d, j.total(), l)[3])  # also rejects an oversized shape
    c[rank(j)] = 1.0
    return CloneOutput(j.d, j.total(), l, c)


def expand_identical(x: PureQudit, M: int) -> np.ndarray:
    """Amplitudes of M identical copies of a pure qudit, canonical (d, M) order.

    The coefficient on occupation vector j is sqrt(M! / prod_i j_i!) times
    prod_i x_i^{j_i}; the result is normalized.
    """
    M = check_count("number of copies", M, 1)
    j = sector_array(x.d, M)
    return np.exp(0.5 * log_multinomials(x.d, M)) * np.prod(x.x ** j, axis=1)


def clone_pure(x: PureQudit, M: int, l: int) -> CloneOutput:
    """Clone M identical pure qudits, conditioned on l extra copies."""
    d, M, l, _, _ = clone_counts(x.d, M, l)  # rejects an oversized shape before any work
    return CloneOutput(d, M, l, expand_identical(x, M))


def clone_mixed(rho: SymmetricDensity, l: int) -> CloneOutput:
    """Clone an arbitrary (possibly mixed) symmetric-sector input.

    The cloner is linear, so rho = sum_i p_i |v_i><v_i| clones to the
    mixture of the pure clones of its eigenvectors: one output component
    with inputs sqrt(p_i) v_i per nonzero eigenvalue.  Eigenvalues below
    -PSD_TOLERANCE are rejected; the rest below the round-off cutoff are
    dropped and the kept ones renormalized.  Rank-1 inputs reproduce the
    pure-state clone up to a global phase.
    """
    clone_counts(rho.d, rho.total, l)  # rejects an oversized shape before any work
    evals, evecs = np.linalg.eigh(rho.matrix)
    if evals.min() < -PSD_TOLERANCE:
        raise ValueError(f"density matrix has negative eigenvalue {float(evals.min())}")
    # Eigenvalues below the numerical-rank cutoff (as in matrix_rank) are round-off.
    keep = evals > len(evals) * np.finfo(float).eps * evals.max()
    components = np.sqrt(evals[keep] / evals[keep].sum()) * evecs[:, keep]  # sqrt(p_i) v_i
    return CloneOutput(rho.d, rho.total, l, components.T)
