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
from functools import cached_property

import numpy as np

from .fock import (
    OccupationVector,
    SectorBasis,
    clone_coefficients,
    enumerate_sector,
    log_multinomials,
    rank,
    sector_array,
)

# Density inputs with eigenvalues below this are rejected; anything between
# -PSD_TOLERANCE and 0 is treated as round-off, clipped and renormalized.
PSD_TOLERANCE = 1e-8
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PureQudit:
    """A single d-level bosonic excitation, amplitudes x_i per mode."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=complex)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("pure qudit needs a 1-d amplitude vector of length >= 2")
        if abs(np.vdot(x, x).real - 1.0) > _NORM_TOL:
            raise ValueError(f"pure qudit is not normalized: |x|^2 = {np.vdot(x, x).real!r}")
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
class SymmetricState:
    """Pure state of `basis.total` identical bosons, amplitudes in canonical order."""

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (len(self.basis),):
            raise ValueError(f"expected {len(self.basis)} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def total(self) -> int:
        return self.basis.total

    def density(self) -> "SymmetricDensity":
        return SymmetricDensity(self.basis, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class SymmetricDensity:
    """Density operator on one fixed-total occupation sector.

    The constructor checks hermiticity and unit trace.  Use `validated` for
    user-supplied matrices: it additionally checks positivity, rejecting
    eigenvalues below -PSD_TOLERANCE and clipping mild numerical negatives.
    """

    basis: SectorBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(self.basis)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > _TRACE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(mat).real!r}, expected 1")
        object.__setattr__(self, "matrix", mat)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def total(self) -> int:
        return self.basis.total

    @classmethod
    def validated(cls, basis: SectorBasis, matrix) -> "SymmetricDensity":
        """Validate a user-supplied matrix, clipping round-off negativity."""
        rho = cls(basis, matrix)
        evals, evecs = np.linalg.eigh(rho.matrix)
        if evals.min() < -PSD_TOLERANCE:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min()!r}")
        if evals.min() >= 0.0:
            return rho
        evals = np.clip(evals, 0.0, None)
        mat = (evecs * evals) @ evecs.conj().T
        mat /= np.trace(mat).real
        return cls(basis, 0.5 * (mat + mat.conj().T))

    @classmethod
    def maximally_mixed(cls, d: int, total: int) -> "SymmetricDensity":
        basis = enumerate_sector(d, total)
        return cls(basis, np.eye(len(basis)) / len(basis))


@dataclass(frozen=True)
class CloneOutput:
    """Pure joint output conditioned on l extra copies.

    An input sum_j c_j |J[j]> of M photons clones to
    sum_{j,k} coefficients[j, k] |a_basis[a_index[j, k]]>_a |b_basis[k]>_b,
    with coefficients[j, k] = c_j amp[j, k] and (amp, a_index) from
    `fock.clone_coefficients(d, M, l)`; J is the (d, M) input sector.  For
    each k the map j -> a_index[j, k] is one-to-one, so these |J| x |K|
    entries are all the nonzeros the joint state can have.

    `amplitudes[p, q]` is the dense view: the coefficient of a-occupation
    `a_basis[p]` (total M+l) with b-occupation `b_basis[q]` (total l).  It
    is formed on first access only.
    """

    d: int
    M: int
    l: int
    a_basis: SectorBasis
    b_basis: SectorBasis
    coefficients: np.ndarray
    a_index: np.ndarray

    @property
    def L(self) -> int:
        return self.M + self.l

    @cached_property
    def amplitudes(self) -> np.ndarray:
        amps = np.zeros((len(self.a_basis), len(self.b_basis)), dtype=self.coefficients.dtype)
        amps[self.a_index, np.arange(len(self.b_basis))] = self.coefficients
        return amps

    def to_density(self) -> "CloneOutputDensity":
        flat = self.amplitudes.reshape(-1)
        return CloneOutputDensity(
            d=self.d, M=self.M, l=self.l,
            a_basis=self.a_basis, b_basis=self.b_basis,
            matrix=np.outer(flat, flat.conj()),
        )


@dataclass(frozen=True)
class CloneOutputDensity:
    """Mixed joint output conditioned on l; indexed by a_index * len(b_basis) + b_index."""

    d: int
    M: int
    l: int
    a_basis: SectorBasis
    b_basis: SectorBasis
    matrix: np.ndarray

    @property
    def L(self) -> int:
        return self.M + self.l


def _clone_output(d: int, M: int, l: int, coefficients: np.ndarray,
                  a_index: np.ndarray) -> CloneOutput:
    return CloneOutput(d=d, M=M, l=l, a_basis=enumerate_sector(d, M + l),
                       b_basis=enumerate_sector(d, l), coefficients=coefficients,
                       a_index=a_index)


def clone_basis_state(j, l: int) -> CloneOutput:
    """Clone a single occupation basis vector, conditioned on l extra copies.

    The result is sum_k amp(j, k) |j+k>_a |k>_b over all k of total l, which
    is already normalized.
    """
    j = j if isinstance(j, OccupationVector) else OccupationVector(j)
    amp, a_index = clone_coefficients(j.d, j.total(), l)
    row = rank(j)
    coefficients = np.zeros_like(amp)
    coefficients[row] = amp[row]
    return _clone_output(j.d, j.total(), l, coefficients, a_index)


def expand_identical(x: PureQudit, M: int) -> SymmetricState:
    """Expand M identical copies of a pure qudit in the occupation basis.

    The coefficient on occupation vector j is sqrt(M! / prod_i j_i!) times
    prod_i x_i^{j_i}; the result is normalized.
    """
    if M < 1:
        raise ValueError(f"number of copies must be >= 1, got {M}")
    j = sector_array(x.d, M)
    amps = np.exp(0.5 * log_multinomials(j)) * np.prod(x.x ** j, axis=1)
    return SymmetricState(enumerate_sector(x.d, M), amps)


def clone_pure(x: PureQudit, M: int, l: int) -> CloneOutput:
    """Clone M identical pure qudits, conditioned on l extra copies."""
    amp, a_index = clone_coefficients(x.d, M, l)
    c = expand_identical(x, M).amplitudes
    return _clone_output(x.d, M, l, c[:, None] * amp, a_index)


def clone_mixed(rho: SymmetricDensity, l: int) -> CloneOutputDensity:
    """Clone an arbitrary (possibly mixed) symmetric-sector input.

    Acts linearly on the input: rho maps to sum_{j j'} rho[j, j'] times
    |out_j><out_j'| on the joint a/b registers.  Rank-1 inputs reproduce the
    outer product of the pure-state clone.
    """
    d, m = rho.d, rho.total
    amp, a_index = clone_coefficients(d, m, l)
    rho = SymmetricDensity.validated(rho.basis, rho.matrix)
    a_basis = enumerate_sector(d, m + l)
    b_basis = enumerate_sector(d, l)
    # Rows of w are the flattened joint amplitudes of each basis-input clone.
    b_dim = len(b_basis)
    w = np.zeros((len(rho.basis), len(a_basis) * b_dim))
    w[np.arange(len(rho.basis))[:, None], a_index * b_dim + np.arange(b_dim)] = amp
    out = w.T @ rho.matrix @ w
    return CloneOutputDensity(d=d, M=m, l=l, a_basis=a_basis, b_basis=b_basis, matrix=out)
