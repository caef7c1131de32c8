"""Occupation-number bases of the symmetric (Bose) subspace.

A state of M identical d-level bosons is indexed by occupation vectors
(j_1, ..., j_d) with sum M.  This module enumerates those bases in a fixed
canonical order, ranks occupation vectors arithmetically within it, and
provides the combinatorial coefficients that drive the cloning
transformation, computed through log-factorials so that no factorial is ever
formed in floating point.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Largest n for which ln(n!) is tabulated.  Desk-scale bound; everything the
# package computes stays far below it.
MAX_FACTORIAL = 200

# ln(n!) from the exact integer factorial, so each entry is correct to 1 ulp.
_LOG_FACTORIALS = tuple(math.log(math.factorial(n)) for n in range(MAX_FACTORIAL + 1))
_LOG_FACTORIAL_TABLE = np.array(_LOG_FACTORIALS)
_LOG_FACTORIAL_TABLE.setflags(write=False)


class OccupationVector(tuple):
    """Photon counts per mode, one entry per level of the qudit.

    Immutable and hashable; compares equal to a plain tuple with the same
    entries.  The number of modes must be at least 2 and every count
    non-negative.
    """

    __slots__ = ()

    def __new__(cls, counts):
        vec = super().__new__(cls, (int(n) for n in counts))
        if len(vec) < 2:
            raise ValueError(f"occupation vector needs at least 2 modes, got {len(vec)}")
        if any(n < 0 for n in vec):
            raise ValueError(f"occupation numbers must be non-negative, got {tuple(vec)}")
        return vec

    @property
    def d(self) -> int:
        return len(self)

    def total(self) -> int:
        """Total photon number carried by this vector."""
        return sum(self)


@dataclass(frozen=True)
class SectorBasis:
    """All occupation vectors of a fixed total photon number, in canonical order.

    The canonical order is reverse-lexicographic on the counts: (2,0) comes
    before (1,1) before (0,2).  The order is deterministic, so matrices and
    file output indexed by it are reproducible across runs.
    """

    d: int
    total: int
    vectors: tuple[OccupationVector, ...]

    def index(self, vec) -> int:
        """Position of `vec` in the canonical enumeration."""
        key = vec if isinstance(vec, OccupationVector) else OccupationVector(vec)
        if len(key) != self.d or key.total() != self.total:
            raise ValueError(f"{tuple(key)} is not in the (d={self.d}, total={self.total}) sector")
        return int(rank(key))

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i) -> OccupationVector:
        return self.vectors[i]


@cache
def _sector_vectors(d: int, total: int) -> tuple[OccupationVector, ...]:
    def fill(modes_left: int, remaining: int):
        if modes_left == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in fill(modes_left - 1, remaining - first):
                yield (first,) + rest

    return tuple(OccupationVector(v) for v in fill(d, total))


def enumerate_sector(d: int, total: int) -> SectorBasis:
    """Enumerate the occupation basis of `total` photons over `d` modes.

    Returns the C(total+d-1, d-1) occupation vectors in canonical
    (reverse-lexicographic) order.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if total < 0:
        raise ValueError(f"total photon number must be >= 0, got {total}")
    return SectorBasis(d=d, total=total, vectors=_sector_vectors(d, total))


@cache
def sector_array(d: int, total: int) -> np.ndarray:
    """Read-only int array of the (d, total) sector, one row per vector, canonical order."""
    vectors = np.array(enumerate_sector(d, total).vectors, dtype=np.int64).reshape(-1, d)
    vectors.setflags(write=False)
    return vectors


@cache
def _rank_table(d: int, tail_max: int) -> np.ndarray:
    # Row i, column t: C(t + d-2-i, d-1-i), the number of vectors ahead of any
    # vector that leaves t photons for the modes after i.
    table = np.array([[math.comb(t + d - 2 - i, d - 1 - i) for t in range(tail_max + 1)]
                      for i in range(d - 1)], dtype=np.int64).reshape(d - 1, tail_max + 1)
    table.setflags(write=False)
    return table


def rank(vectors) -> np.ndarray:
    """Canonical position of occupation vectors within their sector.

    Vectorised over the leading axes of a non-negative int array whose last
    axis holds the d counts.  This is the stars-and-bars (combinatorial
    number system) rank of the reverse-lexicographic order: the vectors ahead
    of n with the same counts in the modes before i but more in mode i number
    C(t_i + d-2-i, d-1-i), where t_i counts the photons after mode i.
    """
    v = np.asarray(vectors, dtype=np.int64)
    d = v.shape[-1]
    # tails[..., i] = photons in the modes after i, for i = 0 .. d-2.
    tails = np.cumsum(v[..., :0:-1], axis=-1)[..., ::-1]
    table = _rank_table(d, int(tails.max(initial=0)))
    return table[np.arange(d - 1), tails].sum(axis=-1)


def log_factorial(n: int) -> float:
    """ln(n!) for 0 <= n <= MAX_FACTORIAL, exact 0.0 for n in {0, 1}."""
    if n < 0:
        raise ValueError(f"factorial of negative number: {n}")
    if n > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {n} > {MAX_FACTORIAL}")
    return _LOG_FACTORIALS[n]


def clone_amplitude(j, k) -> float:
    """Coefficient of |j+k>_a |k>_b in the cloning output of basis input j.

    With M = sum(j) and l = sum(k) the amplitude is

        sqrt[(M+d-1)! l! / (M+l+d-1)!] * prod_i sqrt[(k_i+j_i)! / (k_i! j_i!)]

    evaluated as exp of a log-factorial sum.  The value is non-negative, and
    summing its square over all k of fixed total l gives 1 (the output states
    are normalized).

    Args:
        j: occupation vector of the input state (total M).
        k: occupation vector of the additionally emitted photons (total l).

    Returns:
        The real amplitude.
    """
    j = j if isinstance(j, OccupationVector) else OccupationVector(j)
    k = k if isinstance(k, OccupationVector) else OccupationVector(k)
    if len(j) != len(k):
        raise ValueError(f"mode count mismatch: len(j)={len(j)}, len(k)={len(k)}")
    d = len(j)
    m = j.total()
    l = k.total()
    log_sq = log_factorial(m + d - 1) + log_factorial(l) - log_factorial(m + l + d - 1)
    for ji, ki in zip(j, k):
        log_sq += log_factorial(ki + ji) - log_factorial(ki) - log_factorial(ji)
    return math.exp(0.5 * log_sq)


@cache
def clone_coefficients(d: int, M: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Every clone amplitude of the (d, M) input sector with l extra copies.

    Returns read-only arrays (amp, a_index) of shape (|J|, |K|), where J is
    the (d, M) sector and K the (d, l) sector, both in canonical order:
    amp[j, k] equals `clone_amplitude(J[j], K[k])`, and a_index[j, k] is the
    position of J[j] + K[k] in the (d, M+l) sector.  So basis input J[j]
    clones to sum_k amp[j, k] |a_index[j, k]>_a |k>_b.  Cached per shape.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if M < 0:
        raise ValueError(f"input photon number must be >= 0, got {M}")
    if l < 0:
        raise ValueError(f"number of additional copies must be >= 0, got {l}")
    if M + l + d - 1 > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {M + l + d - 1} > {MAX_FACTORIAL}")
    j = sector_array(d, M)
    k = sector_array(d, l)
    jk = j[:, None, :] + k[None, :, :]
    log_sq = log_factorial(M + d - 1) + log_factorial(l) - log_factorial(M + l + d - 1)
    lf = _LOG_FACTORIAL_TABLE
    log_sq = log_sq + (lf[jk] - lf[k] - lf[j][:, None, :]).sum(axis=-1)
    amp = np.exp(0.5 * log_sq)
    a_index = rank(jk)
    amp.setflags(write=False)
    a_index.setflags(write=False)
    return amp, a_index


def log_multinomials(vectors) -> np.ndarray:
    """ln(n! / prod_i v_i!) for each occupation vector v of total n (rows of an int array)."""
    v = np.asarray(vectors, dtype=np.int64)
    totals = v.sum(axis=-1)
    if totals.max(initial=0) > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {int(totals.max())} > {MAX_FACTORIAL}")
    return _LOG_FACTORIAL_TABLE[totals] - _LOG_FACTORIAL_TABLE[v].sum(axis=-1)
