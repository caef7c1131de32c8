"""Occupation-number bases of the symmetric (Bose) subspace.

A state of M identical d-level bosons is indexed by occupation vectors
(j_1, ..., j_d) with sum M.  This module enumerates those bases in a fixed
canonical order, ranks occupation vectors arithmetically within it, and
tabulates the cloning coefficients per (d, M, l) shape in
`clone_coefficients`, the package's one implementation of the clone formula.
Coefficients are computed through log-factorials so that no factorial is
ever formed in floating point.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations

import numpy as np

# Largest n for which ln(n!) is tabulated.  Desk-scale bound; everything the
# package computes stays far below it.
MAX_FACTORIAL = 200

# Largest |J| x |K| table `clone_coefficients` builds.  Its intermediates peak
# at about 150 bytes per entry at d = 6, so a table at this bound takes about
# 0.5 GB; `clone --d 6 --j 6,0,0,0,0,0 --l 12` (2,858,856 entries) fits.
MAX_CLONE_ENTRIES = 3_000_000

# ln(n!) from the exact integer factorial, so each entry is correct to 1 ulp.
_LOG_FACTORIAL_TABLE = np.array([math.log(math.factorial(n)) for n in range(MAX_FACTORIAL + 1)])
_LOG_FACTORIAL_TABLE.setflags(write=False)


class OccupationVector(tuple):
    """Photon counts per mode, one entry per level of the qudit.

    Immutable and hashable; compares equal to a plain tuple with the same
    entries.  The number of modes must be at least 2 and every count a
    non-negative integer (ints, numpy ints and integral floats are accepted).
    """

    __slots__ = ()

    def __new__(cls, counts):
        counts = tuple(counts)
        vec = super().__new__(cls, (int(n) for n in counts))
        if vec != counts:
            raise ValueError(f"occupation numbers must be integers, got {counts}")
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
    file output indexed by it are reproducible across runs.  A view of
    `sector_array(d, total)` made by `enumerate_sector`; vectors are made on access.
    """

    d: int
    total: int

    def index(self, vec) -> int:
        """Position of `vec` in the canonical enumeration."""
        key = vec if isinstance(vec, OccupationVector) else OccupationVector(vec)
        if len(key) != self.d or key.total() != self.total:
            raise ValueError(f"{tuple(key)} is not in the (d={self.d}, total={self.total}) sector")
        return int(rank(key))

    def __len__(self) -> int:
        return len(sector_array(self.d, self.total))

    def __iter__(self):
        # Rows of a validated sector skip OccupationVector's per-vector checks.
        rows = sector_array(self.d, self.total).tolist()
        return (tuple.__new__(OccupationVector, v) for v in rows)

    def __getitem__(self, i) -> OccupationVector:
        return OccupationVector(sector_array(self.d, self.total)[i])


@cache
def enumerate_sector(d: int, total: int) -> SectorBasis:
    """Enumerate the occupation basis of `total` photons over `d` modes.

    Returns the C(total+d-1, d-1) occupation vectors in canonical
    (reverse-lexicographic) order.
    """
    sector_array(d, total)  # validates d and total
    return SectorBasis(d=d, total=total)


@cache
def sector_array(d: int, total: int) -> np.ndarray:
    """Read-only int array of the (d, total) sector, one row per vector, canonical order.

    Stars and bars: the d-1 bar positions among total+d-1 slots, in
    lexicographic order, give the counts (gaps between bars) in
    lexicographic order; reversed, they are the canonical order.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if total < 0:
        raise ValueError(f"total photon number must be >= 0, got {total}")
    size = math.comb(total + d - 1, d - 1)
    bars = np.full((size, d + 1), -1, dtype=np.int64)
    bars[:, -1] = total + d - 1
    bars[::-1, 1:-1] = np.fromiter(chain.from_iterable(combinations(range(total + d - 1), d - 1)),
                                   dtype=np.int64, count=size * (d - 1)).reshape(size, d - 1)
    vectors = np.diff(bars, axis=1) - 1
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
    return _LOG_FACTORIAL_TABLE.item(n)


@cache
def clone_coefficients(d: int, M: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Every clone amplitude of the (d, M) input sector with l extra copies.

    Returns read-only arrays (amp, a_index) of shape (|J|, |K|), where J is
    the (d, M) sector and K the (d, l) sector, both in canonical order.  The
    coefficient of |j+k>_a |k>_b in the clone of basis input j is

        amp[j, k] = sqrt[(M+d-1)! l! / (M+l+d-1)!] * prod_i sqrt[(k_i+j_i)! / (k_i! j_i!)]

    evaluated as exp of a log-factorial sum; it is non-negative and each row
    has unit norm.  a_index[j, k] is the position of J[j] + K[k] in the
    (d, M+l) sector, so basis input J[j] clones to
    sum_k amp[j, k] |a_index[j, k]>_a |k>_b.  Cached per shape.  Raises
    ValueError before allocating when |J| x |K| > MAX_CLONE_ENTRIES.
    """
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    if M < 0:
        raise ValueError(f"input photon number must be >= 0, got {M}")
    if l < 0:
        raise ValueError(f"number of additional copies must be >= 0, got {l}")
    if M + l + d - 1 > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {M + l + d - 1} > {MAX_FACTORIAL}")
    entries = math.comb(M + d - 1, d - 1) * math.comb(l + d - 1, d - 1)
    if entries > MAX_CLONE_ENTRIES:
        raise ValueError(f"clone table too large: {entries} entries > {MAX_CLONE_ENTRIES}")
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
