"""Occupation-number bases of the symmetric (Bose) subspace.

A state of M identical d-level bosons is indexed by occupation vectors
(j_1, ..., j_d) with sum M.  This module enumerates those bases in a fixed
canonical order, ranks occupation vectors arithmetically within it, and
builds the cloning coefficients in `clone_coefficients`, the package's one
implementation of the clone formula, from per-sector log multinomials so
that no factorial is ever formed in floating point.  `check_count` owns the
one rule for a count (d, M, N, l, L): an int or numpy integer in range.
"""

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations

import numpy as np

# Largest n for which ln(n!) is tabulated.  Desk-scale bound; everything the
# package computes stays far below it.
MAX_FACTORIAL = 200

# Largest |J| x |K| table `clone_coefficients` builds.  A full build peaks at
# about 24 bytes per entry (amp, a_index, one temporary), 72 MB at this bound;
# the whole (6, 6, 12) table (2,858,856 entries) fits and adds 70 MiB, its
# ranks alone 43 MiB.
MAX_CLONE_ENTRIES = 3_000_000

# ln(n!) from the exact integer factorial, so each entry is correct to 1 ulp.
_LOG_FACTORIAL_TABLE = np.array([math.log(math.factorial(n)) for n in range(MAX_FACTORIAL + 1)])
_LOG_FACTORIAL_TABLE.setflags(write=False)


def check_count(name: str, n, low: int, high: int | None = None) -> int:
    """int(n) for an int or numpy integer n in low..high (None: unbounded), else ValueError."""
    if isinstance(n, (int, np.integer)) and low <= n and (high is None or n <= high):
        return int(n)
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValueError(f"{name} must be an integer {bound}, got {n}")


class OccupationVector(tuple):
    """Photon counts per mode, one entry per level of the qudit.

    Immutable and hashable; compares equal to a plain tuple with the same
    entries.  The number of modes must be at least 2 and every count a
    non-negative integer (ints, numpy ints and integral floats are accepted).
    """

    __slots__ = ()

    def __new__(cls, counts):
        counts = tuple(counts)
        try:
            vec = super().__new__(cls, (int(n) for n in counts))
        except (TypeError, ValueError, OverflowError):  # None, "a", inf, nan
            vec = None
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
        key = OccupationVector(vec)
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


# Typed: 2.0 and 2 are equal keys, and a float count must reach its check, not the int's entry.
@lru_cache(maxsize=None, typed=True)
def enumerate_sector(d: int, total: int) -> SectorBasis:
    """Enumerate the occupation basis of `total` photons over `d` modes.

    Returns the C(total+d-1, d-1) occupation vectors in canonical
    (reverse-lexicographic) order.
    """
    sector_array(d, total)  # validates d and total
    return SectorBasis(d=int(d), total=int(total))


@lru_cache(maxsize=None, typed=True)
def sector_array(d: int, total: int) -> np.ndarray:
    """Read-only int array of the (d, total) sector, one row per vector, canonical order.

    Stars and bars: the d-1 bar positions among total+d-1 slots, in
    lexicographic order, give the counts (gaps between bars) in
    lexicographic order; reversed, they are the canonical order.
    """
    d, total = check_count("qudit dimension", d, 2), check_count("total photon number", total, 0)
    size = math.comb(total + d - 1, d - 1)
    # This caps one sector (|A| <= |J| x |K|; oracle sectors hold at most 4,096), not
    # what is built from it: the |A|^2 density of `trace_out_b` or a clone's dense views.
    if size > MAX_CLONE_ENTRIES:
        raise ValueError(f"sector too large: {size} vectors > {MAX_CLONE_ENTRIES}")
    bars = np.full((size, d + 1), -1, dtype=np.int64)
    bars[:, -1] = total + d - 1
    bars[::-1, 1:-1] = np.fromiter(chain.from_iterable(combinations(range(total + d - 1), d - 1)),
                                   dtype=np.int64, count=size * (d - 1)).reshape(size, d - 1)
    vectors = np.diff(bars, axis=1) - 1
    vectors.setflags(write=False)
    return vectors


@lru_cache(maxsize=None, typed=True)
def log_multinomials(d: int, total: int) -> np.ndarray:
    """Read-only ln(total! / prod_i v_i!) for each vector v of the (d, total) sector.

    One entry per row of `sector_array(d, total)`, in canonical order.
    """
    vectors = sector_array(d, total)
    if total > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {total} > {MAX_FACTORIAL}")
    table = _LOG_FACTORIAL_TABLE[total] - _LOG_FACTORIAL_TABLE[vectors].sum(axis=-1)
    table.setflags(write=False)
    return table


@cache
def _rank_table(d: int, tail_max: int) -> np.ndarray:
    # Row i, column t: C(t + d-2-i, d-1-i), the number of vectors ahead of any
    # vector that leaves t photons for the modes after i.
    table = np.array([[math.comb(t + d - 2 - i, d - 1 - i) for t in range(tail_max + 1)]
                      for i in range(d - 1)], dtype=np.int64).reshape(d - 1, tail_max + 1)
    table.setflags(write=False)
    return table


def rank(*parts) -> np.ndarray:
    """Canonical position of occupation vectors, or of a sum of parts, in their sector.

    Vectorised over the broadcast leading axes of non-negative int arrays whose
    last axis holds the d counts.  This is the stars-and-bars (combinatorial
    number system) rank of the reverse-lexicographic order: the vectors ahead
    of n with the same counts in the modes before i but more in mode i number
    C(t_i + d-2-i, d-1-i), where t_i counts the photons after mode i.
    """
    # tails[p][..., i] = photons of part p after mode i; the tails of a sum add.
    tails = [np.cumsum(np.asarray(v, np.int64)[..., :0:-1], axis=-1)[..., ::-1] for v in parts]
    table = _rank_table(tails[0].shape[-1] + 1, sum(int(t.max(initial=0)) for t in tails))
    # One index buffer, looked up in place: every tail sum is a valid column, and
    # mode="clip" keeps take from buffering `out` as the default mode does.
    shape = np.broadcast_shapes(*(t.shape[:-1] for t in tails))
    buf, result = np.empty(shape, np.int64), np.zeros(shape, np.int64)
    for i, row in enumerate(table):
        buf[...] = tails[0][..., i]
        for t in tails[1:]:
            buf += t[..., i]
        result += row.take(buf, out=buf, mode="clip")
    return result[()]


def clone_shape(d: int, M: int, l: int) -> tuple[int, int]:
    """(|J|, |K|) of the (d, M, l) clone table, by arithmetic alone.

    Raises ValueError on an invalid shape, on M + l + d - 1 > MAX_FACTORIAL,
    and when |J| x |K| > MAX_CLONE_ENTRIES, so no sector or table is formed.
    """
    d = check_count("qudit dimension", d, 2)
    M = check_count("input photon number", M, 0)
    l = check_count("number of additional copies", l, 0)
    if M + l + d - 1 > MAX_FACTORIAL:
        raise ValueError(f"factorial bound exceeded: {M + l + d - 1} > {MAX_FACTORIAL}")
    n_j, n_k = math.comb(M + d - 1, d - 1), math.comb(l + d - 1, d - 1)
    if n_j * n_k > MAX_CLONE_ENTRIES:
        raise ValueError(f"clone table too large: {n_j * n_k} entries > {MAX_CLONE_ENTRIES}")
    return n_j, n_k


def clone_coefficients(d: int, M: int, l: int, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Clone amplitudes of the (d, M) input sector with l extra copies, at input `rows`.

    Returns (amp, a_index), the [rows] of two |J| x |K| tables, where J is the
    (d, M) sector, K the (d, l) sector, both in canonical order, and `rows` any
    index of J (all rows when omitted).  Basis input J[j] clones to
    sum_k amp[j, k] |J[j] + K[k]>_a |K[k]>_b, a_index[j, k] = rank(J[j] + K[k])
    in the (d, M+l) sector, and

        amp[j, k]^2 = (d[M] / d[L]) mult(J[j]) mult(K[k]) / mult(J[j] + K[k])

    with mult(n) = |n|! / prod_i n_i! and d[n] = C(n+d-1, d-1), so the prefactor
    is the optimal L-copy fidelity (Werner, Phys. Rev. A 58, 1827 (1998)).  amp
    is exp of a sum of cached per-sector log multinomials; each row has unit
    norm.  Nothing else is cached.  `clone_shape` checks the bounds first, so
    an oversized table allocates nothing.
    """
    clone_shape(d, M, l)
    a_index = rank(sector_array(d, M)[rows, None], sector_array(d, l))
    log_prefactor = math.log(math.comb(M + d - 1, d - 1) / math.comb(M + l + d - 1, d - 1))
    log_sq = log_prefactor + log_multinomials(d, M)[rows, None] + log_multinomials(d, l)
    log_sq -= log_multinomials(d, M + l)[a_index]
    log_sq *= 0.5
    return np.exp(log_sq, out=log_sq), a_index

