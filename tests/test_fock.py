import math
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from stimclone.cloner import clone_basis_state
from stimclone.fock import (
    MAX_CLONE_ENTRIES,
    MAX_FACTORIAL,
    OccupationVector,
    clone_coefficients,
    enumerate_sector,
    log_factorial,
    rank,
    sector_array,
)

from oracles import amplitude_squared, compositions


def test_occupation_vector_basics():
    vec = OccupationVector((2, 0, 1))
    assert vec.d == 3
    assert vec.total() == 3
    assert vec == (2, 0, 1)
    with pytest.raises(ValueError):
        OccupationVector((3,))
    with pytest.raises(ValueError):
        OccupationVector((1, -1))


def test_occupation_vector_rejects_non_integral_counts():
    assert OccupationVector((np.int64(2), 1.0, np.float64(0.0))) == (2, 1, 0)
    assert OccupationVector(np.array([3, 1])) == (3, 1)
    for counts in ((1.9, 0), (0, 0.5), (np.float64(2.5), 1), ("1", 0)):
        with pytest.raises(ValueError, match="integers"):
            OccupationVector(counts)
    # The cloner rejects it as well, rather than cloning the truncation (1, 0).
    with pytest.raises(ValueError):
        clone_basis_state((1.9, 0), 1)


def test_enumerate_empty_sector():
    basis = enumerate_sector(2, 0)
    assert [tuple(v) for v in basis] == [(0, 0)]


def test_enumerate_small_qubit_sector_order():
    basis = enumerate_sector(2, 2)
    assert [tuple(v) for v in basis] == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_qutrit_sector_matches_stars_and_bars():
    # Independent enumeration: 6 = C(4, 2) compositions of 2 into 3 parts.
    expected = set(compositions(2, 3))
    basis = enumerate_sector(3, 2)
    assert len(basis) == 6
    assert {tuple(v) for v in basis} == expected


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_sector(1, 3)
    with pytest.raises(ValueError):
        enumerate_sector(2, -1)


def test_sector_sizes_match_binomial():
    for d in range(2, 6):
        for total in range(9):
            assert len(enumerate_sector(d, total)) == math.comb(total + d - 1, d - 1)


def test_canonical_order_is_reverse_lexicographic():
    for d in range(2, 7):
        for total in range(9):
            vectors = [tuple(v) for v in enumerate_sector(d, total)]
            assert vectors == sorted(vectors, reverse=True)
            assert all(a > b for a, b in zip(vectors, vectors[1:]))  # strictly decreasing
            assert all(min(v) >= 0 and sum(v) == total for v in vectors)
            assert vectors[0] == (total,) + (0,) * (d - 1)
            assert vectors[-1] == (0,) * (d - 1) + (total,)


def test_sector_index_roundtrip():
    basis = enumerate_sector(3, 4)
    for i, vec in enumerate(basis):
        assert basis.index(vec) == i
        assert basis.index(tuple(vec)) == i
    with pytest.raises(ValueError):
        basis.index((4, 1, 0))


def test_rank_is_the_enumeration_position():
    for d in range(2, 7):
        for total in range(9):
            vectors = [tuple(v) for v in enumerate_sector(d, total)]
            assert rank(np.array(vectors)).tolist() == list(range(len(vectors)))
            assert [tuple(v) for v in sector_array(d, total)] == vectors


def test_sector_index_rejects_wrong_mode_count():
    with pytest.raises(ValueError):
        enumerate_sector(3, 2).index((1, 1))


def test_log_factorial_trivial_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0


def test_log_factorial_of_ten():
    # Exact integer factorial oracle: 10! = 3628800.
    assert math.factorial(10) == 3628800
    assert log_factorial(10) == pytest.approx(math.log(3628800), rel=1e-12)


def test_log_factorial_domain():
    with pytest.raises(ValueError):
        log_factorial(-1)
    with pytest.raises(ValueError):
        log_factorial(MAX_FACTORIAL + 1)


def test_log_factorial_consecutive_differences():
    for n in range(1, MAX_FACTORIAL + 1):
        diff = log_factorial(n) - log_factorial(n - 1)
        assert abs(diff - math.log(n)) < 1e-12 * max(1.0, abs(math.log(n)))


def test_clone_amplitude_single_photon_values():
    # Exact-rational oracle gives 2/3 and 1/3 for the two emission channels.
    assert amplitude_squared((1, 0), (1, 0)) == Fraction(2, 3)
    assert amplitude_squared((1, 0), (0, 1)) == Fraction(1, 3)
    amp, _ = clone_coefficients(2, 1, 1)
    row = rank((1, 0))
    assert amp[row, rank((1, 0))] == pytest.approx(math.sqrt(2 / 3), abs=1e-14)
    assert amp[row, rank((0, 1))] == pytest.approx(math.sqrt(1 / 3), abs=1e-14)


def test_clone_amplitude_without_emission_is_one():
    for d in (2, 3, 4):
        for m in (0, 1, 3):
            amp, _ = clone_coefficients(d, m, 0)
            assert amp.shape == (len(enumerate_sector(d, m)), 1)
            assert np.all(amp == 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_clone_amplitude_normalization(d):
    # Squared amplitudes over one emission sector sum to exactly 1 (rational
    # oracle) and to 1 within 1e-12 in floating point.
    for m in range(5):
        for l in range(5):
            amp, _ = clone_coefficients(d, m, l)
            ks = enumerate_sector(d, l)
            for j in enumerate_sector(d, m):
                exact = sum(amplitude_squared(j, k) for k in ks)
                assert exact == 1
                assert abs(np.sum(amp[rank(j)] ** 2) - 1.0) < 1e-12


def test_clone_amplitude_mode_permutation_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        j = tuple(int(v) for v in rng.integers(0, 3, size=d))
        k = tuple(int(v) for v in rng.integers(0, 3, size=d))
        amp, _ = clone_coefficients(d, sum(j), sum(k))
        for perm in permutations(range(d)):
            jp = tuple(j[p] for p in perm)
            kp = tuple(k[p] for p in perm)
            assert amp[rank(jp), rank(kp)] == pytest.approx(amp[rank(j), rank(k)], abs=1e-12)


def test_clone_coefficients_match_scalar_amplitudes():
    for d in range(2, 5):
        for m in range(4):
            for l in range(4):
                amp, a_index = clone_coefficients(d, m, l)
                js, ks = enumerate_sector(d, m), enumerate_sector(d, l)
                a_basis = enumerate_sector(d, m + l)
                assert amp.shape == a_index.shape == (len(js), len(ks))
                for p, j in enumerate(js):
                    for q, k in enumerate(ks):
                        assert abs(amp[p, q] - math.sqrt(amplitude_squared(j, k))) <= 1e-14
                        assert a_basis[a_index[p, q]] == tuple(a + b for a, b in zip(j, k))


def test_clone_coefficients_reject_oversized_shapes():
    # M + l + d - 1 is the largest factorial argument; one past the table must
    # raise ValueError, not index off its end.
    amp, _ = clone_coefficients(2, 150, MAX_FACTORIAL - 151)
    assert np.all(np.isfinite(amp))
    for d, m, l in [(2, 150, MAX_FACTORIAL - 150), (2, 0, MAX_FACTORIAL), (3, MAX_FACTORIAL, 1)]:
        with pytest.raises(ValueError):
            clone_coefficients(d, m, l)
    for d, m, l in [(1, 1, 1), (2, -1, 1), (2, 1, -1)]:
        with pytest.raises(ValueError):
            clone_coefficients(d, m, l)


def test_clone_coefficients_reject_oversized_tables_before_allocating():
    # |J| x |K| above MAX_CLONE_ENTRIES: 462 x 8568 just above, 1 x C(199, 5) ~ 2.5e9 far above.
    for d, m, l in [(6, 6, 13), (6, 0, 194)]:
        assert math.comb(m + d - 1, d - 1) * math.comb(l + d - 1, d - 1) > MAX_CLONE_ENTRIES
        start = time.perf_counter()
        with pytest.raises(ValueError, match="clone table too large"):
            clone_coefficients(d, m, l)
        assert time.perf_counter() - start < 0.1
