import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stimclone.fock import (
    MAX_CLONE_ENTRIES,
    MAX_FACTORIAL,
    OccupationVector,
    clone_coefficients,
    enumerate_sector,
    log_multinomials,
    rank,
    sector_array,
)

from child import peak_rise
from oracles import amplitude_squared, compositions


def test_occupation_vector_basics():
    vec = OccupationVector((2, 0, 1))
    assert vec.d == 3
    assert vec.total() == 3
    assert vec == (2, 0, 1)


def test_occupation_vector_rejects_non_integral_counts():
    assert OccupationVector((np.int64(2), 1.0, np.float64(0.0))) == (2, 1, 0)
    assert OccupationVector(np.array([3, 1])) == (3, 1)


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


def test_rank_is_the_enumeration_position():
    for d in range(2, 7):
        for total in range(9):
            vectors = [tuple(v) for v in enumerate_sector(d, total)]
            assert rank(np.array(vectors)).tolist() == list(range(len(vectors)))
            assert [tuple(v) for v in sector_array(d, total)] == vectors


def test_log_multinomials_trivial_values():
    # Totals 0 and 1 have multinomial 1: exact 0.0, so ln 0! = ln 1! = 0.0 in the table.
    for d in (2, 3):
        assert log_multinomials(d, 0).tolist() == [0.0]
        assert log_multinomials(d, 1).tolist() == [0.0] * d
    # (2, 0), (1, 1), (0, 2): multinomials 1, 2, 1.
    assert log_multinomials(2, 2).tolist() == [0.0, math.log(2), 0.0]


def test_log_multinomials_of_ten():
    # Exact integer factorial oracle: 10! = 3628800 and 10! / (3! 2! 5!) = 2520.
    assert math.factorial(10) == 3628800
    ones = rank(np.ones(10, dtype=np.int64))
    assert log_multinomials(10, 10)[ones] == pytest.approx(math.log(3628800), rel=1e-12)
    assert log_multinomials(3, 10)[rank((3, 2, 5))] == pytest.approx(math.log(2520), rel=1e-12)


def test_tables_reach_the_factorial_bound():
    # M + l + d - 1 = MAX_FACTORIAL, the largest factorial argument the tables hold.
    assert len(log_multinomials(2, MAX_FACTORIAL)) == MAX_FACTORIAL + 1
    amp, _ = clone_coefficients(2, 150, MAX_FACTORIAL - 151)
    assert np.all(np.isfinite(amp))


def test_log_multinomials_consecutive_differences():
    # Row 1 of the (2, n) sector is (n - 1, 1): ln(n! / (n - 1)!), which must be ln n.
    for n in range(1, MAX_FACTORIAL + 1):
        assert sector_array(2, n)[1].tolist() == [n - 1, 1]
        diff = log_multinomials(2, n)[1]
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


@settings(max_examples=50)
@given(d=st.integers(2, 6), m=st.integers(0, 6), l=st.integers(0, 6), data=st.data())
def test_clone_coefficients_at_rows_are_the_full_table_rows(d, m, l, data):
    js, ks = sector_array(d, m), sector_array(d, l)
    assert len(js) * len(ks) <= MAX_CLONE_ENTRIES
    rows = np.array(data.draw(st.lists(st.integers(0, len(js) - 1), min_size=1, max_size=6,
                                       unique=True)))
    amp, a_index = clone_coefficients(d, m, l)
    row_amp, row_index = clone_coefficients(d, m, l, rows)
    assert np.array_equal(row_amp, amp[rows])  # bit for bit: each entry is built alone
    assert np.array_equal(row_index, a_index[rows])
    assert np.array_equal(row_index, rank(js[rows, None], ks))
    one_amp, one_index = clone_coefficients(d, m, l, rows[0])
    assert np.array_equal(one_amp, amp[rows[0]]) and np.array_equal(one_index, a_index[rows[0]])
    for r, j in enumerate(js[rows].tolist()):
        for q, k in enumerate(ks.tolist()):
            assert abs(row_amp[r, q] ** 2 - amplitude_squared(j, k)) <= 1e-14


def test_clone_coefficients_build_stays_near_the_result_size():
    # The (6, 6, 12) table holds 2,858,856 floats (23 MB); building it must
    # not form |J| x |K| x d temporaries.
    rise, _ = peak_rise("from stimclone.fock import clone_coefficients", "clone_coefficients(6, 6, 12)")
    assert rise < 100 * 1024


def test_rank_of_a_sum_stays_near_the_result_size():
    # The 462 x 6,188 ranks of the (6, 6, 12) clone table are 22 MiB of int64.  One
    # index buffer looked up in place adds one more; a gathered temporary per mode,
    # summed, raised the peak by 66 MiB.
    rise, _ = peak_rise("from stimclone.fock import rank, sector_array\n"
                        "a, b = sector_array(6, 6)[:, None], sector_array(6, 12)",
                        "rank(a, b)")
    assert rise < 55 * 1024
