import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm

from stimclone.ladder import (
    MAX_LADDER_ATOMS,
    emission_probabilities,
    evolve,
    ladder_matrix,
    propagator,
)
from stimclone.oracle import build_full_hamiltonian, embed_clone_state


def test_single_atom_offdiagonals():
    assert ladder_matrix(2, 1, 1, 1.0).offdiag == (math.sqrt(3),)
    assert ladder_matrix(2, 1, 0, 1.0).offdiag == (math.sqrt(2),)


def test_offdiagonals_match_full_hamiltonian():
    # Rebuild the couplings from the raw Fock-space Hamiltonian restricted to
    # the embedded output states, then compare element by element.
    d, n, j = 3, 2, (1, 0, 0)
    basis, h_full = build_full_hamiltonian(d, n, j)
    embedded = np.column_stack([embed_clone_state(basis, l) for l in range(n + 1)])
    restricted = embedded.T @ h_full @ embedded
    expected = [math.sqrt(8), math.sqrt(10)]
    ladder = ladder_matrix(d, n, sum(j), 1.0)
    for l in range(n):
        assert restricted[l, l + 1] == pytest.approx(expected[l], abs=1e-12)
        assert ladder.offdiag[l] == pytest.approx(expected[l], abs=1e-12)


def test_ladder_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ladder_matrix(1, 1, 1)
    with pytest.raises(ValueError):
        ladder_matrix(2, 0, 1)
    with pytest.raises(ValueError):
        ladder_matrix(2, 1, -1)
    with pytest.raises(ValueError):
        ladder_matrix(2, 1, 1, gamma=0.0)
    with pytest.raises(ValueError):
        ladder_matrix(2, 1, 1, gamma=math.inf)


def test_matrix_is_symmetric_with_zero_diagonal():
    h = ladder_matrix(3, 4, 2, 0.7).matrix()
    assert np.array_equal(h, h.T)
    assert np.all(np.diag(h) == 0.0)
    assert np.all(np.asarray(ladder_matrix(4, 5, 3).offdiag) > 0.0)


def test_evolution_at_zero_is_identity():
    h = ladder_matrix(2, 4, 2)
    profile = evolve(h, 0.0)
    expected = np.zeros(5)
    expected[0] = 1.0
    assert np.max(np.abs(profile.amplitudes - expected)) < 1e-12


def test_single_atom_rabi_oscillation():
    # Analytic 2x2 exponential: |f_1(t)|^2 = sin^2(sqrt(M+d) * t).
    h = ladder_matrix(2, 1, 1)
    for t in np.linspace(0.0, 4.0, 17):
        probs = evolve(h, t).probabilities
        assert probs[1] == pytest.approx(math.sin(math.sqrt(3) * t) ** 2, abs=1e-12)


def test_unitarity_over_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 5))
        t = float(rng.uniform(0.0, 10.0))
        probs = emission_probabilities(ladder_matrix(d, n, m), t)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_forward_backward_evolution_recovers_start():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = ladder_matrix(int(rng.integers(2, 4)), int(rng.integers(1, 7)), int(rng.integers(0, 4)))
        t = float(rng.uniform(0.0, 8.0))
        start = np.zeros(h.size)
        start[0] = 1.0
        roundtrip = propagator(h, -t) @ (propagator(h, t) @ start)
        assert np.max(np.abs(roundtrip - start)) < 1e-9


def test_two_mode_couplings_formula():
    # At d = 2 the off-diagonals are sqrt((l+1)(N-l)(i+j+l+2)) with i+j = M.
    for n in (1, 3, 5):
        for m in (0, 2, 4):
            h = ladder_matrix(2, n, m, 1.3)
            for l in range(n):
                expected = 1.3 * math.sqrt((l + 1) * (n - l) * (m + l + 2))
                assert abs(h.offdiag[l] - expected) < 1e-12


def test_amplitudes_depend_only_on_gamma_times_t():
    strong = ladder_matrix(3, 4, 2, gamma=2.0)
    weak = ladder_matrix(3, 4, 2, gamma=0.5)
    for t in (0.3, 1.1, 2.7):
        a = evolve(strong, t).amplitudes
        b = evolve(weak, 4.0 * t).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12


def test_emission_probabilities_boundary_values():
    h = ladder_matrix(2, 1, 1)
    assert np.allclose(emission_probabilities(h, 0.0), [1.0, 0.0], atol=1e-15)
    flipped = emission_probabilities(h, math.pi / (2 * math.sqrt(3)))
    assert np.max(np.abs(flipped - np.array([0.0, 1.0]))) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(20):
        probs = emission_probabilities(h, float(rng.uniform(-10, 10)))
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-15)


def test_evolve_rejects_nonfinite_time():
    h = ladder_matrix(2, 1, 1)
    with pytest.raises(ValueError):
        evolve(h, math.inf)
    with pytest.raises(ValueError):
        evolve(h, math.nan)


def test_evolve_and_propagator_reject_overflowing_phases():
    # sigma * t overflows to inf: a ValueError, not nan probabilities and a RuntimeWarning.
    h = ladder_matrix(6, 100, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (evolve, propagator):
            with pytest.raises(ValueError, match="finite"):
                fn(h, 1e307)


def _full_spectrum_amplitudes(h, t):
    # Reference: one eigendecomposition of the whole (N+1)-size ladder.
    w, v = eigh_tridiagonal(np.zeros(h.size), np.asarray(h.offdiag))
    return v.astype(complex) @ (np.exp(-1j * w * t) * v[0])


def test_evolve_matches_dense_expm_on_small_ladders():
    worst = 0.0
    for n in range(1, 13):
        for d in (2, 6):
            for m in (0, 6):
                h = ladder_matrix(d, n, m)
                for t in (-2.3, 0.0, 0.7, 10.0):
                    expected = expm(-1j * t * h.matrix())[:, 0]
                    worst = max(worst, float(np.max(np.abs(evolve(h, t).amplitudes - expected))))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("d, m, tau", [(6, 6, 3.0), (2, 0, 3.0)])
def test_evolve_matches_full_spectrum_reference_at_large_n(n, d, m, tau):
    h = ladder_matrix(d, n, m)
    profile = evolve(h, tau)
    assert np.max(np.abs(profile.amplitudes - _full_spectrum_amplitudes(h, tau))) <= 1e-10
    assert abs(profile.probabilities.sum() - 1.0) <= 1e-12


def test_propagator_matches_dense_expm_and_is_unitary():
    for n in range(1, 13):
        for d, m in ((2, 0), (3, 1), (6, 6)):
            h = ladder_matrix(d, n, m)
            for t in (-2.3, 0.7, 10.0):
                p = propagator(h, t)
                assert np.max(np.abs(p - expm(-1j * t * h.matrix()))) <= 1e-12
                assert np.linalg.norm(p @ p.conj().T - np.eye(h.size), 2) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 6), n=st.integers(1, 64), m=st.integers(0, 6),
       t=st.floats(-10.0, 10.0, allow_nan=False))
def test_evolve_is_unitary(d, n, m, t):
    probs = emission_probabilities(ladder_matrix(d, n, m), t)
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_ladder_matrix_rejects_oversized_ladders_at_once():
    ladder_matrix(2, MAX_LADDER_ATOMS, 0)
    start = time.perf_counter()
    for n in (MAX_LADDER_ATOMS + 1, 10**9):
        with pytest.raises(ValueError, match="excited atoms"):
            ladder_matrix(2, n, 0)
    assert time.perf_counter() - start < 0.1
