import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm
from scipy.sparse.linalg import expm_multiply

from stimclone.ladder import evolve, ladder_matrix
from stimclone.oracle import build_full_hamiltonian, embed_clone_state


def test_single_atom_offdiagonals():
    assert ladder_matrix(2, 1, 1, 1.0).tolist() == [math.sqrt(3)]
    assert ladder_matrix(2, 1, 0, 1.0).tolist() == [math.sqrt(2)]


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
        assert ladder[l] == pytest.approx(expected[l], abs=1e-12)


def test_matrix_is_symmetric_with_zero_diagonal():
    # The ladder is its couplings: np.diag(h, 1) + np.diag(h, -1) is symmetric
    # with a zero diagonal by construction, so only their sign is left to check.
    assert np.all(ladder_matrix(4, 5, 3) > 0.0)


def test_ladder_matrix_returns_a_read_only_float64_vector():
    h = ladder_matrix(3, 4, 2, 0.7)
    assert h.shape == (4,) and h.dtype == np.float64
    with pytest.raises(ValueError):
        h[0] = 1.0


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


def test_two_mode_couplings_formula():
    # At d = 2 the off-diagonals are sqrt((l+1)(N-l)(i+j+l+2)) with i+j = M.
    for n in (1, 3, 5):
        for m in (0, 2, 4):
            h = ladder_matrix(2, n, m, 1.3)
            for l in range(n):
                expected = 1.3 * math.sqrt((l + 1) * (n - l) * (m + l + 2))
                assert abs(h[l] - expected) < 1e-12


def test_amplitudes_depend_only_on_gamma_times_t():
    strong = ladder_matrix(3, 4, 2, gamma=2.0)
    weak = ladder_matrix(3, 4, 2, gamma=0.5)
    for t in (0.3, 1.1, 2.7):
        a = evolve(strong, t).amplitudes
        b = evolve(weak, 4.0 * t).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12


def test_emission_probabilities_boundary_values():
    h = ladder_matrix(2, 1, 1)
    assert np.allclose(evolve(h, 0.0).probabilities, [1.0, 0.0], atol=1e-15)
    flipped = evolve(h, math.pi / (2 * math.sqrt(3))).probabilities
    assert np.max(np.abs(flipped - np.array([0.0, 1.0]))) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(20):
        probs = evolve(h, float(rng.uniform(-10, 10))).probabilities
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0 + 1e-15)


def test_evolve_accepts_the_benchmarks_largest_phase():
    # The largest phases the benchmark reaches (N = 1000, tau = 3) stay legal.
    assert abs(evolve(ladder_matrix(6, 1000, 6), 3.0).probabilities.sum() - 1.0) < 1e-12


def _full_spectrum_amplitudes(h, t):
    # Reference: one eigendecomposition of the whole (N+1)-size ladder.
    w, v = eigh_tridiagonal(np.zeros(len(h) + 1), h)
    return v.astype(complex) @ (np.exp(-1j * w * t) * v[0])


def test_evolve_matches_dense_expm_on_small_ladders():
    worst = 0.0
    for n in range(1, 13):
        for d in (2, 6):
            for m in (0, 6):
                h = ladder_matrix(d, n, m)
                for t in (-2.3, 0.0, 0.7, 10.0):
                    expected = expm(-1j * t * (np.diag(h, 1) + np.diag(h, -1)))[:, 0]
                    worst = max(worst, float(np.max(np.abs(evolve(h, t).amplitudes - expected))))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("d, m, tau", [(6, 6, 3.0), (2, 0, 3.0)])
def test_evolve_matches_full_spectrum_reference_at_large_n(n, d, m, tau):
    h = ladder_matrix(d, n, m)
    profile = evolve(h, tau)
    assert np.max(np.abs(profile.amplitudes - _full_spectrum_amplitudes(h, tau))) <= 1e-10
    assert abs(profile.probabilities.sum() - 1.0) <= 1e-12


def test_evolve_matches_a_truncated_taylor_propagator():
    # expm_multiply scales and truncates a Taylor series (Al-Mohy & Higham,
    # SIAM J. Sci. Comput. 33, 488 (2011)); it solves no eigenproblem.
    # t * ||H|| runs up to about 7e3 over these points.
    worst = 0.0
    for d, n, m, t in [(6, 200, 6, 3.0), (2, 60, 0, 2.0), (3, 120, 2, 1.3),
                       (6, 1000, 6, 0.05), (4, 300, 1, -0.7)]:
        h = ladder_matrix(d, n, m)
        hamiltonian = scipy.sparse.diags([h, h], [-1, 1], format="csr")
        start = np.zeros(len(h) + 1)
        start[0] = 1.0
        expected = expm_multiply(-1j * t * hamiltonian, start)
        worst = max(worst, float(np.max(np.abs(evolve(h, t).amplitudes - expected))))
    assert worst <= 1e-11


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 6), n=st.integers(1, 64), m=st.integers(0, 6),
       t=st.floats(-10.0, 10.0, allow_nan=False))
def test_evolve_is_unitary(d, n, m, t):
    probs = evolve(ladder_matrix(d, n, m), t).probabilities
    assert abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("parity", [0, 1])
def test_evolve_is_unitary_over_the_benchmark_range(parity):
    # N = 2k + parity, k uniform in 15..499, spans the benchmark's 30..999.
    # The odd rungs come from the even block's eigenvectors through B; without
    # the first-order orthonormalization of that map |sum p - 1| reaches 3e-12.
    rng = np.random.default_rng(19 + parity)
    for _ in range(10):
        h = ladder_matrix(int(rng.integers(2, 7)), 2 * int(rng.integers(15, 500)) + parity,
                          int(rng.integers(0, 7)))
        tau = float(rng.uniform(-3.0, 3.0))
        profile = evolve(h, tau)
        assert abs(profile.probabilities.sum() - 1.0) <= 1e-13
        assert np.max(np.abs(profile.amplitudes - _full_spectrum_amplitudes(h, tau))) <= 1e-10
