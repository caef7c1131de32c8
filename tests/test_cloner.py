import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stimclone
from stimclone.cloner import (
    CloneOutput,
    PureQudit,
    SymmetricDensity,
    clone_basis_state,
    clone_mixed,
    clone_pure,
    expand_identical,
)
from stimclone.fock import clone_coefficients, clone_counts, enumerate_sector, sector_array

from child import peak_rise
from oracles import amplitude_squared, identical_expansion, random_density


def test_clone_basis_state_without_emission():
    out = clone_basis_state((1, 0), 0)
    assert out.amplitudes.shape == (2, 1)
    assert out.amplitudes[out.a_basis.index((1, 0)), 0] == 1.0
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_clone_basis_state_balanced_two_photon_input():
    # j = (1,1): the oracle gives squared weight 1/2 on each emission channel.
    assert amplitude_squared((1, 1), (1, 0)) == Fraction(1, 2)
    assert amplitude_squared((1, 1), (0, 1)) == Fraction(1, 2)
    out = clone_basis_state((1, 1), 1)
    w = out.amplitudes[out.a_basis.index((2, 1)), out.b_basis.index((1, 0))]
    assert w == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,m,l", [(2, 1, 2), (2, 3, 1), (3, 2, 2), (4, 1, 1)])
def test_clone_output_norm_and_photon_conservation(d, m, l):
    for j in enumerate_sector(d, m):
        out = clone_basis_state(j, l)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
        for p, a_vec in enumerate(out.a_basis):
            for q, b_vec in enumerate(out.b_basis):
                if out.amplitudes[p, q] != 0.0:
                    diff = tuple(a - b for a, b in zip(a_vec, b_vec))
                    assert diff == tuple(j)


@settings(max_examples=40)
@given(d=st.integers(2, 5), m=st.integers(1, 3), l=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_clone_outputs_store_inputs_and_have_unit_norm(d, m, l, seed):
    rng = np.random.default_rng(seed)
    basis = enumerate_sector(d, m)
    rank = int(rng.integers(1, len(basis) + 1))
    rho = SymmetricDensity(basis, random_density(len(basis), rank, rng))
    outs = (clone_basis_state(basis[int(rng.integers(len(basis)))], l),
            clone_pure(PureQudit.random(d, rng), m, l),
            clone_mixed(rho, l))
    assert [out.inputs.shape for out in outs] == [(len(basis),), (len(basis),), (rank, len(basis))]
    for out in outs:
        coefficients = out.inputs[..., None] * clone_coefficients(d, m, l)[0]
        assert coefficients.shape[-2:] == (len(basis), math.comb(l + d - 1, d - 1))
        assert abs(np.linalg.norm(coefficients) - 1.0) < 1e-12


def test_clone_table_accessor_keeps_the_rows_of_nonzero_inputs():
    basis = enumerate_sector(3, 2)
    rho = np.diag([0.0, 0.7, 0.3, 0.0, 0.0, 0.0])  # each component is nonzero on one input
    outs = (clone_basis_state((0, 2, 0), 2),
            clone_pure(PureQudit(np.array([0.6, 0.0, 0.8j])), 2, 2),
            clone_mixed(SymmetricDensity(basis, rho), 2))
    for out, expected in zip(outs, ([3], [0, 2, 5], [1, 2])):
        live, amp, a_index = out.live_rows()
        assert live.tolist() == expected
        assert a_index.shape == amp.shape == (len(live), len(out.b_basis))
        for r, j in enumerate(live):
            for k, b_vec in enumerate(out.b_basis):
                a_vec = tuple(x + y for x, y in zip(basis[j], b_vec))
                assert a_index[r, k] == out.a_basis.index(a_vec)
                assert abs(amp[r, k] - math.sqrt(amplitude_squared(basis[j], b_vec))) < 1e-15
        dropped = np.delete(out.inputs, live, axis=-1)
        assert not dropped.any()


def test_constructors_check_the_shape_without_building_the_clone_table(monkeypatch):
    for d in (2, 3, 6):
        for m in range(4):
            for l in range(4):
                shape = (len(sector_array(d, m)), len(sector_array(d, l)))
                assert clone_counts(d, m, l) == (d, m, l, *shape)

    def refuse(*_):
        raise AssertionError("a constructor built the clone table")

    for module in (stimclone.fock, stimclone.cloner):
        monkeypatch.setattr(module, "clone_coefficients", refuse)
    outs = [clone_pure(PureQudit(np.array([0.6, 0.0, 0.8j])), 2, 3),
            clone_basis_state((0, 2, 0), 3),
            clone_mixed(SymmetricDensity(enumerate_sector(3, 2), np.eye(6) / 6), 3)]
    for out in outs:  # the table is read on use, through the patched builder
        with pytest.raises(AssertionError, match="built the clone table"):
            out.live_rows()


def test_numpy_counts_reuse_the_sector_caches_of_their_ints():
    # The sector caches are typed: a numpy count passed on would key a second copy of each table.
    caches, sizes = (sector_array, stimclone.fock.log_multinomials), []
    for d, m, l in [(3, 2, 4), (np.int64(3), np.int64(2), np.int64(4))]:
        clone_coefficients(d, m, l)
        clone_pure(PureQudit(np.array([0.6, 0.8j, 0.0])), m, l).live_rows()
        sizes.append([cache.cache_info().currsize for cache in caches])
    assert sizes[0] == sizes[1]
    out = CloneOutput(np.int64(2), np.int64(1), 1, np.array([1.0, 0.0]))
    assert [type(n) for n in (out.d, out.M, out.l, out.L)] == [int] * 4


def test_expand_identical_basis_direction():
    x = PureQudit(np.array([1.0, 0.0, 0.0]))
    state = expand_identical(x, 3)
    basis = enumerate_sector(3, 3)
    expected = np.zeros(len(basis), dtype=complex)
    expected[basis.index((3, 0, 0))] = 1.0
    assert np.max(np.abs(state - expected)) < 1e-15


def test_expand_identical_balanced_qubit():
    # Multinomial expansion oracle for x = (1,1)/sqrt(2), M = 2.
    x = np.array([1.0, 1.0]) / math.sqrt(2)
    oracle = identical_expansion(x, 2)
    assert oracle[(2, 0)] == pytest.approx(0.5, abs=1e-14)
    assert oracle[(1, 1)] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    state = expand_identical(PureQudit(x), 2)
    basis = enumerate_sector(2, 2)
    for occ, value in oracle.items():
        assert state[basis.index(occ)] == pytest.approx(value, abs=1e-12)


def test_expand_identical_matches_first_quantized_expansion():
    rng = np.random.default_rng(21)
    for d in (2, 3):
        for m in (1, 2, 3, 4):
            x = PureQudit.random(d, rng)
            state = expand_identical(x, m)
            basis = enumerate_sector(d, m)
            oracle = identical_expansion(x.x, m)
            assert abs(np.vdot(state, state) - 1.0) < 1e-12
            for occ, value in oracle.items():
                got = state[basis.index(occ)]
                assert abs(got - value) < 1e-12


def test_clone_pure_on_basis_direction_matches_basis_clone():
    x = PureQudit(np.array([1.0, 0.0]))
    out = clone_pure(x, 1, 1)
    ref = clone_basis_state((1, 0), 1)
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-14


def test_clone_pure_norm_for_random_inputs():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        l = int(rng.integers(0, 4))
        out = clone_pure(PureQudit.random(d, rng), m, l)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_clone_mixed_of_basis_projector_is_outer_product():
    basis = enumerate_sector(2, 1)
    rho = np.zeros((2, 2))
    rho[basis.index((1, 0)), basis.index((1, 0))] = 1.0
    dens = clone_mixed(SymmetricDensity(basis, rho), 1)
    ref = clone_basis_state((1, 0), 1).to_density()
    assert np.max(np.abs(dens.to_density() - ref)) < 1e-12


def test_clone_mixed_output_is_a_density():
    rng = np.random.default_rng(25)
    basis = enumerate_sector(2, 2)
    dens = clone_mixed(SymmetricDensity(basis, random_density(len(basis), 2, rng)), 1)
    mat = dens.to_density()
    assert abs(np.trace(mat).real - 1.0) < 1e-12
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(mat).min() > -1e-10


def test_symmetric_density_checks_hermiticity_within_one_and_a_half_densities():
    # The (6, 9) sector has 2,002 vectors, so the complex density holds 61 MiB.  A
    # complex difference and its absolute value raised the peak by 122 MiB.
    rise, _ = peak_rise(
        "import numpy as np\n"
        "from stimclone.cloner import SymmetricDensity\n"
        "from stimclone.fock import enumerate_sector\n"
        "basis = enumerate_sector(6, 9)\n"
        "mat = np.full((len(basis), len(basis)), 0j)  # every page touched\n"
        "np.fill_diagonal(mat, 1 / len(basis))",
        "SymmetricDensity(basis, mat)")
    assert rise < 92 * 1024


def test_clone_mixed_clips_roundoff_negativity():
    basis = enumerate_sector(2, 1)
    eps = 5e-9
    rho = SymmetricDensity(basis, np.diag([1.0 + eps, -eps]))
    dens = clone_mixed(rho, 1)
    assert abs(np.trace(dens.to_density()).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(dens.to_density()).min() > -1e-12


def test_pure_qudit_validation_and_sampling():
    rng = np.random.default_rng(26)
    for d in (2, 3, 5):
        x = PureQudit.random(d, rng)
        assert x.d == d
        assert abs(np.vdot(x.x, x.x).real - 1.0) < 1e-12


def test_validation_messages_print_plain_numbers():
    basis = enumerate_sector(2, 1)
    for build, value in ((lambda: PureQudit(np.ones(2)), "2.0"),
                         (lambda: SymmetricDensity(basis, np.eye(2)), "2.0"),
                         (lambda: clone_mixed(SymmetricDensity(basis, np.diag([1.5, -0.5])), 1),
                          "-0.5")):
        with pytest.raises(ValueError) as exc:
            build()
        assert value in str(exc.value) and "np." not in str(exc.value), str(exc.value)
