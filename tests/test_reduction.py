import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stimclone.cloner import (
    PureQudit,
    SymmetricDensity,
    clone_basis_state,
    clone_mixed,
    clone_pure,
    expand_identical,
)
from stimclone.fock import MAX_FACTORIAL, enumerate_sector, sector_array
from stimclone.reduction import (
    ShrinkingFit,
    SingleQuditDensity,
    closed_form_global,
    closed_form_single,
    fidelity_global,
    fidelity_single,
    reduce_to_single,
    shrinking_factor,
    trace_out_b,
)

from oracles import first_quantized_single_marginal, random_density


def simulate_single_fidelity(x, m, l):
    out = clone_pure(x, m, l)
    return fidelity_single(reduce_to_single(trace_out_b(out)), x)


def test_trace_out_b_of_basis_clone_is_diagonal():
    # Perfect a/b correlation makes the a-marginal diagonal with the squared
    # cloning weights 2/3 and 1/3.
    rho = trace_out_b(clone_basis_state((1, 0), 1))
    expected = np.zeros((3, 3))
    expected[rho.basis.index((2, 0)), rho.basis.index((2, 0))] = 2 / 3
    expected[rho.basis.index((1, 1)), rho.basis.index((1, 1))] = 1 / 3
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_trace_out_b_without_emission_is_projector():
    rng = np.random.default_rng(31)
    x = PureQudit.random(3, rng)
    state = expand_identical(x, 2)
    rho = trace_out_b(clone_pure(x, 2, 0))
    ref = np.outer(state, state.conj())
    assert np.max(np.abs(rho.matrix - ref)) < 1e-12


def test_trace_out_b_has_unit_trace():
    rng = np.random.default_rng(32)
    for d, m, l in [(2, 1, 2), (3, 2, 1), (4, 1, 3)]:
        rho = trace_out_b(clone_pure(PureQudit.random(d, rng), m, l))
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_trace_out_b_pure_and_density_routes_agree():
    rng = np.random.default_rng(33)
    x = PureQudit.random(2, rng)
    out = clone_pure(x, 2, 1)
    a_dim, b_dim = len(out.a_basis), len(out.b_basis)
    dense = np.einsum("piqi->pq", out.to_density().reshape(a_dim, b_dim, a_dim, b_dim))
    assert np.max(np.abs(trace_out_b(out).matrix - dense)) < 1e-12


def test_reduce_to_single_concentrated_sector():
    basis = enumerate_sector(3, 4)
    rho = np.zeros((len(basis), len(basis)))
    rho[basis.index((4, 0, 0)), basis.index((4, 0, 0))] = 1.0
    single = reduce_to_single(SymmetricDensity(basis, rho))
    assert np.max(np.abs(single.matrix - np.diag([1.0, 0.0, 0.0]))) < 1e-14


def test_reduce_to_single_two_photon_mixture():
    # <n_1>/L = (2/3 * 2 + 1/3 * 1)/2 = 5/6.
    basis = enumerate_sector(2, 2)
    rho = np.zeros((3, 3))
    rho[basis.index((2, 0)), basis.index((2, 0))] = 2 / 3
    rho[basis.index((1, 1)), basis.index((1, 1))] = 1 / 3
    single = reduce_to_single(SymmetricDensity(basis, rho))
    assert np.max(np.abs(single.matrix - np.diag([5 / 6, 1 / 6]))) < 1e-14


def test_reduce_to_single_of_maximally_mixed_sector():
    for d, total in [(2, 3), (3, 2), (4, 2)]:
        rho = SymmetricDensity.maximally_mixed(d, total)
        single = reduce_to_single(rho)
        assert np.max(np.abs(single.matrix - np.eye(d) / d)) < 1e-12


def test_reduce_to_single_of_density_needs_no_clone_table():
    # A density is reduced with no emitted photons, so its total may exceed
    # what the factorial table of the clone formula admits.
    assert 250 > MAX_FACTORIAL
    single = reduce_to_single(SymmetricDensity.maximally_mixed(2, 250))
    assert np.max(np.abs(single.matrix - np.eye(2) / 2)) < 1e-12


def test_basis_clone_marginal_matches_stimulated_emission_closed_form():
    # Each of the l photons enters mode i with probability (j_i + 1) / (M + d), so
    # L rho_1 is diagonal with the input counts plus the mean emitted counts.
    for d in range(2, 7):
        for m in range(5):
            for l in range(0 if m else 1, 6):
                for j in sector_array(d, m):
                    expected = np.diag(j + l * (j + 1) / (m + d))
                    got = (m + l) * reduce_to_single(clone_basis_state(j, l)).matrix
                    assert np.max(np.abs(got - expected)) < 1e-13


def _unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(z)[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 6), m=st.integers(1, 3), l=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_one_copy_marginal_is_unitarily_covariant(d, m, l, seed):
    rng = np.random.default_rng(seed)
    x, u = PureQudit.random(d, rng), _unitary(d, rng)
    rotated = reduce_to_single(clone_pure(PureQudit(u @ x.x), m, l)).matrix
    expected = u @ reduce_to_single(clone_pure(x, m, l)).matrix @ u.conj().T
    assert np.max(np.abs(rotated - expected)) < 1e-12


def test_reduce_to_single_single_boson_orientation():
    # One boson: the sector density IS the single-qudit density; mind the
    # mode ordering.
    rng = np.random.default_rng(34)
    x = PureQudit.random(3, rng)
    c = expand_identical(x, 1)
    rho = SymmetricDensity(enumerate_sector(3, 1), np.outer(c, c.conj()))
    single = reduce_to_single(rho)
    assert np.max(np.abs(single.matrix - np.outer(x.x, x.x.conj()))) < 1e-12


def test_reduce_to_single_matches_first_quantized_marginal():
    rng = np.random.default_rng(35)
    for d, total in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        basis = enumerate_sector(d, total)
        rho = random_density(len(basis), 2, rng)
        single = reduce_to_single(SymmetricDensity(basis, rho))
        oracle = first_quantized_single_marginal(rho, list(basis), d, total)
        assert np.max(np.abs(single.matrix - oracle)) < 1e-12


def test_reduce_to_single_rejects_vacuum():
    basis = enumerate_sector(2, 0)
    with pytest.raises(ValueError):
        reduce_to_single(SymmetricDensity(basis, np.array([[1.0]])))


def test_fidelity_single_values():
    rng = np.random.default_rng(36)
    x = PureQudit.random(2, rng)
    assert fidelity_single(SingleQuditDensity.from_pure(x), x) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_single(SingleQuditDensity.maximally_mixed(2), x) == pytest.approx(0.5, abs=1e-12)
    rho = SingleQuditDensity(np.diag([5 / 6, 1 / 6]))
    assert fidelity_single(rho, PureQudit(np.array([1.0, 0.0]))) == pytest.approx(5 / 6, abs=1e-15)
    with pytest.raises(ValueError):
        fidelity_single(rho, PureQudit(np.array([1.0, 0.0, 0.0])))


def test_fidelity_global_values():
    rng = np.random.default_rng(37)
    x2 = PureQudit.random(2, rng)
    assert fidelity_global(clone_pure(x2, 2, 0), x2) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_global(clone_pure(x2, 1, 1), x2) == pytest.approx(2 / 3, abs=1e-10)
    x3 = PureQudit.random(3, rng)
    assert fidelity_global(clone_pure(x3, 1, 1), x3) == pytest.approx(0.5, abs=1e-10)


def test_closed_form_spot_values():
    assert closed_form_single(1, 2, 2) == pytest.approx(5 / 6, abs=1e-15)
    assert closed_form_single(1, 2, 3) == pytest.approx(3 / 4, abs=1e-15)
    assert closed_form_global(1, 2, 2) == pytest.approx(2 / 3, abs=1e-15)
    assert closed_form_global(2, 3, 2) == pytest.approx(3 / 4, abs=1e-15)
    assert closed_form_global(1, 2, 3) == pytest.approx(0.5, abs=1e-15)
    for m, d in [(1, 2), (2, 3), (3, 4)]:
        assert closed_form_single(m, m, d) == 1.0
        assert closed_form_global(m, m, d) == 1.0


def test_closed_forms_match_plain_float_formulas():
    for d in (2, 3, 4):
        for m in range(1, 7):
            for llarge in range(m, 13):
                plain = (m * (llarge + d) + llarge - m) / (llarge * (m + d))
                assert closed_form_single(m, llarge, d) == pytest.approx(plain, abs=1e-14)
                ratio = float(Fraction(math.factorial(llarge) * math.factorial(m + d - 1),
                                       math.factorial(m) * math.factorial(llarge + d - 1)))
                assert closed_form_global(m, llarge, d) == ratio


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        closed_form_single(2, 1, 2)
    with pytest.raises(ValueError):
        closed_form_single(0, 1, 2)
    with pytest.raises(ValueError):
        closed_form_single(1, 2, 1)
    with pytest.raises(ValueError):
        closed_form_global(3, 2, 2)


def test_closed_form_monotonicity():
    for d in (2, 3, 4):
        for m in range(1, 7):
            values = [closed_form_single(m, L, d) for L in range(m, 13)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for L in range(2, 13):
            values = [closed_form_single(m, L, d) for m in range(1, L + 1)]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_fidelity_is_universal_over_inputs():
    rng = np.random.default_rng(38)
    for d, m, l in [(2, 1, 1), (3, 1, 2), (4, 2, 1)]:
        values = [simulate_single_fidelity(PureQudit.random(d, rng), m, l) for _ in range(20)]
        assert max(values) - min(values) < 1e-10
        assert values[0] == pytest.approx(closed_form_single(m, m + l, d), abs=1e-10)


def test_simulated_global_fidelity_matches_closed_form():
    rng = np.random.default_rng(39)
    for d, m, l in [(2, 2, 1), (3, 1, 1), (3, 2, 2)]:
        x = PureQudit.random(d, rng)
        got = fidelity_global(clone_pure(x, m, l), x)
        assert got == pytest.approx(closed_form_global(m, m + l, d), abs=1e-10)


def test_shrinking_factor_trivial_fits():
    rng = np.random.default_rng(40)
    x = PureQudit.random(2, rng)
    pure = SingleQuditDensity.from_pure(x)
    fit = shrinking_factor(pure, pure)
    assert fit.isotropic and fit.eta == pytest.approx(1.0, abs=1e-12)
    fit = shrinking_factor(pure, SingleQuditDensity.maximally_mixed(2))
    assert fit.isotropic and fit.eta == pytest.approx(0.0, abs=1e-12)


def test_shrinking_factor_one_to_two_qubit_cloning():
    rng = np.random.default_rng(41)
    x = PureQudit.random(2, rng)
    out_single = reduce_to_single(trace_out_b(clone_pure(x, 1, 1)))
    fit = shrinking_factor(SingleQuditDensity.from_pure(x), out_single)
    assert fit.isotropic and fit.residual < 1e-9
    assert fit.eta == pytest.approx(2 / 3, abs=1e-10)


def test_shrinking_factor_flags_non_isotropic_pairs():
    rho_in = SingleQuditDensity(np.diag([1.0, 0.0, 0.0]))
    rho_out = SingleQuditDensity(np.diag([0.9, 0.1, 0.0]))
    fit = shrinking_factor(rho_in, rho_out)
    assert isinstance(fit, ShrinkingFit)
    assert not fit.isotropic
    assert fit.residual > 1e-9


def test_shrinking_factor_fully_mixed_input():
    mixed = SingleQuditDensity.maximally_mixed(3)
    fit = shrinking_factor(mixed, mixed)
    assert fit.isotropic and fit.eta == 0.0


def test_shrinking_factor_consistency_with_fidelity():
    rng = np.random.default_rng(42)
    for d, m, l in [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 2, 1)]:
        x = PureQudit.random(d, rng)
        out_single = reduce_to_single(trace_out_b(clone_pure(x, m, l)))
        fit = shrinking_factor(SingleQuditDensity.from_pure(x), out_single)
        assert fit.isotropic
        fidelity = fidelity_single(out_single, x)
        assert fidelity == pytest.approx(fit.eta + (1 - fit.eta) / d, abs=1e-10)


def test_maximally_mixed_input_clones_to_maximally_mixed():
    rho = SymmetricDensity.maximally_mixed(2, 1)
    out = clone_mixed(rho, 1)
    single = reduce_to_single(trace_out_b(out))
    assert np.max(np.abs(single.matrix - np.eye(2) / 2)) < 1e-12


def _clone_outputs_with_reference():
    """Random, basis and zero-amplitude pure inputs (l = 0 included), each with a reference qudit."""
    rng = np.random.default_rng(43)
    cases = []
    for d, m, l in [(2, 1, 3), (3, 2, 2), (4, 1, 2), (3, 3, 0), (5, 2, 1)]:
        x = PureQudit.random(d, rng)
        cases.append((clone_pure(x, m, l), x))
    for j, l in [((1, 2, 0), 0), ((1, 0), 3), ((0, 0, 0), 2), ((2, 1, 1), 1), ((0, 3), 0)]:
        cases.append((clone_basis_state(j, l), PureQudit.random(len(j), rng)))
    # Exact-zero amplitudes leave all-zero coefficient rows.
    cases.append((clone_pure(PureQudit(np.array([1.0, 0.0, 0.0])), 2, 2), PureQudit.random(3, rng)))
    return cases


def test_reduce_to_single_from_coefficients_matches_dense_route():
    for out, _ in _clone_outputs_with_reference():
        direct = reduce_to_single(out).matrix
        dense = reduce_to_single(trace_out_b(out)).matrix
        assert np.max(np.abs(direct - dense)) < 1e-13


def test_fidelity_global_from_coefficients_matches_dense_overlap():
    for out, x in _clone_outputs_with_reference():
        target = expand_identical(x, out.L)
        psi = out.amplitudes
        dense = np.vdot(target, psi @ (psi.conj().T @ target)).real
        assert abs(fidelity_global(out, x) - dense) < 1e-13


def test_reduce_to_single_rejects_vacuum_clone_output():
    with pytest.raises(ValueError):
        reduce_to_single(clone_basis_state((0, 0), 0))


def _mixed_inputs():
    """Random mixed densities with d <= 3, M <= 2, l <= 2, rank-deficient ones included."""
    rng = np.random.default_rng(44)
    cases = []
    for d, m, l in [(2, 1, 0), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 2, 2), (3, 2, 0)]:
        basis = enumerate_sector(d, m)
        for r in sorted({1, max(1, len(basis) - 1), len(basis)}):
            cases.append((SymmetricDensity(basis, random_density(len(basis), r, rng)), l))
    return cases


def _dense_a_density(out):
    """a-register density from the dense joint density, by an einsum partial trace."""
    a_dim, b_dim = len(out.a_basis), len(out.b_basis)
    return np.einsum("piqi->pq", out.to_density().reshape(a_dim, b_dim, a_dim, b_dim))


def test_mixed_clone_output_keeps_one_component_per_nonzero_eigenvalue():
    for rho, l in _mixed_inputs():
        out = clone_mixed(rho, l)
        rank = np.linalg.matrix_rank(rho.matrix)
        assert out.coefficients.shape == (rank, len(rho.basis), len(out.b_basis))


def test_trace_out_b_of_mixed_clone_matches_dense_partial_trace():
    for rho, l in _mixed_inputs():
        out = clone_mixed(rho, l)
        assert np.max(np.abs(trace_out_b(out).matrix - _dense_a_density(out))) < 1e-13


def test_reduce_to_single_of_mixed_clone_matches_dense_oracle():
    for rho, l in _mixed_inputs():
        out = clone_mixed(rho, l)
        oracle = first_quantized_single_marginal(
            _dense_a_density(out), list(out.a_basis), out.d, out.L)
        assert np.max(np.abs(reduce_to_single(out).matrix - oracle)) < 1e-13


def test_fidelity_global_of_mixed_clone_matches_dense_overlap():
    rng = np.random.default_rng(45)
    for rho, l in _mixed_inputs():
        out = clone_mixed(rho, l)
        x = PureQudit.random(out.d, rng)
        target = expand_identical(x, out.L)
        dense = np.vdot(target, _dense_a_density(out) @ target).real
        assert abs(fidelity_global(out, x) - dense) < 1e-13


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(2, 3), m=st.integers(1, 2), l=st.integers(0, 2),
       rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_mixed_clone_one_copy_marginal_is_an_isotropically_shrunk_density(d, m, l, rank, seed):
    basis = enumerate_sector(d, m)
    rho = SymmetricDensity(basis, random_density(len(basis), min(rank, len(basis)),
                                                 np.random.default_rng(seed)))
    rho_in_1 = reduce_to_single(rho)
    # A near-maximally-mixed one-copy input leaves the shrinking factor undetermined.
    assume(np.linalg.norm(rho_in_1.matrix - np.eye(d) / d) > 1e-3)
    rho_out_1 = reduce_to_single(clone_mixed(rho, l))
    mat = rho_out_1.matrix
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-13
    assert abs(np.trace(mat).real - 1.0) < 1e-13
    assert np.linalg.eigvalsh(mat).min() > -1e-13
    fit = shrinking_factor(rho_in_1, rho_out_1)
    L = m + l
    assert fit.isotropic
    assert fit.eta == pytest.approx(float(Fraction(m * (L + d), L * (m + d))), abs=1e-10)
