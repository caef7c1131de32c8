import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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

from child import peak_rise
from oracles import (
    anticlone_map,
    first_quantized_single_marginal,
    random_density,
    symmetric_embedding,
    werner_clone_map,
)


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


def test_trace_out_b_reads_the_clone_table_once_and_forms_no_dense_view(monkeypatch):
    rng = np.random.default_rng(46)
    basis = enumerate_sector(3, 2)
    outs = [clone_basis_state((2, 1, 0), 2), clone_pure(PureQudit.random(3, rng), 2, 2),
            clone_mixed(SymmetricDensity(basis, random_density(len(basis), 4, rng)), 2)]
    expected = [_dense_a_density(out) for out in outs]

    def refuse(*_):
        raise AssertionError("trace_out_b read the a x b view")

    calls = []
    live_rows = CloneOutput.live_rows

    def counted(out):
        calls.append(out)
        return live_rows(out)

    monkeypatch.setattr(CloneOutput, "amplitudes", property(refuse))
    monkeypatch.setattr(CloneOutput, "live_rows", counted)
    for out, dense in zip(outs, expected):
        assert np.max(np.abs(trace_out_b(out).matrix - dense)) < 1e-13
    assert calls == outs


def test_trace_out_b_of_a_full_rank_mixed_output_stays_near_the_result_size():
    # 70 components, |J| = 70, |K| = 210, |A| = 1,001: the a x a result is 16 MB, while
    # the dense 70 x 1,001 x 210 a x b view alone would hold 235 MB.
    rise, _ = peak_rise(
        "import numpy as np\n"
        "from stimclone import SymmetricDensity, clone_mixed, enumerate_sector, trace_out_b\n"
        "out = clone_mixed(SymmetricDensity(enumerate_sector(5, 4), np.eye(70) / 70), 6)",
        "trace_out_b(out)")
    assert rise < 150 * 1024


def test_trace_out_b_hermitizes_its_result_in_place():
    # |A| = 2,002 at d = 6, (M, l) = (3, 6): the a x a result is 61 MiB.  Summing
    # 0.5 * (rho + rho.conj().T) out of place forms two more full copies and raised
    # the peak by 197 MiB; in place, only the conjugate is a temporary (137 MiB).
    rise, _ = peak_rise(
        "import numpy as np\n"
        "from stimclone.cloner import PureQudit, clone_pure\n"
        "from stimclone.reduction import trace_out_b\n"
        "out = clone_pure(PureQudit(np.full(6, 6 ** -0.5)), 3, 6)",
        "trace_out_b(out)")
    assert rise < 165 * 1024


def test_reduce_to_single_of_a_full_rank_mixed_output_reads_only_the_lowered_input():
    # 462 components, |J| = 462: the lowered input is 462 x 252 x 6 complex entries,
    # 11 MiB, while gathering the inputs at each of the 10,332 a_s^dag a_r terms of
    # the (6, 6) sector takes 73 MiB per temporary and raised the peak by 214 MiB.
    rise, _ = peak_rise(
        "import numpy as np\n"
        "from stimclone import SymmetricDensity, clone_mixed, enumerate_sector, reduce_to_single\n"
        "out = clone_mixed(SymmetricDensity(enumerate_sector(6, 6), np.eye(462) / 462), 6)",
        "reduce_to_single(out)")
    assert rise < 64 * 1024


def test_fidelity_global_of_a_basis_output_builds_one_row_of_the_clone_table():
    # clone_basis_state((6, 0, 0, 0, 0, 0), 12) has one live input row, |K| = 6,188
    # entries, of the 462 x 6,188 table, whose build would raise the peak by about
    # 49 MiB.  The input is 6 copies of x = e_0, so F is closed_form_global(6, 18, 6).
    rise, f = peak_rise(
        "import numpy as np\n"
        "from stimclone.cloner import PureQudit, clone_basis_state\n"
        "from stimclone.reduction import fidelity_global\n"
        "out, x = clone_basis_state((6, 0, 0, 0, 0, 0), 12), PureQudit(np.eye(6)[0])",
        "f = fidelity_global(out, x)")
    assert rise < 10 * 1024
    assert abs(float(f) - closed_form_global(6, 18, 6)) < 1e-14


def test_fidelity_global_of_a_full_rank_mixed_output_forms_no_coefficient_array():
    # 70 components, |J| = 70, |K| = 210: the overlaps are one 70 x 70 by 70 x 210
    # product, while the 70 x 70 x 210 complex coefficients alone hold 16 MB.  The
    # clone of the maximally mixed input is maximally mixed on the (5, 10) sector.
    rise, f = peak_rise(
        "import numpy as np\n"
        "from stimclone import PureQudit, SymmetricDensity, clone_mixed, enumerate_sector\n"
        "from stimclone.reduction import fidelity_global\n"
        "out = clone_mixed(SymmetricDensity(enumerate_sector(5, 4), np.eye(70) / 70), 6)\n"
        "x = PureQudit(np.full(5, 1 / np.sqrt(5)))",
        "f = fidelity_global(out, x)")
    assert rise < 8 * 1024
    assert abs(float(f) - 1 / math.comb(14, 4)) < 1e-14


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
        basis = enumerate_sector(d, total)
        single = reduce_to_single(SymmetricDensity(basis, np.eye(len(basis)) / len(basis)))
        assert np.max(np.abs(single.matrix - np.eye(d) / d)) < 1e-12


def test_reduce_to_single_of_density_needs_no_clone_table():
    # A density is reduced with no emitted photons, so its total may exceed
    # what the factorial table of the clone formula admits.
    assert 250 > MAX_FACTORIAL
    single = reduce_to_single(SymmetricDensity(enumerate_sector(2, 250), np.eye(251) / 251))
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


@settings(max_examples=60)
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


def test_fidelity_single_values():
    rng = np.random.default_rng(36)
    x = PureQudit.random(2, rng)
    assert fidelity_single(SingleQuditDensity.from_pure(x), x) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_single(SingleQuditDensity(np.eye(2) / 2), x) == pytest.approx(0.5, abs=1e-12)
    rho = SingleQuditDensity(np.diag([5 / 6, 1 / 6]))
    assert fidelity_single(rho, PureQudit(np.array([1.0, 0.0]))) == pytest.approx(5 / 6, abs=1e-15)


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


def test_closed_form_monotonicity():
    for d in (2, 3, 4):
        for m in range(1, 7):
            values = [closed_form_single(m, L, d) for L in range(m, 13)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for L in range(2, 13):
            values = [closed_form_single(m, L, d) for m in range(1, L + 1)]
            assert all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=60)
@given(d=st.integers(2, 6), m=st.integers(1, 3), l=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_fidelities_are_universal_over_drawn_inputs(d, m, l, seed):
    # Both fidelities equal their closed forms for any x, also one with
    # zero amplitudes, whose clone keeps only some input rows live.
    rng = np.random.default_rng(seed)
    v = PureQudit.random(d, rng).x * (rng.random(d) < 0.7)
    v[rng.integers(d)] += 1.0
    x = PureQudit(v / np.linalg.norm(v))
    out = clone_pure(x, m, l)
    assert abs(fidelity_single(reduce_to_single(out), x) - closed_form_single(m, m + l, d)) < 1e-12
    assert abs(fidelity_global(out, x) - closed_form_global(m, m + l, d)) < 1e-12


def test_shrinking_factor_trivial_fits():
    rng = np.random.default_rng(40)
    x = PureQudit.random(2, rng)
    pure = SingleQuditDensity.from_pure(x)
    fit = shrinking_factor(pure, pure)
    assert fit.isotropic and fit.eta == pytest.approx(1.0, abs=1e-12)
    fit = shrinking_factor(pure, SingleQuditDensity(np.eye(2) / 2))
    assert fit.isotropic and fit.eta == pytest.approx(0.0, abs=1e-12)


def test_shrinking_factor_flags_non_isotropic_pairs():
    rho_in = SingleQuditDensity(np.diag([1.0, 0.0, 0.0]))
    rho_out = SingleQuditDensity(np.diag([0.9, 0.1, 0.0]))
    fit = shrinking_factor(rho_in, rho_out)
    assert isinstance(fit, ShrinkingFit)
    assert not fit.isotropic
    assert fit.residual > 1e-9


def test_shrinking_factor_fully_mixed_input():
    mixed = SingleQuditDensity(np.eye(3) / 3)
    fit = shrinking_factor(mixed, mixed)
    assert fit.isotropic and fit.eta == 0.0


def test_maximally_mixed_input_clones_to_maximally_mixed():
    out = clone_mixed(SymmetricDensity(enumerate_sector(2, 1), np.eye(2) / 2), 1)
    single = reduce_to_single(trace_out_b(out))
    assert np.max(np.abs(single.matrix - np.eye(2) / 2)) < 1e-12


def _dense_a_density(out):
    """a-register density from the dense joint density, by an einsum partial trace."""
    a_dim, b_dim = len(out.a_basis), len(out.b_basis)
    return np.einsum("piqi->pq", out.to_density().reshape(a_dim, b_dim, a_dim, b_dim))


# (kind, d, M, l) with M = 0 for a basis input only, L >= 1, and |A| |K| <= 1,700,
# so that the dense (ab) x (ab) density of `to_density` stays under 50 MB.
_OUTPUT_SHAPES = [(kind, d, m, l) for kind in ("basis", "pure", "mixed") for d in range(2, 6)
                  for m in range(0 if kind == "basis" else 1, 4) for l in range(0 if m else 1, 4)
                  if math.comb(m + l + d - 1, d - 1) * math.comb(l + d - 1, d - 1) <= 1700]


@settings(max_examples=40)
@given(shape=st.sampled_from(_OUTPUT_SHAPES), support=st.integers(1, 35),
       seed=st.integers(0, 2**32 - 1))
@example(shape=("basis", 3, 0, 2), support=1, seed=43)
@example(shape=("basis", 2, 3, 0), support=1, seed=43)
@example(shape=("pure", 5, 2, 1), support=5, seed=43)
@example(shape=("pure", 3, 3, 0), support=3, seed=43)
@example(shape=("pure", 3, 2, 2), support=1, seed=43)
@example(shape=("mixed", 2, 1, 0), support=1, seed=44)
@example(shape=("mixed", 3, 2, 0), support=6, seed=44)
@example(shape=("mixed", 2, 3, 2), support=4, seed=44)
def test_every_output_kind_matches_its_dense_references(shape, support, seed):
    # One check of the one clone map.  `support` is the number of nonzero amplitudes of a
    # pure input (exact zeros leave all-zero input rows) or a mixed input's rank (|J| <= 35).
    kind, d, m, l = shape
    rng, basis = np.random.default_rng(seed), enumerate_sector(d, m)
    if kind == "basis":
        out = clone_basis_state(basis[int(rng.integers(len(basis)))], l)
    elif kind == "pure":
        v = PureQudit.random(d, rng).x
        v[rng.permutation(d)[support:]] = 0.0
        out = clone_pure(PureQudit(v / np.linalg.norm(v)), m, l)
    else:
        rho = random_density(len(basis), min(support, len(basis)), rng)
        out = clone_mixed(SymmetricDensity(basis, rho), l)
        assert out.inputs.shape == (np.linalg.matrix_rank(rho), len(basis))
    dense, rho_a = _dense_a_density(out), trace_out_b(out)
    assert np.max(np.abs(rho_a.matrix - dense)) < 1e-13
    assert abs(np.trace(dense).real - 1.0) < 1e-12  # the dense route keeps the clone's norm
    single = reduce_to_single(out).matrix
    assert np.max(np.abs(single - reduce_to_single(rho_a).matrix)) < 1e-13
    if d ** out.L <= 729:
        oracle = first_quantized_single_marginal(dense, list(out.a_basis), d, out.L)
        assert np.max(np.abs(single - oracle)) < 1e-13
    x = PureQudit.random(d, rng)
    target = expand_identical(x, out.L)
    assert abs(fidelity_global(out, x) - np.vdot(target, dense @ target).real) < 1e-13


def test_trace_out_b_has_unit_trace():
    rng = np.random.default_rng(32)
    for d, m, l in [(2, 1, 2), (3, 2, 1), (4, 1, 3)]:
        rho = trace_out_b(clone_pure(PureQudit.random(d, rng), m, l))
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


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


def test_trace_out_b_pure_and_density_routes_agree():
    rng = np.random.default_rng(33)
    x = PureQudit.random(2, rng)
    for out in [clone_pure(x, 2, 1)] + [out for out, _ in _clone_outputs_with_reference()]:
        assert np.max(np.abs(trace_out_b(out).matrix - _dense_a_density(out))) < 1e-13


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


def _mixed_inputs():
    """Random mixed densities with d <= 3, M <= 3, l <= 2, rank-deficient ones included."""
    rng = np.random.default_rng(44)
    cases = []
    for d, m, l in [(2, 1, 0), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 2, 2), (3, 2, 0), (2, 3, 2)]:
        basis = enumerate_sector(d, m)
        for r in sorted({1, max(1, len(basis) - 1), len(basis)}):
            cases.append((SymmetricDensity(basis, random_density(len(basis), r, rng)), l))
    return cases


def test_mixed_clone_output_keeps_one_component_per_nonzero_eigenvalue():
    for rho, l in _mixed_inputs():
        out = clone_mixed(rho, l)
        rank = np.linalg.matrix_rank(rho.matrix)
        assert out.inputs.shape == (rank, len(rho.basis))


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


def test_reduce_to_single_of_clone_outputs_reads_no_clone_table(monkeypatch):
    # The one-copy marginal follows from the input density and the emission law
    # alone, also for M = 0, where only the l I term remains.
    rng = np.random.default_rng(47)
    basis = enumerate_sector(3, 2)
    outs = [clone_basis_state((2, 1, 0), 2), clone_pure(PureQudit.random(3, rng), 2, 2),
            clone_mixed(SymmetricDensity(basis, random_density(len(basis), 4, rng)), 2),
            clone_basis_state((0, 0, 0), 2)]
    expected = [reduce_to_single(trace_out_b(out)).matrix for out in outs]

    def refuse(*_):
        raise AssertionError("reduce_to_single read the clone table")

    for module in (stimclone.fock, stimclone.cloner):
        monkeypatch.setattr(module, "clone_coefficients", refuse)
    for out, dense in zip(outs, expected):
        assert np.max(np.abs(reduce_to_single(out).matrix - dense)) < 1e-13
    with pytest.raises(AssertionError, match="read the clone table"):
        trace_out_b(outs[0])  # the patch is where the table is read


def test_dense_route_comparison_catches_a_skewed_clone_table(monkeypatch):
    # Negative control for test_every_output_kind_matches_its_dense_references
    # and for the a-register identity of test_both_output_registers_are_the_optimal_maps:
    # trace_out_b reads the clone table and reduce_to_single does not, so moving weight
    # between two emission vectors k in one live row must show in their difference.
    rng = np.random.default_rng(48)
    table = stimclone.cloner.clone_coefficients
    for out in [clone_basis_state((1, 0, 2), 2), clone_pure(PureQudit.random(3, rng), 2, 3)]:
        row = np.flatnonzero(out.inputs)[0]

        def skewed(d, m, l, rows=slice(None), row=row):
            amp, a_index = table(d, m, l)
            sq = amp ** 2
            sq[row, 0], sq[row, -1] = 0.5 * sq[row, 0], sq[row, -1] + 0.5 * sq[row, 0]
            return np.sqrt(sq / sq.sum(axis=1, keepdims=True))[rows], a_index[rows]

        werner = werner_clone_map(np.outer(out.inputs, out.inputs.conj()),
                                  list(enumerate_sector(3, out.M)), 3, out.L)
        rho_a = trace_out_b(out)
        assert np.max(np.abs(_first_quantized(rho_a.matrix, out.a_basis) - werner)) < 1e-13
        assert np.max(np.abs(reduce_to_single(out).matrix - reduce_to_single(rho_a).matrix)) < 1e-13
        monkeypatch.setattr(stimclone.cloner, "clone_coefficients", skewed)
        rho_a = trace_out_b(out)
        monkeypatch.undo()
        assert np.max(np.abs(reduce_to_single(out).matrix - reduce_to_single(rho_a).matrix)) > 1e-6
        assert np.max(np.abs(_first_quantized(rho_a.matrix, out.a_basis) - werner)) > 1e-6


@settings(max_examples=40)
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


def _first_quantized(matrix, basis):
    """An operator on the sector `basis`, embedded into (C^d)^(tensor total)."""
    emb = symmetric_embedding(list(basis), basis.d, basis.total)
    return emb @ matrix @ emb.T


def _b_register(out):
    """b-register density of a clone output, by an explicit partial trace of the dense view."""
    amps = out.amplitudes.reshape(-1, len(out.a_basis), len(out.b_basis))
    return _first_quantized(np.einsum("cpq,cpr->qr", amps, amps.conj()), out.b_basis)


@settings(max_examples=60)
@given(d=st.integers(2, 3), m=st.integers(1, 3), l=st.integers(0, 3),
       rank=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_both_output_registers_are_the_optimal_maps(d, m, l, rank, seed):
    # The a register is Werner's optimal cloner of the input and the b register the
    # optimal measure-and-prepare map of its conjugate, compared on (C^d)^(tensor L)
    # with d^L <= 3^6.  Werner's map is unitarily covariant, so this also covers the
    # covariance of the whole L-copy state.
    basis = enumerate_sector(d, m)
    rho = random_density(len(basis), min(rank, len(basis)), np.random.default_rng(seed))
    out = clone_mixed(SymmetricDensity(basis, rho), l)
    werner = werner_clone_map(rho, list(basis), d, m + l)
    assert np.max(np.abs(_first_quantized(trace_out_b(out).matrix, out.a_basis) - werner)) < 1e-13
    anticlones = anticlone_map(rho, list(basis), d, m + l)
    assert np.max(np.abs(_b_register(out) - anticlones)) < 1e-13


def test_b_register_identity_needs_the_transpose_for_a_complex_input():
    # Negative control: the anti-clones carry the conjugate of a complex input, so
    # the b-register map without its transpose must fail.
    basis = enumerate_sector(3, 2)
    rho = random_density(len(basis), 3, np.random.default_rng(49))
    out = clone_mixed(SymmetricDensity(basis, rho), 2)
    anticlones = anticlone_map(rho, list(basis), 3, 4)
    assert np.max(np.abs(_b_register(out) - anticlones)) < 1e-13
    assert np.max(np.abs(_b_register(out) - anticlones.T)) > 1e-3
