import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stimclone import oracle
from stimclone.fock import clone_coefficients, enumerate_sector, rank
from stimclone.ladder import evolve, ladder_matrix
from stimclone.oracle import (
    build_full_hamiltonian,
    embed_clone_state,
    full_sector_basis,
    verify_evolution,
    verify_ladder,
)
from stimclone.reduction import closed_form_single

from oracles import compositions, first_quantized_single_marginal, identical_expansion

DESK_SECTORS = [
    (d, n, j)
    for d in (2, 3)
    for n in (1, 2, 3)
    for m in (0, 1, 2)
    for j in enumerate_sector(d, m)
]


def test_full_sector_basis_size_and_charges():
    for d, n, j in [(2, 2, (1, 0)), (3, 3, (1, 1, 0)), (2, 1, (0, 0))]:
        basis = full_sector_basis(d, n, j)
        assert len(basis) == sum(math.comb(l + d - 1, d - 1) for l in range(n + 1))
        for a, b, c in basis.states:
            assert tuple(ai - bi for ai, bi in zip(a, b)) == tuple(j)
            assert c + sum(b) == n


def test_full_hamiltonian_minimal_sector():
    basis, h = build_full_hamiltonian(2, 1, (1, 0))
    assert len(basis) == 3
    assert np.array_equal(h, h.T)
    # The only nonzero couplings are the two emission channels.
    src = basis.index((1, 0), (0, 0), 1)
    assert h[basis.index((2, 0), (1, 0), 0), src] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert h[basis.index((1, 1), (0, 1), 0), src] == pytest.approx(1.0, abs=1e-15)


def test_full_hamiltonian_restricted_to_ladder_is_sqrt3():
    basis, h = build_full_hamiltonian(2, 1, (1, 0))
    embedded = np.column_stack([embed_clone_state(basis, l) for l in range(2)])
    restricted = embedded.T @ h @ embedded
    expected = np.array([[0.0, math.sqrt(3)], [math.sqrt(3), 0.0]])
    assert np.max(np.abs(restricted - expected)) < 1e-12


def test_full_hamiltonian_is_exactly_hermitian():
    for d, n, j in DESK_SECTORS:
        _, h = build_full_hamiltonian(d, n, j)
        assert np.array_equal(h, h.T)


def test_verify_ladder_single_atom_boundary_row():
    # H|F_0> = gamma sqrt(N(M+d)) |F_1> for the smallest sector.
    report = verify_ladder(2, 1, (1, 0))
    assert report["pass"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["ladder_action"]["max_deviation"] < 1e-12
    assert by_name["off_ladder_residual"]["max_deviation"] < 1e-12
    assert by_name["clone_table_match"]["max_deviation"] < 1e-12
    assert by_name["ladder_restriction"]["max_deviation"] < 1e-12


def test_verify_ladder_qubit_pair_couplings():
    # d=2, N=2, j=(1,1): couplings sqrt(8) and sqrt(10).
    report = verify_ladder(2, 2, (1, 1))
    assert report["pass"]
    basis, h = build_full_hamiltonian(2, 2, (1, 1))
    embedded = np.column_stack([embed_clone_state(basis, l) for l in range(3)])
    restricted = embedded.T @ h @ embedded
    assert restricted[0, 1] == pytest.approx(math.sqrt(8), abs=1e-12)
    assert restricted[1, 2] == pytest.approx(math.sqrt(10), abs=1e-12)


def test_verify_evolution_at_zero_time():
    report = verify_evolution(2, 2, (1, 0), t=0.0)
    assert report["pass"]
    assert all(c["max_deviation"] < 1e-12 for c in report["checks"])


def test_verify_evolution_single_atom_rabi():
    t = 0.3
    basis, h = build_full_hamiltonian(2, 1, (1, 0))
    evolved = expm(-1j * h * t) @ embed_clone_state(basis, 0)
    overlap = np.vdot(embed_clone_state(basis, 1), evolved)
    assert abs(overlap) ** 2 == pytest.approx(math.sin(math.sqrt(3) * t) ** 2, abs=1e-12)
    assert verify_evolution(2, 1, (1, 0), t=t)["pass"]


def test_verify_evolution_random_draws():
    rng = np.random.default_rng(51)
    for _ in range(25):
        d, n, j = DESK_SECTORS[int(rng.integers(len(DESK_SECTORS)))]
        t = float(rng.uniform(0.0, 5.0))
        report = verify_evolution(d, n, j, t=t)
        assert report["pass"], report
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["amplitude_match"]["max_deviation"] < 1e-9
        assert by_name["unitarity"]["max_deviation"] < 1e-10


def test_negative_control_perturbation_fails():
    ladder_report = verify_ladder(2, 2, (1, 0), perturbation=1e-6)
    assert not ladder_report["pass"]
    evolution_report = verify_evolution(2, 2, (1, 0), t=1.0, perturbation=1e-6)
    assert not evolution_report["pass"]


def test_reports_are_json_ready():
    import json

    report = verify_ladder(3, 2, (1, 1, 0))
    text = json.dumps(report)
    assert '"pass"' in text and '"checks"' in text

    report = verify_evolution(3, 2, (1, 1, 0), t=0.7)
    for check in report["checks"]:
        assert set(check) == {"name", "max_deviation", "tolerance", "pass"}


def test_ladder_restriction_matches_ladder_matrix_on_desk_grid():
    for d, n, j in DESK_SECTORS:
        basis, h = build_full_hamiltonian(d, n, j)
        embedded = np.column_stack([embed_clone_state(basis, l) for l in range(n + 1)])
        restricted = embedded.T @ h @ embedded
        off = ladder_matrix(d, n, sum(j), 1.0)
        reference = np.diag(off, 1) + np.diag(off, -1)
        assert np.max(np.abs(restricted - reference)) < 1e-12


def test_embedded_clone_states_match_clone_table_rows():
    # F_l = A^dag^l |j, 0, N>, normalized, must be row j of the clone table
    # for l, placed on the configurations (j+k, k, N-l).
    worst = 0.0
    for d, n_max in [(2, 4), (3, 4), (4, 4), (5, 3), (6, 3)]:
        for n in range(1, n_max + 1):
            for m in range(4):
                for j in enumerate_sector(d, m):
                    basis = full_sector_basis(d, n, j)
                    for l in range(n + 1):
                        row = clone_coefficients(d, m, l, rank(j))[0]
                        expected = np.zeros(len(basis))
                        for q, k in enumerate(enumerate_sector(d, l)):
                            a = tuple(ji + ki for ji, ki in zip(j, k))
                            expected[basis.index(a, k, n - l)] = row[q]
                        dev = np.max(np.abs(embed_clone_state(basis, l) - expected))
                        worst = max(worst, float(dev))
    assert worst <= 1e-14


def test_verify_ladder_rejects_a_skewed_clone_table(monkeypatch):
    # Negative control: one clone amplitude scaled by 1 + 1e-6 must fail
    # clone_table_match, and only that check.
    table = oracle.clone_coefficients

    def skewed(d, M, l, rows=slice(None)):
        amp, a_index = table(d, M, l)
        if l == 1:
            amp[0, 0] *= 1 + 1e-6
        return amp[rows], a_index[rows]

    monkeypatch.setattr(oracle, "clone_coefficients", skewed)
    report = verify_ladder(2, 2, (1, 0))
    assert report["pass"] is False
    assert {c["name"] for c in report["checks"] if not c["pass"]} == {"clone_table_match"}


def test_verify_ladder_rejects_a_coupling_off_the_ladder(monkeypatch):
    # Negative control: a 1e-6 coupling of |j, 0, N> to one l = 1 configuration
    # adds to H F_0 a component outside span(F), which off_ladder_residual must see.
    build = oracle.build_full_hamiltonian

    def leaky(*args):
        basis, h = build(*args)
        v = basis.index((1, 1), (0, 1), 1)
        h = h.copy()
        h[0, v] += 1e-6
        h[v, 0] += 1e-6
        return basis, h

    monkeypatch.setattr(oracle, "build_full_hamiltonian", leaky)
    report = verify_ladder(2, 2, (1, 0))
    assert report["pass"] is False
    assert not {c["name"]: c for c in report["checks"]}["off_ladder_residual"]["pass"]


@st.composite
def _advertised_sectors(draw):
    # d = 4..6, as `fidelity` advertises, with at most 462 configurations
    # (C(N+d, d), the (6, 5) sector), so a dense expm stays cheap.  N counts
    # down from the largest such sector, which is what hypothesis tries first.
    d = draw(st.integers(4, 6))
    n_max = max(n for n in range(1, 9) if math.comb(n + d, d) <= 462)
    n = n_max - draw(st.integers(0, n_max - 1))
    j = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    return d, n, tuple(j)


@settings(derandomize=True, deadline=None, max_examples=4)
@given(sector=_advertised_sectors(), t=st.floats(0.5, 5.0))
def test_oracle_passes_at_the_advertised_dimension(sector, t):
    d, n, j = sector
    assert verify_ladder(d, n, j)["pass"]
    assert verify_evolution(d, n, j, t=t)["pass"]


def _evolved_clone_fidelities(x, m, n, t):
    """(p_l, F_l) of the evolved x^(tensor M) with N excited atoms, l = 0..N.

    Each input sector j starts in c_j |j, 0, N> and evolves under expm of its
    full Hamiltonian.  The l = N - c configurations of all sectors form one
    a x b state psi_l; p_l = |psi_l|^2, and F_l = <x| rho_1 |x> for the
    one-copy marginal rho_1 of psi_l psi_l^dag / p_l.
    """
    d = len(x)
    blocks = [{} for _ in range(n + 1)]
    for j, c_j in identical_expansion(x, m).items():
        basis, h = build_full_hamiltonian(d, n, j)
        start = np.zeros(len(basis), dtype=complex)
        start[basis.index(j, (0,) * d, n)] = c_j
        for (a, b, c), z in zip(basis.states, expm(-1j * h * t) @ start):
            blocks[n - c][tuple(a), tuple(b)] = z
    p, f = np.zeros(n + 1), np.full(n + 1, np.nan)
    for l, block in enumerate(blocks):
        a_vectors = list(compositions(m + l, d))
        a_pos = {a: i for i, a in enumerate(a_vectors)}
        b_pos = {b: i for i, b in enumerate(compositions(l, d))}
        psi = np.zeros((len(a_pos), len(b_pos)), dtype=complex)
        for (a, b), z in block.items():
            psi[a_pos[a], b_pos[b]] = z
        p[l] = np.sum(np.abs(psi) ** 2)
        if p[l] > 1e-12:
            rho1 = first_quantized_single_marginal(psi @ psi.conj().T / p[l], a_vectors, d, m + l)
            f[l] = np.vdot(x, rho1 @ x).real
    return p, f


def test_evolved_output_is_optimal_at_every_emission_count():
    # The paper's claim end to end: the emitted number l is random, with the
    # ladder's probabilities, yet every l-sector holds the optimal M -> M+l
    # clone, so the l-averaged fidelity is the ladder-weighted closed form.
    rng = np.random.default_rng(61)
    worst_p = worst_f = worst_mean = 0.0
    for d in (2, 3):
        for m in (1, 2):
            for n in (1, 2, 3):
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                x /= np.linalg.norm(x)
                t = float(rng.uniform(0.0, 5.0))
                p, f = _evolved_clone_fidelities(x, m, n, t)
                ladder = evolve(ladder_matrix(d, n, m), t).probabilities
                closed = np.array([closed_form_single(m, m + l, d) for l in range(n + 1)])
                live = p > 1e-12
                worst_p = max(worst_p, float(np.max(np.abs(p - ladder))))
                worst_f = max(worst_f, float(np.max(np.abs(f[live] - closed[live]))))
                worst_mean = max(worst_mean, abs(float(p[live] @ f[live] - ladder @ closed)))
                # Negative control: a coupling skewed by 1e-6 is seen in p_l.
                skewed = evolve(ladder_matrix(d, n, m, gamma=1 + 1e-6), t).probabilities
                assert np.max(np.abs(p - skewed)) > 1e-9
    assert worst_p <= 1e-12
    assert worst_f <= 1e-12
    assert worst_mean <= 1e-12
