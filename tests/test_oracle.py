import math

import numpy as np
import pytest
from scipy.linalg import expm

from stimclone import oracle
from stimclone.fock import clone_coefficients, enumerate_sector, rank
from stimclone.ladder import ladder_matrix
from stimclone.oracle import (
    build_full_hamiltonian,
    embed_clone_state,
    full_sector_basis,
    verify_evolution,
    verify_ladder,
)

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


def test_full_hamiltonian_zero_coupling():
    _, h = build_full_hamiltonian(2, 2, (1, 1), gamma=0.0)
    assert np.all(h == 0.0)


def test_full_hamiltonian_is_exactly_hermitian():
    for d, n, j in DESK_SECTORS:
        _, h = build_full_hamiltonian(d, n, j, gamma=0.8)
        assert np.array_equal(h, h.T)


def test_sector_size_limit():
    with pytest.raises(ValueError):
        full_sector_basis(3, 3, (1, 1, 0), max_dim=5)


def test_embed_clone_state_bounds():
    basis = full_sector_basis(2, 2, (1, 0))
    with pytest.raises(ValueError):
        embed_clone_state(basis, 3)


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


def test_verify_ladder_passes_on_desk_grid():
    for d, n, j in DESK_SECTORS:
        report = verify_ladder(d, n, j, gamma=1.0)
        assert report["pass"], report
        assert max(c["max_deviation"] for c in report["checks"]) < 1e-10


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


def test_gamma_scaling_of_full_hamiltonian():
    _, h1 = build_full_hamiltonian(2, 2, (1, 0), gamma=1.0)
    _, h2 = build_full_hamiltonian(2, 2, (1, 0), gamma=2.5)
    assert np.max(np.abs(h2 - 2.5 * h1)) < 1e-12


def test_ladder_restriction_matches_ladder_matrix_on_desk_grid():
    for d, n, j in DESK_SECTORS:
        basis, h = build_full_hamiltonian(d, n, j, gamma=1.0)
        embedded = np.column_stack([embed_clone_state(basis, l) for l in range(n + 1)])
        restricted = embedded.T @ h @ embedded
        reference = ladder_matrix(d, n, sum(j), 1.0).matrix()
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
                        row = clone_coefficients(d, m, l)[rank(j)]
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

    def skewed(d, M, l):
        amp = table(d, M, l)
        if l == 1:
            amp = amp.copy()
            amp[0, 0] *= 1 + 1e-6
        return amp

    monkeypatch.setattr(oracle, "clone_coefficients", skewed)
    report = verify_ladder(2, 2, (1, 0))
    assert report["pass"] is False
    assert {c["name"] for c in report["checks"] if not c["pass"]} == {"clone_table_match"}
