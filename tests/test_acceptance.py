"""Acceptance suite: every criterion at its stated tolerance.

Each test records one pass/fail line (printed in the pytest summary) before
asserting, so the verdicts are visible either way.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stimclone.cloner import (
    PureQudit,
    SymmetricDensity,
    clone_basis_state,
    clone_mixed,
    clone_pure,
    expand_identical,
)
from stimclone.fock import enumerate_sector
from stimclone.ladder import evolve, ladder_matrix
from stimclone.oracle import full_sector_basis, embed_clone_state, verify_evolution, verify_ladder
from stimclone.reduction import (
    SingleQuditDensity,
    closed_form_global,
    closed_form_single,
    fidelity_global,
    fidelity_single,
    reduce_to_single,
    shrinking_factor,
    trace_out_b,
)

from oracles import amplitude_squared, random_density
from test_cli import run_subprocess

_MODULE_START = time.monotonic()

FIDELITY_GRID = [
    (d, m, l)
    for d in (2, 3, 4)
    for m in (1, 2, 3)
    for l in (0, 1, 2, 3)
]

DESK_SECTORS = [
    (d, n, j)
    for d in (2, 3)
    for n in (1, 2, 3)
    for m in (0, 1, 2)
    for j in enumerate_sector(d, m)
]


def simulate_single_fidelity(x, m, l):
    out = clone_pure(x, m, l)
    return fidelity_single(reduce_to_single(trace_out_b(out)), x)


def test_criterion_01_single_copy_fidelity(criterion_log):
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for d, m, l in FIDELITY_GRID:
        got = simulate_single_fidelity(PureQudit.random(d, rng), m, l)
        worst = max(worst, abs(got - closed_form_single(m, m + l, d)))
    spot_12_2 = simulate_single_fidelity(PureQudit.random(2, rng), 1, 1)
    spot_12_3 = simulate_single_fidelity(PureQudit.random(3, rng), 1, 1)
    elapsed = time.monotonic() - started
    ok = (worst < 1e-10 and abs(spot_12_2 - 5 / 6) < 1e-10
          and abs(spot_12_3 - 3 / 4) < 1e-10 and elapsed < 10.0)
    criterion_log(1, ok, f"single-copy fidelity vs closed form, max dev {worst:.2e}, "
                         f"{len(FIDELITY_GRID)} points in {elapsed:.2f} s")
    assert worst < 1e-10
    assert abs(spot_12_2 - 5 / 6) < 1e-10
    assert abs(spot_12_3 - 3 / 4) < 1e-10
    assert elapsed < 10.0


def test_criterion_02_global_fidelity(criterion_log):
    rng = np.random.default_rng(102)
    worst = 0.0
    for d, m, l in FIDELITY_GRID:
        x = PureQudit.random(d, rng)
        got = fidelity_global(clone_pure(x, m, l), x)
        worst = max(worst, abs(got - closed_form_global(m, m + l, d)))
    x2 = PureQudit.random(2, rng)
    spot_12_2 = fidelity_global(clone_pure(x2, 1, 1), x2)
    x3 = PureQudit.random(3, rng)
    spot_12_3 = fidelity_global(clone_pure(x3, 1, 1), x3)
    ok = worst < 1e-10 and abs(spot_12_2 - 2 / 3) < 1e-10 and abs(spot_12_3 - 1 / 2) < 1e-10
    criterion_log(2, ok, f"global fidelity vs closed form, max dev {worst:.2e}")
    assert worst < 1e-10
    assert abs(spot_12_2 - 2 / 3) < 1e-10
    assert abs(spot_12_3 - 1 / 2) < 1e-10


def test_criterion_03_universality(criterion_log):
    rng = np.random.default_rng(103)
    worst_spread = 0.0
    for d, m, l in FIDELITY_GRID:
        values = [simulate_single_fidelity(PureQudit.random(d, rng), m, l) for _ in range(20)]
        worst_spread = max(worst_spread, max(values) - min(values))
    ok = worst_spread < 1e-10
    criterion_log(3, ok, f"fidelity spread over 20 random inputs per point, max {worst_spread:.2e}")
    assert worst_spread < 1e-10


def test_criterion_04_ladder_correctness(criterion_log):
    worst = 0.0
    all_pass = True
    for d, n, j in DESK_SECTORS:
        report = verify_ladder(d, n, j)
        worst = max(worst, max(c["max_deviation"] for c in report["checks"]))
        all_pass = all_pass and report["pass"]
    ok = all_pass and worst < 1e-10
    criterion_log(4, ok, f"full-space ladder action over {len(DESK_SECTORS)} sectors, "
                         f"max dev {worst:.2e}")
    assert all_pass
    assert worst < 1e-10


def test_criterion_05_evolution_correctness(criterion_log):
    rng = np.random.default_rng(105)
    worst_amp = 0.0
    for _ in range(50):
        d, n, j = DESK_SECTORS[int(rng.integers(len(DESK_SECTORS)))]
        t = float(rng.uniform(0.0, 5.0))
        report = verify_evolution(d, n, j, t=t)
        by_name = {c["name"]: c for c in report["checks"]}
        worst_amp = max(worst_amp, by_name["amplitude_match"]["max_deviation"])

    worst_unit = 0.0
    for n in range(1, 9):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(0, 5))
            t = float(rng.uniform(0.0, 10.0))
            probs = evolve(ladder_matrix(d, n, m), t).probabilities
            worst_unit = max(worst_unit, abs(float(probs.sum()) - 1.0))

    worst_rabi = 0.0
    for d in (2, 3, 4):
        for m in (0, 1, 2, 3):
            for gamma in (1.0, 1.7):
                h = ladder_matrix(d, 1, m, gamma)
                for t in np.linspace(0.0, 3.0, 13):
                    got = evolve(h, float(t)).probabilities[1]
                    expected = math.sin(gamma * math.sqrt(m + d) * t) ** 2
                    worst_rabi = max(worst_rabi, abs(got - expected))

    ok = worst_amp < 1e-9 and worst_unit < 1e-10 and worst_rabi < 1e-10
    criterion_log(5, ok, f"evolution: oracle dev {worst_amp:.2e}, unitarity dev "
                         f"{worst_unit:.2e}, single-atom analytic dev {worst_rabi:.2e}")
    assert worst_amp < 1e-9
    assert worst_unit < 1e-10
    assert worst_rabi < 1e-10


def test_criterion_06_output_state_structure(criterion_log):
    # Exact-rational weights for the 1 -> 2 qubit clone.
    assert amplitude_squared((1, 0), (1, 0)) == Fraction(2, 3)
    assert amplitude_squared((1, 0), (0, 1)) == Fraction(1, 3)
    out = clone_basis_state((1, 0), 1)
    w20 = out.amplitudes[out.a_basis.index((2, 0)), out.b_basis.index((1, 0))] ** 2
    w11 = out.amplitudes[out.a_basis.index((1, 1)), out.b_basis.index((0, 1))] ** 2
    weight_dev = max(abs(w20 - 2 / 3), abs(w11 - 1 / 3))

    # Norms and same-emission overlaps on the desk grid.
    overlap_dev = 0.0
    for d in (2, 3):
        for m in (0, 1, 2):
            basis = enumerate_sector(d, m)
            for l in range(4):
                outs = [clone_basis_state(j, l) for j in basis]
                for p, out_p in enumerate(outs):
                    for q, out_q in enumerate(outs):
                        got = np.vdot(out_p.amplitudes, out_q.amplitudes)
                        expected = 1.0 if p == q else 0.0
                        overlap_dev = max(overlap_dev, abs(got - expected))

    # Cross-emission overlaps within the embedded full-space basis.
    for d in (2, 3):
        for m in (0, 1, 2):
            for j in enumerate_sector(d, m):
                basis = full_sector_basis(d, 3, j)
                embedded = np.column_stack([embed_clone_state(basis, l) for l in range(4)])
                gram = embedded.T @ embedded
                overlap_dev = max(overlap_dev, float(np.max(np.abs(gram - np.eye(4)))))

    ok = weight_dev < 1e-12 and overlap_dev < 1e-12
    criterion_log(6, ok, f"output weights dev {weight_dev:.2e}, "
                         f"orthonormality dev {overlap_dev:.2e}")
    assert weight_dev < 1e-12
    assert overlap_dev < 1e-12


def test_criterion_07_shrinking_factor(criterion_log):
    rng = np.random.default_rng(107)
    worst_residual = 0.0
    worst_consistency = 0.0
    for d, m, l in FIDELITY_GRID:
        x = PureQudit.random(d, rng)
        out_single = reduce_to_single(trace_out_b(clone_pure(x, m, l)))
        fit = shrinking_factor(SingleQuditDensity.from_pure(x), out_single)
        assert fit.isotropic
        worst_residual = max(worst_residual, fit.residual)
        fidelity = fidelity_single(out_single, x)
        worst_consistency = max(worst_consistency,
                                abs(fidelity - (fit.eta + (1 - fit.eta) / d)))

    x2 = PureQudit.random(2, rng)
    fit_12 = shrinking_factor(
        SingleQuditDensity.from_pure(x2),
        reduce_to_single(trace_out_b(clone_pure(x2, 1, 1))),
    )
    eta_dev = abs(fit_12.eta - 2 / 3)

    ok = worst_residual < 1e-9 and worst_consistency < 1e-10 and eta_dev < 1e-10
    criterion_log(7, ok, f"isotropic fits: residual {worst_residual:.2e}, "
                         f"F = eta + (1-eta)/d dev {worst_consistency:.2e}, "
                         f"eta(1->2, d=2) dev {eta_dev:.2e}")
    assert worst_residual < 1e-9
    assert worst_consistency < 1e-10
    assert eta_dev < 1e-10


def test_criterion_08_mixed_input_handling(criterion_log):
    rng = np.random.default_rng(108)
    linearity_dev = 0.0
    physicality_dev = 0.0
    for d in (2, 3):
        for m in (1, 2):
            for l in (0, 1, 2):
                basis = enumerate_sector(d, m)
                rho_a = random_density(len(basis), 2, rng)
                rho_b = random_density(len(basis), 1, rng)
                p = float(rng.uniform(0.2, 0.8))
                blended = clone_mixed(
                    SymmetricDensity(basis, p * rho_a + (1 - p) * rho_b), l
                ).to_density()
                split = (p * clone_mixed(SymmetricDensity(basis, rho_a), l).to_density()
                         + (1 - p) * clone_mixed(SymmetricDensity(basis, rho_b), l).to_density())
                linearity_dev = max(linearity_dev, float(np.max(np.abs(blended - split))))
                physicality_dev = max(
                    physicality_dev,
                    abs(np.trace(blended).real - 1.0),
                    float(np.max(np.abs(blended - blended.conj().T))),
                    max(0.0, -float(np.linalg.eigvalsh(blended).min())),
                )

    rank1_dev = 0.0
    for d, m, l in [(2, 1, 1), (2, 2, 2), (3, 2, 1)]:
        x = PureQudit.random(d, rng)
        c = expand_identical(x, m)
        dens = clone_mixed(SymmetricDensity(enumerate_sector(d, m), np.outer(c, c.conj())), l)
        ref = clone_pure(x, m, l).to_density()
        rank1_dev = max(rank1_dev, float(np.max(np.abs(dens.to_density() - ref))))

    ok = linearity_dev < 1e-12 and physicality_dev < 1e-10 and rank1_dev < 1e-12
    criterion_log(8, ok, f"mixed inputs: linearity dev {linearity_dev:.2e}, "
                         f"physicality dev {physicality_dev:.2e}, rank-1 dev {rank1_dev:.2e}")
    assert linearity_dev < 1e-12
    assert physicality_dev < 1e-10
    assert rank1_dev < 1e-12


def test_criterion_09_determinism(criterion_log):
    identical = True
    for argv in (["verify", "--format", "json"],
                 ["fidelity", "--d", "3", "--m", "2", "--l-max", "5"]):
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        identical = identical and first.stdout == second.stdout and first.stderr == second.stderr
        identical = identical and first.returncode == 0 and second.returncode == 0
    criterion_log(9, identical, "verify and fidelity runs byte-identical across repeats")
    assert identical


def test_criterion_10_runtime(criterion_log):
    elapsed = time.monotonic() - _MODULE_START
    ok = elapsed < 60.0
    criterion_log(10, ok, f"acceptance module wall time {elapsed:.2f} s (< 60 s)")
    assert elapsed < 60.0
