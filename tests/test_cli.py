import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from stimclone.cli import MAX_CLONE_RECORDS, MAX_VERIFY_SAMPLES, main
from stimclone.cloner import CloneOutput, PureQudit, clone_basis_state, clone_pure
from stimclone.fock import MAX_CLONE_ENTRIES, enumerate_sector
from stimclone.ladder import MAX_LADDER_ATOMS

from oracles import amplitude_squared, first_quantized_single_marginal, identical_expansion

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_subprocess(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "stimclone", *argv],
        capture_output=True, env=env,
    )


def test_fidelity_one_to_two_qubits(capsys):
    code, out, err = run_cli(capsys, ["fidelity", "--d", "2", "--m", "1", "--l-max", "2"])
    assert code == 0
    assert "seed = 12345" in err
    header, rows = parse_csv(out)
    assert header == ["d", "M", "L", "f_single_simulated", "f_single_closed",
                      "f_global_simulated", "f_global_closed", "max_abs_diff"]
    assert [r[:3] for r in rows] == [["2", "1", "1"], ["2", "1", "2"]]
    last = rows[1]
    assert float(last[3]) == pytest.approx(5 / 6, abs=1e-12)
    assert float(last[4]) == pytest.approx(5 / 6, abs=1e-15)
    assert float(last[5]) == pytest.approx(2 / 3, abs=1e-12)
    assert float(last[6]) == pytest.approx(2 / 3, abs=1e-15)
    assert float(last[7]) < 1e-12


def test_fidelity_qutrit_single_copy(capsys):
    code, out, _ = run_cli(capsys, ["fidelity", "--d", "3", "--m", "1", "--l-max", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[1][3]) == pytest.approx(0.75, abs=1e-12)


def test_fidelity_trivial_when_l_max_equals_m(capsys):
    code, out, _ = run_cli(capsys, ["fidelity", "--d", "2", "--m", "2", "--l-max", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert all(float(v) == pytest.approx(1.0, abs=1e-12) for v in rows[0][3:7])


def test_fidelity_csv_and_json_carry_identical_numbers(capsys):
    args = ["fidelity", "--d", "3", "--m", "2", "--l-max", "4"]
    _, csv_out, _ = run_cli(capsys, args)
    _, json_out, _ = run_cli(capsys, args + ["--format", "json"])
    _, csv_rows = parse_csv(csv_out)
    report = json.loads(json_out)
    assert len(report["rows"]) == len(csv_rows)
    for csv_row, json_row in zip(csv_rows, report["rows"]):
        for text, key in zip(csv_row[3:], ["f_single_simulated", "f_single_closed",
                                           "f_global_simulated", "f_global_closed",
                                           "max_abs_diff"]):
            assert float(text) == json_row[key]
            # Same shortest round-trip digits in both encodings.
            assert text == repr(json_row[key])


def test_fidelity_rejects_out_of_range_grid(capsys):
    for argv in (
        ["fidelity", "--d", "7", "--m", "1", "--l-max", "2"],
        ["fidelity", "--d", "2", "--m", "0", "--l-max", "2"],
        ["fidelity", "--d", "2", "--m", "2", "--l-max", "13"],
        ["fidelity", "--d", "2", "--m", "3", "--l-max", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_evolve_zero_time(capsys):
    code, out, _ = run_cli(capsys, ["evolve", "--d", "2", "--m", "1", "--n", "3", "--tau", "0"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(r[1]) < 1e-12 for r in rows[1:])


def test_evolve_single_atom_rabi(capsys):
    code, out, _ = run_cli(capsys, ["evolve", "--d", "2", "--m", "1", "--n", "1", "--tau", "0.3"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[1][1]) == pytest.approx(math.sin(math.sqrt(3) * 0.3) ** 2, abs=1e-12)


def test_evolve_probabilities_sum_to_one(capsys):
    code, out, _ = run_cli(capsys, ["evolve", "--d", "3", "--m", "2", "--n", "5", "--tau", "1.7"])
    assert code == 0
    _, rows = parse_csv(out)
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_clone_basis_state_weights(capsys):
    code, out, _ = run_cli(capsys, ["clone", "--d", "2", "--j", "1,0", "--l", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    amps = [r for r in rows if r[0] == "amplitude"]
    assert len(amps) == 2
    weights = {(r[1], r[2]): float(r[5]) ** 2 + float(r[6]) ** 2 for r in amps}
    assert weights[("2,0", "1,0")] == pytest.approx(2 / 3, abs=1e-12)
    assert weights[("1,1", "0,1")] == pytest.approx(1 / 3, abs=1e-12)
    fid = [r for r in rows if r[0] == "fidelity"][0]
    assert float(fid[5]) == pytest.approx(5 / 6, abs=1e-12)


def test_clone_without_emission_echoes_input(capsys):
    code, out, _ = run_cli(capsys, ["clone", "--d", "2", "--j", "1,0", "--l", "0"])
    assert code == 0
    _, rows = parse_csv(out)
    amps = [r for r in rows if r[0] == "amplitude"]
    assert len(amps) == 1
    assert amps[0][1] == "1,0" and amps[0][2] == "0,0"
    assert float(amps[0][5]) == pytest.approx(1.0, abs=1e-15)
    fid = [r for r in rows if r[0] == "fidelity"][0]
    assert float(fid[5]) == pytest.approx(1.0, abs=1e-12)


def test_clone_pure_qudit_fidelity(capsys):
    code, out, _ = run_cli(capsys, ["clone", "--d", "2", "--x", "0.6,0.8", "--m", "1", "--l", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    fid = [r for r in rows if r[0] == "fidelity"][0]
    assert float(fid[5]) == pytest.approx(5 / 6, abs=1e-12)


def test_clone_accepts_complex_components(capsys):
    code, out, _ = run_cli(
        capsys, ["clone", "--x", "0.6+0.2i,0.5-0.1i,0.3", "--m", "1", "--l", "1", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["d"] == 3
    norm = sum(re * re + im * im for re, im in report["params"]["x"])
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert report["fidelity"] == pytest.approx(3 / 4, abs=1e-12)


def test_clone_mixed_mode_basis_input_has_no_reference_fidelity(capsys):
    code, out, _ = run_cli(capsys, ["clone", "--j", "1,1", "--l", "1", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] is None
    assert len(report["amplitudes"]) == 2


def test_clone_json_and_csv_numbers_agree(capsys):
    args = ["clone", "--d", "2", "--x", "0.6,0.8", "--m", "2", "--l", "1"]
    _, csv_out, _ = run_cli(capsys, args)
    _, json_out, _ = run_cli(capsys, args + ["--format", "json"])
    report = json.loads(json_out)
    _, rows = parse_csv(csv_out)
    csv_amps = {(r[1], r[2]): (float(r[5]), float(r[6])) for r in rows if r[0] == "amplitude"}
    for entry in report["amplitudes"]:
        key = (",".join(map(str, entry["a"])), ",".join(map(str, entry["b"])))
        assert csv_amps[key] == (entry["real"], entry["imag"])


def test_clone_records_match_dense_reference(capsys):
    text = "0.6+0.2i,0.5-0.1i,0.3"
    m, l = 2, 2
    args = ["clone", "--x", text, "--m", str(m), "--l", str(l)]
    _, csv_out, _ = run_cli(capsys, args)
    _, json_out, _ = run_cli(capsys, args + ["--format", "json"])

    # Dense reference: every (a, b) entry from the exact squared coefficients, in (p, q) order.
    x = np.array([complex(p.replace("i", "j")) for p in text.split(",")])
    x /= np.linalg.norm(x)
    expansion = identical_expansion(x, m)
    a_basis, b_basis = enumerate_sector(3, m + l), enumerate_sector(3, l)
    psi = np.zeros((len(a_basis), len(b_basis)), dtype=complex)
    for j, c in expansion.items():
        for q, k in enumerate(b_basis):
            psi[a_basis.index(tuple(a + b for a, b in zip(j, k))), q] += c * math.sqrt(amplitude_squared(j, k))
    expected = [(",".join(map(str, a_basis[p])), ",".join(map(str, b_basis[q])), psi[p, q])
                for p, q in zip(*np.nonzero(psi))]
    reduced = first_quantized_single_marginal(psi @ psi.conj().T, list(a_basis), 3, m + l)
    fidelity = np.vdot(x, reduced @ x).real

    header, rows = parse_csv(csv_out)
    assert header == ["record", "a_occupation", "b_occupation", "row", "col", "real", "imag"]
    assert [r[0] for r in rows] == ["amplitude"] * len(expected) + ["reduced"] * 9 + ["fidelity"]
    report = json.loads(json_out)
    assert len(report["amplitudes"]) == len(expected)
    for row, entry, (a_txt, b_txt, value) in zip(rows, report["amplitudes"], expected):
        assert (row[1], row[2]) == (a_txt, b_txt)
        assert (",".join(map(str, entry["a"])), ",".join(map(str, entry["b"]))) == (a_txt, b_txt)
        assert (float(row[5]), float(row[6])) == (entry["real"], entry["imag"])
        assert abs(complex(entry["real"], entry["imag"]) - value) < 1e-13
    for row in rows[len(expected):-1]:
        r, s = int(row[3]), int(row[4])
        assert [float(row[5]), float(row[6])] == report["reduced"][r][s]
        assert abs(complex(float(row[5]), float(row[6])) - reduced[r, s]) < 1e-13
    assert float(rows[-1][5]) == report["fidelity"]
    assert abs(report["fidelity"] - fidelity) < 1e-13


def test_clone_lists_nonzeros_without_dense_amplitudes(capsys, monkeypatch):
    cases = [
        (["clone", "--j", "2,0,1", "--l", "2"], clone_basis_state((2, 0, 1), 2)),
        (["clone", "--x", "0.6,0.8i", "--m", "2", "--l", "3"],
         clone_pure(PureQudit(np.array([0.6, 0.8j]) / np.linalg.norm([0.6, 0.8j])), 2, 3)),
    ]
    expected = []
    for _, out in cases:
        # Dense reference: row-major nonzeros of the a x b amplitude matrix.
        ps, qs = np.nonzero(out.amplitudes)
        expected.append([[",".join(map(str, out.a_basis[p])), ",".join(map(str, out.b_basis[q])),
                          repr(float(out.amplitudes[p, q].real)),
                          repr(float(out.amplitudes[p, q].imag))]
                         for p, q in zip(ps.tolist(), qs.tolist())])

    def no_dense(self):
        raise AssertionError("the dense amplitude matrix was formed")

    monkeypatch.setattr(CloneOutput, "amplitudes", property(no_dense))
    for (argv, _), records in zip(cases, expected):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert [[r[1], r[2], r[5], r[6]] for r in rows if r[0] == "amplitude"] == records


def test_clone_usage_errors(capsys):
    for argv in (
        ["clone", "--l", "1"],
        ["clone", "--j", "1,0", "--x", "1,0", "--l", "1"],
        ["clone", "--x", "1,0", "--l", "1"],
        ["clone", "--d", "3", "--j", "1,0", "--l", "1"],
        ["clone", "--j", "1,0", "--l", "-1"],
        ["clone", "--j", "300,0", "--l", "1"],  # factorial bound
        ["clone", "--x", "inf,1", "--m", "1", "--l", "1"],
        ["clone", "--x", "1", "--m", "1", "--l", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_json_report_schema(capsys):
    code, out, err = run_cli(capsys, ["verify", "--samples", "5", "--json"])
    assert code == 0
    assert "seed = 12345" in err
    report = json.loads(out)
    assert set(report) == {"params", "checks", "pass"}
    assert report["pass"] is True
    assert report["params"]["evolution_draws"] == 5
    for check in report["checks"]:
        assert set(check) == {"name", "max_deviation", "tolerance", "pass"}
        assert check["pass"] is True
        assert check["max_deviation"] <= check["tolerance"]


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--samples", "2", "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "max_deviation", "tolerance", "pass"]
    assert all(r[3] == "True" for r in rows)


def test_verify_negative_control(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--samples", "5", "--json", "--inject-perturbation"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    # The perturbation skews only the reference coupling, so exactly the
    # checks that read it fail; the others stay within tolerance.
    assert len(report["checks"]) == 202
    perturbed = {"ladder_action", "ladder_restriction", "amplitude_match"}
    for check in report["checks"]:
        assert check["pass"] is (check["name"].rsplit(":", 1)[1] not in perturbed), check


def test_out_file_matches_stdout_and_prints_table(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, table_out, _ = run_cli(
        capsys, ["fidelity", "--d", "2", "--m", "1", "--l-max", "2", "--out", str(target)]
    )
    assert code == 0
    _, direct_out, _ = run_cli(capsys, ["fidelity", "--d", "2", "--m", "1", "--l-max", "2"])
    assert target.read_text(encoding="utf-8") == direct_out
    assert "0.833333" in table_out  # 6-digit human table


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--d", "2", "--m", "0", "--n", "2", "--tau", "1", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert str(target) in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


def test_csv_float_cells_are_the_repr_of_the_json_values(capsys):
    # float(cell) would also accept a shorter or longer spelling; the cell must be repr itself.
    cases = (
        (["evolve", "--d", "3", "--m", "2", "--n", "40", "--tau", "1.3"], "rows",
         [("probability", 1)]),
        (["verify", "--samples", "3"], "checks", [("max_deviation", 1), ("tolerance", 2)]),
    )
    for argv, key, columns in cases:
        _, csv_out, _ = run_cli(capsys, argv)
        _, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
        _, rows = parse_csv(csv_out)
        records = json.loads(json_out)[key]
        assert len(rows) == len(records) > 0
        for row, record in zip(rows, records):
            for name, column in columns:
                assert isinstance(record[name], float)
                assert row[column] == repr(record[name])


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_repeated_runs_are_byte_identical():
    for argv in (
        ["verify", "--samples", "3", "--format", "json"],
        ["fidelity", "--d", "2", "--m", "1", "--l-max", "3"],
    ):
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


def test_evolve_rejects_oversized_ladder(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--d", "2", "--m", "0", "--n", str(10**9), "--tau", "1"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 0.5
    assert str(MAX_LADDER_ATOMS) in capsys.readouterr().err


def test_verify_rejects_too_many_samples_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", str(MAX_VERIFY_SAMPLES + 1)])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 0.5
    assert str(MAX_VERIFY_SAMPLES) in capsys.readouterr().err


def test_evolve_usage_errors(capsys):
    for argv in (
        ["evolve", "--d", "1", "--m", "0", "--n", "3", "--tau", "1"],
        ["evolve", "--d", "2", "--m", "-1", "--n", "3", "--tau", "1"],
        ["evolve", "--d", "2", "--m", "0", "--n", "0", "--tau", "1"],
        ["evolve", "--d", "2", "--m", "0", "--n", "3", "--tau", "nan"],
        ["evolve", "--d", "6", "--m", "6", "--n", "100", "--tau", "1e307"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_clone_rejects_oversized_table(capsys):
    # |K| = C(199, 5) ~ 2.5e9 passes the factorial bound; the entry bound stops it.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["clone", "--d", "6", "--j", "0,0,0,0,0,0", "--l", "194"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 0.5
    assert str(MAX_CLONE_ENTRIES) in capsys.readouterr().err


def test_clone_rejects_oversized_listing_at_once(capsys):
    # 21 input rows x 7,381 emission vectors: one record above the bound at d = 3.
    # At d = 30 the bound shrinks by 6/30, so 7 x 4,960 records are too many.
    wide = ",".join(["1"] * 7 + ["0"] * 23)
    for argv, limit in ((["--x", "0.6,0.5,0.4", "--m", "5", "--l", "120"], MAX_CLONE_RECORDS),
                        (["--x", wide, "--m", "1", "--l", "3"], MAX_CLONE_RECORDS // 5)):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["clone", *argv])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"> {limit}," in err and "MAX_CLONE_RECORDS" in err


def test_cli_import_and_fidelity_run_do_not_load_scipy():
    script = (
        "import contextlib, io, sys\n"
        "import stimclone.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = stimclone.cli.main(['fidelity', '--d', '3', '--m', '1', '--l-max', '3'])\n"
        "assert code == 0\n"
        "assert 'scipy' not in sys.modules, 'fidelity'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr.decode()
