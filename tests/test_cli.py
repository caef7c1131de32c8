import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stimclone
from stimclone.cli import MAX_CLONE_RECORDS, MAX_VERIFY_SAMPLES, main
from stimclone.cloner import CloneOutput, PureQudit, clone_basis_state, clone_pure
from stimclone.fock import MAX_CLONE_ENTRIES, enumerate_sector
from stimclone.ladder import MAX_LADDER_ATOMS

from child import child_env, run_python, run_script
from oracles import amplitude_squared, first_quantized_single_marginal, identical_expansion


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_subprocess(argv):
    return run_python("-m", "stimclone", *argv)


def test_a_child_imports_this_process_stimclone():
    result = run_script("import stimclone\nprint(stimclone.__file__)")
    assert os.path.realpath(result.stdout.strip()) == os.path.realpath(stimclone.__file__)


# (argv, exit code[, stderr fragment[, seconds]]): every exit code the README
# promises.  A bound's message states the bound, not only the echoed input, and
# the command stops within `seconds`.
EXIT_CODES = [
    ("verify --samples 20 --json", 0),
    ("evolve --d 6 --m 6 --n 1000 --tau 3 --format json", 0),
    ("clone --d 6 --j 3,0,1,0,2,0 --l 6 --format json", 0),
    ("clone --d 6 --j 6,0,0,0,0,0 --l 12", 0),
    ("clone --j 0,0,0 --l 3", 0),
    # The corner of the fidelity ranges: d = 6, M = 6, L up to 12.
    ("fidelity --d 6 --m 6 --l-max 12", 0),
    # One atom above the ladder bound.
    ("evolve --d 2 --m 0 --n 10001 --tau 1", 2),
    # The input-sector side of the entry bound, checked before the input is expanded.
    ("clone --x 0.5,0.4,0.4,0.4,0.4,0.346 --m 194 --l 0", 2),
    ("frobnicate", 2),
    ("fidelity --d 7 --m 1 --l-max 2", 2),
    ("fidelity --d 2 --m 0 --l-max 2", 2),
    ("fidelity --d 2 --m 2 --l-max 13", 2),
    ("fidelity --d 2 --m 3 --l-max 2", 2),
    ("evolve --d 1 --m 0 --n 3 --tau 1", 2),
    ("evolve --d 2 --m -1 --n 3 --tau 1", 2),
    ("evolve --d 2 --m 0 --n 0 --tau 1", 2),
    ("evolve --d 2 --m 0 --n 3 --tau nan", 2),
    ("evolve --d 6 --m 6 --n 100 --tau 1e307", 2),
    ("evolve --d 3 --m 2 --n 5 --tau 1e17", 2),
    (f"evolve --d 2 --m 1{'0' * 400} --n 3 --tau 1", 2),
    (f"evolve --d 2 --m 0 --n {10**9} --tau 1", 2, f"1..{MAX_LADDER_ATOMS},", 0.5),
    ("clone --l 1", 2),
    ("clone --j 1,0 --x 1,0 --l 1", 2),
    ("clone --x 1,0 --l 1", 2),
    ("clone --d 3 --j 1,0 --l 1", 2),
    ("clone --j 1,0 --l -1", 2),
    ("clone --j 300,0 --l 1", 2),  # factorial bound
    # A non-finite --x parses and is rejected by PureQudit, not by argparse.
    ("clone --x inf,1 --m 1 --l 1", 2, "must be finite"),
    ("clone --x nan,1 --m 1 --l 1", 2, "must be finite"),
    ("clone --x 1e999,1 --m 1 --l 1", 2, "must be finite"),
    ("clone --x 1 --m 1 --l 1", 2),
    ("clone --x 0.6,abc --m 1 --l 1", 2, "bad qudit amplitudes"),
    ("clone --j 1,a --l 1", 2),
    ("clone --x 0,0 --m 1 --l 1", 2),
    ("clone --j 1,0 --m 2 --l 1", 2),
    # |K| = C(199, 5) ~ 2.5e9 passes the factorial bound; the entry bound stops it.
    ("clone --d 6 --j 0,0,0,0,0,0 --l 194", 2, f"> {MAX_CLONE_ENTRIES}", 0.5),
    (f"verify --samples {MAX_VERIFY_SAMPLES + 1}", 2, f"1..{MAX_VERIFY_SAMPLES},", 0.5),
]


@pytest.mark.parametrize("row", EXIT_CODES, ids=lambda row: f"{row[0]}-{row[1]}")
def test_cli_exit_codes(capsys, row):
    args, code, fragment, seconds = (*row, None, None)[:4]
    start = time.perf_counter()
    try:
        got = main(args.split())
    except SystemExit as exc:
        got = exc.code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert got == code
    if code == 0 and "json" in args:
        json.loads(captured.out)
    if fragment is not None:
        assert fragment in captured.err
    if seconds is not None:
        assert elapsed < seconds


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


def test_clone_takes_a_leading_minus_in_the_equals_form(capsys):
    # argparse reads a spaced "-0.6,0.8" as an option; "--x=-0.6,0.8" is the documented form.
    def fidelity(argv):
        code, out, _ = run_cli(capsys, ["clone", *argv, "--m", "1", "--l", "1"])
        assert code == 0
        return [r for r in parse_csv(out)[1] if r[0] == "fidelity"][0][5]

    assert fidelity(["--x=-0.6,0.8"]) == fidelity(["--x", "0.6,-0.8"])


@pytest.mark.parametrize("x", ["1e300,1e300", "1e-170,1e-170", "1.7e308,1.7e308",
                               "1e-320,1e-320"])
def test_clone_normalizes_x_far_from_unit_length(capsys, x):
    # Squaring 1e300 overflows and squaring 1e-170 underflows; the norm must do neither.
    # The norm of 1.7e308,1.7e308 is above the largest float, and 1 / norm of the
    # subnormal 1e-320,1e-320 overflows.  A RuntimeWarning is raised as an error here.
    def report(text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, ["clone", "--x", text, "--m", "1", "--l", "1",
                                              "--format", "json"])
        assert code == 0
        assert "RuntimeWarning" not in err
        doc = json.loads(out)
        return np.concatenate([np.ravel(doc["params"]["x"]), np.ravel(doc["reduced"]),
                               [doc["fidelity"]]])

    np.testing.assert_allclose(report(x), report("1,1"), rtol=0, atol=1e-15)


def test_clone_of_no_input_photon_has_the_maximally_mixed_marginal(capsys):
    # M = 0: only the l I term of the one-copy marginal remains, I/3.
    code, out, _ = run_cli(capsys, ["clone", "--j", "0,0,0", "--l", "3", "--format", "json"])
    assert code == 0
    reduced = np.array(json.loads(out)["reduced"]) @ [1, 1j]
    assert np.max(np.abs(reduced - np.eye(3) / 3)) < 1e-15


def test_clone_pure_marginal_is_the_shrunk_input(capsys):
    # eta x x^dag + (1 - eta) I/d with eta = M (L + d) / (L (M + d)); the listing is
    # the bytes json.dumps writes.
    code, out, _ = run_cli(capsys, ["clone", "--x", "0.6+0.2i,0.5-0.1i,0.3", "--m", "3", "--l", "4",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc) + "\n"
    params = doc["params"]
    x, reduced = np.array(params["x"]) @ [1, 1j], np.array(doc["reduced"]) @ [1, 1j]
    d, M, L = len(x), params["m"], params["m"] + params["l"]
    eta = M * (L + d) / (L * (M + d))
    assert np.max(np.abs(reduced - eta * np.outer(x, x.conj()) - (1 - eta) * np.eye(d) / d)) < 1e-14


def test_clone_mixed_mode_basis_input_has_no_reference_fidelity(capsys):
    code, out, _ = run_cli(capsys, ["clone", "--j", "1,1", "--l", "1", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] is None
    assert len(report["amplitudes"]) == 2


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
        (["clone", "--j", "0,0,0", "--l", "2"], clone_basis_state((0, 0, 0), 2)),
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
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        assert [[",".join(map(str, e["a"])), ",".join(map(str, e["b"])), repr(e["real"]),
                 repr(e["imag"])] for e in json.loads(out)["amplitudes"]] == records


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


def test_verify_json_flag_is_format_json(capsys):
    argv = ["verify", "--samples", "3"]
    _, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    json.loads(json_out)
    assert run_cli(capsys, argv + ["--json"])[1] == json_out
    # One setting, so the last of the two flags wins.
    _, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert run_cli(capsys, argv + ["--json", "--format", "csv"])[1] == csv_out
    assert run_cli(capsys, argv + ["--format", "csv", "--json"])[1] == json_out


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


def test_clone_rejects_oversized_listing_at_once(capsys):
    # 21 input rows x 7,381 emission vectors: one record above the bound at d = 3.
    # At d = 30 the bound shrinks by 6/30, so 7 x 4,960 records are too many.
    assert MAX_CLONE_RECORDS == 155_000
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


def test_clone_counts_records_before_forming_them():
    # 462 live input rows x 6,188 emission vectors = 2,858,856 records at d = 6.
    # The count needs only the inputs and |K|, and no clone table is built, so
    # the process peak stays near that of a small run.
    result = run_script(
        "from stimclone.cli import main\n"
        "try:\n"
        "    main(['clone', '--x', '0.5,0.4,0.4,0.4,0.4,0.346', '--m', '6', '--l', '12'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, peak())\n"
    )
    code, peak_kib = map(int, result.stdout.split())
    assert code == 2
    assert "2858856 amplitude records > 155000" in result.stderr
    assert peak_kib < 60 * 1024


def test_clone_json_listing_is_one_line_near_the_result_size():
    # 21 x 2,530 = 53,130 amplitude records at d = 6.  The document is one
    # line, assembled from text formatted once per occupation vector: this run
    # peaked at 83 MiB on a 2-vCPU VM, at 94 MiB when json's C encoder wrote
    # one dict per record, and at about 185 MiB with the indented pure-Python
    # encoder.
    result = run_script(
        "import sys\n"
        "from stimclone.cli import main\n"
        "code = main(['clone', '--j', '1,0,0,0,0,0', '--l', '20', '--format', 'json'])\n"
        "print(code, peak(), file=sys.stderr)\n"
    )
    code, peak_kib = map(int, result.stderr.split())
    assert code == 0
    assert result.stdout.count("\n") == 1 and result.stdout.endswith("}\n")
    assert len(json.loads(result.stdout)["amplitudes"]) == 53_130
    assert peak_kib < 140 * 1024


def test_clone_pure_json_listing_formats_each_vector_once():
    # 21 live input rows x 6,216 emission vectors = 130,536 records at d = 3,
    # which use only 6,786 distinct a-vectors and 6,216 b-vectors.  Each vector
    # is formatted once: this run peaked at 99 MiB on a 2-vCPU VM, and at 143 MiB
    # when every record carried its own lists into json's encoder.
    result = run_script(
        "import sys\n"
        "from stimclone.cli import main\n"
        "code = main(['clone', '--x', '0.6,0.5,0.4', '--m', '5', '--l', '110',\n"
        "             '--format', 'json'])\n"
        "print(code, peak(), file=sys.stderr)\n"
    )
    code, peak_kib = map(int, result.stderr.split())
    assert code == 0
    assert len(json.loads(result.stdout)["amplitudes"]) == 130_536
    assert peak_kib < 125 * 1024


def test_closed_stdout_ends_quietly():
    # The csv is 408 KB, far above a 64 KiB pipe buffer, so a write after the
    # reader has closed always fails.  The CLI then exits as SIGPIPE would stop
    # it, with status 128 + 13 and no traceback.
    proc = subprocess.Popen(
        [sys.executable, "-m", "stimclone", "clone", "--d", "6", "--j", "6,0,0,0,0,0", "--l", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.readline().startswith(b"record,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_cli_import_and_fidelity_run_do_not_load_scipy():
    result = run_python("-c", (
        "import contextlib, io, sys\n"
        "import stimclone.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = stimclone.cli.main(['fidelity', '--d', '3', '--m', '1', '--l-max', '3'])\n"
        "assert code == 0\n"
        "assert 'scipy' not in sys.modules, 'fidelity'\n"
    ))
    assert result.returncode == 0, result.stderr.decode()


@st.composite
def _small_cli_args(draw):
    command = draw(st.sampled_from(["fidelity", "clone", "evolve", "verify"]))
    d = draw(st.integers(2, 4))
    if command == "fidelity":
        m = draw(st.integers(1, 2))
        return ["fidelity", "--d", str(d), "--m", str(m), "--l-max", str(m + draw(st.integers(0, 2))),
                "--seed", str(draw(st.integers(0, 2**32 - 1)))]
    if command == "evolve":
        return ["evolve", "--d", str(d), "--m", str(draw(st.integers(0, 6))),
                "--n", str(draw(st.integers(1, 30))),
                "--tau", repr(draw(st.floats(-10.0, 10.0, allow_nan=False)))]
    if command == "verify":
        return ["verify", "--samples", str(draw(st.integers(1, 3))),
                "--seed", str(draw(st.integers(0, 2**32 - 1)))] + \
            draw(st.sampled_from([[], ["--inject-perturbation"]]))
    parts = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=d, max_size=d)
                 .filter(lambda zs: any(z != (0, 0) for z in zs)))
    return ["clone", "--x=" + ",".join(f"{re}{im:+d}i" for re, im in parts),
            "--m", str(draw(st.integers(1, 3))), "--l", str(draw(st.integers(0, 3)))]


def _document_and_floats(text):
    """A json document with each float replaced by a marker, and its floats in order."""
    floats = []
    document = json.loads(text, parse_float=lambda s: floats.append(float(s)) or "<float>")
    return document, np.array(floats)


@pytest.mark.parametrize("args", ["fidelity --d 6 --m 6 --l-max 12 --format json",
                                  "evolve --d 6 --m 6 --n 4000 --tau 2 --format json"])
def test_values_agree_across_blas_thread_counts(args):
    # Bytes repeat only at one BLAS thread count: threads reorder the sums of gemm and
    # of the divide-and-conquer eigensolver.  At 1 and 2 threads the evolve floats
    # differed by up to 6.9e-15, the fidelity ones by 5.6e-17.
    runs = [run_python("-m", "stimclone", *args.split(), check=True,
                       env={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    (document_1, floats_1), (document_2, floats_2) = (_document_and_floats(run.stdout) for run in runs)
    assert document_1 == document_2 and len(floats_1) == len(floats_2)
    assert np.max(np.abs(floats_1 - floats_2)) <= 1e-13


def _csv_rows_from_json(report):
    """The json values in the order of the csv cells of the same command."""
    if "checks" in report:  # verify
        return [list(check.values()) for check in report["checks"]]
    if report["command"] != "clone":
        return [list(row.values()) for row in report["rows"]]
    rows = [["amplitude", r["a"], r["b"], None, None, r["real"], r["imag"]]
            for r in report["amplitudes"]]
    rows += [["reduced", None, None, r, s, *z] for r, row in enumerate(report["reduced"] or ())
             for s, z in enumerate(row)]
    return rows + [["fidelity", None, None, None, None, report["fidelity"], None]]


FLOAT_FIELDS = {"f_single_simulated", "f_single_closed", "f_global_simulated", "f_global_closed",
                "max_abs_diff", "probability", "max_deviation", "tolerance", "real", "imag"}


@settings(max_examples=20)
@given(argv=_small_cli_args())
def test_csv_cells_and_json_values_are_the_same_numbers(argv):
    # Each csv cell is the text of its json value: a float's repr, the shortest
    # spelling that round-trips, and a boolean's str.
    code = 1 if "--inject-perturbation" in argv else 0
    outputs = []
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--format", fmt]) == code
        outputs.append(out.getvalue())
    assert outputs[1] == json.dumps(json.loads(outputs[1])) + "\n"
    header, csv_rows = parse_csv(outputs[0])
    report = json.loads(outputs[1])
    json_rows = _csv_rows_from_json(report)
    assert len(csv_rows) == len(json_rows) > 0
    assert [len(row) for row in csv_rows] == [len(row) for row in json_rows]
    # Named records: the csv header is their keys, and each number field holds a float.
    records = report.get("rows") or report.get("checks") or report["amplitudes"]
    if "amplitudes" not in report:
        assert header == list(records[0])
    for record in records:
        assert all(isinstance(record[name], float) for name in FLOAT_FIELDS & record.keys())
    for cells, values in zip(csv_rows, json_rows):
        for cell, value in zip(cells, values):
            if value is None:
                assert cell == ""
            elif isinstance(value, list):
                assert cell == ",".join(map(str, value))
            elif isinstance(value, float):
                assert cell == repr(value) and float(cell) == value
            else:  # str, bool or int
                assert cell == str(value)
