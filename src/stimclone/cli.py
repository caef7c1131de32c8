"""Command-line interface: fidelity tables, evolution profiles, cloning runs,
and oracle verification, with csv/json output.

Machine output (csv or json) goes to stdout, or to --out PATH with a short
human-readable table (6 significant digits) echoed to stdout.  Machine
formats always carry full round-trip precision.  All sampling is driven by
--seed (default printed to stderr), so identical flags produce identical
bytes.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .cloner import PureQudit, clone_basis_state, clone_pure
from .fock import OccupationVector, enumerate_sector
from .ladder import emission_probabilities, ladder_matrix
from .oracle import verify_evolution, verify_ladder
from .reduction import (
    closed_form_global,
    closed_form_single,
    fidelity_global,
    fidelity_single,
    reduce_to_single,
)

DEFAULT_SEED = 12345
FIDELITY_GATE = 1e-9

# Desk-scale verification bounds: all sectors with d <= 3, N <= 3, total(j) <= 2.
VERIFY_D_MAX = 3
VERIFY_N_MAX = 3
VERIFY_M_MAX = 2
VERIFY_T_MAX = 5.0
PERTURBATION_SIZE = 1e-6


def _parse_occupation(text: str) -> OccupationVector:
    try:
        return OccupationVector(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad occupation vector {text!r}: {exc}")


def _parse_qudit(text: str) -> np.ndarray:
    # Components are plain reals or re+imi pairs, e.g. "0.6,0.8" or "0.6+0.2i,0.8".
    try:
        parts = [complex(part.strip().replace("i", "j")) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad qudit amplitudes {text!r}")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError("a qudit needs at least 2 amplitudes")
    values = np.asarray(parts, dtype=complex)
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError("qudit amplitudes must be finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stimclone",
        description="Stimulated-emission cloning of symmetric d-level bosonic states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="machine output format (default csv)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write machine output to PATH and a rounded table to stdout")

    p_fid = sub.add_parser("fidelity", help="simulated vs closed-form fidelities over L = M..L_max")
    p_fid.add_argument("--d", type=int, required=True, help="qudit dimension (2..6)")
    p_fid.add_argument("--m", type=int, required=True, help="input copy number M (1..6)")
    p_fid.add_argument("--l-max", type=int, required=True, dest="l_max",
                       help="largest output copy number L (M..12)")
    p_fid.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the sampled pure input state")
    add_io_flags(p_fid)

    p_ev = sub.add_parser("evolve", help="emission probabilities |f_l(tau)|^2")
    p_ev.add_argument("--d", type=int, required=True, help="qudit dimension (>= 2)")
    p_ev.add_argument("--m", type=int, required=True, help="input photon number M (>= 0)")
    p_ev.add_argument("--n", type=int, required=True, help="number of excited atoms N (>= 1)")
    p_ev.add_argument("--tau", type=float, required=True,
                      help="dimensionless time gamma*t")
    add_io_flags(p_ev)

    p_cl = sub.add_parser("clone", help="joint output amplitudes plus one-copy reduction")
    p_cl.add_argument("--d", type=int, default=None,
                      help="qudit dimension; must match the length of --j / --x")
    group = p_cl.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=_parse_occupation, default=None,
                       help="basis input as comma-separated occupation numbers, e.g. 1,0")
    group.add_argument("--x", type=_parse_qudit, default=None,
                       help="pure qudit amplitudes, e.g. 0.6,0.8 or 0.6+0.2i,0.8 (normalized)")
    p_cl.add_argument("--m", type=int, default=None, help="copy number M (required with --x)")
    p_cl.add_argument("--l", type=int, required=True, help="number of additional copies (>= 0)")
    add_io_flags(p_cl)

    p_vf = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_vf.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="seed for the evolution-time draws")
    p_vf.add_argument("--samples", type=int, default=50,
                      help="number of (sector, t) evolution draws (default 50)")
    p_vf.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    p_vf.add_argument("--inject-perturbation", action="store_true",
                      help="fault-injection hook: shift the references so every check fails")
    add_io_flags(p_vf)

    return parser


def _fmt(value) -> str:
    """Full-precision text for machine formats; repr round-trips floats."""
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _emit(args, header, rows, json_obj, human_lines=None) -> None:
    """Write the machine output; with --out, also print `human_lines` (default: a table of rows)."""
    if args.format == "csv":
        machine = _csv_text(header, rows)
    else:
        machine = json.dumps(json_obj, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine)
        for line in human_lines or _human_table(header, rows):
            print(line)
    else:
        sys.stdout.write(machine)


def _human_table(header, rows) -> list[str]:
    def fmt_cell(v):
        if isinstance(v, float):
            return f"{v:.6g}"
        return "" if v is None else str(v)

    table = [[str(h) for h in header]] + [[fmt_cell(v) for v in row] for row in rows]
    widths = [max(len(line[c]) for line in table) for c in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]


def cmd_fidelity(args) -> int:
    parser_error = args._parser.error
    if not 2 <= args.d <= 6:
        parser_error(f"--d must be in 2..6, got {args.d}")
    if not 1 <= args.m <= 6:
        parser_error(f"--m must be in 1..6, got {args.m}")
    if not args.m <= args.l_max <= 12:
        parser_error(f"--l-max must be in {args.m}..12, got {args.l_max}")

    print(f"seed = {args.seed}", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    header = ("d", "M", "L", "f_single_simulated", "f_single_closed",
              "f_global_simulated", "f_global_closed", "max_abs_diff")
    rows = []
    for L in range(args.m, args.l_max + 1):
        x = PureQudit.random(args.d, rng)
        out = clone_pure(x, args.m, L - args.m)
        f_single = fidelity_single(reduce_to_single(out), x)
        f_single_ref = closed_form_single(args.m, L, args.d)
        f_global = fidelity_global(out, x)
        f_global_ref = closed_form_global(args.m, L, args.d)
        diff = max(abs(f_single - f_single_ref), abs(f_global - f_global_ref))
        rows.append((args.d, args.m, L, f_single, f_single_ref, f_global, f_global_ref, diff))

    ok = all(row[-1] <= FIDELITY_GATE for row in rows)
    json_obj = {
        "command": "fidelity",
        "params": {"d": args.d, "m": args.m, "l_max": args.l_max, "seed": args.seed},
        "rows": [dict(zip(header, row)) for row in rows],
        "pass": ok,
    }
    _emit(args, header, rows, json_obj)
    return 0 if ok else 1


def cmd_evolve(args) -> int:
    parser_error = args._parser.error
    if args.d < 2:
        parser_error(f"--d must be >= 2, got {args.d}")
    if args.m < 0:
        parser_error(f"--m must be >= 0, got {args.m}")
    if args.n < 1:
        parser_error(f"--n must be >= 1, got {args.n}")
    if not math.isfinite(args.tau):
        parser_error(f"--tau must be finite, got {args.tau}")

    probs = emission_probabilities(ladder_matrix(args.d, args.n, args.m), args.tau)
    header = ("l", "probability")
    rows = [(l, float(p)) for l, p in enumerate(probs)]
    json_obj = {
        "command": "evolve",
        "params": {"d": args.d, "m": args.m, "n": args.n, "tau": args.tau},
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _emit(args, header, rows, json_obj)
    return 0


def _reference_qudit(j: OccupationVector):
    """Pure qudit described by a basis input, if there is one.

    Only inputs with all photons in a single mode correspond to a pure qudit;
    for those the reference is that mode's unit vector.
    """
    total = j.total()
    if total == 0:
        return None
    for i, count in enumerate(j):
        if count == total:
            unit = np.zeros(len(j), dtype=complex)
            unit[i] = 1.0
            return PureQudit(unit)
    return None


def cmd_clone(args) -> int:
    parser_error = args._parser.error
    if args.l < 0:
        parser_error(f"--l must be >= 0, got {args.l}")
    vector_d = len(args.x) if args.x is not None else args.j.d
    if args.d is not None and args.d != vector_d:
        parser_error(f"--d {args.d} contradicts a {vector_d}-mode input vector")
    if args.x is not None:
        if args.m is None or args.m < 1:
            parser_error("--x requires --m >= 1")
        norm = float(np.linalg.norm(args.x))
        if norm == 0.0:
            parser_error("--x must not be the zero vector")
        x = PureQudit(args.x / norm)
        out = clone_pure(x, args.m, args.l)
        params = {"d": x.d, "m": args.m, "l": args.l, "j": None,
                  "x": [[z.real, z.imag] for z in x.x]}
    else:
        if args.m is not None and args.m != args.j.total():
            parser_error(f"--m {args.m} contradicts --j {','.join(map(str, args.j))}")
        x = _reference_qudit(args.j)
        out = clone_basis_state(args.j, args.l)
        params = {"d": args.j.d, "m": args.j.total(), "l": args.l,
                  "j": list(args.j), "x": None}

    reduced = reduce_to_single(out) if out.L >= 1 else None
    fidelity = fidelity_single(reduced, x) if (reduced is not None and x is not None) else None

    header = ("record", "a_occupation", "b_occupation", "row", "col", "real", "imag")
    rows = []
    amp_entries = []
    # Nonzeros straight from the clone coefficients, listed in (p, q) order.
    js, qs = np.nonzero(out.coefficients)
    ps = out.a_index[js, qs]
    order = np.lexsort((qs, ps))
    js, ps, qs = js[order], ps[order], qs[order]
    nonzero = out.coefficients[js, qs]
    for p, q, re, im in zip(ps.tolist(), qs.tolist(), nonzero.real.tolist(), nonzero.imag.tolist()):
        a_vec, b_vec = out.a_basis[p], out.b_basis[q]
        rows.append(("amplitude", ",".join(map(str, a_vec)), ",".join(map(str, b_vec)),
                     None, None, re, im))
        amp_entries.append({"a": list(a_vec), "b": list(b_vec), "real": re, "imag": im})
    reduced_entries = None
    if reduced is not None:
        d = reduced.d
        reduced_entries = [[[float(reduced.matrix[r, s].real), float(reduced.matrix[r, s].imag)]
                            for s in range(d)] for r in range(d)]
        for r in range(d):
            for s in range(d):
                rows.append(("reduced", None, None, r, s,
                             float(reduced.matrix[r, s].real), float(reduced.matrix[r, s].imag)))
    rows.append(("fidelity", None, None, None, None, fidelity, None))

    json_obj = {
        "command": "clone",
        "params": params,
        "amplitudes": amp_entries,
        "reduced": reduced_entries,
        "fidelity": fidelity,
    }
    _emit(args, header, rows, json_obj)
    return 0


def _verify_sectors():
    sectors = []
    for d in range(2, VERIFY_D_MAX + 1):
        for n in range(1, VERIFY_N_MAX + 1):
            for m in range(VERIFY_M_MAX + 1):
                for j in enumerate_sector(d, m):
                    sectors.append((d, n, j))
    return sectors


def cmd_verify(args) -> int:
    parser_error = args._parser.error
    if args.samples < 1:
        parser_error(f"--samples must be >= 1, got {args.samples}")
    if args.json:
        args.format = "json"
    perturbation = PERTURBATION_SIZE if args.inject_perturbation else 0.0

    print(f"seed = {args.seed}", file=sys.stderr)
    sectors = _verify_sectors()
    checks = []

    def tag(kind, d, n, j, extra=""):
        return f"{kind}[d={d},N={n},j={','.join(map(str, j))}{extra}]"

    for d, n, j in sectors:
        report = verify_ladder(d, n, j, perturbation=perturbation)
        for check in report["checks"]:
            checks.append({**check, "name": f"{tag('ladder', d, n, j)}:{check['name']}"})

    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        d, n, j = sectors[int(rng.integers(len(sectors)))]
        t = float(rng.uniform(0.0, VERIFY_T_MAX))
        report = verify_evolution(d, n, j, t=t, perturbation=perturbation)
        for check in report["checks"]:
            checks.append({**check, "name": f"{tag('evolution', d, n, j, f',t={t:.6f}')}:{check['name']}"})

    overall = all(check["pass"] for check in checks)
    report = {
        "params": {
            "d_max": VERIFY_D_MAX,
            "n_max": VERIFY_N_MAX,
            "m_max": VERIFY_M_MAX,
            "gamma": 1.0,
            "seed": args.seed,
            "evolution_draws": args.samples,
            "perturbation": perturbation,
        },
        "checks": checks,
        "pass": overall,
    }

    header = ("name", "max_deviation", "tolerance", "pass")
    rows = [(c["name"], c["max_deviation"], c["tolerance"], c["pass"]) for c in checks]
    failed = sum(1 for c in checks if not c["pass"])
    human = [f"{len(checks)} checks, {failed} failed: {'PASS' if overall else 'FAIL'}"]
    _emit(args, header, rows, report, human)
    return 0 if overall else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._parser = parser
    handlers = {
        "fidelity": cmd_fidelity,
        "evolve": cmd_evolve,
        "clone": cmd_clone,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Library preconditions surfacing from user-supplied values.
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
