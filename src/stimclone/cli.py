"""Command-line interface: fidelity tables, evolution profiles, cloning runs,
and oracle verification, with csv/json output.

Each command computes through the library and builds its records once: the
row dicts its json embeds, or for `clone` only the form its output needs.
`_emit` writes them: machine output (csv or json) goes to stdout, or to
--out PATH with a short human-readable table (6 significant digits) echoed
to stdout.  Machine formats always carry full round-trip precision.  All
sampling is driven by --seed (default printed to stderr), so identical flags
produce identical bytes.  Exit codes: 0 success, 1 check failure, 2 usage
error, which covers every ValueError of the library, inputs above a declared
bound and an --out path that cannot be written.
"""

import argparse
import csv
import json
import sys

import numpy as np

from .cloner import PureQudit, clone_basis_state, clone_pure
from .fock import OccupationVector, enumerate_sector, sector_array
from .ladder import MAX_LADDER_ATOMS, emission_probabilities, ladder_matrix
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
# Largest --samples: `verify --samples 10000 --json` took 5.2 s and peaked at
# 88 MB on a 2-vCPU VM (about 0.5 ms and 3 KB of report per draw).
MAX_VERIFY_SAMPLES = 10_000
# Largest number of amplitude records `clone` lists.  json output costs about
# 2.8 KB per record at d = 6: `clone --j 1,0,0,0,0,0 --l 25 --format json`
# (142,506 records) peaked at 435 MB on a 2-vCPU VM, csv at 167 MB.  A record
# lists 2d occupation numbers, so above d = 6 the bound shrinks by 6/d.
MAX_CLONE_RECORDS = 155_000


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
    p_fid.set_defaults(run=cmd_fidelity)

    p_ev = sub.add_parser("evolve", help="emission probabilities |f_l(tau)|^2")
    p_ev.add_argument("--d", type=int, required=True, help="qudit dimension (>= 2)")
    p_ev.add_argument("--m", type=int, required=True, help="input photon number M (>= 0)")
    p_ev.add_argument("--n", type=int, required=True,
                      help=f"number of excited atoms N (1..{MAX_LADDER_ATOMS})")
    p_ev.add_argument("--tau", type=float, required=True,
                      help="dimensionless time gamma*t")
    add_io_flags(p_ev)
    p_ev.set_defaults(run=cmd_evolve)

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
    p_cl.set_defaults(run=cmd_clone)

    p_vf = sub.add_parser("verify", help="run the brute-force oracle suite")
    p_vf.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="seed for the evolution-time draws")
    p_vf.add_argument("--samples", type=int, default=50,
                      help=f"number of (sector, t) evolution draws, 1..{MAX_VERIFY_SAMPLES} "
                           "(default 50)")
    p_vf.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    p_vf.add_argument("--inject-perturbation", action="store_true",
                      help="fault-injection hook: skew the reference coupling so the "
                           "ladder_action, ladder_restriction and amplitude_match checks fail")
    add_io_flags(p_vf)
    p_vf.set_defaults(run=cmd_verify)

    return parser


def _emit(args, header, rows, document, human=None) -> None:
    """Write `document` as json, or `header` and `rows` as csv, to stdout or --out PATH.

    Rows are dicts with values in header order, or sequences; csv.writer writes
    a float as its repr and None as an empty cell.  With --out, stdout gets
    `human` (default: a 6-digit table of the rows).
    """
    rows = [row.values() if isinstance(row, dict) else row for row in rows or ()]

    def write(fh):
        if args.format == "json":
            print(json.dumps(document, indent=2), file=fh)
        else:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])

    if not args.out:
        return write(sys.stdout)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    for line in human or _human_table(header, rows):
        print(line)


def _human_table(header, rows) -> list[str]:
    def fmt_cell(v):
        if isinstance(v, float):
            return f"{v:.6g}"
        return "" if v is None else str(v)

    table = [[str(h) for h in header]] + [[fmt_cell(v) for v in row] for row in rows]
    widths = [max(len(line[c]) for line in table) for c in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]


def cmd_fidelity(args) -> int:
    if not 2 <= args.d <= 6:
        raise ValueError(f"--d must be in 2..6, got {args.d}")
    if not 1 <= args.m <= 6:
        raise ValueError(f"--m must be in 1..6, got {args.m}")
    if not args.m <= args.l_max <= 12:
        raise ValueError(f"--l-max must be in {args.m}..12, got {args.l_max}")

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
        rows.append(dict(zip(header, (args.d, args.m, L, f_single, f_single_ref,
                                      f_global, f_global_ref, diff))))

    ok = all(row["max_abs_diff"] <= FIDELITY_GATE for row in rows)
    params = {"d": args.d, "m": args.m, "l_max": args.l_max, "seed": args.seed}
    document = {"command": "fidelity", "params": params, "rows": rows, "pass": ok}
    _emit(args, header, rows, document)
    return 0 if ok else 1


def cmd_evolve(args) -> int:
    probs = emission_probabilities(ladder_matrix(args.d, args.n, args.m), args.tau)
    rows = [{"l": l, "probability": p} for l, p in enumerate(probs.tolist())]
    params = {"d": args.d, "m": args.m, "n": args.n, "tau": args.tau}
    document = {"command": "evolve", "params": params, "rows": rows}
    _emit(args, ("l", "probability"), rows, document)
    return 0


def _reference_qudit(j: OccupationVector):
    """Pure qudit described by a basis input, if there is one.

    Only inputs with all photons in a single mode correspond to a pure qudit;
    for those the reference is that mode's unit vector.
    """
    total = j.total()
    if total == 0 or max(j) != total:
        return None
    return PureQudit(np.eye(len(j))[j.index(total)])


def cmd_clone(args) -> int:
    vector_d = len(args.x) if args.x is not None else args.j.d
    if args.d is not None and args.d != vector_d:
        raise ValueError(f"--d {args.d} contradicts a {vector_d}-mode input vector")
    if args.x is not None:
        if args.m is None:
            raise ValueError("--x requires --m")
        norm = float(np.linalg.norm(args.x))
        if norm == 0.0:
            raise ValueError("--x must not be the zero vector")
        x = PureQudit(args.x / norm)
        out = clone_pure(x, args.m, args.l)
        params = {"d": x.d, "m": args.m, "l": args.l, "j": None,
                  "x": [[z.real, z.imag] for z in x.x]}
    else:
        if args.m is not None and args.m != args.j.total():
            raise ValueError(f"--m {args.m} contradicts --j {','.join(map(str, args.j))}")
        x = _reference_qudit(args.j)
        out = clone_basis_state(args.j, args.l)
        params = {"d": args.j.d, "m": args.j.total(), "l": args.l,
                  "j": list(args.j), "x": None}

    coefficients, a_index = out.nonzero_rows()
    limit = MAX_CLONE_RECORDS * 6 // max(out.d, 6)
    if coefficients.size > limit:
        raise ValueError(f"clone listing too large: {coefficients.size} amplitude records > "
                         f"{limit}, the MAX_CLONE_RECORDS bound at d = {out.d}")
    rho1 = reduce_to_single(out) if out.L >= 1 else None
    fidelity = None if rho1 is None or x is None else fidelity_single(rho1, x)
    reduced = None if rho1 is None else [[[z.real, z.imag] for z in row]
                                         for row in rho1.matrix.tolist()]

    # The nonzero amplitudes in (p, q) order: p ranks the a-occupation, q the b-occupation.
    js, qs = np.nonzero(coefficients)
    order = np.lexsort((qs, a_index[js, qs]))
    js, qs = js[order], qs[order]
    values = coefficients[js, qs]
    records = list(zip(sector_array(out.d, out.L)[a_index[js, qs]].tolist(),
                       sector_array(out.d, out.l)[qs].tolist(),
                       values.real.tolist(), values.imag.tolist()))
    document = rows = None
    if args.format == "json":
        amplitudes = [{"a": a, "b": b, "real": re, "imag": im} for a, b, re, im in records]
        document = {"command": "clone", "params": params, "amplitudes": amplitudes,
                    "reduced": reduced, "fidelity": fidelity}
    if args.format == "csv" or args.out:
        rows = [("amplitude", ",".join(map(str, a)), ",".join(map(str, b)), None, None, re, im)
                for a, b, re, im in records]
        rows += [("reduced", None, None, r, s, *z) for r, row in enumerate(reduced or ())
                 for s, z in enumerate(row)]
        rows.append(("fidelity", None, None, None, None, fidelity, None))
    header = ("record", "a_occupation", "b_occupation", "row", "col", "real", "imag")
    _emit(args, header, rows, document)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.samples <= MAX_VERIFY_SAMPLES:
        raise ValueError(f"--samples must be in 1..{MAX_VERIFY_SAMPLES}, got {args.samples}")
    if args.json:
        args.format = "json"
    perturbation = PERTURBATION_SIZE if args.inject_perturbation else 0.0

    print(f"seed = {args.seed}", file=sys.stderr)
    sectors = [(d, n, j) for d in range(2, VERIFY_D_MAX + 1) for n in range(1, VERIFY_N_MAX + 1)
               for m in range(VERIFY_M_MAX + 1) for j in enumerate_sector(d, m)]

    def label(kind, d, n, j, extra=""):
        return f"{kind}[d={d},N={n},j={','.join(map(str, j))}{extra}]"

    reports = [(label("ladder", d, n, j), verify_ladder(d, n, j, perturbation=perturbation))
               for d, n, j in sectors]
    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        d, n, j = sectors[int(rng.integers(len(sectors)))]
        t = float(rng.uniform(0.0, VERIFY_T_MAX))
        reports.append((label("evolution", d, n, j, f",t={t:.6f}"),
                        verify_evolution(d, n, j, t=t, perturbation=perturbation)))
    checks = [{**check, "name": f"{tag}:{check['name']}"}
              for tag, report in reports for check in report["checks"]]

    overall = all(check["pass"] for check in checks)
    params = {"d_max": VERIFY_D_MAX, "n_max": VERIFY_N_MAX, "m_max": VERIFY_M_MAX, "gamma": 1.0,
              "seed": args.seed, "evolution_draws": args.samples, "perturbation": perturbation}
    document = {"params": params, "checks": checks, "pass": overall}
    failed = sum(1 for c in checks if not c["pass"])
    human = [f"{len(checks)} checks, {failed} failed: {'PASS' if overall else 'FAIL'}"]
    _emit(args, ("name", "max_deviation", "tolerance", "pass"), checks, document, human)
    return 0 if overall else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        # Library preconditions surfacing from user-supplied values.
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
