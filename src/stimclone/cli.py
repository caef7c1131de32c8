"""Command-line interface: fidelity tables, evolution profiles, cloning runs,
and oracle verification, with csv/json output.

Each command computes through the library and builds its records once: the
row dicts its json embeds, or for `clone` only the form its output needs.
`_emit` writes them: machine output (csv or json) goes to stdout, or to
--out PATH with a short human-readable table (6 significant digits) echoed
to stdout.  Machine formats always carry full round-trip precision.  All
sampling is driven by --seed (default printed to stderr), so identical flags
produce identical bytes on one machine, BLAS build and BLAS thread count.  A
json document is one line, written by the json module's C encoder
(`python -m json.tool` indents it).  The `clone` listing is assembled from
text formatted once per occupation vector, byte-identical to what json.dumps
writes for the same document.  Exit codes: 0 success, 1 check failure, 2
usage error, which covers every ValueError of the library, inputs above a
declared bound and an --out path that cannot be written, and 141 (128 +
SIGPIPE) when the reader of stdout closes it early, as with `| head`.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .cloner import PureQudit, clone_basis_state, clone_pure
from .fock import OccupationVector, enumerate_sector, sector_array
from .ladder import MAX_LADDER_ATOMS, evolve, ladder_matrix
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
# Largest --samples: `verify --samples 10000 --json` took 4.3-4.5 s and peaked
# at 88 MB on a 2-vCPU VM (about 0.4 ms and 3 KB of report per draw).
MAX_VERIFY_SAMPLES = 10_000
# Largest number of amplitude records `clone` lists.  json output costs about
# 0.9 KB per record at d = 6, csv 0.7 KB: `clone --j 1,0,0,0,0,0 --l 25 --format
# json` (142,506 records, each with its own vectors) peaked at 162 MiB on a
# 2-vCPU VM, csv at 135 MiB, against 37 MiB for a one-record listing.  A record
# lists 2d occupation numbers, so above d = 6 the bound shrinks by 6/d.
MAX_CLONE_RECORDS = 155_000


def _parse_occupation(text: str) -> OccupationVector:
    try:
        return OccupationVector(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad occupation vector {text!r}: {exc}")


def _parse_qudit(text: str) -> np.ndarray:
    # Components are plain reals or re+imi pairs, e.g. "0.6,0.8" or "0.6+0.2i,0.8".
    # Only a trailing "i" marks the imaginary unit, so "inf" stays a float word.
    try:
        parts = [complex(p[:-1] + "j" if p.endswith("i") else p)
                 for p in map(str.strip, text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad qudit amplitudes {text!r}")
    return np.asarray(parts, dtype=complex)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; only in-process callers of `main` reuse it."""
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

    p_fid = sub.add_parser("fidelity", help="simulated vs closed-form fidelities over L = M..L_max",
                           description="f_single_simulated comes from the input state and the "
                                       "emission law; f_global_simulated reads the clone table.")
    p_fid.add_argument("--d", type=int, required=True, choices=range(2, 7), help="qudit dimension")
    p_fid.add_argument("--m", type=int, required=True, choices=range(1, 7), help="copy number M")
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
                       help="pure qudit amplitudes, e.g. 0.6,0.8 or 0.6+0.2i,0.8 (normalized); "
                            "write a leading minus as --x=-0.6,0.8")
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
    p_vf.add_argument("--inject-perturbation", action="store_true",
                      help="fault-injection hook: skew the reference coupling so the "
                           "ladder_action, ladder_restriction and amplitude_match checks fail")
    add_io_flags(p_vf)
    # Registered after --format: argparse takes a destination's default (csv) from its first action.
    p_vf.add_argument("--json", dest="format", action="store_const", const="json",
                      help="same as --format json; the last of the two flags wins")
    p_vf.set_defaults(run=cmd_verify)

    return parser


def _emit(args, header, rows, document, human=None) -> None:
    """Write `document` as json, or `header` and `rows` as csv, to stdout or --out PATH.

    A dict document goes through json.dumps; a str is json text already (the
    `clone` listing, byte-identical to json.dumps of its dict) and is written
    as it is.  Rows are dicts with values in header order, or sequences;
    csv.writer writes a float as its repr and None as an empty cell.  With
    --out, stdout gets `human` (default: a 6-digit table of the rows).
    """
    rows = [row.values() if isinstance(row, dict) else row for row in rows or ()]

    def write(fh):
        if args.format == "json":
            print(document if isinstance(document, str) else json.dumps(document), file=fh)
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
    probs = evolve(ladder_matrix(args.d, args.n, args.m), args.tau).probabilities
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


def _vector_texts(vectors: np.ndarray, sep: str) -> list[str]:
    """The numbers of each row of an integer array joined by `sep`, as json.dumps writes them.

    One json.dumps call formats all rows, in C; its text is then split between rows.
    """
    return json.dumps(vectors.tolist(), separators=(sep, ":"))[2:-2].split(f"]{sep}[")


def cmd_clone(args) -> int:
    vector_d = len(args.x) if args.x is not None else args.j.d
    if args.d is not None and args.d != vector_d:
        raise ValueError(f"--d {args.d} contradicts a {vector_d}-mode input vector")
    if args.x is not None:
        if args.m is None:
            raise ValueError("--x requires --m")
        # Scale the parts by a power of two, exactly, so the largest lies in
        # [0.5, 1): the norm is then neither above the largest float nor so
        # small that dividing by it overflows.
        parts = args.x.view(float)
        scaled = np.ldexp(parts, -math.frexp(np.max(np.abs(parts)))[1]).view(complex)
        norm = math.hypot(*scaled.real, *scaled.imag)
        if norm == 0.0:
            raise ValueError("--x must not be the zero vector")
        with np.errstate(invalid="ignore"):  # a nan or inf --x is PureQudit's to reject
            x = PureQudit(scaled / norm)
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

    # One record per live input row and b-occupation, counted before any is formed.
    size = np.count_nonzero(out.inputs) * len(out.b_basis)
    limit = MAX_CLONE_RECORDS * 6 // max(out.d, 6)
    if size > limit:
        raise ValueError(f"clone listing too large: {size} amplitude records > "
                         f"{limit}, the MAX_CLONE_RECORDS bound at d = {out.d}")
    live, amp, a_index = out.live_rows()
    coefficients = out.inputs[..., live, None] * amp
    rho1 = reduce_to_single(out) if out.L >= 1 else None
    fidelity = None if rho1 is None or x is None else fidelity_single(rho1, x)
    reduced = None if rho1 is None else [[[z.real, z.imag] for z in row]
                                         for row in rho1.matrix.tolist()]

    # The nonzero amplitudes in (p, q) order: p ranks the a-occupation, q the b-occupation.
    js, qs = np.nonzero(coefficients)
    ps = a_index[js, qs]
    order = np.lexsort((qs, ps))
    js, qs = js[order], qs[order]
    values = coefficients[js, qs]
    # A pure listing repeats each a- and b-occupation over its live input rows,
    # so each vector is formatted once and a record holds indices into the texts.
    used, ps = np.unique(ps[order], return_inverse=True)
    vectors = (sector_array(out.d, out.L)[used], sector_array(out.d, out.l))
    columns = (ps.tolist(), qs.tolist(), values.real.tolist(), values.imag.tolist())
    document = rows = None
    if args.format == "json":
        a_text, b_text = (_vector_texts(vs, ", ") for vs in vectors)
        # Every amplitude is finite, so repr writes it as json's encoder would;
        # only a non-finite float would differ (json spells it NaN or Infinity).
        records = (f'{{"a": [{a_text[p]}], "b": [{b_text[q]}], "real": {re!r}, "imag": {im!r}}}'
                   for p, q, re, im in zip(*columns))
        # The listing goes between the other keys, in the order json.dumps keeps.
        head = json.dumps({"command": "clone", "params": params})
        tail = json.dumps({"reduced": reduced, "fidelity": fidelity})
        document = f'{head[:-1]}, "amplitudes": [{", ".join(records)}], {tail[1:]}'
    if args.format == "csv" or args.out:
        a_text, b_text = (_vector_texts(vs, ",") for vs in vectors)
        rows = [("amplitude", a_text[p], b_text[q], None, None, re, im)
                for p, q, re, im in zip(*columns)]
        rows += [("reduced", None, None, r, s, *z) for r, row in enumerate(reduced or ())
                 for s, z in enumerate(row)]
        rows.append(("fidelity", None, None, None, None, fidelity, None))
    header = ("record", "a_occupation", "b_occupation", "row", "col", "real", "imag")
    _emit(args, header, rows, document)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.samples <= MAX_VERIFY_SAMPLES:
        raise ValueError(f"--samples must be in 1..{MAX_VERIFY_SAMPLES}, got {args.samples}")
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
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except ValueError as exc:
        # Library preconditions surfacing from user-supplied values.
        parser.error(str(exc))
    except BrokenPipeError:
        # Send what is still buffered to devnull, so the flush at exit is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
