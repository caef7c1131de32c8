"""Output checks of the benchmark, independent of `stimclone.reduction`.

Every check compares an output with a reference computed here: exact
`Fraction` closed forms for the fidelities and the shrinking factor, unit
norm for clone amplitudes and evolve probabilities, and the oracle report's
own verdict and check count for `verify`.  `deviation` returns the worst
absolute deviation of one output (infinity for a malformed one); the output
passes when it is at most TOL.  `shifted` moves one number of a parsed output
by SHIFT, and the negative control requires every check to reject that copy.
"""

import copy
import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
SHIFT = 1e-6

# The oracle suite of `stimclone verify`: every sector with d <= 3, N <= 3 and
# at most 2 input photons gets 4 ladder checks; each evolution draw gets 2.
VERIFY_SECTORS = sum(math.comb(m + d - 1, d - 1)
                     for d in range(2, 4) for _ in range(1, 4) for m in range(3))
LADDER_CHECKS_PER_SECTOR = 4
EVOLUTION_CHECKS_PER_DRAW = 2


def f_single(M: int, L: int, d: int) -> Fraction:
    """Optimal one-copy fidelity (M(L+d) + L - M) / (L(M+d))."""
    return Fraction(M * (L + d) + L - M, L * (M + d))


def f_global(M: int, L: int, d: int) -> Fraction:
    """Optimal L-copy fidelity L!(M+d-1)! / (M!(L+d-1)!)."""
    return Fraction(math.factorial(L) * math.factorial(M + d - 1),
                    math.factorial(M) * math.factorial(L + d - 1))


def shrinking(M: int, L: int, d: int) -> Fraction:
    """Shrinking factor eta = M(L+d) / (L(M+d)) of the one-copy marginal."""
    return Fraction(M * (L + d), L * (M + d))


def one_body(vectors, matrix: np.ndarray, d: int, m: int) -> np.ndarray:
    """One-copy marginal of a symmetric-sector density.

    Embeds the occupation basis in the m-fold tensor product, where |n> is
    the normalized sum of all words with occupation n, and traces out all
    copies but the first.  This is a different route from the program's
    transition-operator reduction.
    """
    column = {tuple(v): i for i, v in enumerate(vectors)}
    iso = np.zeros((d**m, len(column)))
    for row, word in enumerate(itertools.product(range(d), repeat=m)):
        counts = tuple(word.count(i) for i in range(d))
        words = math.factorial(m) // math.prod(math.factorial(c) for c in counts)
        iso[row, column[counts]] = 1.0 / math.sqrt(words)
    full = (iso @ matrix @ iso.T).reshape(d, d ** (m - 1), d, d ** (m - 1))
    return np.einsum("iaja->ij", full)


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text)))


def parse(job: dict, output):
    """Parsed form of a job's output; CLI jobs return their stdout text."""
    kind = job["kind"]
    if kind == "mixed":
        return output
    argv = job["argv"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    if kind == "fidelity":
        return [{k: float(v) for k, v in row.items()} for row in _rows(output, fmt)]
    if kind == "evolve":
        return [(int(row["l"]), float(row["probability"])) for row in _rows(output, fmt)]
    if kind == "verify":
        return json.loads(output)
    if kind == "clone":
        if fmt == "json":
            obj = json.loads(output)
            amps = [complex(e["real"], e["imag"]) for e in obj["amplitudes"]]
            trace = sum(complex(*row[i]) for i, row in enumerate(obj["reduced"]))
            return {"amps": amps, "trace": trace, "fidelity": obj["fidelity"]}
        amps, diag, fidelity = [], [], None
        for row in csv.DictReader(io.StringIO(output)):
            if row["record"] == "amplitude":
                amps.append(complex(float(row["real"]), float(row["imag"])))
            elif row["record"] == "reduced" and row["row"] == row["col"]:
                diag.append(complex(float(row["real"]), float(row["imag"])))
            elif row["record"] == "fidelity":
                fidelity = None if row["real"] == "" else float(row["real"])
        return {"amps": amps, "trace": sum(diag) if diag else None, "fidelity": fidelity}
    raise ValueError(f"unknown job kind {kind!r}")


def _dev_fidelity(job, rows) -> float:
    d, m, l_max = job["d"], job["m"], job["l_max"]
    if [int(r["L"]) for r in rows] != list(range(m, l_max + 1)):
        return math.inf
    if any(int(r["d"]) != d or int(r["M"]) != m for r in rows):
        return math.inf
    dev = 0.0
    for r in rows:
        L = int(r["L"])
        fs, fg = float(f_single(m, L, d)), float(f_global(m, L, d))
        dev = max(dev, abs(r["f_single_simulated"] - fs), abs(r["f_single_closed"] - fs),
                  abs(r["f_global_simulated"] - fg), abs(r["f_global_closed"] - fg))
    return dev


def _dev_clone(job, out) -> float:
    # Every clone job has L >= 1 output copies, so the reduced density is present.
    dev = max(abs(sum(abs(a) ** 2 for a in out["amps"]) - 1.0), abs(out["trace"] - 1.0))
    L = job["m"] + job["l"]
    if job["has_reference"]:
        if out["fidelity"] is None:
            return math.inf
        dev = max(dev, abs(out["fidelity"] - float(f_single(job["m"], L, job["d"]))))
    elif out["fidelity"] is not None:
        return math.inf
    return dev


def _dev_evolve(job, rows) -> float:
    if [l for l, _ in rows] != list(range(job["n"] + 1)):
        return math.inf
    probs = [p for _, p in rows]
    return max(abs(math.fsum(probs) - 1.0), max(0.0, -min(probs)))


def _dev_verify(job, report) -> float:
    checks = report["checks"]
    expected = (LADDER_CHECKS_PER_SECTOR * VERIFY_SECTORS
                + EVOLUTION_CHECKS_PER_DRAW * job["samples"])
    if report["pass"] is not True or len(checks) != expected:
        return math.inf
    if not all(c["pass"] is True for c in checks):
        return math.inf
    return max(c["max_deviation"] for c in checks)


def _dev_mixed(job, out) -> float:
    d, m, l = job["d"], job["m"], job["l"]
    eta = shrinking(m, m + l, d)
    expected = float(eta) * one_body(out["vectors"], job["matrix"], d, m) \
        + float(1 - eta) * np.eye(d) / d
    return max(float(np.max(np.abs(out["rho_out_1"] - expected))),
               abs(out["eta"] - float(eta)), out["residual"],
               0.0 if out["isotropic"] else math.inf)


_DEVIATIONS = {"fidelity": _dev_fidelity, "clone": _dev_clone, "evolve": _dev_evolve,
               "verify": _dev_verify, "mixed": _dev_mixed}


def deviation(job: dict, parsed) -> float:
    """Worst absolute deviation of a parsed output from its reference."""
    try:
        return float(_DEVIATIONS[job["kind"]](job, parsed))
    except (KeyError, TypeError, ValueError, IndexError):
        return math.inf


def shifted(job: dict, parsed):
    """Copy of a parsed output with one number moved by SHIFT."""
    out = copy.deepcopy(parsed)
    kind = job["kind"]
    if kind == "fidelity":
        out[0]["f_single_simulated"] += SHIFT
    elif kind == "evolve":
        out[0] = (out[0][0], out[0][1] + SHIFT)
    elif kind == "verify":
        out["checks"][0]["max_deviation"] += SHIFT
    elif kind == "clone":
        amps = out["amps"]
        i = max(range(len(amps)), key=lambda k: abs(amps[k]))
        amps[i] += SHIFT * amps[i] / abs(amps[i])
    elif kind == "mixed":
        out["rho_out_1"][0, 0] += SHIFT
    return out
