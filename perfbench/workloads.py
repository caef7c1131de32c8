"""Job lists of the three benchmark workloads, drawn from the workload seed.

A job is a dict with a `kind`.  CLI jobs carry the `argv` handed to
`stimclone.cli.main` plus the parameters their output check needs; `mixed`
jobs carry a density matrix for the library pipeline.  The same seed always
gives the same job list, and the shapes and sizes are fixed per workload so
that the amount of work in a run does not depend on the seed.
"""

from math import comb

import numpy as np

WORKLOADS = ("pure_large", "mixed_scan", "verify_evolve")

# (d, M, L_max) fidelity tables at the large end of the CLI's advertised range.
PURE_TABLES = ((6, 3, 9), (5, 2, 11), (4, 6, 12), (3, 1, 12))
# (d, M, l) of the mixed inputs; each shape repeats MIXED_PER_SHAPE times.
MIXED_SHAPES = ((3, 2, 3), (4, 2, 3), (4, 2, 4), (5, 1, 3), (3, 3, 5))
MIXED_PER_SHAPE = 20
# N of the evolve jobs is stratified over this range, one job per stratum, so
# the summed cost of a job list barely moves with the seed.
EVOLVE_JOBS = 100
EVOLVE_N_RANGE = (30, 1000)
# --samples strata of the verify jobs, one job per stratum.
VERIFY_SAMPLE_STRATA = ((10, 40), (40, 70), (70, 100))


def _cli(kind: str, argv, **params) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], **params}


def _qudit_text(x) -> str:
    parts = []
    for z in map(complex, x):
        sign = "+" if z.imag >= 0 else "-"
        parts.append(f"{z.real!r}{sign}{abs(z.imag)!r}i")
    return ",".join(parts)


def _fidelity(d, m, l_max, seed) -> dict:
    return _cli("fidelity", ["fidelity", "--d", d, "--m", m, "--l-max", l_max, "--seed", seed],
                d=d, m=m, l_max=l_max)


def _clone_x(x, m, l, fmt) -> dict:
    # "--x=" keeps argparse from reading a leading minus sign as an option.
    return _cli("clone", ["clone", f"--x={_qudit_text(x)}", "--m", m, "--l", l, "--format", fmt],
                d=len(x), m=m, l=l, has_reference=True)


def _clone_j(j, l, fmt) -> dict:
    # A basis input has a reference qudit only when every photon sits in one mode.
    total = sum(j)
    return _cli("clone", ["clone", "--j", ",".join(map(str, j)), "--l", l, "--format", fmt],
                d=len(j), m=total, l=l, has_reference=max(j) == total > 0)


def _evolve(d, m, n, tau, fmt) -> dict:
    return _cli("evolve", ["evolve", "--d", d, "--m", m, "--n", n, "--tau", repr(tau),
                           "--format", fmt], d=d, m=m, n=n)


def _verify(seed, samples) -> dict:
    return _cli("verify", ["verify", "--json", "--seed", seed, "--samples", samples],
                samples=samples)


def _random_density(rng, dim: int):
    rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _mixed(d, m, l, matrix) -> dict:
    return {"kind": "mixed", "d": d, "m": m, "l": l, "matrix": matrix}


def build(workload: str, seed: int) -> list[dict]:
    """The fixed job list of one run of `workload`."""
    rng = np.random.default_rng(seed)
    if workload == "pure_large":
        jobs = [_fidelity(d, m, l_max, int(rng.integers(2**31))) for d, m, l_max in PURE_TABLES]
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        jobs.append(_clone_x(x / np.linalg.norm(x), 3, 6, "json"))
        jobs.append(_clone_j(rng.multinomial(3, [1 / 6] * 6).tolist(), 6, "csv"))
        return jobs
    if workload == "mixed_scan":
        jobs = [_mixed(d, m, l, _random_density(rng, comb(m + d - 1, d - 1)))
                for d, m, l in MIXED_SHAPES for _ in range(MIXED_PER_SHAPE)]
        return [jobs[i] for i in rng.permutation(len(jobs))]
    if workload == "verify_evolve":
        lo, hi = EVOLVE_N_RANGE
        edges = np.linspace(lo, hi, EVOLVE_JOBS + 1).astype(int)
        # json output costs more than csv; alternating the format over the N
        # strata keeps the latency percentiles independent of the seed.
        jobs = [_evolve(int(rng.integers(2, 7)), int(rng.integers(0, 7)),
                        int(rng.integers(edges[i], edges[i + 1])),
                        float(rng.uniform(0.0, 3.0)), ("csv", "json")[i % 2])
                for i in range(EVOLVE_JOBS)]
        jobs += [_verify(int(rng.integers(2**31)), int(rng.integers(a, b)))
                 for a, b in VERIFY_SAMPLE_STRATA]
        return [jobs[i] for i in rng.permutation(len(jobs))]
    raise ValueError(f"unknown workload {workload!r}")


def warmups(workload: str) -> list[dict]:
    """One smallest job of each job kind in `workload`, run during set-up."""
    if workload == "pure_large":
        return [_fidelity(2, 1, 1, 1), _clone_x(np.array([1.0, 0.0]), 1, 0, "json"),
                _clone_j([1, 0], 0, "csv")]
    if workload == "mixed_scan":
        return [_mixed(2, 1, 1, np.diag([0.75, 0.25]).astype(complex))]
    if workload == "verify_evolve":
        return [_evolve(2, 0, 1, 0.5, "csv"), _evolve(2, 0, 1, 0.5, "json"), _verify(1, 1)]
    raise ValueError(f"unknown workload {workload!r}")
