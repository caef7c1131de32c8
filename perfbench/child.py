"""One benchmark round in a fresh interpreter.

    python3 child.py ROOT WORKLOAD SEED MODE SPAWN_TIME

MODE is `setup` (set up and stop), `round` (set up, run the job list once
and check every output) or `traced` (the same, with per-layer tracing on
after set-up).  SPAWN_TIME is the parent's `time.monotonic()` just before
it started this process, so set-up time covers interpreter start-up, the
import of `stimclone.cli` and one smallest warm-up job of each job kind.
The result is one JSON object on the last line of standard output.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import checks
import workloads
from tracer import Tracer


def run_cli(job: dict, tracer) -> str:
    from stimclone import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    text = out.getvalue()
    if tracer is not None:
        tracer.gauge("cli.out_bytes", sum, len(text.encode()))
    return text


def run_mixed(job: dict, tracer) -> dict:
    from stimclone import cloner, fock, reduction

    basis = fock.enumerate_sector(job["d"], job["m"])
    rho = cloner.SymmetricDensity(basis, job["matrix"])
    rho_l = reduction.trace_out_b(cloner.clone_mixed(rho, job["l"]))
    rho_out_1 = reduction.reduce_to_single(rho_l)
    fit = reduction.shrinking_factor(reduction.reduce_to_single(rho), rho_out_1)
    return {"vectors": list(basis), "rho_out_1": rho_out_1.matrix, "eta": fit.eta,
            "residual": fit.residual, "isotropic": fit.isotropic}


def run(job: dict, tracer=None):
    """Run one job; returns (seconds, output, error text or None)."""
    runner = run_mixed if job["kind"] == "mixed" else run_cli
    start = time.perf_counter()
    try:
        output = runner(job, tracer)
    except Exception as exc:  # a failing job is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, None


def check(job: dict, output):
    """(deviation, parsed output), or (inf, None) if the output does not parse."""
    try:
        parsed = checks.parse(job, output)
    except (KeyError, TypeError, ValueError, IndexError):
        return float("inf"), None
    return checks.deviation(job, parsed), parsed


def main(root: str, workload: str, seed: str, mode: str, spawn_time: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    import stimclone.cli  # noqa: F401  (part of the set-up under measurement)

    warm_failures = 0
    for job in workloads.warmups(workload):
        _, output, error = run(job)
        warm_failures += error is not None or check(job, output)[0] > checks.TOL
    setup_s = time.monotonic() - float(spawn_time)
    result = {"setup_s": setup_s, "warmup_failed": warm_failures}

    if mode != "setup":
        jobs = workloads.build(workload, int(seed))
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install()
        outputs, job_s, errors = [], [], []
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            seconds, output, error = run(job, tracer)
            job_s.append(seconds)
            outputs.append(output)
            errors.append(error)

        failed, max_dev, rejected = 0, 0.0, {}
        for job, output, error in zip(jobs, outputs, errors):
            deviation, parsed = (float("inf"), None) if error else check(job, output)
            failed += not deviation <= checks.TOL
            if deviation != float("inf"):
                max_dev = max(max_dev, deviation)
            # Negative control: the first parsed output of each job kind, shifted
            # by checks.SHIFT, must fail its check.
            if parsed is not None and job["kind"] not in rejected:
                shifted = checks.shifted(job, parsed)
                rejected[job["kind"]] = not checks.deviation(job, shifted) <= checks.TOL
        result.update(wall_s=sum(job_s), job_s=job_s, attempted=len(jobs), failed=failed,
                      errors=sorted({e for e in errors if e})[:5], max_dev=max_dev,
                      negative_control=rejected)
        if tracer is not None:
            result["trace"] = tracer.summary()
            spans_dir = os.path.join(root, ".bench_build", "perfbench")
            os.makedirs(spans_dir, exist_ok=True)
            with open(os.path.join(spans_dir, f"spans_{workload}.json"), "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job"],
                           "spans": tracer.spans}, fh)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))


def environment() -> dict:
    """Machine and library stamp, so results from different machines are not compared."""
    import ctypes
    import importlib.metadata
    import numpy

    blas_threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
            "blas_threads": blas_threads}


if __name__ == "__main__":
    main(*sys.argv[1:6])
