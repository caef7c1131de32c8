"""stimclone benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a stimclone checkout.  Every round is a fresh child
interpreter (perfbench/child.py) that imports `stimclone.cli`, runs one
smallest warm-up job of each job kind, then runs the workload's fixed job
list once, drawn from --seed, and checks every output against the
benchmark's own references.  Rounds repeat until --seconds have passed.
The last line of standard output is one JSON object; the lines before it
give every metric by name and unit, the sample counts and a machine stamp.

--trace 0 reports the end-to-end metrics: set-up time, the median time of
the job list, peak RSS and the per-job latency percentiles.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics;
the tracing overhead is the traced median over the untraced one, minus 1.
See perfbench/README.md for why the workloads were chosen and which metric
each layer should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import SHIFT
from tracer import GAUGES, import_split, metric_units
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MIN_SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# Rounds of at least this many jobs report per-job latency percentiles that
# leave at least 10 samples beyond p90.
LATENCY_MIN_JOBS = 100
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "job_p50_s": "s", "job_p90_s": "s"}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts child interpreters for one workload of one checkout."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        # Write no bytecode anywhere: existing caches are read, stimclone is compiled
        # from source in every child, the same way on every commit.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def child(self, mode: str) -> dict:
        script = str(BENCH_DIR / "child.py")
        spawn = time.monotonic()
        argv = [sys.executable, script, str(self.root), self.workload, str(self.seed), mode,
                repr(spawn)]
        proc = self._run(argv)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchmarkError(f"{mode} child exited {proc.returncode} without a result:\n"
                                 f"{proc.stderr[-2000:]}") from None
        result["elapsed_s"] = time.monotonic() - spawn
        return result

    def import_split(self) -> dict:
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import stimclone.cli"])
        if proc.returncode != 0:
            raise BenchmarkError(f"importing stimclone.cli failed:\n{proc.stderr[-2000:]}")
        return import_split(proc.stderr)

    def _run(self, argv) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"child timed out after {CHILD_TIMEOUT_S} s") from None


def rounds_until(deadline: float, runner: Runner, modes, minimum: int) -> dict:
    """Run child rounds, cycling through `modes`, until the next would pass `deadline`."""
    results = {mode: [] for mode in modes}
    elapsed = []
    while True:
        for mode in modes:
            result = runner.child(mode)
            results[mode].append(result)
            elapsed.append(result["elapsed_s"])
        enough = all(len(r) >= minimum for r in results.values())
        if enough and time.monotonic() + len(modes) * statistics.mean(elapsed) > deadline:
            return results


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(runner: Runner, seconds: int):
    deadline = time.monotonic() + seconds
    rounds = rounds_until(deadline, runner, ("round",), MIN_ROUNDS)["round"]
    setups = [r["setup_s"] for r in rounds]
    extra = [runner.child("setup") for _ in range(MIN_SETUP_SAMPLES - len(setups))]
    setups += [r["setup_s"] for r in extra]
    # The median pools the job times of all rounds; on pure_large a single
    # round's median rests on its two clone jobs.  p90 is taken within each
    # round, where it interpolates between the slowest jobs, and the median
    # over rounds is reported, so one disturbed round does not move it.
    job_s = [s for r in rounds for s in r["job_s"]]
    p90s = [statistics.quantiles(r["job_s"], n=10, method="inclusive")[8] for r in rounds]
    metrics = {"setup_s": statistics.median(setups), "wall_s": median_of(rounds, "wall_s"),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds + extra),
               "job_p50_s": statistics.median(job_s), "job_p90_s": statistics.median(p90s)}
    jobs = len(rounds[0]["job_s"])
    beyond = sum(s > p90 for r, p90 in zip(rounds, p90s) for s in r["job_s"]) / len(rounds)
    notes = [f"rounds: {len(rounds)} fresh child interpreters, {jobs} jobs each; "
             f"setup_s is the median of {len(setups)} fresh interpreters; "
             f"wall_s is the median round",
             f"job latency: p50 over the {len(job_s)} job times of all rounds; p90 over "
             f"the {jobs} jobs of each round ({beyond:g} beyond it on average), median "
             f"over {len(rounds)} rounds"]
    if jobs < LATENCY_MIN_JOBS:
        notes.append(f"note: {jobs} jobs per round is below {LATENCY_MIN_JOBS}, so job_p50_s "
                     "and job_p90_s are indicative only on this workload")
    return metrics, END_TO_END_UNITS, rounds + extra, notes


def per_layer(runner: Runner, seconds: int):
    deadline = time.monotonic() + seconds
    results = rounds_until(deadline, runner, ("round", "traced"), MIN_TRACED_ROUNDS)
    plain, traced = results["round"], results["traced"]
    units = metric_units()
    metrics = dict.fromkeys(units, 0.0)
    absent_functions = set().union(*(r["trace"]["absent"] for r in traced))
    absent = set()
    for name in units:
        layer_fn, _, field = name.rpartition(".")
        values = []
        for r in traced:
            trace = r["trace"]
            if field in ("calls", "self_s"):
                values.append(trace[field].get(layer_fn, 0))
            elif name in trace["gauges"]:
                values.append(trace["gauges"][name])
        if values:
            metrics[name] = statistics.median(values)
        sources = [fn for fn, gauge in GAUGES.items() if gauge[0] == name] or [layer_fn]
        if all(fn in absent_functions for fn in sources):
            absent.add(name)
    splits = [runner.import_split() for _ in range(IMPORTTIME_SAMPLES)]
    for key in splits[0]:
        metrics[key] = statistics.median(split[key] for split in splits)
    untraced_wall = median_of(plain, "wall_s")
    traced_wall = median_of(traced, "wall_s")
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["check.max_dev"] = max(r["max_dev"] for r in plain + traced)
    notes = [f"rounds: {len(plain)} untraced, {len(traced)} traced; wall_s untraced "
             f"{untraced_wall:.4f} s, traced {traced_wall:.4f} s",
             f"setup.import.* are medians of {IMPORTTIME_SAMPLES} `python -X importtime` runs",
             "absent (declared function not found, reported as 0): "
             + (", ".join(sorted(absent)) or "none")]
    return metrics, units, plain + traced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "stimclone" / "cli.py").is_file():
        print(f"error: no stimclone sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed)
    try:
        # Fills the page cache; its sample is discarded.
        runner.child("setup")
        measure = per_layer if args.trace else end_to_end
        metrics, units, children, notes = measure(runner, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = [c for c in children if "attempted" in c]
    attempted = sum(c["attempted"] for c in rounds)
    failed = sum(c["failed"] for c in rounds)
    warm_failed = sum(c["warmup_failed"] for c in children)
    controls = {}
    for c in rounds:
        for kind, rejected in c["negative_control"].items():
            controls[kind] = controls.get(kind, True) and rejected
    correct = failed == 0 and warm_failed == 0 and all(controls.values())

    env = children[0]["env"]
    print(f"stimclone benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:<24.10g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} jobs; "
          f"{warm_failed} warm-up failures)")
    print(f"negative control (output shifted by {SHIFT:g} must fail its check): "
          + ", ".join(f"{k} {'rejected' if v else 'ACCEPTED'}" for k, v in sorted(controls.items())))
    for c in rounds:
        for error in c["errors"]:
            print(f"job error: {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
