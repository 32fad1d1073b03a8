"""The repository benchmark: cold SAFE checks, cold UNSAFE mutants and a
multi-tenant edit session, timed end to end and layer by layer.

Run from the root of a checkout::

    python3 rscbench/run.py --workload cold_safe --seed 1 --seconds 30 --trace 0

The checker is imported from ``src/`` of the same checkout and driven
in-process, one process, no extra threads.  The seed only shapes the
inputs (the order of the checks, the mutants and the editor stream); every
answer is judged against the hand-written ``expected.json``.

``--trace 0`` replays passes of the workload until ``--seconds`` have gone
by and reports the end-to-end metrics.  ``--trace 1`` runs one pass with
the layer wrappers of :mod:`layers` installed and one without, and reports
the per-layer metrics of the traced pass plus the tracing overhead (traced
minus untraced pass time).  The traced pass does a fixed amount of work, so
two traced runs with one seed give identical counts, verdicts and kappa
solutions (``--dump`` writes them; ``selfcheck.py`` compares two dumps).

The human-readable report goes to stderr; the last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import time

from workloads import CLOCK, EXPECTED, WORK, WORKLOADS, run_op_safely

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: setup is repeated this often per run and its median reported
SETUP_REPEATS = 101


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (the benchmark computes its metrics with its
    own code, never with the program's)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - math.ceil(pct / 100.0 * count)


def measure_setup(factory, seed: int) -> float:
    """Median time to build the workload's inputs and its cold state."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = CLOCK()
        workload = factory(seed)
        workload.start_pass()
        times.append(CLOCK() - start)
        workload.end_pass()
    return statistics.median(times)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, key: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append((key, problem))


def run_pass(workload, tally: Tally, stop=lambda: False):
    """One pass from a cold state, cut short once ``stop()`` holds;
    returns [(index, seconds, verdict)]."""
    workload.start_pass()
    samples = []
    try:
        for index in range(len(workload.ops)):
            if stop():
                break
            seconds, problem, verdict = run_op_safely(workload, index)
            tally.add(workload.key(index), problem)
            samples.append((index, seconds, verdict))
    finally:
        workload.end_pass()
    return samples


def untraced(workload, seconds: float, tally: Tally) -> dict:
    """Replay passes until ``seconds`` (wall clock) are used and every
    operation ran at least once; end-to-end metrics."""
    per_op: dict = {}
    start = time.perf_counter()

    def done() -> bool:
        return (time.perf_counter() - start >= seconds
                and len(per_op) == len(workload.ops))

    passes = 0
    while not done():
        passes += 1
        for index, sec, _ in run_pass(workload, tally, done):
            per_op.setdefault(index, []).append(sec)
    medians = {i: statistics.median(v) for i, v in per_op.items()}
    latencies = [m for i, m in medians.items() if workload.counts_latency(i)]
    if beyond(len(latencies), 90) < workload.tail_samples:
        raise ValueError(f"{workload.name}: {len(latencies)} operations "
                         f"are too few for a p90")
    log(f"{workload.name}: {passes} pass(es) in "
        f"{time.perf_counter() - start:.1f}s wall, "
        f"{tally.attempted} ops, {len(latencies)} latency samples "
        f"(per-operation medians; {beyond(len(latencies), 90)} beyond p90)")
    return {
        "pass_cpu_s": sum(medians.values()),
        "latency_cpu_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_cpu_p90_ms": percentile(latencies, 90) * 1000.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, tally: Tally, dump, input_rows) -> dict:
    """One traced and one untraced pass over identical operations."""
    from layers import Recorder, cross_check, install, per_layer
    from repro.logic.terms import intern_stats

    rec = Recorder()
    before = intern_stats()
    install(rec)
    try:
        start = CLOCK()
        samples = run_pass(workload, tally)
        traced_cpu = CLOCK() - start
    finally:
        rec.uninstall()
    metrics = per_layer(rec, before, intern_stats())
    start = CLOCK()
    run_pass(workload, tally)
    plain_cpu = CLOCK() - start

    for name in input_rows:
        metrics[name] = (0.0, "s")
    if workload.name == "cold_safe":
        for index, seconds, _ in samples:
            metrics[f"input.{input_row(workload.ops[index])}.check_s"] = (
                seconds, "s")
    metrics["trace.cpu_s"] = (traced_cpu, "s")
    metrics["trace.untraced_cpu_s"] = (plain_cpu, "s")
    metrics["trace.overhead_s"] = (traced_cpu - plain_cpu, "s")

    log("per-layer metrics (traced pass):")
    for name, (value, unit) in metrics.items():
        log(f"  {name:40s} {value:14.6g} {unit}")
    log(f"tracing overhead: traced {traced_cpu:.3f}s - untraced "
        f"{plain_cpu:.3f}s = {traced_cpu - plain_cpu:+.3f}s CPU")
    log("counter cross-check (program's own count vs count from outside):")
    for what, mine, outside, agree in cross_check(rec):
        log(f"  {'ok  ' if agree else 'DIFF'} {what}: {mine} vs {outside}")
    if dump is not None:
        dump.write_text(json.dumps({
            "workload": workload.name, "seed": workload.seed,
            "counts": {k: v for k, (v, unit) in metrics.items()
                       if unit != "s"},
            "verdicts": [v for _, _, v in samples],
        }, indent=1, sort_keys=True))
    return {name: value for name, (value, _) in metrics.items()}


def input_row(item) -> str:
    return f"project-{item.key}" if item.kind == "project" else item.key


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", type=pathlib.Path,
                        help="write counts and verdicts of the traced pass")
    parser.add_argument("--flip-expected", metavar="MUTANT",
                        choices=sorted(EXPECTED["mutants"]),
                        help="judge against a wrong answer for MUTANT "
                             "(SAFE instead of UNSAFE); the run must then "
                             "report correct=false")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        log(f"cannot import the checker from {ROOT / 'src'}: {exc}")
        return 2
    if args.flip_expected:
        EXPECTED["mutants"][args.flip_expected]["status"] = "SAFE"

    factory = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            rows = [m["name"] for m in benchmark["per_layer"]
                    if m["name"].startswith("input.")]
            metrics = traced(factory(args.seed), tally, args.dump, rows)
        else:
            setup = measure_setup(factory, args.seed)
            metrics = untraced(factory(args.seed), args.seconds, tally)
            metrics["setup_s"] = setup
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for key, problem in tally.problems:
        log(f"FAILED {key}: {problem}")
    units = {m["name"]: m["unit"] for m in
             benchmark["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        log(f"metrics not produced: {sorted(missing)}")
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
