"""Checks of the benchmark itself (not run by the benchmark command).

1. Determinism: two traced runs with one seed must give identical per-layer
   counts and ratios, verdicts and kappa solutions, on every workload.
2. Sensitivity: a run judged against one deliberately wrong expected answer
   must report ``correct: false``.

Run from the root of a checkout::

    python3 rscbench/selfcheck.py [--seed 7] [--workload cold_safe ...]

Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUN = HERE / "run.py"
FLIPPED = "splay.findMax.guard"


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, cwd=HERE.parent,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_dump(workload: str, seed: int, tag: str) -> dict:
    path = HERE / f".selfcheck-{tag}.json"
    try:
        run("--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "1", "--dump", str(path))
        return json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)


def diff(a, b, where: str = "") -> list:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out += diff(a.get(key), b.get(key), f"{where}.{key}")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += diff(x, y, f"{where}[{i}]")
        return out
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        help="workloads to check (default: all)")
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    ok = True
    for workload in workloads:
        first = traced_dump(workload, args.seed, "a")
        second = traced_dump(workload, args.seed, "b")
        problems = diff(first, second)
        ok = ok and not problems
        print(f"determinism {workload}: "
              f"{'identical' if not problems else 'DIFFERENT'} "
              f"({len(first['counts'])} counts and ratios, "
              f"{len(first['verdicts'])} verdicts)")
        for line in problems[:20]:
            print("   ", line)
    result = run("--workload", "cold_unsafe", "--seed", str(args.seed),
                 "--seconds", "1", "--flip-expected", FLIPPED)
    flipped_ok = result["correct"] is False and result["failed"] >= 1
    ok = ok and flipped_ok
    print(f"flipped answer for {FLIPPED}: correct={result['correct']} "
          f"failed={result['failed']} -> "
          f"{'detected' if flipped_ok else 'NOT DETECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
