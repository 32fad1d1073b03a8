#!/usr/bin/env python
"""Fail CI when a ``repro bench`` report breaks a bound in the baseline.

Usage::

    python benchmarks/check_regression.py benchmarks/baseline.json BENCH_*.json

Each report is the ``repro-bench/2`` envelope ``{"schema", "suite",
"rows"}`` that ``python -m repro bench <suite>`` writes; every row is
``{suite, benchmark, metric, value}``.  The baseline is a JSON list of
bounds::

    {"suite": "store", "benchmark": "splay", "metric": "warm.queries",
     "op": "==", "value": 0}
    {"suite": "incremental", "benchmark": "splay", "metric": "body.queries",
     "op": "<", "ref": "cold.queries"}

``op`` is one of ``==``, ``<=``, ``>=``, ``<`` and reads ``row op limit``.
The limit is ``value``, or with ``ref`` the value of another metric of the
same ``(suite, benchmark)`` row group.  Every bound of every suite whose
report is given is checked; suites without a report are skipped.  A bound
fails when it is violated or when its row (or its ``ref`` row) is missing
from the report.

Limits are stored as the numbers they allow, not as measurements plus a
tolerance.  To refresh a bound after an intentional change, run the bench,
read the new value from its report, and write the new limit in (the
existing count bounds allow ``max(1.25 x value, value + 5)``).
"""

from __future__ import annotations

import json
import operator
import sys
from typing import Dict, List, Tuple

SCHEMA = "repro-bench/2"

OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
       "<": operator.lt}


def check(bounds: List[dict], reports: List[dict]) -> List[str]:
    """One failure message per violated or unmatched bound."""
    failures: List[str] = []
    values: Dict[Tuple[str, str, str], float] = {}
    for report in reports:
        if report.get("schema") != SCHEMA:
            failures.append(f"{report.get('suite')}: report schema is "
                            f"{report.get('schema')!r}, expected {SCHEMA!r}")
            continue
        for row in report["rows"]:
            values[row["suite"], row["benchmark"], row["metric"]] = \
                row["value"]
    suites = {report.get("suite") for report in reports}
    for bound in bounds:
        suite, benchmark, metric = (bound["suite"], bound["benchmark"],
                                    bound["metric"])
        if suite not in suites:
            continue
        where = f"{suite} {benchmark} {metric}"
        op = bound.get("op")
        if op not in OPS:
            failures.append(f"{where}: unknown op {op!r}")
            continue
        if "ref" in bound:
            limit = values.get((suite, benchmark, bound["ref"]))
            shown = bound["ref"] if limit is None else \
                f"{bound['ref']} ({limit})"
        else:
            limit = bound["value"]
            shown = f"{limit}"
        value = values.get((suite, benchmark, metric))
        if value is None or limit is None:
            missing = metric if value is None else bound["ref"]
            failures.append(f"{where}: row {missing!r} missing from the "
                            f"report (bound {op} {shown})")
        elif not OPS[op](value, limit):
            failures.append(f"{where} = {value}, bound {op} {shown}")
    return failures


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or any(path.startswith("-") for path in paths):
        print("usage: check_regression.py BASELINE.json REPORT.json...",
              file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        bounds = json.load(f)
    reports = []
    for path in paths[1:]:
        with open(path) as f:
            reports.append(json.load(f))
    failures = check(bounds, reports)
    if failures:
        print(f"benchmark regression(s) against {paths[0]}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    suites = sorted({report["suite"] for report in reports})
    checked = sum(1 for bound in bounds if bound["suite"] in suites)
    print(f"no regressions: {checked} bound(s) over {', '.join(suites)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
