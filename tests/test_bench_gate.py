"""The bench regression gate: one bound format, one loop.

``benchmarks/check_regression.py`` reads a list of bounds
``{suite, benchmark, metric, op, value | ref}`` from
``benchmarks/baseline.json`` and checks them against ``repro-bench/2``
reports.  These tests pin each operator's boundary, the missing-row rule,
and that a single doctored row of every suite's report fails with a message
naming the suite, benchmark and metric.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.__main__ import main as repro_main
from repro.bench import (BENCH_SCHEMA, SUITES, bench_report, dump_report,
                         metric_rows, verdict, verdict_failed)
from repro.core.config import CheckConfig
from repro.core.session import Session

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "baseline.json"

_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def row(suite, benchmark, metric, value):
    return {"suite": suite, "benchmark": benchmark, "metric": metric,
            "value": value}


def bound(op, value=None, ref=None, metric="m"):
    out = {"suite": "s", "benchmark": "b", "metric": metric, "op": op}
    out.update({"ref": ref} if ref is not None else {"value": value})
    return out


def report(*rows, suite="s"):
    return bench_report(suite, list(rows))


@pytest.mark.parametrize("op, passing, failing", [
    ("==", 5, 6), ("<=", 5, 6), (">=", 5, 4), ("<", 4, 5)])
def test_each_op_boundary(op, passing, failing):
    assert gate.check([bound(op, 5)], [report(row("s", "b", "m", passing))]) \
        == []
    [failure] = gate.check([bound(op, 5)],
                           [report(row("s", "b", "m", failing))])
    assert failure == f"s b m = {failing}, bound {op} 5"


def test_ref_bound_reads_the_other_metric_of_the_row_group():
    bounds = [bound("<", ref="cold")]
    ok = report(row("s", "b", "m", 9), row("s", "b", "cold", 10))
    assert gate.check(bounds, [ok]) == []
    bad = report(row("s", "b", "m", 10), row("s", "b", "cold", 10))
    assert gate.check(bounds, [bad]) == ["s b m = 10, bound < cold (10)"]
    # the same metric of another benchmark is not the row group
    other = report(row("s", "b", "m", 9), row("s", "c", "cold", 10))
    [failure] = gate.check(bounds, [other])
    assert "'cold' missing" in failure


def test_missing_row_fails_and_unreported_suite_is_skipped():
    [failure] = gate.check([bound("==", 0)], [report()])
    assert failure.startswith("s b m: row 'm' missing")
    assert gate.check([bound("==", 0)], [report(suite="other")]) == []


def test_wrong_schema_and_unknown_op_fail():
    stale = {"schema": "repro-bench-store/1", "suite": "s", "rows": []}
    assert any("schema" in f for f in gate.check([], [stale]))
    [failure] = gate.check([bound("!=", 0)], [report(row("s", "b", "m", 1))])
    assert "unknown op" in failure


def test_baseline_loads_with_known_ops_for_every_suite():
    bounds = json.loads(BASELINE.read_text())
    assert isinstance(bounds, list) and bounds
    for entry in bounds:
        assert entry["op"] in gate.OPS, entry
        assert ("value" in entry) != ("ref" in entry), entry
        assert entry["suite"] in SUITES, entry
    assert {entry["suite"] for entry in bounds} == set(SUITES)


def _passing_reports(bounds):
    """One report per suite whose rows satisfy every bound."""
    values = {}
    for entry in bounds:
        if "value" not in entry:
            continue
        key = (entry["suite"], entry["benchmark"], entry["metric"])
        limit = entry["value"]
        chosen = limit - 1 if entry["op"] == "<" else limit
        if entry["op"] in ("<", "<=") and key in values:
            chosen = min(chosen, values[key])
        values[key] = chosen
    for entry in bounds:
        if "ref" in entry:
            ref = (entry["suite"], entry["benchmark"], entry["ref"])
            key = (entry["suite"], entry["benchmark"], entry["metric"])
            values.setdefault(ref, 10 ** 6)
            values.setdefault(key, values[ref] - 1)
    reports = {suite: report(suite=suite) for suite in SUITES}
    for (suite, benchmark, metric), value in values.items():
        reports[suite]["rows"].append(row(suite, benchmark, metric, value))
    return reports


def _violate(entry, reports):
    """Doctor the row ``entry`` bounds so that it fails."""
    rows = reports[entry["suite"]]["rows"]
    by_metric = {(r["benchmark"], r["metric"]): r for r in rows}
    target = by_metric[entry["benchmark"], entry["metric"]]
    if "ref" in entry:
        target["value"] = by_metric[entry["benchmark"], entry["ref"]]["value"]
    else:
        step = -1 if entry["op"] == ">=" else 1
        target["value"] = entry["value"] + (0 if entry["op"] == "<" else step)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_one_doctored_row_fails_each_suite(suite):
    bounds = json.loads(BASELINE.read_text())
    reports = _passing_reports(bounds)
    assert reports[suite]["schema"] == BENCH_SCHEMA
    assert gate.check(bounds, list(reports.values())) == []
    for entry in (e for e in bounds if e["suite"] == suite):
        doctored = _passing_reports(bounds)
        _violate(entry, doctored)
        failures = gate.check(bounds, list(doctored.values()))
        assert failures, entry
        assert any(f.startswith(f"{suite} {entry['benchmark']} "
                                f"{entry['metric']} = ") for f in failures)


def test_cli_takes_positional_files_only(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps([bound("==", 0)]))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(report(row("s", "b", "m", 0))))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report(row("s", "b", "m", 1))))
    assert gate.main([str(baseline), str(good)]) == 0
    assert gate.main([str(baseline), str(bad)]) == 1
    assert "s b m = 1, bound == 0" in capsys.readouterr().err
    assert gate.main([str(baseline)]) == 2
    assert gate.main([str(baseline), str(good), "--threshold", "0.5"]) == 2


# -- the row schema every suite emits ----------------------------------------


def test_metric_rows_flatten_nested_keys_and_booleans():
    rows = metric_rows("store", "splay", {
        "warm": {"queries": 0, "sat_calls": 0}, "identical": True,
        "kind": "file", "error": None})
    assert [(r["metric"], r["value"]) for r in rows] == [
        ("warm.queries", 0), ("warm.sat_calls", 0), ("identical", 1)]
    assert all(r["suite"] == "store" and r["benchmark"] == "splay"
               for r in rows)
    envelope = bench_report("store", rows)
    assert json.loads(dump_report(envelope)) == envelope


def test_exit_rule_reads_verdict_metrics_only():
    assert not verdict_failed(metric_rows("serve", "all", {
        "cancelled": 0, "safe": True, "identical": True}))
    assert verdict_failed(metric_rows("cache", "all", {
        "fault": {"identical": False}}))
    assert verdict_failed(metric_rows("speed", "splay", {
        "jobs_identical": False}))


UNSAFE = """
spec get :: (a: number[], i: number) => number;
function get(a, i) { return a[i]; }
"""


def test_verdict_agrees_across_result_batch_and_worker_json(tmp_path,
                                                           capsys):
    path = tmp_path / "bad.rsc"
    path.write_text(UNSAFE)
    result = Session(CheckConfig()).check_source(UNSAFE, filename=str(path))
    batch = Session(CheckConfig()).check_files([str(path)])
    assert repro_main(["check", "--format", "json", str(path)]) == 1
    worker = json.loads(capsys.readouterr().out)
    assert verdict(result) == verdict(batch) == verdict(worker)
    [[diagnostics, _kappas]] = verdict(result)
    assert diagnostics and diagnostics[0]["code"] == "RSC-BND-001"
