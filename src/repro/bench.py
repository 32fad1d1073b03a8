"""Benchmark support: the paper's evaluation tables and the ``repro bench``
suites.

Figure 6 reports, per benchmark: LOC, the number of trivial (T), mutability
(M) and refinement (R) annotations, and the checking time.  Figure 7 reports
the number of changed lines needed to port each benchmark (ImpDiff/AllDiff).

Our ports are written directly in nanoTS, so the annotation counts are
measured from the sources by the same classification the paper uses:

* **T** — trivial annotations: plain TypeScript-style types (no refinement,
  no mutability qualifier),
* **M** — annotations that carry a mutability qualifier (``immutable``,
  ``IArray``/``Array<IM, _>``, ``@Mutable``-style method annotations),
* **R** — annotations whose type mentions a refinement (``{v: ... | ...}``,
  a refined alias such as ``idx<a>``/``grid<w,h>``, or a ghost ``declare``).

The ImpDiff/AllDiff columns of Figure 7 describe the effort of porting the
original JavaScript to RSC; for our nanoTS ports these were recorded while
the ports were written and are stored in :data:`CODE_CHANGES`.

Every suite in :data:`SUITES` (``figure6``, ``incremental``, ``modules``,
``store``, ``serve``, ``cache``, ``obs``, ``speed``) produces one flat list
of rows ``{suite, benchmark, metric, value}`` (:func:`metric_rows`):
nested measurements flatten to dotted metric names such as
``warm.sat_calls``, booleans become 0/1, and suite-wide numbers sit under
the benchmark :data:`ALL`.  :func:`bench_report` wraps the rows in the
``repro-bench/2`` envelope that ``repro bench`` dumps as
``BENCH_<suite>.json`` and ``benchmarks/check_regression.py`` gates against
the bounds in ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import CheckConfig
from repro.core.session import Session
from repro.core.workspace import Workspace

#: Paper's Figure 6 numbers: benchmark -> (LOC, T, M, R, time seconds)
PAPER_FIGURE6: Dict[str, tuple] = {
    "navier-stokes": (366, 3, 18, 39, 473),
    "splay": (206, 18, 2, 0, 6),
    "richards": (304, 61, 5, 17, 7),
    "raytrace": (576, 68, 14, 2, 15),
    "transducers": (588, 138, 13, 11, 12),
    "d3-arrays": (189, 36, 4, 10, 37),
    "tsc-checker": (293, 10, 48, 12, 62),
}

#: Paper's Figure 7 numbers: benchmark -> (LOC, ImpDiff, AllDiff)
PAPER_FIGURE7: Dict[str, tuple] = {
    "navier-stokes": (366, 79, 160),
    "splay": (206, 58, 64),
    "richards": (304, 52, 108),
    "raytrace": (576, 93, 145),
    "transducers": (588, 170, 418),
    "d3-arrays": (189, 8, 110),
    "tsc-checker": (293, 9, 47),
}

#: Code-change counts recorded while porting the benchmarks to nanoTS
#: (important restructurings vs. all changed lines), mirroring Figure 7.
CODE_CHANGES: Dict[str, tuple] = {
    "navier-stokes": (14, 36),
    "splay": (9, 15),
    "richards": (8, 21),
    "raytrace": (10, 22),
    "transducers": (11, 27),
    "d3-arrays": (3, 14),
    "tsc-checker": (4, 16),
}

BENCHMARKS = list(PAPER_FIGURE6.keys())

_REFINEMENT_MARKERS = re.compile(
    r"\{\s*v\s*:|idx<|grid<|okW|okH|len\(|mask\(|impl\(|flagsT|rgb\b|nat\b|pos\b")
_MUTABILITY_MARKERS = re.compile(
    r"\bimmutable\b|\bIArray\b|\bROArray\b|\bUArray\b|Array<\s*(IM|MU|RO|UQ)")


# ---------------------------------------------------------------------------
# bench rows: one schema for every suite
# ---------------------------------------------------------------------------

#: Schema identifier stamped into every bench report.
BENCH_SCHEMA = "repro-bench/2"

#: Benchmark name of a suite's suite-wide rows (totals, fleet verdicts).
ALL = "all"

#: Metrics (last dotted component) whose 0 means an unsafe or diverging
#: verdict; ``repro bench`` exits 1 if any row of them reads 0.
VERDICT_METRICS = ("safe", "identical", "jobs_identical")


def metric_rows(suite: str, benchmark: str, metrics: dict,
                prefix: str = "") -> List[dict]:
    """Flatten one benchmark's nested measurements into bench rows.

    Nested keys join with dots (``{"warm": {"queries": 0}}`` becomes the
    metric ``warm.queries``), booleans become 0/1, and values that are not
    numbers (module names, error text) are left out."""
    rows: List[dict] = []
    for key, value in metrics.items():
        metric = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(metric_rows(suite, benchmark, value, metric + "."))
        elif isinstance(value, (bool, int, float)):
            rows.append({"suite": suite, "benchmark": benchmark,
                         "metric": metric,
                         "value": int(value) if isinstance(value, bool)
                         else value})
    return rows


def bench_report(suite: str, rows: List[dict]) -> dict:
    """The machine-readable report ``repro bench`` dumps as
    ``BENCH_<suite>.json``."""
    return {"schema": BENCH_SCHEMA, "suite": suite, "rows": rows}


def dump_report(report: dict) -> str:
    """``report`` as JSON text with one row per line (diff-friendly)."""
    rows = ",\n    ".join(json.dumps(row) for row in report["rows"])
    return (f'{{"schema": {json.dumps(report["schema"])}, '
            f'"suite": {json.dumps(report["suite"])}, "rows": [\n'
            f'    {rows}\n]}}\n')


def verdict_failed(rows: List[dict]) -> bool:
    """True iff some verdict metric (:data:`VERDICT_METRICS`) reads 0."""
    return any(row["metric"].rsplit(".", 1)[-1] in VERDICT_METRICS
               and row["value"] == 0 for row in rows)


def pivot(rows: List[dict]) -> Dict[str, Dict[str, float]]:
    """Rows regrouped as ``{benchmark: {metric: value}}``, in row order."""
    table: Dict[str, Dict[str, float]] = {}
    for row in rows:
        table.setdefault(row["benchmark"], {})[row["metric"]] = row["value"]
    return table


def _cell(value) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def format_rows(suite: str, rows: List[dict]) -> str:
    """The text table ``repro bench`` prints for a suite: one line per
    benchmark over the suite's :attr:`Suite.columns`, then the suite-wide
    (:data:`ALL`) metrics one per line."""
    spec = SUITES[suite]
    table = pivot(rows)
    overall = table.pop(ALL, {})
    grid = [["benchmark", *spec.columns]]
    grid += [[name, *(_cell(metrics.get(column))
                      for column in spec.columns)]
             for name, metrics in table.items()]
    widths = [max(len(line[i]) for line in grid)
              for i in range(len(grid[0]))]
    rendered = ["  ".join([line[0].ljust(widths[0])]
                          + [cell.rjust(width) for cell, width
                             in zip(line[1:], widths[1:])])
                for line in grid]
    lines = [spec.title, rendered[0], "-" * len(rendered[0]), *rendered[1:]]
    if overall:
        lines.append("")
        lines += [f"{metric} = {_cell(value)}"
                  for metric, value in overall.items()]
    return "\n".join(lines)


def verdict(outcome) -> list:
    """The byte-comparable verdict of a check, per checked file: its
    diagnostics (code, message, span, severity) and solved kappa
    refinements, JSON-normalised.

    ``outcome`` is a :class:`CheckResult`, anything holding ``.results``
    (a batch or a project build), or the parsed ``repro check --format
    json`` output of a worker process — so verdicts compare across engine
    configurations, stores and processes alike."""
    if isinstance(outcome, dict):
        files = outcome.get("files", [])
    else:
        files = [r.to_dict() for r in getattr(outcome, "results", [outcome])]
    return json.loads(json.dumps(
        [[f.get("diagnostics", []), f.get("kappas", {})] for f in files]))


def _stat(result, name: str) -> int:
    """One solver counter of a check result (0 when it has no stats)."""
    return getattr(result.stats, name, 0)


# ---------------------------------------------------------------------------
# Figure 6 / Figure 7 (`repro bench figure6|figure7`)
# ---------------------------------------------------------------------------


def default_programs_dir() -> pathlib.Path:
    """Locate ``benchmarks/programs`` (env override, cwd, then repo root)."""
    env = os.environ.get("RSC_BENCH_PROGRAMS")
    candidates = [pathlib.Path(env)] if env else []
    candidates.append(pathlib.Path.cwd() / "benchmarks" / "programs")
    candidates.append(pathlib.Path(__file__).resolve().parents[2]
                      / "benchmarks" / "programs")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the benchmark programs directory; set "
        "RSC_BENCH_PROGRAMS or run from the repository root")


def source_of(name: str,
              programs_dir: Optional[pathlib.Path] = None) -> str:
    directory = programs_dir or default_programs_dir()
    return (directory / f"{name}.rsc").read_text()


def count_loc(source: str) -> int:
    """Non-comment, non-blank lines (the paper uses cloc the same way)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def count_annotations(source: str) -> tuple:
    """Classify every annotation site into (trivial, mutability, refinement).

    Annotation sites are: ``spec``/``declare`` signatures, type alias
    definitions, field declarations, and parameter/return annotations on
    class methods."""
    trivial = mutability = refinements = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        is_annotation = (
            stripped.startswith(("spec ", "declare ", "type "))
            or re.match(r"^(immutable\s+|mutable\s+)?\w+\s*:\s*\S+;?\s*$", stripped)
            or re.search(r"\)\s*:\s*\w+", stripped)
        )
        if not is_annotation:
            continue
        has_refinement = bool(_REFINEMENT_MARKERS.search(stripped))
        has_mutability = bool(_MUTABILITY_MARKERS.search(stripped))
        if stripped.startswith("declare ") or has_refinement:
            refinements += 1
        elif has_mutability:
            mutability += 1
        else:
            trivial += 1
    return trivial, mutability, refinements


_SHARED_SESSION: Optional[Session] = None


def shared_session() -> Session:
    """The module-wide session used when no explicit session is passed.

    One long-lived solver across every benchmark is exactly how Figure 6
    runs are amortised."""
    global _SHARED_SESSION
    if _SHARED_SESSION is None:
        _SHARED_SESSION = Session(CheckConfig())
    return _SHARED_SESSION


def check_benchmark(name: str, session: Optional[Session] = None,
                    programs_dir: Optional[pathlib.Path] = None) -> dict:
    """Figure 6 measurements of one port: size, annotation counts, check
    time and the fixpoint's counters (``queries_issued`` is the gated
    fixpoint candidate-query count; ``queries`` counts SMT queries)."""
    source = source_of(name, programs_dir)
    session = session or shared_session()
    result = session.check_source(source, filename=f"{name}.rsc")
    trivial, mut, refs = count_annotations(source)
    solve = result.solve_stats
    return {
        "loc": count_loc(source), "trivial": trivial, "mutability": mut,
        "refinements": refs, "time_seconds": result.time_seconds,
        "errors": len(result.errors), "safe": result.ok,
        "queries": _stat(result, "queries"),
        "queries_issued": solve.queries_issued if solve else 0,
        "rounds": solve.rounds if solve else 0,
        "queries_pruned": solve.queries_pruned if solve else 0,
        "cache_hits": _stat(result, "cache_hits"),
    }


def figure6_rows(names: Optional[List[str]] = None,
                 session: Optional[Session] = None,
                 programs_dir: Optional[pathlib.Path] = None) -> List[dict]:
    """Check every port through one shared session (Figure 6)."""
    session = session or shared_session()
    rows: List[dict] = []
    for name in names or BENCHMARKS:
        rows += metric_rows("figure6", name,
                            check_benchmark(name, session, programs_dir))
    return rows


def format_figure6(rows: List[dict]) -> str:
    lines = ["Benchmark        LOC    T    M    R   Time(s)  Errors  "
             "Queries  Pruned",
             "-" * 74]
    table = pivot(rows)
    for name, row in table.items():
        lines.append(f"{name:15s} {row['loc']:4d} {row['trivial']:4d} "
                     f"{row['mutability']:4d} {row['refinements']:4d} "
                     f"{row['time_seconds']:8.2f} {row['errors']:6d} "
                     f"{row['queries']:8d} {row['queries_pruned']:7d}")
    total = {key: sum(row[key] for row in table.values())
             for key in ("loc", "trivial", "mutability", "refinements",
                         "queries", "queries_pruned")}
    lines.append("-" * 74)
    lines.append(f"{'TOTAL':15s} {total['loc']:4d} {total['trivial']:4d} "
                 f"{total['mutability']:4d} {total['refinements']:4d} "
                 f"{'':8s} {'':6s} {total['queries']:8d} "
                 f"{total['queries_pruned']:7d}")
    return "\n".join(lines)


def format_figure7(names: Optional[List[str]] = None,
                   programs_dir: Optional[pathlib.Path] = None) -> str:
    lines = ["Benchmark        LOC  ImpDiff  AllDiff",
             "-" * 40]
    for name in (names or BENCHMARKS):
        loc = count_loc(source_of(name, programs_dir))
        imp, all_diff = CODE_CHANGES[name]
        lines.append(f"{name:15s} {loc:4d} {imp:8d} {all_diff:8d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# incremental edit replay (`repro bench incremental`)
# ---------------------------------------------------------------------------

#: Function edited by the scripted ``incremental`` scenario, per benchmark.
#: The edit inserts a harmless statement at the top of this function's body,
#: dirtying exactly one declaration while the program keeps verifying.
EDIT_TARGETS: Dict[str, str] = {
    "navier-stokes": "diffuse",
    "splay": "findMax",
    "richards": "runnableCount",
    "raytrace": "closestHit",
    "transducers": "sum",
    "d3-arrays": "min",
    "tsc-checker": "countMembers",
}


def edit_function_body(source: str, name: str, marker: int = 0) -> str:
    """Insert a no-op statement at the start of function ``name``'s body.

    Distinct ``marker`` values produce distinct program texts (and so
    distinct content hashes) that still dirty exactly the same declaration
    — how the serve bench fabricates fresh superseding edits.
    """
    pattern = re.compile(rf"(function\s+{re.escape(name)}\s*\([^)]*\)\s*\{{)")
    edited, count = pattern.subn(rf"\1 var __bench_edit = {marker};",
                                 source, count=1)
    if count != 1:
        raise ValueError(f"cannot find function {name!r} to edit")
    return edited


def scripted_edits(name: str, source: str) -> List[tuple]:
    """The ``(label, text)`` edit sequence the incremental bench replays.

    * ``comment`` — whitespace/comment-only change: the AST is unchanged, so
      every declaration's artifacts must be reused (0 solve queries).
    * ``body`` — one declaration's body changes: only that partition is
      re-solved, warm-started from the previous solution.
    * ``revert`` — back to the original text: served from the per-document
      content-hash artifact cache without running the pipeline at all.
    """
    return [
        ("comment", source + "\n// bench: comment-only edit\n"),
        ("body", edit_function_body(source, EDIT_TARGETS[name])),
        ("revert", source),
    ]


def incremental_rows(names: Optional[List[str]] = None,
                     programs_dir: Optional[pathlib.Path] = None
                     ) -> List[dict]:
    """Replay the scripted edit sequence per benchmark through a workspace.

    Each benchmark gets a fresh :class:`repro.Workspace` (cold solver) so
    the cold-open numbers are comparable across runs; the per-edit metrics
    (``comment.*``, ``body.*``, ``revert.*``) then show what the
    incremental machinery saves inside one editing loop.
    """
    rows: List[dict] = []
    for name in (names or BENCHMARKS):
        source = source_of(name, programs_dir)
        uri = f"{name}.rsc"
        workspace = Workspace(CheckConfig())
        cold = workspace.open(uri, source)
        metrics = {"cold": {"queries": _stat(cold, "queries"),
                            "time_seconds": cold.time_seconds}}
        for label, text in scripted_edits(name, source):
            result = workspace.update(uri, text)
            solve = result.solve_stats
            metrics[label] = {
                "queries": _stat(result, "queries"),
                "time_seconds": result.time_seconds,
                "warm": bool(solve and solve.warm_starts),
                "declarations_rechecked": (solve.declarations_rechecked
                                           if solve else 0),
                "declarations_reused": (solve.declarations_reused
                                        if solve else 0),
                "safe": result.ok,
            }
        metrics["safe"] = all(edit["safe"] for label, edit in metrics.items()
                              if label != "cold")
        rows += metric_rows("incremental", name, metrics)
    return rows


# ---------------------------------------------------------------------------
# module-split benchmarks (`repro bench modules`)
# ---------------------------------------------------------------------------

#: Benchmark ports that exist as multi-module splits under
#: ``benchmarks/modules/<name>/``.
MODULE_BENCHMARKS = ["d3-arrays", "splay"]

#: Body-only edit per module benchmark: (module file, function to edit).
#: Must re-check exactly one module — the edit stops at the module boundary.
MODULE_BODY_EDITS: Dict[str, tuple] = {
    "d3-arrays": ("extrema.rsc", "min"),
    "splay": ("stats.rsc", "findMax"),
}

#: Signature edit per module benchmark: (module file, old line, new line).
#: Rewrites an exported alias to an equivalent-but-different refinement, so
#: the interface fingerprint moves, every transitive dependent re-checks,
#: and the project still verifies.
MODULE_SIG_EDITS: Dict[str, tuple] = {
    "d3-arrays": ("types.rsc",
                  "export type NEArray<T> = {v: T[] | 0 < len(v)};",
                  "export type NEArray<T> = {v: T[] | 1 <= len(v)};"),
    "splay": ("types.rsc",
              "export type nat = {v: number | 0 <= v};",
              "export type nat = {v: number | v >= 0};"),
}


def default_modules_dir() -> pathlib.Path:
    """Locate ``benchmarks/modules`` (env override, cwd, then repo root)."""
    env = os.environ.get("RSC_BENCH_MODULES")
    candidates = [pathlib.Path(env)] if env else []
    candidates.append(pathlib.Path.cwd() / "benchmarks" / "modules")
    candidates.append(pathlib.Path(__file__).resolve().parents[2]
                      / "benchmarks" / "modules")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(
        "cannot locate the module benchmarks directory; set "
        "RSC_BENCH_MODULES or run from the repository root")


def _project_root(name: str,
                  modules_dir: Optional[pathlib.Path]) -> pathlib.Path:
    root = (modules_dir or default_modules_dir()) / name
    if not root.is_dir():
        raise FileNotFoundError(f"no module benchmark at {root}")
    return root


def modules_rows(names: Optional[List[str]] = None,
                 modules_dir: Optional[pathlib.Path] = None
                 ) -> List[dict]:
    """Replay the module-edit scenario per split benchmark.

    For each project: a cold build through a fresh
    :class:`repro.project.ProjectWorkspace`, then a body-only edit of one
    leaf dependency (``body.*``: must re-check exactly that module,
    warm-started) and a signature edit of the shared types module
    (``sig.*``: must re-check its transitive dependents, still verifying).
    """
    from repro.project.workspace import ProjectWorkspace

    rows: List[dict] = []
    for name in (names or MODULE_BENCHMARKS):
        root = _project_root(name, modules_dir)
        workspace = ProjectWorkspace(root=root)
        cold = workspace.check()

        body_file, function = MODULE_BODY_EDITS[name]
        body_path = root / body_file
        edited = edit_function_body(body_path.read_text(), function)
        body = workspace.update(body_path, edited)
        solve = body.results[str(body_path.resolve())].solve_stats

        sig_file, old_line, new_line = MODULE_SIG_EDITS[name]
        sig_path = root / sig_file
        source = sig_path.read_text()
        if old_line not in source:
            raise ValueError(f"{name}: signature-edit anchor not found "
                             f"in {sig_file}")
        sig = workspace.update(sig_path, source.replace(old_line, new_line))
        rows += metric_rows("modules", name, {
            "modules": cold.num_modules,
            "batches": cold.num_batches,
            "cold": {"queries": cold.stats.queries,
                     "time_seconds": cold.time_seconds},
            "body": {"rechecked": len(body.rechecked),
                     "queries": body.queries,
                     "warm": bool(solve and solve.warm_starts)},
            "sig": {"rechecked": len(sig.rechecked), "queries": sig.queries},
            "safe": cold.ok and body.ok and sig.ok and sig.summary_changed,
        })
    return rows


# ---------------------------------------------------------------------------
# persistent-store benchmarks (`repro bench store`)
# ---------------------------------------------------------------------------


def _store_phase(result) -> dict:
    return {"queries": _stat(result, "queries"),
            "sat_calls": _stat(result, "sat_calls"),
            "time_seconds": result.time_seconds}


def store_rows(names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               modules_dir: Optional[pathlib.Path] = None,
               store_dir: Optional[pathlib.Path] = None) -> List[dict]:
    """Run every port cold then store-warm against one persistent store.

    Each benchmark's cold run populates a store (a throwaway temporary
    directory unless ``store_dir`` pins one), then a completely fresh
    session — new solver, new caches, nothing shared but the store —
    re-checks the identical sources; it must issue zero queries and zero
    SAT searches (``warm.*``) with a byte-identical verdict.  The module
    splits of the selected ports (benchmark ``<name>-modules``) go through
    the project build the same way.
    """
    import shutil
    import tempfile
    from repro.project.build import check_project

    names = names or BENCHMARKS
    root = pathlib.Path(store_dir) if store_dir else \
        pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    config = CheckConfig(store_path=str(root))
    runs = [(name, lambda name=name: Session(config).check_source(
                source_of(name, programs_dir), filename=f"{name}.rsc"))
            for name in names]
    runs += [(f"{name}-modules", lambda name=name: check_project(
                 _project_root(name, modules_dir), config=config))
             for name in MODULE_BENCHMARKS if name in names]
    rows: List[dict] = []
    try:
        for name, run in runs:
            cold = run()
            warm = run()
            rows += metric_rows("store", name, {
                "cold": _store_phase(cold),
                "warm": _store_phase(warm),
                "identical": verdict(cold) == verdict(warm),
                "safe": cold.ok and warm.ok,
            })
    finally:
        if store_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    return rows


# ---------------------------------------------------------------------------
# check-service load generator (`repro bench serve`)
# ---------------------------------------------------------------------------

#: Benchmark ports the serve load-generator replays; client ``i`` edits
#: ``SERVE_BENCHMARKS[i % len]`` under its own tenant.
SERVE_BENCHMARKS = ["splay", "d3-arrays", "richards", "transducers"]


@dataclass
class ServeClientResult:
    """What one concurrent editing client observed."""

    tenant: str
    benchmark: str
    requests: int = 0
    checks_ok: int = 0
    cancelled: int = 0
    backpressure: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    identical: bool = False
    safe: bool = False
    error: Optional[str] = None


def _replay_sequentially(uri: str, transcript: List[tuple],
                         config: Optional[CheckConfig] = None) -> bool:
    """Re-run one client's successful edit texts through a fresh sequential
    workspace; True iff every diagnostics list matches byte-for-byte."""
    workspace = Workspace(config or CheckConfig())
    for index, (text, diagnostics) in enumerate(transcript):
        if index == 0:
            result = workspace.open(uri, text)
        else:
            result = workspace.update(uri, text)
        if [d.to_dict() for d in result.diagnostics] != diagnostics:
            return False
    return True


def _run_serve_client(host: str, port: int, name: str, source: str,
                      edit_rate: float, row: ServeClientResult,
                      config: Optional[CheckConfig] = None) -> None:
    """One editing client: cold check, paced scripted edits, then a
    pipelined superseding pair, then a sequential-replay comparison."""
    import time as _time

    from repro.client import Client
    from repro.service.protocol import ProtocolError

    uri = f"{name}.rsc"
    period = 1.0 / edit_rate
    transcript: List[tuple] = []  # (text, diagnostics) of served checks
    safe = True
    try:
        with Client.connect(host, port, tenant=row.tenant,
                            timeout=600) as client:
            def timed(method: str, text: str) -> None:
                nonlocal safe
                row.requests += 1
                start = _time.perf_counter()
                payload = getattr(client, method)(uri, text)
                row.latencies_ms.append(
                    (_time.perf_counter() - start) * 1000.0)
                row.checks_ok += 1
                safe = safe and payload.ok
                transcript.append((text, payload.diagnostics))

            timed("check", source)
            for _label, text in scripted_edits(name, source):
                _time.sleep(period)
                timed("update", text)

            # The superseding pair: two pipelined updates of the same URI.
            # The second obsoletes the first — queued (removed before it
            # starts) or in-flight (cancellation token fired mid-check).
            probe = edit_function_body(source, EDIT_TARGETS[name], marker=1)
            first = client.submit("update", uri=uri, text=probe)
            second = client.submit("update", uri=uri, text=source)
            row.requests += 2
            for request_id, text in ((first, probe), (second, source)):
                response = client.wait(request_id)
                if response.ok:
                    row.checks_ok += 1
                    payload = response.result or {}
                    safe = safe and bool(payload.get("ok"))
                    transcript.append((text, payload.get("diagnostics", [])))
                elif response.error_code == "cancelled":
                    row.cancelled += 1
                elif response.error_code == "backpressure":
                    row.backpressure += 1
                else:
                    raise ProtocolError(response.error_code or "?",
                                        response.error_message or "?")
        row.identical = _replay_sequentially(uri, transcript, config)
        row.safe = safe
    except Exception as exc:  # noqa: BLE001 — one client's failure must
        # surface in the report, not kill the other load threads.
        row.error = f"{type(exc).__name__}: {exc}"
        row.identical = False
        row.safe = False


def serve_rows(clients: int = 4, edit_rate: float = 2.0,
               names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               config: Optional[CheckConfig] = None) -> List[dict]:
    """Load-test the socket server with concurrent editing clients.

    Starts an in-process :class:`repro.service.server.ServerThread`, points
    ``clients`` threads at it (client ``i`` edits ``names[i % len]``, default
    :data:`SERVE_BENCHMARKS`, under its own tenant ``client-i``, replaying
    the scripted edit sequence at ``edit_rate`` edits/second plus one
    pipelined superseding pair), then collects the server's ``stats`` and
    compares every client's served diagnostics against a sequential
    single-client replay.  Per-tenant rows carry latency percentiles and
    ``error`` (1 if the client thread died); the :data:`ALL` row carries
    the run's ``identical``/``safe`` verdicts, ``cancelled`` (queued plus
    in flight), latency percentiles and throughput.
    """
    import threading
    import time as _time

    from repro.client import Client
    from repro.obs.metrics import percentile
    from repro.service.server import ServerThread

    config = config or CheckConfig()
    names = names or SERVE_BENCHMARKS
    results = [ServeClientResult(tenant=f"client-{index}",
                                 benchmark=names[index % len(names)])
               for index in range(clients)]
    sources = {row.benchmark: source_of(row.benchmark, programs_dir)
               for row in results}
    start = _time.perf_counter()
    with ServerThread(config) as server:
        threads = [
            threading.Thread(
                target=_run_serve_client,
                args=(server.host, server.port, row.benchmark,
                      sources[row.benchmark], edit_rate, row, config),
                name=row.tenant)
            for row in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = _time.perf_counter() - start
        with Client.connect(server.host, server.port) as control:
            totals = control.stats().to_json().get("totals", {})
            control.shutdown()
    rows: List[dict] = []
    for row in results:
        if row.error:
            print(f"repro bench serve: {row.tenant} died: {row.error}",
                  file=sys.stderr)
        rows += metric_rows("serve", row.tenant, {
            "requests": row.requests, "checks_ok": row.checks_ok,
            "cancelled": row.cancelled, "backpressure": row.backpressure,
            "p50_ms": percentile(row.latencies_ms, 50.0),
            "p99_ms": percentile(row.latencies_ms, 99.0),
            "identical": row.identical, "safe": row.safe,
            "error": bool(row.error)})
    latencies = [ms for row in results for ms in row.latencies_ms]
    checks_ok = sum(row.checks_ok for row in results)
    return rows + metric_rows("serve", ALL, {
        "clients": clients, "edit_rate": edit_rate, "wall_seconds": wall,
        "checks_ok": checks_ok,
        "cancelled": (int(totals.get("cancelled_queued", 0))
                      + int(totals.get("cancelled_inflight", 0))),
        "p50_ms": percentile(latencies, 50.0),
        "p99_ms": percentile(latencies, 99.0),
        "throughput_cps": checks_ok / wall if wall else 0.0,
        "identical": all(row.identical for row in results),
        "safe": all(row.safe for row in results),
        "server": totals,
    })


# ---------------------------------------------------------------------------
# shared cache fleet (`repro bench cache`)
# ---------------------------------------------------------------------------

#: Fast subset the fault-injection phase replays (the point is exercising
#: the degraded paths, not re-timing the whole suite).
FAULT_BENCHMARKS = ["tsc-checker", "d3-arrays"]


def _run_cache_worker(role: str, paths: List[str], store_url: str,
                      reference: list) -> dict:
    """One fresh ``repro check --format json`` subprocess against the
    shared server; nothing but the store URL connects it to this process.
    Its metrics: queries, SAT searches, time, verdict vs ``reference``,
    the worker's ``store`` counters and ``error`` (1 if it crashed)."""
    import subprocess

    src_dir = str(pathlib.Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_STORE", None)
    # A fleet run under REPRO_TRACE=dir/ pins the parent's trace id on
    # every worker, so their per-pid dumps (and this process's own spans)
    # merge into one trace: `repro trace merge dir/trace-*.json`.
    from repro.obs.trace import current_trace_id
    trace_id = current_trace_id()
    if env.get("REPRO_TRACE") and trace_id and "REPRO_TRACE_ID" not in env:
        env["REPRO_TRACE_ID"] = trace_id
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--format", "json",
         "--store", store_url, *paths],
        capture_output=True, text=True, env=env, timeout=600)
    error = ""
    report: dict = {}
    if proc.returncode not in (0, 1):
        error = (f"worker exited {proc.returncode}: "
                 f"{proc.stderr.strip()[:200]}")
    else:
        try:
            report = json.loads(proc.stdout)
        except ValueError as exc:
            error = f"unparseable worker output: {exc}"
    if error:
        print(f"repro bench cache: {role}: {error}", file=sys.stderr)
    stats = report.get("solver_stats") or {}
    return {
        "queries": int(stats.get("queries", 0)),
        "sat_calls": int(stats.get("sat_calls", 0)),
        "time_seconds": float(report.get("time_seconds", 0.0)),
        "identical": not error and verdict(report) == reference,
        "safe": bool(report.get("ok")),
        "store": report.get("store") or {},
        "error": bool(error),
    }


def _bench_paths(names: List[str],
                 programs_dir: Optional[pathlib.Path]) -> List[str]:
    base = programs_dir or default_programs_dir()
    paths = [str(base / f"{name}.rsc") for name in names]
    for path in paths:
        if not pathlib.Path(path).is_file():
            raise FileNotFoundError(f"no benchmark program at {path}")
    return paths


def _server_stats(port: int) -> dict:
    """Ping the cache server on ``port``, then shut it down."""
    from repro.store.remote import RemoteStoreBackend
    probe = RemoteStoreBackend(f"127.0.0.1:{port}")
    stats = probe.ping()
    probe.shutdown()
    return stats


def cache_rows(workers: int = 3, names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               fault_names: Optional[List[str]] = None) -> List[dict]:
    """Run the shared-cache fleet scenario end to end.

    Phase 1: start a cache server over a throwaway store, run one cold
    worker subprocess (populates the server), then ``workers - 1`` warm
    worker subprocesses concurrently — every one a fresh process whose only
    connection to the others is ``remote://`` pointing at the server.  The
    contract (:data:`ALL` row): every worker's verdict is byte-identical to
    an in-process sequential replay, the warm workers issue zero queries
    and SAT searches (``warm_zero``), and the fleet's SAT total equals the
    one cold worker's (``sat_budget_ok``).

    Phase 2 (fault injection, ``fault.*``): a fresh server configured to
    drop every 3rd, delay every 4th and corrupt every 5th data response
    serves two workers over a fast benchmark subset; their verdicts must
    still match the sequential reference, with the degradation counted.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.store.server import FaultPlan, StoreServerThread

    names = list(names or BENCHMARKS)
    paths = _bench_paths(names, programs_dir)
    reference = verdict(Session(CheckConfig()).check_files(paths))
    fleet: Dict[str, dict] = {}

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with StoreServerThread(root=root) as server:
            url = f"remote://127.0.0.1:{server.port}"
            fleet["cold"] = _run_cache_worker("cold", paths, url, reference)
            warm_roles = [f"warm-{i + 1}" for i in range(max(0, workers - 1))]
            with ThreadPoolExecutor(max_workers=max(1, len(warm_roles))) \
                    as pool:
                futures = {role: pool.submit(_run_cache_worker, role, paths,
                                             url, reference)
                           for role in warm_roles}
                fleet.update((role, f.result()) for role, f in futures.items())
            served = _server_stats(server.port)

        fault_names = [n for n in (fault_names or FAULT_BENCHMARKS)
                       if n in names] or names[:1]
        fault_paths = _bench_paths(fault_names, programs_dir)
        fault_reference = verdict(Session(CheckConfig()).check_files(
            fault_paths))
        plan = FaultPlan(drop_every=3, delay_every=4, corrupt_every=5,
                         delay_seconds=0.02)
        fault_root = tempfile.mkdtemp(prefix="repro-bench-cache-fault-")
        try:
            with StoreServerThread(root=fault_root, faults=plan) as server:
                url = (f"remote://127.0.0.1:{server.port}"
                       "?retries=1&timeout=10")
                faulted = {role: _run_cache_worker(role, fault_paths, url,
                                                   fault_reference)
                           for role in ("fault-cold", "fault-warm")}
                injected = _server_stats(server.port).get("faults") or {}
        finally:
            shutil.rmtree(fault_root, ignore_errors=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    degraded = sum(int(worker["store"].get("backend", {}).get(counter, 0))
                   for worker in faulted.values()
                   for counter in ("remote_errors", "degraded_gets",
                                   "degraded_puts"))
    warm = [worker for role, worker in fleet.items() if role != "cold"]
    rows: List[dict] = []
    for role, worker in {**fleet, **faulted}.items():
        rows += metric_rows("cache", role, worker)
    return rows + metric_rows("cache", ALL, {
        "workers": workers,
        "identical": all(worker["identical"] for worker in fleet.values()),
        "safe": all(worker["safe"] for worker in fleet.values()),
        "warm_zero": bool(warm) and all(
            w["queries"] == 0 and w["sat_calls"] == 0 for w in warm),
        "sat_budget_ok": (sum(w["sat_calls"] for w in fleet.values())
                          == fleet["cold"]["sat_calls"]),
        "totals": {
            "cold_queries": fleet["cold"]["queries"],
            "cold_sat_calls": fleet["cold"]["sat_calls"],
            "fleet_sat_calls": sum(w["sat_calls"] for w in fleet.values()),
            "warm_queries": sum(w["queries"] for w in warm),
            "warm_sat_calls": sum(w["sat_calls"] for w in warm),
        },
        "requests_served": served.get("requests_served", 0),
        "fault": {
            "identical": all(w["identical"] for w in faulted.values()),
            "safe": all(w["safe"] for w in faulted.values()),
            "degraded_ops": degraded,
            "injected_ops": sum(int(injected.get(kind, 0)) for kind in
                                ("dropped", "delayed", "corrupted")),
        },
    })


# ---------------------------------------------------------------------------
# tracing overhead (`repro bench obs`)
# ---------------------------------------------------------------------------

#: Fast subset the overhead measurement replays (the point is the cost of
#: the tracing seams, not re-timing the whole suite).
OBS_BENCHMARKS = ["tsc-checker", "navier-stokes"]

#: No-op span calls timed by the disabled-path microbenchmark.
OBS_NOOP_CALLS = 200_000


def noop_span_cost(calls: int = OBS_NOOP_CALLS) -> dict:
    """Time the disabled fast path: one ``span()`` call, tracer off.

    This is the only cost an untraced check pays per instrumentation seam,
    so ``per_call_ns`` × the span count of a traced run bounds the
    disabled-tracer overhead — the number CI gates below 2%."""
    import time as _time

    from repro.obs.trace import span, tracer
    t = tracer()
    was_enabled = t.enabled
    t.enabled = False
    start = _time.perf_counter()
    for _ in range(calls):
        with span("bench.noop", "bench"):
            pass
    elapsed = _time.perf_counter() - start
    t.enabled = was_enabled
    return {"calls": calls, "seconds": elapsed,
            "per_call_ns": elapsed / calls * 1e9}


def _overhead_pct(on_seconds: float, off_seconds: float) -> float:
    if off_seconds <= 0.0:
        return 0.0
    return (on_seconds - off_seconds) / off_seconds * 100.0


def overhead_rows(measured: Dict[str, dict], noop: dict) -> List[dict]:
    """Bench rows of a tracing-overhead run.

    ``measured`` maps each benchmark to its ``off_seconds``,
    ``on_seconds``, ``events``, ``safe`` and ``identical``.  The gated
    number is the :data:`ALL` row's ``totals.off_overhead_pct``: the no-op
    span cost times the span count of the traced runs, as a fraction of the
    untraced wall-clock — what tracing costs every user who never turns it
    on.  ``on_overhead_pct`` (measured, noisy) is reported, not gated."""
    rows: List[dict] = []
    for name, metrics in measured.items():
        rows += metric_rows("obs", name, {
            **metrics, "on_overhead_pct": _overhead_pct(
                metrics["on_seconds"], metrics["off_seconds"])})
    off_total = sum(m["off_seconds"] for m in measured.values())
    on_total = sum(m["on_seconds"] for m in measured.values())
    events = sum(m["events"] for m in measured.values())
    return rows + metric_rows("obs", ALL, {
        "noop": noop,
        "totals": {
            "off_seconds": off_total,
            "on_seconds": on_total,
            "events": events,
            "off_overhead_pct": (events * noop["per_call_ns"] / 1e9
                                 / off_total * 100.0
                                 if off_total > 0.0 else 0.0),
            "on_overhead_pct": _overhead_pct(on_total, off_total),
        },
        "safe": all(m["safe"] for m in measured.values()),
        "identical": all(m["identical"] for m in measured.values()),
    })


def obs_rows(names: Optional[List[str]] = None,
             programs_dir: Optional[pathlib.Path] = None) -> List[dict]:
    """Check each benchmark twice — tracer off, then on — in fresh
    sessions, asserting byte-identical verdicts."""
    import time as _time

    from repro.obs.trace import tracer
    measured: Dict[str, dict] = {}
    t = tracer()
    for name in (names or OBS_BENCHMARKS):
        source = source_of(name, programs_dir)
        filename = f"{name}.rsc"
        t.reset()
        start = _time.perf_counter()
        off = Session(CheckConfig()).check_source(source, filename=filename)
        off_seconds = _time.perf_counter() - start
        t.enable()
        start = _time.perf_counter()
        on = Session(CheckConfig()).check_source(source, filename=filename)
        on_seconds = _time.perf_counter() - start
        events = len(t.drain()["events"])
        t.reset()
        measured[name] = {"off_seconds": off_seconds,
                          "on_seconds": on_seconds, "events": events,
                          "safe": off.ok and on.ok,
                          "identical": verdict(off) == verdict(on)}
    return overhead_rows(measured, noop_span_cost())


# ---------------------------------------------------------------------------
# raw-speed benchmarks (`repro bench speed`)
# ---------------------------------------------------------------------------

#: Worker counts the speed bench sweeps for the rank-parallel fixpoint
#: identity check (jobs=1 is the fast phase itself).
SPEED_JOBS_SWEEP = (2, 3, 4)


def _engine_phase(fast: bool, check):
    """Run ``check()`` under the fast or the reference engine
    configuration; returns its result and the phase's interning counters
    (``constructions``: term-constructor calls, ``misses``: term objects
    actually created)."""
    from repro.logic.terms import (intern_stats, reset_intern_stats,
                                   set_memoisation)
    from repro.smt.lia import set_exact_ints
    set_memoisation(fast)   # also clears the memo tables
    set_exact_ints(fast)
    reset_intern_stats()
    result = check()
    stats = intern_stats()
    return result, {"time_seconds": result.time_seconds,
                    "constructions": stats["constructions"],
                    "misses": stats["misses"],
                    "hit_rate": stats["hit_rate"]}


def speed_rows(names: Optional[List[str]] = None,
               programs_dir: Optional[pathlib.Path] = None,
               modules_dir: Optional[pathlib.Path] = None,
               jobs_sweep: tuple = SPEED_JOBS_SWEEP) -> List[dict]:
    """Check every port twice — reference configuration, then fast — and
    compare.

    The ``reference`` phase runs the engine before the speed layer:
    :func:`repro.logic.terms.set_memoisation` off, so every traversal
    (``simplify``, ``free_vars``, ``substitute``, CNF conversion, theory
    verdicts) recomputes from scratch, and
    :func:`repro.smt.lia.set_exact_ints` off, so Fourier–Motzkin runs on
    ``fractions.Fraction``.  The ``fast`` phase re-checks with cold memo
    tables and integer LIA.  Both phases must produce byte-identical
    verdicts (``identical``), and — for the single-file ports — so must
    every worker count in ``jobs_sweep`` (``jobs_identical``).  The module
    splits of the selected ports (benchmark ``<name> (project)``) run the
    same two phases through fresh project workspaces.

    Each phase reports ``constructions`` and ``misses``.  The reference
    phase interns every term first, so the fast phase mostly hits the
    table; the gates are therefore reference ``misses < constructions``
    (hash-consing dedups) and fast ``constructions`` < reference
    ``constructions`` (memoised traversals construct less).  The fast
    configuration is always restored on exit, even if a check raises.
    """
    from repro.logic.terms import set_memoisation
    from repro.project.workspace import ProjectWorkspace
    from repro.smt.lia import set_exact_ints

    names = names or BENCHMARKS
    runs = [(name, lambda name=name, jobs=1: Session(
                CheckConfig(jobs=jobs)).check_source(
                    source_of(name, programs_dir), filename=f"{name}.rsc"),
             jobs_sweep)
            for name in names]
    runs += [(f"{name} (project)", lambda name=name: ProjectWorkspace(
                 root=_project_root(name, modules_dir)).check(), ())
             for name in MODULE_BENCHMARKS if name in names]
    rows: List[dict] = []
    try:
        for name, check, sweep in runs:
            reference, reference_stats = _engine_phase(False, check)
            fast, fast_stats = _engine_phase(True, check)
            expected = verdict(fast)
            metrics = {
                "reference": reference_stats,
                "fast": fast_stats,
                "speedup": (reference.time_seconds / fast.time_seconds
                            if fast.time_seconds > 0 else 0.0),
                "queries": _stat(fast, "queries"),
                "identical": verdict(reference) == expected,
                "safe": reference.ok and fast.ok,
            }
            if sweep:
                metrics["jobs_identical"] = all(
                    parallel.ok == fast.ok and verdict(parallel) == expected
                    for parallel in (check(jobs=jobs) for jobs in sweep))
            rows += metric_rows("speed", name, metrics)
    finally:
        set_memoisation(True)
        set_exact_ints(True)
    table = pivot(rows)
    reference_time = sum(m["reference.time_seconds"] for m in table.values())
    fast_time = sum(m["fast.time_seconds"] for m in table.values())
    return rows + metric_rows("speed", ALL, {"totals": {
        "reference_time_seconds": reference_time,
        "fast_time_seconds": fast_time,
        "speedup": reference_time / fast_time if fast_time else 0.0,
    }})


# ---------------------------------------------------------------------------
# the suite table `repro bench` dispatches on
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``repro bench`` suite: the benchmarks a full run covers and the
    text table it prints."""

    benchmarks: Sequence[str]
    title: str
    columns: Sequence[str] = ()


SUITES: Dict[str, Suite] = {
    "figure6": Suite(BENCHMARKS, "Figure 6: annotations and check time"),
    "incremental": Suite(
        BENCHMARKS,
        "Incremental re-check: cold open vs scripted edits "
        "(comment-only / one body / revert)",
        ("cold.queries", "comment.queries", "body.queries", "revert.queries",
         "body.declarations_rechecked", "body.declarations_reused",
         "body.warm", "cold.time_seconds", "body.time_seconds", "safe")),
    "modules": Suite(
        MODULE_BENCHMARKS,
        "Module-graph re-check: cold build vs body-only and signature edits",
        ("modules", "batches", "cold.queries", "body.rechecked",
         "body.queries", "body.warm", "sig.rechecked", "sig.queries",
         "safe")),
    "store": Suite(
        BENCHMARKS,
        "Persistent store: cold process vs store-warm fresh process",
        ("cold.queries", "cold.sat_calls", "warm.queries", "warm.sat_calls",
         "identical", "cold.time_seconds", "warm.time_seconds")),
    "serve": Suite(
        SERVE_BENCHMARKS,
        "Check service: concurrent editing clients (supersede pair per "
        "client) vs sequential replay",
        ("requests", "checks_ok", "cancelled", "p50_ms", "p99_ms",
         "identical", "safe", "error")),
    "cache": Suite(
        BENCHMARKS,
        "Shared cache fleet: fresh worker processes over one cache server, "
        "then under fault injection",
        ("queries", "sat_calls", "time_seconds", "identical", "safe",
         "error")),
    "obs": Suite(
        OBS_BENCHMARKS,
        "Tracing overhead: each benchmark checked with the tracer "
        "disabled, then enabled",
        ("off_seconds", "on_seconds", "events", "on_overhead_pct",
         "identical", "safe")),
    "speed": Suite(
        BENCHMARKS,
        "Raw speed: reference engine (no memos, Fraction LIA) vs fast "
        "(memoised, integer LIA)",
        ("reference.time_seconds", "fast.time_seconds", "speedup",
         "reference.constructions", "reference.misses",
         "fast.constructions", "fast.misses", "identical",
         "jobs_identical")),
}
