"""Per-layer timing and counting from outside the program.

:func:`install` replaces each layer's public entry points *where they are
looked up* — a module attribute bound by ``from ... import`` in the calling
module, or a method on its class — with a wrapper that records a span.  No
file of the program changes, and :meth:`Recorder.uninstall` puts every
original back.

Spans are aggregated in memory as they close: per layer the call count, the
inclusive time (outermost occurrence only, so recursion is not counted
twice) and the self time (the span minus the spans of wrapped layers it
called).  A few hooks also read counts off arguments and results, such as
the size of a theory core or whether a store load hit.  :func:`per_layer`
turns the aggregate into the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (name, enclosing wrapped layer) -> calls
        self.parents: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # frames: [name, child seconds]
        self._active: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def nearest(self, names) -> Optional[str]:
        """The innermost open span whose name is in ``names``."""
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def _timed(self, name: str, fn: Callable,
               hook: Optional[Callable] = None) -> Callable:
        perf = time.process_time  # CPU time, as everywhere in the benchmark
        stack, active = self._stack, self._active
        spans, parents = self.spans, self.parents

        def wrapper(*args, **kwargs):
            parents[(name, stack[-1][0] if stack else None)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                entry = spans[name]
                entry[0] += 1
                if not active[name]:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable,
                 hook: Optional[Callable] = None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, hook=None,
              timed: bool = True) -> None:
        """Wrap the function or method ``owner.attr`` as layer ``name``."""
        raw = _raw(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        make = self._timed if timed else self._counted
        wrapped = make(name, fn, hook)
        self.replace(owner, attr, kind(wrapped) if kind is not None
                     else wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _raw(owner, attr: str):
    """The attribute as stored (a class's staticmethod stays wrapped)."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


# ---------------------------------------------------------------------------
# hooks: counts read off arguments and results
# ---------------------------------------------------------------------------

def _core_hook(rec, args, result) -> None:
    if not result.satisfiable and result.core is not None:
        rec.counts["core.kept"] += len(result.core)
        rec.counts["core.input"] += len(args[0])


def _goals_hook(rec, args, result) -> None:
    goals = len(result) if isinstance(result, list) else 1
    owner = rec.nearest(("fixpoint.solve", "fixpoint.check_concrete"))
    if owner == "fixpoint.solve":
        rec.counts["fixpoint.queries_issued"] += goals


def _hit_hook(counter: str):
    def hook(rec, args, result) -> None:
        rec.counts[counter + ".calls"] += 1
        if result is not None:
            rec.counts[counter + ".hits"] += 1
    return hook


def _constraints_hook(rec, args, result) -> None:
    rec.counts["core.horn_implications"] += \
        len(result.checker.constraints.implications)


def _result_hook(rec, args, result) -> None:
    """SolveStats of a finished check, as the program reports them."""
    solve = getattr(result, "solve_stats", None)
    if solve is None:
        return
    for key in ("rounds", "queries_issued", "queries_pruned",
                "declarations_reused", "horn_implications"):
        rec.counts["solve_stats." + key] += getattr(solve, key)
    stats = getattr(result, "stats", None)
    if stats is not None:
        for key in ("queries", "sat_calls", "theory_checks", "cache_hits"):
            rec.counts["solver_stats." + key] += getattr(stats, key)


def _project_update_hook(rec, args, result) -> None:
    rec.counts["project.modules_rechecked"] += len(result.rechecked)


def _project_check_hook(rec, args, result) -> None:
    rec.counts["project.modules_rechecked"] += \
        result.num_modules - len(result.cyclic)


def _closure_factory(rec: Recorder, cls):
    counts = rec.counts

    def build(*args, **kwargs):
        counts["smt.euf.closures_built"] += 1
        return cls(*args, **kwargs)
    return build


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core import workspace
    from repro.core.liquid.fixpoint import LiquidSolver
    from repro.project import build, graph
    from repro.project.workspace import ProjectWorkspace
    from repro.service.core import ServiceCore
    from repro.smt import bvmask, context, sat, solver, theory
    from repro.ssa.transform import SsaTransformer
    from repro.store import codec
    from repro.store.artifacts import ArtifactStore

    # SMT: theory check, its EUF/LIA/bit-mask parts, SAT, CNF, contexts.
    for module in (solver, context):
        rec.patch(module, "check_with_core", "smt.theory.check_with_core",
                  hook=_core_hook)
        rec.patch(module, "tseitin", "smt.cnf.tseitin")
    rec.patch(theory, "check_literals", "smt.theory.check_literals")
    rec.patch(theory, "is_satisfiable", "smt.lia.is_satisfiable")
    rec.replace(theory, "CongruenceClosure",
                _closure_factory(rec, theory.CongruenceClosure))
    rec.patch(bvmask.BvMaskSolver, "check", "smt.bvmask.check")
    rec.patch(sat.SatSolver, "solve", "smt.sat.solve")
    rec.patch(sat.SatSolver, "propagate_probe", "smt.sat.probe")
    rec.patch(context.SolverContext, "check_goal", "smt.context.check_goal")
    rec.patch(solver.Solver, "check", "smt.check")
    for method in ("check_implication", "check_implication_batch"):
        rec.patch(solver.Solver, method, "smt.implication", hook=_goals_hook)
    rec.patch(solver.Solver, "_cache_lookup", "smt.cache", timed=False,
              hook=_hit_hook("smt.cache"))
    # fixpoint
    rec.patch(LiquidSolver, "solve", "fixpoint.solve")
    rec.patch(LiquidSolver, "check_concrete", "fixpoint.check_concrete")
    # front end and constraint generation
    rec.patch(workspace, "parse_program", "lang.parse")
    rec.patch(graph, "parse_program", "lang.parse")
    rec.patch(SsaTransformer, "function", "ssa.convert")
    rec.patch(workspace.Workspace, "constraints", "core.constraints",
              hook=_constraints_hook)
    # workspace, service, store, project
    rec.patch(workspace.Document, "cached", "workspace.snapshot",
              timed=False, hook=_hit_hook("workspace.snapshot"))
    for method in ("open", "update", "verify"):
        rec.patch(workspace.Workspace, method, "workspace.check",
                  hook=_result_hook)
    rec.patch(ServiceCore, "execute", "service.execute")
    for method in ("load_verdicts", "load_solution", "load_module"):
        rec.patch(ArtifactStore, method, "store.load",
                  hook=_hit_hook("store.load"))
    for method in ("save_verdicts", "save_solution", "save_module"):
        rec.patch(ArtifactStore, method, "store.save")
    rec.patch(codec, "decode_entry", "store.decode")
    rec.patch(graph.ModuleGraph, "from_sources", "project.graph")
    rec.patch(build, "check_graph", "project.build",
              hook=_project_check_hook)
    rec.patch(ProjectWorkspace, "check", "project.build",
              hook=_project_check_hook)
    rec.patch(ProjectWorkspace, "update", "project.update",
              hook=_project_update_hook)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(rec: Recorder, intern_before: dict, intern_after: dict
              ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) of one traced pass."""
    span, counts, parents = rec.spans, rec.counts, rec.parents
    out: Dict[str, Tuple[float, str]] = {}

    def stat(name: str, column: int) -> float:
        return span[name][column] if name in span else 0

    def seconds(metric: str, name: str, column: int = 1) -> None:
        out[metric] = (stat(name, column), "s")

    def calls(metric: str, name: str) -> None:
        out[metric] = (stat(name, 0), "count")

    seconds("smt.theory.check_with_core_s", "smt.theory.check_with_core")
    calls("smt.theory.check_with_core_calls", "smt.theory.check_with_core")
    calls("smt.theory.check_literals_calls", "smt.theory.check_literals")
    # every check_with_core makes one check_literals call before it starts
    # minimising the core
    minimising = (parents[("smt.theory.check_literals",
                           "smt.theory.check_with_core")]
                  - stat("smt.theory.check_with_core", 0))
    out["smt.theory.minimise_share"] = (
        _share(minimising, stat("smt.theory.check_literals", 0)), "ratio")
    out["smt.theory.core_keep_ratio"] = (
        _share(counts["core.kept"], counts["core.input"]), "ratio")
    out["smt.euf.closures_built"] = (counts["smt.euf.closures_built"],
                                     "count")
    seconds("smt.euf.s", "smt.theory.check_literals", column=2)
    seconds("smt.lia.is_satisfiable_s", "smt.lia.is_satisfiable")
    calls("smt.lia.is_satisfiable_calls", "smt.lia.is_satisfiable")
    seconds("smt.bvmask.check_s", "smt.bvmask.check")
    calls("smt.bvmask.check_calls", "smt.bvmask.check")
    seconds("smt.sat.solve_s", "smt.sat.solve")
    calls("smt.sat.solve_calls", "smt.sat.solve")
    calls("smt.sat.probe_calls", "smt.sat.probe")
    seconds("smt.cnf.tseitin_s", "smt.cnf.tseitin")
    calls("smt.cnf.tseitin_calls", "smt.cnf.tseitin")
    seconds("smt.context.check_goal_s", "smt.context.check_goal")
    calls("smt.context.check_goal_calls", "smt.context.check_goal")
    seconds("smt.implication_s", "smt.implication")
    calls("smt.implication_calls", "smt.implication")
    out["smt.cache_hit_share"] = (
        _share(counts["smt.cache.hits"], counts["smt.cache.calls"]), "ratio")

    seconds("fixpoint.solve_s", "fixpoint.solve")
    seconds("fixpoint.check_concrete_s", "fixpoint.check_concrete")
    out["fixpoint.queries_issued"] = (counts["fixpoint.queries_issued"],
                                      "count")
    for key in ("queries_pruned", "rounds", "declarations_reused"):
        out["fixpoint." + key] = (counts["solve_stats." + key], "count")

    seconds("lang.parse_s", "lang.parse")
    seconds("ssa.convert_s", "ssa.convert")
    seconds("core.constraints_s", "core.constraints", column=2)
    out["core.horn_implications"] = (counts["core.horn_implications"],
                                     "count")
    out["workspace.snapshot_hit_share"] = (
        _share(counts["workspace.snapshot.hits"],
               counts["workspace.snapshot.calls"]), "ratio")
    seconds("service.execute_s", "service.execute")
    seconds("service.self_s", "service.execute", column=2)

    seconds("store.load_s", "store.load")
    calls("store.load_calls", "store.load")
    out["store.hit_share"] = (
        _share(counts["store.load.hits"], counts["store.load.calls"]),
        "ratio")
    seconds("store.decode_s", "store.decode")
    seconds("store.save_s", "store.save")

    seconds("project.graph_s", "project.graph")
    out["project.modules_rechecked"] = (counts["project.modules_rechecked"],
                                        "count")

    out["logic.terms.live_terms"] = (intern_after["live_terms"], "count")
    constructions = (intern_after["constructions"]
                     - intern_before["constructions"])
    out["logic.terms.intern_miss_share"] = (
        _share(intern_after["misses"] - intern_before["misses"],
               constructions), "ratio")
    return out


def cross_check(rec: Recorder) -> List[Tuple[str, float, float, bool]]:
    """The program's own counters beside the counts taken from outside:
    (what, program's count, outside count, agree?)."""
    span, counts = rec.spans, rec.counts

    def calls(name: str) -> int:
        return span[name][0] if name in span else 0

    rows = [
        ("SolverStats.theory_checks vs check_with_core calls",
         counts["solver_stats.theory_checks"],
         calls("smt.theory.check_with_core")),
        ("SolverStats.theory_checks vs check_literals calls",
         counts["solver_stats.theory_checks"],
         calls("smt.theory.check_literals")),
        ("SolverStats.sat_calls vs SatSolver.solve calls",
         counts["solver_stats.sat_calls"], calls("smt.sat.solve")),
        ("SolverStats.queries vs cache lookups that missed",
         counts["solver_stats.queries"],
         counts["smt.cache.calls"] - counts["smt.cache.hits"]),
        ("SolverStats.cache_hits vs cache lookups that hit",
         counts["solver_stats.cache_hits"], counts["smt.cache.hits"]),
        ("SolveStats.queries_issued vs goals sent by the fixpoint",
         counts["solve_stats.queries_issued"],
         counts["fixpoint.queries_issued"]),
    ]
    return [(what, mine, outside, mine == outside)
            for what, mine, outside in rows]
