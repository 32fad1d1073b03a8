"""End-to-end SMT engine equivalence over the real benchmark workloads.

The persistent-context engine must be *observationally identical* to the
one-shot engine (every implication through ``Solver.is_valid``, a new CNF
and SAT solver per query; installed by the ``one_shot_smt`` fixture) on
every benchmark port and module project: byte-equal diagnostics, byte-equal
inferred kappa refinements, the same verdicts.  It must get there with
strictly fewer SAT searches (``sat_calls``) than the one-shot engine, and
with no more than the bound over the recorded :data:`SAT_BASELINE`.  This
is the system-level counterpart of the per-formula differential fuzzer in
``test_smt_fuzz.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import bench
from repro.core.config import CheckConfig
from repro.core.session import Session
from repro.smt import theory

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "benchmarks" / "programs"
MODULES = ROOT / "benchmarks" / "modules"

#: SAT searches (``sat_calls``) the context engine issued per port when
#: recorded; refresh after an intentional solver change.
SAT_BASELINE = {
    "navier-stokes": 140,
    "splay": 320,
    "richards": 301,
    "raytrace": 211,
    "transducers": 230,
    "d3-arrays": 324,
    "tsc-checker": 92,
}

#: Allowed growth over the baseline's SAT searches: 25%, or 5 searches for
#: small counts, whichever is larger.
SAT_THRESHOLD = 0.25


def comparable(result) -> tuple:
    """Diagnostics and kappa solutions, rendered byte-comparably."""
    return (
        [d.to_dict() for d in result.diagnostics],
        {name: [str(q) for q in quals]
         for name, quals in sorted(result.kappa_solution.items())},
    )


@pytest.mark.parametrize("name", bench.BENCHMARKS)
def test_port_equivalence_and_fewer_sat_calls(name, one_shot_smt):
    source = (PROGRAMS / f"{name}.rsc").read_text()
    with one_shot_smt():
        reference = Session(CheckConfig()).check_source(
            source, filename=f"{name}.rsc")
    incremental = Session(CheckConfig()).check_source(
        source, filename=f"{name}.rsc")

    assert reference.ok and incremental.ok, f"{name} must verify in both engines"
    assert comparable(incremental) == comparable(reference), (
        f"{name}: the context engine changed diagnostics or solutions")
    sat_calls = incremental.stats.sat_calls
    assert sat_calls < reference.stats.sat_calls, (
        f"{name}: contexts issued {sat_calls} SAT searches, the one-shot "
        f"engine {reference.stats.sat_calls} — the context layer stopped "
        "paying for itself")
    base = SAT_BASELINE[name]
    assert sat_calls <= max(base * (1.0 + SAT_THRESHOLD), base + 5), (
        f"{name}: contexts issued {sat_calls} SAT searches, baseline {base} "
        f"(+{SAT_THRESHOLD:.0%} allowed)")
    # The context machinery really ran (and was exercised repeatedly).
    assert incremental.stats.contexts_created > 0
    assert incremental.stats.contexts_reused > 0
    assert reference.stats.contexts_created == 0


@pytest.mark.parametrize("project", bench.MODULE_BENCHMARKS)
def test_module_project_equivalence(project, one_shot_smt):
    root = MODULES / project
    with one_shot_smt():
        reference = Session(CheckConfig()).check_project(root)
    incremental = Session(CheckConfig()).check_project(root)

    assert reference.ok and incremental.ok
    reference_by_file = {r.filename: r for r in reference.results}
    assert len(reference.results) == len(incremental.results)
    total_reference = total_incremental = 0
    for result in incremental.results:
        other = reference_by_file[result.filename]
        assert comparable(result) == comparable(other), (
            f"{project}/{result.filename}: engines disagree")
        total_reference += other.stats.sat_calls if other.stats else 0
        total_incremental += result.stats.sat_calls if result.stats else 0
    assert total_incremental < total_reference, (
        f"{project}: contexts did not reduce SAT searches "
        f"({total_incremental} vs {total_reference})")


def test_queries_and_verdict_counters_match_across_modes(one_shot_smt):
    """`queries`, `valid`/`invalid` and cache behaviour are engine-independent
    by construction (the context path mirrors the one-shot path's caching
    protocol); only the work counters may differ."""
    source = (PROGRAMS / "splay.rsc").read_text()
    with one_shot_smt():
        reference = Session(CheckConfig()).check_source(source)
    incremental = Session(CheckConfig()).check_source(source)
    for counter in ("queries", "valid", "invalid", "cache_hits"):
        assert getattr(incremental.stats, counter) == \
            getattr(reference.stats, counter), counter


def test_theory_checks_count_every_check_literals_call(monkeypatch):
    """``SolverStats.theory_checks`` counts the theory checks actually run,
    core-minimisation probes included, not just the calls that start one."""
    calls = 0
    check_literals = theory.check_literals

    def counting(literals):
        nonlocal calls
        calls += 1
        return check_literals(literals)

    monkeypatch.setattr(theory, "check_literals", counting)
    source = (PROGRAMS / "splay.rsc").read_text()
    result = Session(CheckConfig()).check_source(source, filename="splay.rsc")
    assert result.ok
    assert calls > result.stats.sat_calls
    assert result.stats.theory_checks == calls
