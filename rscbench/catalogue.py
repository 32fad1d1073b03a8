"""Fixed catalogues the benchmark's seed draws from.

* ``MUTANTS`` — bounds-violating mutants of the frozen ports.  Each is one
  substring replacement inside one line, so line numbers never move and the
  hand-written answers in ``expected.json`` stay valid.  The list is never
  filtered by what the checker says about a mutant.
* the edit operators of the ``edit_session`` workload (comment, no-op
  statement, bug, fix, revert, join and the project edits), assembled into
  one seeded stream by :func:`edit_stream`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Mutant:
    id: str
    port: str
    line: int        # 1-based line of the replacement
    old: str         # replaced on that line (every occurrence)
    new: str


MUTANTS: Tuple[Mutant, ...] = (
    Mutant("splay.findMax.guard", "splay", 26, "i < keys.length", "i <= keys.length"),
    Mutant("splay.countGreater.guard", "splay", 35, "i < keys.length", "i <= keys.length"),
    Mutant("splay.findMax.seed", "splay", 25, "keys[0]", "keys[1]"),
    Mutant("splay.countGreater.start", "splay", 35, "var i = 0", "var i = -1"),
    Mutant("d3.min.guard", "d3-arrays", 14, "i < xs.length", "i <= xs.length"),
    Mutant("d3.sumRange.guard", "d3-arrays", 41, "i < xs.length", "i <= xs.length"),
    Mutant("d3.head.index", "d3-arrays", 9, "arr[0]", "arr[1]"),
    Mutant("d3.max.read", "d3-arrays", 24, "xs[i]", "xs[i + 1]"),
    Mutant("navier.diffuse.guard", "navier-stokes", 44, "i < f.length", "i <= f.length"),
    Mutant("navier.getDensity.param", "navier-stokes", 28, "getDensity(x: okW,", "getDensity(x: nat,"),
    Mutant("navier.addFields.shift", "navier-stokes", 33, "this.h);", "this.h) + 1;"),
    Mutant("raytrace.shadeAll.guard", "raytrace", 47, "i < dists.length", "i <= dists.length"),
    Mutant("raytrace.plot.param", "raytrace", 31, "v < this.width", "v <= this.width"),
    Mutant("raytrace.closestHit.read", "raytrace", 40, "dists[i] <", "dists[i + 1] <"),
    Mutant("richards.runnableCount.guard", "richards", 34, "i < states.length", "i <= states.length"),
    Mutant("richards.highestPriority.guard", "richards", 43, "i < prios.length", "i <= prios.length"),
    Mutant("richards.priorityOf.param", "richards", 26, "v < this.capacity", "v <= this.capacity"),
    Mutant("richards.highestPriority.seed", "richards", 42, "prios[0]", "prios[1]"),
    Mutant("transducers.mapInto.guard", "transducers", 35, "i < xs.length", "i <= xs.length"),
    Mutant("transducers.reduce1.seed", "transducers", 22, "a[0]", "a[1]"),
    Mutant("transducers.mapInto.read", "transducers", 36, "xs[i]", "xs[i + 1]"),
    Mutant("tsc.sumMemberIds.guard", "tsc-checker", 56, "i < o.members.length", "i <= o.members.length"),
    Mutant("tsc.sumMemberIds.read", "tsc-checker", 57, "o.members[i]", "o.members[i + 1]"),
)


def replace_in_line(text: str, line: int, old: str, new: str) -> str:
    """``text`` with ``old`` replaced by ``new`` on 1-based ``line`` only."""
    lines = text.split("\n")
    if old not in lines[line - 1]:
        raise ValueError(f"{old!r} not on line {line}: {lines[line - 1]!r}")
    lines[line - 1] = lines[line - 1].replace(old, new)
    return "\n".join(lines)


def append_to_line(text: str, line: int, suffix: str) -> str:
    lines = text.split("\n")
    lines[line - 1] += suffix
    return "\n".join(lines)


def apply_mutant(text: str, mutant: Mutant) -> str:
    return replace_in_line(text, mutant.line, mutant.old, mutant.new)


# ---------------------------------------------------------------------------
# edit_session
# ---------------------------------------------------------------------------

#: Ports edited in the session, with the header line of ``main`` and of one
#: other function (the no-op statements go there).
SESSION_DOCS: Dict[str, Tuple[int, int]] = {
    "navier-stokes": (51, 42),
    "splay": (42, 33),
    "transducers": (41, 34),
    "tsc-checker": (45, 54),
}

#: Per document and pass, besides one bug (then its fix) per catalogue
#: mutant of the port: how many edits of each other kind.  Comments go on
#: evenly spaced lines.  Every pass of every seed has this same mix.
DOC_EDITS = {"comment": 10, "noop_main": 3, "noop_fn": 1, "revert": 3,
             "join": 1}


def comment_lines(text: str, avoid: Tuple[int, ...]) -> List[int]:
    """``DOC_EDITS["comment"]`` evenly spaced lines, none in ``avoid`` (a
    statement appended after a comment would be commented out)."""
    lines = [n for n in range(1, text.count("\n") + 2) if n not in avoid]
    step = len(lines) / DOC_EDITS["comment"]
    return [lines[int(i * step)] for i in range(DOC_EDITS["comment"])]


#: The project edited in the session and its two edits (module, line, old,
#: new, interface changes?).
SESSION_PROJECT = "splay"
PROJECT_EDITS = {
    "project_signature": ("stats.rsc", 14, "=> nat;", "=> number;", True),
    "project_body": ("stats.rsc", 16, "var n = 0;", "var n = 0; var pad = 0;",
                     False),
}


@dataclass
class Op:
    """One request of the session, with its hand-derived expected answer.

    ``expect`` is ``None`` for SAFE with no diagnostics, else the mutant id
    whose answer in ``expected.json`` applies.  Project operations carry
    ``summary_changed`` (``None`` when not applicable)."""

    kind: str
    tenant: str
    doc: str = ""
    text: str = ""
    expect: Optional[str] = None
    summary_changed: Optional[bool] = None
    module: str = ""


@dataclass
class _DocState:
    clean: str                     # the current text without a bug
    history: List[str] = field(default_factory=list)


def edit_stream(rng: random.Random, sources: Dict[str, str]) -> List[Op]:
    """The seeded editor stream of one ``edit_session`` pass.

    Tenant ``alice`` opens every session document, then edits them; tenant
    ``bob`` joins each document once, after alice's first edit of it; the
    project is opened by alice, edited (signature and body, each followed by
    its revert) and joined by bob.  Each document's own edit sequence is
    fixed (an edit's cost depends on the edits before it in the same
    document); the seed interleaves the documents and the project edits and
    names the no-op variables."""
    states = {doc: _DocState(sources[doc], [sources[doc]])
              for doc in SESSION_DOCS}
    ops: List[Op] = [Op("open", "alice", doc, sources[doc])
                     for doc in SESSION_DOCS]

    queues: List[List[Tuple[str, str, object]]] = []
    for doc, noop_lines in SESSION_DOCS.items():
        edits = [(doc, "comment", line)
                 for line in comment_lines(sources[doc], noop_lines)]
        edits += [(doc, "bug", m) for m in MUTANTS if m.port == doc]
        for kind, count in DOC_EDITS.items():
            if kind not in ("comment", "join"):
                edits += [(doc, kind, None)] * count
        random.Random(doc).shuffle(edits)  # fixed per document
        edits.insert(1, (doc, "join", None))
        queues.append(edits)
    queues.append([("", "project_open", None),
                   ("", "project_signature", None),
                   ("", "project_body", None)])
    episodes: List[Tuple[str, str, object]] = []
    while any(queues):
        # a uniformly random interleaving of the queues
        pick = rng.choices(queues, weights=[len(q) for q in queues])[0]
        episodes.append(pick.pop(0))
    episodes.append(("", "project_join", None))

    for counter, (doc, kind, variant) in enumerate(episodes):
        if kind.startswith("project_"):
            ops += _project_ops(kind, sources)
            continue
        state = states[doc]
        main_line, fn_line = SESSION_DOCS[doc]
        if kind == "join":
            ops.append(Op("join", "bob", doc, state.clean))
            continue
        if kind == "bug":
            ops.append(Op("bug", "alice", doc,
                          apply_mutant(state.clean, variant),
                          expect=variant.id))
            ops.append(Op("fix", "alice", doc, state.clean))
            continue
        if kind == "comment":
            text = append_to_line(state.clean, variant, f" // edit {counter}")
        elif kind in ("noop_main", "noop_fn"):
            line = main_line if kind == "noop_main" else fn_line
            text = append_to_line(state.clean, line,
                                  f" var pad{counter} = 0;")
        else:  # revert to the second most recent other clean text
            earlier = [t for t in state.history if t != state.clean]
            text = (earlier[-2:] or [state.clean])[0]
        ops.append(Op(kind, "alice", doc, text))
        state.clean = text
        if text not in state.history:
            state.history.append(text)
    return ops


def _project_ops(kind: str, sources: Dict[str, str]) -> List[Op]:
    if kind == "project_open":
        return [Op("project_open", "alice")]
    if kind == "project_join":
        return [Op("project_join", "bob")]
    module, line, old, new, changes = PROJECT_EDITS[kind]
    key = f"{SESSION_PROJECT}/{module}"
    original = sources[key]
    edited = replace_in_line(original, line, old, new)
    return [Op(kind, "alice", text=edited, summary_changed=changes,
               module=module),
            Op("project_revert", "alice", text=original,
               summary_changed=changes, module=module)]
