"""The three workloads: seeded inputs, one pass of operations, and the
check of every answer against ``expected.json``.

A workload's operations are built once per run from the seed.  A *pass*
replays them from a cold state (:meth:`Workload.start_pass`);
:meth:`run_op` runs one operation of the current pass and returns
``(cpu seconds, problem, verdict)``, where ``problem`` is ``None`` when the
answer matches the hand-written one and ``verdict`` is a JSON-able record
for the determinism check.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from catalogue import (MUTANTS, SESSION_DOCS, SESSION_PROJECT, Op,
                       apply_mutant, edit_stream)

HERE = pathlib.Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
WORK = HERE / ".work"
EXPECTED = json.loads((HERE / "expected.json").read_text())

#: Every time the benchmark reports is CPU time of this (single-threaded)
#: process.  On a shared virtual machine the hypervisor can steal the CPU
#: in bursts, which moved wall-clock times of identical work by up to 2x on
#: a 2-vCPU VM; CPU time leaves the stolen time out.
CLOCK = time.process_time

PORTS = sorted(p.stem for p in (INPUTS / "programs").glob("*.rsc"))
PROJECTS = sorted(p.name for p in (INPUTS / "modules").iterdir()
                  if p.is_dir())


def kappa_digest(solution) -> str:
    """A stable digest of one kappa solution (name -> qualifiers)."""
    rendered = sorted((name, sorted(str(q) for q in quals))
                      for name, quals in (solution or {}).items())
    return hashlib.sha256(json.dumps(rendered).encode()).hexdigest()[:16]


def diag_pairs(diagnostics) -> List[Tuple[str, int]]:
    """(code, line) of each diagnostic, from objects or protocol dicts."""
    pairs = []
    for d in diagnostics:
        if isinstance(d, dict):
            pairs.append((d["code"], d["span"]["line"]))
        else:
            pairs.append((d.code, d.span.line))
    return sorted(pairs)


#: the answer for a text no edit has made buggy
SAFE = {"status": "SAFE", "diagnostics": 0}


def judge(status: str, pairs: List[Tuple[str, int]],
          answer: dict) -> Optional[str]:
    """``None`` if (status, diagnostics) matches the hand-written answer:
    a status and diagnostic count, or a mutant's code and lines."""
    if "lines" not in answer:
        if status != answer["status"] or len(pairs) != answer["diagnostics"]:
            return (f"expected {answer['status']} with "
                    f"{answer['diagnostics']} diagnostics, got {status} "
                    f"{pairs}")
        return None
    lines = set(answer["lines"])
    if (status != answer["status"] or not pairs
            or any(code != answer["code"] or line not in lines
                   for code, line in pairs)
            or lines - {line for _, line in pairs}):
        return (f"expected {answer['status']} {answer['code']} on lines "
                f"{sorted(lines)}, got {status} {pairs}")
    return None


@dataclass
class Item:
    """One operation of a cold workload."""
    key: str
    kind: str               # "port", "project" or "mutant"
    text: str = ""


class Workload:
    name = ""
    #: how many latency samples must lie beyond p90
    tail_samples = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list = []

    def key(self, index: int) -> str:
        return f"{index}:{self.ops[index].key}"

    def start_pass(self) -> None:
        """Reset to the cold state a pass starts from."""

    def end_pass(self) -> None:
        pass

    def counts_latency(self, index: int) -> bool:
        return True


class ColdWorkload(Workload):
    """Each operation is one cold check: fresh Session, default config,
    traversal memos cleared, no store."""

    def run_op(self, index: int):
        from repro import CheckConfig, Session
        from repro.logic.terms import clear_memos
        item = self.ops[index]
        clear_memos()
        gc.collect()
        start = CLOCK()
        if item.kind == "project":
            result = Session(CheckConfig()).check_project(
                str(INPUTS / "modules" / item.key))
        else:
            result = Session(CheckConfig()).check_source(
                item.text, f"{item.key}.rsc")
        seconds = CLOCK() - start
        if item.kind == "project":
            answer = EXPECTED["projects"][item.key]
            pairs = diag_pairs(d for r in result.results
                               for d in r.diagnostics)
            problem = judge("SAFE" if result.ok else "UNSAFE", pairs, answer)
            if problem is None and result.num_modules != answer["modules"]:
                problem = (f"expected {answer['modules']} modules, got "
                           f"{result.num_modules}")
            kappas = [kappa_digest(r.kappa_solution) for r in result.results]
        else:
            table = "mutants" if item.kind == "mutant" else "ports"
            answer = EXPECTED[table][item.key]
            pairs = diag_pairs(result.diagnostics)
            problem = judge(result.status, pairs, answer)
            kappas = [kappa_digest(result.kappa_solution)]
        verdict = {"op": item.key, "pairs": pairs, "kappas": kappas}
        return seconds, problem, verdict


class ColdSafe(ColdWorkload):
    name = "cold_safe"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        items = [Item(p, "port", (INPUTS / "programs" / f"{p}.rsc")
                      .read_text()) for p in PORTS]
        items += [Item(p, "project") for p in PROJECTS]
        random.Random(seed).shuffle(items)
        self.ops = items


class ColdUnsafe(ColdWorkload):
    name = "cold_unsafe"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sources = {p: (INPUTS / "programs" / f"{p}.rsc").read_text()
                   for p in PORTS}
        items = [Item(m.id, "mutant", apply_mutant(sources[m.port], m))
                 for m in MUTANTS]
        random.Random(seed).shuffle(items)
        self.ops = items


class EditSession(Workload):
    """A seeded editor stream through ``Client`` over ``LocalTransport`` to
    one ``ServiceCore``; two tenants share one local store."""

    name = "edit_session"
    tail_samples = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sources = {doc: (INPUTS / "programs" / f"{doc}.rsc").read_text()
                   for doc in SESSION_DOCS}
        self.root = INPUTS / "modules" / SESSION_PROJECT
        for module in self.root.glob("*.rsc"):
            sources[f"{SESSION_PROJECT}/{module.name}"] = module.read_text()
        self.ops = edit_stream(random.Random(seed), sources)
        self.core = None
        self.clients: Dict[str, object] = {}
        self.store_dir: Optional[pathlib.Path] = None

    def key(self, index: int) -> str:
        op = self.ops[index]
        return f"{index}:{op.kind}:{op.doc or op.module}"

    def counts_latency(self, index: int) -> bool:
        return self.ops[index].kind != "open"

    def start_pass(self) -> None:
        from repro import CheckConfig, Client
        from repro.client import LocalTransport
        from repro.logic.terms import clear_memos
        from repro.service.core import ServiceCore
        self.end_pass()
        clear_memos()
        self.store_dir = WORK / "store"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.core = ServiceCore(CheckConfig(store_path=str(self.store_dir)))
        self.clients = {t: Client(LocalTransport(self.core), tenant=t)
                        for t in ("alice", "bob")}
        for client in self.clients.values():
            client.hello()

    def end_pass(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients = {}
        self.core = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def run_op(self, index: int):
        op: Op = self.ops[index]
        client = self.clients[op.tenant]
        uri = f"mem://{op.doc}.rsc"
        start = CLOCK()
        if op.kind in ("open", "join"):
            payload = client.check(uri, op.text)
        elif op.kind in ("project_open", "project_join"):
            payload = client.project_open(str(self.root))
        elif op.kind.startswith("project_"):
            payload = client.project_update(
                str(self.root / op.module), op.text)
        else:
            payload = client.update(uri, op.text)
        seconds = CLOCK() - start
        verdict = {"op": self.key(index)}
        if op.kind.startswith("project_"):
            modules = payload.modules
            pairs = diag_pairs(d for m in modules for d in m["diagnostics"])
            problem = judge("SAFE" if payload.ok else "UNSAFE", pairs, SAFE)
            if op.kind in ("project_open", "project_join"):
                expected = EXPECTED["projects"][SESSION_PROJECT]["modules"]
                if problem is None and payload.num_modules != expected:
                    problem = (f"expected {expected} modules, got "
                               f"{payload.num_modules}")
            elif (problem is None
                  and payload.summary_changed != op.summary_changed):
                problem = (f"{op.kind} {op.module}: expected "
                           f"summary_changed={op.summary_changed}")
            verdict.update(pairs=pairs, modules=len(modules))
        else:
            pairs = diag_pairs(payload.diagnostics)
            problem = judge(payload.status, pairs,
                            EXPECTED["mutants"][op.expect] if op.expect
                            else SAFE)
            tenant = self.core.manager.peek(op.tenant)
            verdict.update(pairs=pairs, kappas=[kappa_digest(
                tenant.workspace.result(uri).kappa_solution)])
        return seconds, problem, verdict


WORKLOADS = {w.name: w for w in (ColdSafe, ColdUnsafe, EditSession)}


def run_op_safely(workload: Workload, index: int):
    """``run_op`` with any exception (including protocol errors) turned
    into a failed operation."""
    start = CLOCK()
    try:
        return workload.run_op(index)
    except Exception as exc:  # noqa: BLE001 — counted as a failure
        traceback.print_exc()
        return (CLOCK() - start,
                f"{type(exc).__name__}: {exc}",
                {"op": workload.key(index), "error": type(exc).__name__})
