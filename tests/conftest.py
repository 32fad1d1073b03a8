"""Test configuration: make `repro` importable without installation, and
provide the one-shot SMT engine the differential tests compare against."""

import contextlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.logic.terms import BoolLit, conj, implies  # noqa: E402
from repro.smt.solver import Solver  # noqa: E402


def _one_shot_implication(self, hypotheses, goal):
    """``Solver.check_implication`` without contexts: the whole implication
    goes through ``is_valid``, i.e. a new CNF and SAT solver per query."""
    antecedent = conj(*hypotheses) if hypotheses else BoolLit(True)
    return self.is_valid(implies(antecedent, goal))


def _one_shot_implication_batch(self, hypotheses, goals):
    return [_one_shot_implication(self, hypotheses, goal) for goal in goals]


@pytest.fixture
def one_shot_smt(monkeypatch):
    """A context manager: while it is active, every ``Solver`` discharges
    implications through the one-shot ``is_valid`` path instead of the
    persistent contexts.  It is the reference engine for the context layer;
    verdicts must match exactly, only the work counters differ."""
    @contextlib.contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(Solver, "check_implication", _one_shot_implication)
            patch.setattr(Solver, "check_implication_batch",
                          _one_shot_implication_batch)
            yield
    return active
