"""Linear integer arithmetic for conjunctions of literals.

The theory solver receives a conjunction of arithmetic literals (produced by
the lazy-SMT loop from a SAT model) and decides satisfiability.  Atoms are
normalised to the form ``sum(c_i * x_i) + c <= 0``:

* ``a <  b``  becomes ``a - b + 1 <= 0``   (integer tightening),
* ``a <= b``  becomes ``a - b     <= 0``,
* ``a =  b``  becomes the pair ``a - b <= 0`` and ``b - a <= 0``,
* ``a != b``  is kept as a disequality and checked for entailed equality.

Satisfiability of the inequality system is decided with Fourier–Motzkin
elimination over the rationals.  Because every strict inequality has been
tightened to a non-strict one with an integer slack, rational satisfiability
of the tightened system coincides with integer satisfiability on the class of
constraints RSC generates (difference-bound-like constraints); in the general
case the procedure may report "satisfiable" for an integer-infeasible system,
which for validity checking is the sound direction (fewer VCs are proved).

Non-linear products and divisions are treated as opaque (uninterpreted)
variables, exactly like the paper does (section 5.1 "Ghost Functions").

Coefficients are exact: since division is opaque, every coefficient that
:func:`linearize` produces is an integer, and Fourier–Motzkin combinations
of integer constraints stay integer (cross-multiplication, no division).
By default the solver therefore seeds plain Python ints instead of the
historical ``fractions.Fraction`` arithmetic.  The Fraction-seeded path is
kept, bit-for-bit, as the reference implementation: :func:`set_exact_ints`
switches back to it, and ``repro bench speed`` runs both and asserts the
verdicts are byte-identical.  How much of a check this layer costs is not a
fixed share: the repository benchmark measures it per run, as the
``smt.lia.is_satisfiable_s`` and ``smt.lia.is_satisfiable_calls`` metrics
of ``rscbench/run.py --trace 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.logic.terms import BinOp, Expr, IntLit, UnOp

VarKey = Hashable

#: Safety valve for Fourier–Motzkin blow-up; beyond this we give up and answer
#: "satisfiable" (sound for validity checking).
MAX_CONSTRAINTS = 4000

#: Seed plain ints (the fast path) instead of Fractions (the reference).
#: Both paths run the same algorithm on the same values — ints and the
#: Fractions they equal compare and combine identically — only the cost of
#: each arithmetic operation differs.
_EXACT_INTS = [True]


def set_exact_ints(enabled: bool) -> None:
    """Select integer (default) or reference Fraction coefficient seeding."""
    _EXACT_INTS[0] = bool(enabled)


def exact_ints_enabled() -> bool:
    return _EXACT_INTS[0]


def _seed(value: "int | Fraction") -> "int | Fraction":
    """A coefficient/constant in the active arithmetic representation."""
    if _EXACT_INTS[0]:
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
    return Fraction(value)


@dataclass
class LinExpr:
    """A linear expression ``sum(coeffs[k] * k) + const`` over variable keys."""

    coeffs: Dict[VarKey, "int | Fraction"] = field(default_factory=dict)
    const: "int | Fraction" = 0

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const)

    def add(self, other: "LinExpr", factor: "int | Fraction" = 1) -> "LinExpr":
        out = self.copy()
        for k, c in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0) + factor * c
            if out.coeffs[k] == 0:
                del out.coeffs[k]
        out.const += factor * other.const
        return out

    def scale(self, factor: "int | Fraction") -> "LinExpr":
        return LinExpr({k: c * factor for k, c in self.coeffs.items() if c * factor != 0},
                       self.const * factor)

    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Iterable[VarKey]:
        return self.coeffs.keys()

    @staticmethod
    def constant(value: int | Fraction) -> "LinExpr":
        return LinExpr({}, _seed(value))

    @staticmethod
    def variable(key: VarKey) -> "LinExpr":
        return LinExpr({key: _seed(1)}, _seed(0))

    def __str__(self) -> str:
        parts = [f"{c}*{k}" for k, c in sorted(self.coeffs.items(), key=lambda kv: str(kv[0]))]
        parts.append(str(self.const))
        return " + ".join(parts)


def linearize(e: Expr, opaque: Callable[[Expr], VarKey],
              const_of: Optional[Callable[[Expr], Optional[int]]] = None) -> LinExpr:
    """Interpret ``e`` as a linear expression.

    ``opaque`` maps non-arithmetic subterms (variables, uninterpreted
    applications, non-linear products...) to variable keys — typically EUF
    representative ids so that congruent terms share a key.

    ``const_of`` optionally maps a subterm to a known integer value (derived
    from equality reasoning); this recovers a useful slice of non-linear
    arithmetic — products of terms whose values are pinned by the context —
    without a general non-linear decision procedure.
    """
    if const_of is not None and not isinstance(e, IntLit):
        known = const_of(e)
        if known is not None:
            return LinExpr.constant(known)
    if isinstance(e, IntLit):
        return LinExpr.constant(e.value)
    if isinstance(e, UnOp) and e.op == "-":
        return linearize(e.operand, opaque, const_of).scale(-1)
    if isinstance(e, BinOp):
        if e.op == "+":
            return linearize(e.left, opaque, const_of).add(
                linearize(e.right, opaque, const_of))
        if e.op == "-":
            return linearize(e.left, opaque, const_of).add(
                linearize(e.right, opaque, const_of), -1)
        if e.op == "*":
            left = linearize(e.left, opaque, const_of)
            right = linearize(e.right, opaque, const_of)
            if left.is_constant():
                return right.scale(left.const)
            if right.is_constant():
                return left.scale(right.const)
            # non-linear: opaque
            return LinExpr.variable(opaque(e))
        if e.op in ("/", "%", "&", "|"):
            return LinExpr.variable(opaque(e))
    return LinExpr.variable(opaque(e))


@dataclass
class LiaProblem:
    """A conjunction of linear constraints plus disequalities."""

    #: each entry is a LinExpr ``t`` meaning ``t <= 0``
    leqs: List[LinExpr] = field(default_factory=list)
    #: each entry is a LinExpr ``t`` meaning ``t != 0``
    diseqs: List[LinExpr] = field(default_factory=list)

    def add_le(self, lhs: LinExpr, rhs: LinExpr) -> None:
        self.leqs.append(lhs.add(rhs, -1))

    def add_lt(self, lhs: LinExpr, rhs: LinExpr) -> None:
        # a < b  over integers: a - b + 1 <= 0
        diff = lhs.add(rhs, -1)
        diff.const += 1
        self.leqs.append(diff)

    def add_eq(self, lhs: LinExpr, rhs: LinExpr) -> None:
        self.add_le(lhs, rhs)
        self.add_le(rhs, lhs)

    def add_neq(self, lhs: LinExpr, rhs: LinExpr) -> None:
        self.diseqs.append(lhs.add(rhs, -1))


def is_satisfiable(problem: LiaProblem) -> bool:
    """Decide satisfiability of the problem (sound "unsat" answers only)."""
    if not _leqs_satisfiable(problem.leqs):
        return False
    for d in problem.diseqs:
        if d.is_constant():
            if d.const == 0:
                return False
            continue
        # The disequality t != 0 conflicts only if the inequalities entail
        # t == 0, i.e. both t >= 1 and t <= -1 are infeasible (integers).
        ge_one = d.scale(-1)
        ge_one.const += 1  # -t + 1 <= 0  <=>  t >= 1
        le_minus_one = d.copy()
        le_minus_one.const += 1  # t + 1 <= 0  <=>  t <= -1
        if not _leqs_satisfiable(problem.leqs + [ge_one]) and \
           not _leqs_satisfiable(problem.leqs + [le_minus_one]):
            return False
    return True


def entails(problem: LiaProblem, goal_leq: LinExpr) -> bool:
    """Does the problem entail ``goal_leq <= 0``?  (Used by tests/qualifiers.)"""
    negated = goal_leq.scale(-1)
    negated.const += 1  # goal > 0  <=>  -goal + 1 <= 0 over integers
    return not _leqs_satisfiable(problem.leqs + [negated])


def _gcd_normalised(c: LinExpr) -> LinExpr:
    """Divide a constraint by the gcd of its terms when the division is exact.

    Cross-multiplication makes Fourier–Motzkin coefficients grow with every
    elimination round; dividing all coefficients *and* the constant by a
    common factor is equivalence-preserving over the rationals (the factor
    is positive), so the decision is unchanged while the integers stay
    word-sized.  Constraints with non-integer entries (callers may seed
    Fractions explicitly) are returned untouched.
    """
    g = 0
    for coeff in c.coeffs.values():
        if not isinstance(coeff, int):
            return c
        g = gcd(g, coeff)
    if g <= 1 or not isinstance(c.const, int) or c.const % g:
        return c
    return LinExpr({k: v // g for k, v in c.coeffs.items()}, c.const // g)


def _leqs_satisfiable(leqs: Sequence[LinExpr]) -> bool:
    """Fourier–Motzkin elimination; True means "satisfiable or unknown"."""
    constraints = [c.copy() for c in leqs]
    # Quick constant check first.
    for c in constraints:
        if c.is_constant() and c.const > 0:
            return False
    variables = sorted({v for c in constraints for v in c.variables()},
                       key=lambda v: str(v))
    for v in variables:
        lowers: List[LinExpr] = []   # constraints giving v >= something
        uppers: List[LinExpr] = []   # constraints giving v <= something
        rest: List[LinExpr] = []
        for c in constraints:
            coeff = c.coeffs.get(v)
            if coeff is None or coeff == 0:
                rest.append(c)
            elif coeff > 0:
                uppers.append(c)
            else:
                lowers.append(c)
        new_constraints = rest
        if len(uppers) * len(lowers) + len(rest) > MAX_CONSTRAINTS:
            return True  # give up: treat as satisfiable (sound for validity)
        for up in uppers:
            cu = up.coeffs[v]
            for lo in lowers:
                cl = lo.coeffs[v]
                # up: cu*v + ru <= 0 with cu > 0  =>  v <= -ru/cu
                # lo: cl*v + rl <= 0 with cl < 0  =>  v >= -rl/cl
                # combine: (-rl/cl) <= (-ru/cu)  i.e.  ru*(-cl) + rl*cu <= 0
                combined = up.scale(-cl).add(lo.scale(cu))
                combined.coeffs.pop(v, None)
                if combined.is_constant():
                    if combined.const > 0:
                        return False
                else:
                    if _EXACT_INTS[0]:
                        combined = _gcd_normalised(combined)
                    new_constraints.append(combined)
        constraints = new_constraints
        for c in constraints:
            if c.is_constant() and c.const > 0:
                return False
    for c in constraints:
        if c.is_constant() and c.const > 0:
            return False
    return True
