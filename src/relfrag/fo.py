"""Standard translation to first-order logic and proof-obligation
emission.

A relation term with two point variables x, y becomes a first-order
formula over one binary predicate per term variable: composition
introduces an existential middle point, dagger a universal one,
projections re-read the point variables, I is equality and D its
negation.  Bound variables come from two indexed pools x1, x2, ... and
y1, y2, ..., allocated left to right; a middle point draws from the
pool opposite to the current source argument, which reproduces the
conventional layout (x0 free source, y0 free target, existentials
named y1, y2, ... in a plain composition chain).
``standard_translations`` draws the bound names of several terms from
one pool, so that no bound name occurs in two of the formulas.

``nnf`` pushes negations down to the atoms.  ``ea_profile`` and
``ea_disjuncts`` read a formula in negation normal form with no
existential below a universal (an ∃*∀* formula, once prenexed) as a
disjunction: each disjunct has its existential names, its
quantifier-free literals and its maximal universal subformulas.  The
profile reads the shape of those disjuncts without expanding them.

``export_equation_smt2`` / ``export_equation_tptp`` emit a script whose
unsatisfiability (resp. theoremhood) certifies that the two sides agree
on every structure with at least ``min_size`` elements: the script
asserts a pairwise-distinctness axiom for min_size points and the
negated universally closed equivalence.  Emission is deterministic and
byte-stable.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional, Union as TUnion

from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term,
                    TermError, Top, Union, Var, record, variables)


class FoError(ValueError):
    pass


@record
class FoTrue:
    pass


@record
class FoFalse:
    pass


@record
class FoAtom:
    rel: str
    left: str
    right: str


@record
class FoEq:
    left: str
    right: str


@record
class FoNot:
    arg: "FoFormula"


@record
class FoAnd:
    left: "FoFormula"
    right: "FoFormula"


@record
class FoOr:
    left: "FoFormula"
    right: "FoFormula"


@record
class FoIff:
    left: "FoFormula"
    right: "FoFormula"


@record
class FoExists:
    var: str
    body: "FoFormula"


@record
class FoForall:
    var: str
    body: "FoFormula"


FoFormula = TUnion[FoTrue, FoFalse, FoAtom, FoEq, FoNot, FoAnd, FoOr, FoIff,
                   FoExists, FoForall]


class _Pool:
    def __init__(self) -> None:
        self.counts = {"x": 0, "y": 0}

    def fresh(self, source: str) -> str:
        # middle points take the pool opposite to the source argument
        pool = "y" if source.startswith("x") else "x"
        self.counts[pool] += 1
        return f"{pool}{self.counts[pool]}"


def standard_translation(t: Term, x: str = "x0", y: str = "y0") -> FoFormula:
    """First-order formula with free point variables x and y whose
    truth at (u, v) coincides with membership of (u, v) in the term's
    value, on every structure."""
    return _translate(t, x, y, _Pool())


def standard_translations(terms: tuple[Term, ...]) -> tuple[FoFormula, ...]:
    """Standard translations of several terms in x0 and y0, with their
    bound names drawn from one pool, so no bound name occurs in two of
    them."""
    pool = _Pool()
    return tuple(_translate(t, "x0", "y0", pool) for t in terms)


def _translate(t: Term, x: str, y: str, pool: _Pool) -> FoFormula:
    if isinstance(t, Var):
        return FoAtom(t.name, x, y)
    if isinstance(t, Bot):
        return FoFalse()
    if isinstance(t, Top):
        return FoTrue()
    if isinstance(t, Id):
        return FoEq(x, y)
    if isinstance(t, Di):
        return FoNot(FoEq(x, y))
    if isinstance(t, Union):
        return FoOr(_translate(t.left, x, y, pool), _translate(t.right, x, y, pool))
    if isinstance(t, Inter):
        return FoAnd(_translate(t.left, x, y, pool), _translate(t.right, x, y, pool))
    if isinstance(t, Compl):
        return FoNot(_translate(t.arg, x, y, pool))
    if isinstance(t, Comp):
        z = pool.fresh(x)
        return FoExists(z, FoAnd(_translate(t.left, x, z, pool),
                                 _translate(t.right, z, y, pool)))
    if isinstance(t, Dagger):
        z = pool.fresh(x)
        return FoForall(z, FoOr(_translate(t.left, x, z, pool),
                                _translate(t.right, z, y, pool)))
    if isinstance(t, Proj):
        args = (x, y)
        return _translate(t.arg, args[t.proj.img1 - 1], args[t.proj.img2 - 1], pool)
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Negation normal form and the disjuncts of an ∃*∀* formula


def nnf(f: FoFormula, positive: bool = True) -> FoFormula:
    """Negation normal form of f (of its negation when ``positive`` is
    False): negations only on atoms and equalities, no FoIff, and FoTrue
    or FoFalse only as the whole formula.  Universes are non-empty, so
    a quantifier over a constant is that constant."""
    if isinstance(f, FoNot):
        return nnf(f.arg, not positive)
    if isinstance(f, (FoAtom, FoEq)):
        return f if positive else FoNot(f)
    if isinstance(f, (FoTrue, FoFalse)):
        return FoTrue() if isinstance(f, FoTrue) == positive else FoFalse()
    if isinstance(f, FoIff):
        return nnf(FoOr(FoAnd(f.left, f.right), FoAnd(FoNot(f.left), FoNot(f.right))), positive)
    if isinstance(f, (FoAnd, FoOr)):
        conj = isinstance(f, FoAnd) == positive
        zero, unit = (FoFalse, FoTrue) if conj else (FoTrue, FoFalse)
        left, right = nnf(f.left, positive), nnf(f.right, positive)
        if isinstance(left, zero) or isinstance(right, zero):
            return zero()
        if isinstance(left, unit):
            return right
        if isinstance(right, unit):
            return left
        return FoAnd(left, right) if conj else FoOr(left, right)
    if isinstance(f, (FoExists, FoForall)):
        body = nnf(f.body, positive)
        if isinstance(body, (FoTrue, FoFalse)):
            return body
        return FoExists(f.var, body) if isinstance(f, FoExists) == positive else FoForall(f.var, body)
    raise FoError(f"unexpected formula {f!r}")  # pragma: no cover


def universal_polarities(f: FoFormula) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """The predicates that occur positively and those that occur
    negatively in an NNF formula; None if it has an existential."""
    if isinstance(f, FoExists):
        return None
    if isinstance(f, FoAtom):
        return frozenset({f.rel}), frozenset()
    if isinstance(f, FoNot):
        return frozenset(), frozenset({f.arg.rel} if isinstance(f.arg, FoAtom) else ())
    if isinstance(f, (FoAnd, FoOr)):
        left, right = universal_polarities(f.left), universal_polarities(f.right)
        if left is None or right is None:
            return None
        return left[0] | right[0], left[1] | right[1]
    if isinstance(f, FoForall):
        return universal_polarities(f.body)
    return frozenset(), frozenset()


# named tuples: like the ``terms.record`` classes, each is built with one
# ``exec``, so neither adds much to the import every CLI process pays
class EaDisjunct(NamedTuple):
    """One disjunct of an ∃*∀* formula in NNF: its existential names, its
    quantifier-free literals and its maximal universal subformulas."""

    exists: tuple[str, ...]
    literals: tuple[FoFormula, ...]
    foralls: tuple[FoFormula, ...]


class EaProfile(NamedTuple):
    """The shape of an NNF formula's disjuncts, read without expanding
    them.  ``exists`` maps a number of existential names to the number
    of disjuncts with that many; ``positive`` and ``negative`` hold the
    predicates with that polarity in the universal parts of some
    disjunct, ``mixed`` those with both in the universal parts of one."""

    exists: dict[int, int]
    positive: frozenset[str]
    negative: frozenset[str]
    mixed: frozenset[str]


def ea_profile(f: FoFormula) -> Optional[EaProfile]:
    """Profile of an NNF formula whose bound names are distinct; None if
    an existential sits below a universal."""
    none = frozenset()
    if isinstance(f, FoFalse):
        return EaProfile({}, none, none, none)
    if isinstance(f, FoForall):
        signs = universal_polarities(f)
        return None if signs is None else EaProfile({0: 1}, *signs, signs[0] & signs[1])
    if isinstance(f, FoExists):
        body = ea_profile(f.body)
        if body is None:
            return None
        return EaProfile({k + 1: count for k, count in body.exists.items()},
                         body.positive, body.negative, body.mixed)
    if isinstance(f, (FoAnd, FoOr)):
        left, right = ea_profile(f.left), ea_profile(f.right)
        if left is None or right is None:
            return None
        mixed = left.mixed | right.mixed
        if isinstance(f, FoOr):
            exists = Counter(left.exists) + Counter(right.exists)
        else:
            exists = Counter()
            for j, m in left.exists.items():
                for k, n in right.exists.items():
                    exists[j + k] += m * n
            mixed |= (left.positive & right.negative) | (left.negative & right.positive)
        return EaProfile(dict(exists), left.positive | right.positive,
                         left.negative | right.negative, mixed)
    return EaProfile({0: 1}, none, none, none)


def ea_disjuncts(f: FoFormula) -> list[EaDisjunct]:
    """The disjuncts of an NNF formula whose profile is not None, with
    conjunction distributed over disjunction outside the universal
    parts."""
    if isinstance(f, FoFalse):
        return []
    if isinstance(f, FoTrue):
        return [EaDisjunct((), (), ())]
    if isinstance(f, FoForall):
        return [EaDisjunct((), (), (f,))]
    if isinstance(f, FoExists):
        return [EaDisjunct((f.var, *d.exists), d.literals, d.foralls) for d in ea_disjuncts(f.body)]
    if isinstance(f, FoOr):
        return ea_disjuncts(f.left) + ea_disjuncts(f.right)
    if isinstance(f, FoAnd):
        return [EaDisjunct(a.exists + b.exists, a.literals + b.literals, a.foralls + b.foralls)
                for a in ea_disjuncts(f.left) for b in ea_disjuncts(f.right)]
    return [EaDisjunct((), (f,), ())]


# ---------------------------------------------------------------------------
# SMT-LIB 2 emission


def _smt_expr(f: FoFormula) -> str:
    if isinstance(f, FoTrue):
        return "true"
    if isinstance(f, FoFalse):
        return "false"
    if isinstance(f, FoAtom):
        return f"({f.rel} {f.left} {f.right})"
    if isinstance(f, FoEq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, FoNot):
        return f"(not {_smt_expr(f.arg)})"
    if isinstance(f, FoAnd):
        return f"(and {_smt_expr(f.left)} {_smt_expr(f.right)})"
    if isinstance(f, FoOr):
        return f"(or {_smt_expr(f.left)} {_smt_expr(f.right)})"
    if isinstance(f, FoIff):
        return f"(= {_smt_expr(f.left)} {_smt_expr(f.right)})"
    if isinstance(f, FoExists):
        return f"(exists (({f.var} V)) {_smt_expr(f.body)})"
    if isinstance(f, FoForall):
        return f"(forall (({f.var} V)) {_smt_expr(f.body)})"
    raise FoError(f"unexpected formula {f!r}")  # pragma: no cover


def export_equation_smt2(lhs: Term, rhs: Term, min_size: int) -> str:
    """SMT-LIB 2 script; ``unsat`` certifies that the sides agree on
    every structure with at least min_size elements."""
    if min_size < 1:
        raise FoError("min_size must be at least 1")
    names = sorted(variables(lhs) | variables(rhs))
    goal = FoIff(standard_translation(lhs), standard_translation(rhs))
    lines = ["(set-logic UF)", "(declare-sort V 0)"]
    lines += [f"(declare-fun {name} (V V) Bool)" for name in names]
    if min_size >= 2:
        points = [f"p{i}" for i in range(1, min_size + 1)]
        decls = " ".join(f"({p} V)" for p in points)
        lines.append(f"(assert (exists ({decls}) (distinct {' '.join(points)})))")
    lines.append(f"(assert (not (forall ((x0 V) (y0 V)) {_smt_expr(goal)})))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TPTP FOF emission


def _tptp_var(name: str) -> str:
    return name.upper()


def _tptp_expr(f: FoFormula) -> str:
    if isinstance(f, FoTrue):
        return "$true"
    if isinstance(f, FoFalse):
        return "$false"
    if isinstance(f, FoAtom):
        return f"{f.rel}({_tptp_var(f.left)},{_tptp_var(f.right)})"
    if isinstance(f, FoEq):
        return f"({_tptp_var(f.left)} = {_tptp_var(f.right)})"
    if isinstance(f, FoNot):
        if isinstance(f.arg, FoEq):
            return f"({_tptp_var(f.arg.left)} != {_tptp_var(f.arg.right)})"
        return f"(~ {_tptp_expr(f.arg)})"
    if isinstance(f, FoAnd):
        return f"({_tptp_expr(f.left)} & {_tptp_expr(f.right)})"
    if isinstance(f, FoOr):
        return f"({_tptp_expr(f.left)} | {_tptp_expr(f.right)})"
    if isinstance(f, FoIff):
        return f"({_tptp_expr(f.left)} <=> {_tptp_expr(f.right)})"
    if isinstance(f, FoExists):
        return f"(? [{_tptp_var(f.var)}] : {_tptp_expr(f.body)})"
    if isinstance(f, FoForall):
        return f"(! [{_tptp_var(f.var)}] : {_tptp_expr(f.body)})"
    raise FoError(f"unexpected formula {f!r}")  # pragma: no cover


def export_equation_tptp(lhs: Term, rhs: Term, min_size: int) -> str:
    """TPTP FOF problem; ``Theorem`` certifies agreement on every
    structure with at least min_size elements."""
    if min_size < 1:
        raise FoError("min_size must be at least 1")
    goal = FoIff(standard_translation(lhs), standard_translation(rhs))
    lines = []
    if min_size >= 2:
        points = [f"P{i}" for i in range(1, min_size + 1)]
        diffs = " & ".join(f"{a} != {b}" for i, a in enumerate(points)
                           for b in points[i + 1:])
        lines.append(f"fof(at_least_{min_size}, axiom, ? [{', '.join(points)}] : ({diffs})).")
    lines.append(f"fof(equation, conjecture, ! [X0, Y0] : {_tptp_expr(goal)}).")
    return "\n".join(lines) + "\n"
