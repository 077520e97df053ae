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

``export_equation_smt2`` / ``export_equation_tptp`` emit a script whose
unsatisfiability (resp. theoremhood) certifies that the two sides agree
on every structure with at least ``min_size`` elements: the script
asserts a pairwise-distinctness axiom for min_size points and the
negated universally closed equivalence.  Emission is deterministic and
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as TUnion

from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term,
                    TermError, Top, Union, Var, variables)
from .words import Word, apply_word


class FoError(ValueError):
    pass


@dataclass(frozen=True)
class FoTrue:
    pass


@dataclass(frozen=True)
class FoFalse:
    pass


@dataclass(frozen=True)
class FoAtom:
    rel: str
    left: str
    right: str


@dataclass(frozen=True)
class FoEq:
    left: str
    right: str


@dataclass(frozen=True)
class FoNot:
    arg: "FoFormula"


@dataclass(frozen=True)
class FoAnd:
    left: "FoFormula"
    right: "FoFormula"


@dataclass(frozen=True)
class FoOr:
    left: "FoFormula"
    right: "FoFormula"


@dataclass(frozen=True)
class FoIff:
    left: "FoFormula"
    right: "FoFormula"


@dataclass(frozen=True)
class FoExists:
    var: str
    body: "FoFormula"


@dataclass(frozen=True)
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


def word_translation(w: Word, var: str = "a") -> FoFormula:
    return standard_translation(apply_word(w, Var(var)))


def alpha_equivalent(f: FoFormula, g: FoFormula) -> bool:
    """Equality up to a consistent renaming of bound variables; free
    variables must match exactly."""
    return _canon(f, {}, [0]) == _canon(g, {}, [0])


def _canon(f: FoFormula, bound: dict[str, str], counter: list[int]):
    if isinstance(f, (FoTrue, FoFalse)):
        return type(f).__name__
    if isinstance(f, FoAtom):
        return ("atom", f.rel, bound.get(f.left, f.left), bound.get(f.right, f.right))
    if isinstance(f, FoEq):
        return ("eq", bound.get(f.left, f.left), bound.get(f.right, f.right))
    if isinstance(f, FoNot):
        return ("not", _canon(f.arg, bound, counter))
    if isinstance(f, (FoAnd, FoOr, FoIff)):
        return (type(f).__name__, _canon(f.left, bound, counter),
                _canon(f.right, bound, counter))
    if isinstance(f, (FoExists, FoForall)):
        counter[0] += 1
        name = f"_b{counter[0]}"
        return (type(f).__name__, _canon(f.body, {**bound, f.var: name}, counter))
    raise FoError(f"unexpected formula {f!r}")  # pragma: no cover


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
