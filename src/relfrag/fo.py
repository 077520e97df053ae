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

from typing import Union as TUnion

from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, Top, Union, Var,
                    CHILDREN, fold, record, variables)


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
CHILDREN.update({**dict.fromkeys((FoAnd, FoOr, FoIff), lambda f: (f.left, f.right)),
                 **dict.fromkeys((FoExists, FoForall), lambda f: (f.body,)),
                 FoNot: lambda f: (f.arg,)})


def standard_translation(t: Term, x: str = "x0", y: str = "y0") -> FoFormula:
    """First-order formula with free point variables x and y whose
    truth at (u, v) coincides with membership of (u, v) in the term's
    value, on every structure."""
    return fold(t, _TRANSLATE, (x, y, {"x": 0, "y": 0}), _TRANSLATE_DOWN)


def _middle_point(t: TUnion[Comp, Dagger], points):
    # drawn when the walk reaches the node, so in preorder, from the pool
    # opposite to the source argument, and handed to the node's own up
    x, y, pool = points
    side = "y" if x.startswith("x") else "x"
    pool[side] += 1
    z = f"{side}{pool[side]}"
    return z, ((t.left, (x, z, pool)), (t.right, (z, y, pool)))


# the walk carries the points x, y and the pool: names drawn per side
_TRANSLATE_DOWN = {Comp: _middle_point, Dagger: _middle_point, Proj: lambda t, p: (
    p, ((t.arg, (p[t.proj.img1 - 1], p[t.proj.img2 - 1], p[2])),))}
_TRANSLATE = {Var: lambda t, p: FoAtom(t.name, p[0], p[1]),
              Bot: lambda t, p: FoFalse(), Top: lambda t, p: FoTrue(),
              Id: lambda t, p: FoEq(p[0], p[1]),
              Di: lambda t, p: FoNot(FoEq(p[0], p[1])),
              Union: lambda t, p, left, right: FoOr(left, right),
              Inter: lambda t, p, left, right: FoAnd(left, right),
              Compl: lambda t, p, arg: FoNot(arg),
              Comp: lambda t, z, left, right: FoExists(z, FoAnd(left, right)),
              Dagger: lambda t, z, left, right: FoForall(z, FoOr(left, right)),
              Proj: lambda t, p, arg: arg}


# ---------------------------------------------------------------------------
# SMT-LIB 2 emission


_SMT = {FoTrue: lambda f, c: "true",
        FoFalse: lambda f, c: "false",
        FoAtom: lambda f, c: f"({f.rel} {f.left} {f.right})",
        FoEq: lambda f, c: f"(= {f.left} {f.right})",
        FoNot: lambda f, c, arg: f"(not {arg})",
        FoAnd: lambda f, c, left, right: f"(and {left} {right})",
        FoOr: lambda f, c, left, right: f"(or {left} {right})",
        FoIff: lambda f, c, left, right: f"(= {left} {right})",
        FoExists: lambda f, c, body: f"(exists (({f.var} V)) {body})",
        FoForall: lambda f, c, body: f"(forall (({f.var} V)) {body})"}


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
    lines.append(f"(assert (not (forall ((x0 V) (y0 V)) {fold(goal, _SMT)})))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# TPTP FOF emission


# point names in upper case are TPTP variables; x != y negates x = y
_TPTP = {FoTrue: lambda f, c: "$true",
         FoFalse: lambda f, c: "$false",
         FoAtom: lambda f, c: f"{f.rel}({f.left.upper()},{f.right.upper()})",
         FoEq: lambda f, c: f"({f.left.upper()} = {f.right.upper()})",
         FoNot: lambda f, c, arg: (f"({f.arg.left.upper()} != {f.arg.right.upper()})"
                                   if isinstance(f.arg, FoEq) else f"(~ {arg})"),
         FoAnd: lambda f, c, left, right: f"({left} & {right})",
         FoOr: lambda f, c, left, right: f"({left} | {right})",
         FoIff: lambda f, c, left, right: f"({left} <=> {right})",
         FoExists: lambda f, c, body: f"(? [{f.var.upper()}] : {body})",
         FoForall: lambda f, c, body: f"(! [{f.var.upper()}] : {body})"}


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
    lines.append(f"fof(equation, conjecture, ! [X0, Y0] : {fold(goal, _TPTP)}).")
    return "\n".join(lines) + "\n"
