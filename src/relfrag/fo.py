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

from typing import NamedTuple, Optional, Union as TUnion

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


def standard_translations(terms: tuple[Term, ...]) -> tuple[FoFormula, ...]:
    """Standard translations of several terms in x0 and y0, with their
    bound names drawn from one pool, so no bound name occurs in two of
    them."""
    pool = {"x": 0, "y": 0}
    return tuple(fold(t, _TRANSLATE, ("x0", "y0", pool), _TRANSLATE_DOWN) for t in terms)


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
# Negation normal form and the disjuncts of an ∃*∀* formula


def _junction(conj: bool, left: FoFormula, right: FoFormula) -> FoFormula:
    # a conjunction (disjunction) of two NNF formulas, constants folded
    zero, unit = (FoFalse, FoTrue) if conj else (FoTrue, FoFalse)
    if isinstance(left, zero) or isinstance(right, zero):
        return zero()
    if isinstance(left, unit):
        return right
    if isinstance(right, unit):
        return left
    return FoAnd(left, right) if conj else FoOr(left, right)


# the walk carries the polarity; a <=> b is (a & b) | (~a & ~b), so its
# children are a and b under each polarity
_NNF_DOWN = {FoNot: lambda f, pos: (pos, ((f.arg, not pos),)),
             FoIff: lambda f, pos: (pos, ((f.left, pos), (f.right, pos),
                                          (f.left, not pos), (f.right, not pos)))}
_NNF = {**dict.fromkeys((FoAtom, FoEq), lambda f, pos: f if pos else FoNot(f)),
        **dict.fromkeys((FoTrue, FoFalse), lambda f, pos: (FoTrue if isinstance(f, FoTrue) == pos
                                                           else FoFalse)()),
        FoNot: lambda f, pos, arg: arg,
        FoAnd: lambda f, pos, left, right: _junction(pos, left, right),
        FoOr: lambda f, pos, left, right: _junction(not pos, left, right),
        FoIff: lambda f, pos, left, right, left_neg, right_neg: _junction(
            not pos, _junction(pos, left, right), _junction(pos, left_neg, right_neg)),
        **dict.fromkeys((FoExists, FoForall), lambda f, pos, body: (
            body if isinstance(body, (FoTrue, FoFalse))
            else (FoExists if isinstance(f, FoExists) == pos else FoForall)(f.var, body)))}


def nnf(f: FoFormula, positive: bool = True) -> FoFormula:
    """Negation normal form of f (of its negation when ``positive`` is
    False): negations only on atoms and equalities, no FoIff, and FoTrue
    or FoFalse only as the whole formula.  Universes are non-empty, so
    a quantifier over a constant is that constant."""
    return fold(f, _NNF, positive, _NNF_DOWN)


_NONE = frozenset()
# a literal and an existential are read whole, without their children
_SIGNS_DOWN = dict.fromkeys((FoNot, FoIff, FoExists), lambda f, c: (c, ()))
_SIGNS = {FoExists: lambda f, c: None,
          FoAtom: lambda f, c: (frozenset({f.rel}), _NONE),
          FoNot: lambda f, c: (_NONE, frozenset({f.arg.rel} if isinstance(f.arg, FoAtom) else ())),
          **dict.fromkeys((FoAnd, FoOr), lambda f, c, a, b: (
              None if a is None or b is None else (a[0] | b[0], a[1] | b[1]))),
          FoForall: lambda f, c, body: body,
          **dict.fromkeys((FoEq, FoIff, FoTrue, FoFalse), lambda f, c: (_NONE, _NONE))}


def universal_polarities(f: FoFormula) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """The predicates that occur positively and those that occur
    negatively in an NNF formula; None if it has an existential."""
    return fold(f, _SIGNS, None, _SIGNS_DOWN)


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
    disjunct, ``mixed`` those with both in the universal parts of one;
    ``universals`` maps each maximal universal subformula's bound name
    to its ``universal_polarities``."""

    exists: dict[int, int]
    positive: frozenset[str]
    negative: frozenset[str]
    mixed: frozenset[str]
    universals: Optional[dict[str, tuple[frozenset[str], frozenset[str]]]] = None


def _profile_of_pair(f: TUnion[FoAnd, FoOr], c, left: Optional[EaProfile],
                     right: Optional[EaProfile]) -> Optional[EaProfile]:
    if left is None or right is None:
        return None
    mixed = left.mixed | right.mixed
    if isinstance(f, FoOr):
        exists = dict(left.exists)
        for k, n in right.exists.items():
            exists[k] = exists.get(k, 0) + n
    else:
        exists = {}
        for j, m in left.exists.items():
            for k, n in right.exists.items():
                exists[j + k] = exists.get(j + k, 0) + m * n
        mixed |= (left.positive & right.negative) | (left.negative & right.positive)
    return EaProfile(exists, left.positive | right.positive,
                     left.negative | right.negative, mixed)


# a literal and a universal subformula are read whole; the profile's
# context collects each universal subformula's polarities by bound name
_DISJUNCT_DOWN = dict.fromkeys((FoNot, FoIff, FoForall), lambda f, c: (c, ()))
_PROFILE = {FoFalse: lambda f, c: EaProfile({}, _NONE, _NONE, _NONE),
            FoForall: lambda f, c: (None if (signs := c.setdefault(f.var, universal_polarities(f)))
                                    is None else EaProfile({0: 1}, *signs, signs[0] & signs[1])),
            FoExists: lambda f, c, body: None if body is None else EaProfile(
                {k + 1: count for k, count in body.exists.items()}, *body[1:]),
            **dict.fromkeys((FoAnd, FoOr), _profile_of_pair),
            **dict.fromkeys((FoTrue, FoAtom, FoEq, FoNot, FoIff),
                            lambda f, c: EaProfile({0: 1}, _NONE, _NONE, _NONE))}


def ea_profile(f: FoFormula) -> Optional[EaProfile]:
    """Profile of an NNF formula whose bound names are distinct; None if
    an existential sits below a universal.  It walks each universal
    subformula once; ``universals`` keeps what the walk read."""
    signs: dict = {}
    profile = fold(f, _PROFILE, signs, _DISJUNCT_DOWN)
    return profile and profile._replace(universals=signs)


_DISJUNCTS = {FoFalse: lambda f, c: [],
              FoTrue: lambda f, c: [EaDisjunct((), (), ())],
              FoForall: lambda f, c: [EaDisjunct((), (), (f,))],
              FoExists: lambda f, c, body: [EaDisjunct((f.var, *d.exists), d.literals, d.foralls)
                                            for d in body],
              FoOr: lambda f, c, left, right: left + right,
              FoAnd: lambda f, c, left, right: [
                  EaDisjunct(a.exists + b.exists, a.literals + b.literals, a.foralls + b.foralls)
                  for a in left for b in right],
              **dict.fromkeys((FoAtom, FoEq, FoNot, FoIff),
                              lambda f, c: [EaDisjunct((), (f,), ())])}


def ea_disjuncts(f: FoFormula) -> list[EaDisjunct]:
    """The disjuncts of an NNF formula whose profile is not None, with
    conjunction distributed over disjunction outside the universal
    parts."""
    return fold(f, _DISJUNCTS, None, _DISJUNCT_DOWN)


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
