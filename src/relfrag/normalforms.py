"""Rewriting passes that funnel low-alternation terms toward the
{&, ;, I, D} signature.

Each pass applies a family of valid equations structurally, so
termination is plain structural recursion:

* ``complement_nf`` pushes complements down to variables (legal for
  terms of alternation level at most one, where complement never sits
  above a composition or dagger);
* ``projection_nf`` pushes projections down to variables, rewriting
  through composition and dagger with the four-case tables;
* ``expand_projections`` removes non-converse projections anywhere via
  p[1,1] = (p & I) ; top and p[2,2] = top ; (p & I);
* ``union_nf`` distributes unions out of intersections and
  compositions, returning the list of union-free disjuncts;
* ``collapse_constants`` replaces every maximal variable-free subterm
  by its constant class (exact on universes of size at least three);
* ``complement_dual`` produces, for a universal-level term, the
  existential-level term whose complement it is equivalent to.

No decision route runs these passes: ``decide`` settles one-occurrence
terms from their values on basis relations.  They remain a library
surface that ``perfbench/tracer.py`` and the tests look up by name.
"""

from __future__ import annotations

from .constants import REPRESENTATIVES, classify_const
from .terms import (BOT, DI, ID, TOP, Bot, Comp, Compl, Dagger, Di, Id, Inter,
                    PROJ_IDENTITY, PROJ_SWAP, Proj, Projection, Term, TermError,
                    Top, Union, Var, compose_projections, dotdagger_level, vo)


class NormalFormError(TermError):
    pass


class UnionBlowup(NormalFormError):
    """Distribution would exceed the configured disjunct ceiling."""


def complement_nf(t: Term) -> Term:
    """Push complements down to variables.  Requires alternation level
    at most one on either side of the hierarchy."""
    info = dotdagger_level(t)
    ok = (info.sigma_level is not None and info.sigma_level <= 1) or \
         (info.pi_level is not None and info.pi_level <= 1)
    if not ok:
        raise NormalFormError("complement normal form needs alternation level <= 1")
    return _cnf(t, False)


def _cnf(t: Term, neg: bool) -> Term:
    if isinstance(t, Var):
        return Compl(t) if neg else t
    if isinstance(t, Bot):
        return TOP if neg else BOT
    if isinstance(t, Top):
        return BOT if neg else TOP
    if isinstance(t, Id):
        return DI if neg else ID
    if isinstance(t, Di):
        return ID if neg else DI
    if isinstance(t, Union):
        ctor = Inter if neg else Union
        return ctor(_cnf(t.left, neg), _cnf(t.right, neg))
    if isinstance(t, Inter):
        ctor = Union if neg else Inter
        return ctor(_cnf(t.left, neg), _cnf(t.right, neg))
    if isinstance(t, Compl):
        return _cnf(t.arg, not neg)
    if isinstance(t, Proj):
        return Proj(_cnf(t.arg, neg), t.proj)
    if isinstance(t, (Comp, Dagger)):
        if neg:  # excluded by the level precondition
            raise NormalFormError("complement above composition or dagger")
        return type(t)(_cnf(t.left, False), _cnf(t.right, False))
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


def projection_nf(t: Term) -> Term:
    """Push projections down to variables; identity projections vanish.
    """
    if isinstance(t, Proj):
        return _push_proj(t.arg, t.proj)
    if isinstance(t, (Union, Inter, Comp, Dagger)):
        return type(t)(projection_nf(t.left), projection_nf(t.right))
    if isinstance(t, Compl):
        return Compl(projection_nf(t.arg))
    return t


def _push_proj(t: Term, proj: Projection) -> Term:
    if proj == PROJ_IDENTITY:
        return projection_nf(t)
    injective = proj.img1 != proj.img2
    if isinstance(t, Var):
        return Proj(t, proj)
    if isinstance(t, Bot):
        return BOT
    if isinstance(t, Top):
        return TOP
    if isinstance(t, Id):
        return ID if injective else TOP
    if isinstance(t, Di):
        return DI if injective else BOT
    if isinstance(t, (Union, Inter)):
        return type(t)(_push_proj(t.left, proj), _push_proj(t.right, proj))
    if isinstance(t, Compl):
        return Compl(_push_proj(t.arg, proj))
    if isinstance(t, Proj):
        return _push_proj(t.arg, compose_projections(t.proj, proj))
    if isinstance(t, Comp):
        if proj == PROJ_SWAP:
            return Comp(_push_proj(t.right, PROJ_SWAP), _push_proj(t.left, PROJ_SWAP))
        if proj.img1 == 1:  # both coordinates read the source
            return Comp(Inter(projection_nf(t.left), _push_proj(t.right, PROJ_SWAP)), TOP)
        return Comp(TOP, Inter(_push_proj(t.left, PROJ_SWAP), projection_nf(t.right)))
    if isinstance(t, Dagger):
        if proj == PROJ_SWAP:
            return Dagger(_push_proj(t.right, PROJ_SWAP), _push_proj(t.left, PROJ_SWAP))
        if proj.img1 == 1:
            return Dagger(Union(projection_nf(t.left), _push_proj(t.right, PROJ_SWAP)), BOT)
        return Dagger(BOT, Union(_push_proj(t.left, PROJ_SWAP), projection_nf(t.right)))
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


def expand_projections(t: Term) -> Term:
    """Remove every non-converse projection; converse stays put."""
    if isinstance(t, (Union, Inter, Comp, Dagger)):
        return type(t)(expand_projections(t.left), expand_projections(t.right))
    if isinstance(t, Compl):
        return Compl(expand_projections(t.arg))
    if isinstance(t, Proj):
        arg = expand_projections(t.arg)
        if t.proj == PROJ_IDENTITY:
            return arg
        if t.proj == PROJ_SWAP:
            return Proj(arg, PROJ_SWAP)
        if t.proj.img1 == 1:
            return Comp(Inter(arg, ID), TOP)
        return Comp(TOP, Inter(arg, ID))
    return t


def _is_literal(t: Term) -> bool:
    # a variable under any stack of complements and converses
    while isinstance(t, (Compl, Proj)):
        if isinstance(t, Proj) and t.proj != PROJ_SWAP:
            return False
        t = t.arg
    return isinstance(t, Var)


DEFAULT_UNION_CEILING = 10**6


def union_nf(t: Term, ceiling: int = DEFAULT_UNION_CEILING) -> list[Term]:
    """Union-free disjuncts whose union is equivalent to t.  Accepts
    terms over {|, &, ;, I, D} with variables possibly wearing
    complements and converses; distribution may blow up exponentially,
    so a disjunct ceiling aborts oversized inputs."""
    disjuncts = _unf(t, ceiling)
    return disjuncts


def _unf(t: Term, ceiling: int) -> list[Term]:
    if isinstance(t, (Id, Di, Bot, Top, Var)) or _is_literal(t):
        return [t]
    if isinstance(t, Union):
        left = _unf(t.left, ceiling)
        right = _unf(t.right, ceiling)
        if len(left) + len(right) > ceiling:
            raise UnionBlowup(f"more than {ceiling} disjuncts")
        return left + right
    if isinstance(t, (Inter, Comp)):
        left = _unf(t.left, ceiling)
        right = _unf(t.right, ceiling)
        if len(left) * len(right) > ceiling:
            raise UnionBlowup(f"more than {ceiling} disjuncts")
        return [type(t)(a, b) for a in left for b in right]
    raise NormalFormError(f"union normal form got an unsupported node: {t!r}")


def collapse_constants(t: Term) -> Term:
    """Replace every maximal variable-free subterm by its constant
    class representative (exact on universes of size at least three).
    """
    if vo(t) == 0:
        return REPRESENTATIVES[classify_const(t)]
    if isinstance(t, (Union, Inter, Comp, Dagger)):
        return type(t)(collapse_constants(t.left), collapse_constants(t.right))
    if isinstance(t, Compl):
        return Compl(collapse_constants(t.arg))
    if isinstance(t, Proj):
        return Proj(collapse_constants(t.arg), t.proj)
    return t


def complement_dual(t: Term) -> Term:
    """For t of universal level n, the level-n existential term whose
    complement is equivalent to t (everywhere)."""
    info = dotdagger_level(t)
    if info.pi_level is None:
        raise NormalFormError("complement_dual needs a term inside the alternation hierarchy")
    return _dual(t)


def _dual(t: Term) -> Term:
    if isinstance(t, Var):
        return Compl(t)
    if isinstance(t, Bot):
        return TOP
    if isinstance(t, Top):
        return BOT
    if isinstance(t, Id):
        return DI
    if isinstance(t, Di):
        return ID
    if isinstance(t, Union):
        return Inter(_dual(t.left), _dual(t.right))
    if isinstance(t, Inter):
        return Union(_dual(t.left), _dual(t.right))
    if isinstance(t, Compl):
        return t.arg
    if isinstance(t, Comp):
        return Dagger(_dual(t.left), _dual(t.right))
    if isinstance(t, Dagger):
        return Comp(_dual(t.left), _dual(t.right))
    if isinstance(t, Proj):
        return Proj(_dual(t.arg), t.proj)
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover
