"""Rewriting passes that funnel low-alternation terms toward the
{&, ;, I, D} signature.

Each pass applies a family of valid equations structurally, so
termination is plain structural recursion:

* ``complement_nf`` pushes complements down to variables on every
  term; it lives in ``terms``, on the walk every pass there runs on,
  and is bound here as well;
* ``projection_nf`` pushes projections down to variables, rewriting
  through composition and dagger with the four-case tables;
* ``expand_projections`` removes non-converse projections anywhere via
  p[1,1] = (p & I) ; top and p[2,2] = top ; (p & I);
* ``union_nf`` distributes unions out of intersections and
  compositions, returning the list of union-free disjuncts.

No decision route runs these passes: ``decide`` settles one-occurrence
terms from their values on basis relations.  They remain a library
surface that ``perfbench/tracer.py`` and the tests look up by name.
"""

from __future__ import annotations

from .terms import (BOT, DI, ID, TOP, Bot, Comp, Compl, Dagger, Di, Id, Inter,
                    PROJ_IDENTITY, PROJ_SWAP, Proj, Projection, Term, TermError,
                    Top, Union, Var, compose_projections)
from .terms import complement_nf  # noqa: F401  (callers look the pass up here)


class NormalFormError(TermError):
    pass


class UnionBlowup(NormalFormError):
    """Distribution would exceed the configured disjunct ceiling."""


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
