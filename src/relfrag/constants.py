"""The four-element quotient of variable-free terms on universes of
size at least three.

Every variable-free term evaluates, on every structure with at least
three elements, to the same relation as one of bot, top, I, D.  The
class of a term is computed bottom-up through Cayley tables.  The
tables for intersection, complement, composition and converse are
transcribed; the tables for union, dagger and the non-swap projections
are derived at import time from the identities

    x | y  =  (x~ & y~)~        x $ y  =  (x~ ; y~)~
    x[1,1] =  (x & I) ; top     x[2,2] =  top ; (x & I)

and every entry is re-validated semantically in the test suite.
"""

from __future__ import annotations

import enum
from typing import Optional

from .terms import (ALL_PROJECTIONS, BOT, DI, ID, TOP, Bot, Comp, Compl, Dagger, Di,
                    Id, Inter, Proj, Projection, PROJ_BOTH_1, PROJ_IDENTITY,
                    PROJ_SWAP, Term, TermError, Top, Union, Var, record, vo)


class ConstClass(enum.Enum):
    BOT = "bot"
    TOP = "top"
    ID = "I"
    DI = "D"


_B, _T, _I, _D = ConstClass.BOT, ConstClass.TOP, ConstClass.ID, ConstClass.DI

REPRESENTATIVES: dict[ConstClass, Term] = {_B: BOT, _T: TOP, _I: ID, _D: DI}

# Transcribed tables (rows are the left operand).
_INTER = {
    (_T, _T): _T, (_T, _B): _B, (_T, _I): _I, (_T, _D): _D,
    (_B, _T): _B, (_B, _B): _B, (_B, _I): _B, (_B, _D): _B,
    (_I, _T): _I, (_I, _B): _B, (_I, _I): _I, (_I, _D): _B,
    (_D, _T): _D, (_D, _B): _B, (_D, _I): _B, (_D, _D): _D,
}
_COMPL = {_T: _B, _B: _T, _I: _D, _D: _I}
_COMP = {
    (_T, _T): _T, (_T, _B): _B, (_T, _I): _T, (_T, _D): _T,
    (_B, _T): _B, (_B, _B): _B, (_B, _I): _B, (_B, _D): _B,
    (_I, _T): _T, (_I, _B): _B, (_I, _I): _I, (_I, _D): _D,
    (_D, _T): _T, (_D, _B): _B, (_D, _I): _D, (_D, _D): _T,
}
_CONV = {_T: _T, _B: _B, _I: _I, _D: _D}

# Derived tables.
_UNION = {(x, y): _COMPL[_INTER[(_COMPL[x], _COMPL[y])]]
          for x in ConstClass for y in ConstClass}
_DAGGER = {(x, y): _COMPL[_COMP[(_COMPL[x], _COMPL[y])]]
           for x in ConstClass for y in ConstClass}


def _derived_projection(proj: Projection) -> dict[ConstClass, ConstClass]:
    if proj == PROJ_IDENTITY:
        return {x: x for x in ConstClass}
    if proj == PROJ_SWAP:
        return dict(_CONV)
    if proj == PROJ_BOTH_1:
        return {x: _COMP[(_INTER[(x, _I)], _T)] for x in ConstClass}
    return {x: _COMP[(_T, _INTER[(x, _I)])] for x in ConstClass}


_PROJ_TABLES = {proj: _derived_projection(proj) for proj in ALL_PROJECTIONS}


class ConstError(TermError):
    pass


def classify_const(t: Term) -> ConstClass:
    """Equivalence class of a variable-free term on universes of size
    at least three, computed bottom-up."""
    if isinstance(t, Var):
        raise ConstError(f"term contains the variable {t.name!r}; classification needs vo = 0")
    if isinstance(t, Bot):
        return _B
    if isinstance(t, Top):
        return _T
    if isinstance(t, Id):
        return _I
    if isinstance(t, Di):
        return _D
    if isinstance(t, Union):
        return _UNION[(classify_const(t.left), classify_const(t.right))]
    if isinstance(t, Inter):
        return _INTER[(classify_const(t.left), classify_const(t.right))]
    if isinstance(t, Compl):
        return _COMPL[classify_const(t.arg)]
    if isinstance(t, Comp):
        return _COMP[(classify_const(t.left), classify_const(t.right))]
    if isinstance(t, Dagger):
        return _DAGGER[(classify_const(t.left), classify_const(t.right))]
    if isinstance(t, Proj):
        return _PROJ_TABLES[t.proj][classify_const(t.arg)]
    raise ConstError(f"unexpected term {t!r}")  # pragma: no cover


@record
class ZeroVoVerdict:
    """Outcome of the exact variable-free decision."""

    equivalent: bool
    left_class: ConstClass
    right_class: ConstClass
    witness: Optional[Structure]  # separating structure when inequivalent
    checked_small_sizes: tuple[int, ...]


def decide_0vo(t1: Term, t2: Term, min_size: int = 1) -> ZeroVoVerdict:
    """Exact equivalence of two variable-free terms over all structures
    of size >= min_size.

    Classes decide sizes >= 3 outright; for min_size < 3 the (unique)
    variable-free structures of the remaining small sizes are evaluated
    exhaustively.
    """
    from .semantics import Structure, eval_term  # only when a verdict is needed; scalar, no kernel

    if vo(t1) != 0 or vo(t2) != 0:
        raise ConstError("decide_0vo needs variable-free terms on both sides")
    if min_size < 1:
        raise ConstError("min_size must be at least 1")
    c1, c2 = classify_const(t1), classify_const(t2)
    small = tuple(s for s in range(min_size, 3))
    for s in small:
        m = Structure(s, {})
        if eval_term(t1, m) != eval_term(t2, m):
            return ZeroVoVerdict(False, c1, c2, m, small)
    if c1 == c2:
        return ZeroVoVerdict(True, c1, c2, None, small)
    # Classes differ, so the representatives (hence the terms) differ on
    # every structure of size >= 3.
    m = Structure(max(3, min_size), {})
    assert eval_term(t1, m) != eval_term(t2, m)
    return ZeroVoVerdict(False, c1, c2, m, small)
