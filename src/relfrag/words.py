"""One-hole contexts and the four-letter context alphabet.

A context letter wraps a term in one constructor application whose
other slots are filled with variable-free terms; a word (sequence of
letters, leftmost outermost) therefore denotes a unary map on terms.
The four-letter core alphabet is

    iI  =  (_ & I)      iD  =  (_ & D)
    cD  =  (_ ; D)      cv  =  _^        (converse)

and every {&, ;, I, D, ^}-letter reduces to an equivalent word over it
(valid on universes of size at least five): intersection letters by the
class of the filler, composition letters likewise, and left-slot
composition through conjugation with converse.

Word text format: whitespace-separated tokens iI / iD / cD / cv, with
``eps`` denoting the empty word.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

from .constants import ConstClass, classify_const
from .terms import (DI, ID, Comp, Compl, Dagger, Inter, Proj, Projection,
                    PROJ_SWAP, Term, TermError, Union, record, vo)


class WordError(TermError):
    pass


class Letter(enum.IntEnum):
    """Core alphabet; the integer order is the lexicographic order
    iI < iD < cD < cv used by shortlex."""

    CAP_I = 0
    CAP_D = 1
    DOT_D = 2
    CONV = 3


CAP_I, CAP_D, DOT_D, CONV = Letter
LETTERS = (CAP_I, CAP_D, DOT_D, CONV)
LETTER_TOKENS = {CAP_I: "iI", CAP_D: "iD", DOT_D: "cD", CONV: "cv"}
_TOKEN_LETTERS = {v: k for k, v in LETTER_TOKENS.items()}

Word = tuple[Letter, ...]

EPSILON: Word = ()


def parse_word(text: str) -> Word:
    tokens = text.split()
    if tokens == ["eps"]:
        return EPSILON
    out = []
    for tok in tokens:
        if tok not in _TOKEN_LETTERS:
            raise WordError(f"unknown letter token {tok!r} (expected iI, iD, cD, cv or eps)")
        out.append(_TOKEN_LETTERS[tok])
    if not out:
        raise WordError("empty word text; write 'eps' for the empty word")
    return tuple(out)


def format_word(w: Word) -> str:
    return " ".join(LETTER_TOKENS[x] for x in w) if w else "eps"


def shortlex_key(w: Word) -> tuple[int, Word]:
    return (len(w), w)


@record
class GeneralLetter:
    """One constructor with one blank slot.

    kind is union/inter/comp/dagger (binary: hole 1 or 2, filler set),
    compl, or proj (carrying the projection map).  Fillers must be
    variable-free.
    """

    kind: str
    hole: int = 1
    filler: Optional[Term] = None
    proj: Optional[Projection] = None

    _BINARY = {"union": Union, "inter": Inter, "comp": Comp, "dagger": Dagger}

    def __post_init__(self) -> None:
        if self.kind in self._BINARY:
            if self.hole not in (1, 2) or self.filler is None:
                raise WordError(f"binary letter {self.kind!r} needs hole in {{1,2}} and a filler")
            if vo(self.filler) != 0:
                raise WordError("letter fillers must be variable-free")
        elif self.kind == "compl":
            if self.filler is not None or self.proj is not None:
                raise WordError("complement letters take no filler or projection")
        elif self.kind == "proj":
            if self.proj is None or self.filler is not None:
                raise WordError("projection letters carry exactly a projection map")
        else:
            raise WordError(f"unknown letter kind {self.kind!r}")

    def build(self, t: Term) -> Term:
        if self.kind in self._BINARY:
            ctor = self._BINARY[self.kind]
            return ctor(t, self.filler) if self.hole == 1 else ctor(self.filler, t)
        if self.kind == "compl":
            return Compl(t)
        return Proj(t, self.proj)


# the core letters' contexts, built and validated once
_CONTEXTS = {CAP_I: GeneralLetter("inter", 1, ID), CAP_D: GeneralLetter("inter", 1, DI),
             DOT_D: GeneralLetter("comp", 1, DI), CONV: GeneralLetter("proj", proj=PROJ_SWAP)}


def apply_word(w: Sequence["Letter | GeneralLetter"], t: Term) -> Term:
    """Fill the word's hole with t; the first letter of the word is the
    outermost constructor of the result."""
    for letter in reversed(w):
        # only core letters are looked up: a GeneralLetter's hash walks its filler
        t = (_CONTEXTS[letter] if isinstance(letter, Letter) else letter).build(t)
    return t


def decompose_1vo(t: Term) -> tuple[list[GeneralLetter], Term]:
    """Peel a term with at most one variable occurrence into a context
    word (leftmost outermost) and a base that is a variable or a
    constant leaf; apply_word inverts it exactly."""
    if vo(t) >= 2:
        raise WordError(f"decompose_1vo needs at most 1 variable occurrence, got {vo(t)}")
    letters: list[GeneralLetter] = []
    while True:
        if isinstance(t, (Union, Inter, Comp, Dagger)):
            kind = {Union: "union", Inter: "inter", Comp: "comp", Dagger: "dagger"}[type(t)]
            if vo(t.left) == 1 or vo(t) == 0:
                # hole on the left; variable-free terms descend left too
                letters.append(GeneralLetter(kind, 1, t.right))
                t = t.left
            else:
                letters.append(GeneralLetter(kind, 2, t.left))
                t = t.right
        elif isinstance(t, Compl):
            letters.append(GeneralLetter("compl"))
            t = t.arg
        elif isinstance(t, Proj):
            letters.append(GeneralLetter("proj", proj=t.proj))
            t = t.arg
        else:
            return letters, t


_INTER_REDUCTION = {
    ConstClass.BOT: (CAP_I, CAP_D),
    ConstClass.TOP: (),
    ConstClass.ID: (CAP_I,),
    ConstClass.DI: (CAP_D,),
}
_COMP_REDUCTION = {
    ConstClass.BOT: (CAP_I, CAP_D),
    ConstClass.TOP: (DOT_D, DOT_D),
    ConstClass.ID: (),
    ConstClass.DI: (DOT_D,),
}


def reduce_letter(x: GeneralLetter) -> Word:
    """An equivalent core-alphabet word for a {&, ;, I, D, ^}-letter,
    valid on universes of size at least five.

    Intersection commutes, so both slots reduce by the filler's class;
    a left-slot composition (h ; _) becomes cv (_ ; h) cv since the
    four constant classes are converse-invariant.
    """
    if x.kind == "proj":
        if x.proj == PROJ_SWAP:
            return (CONV,)
        raise WordError(f"projection {x.proj!r} is outside the core signature; only converse reduces")
    if x.kind == "inter":
        return _INTER_REDUCTION[classify_const(x.filler)]
    if x.kind == "comp":
        inner = _COMP_REDUCTION[classify_const(x.filler)]
        return inner if x.hole == 1 else (CONV, *inner, CONV)
    raise WordError(f"letter kind {x.kind!r} has no core-alphabet reduction")


def reduce_letters(letters: Iterable[GeneralLetter]) -> Word:
    out: list[Letter] = []
    for x in letters:
        out.extend(reduce_letter(x))
    return tuple(out)
