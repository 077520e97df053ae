"""Terms of the calculus of relations.

A term is built from variables and the constants bot, top, I (identity)
and D (difference/diversity) with union, intersection, complement,
composition, dagger (relative sum) and the four binary-relation
projections.  Converse is not a separate constructor: it is the
projection that swaps both coordinates.

Concrete syntax (tightest first): postfix ``^`` (converse), ``~``
(complement) and ``[d,d]`` (projection), then ``;`` (composition),
``$`` (dagger), ``&`` (intersection), ``|`` (union).  All infixes are
left-associative.  Example: ``a ; (b $ c) & I`` parses as
``(a ; (b $ c)) & I``.
"""

from __future__ import annotations

from typing import Iterator


class TermError(ValueError):
    """Raised for malformed terms or violated operation preconditions."""


def record(cls):
    """Class decorator for this package's immutable value classes, with
    the semantics of the standard library's frozen data classes:
    ``__init__`` takes the annotated fields positionally or by keyword,
    with their class-body defaults, and calls ``__post_init__`` if there
    is one; ``==`` holds between instances of one class with equal
    fields; ``hash`` is the hash of the tuple of fields; ``repr`` is
    ``Name(field=value, ...)``; assigning or deleting an attribute
    raises ``AttributeError``.  The three methods are generated as
    source and compiled with one ``exec`` per class, as
    ``collections.namedtuple`` does: building a class costs a few
    microseconds instead of a fraction of a millisecond, and no command
    imports ``inspect``."""
    names = tuple(cls.__annotations__)
    defaults = {f"_d_{n}": vars(cls)[n] for n in names if n in vars(cls)}
    this = "(" + "".join(f"self.{n}, " for n in names) + ")"
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in defaults else f", {n}" for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    source = (f"def __init__(self{params}):{body or ' pass'}\n"
              "def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return {this} == {this.replace('self.', 'other.')}\n"
              "    return NotImplemented\n"
              f"def __hash__(self):\n    return hash({this})\n")
    namespace = {"_set": object.__setattr__, **defaults}
    exec(source, namespace)
    cls.__init__, cls.__eq__, cls.__hash__ = namespace["__init__"], namespace["__eq__"], namespace["__hash__"]
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _record_repr, _frozen, _frozen
    cls._record_fields = names
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._record_fields)
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is immutable")


@record
class Projection:
    """A total map on {1, 2}: coordinate i of the result reads input
    coordinate ``img(i)``.  Exactly four values exist."""

    img1: int
    img2: int

    def __post_init__(self) -> None:
        if self.img1 not in (1, 2) or self.img2 not in (1, 2):
            raise TermError(f"projection images must be 1 or 2, got {self!r}")

    def img(self, i: int) -> int:
        return self.img1 if i == 1 else self.img2


PROJ_IDENTITY = Projection(1, 2)
PROJ_SWAP = Projection(2, 1)
PROJ_BOTH_1 = Projection(1, 1)
PROJ_BOTH_2 = Projection(2, 2)
ALL_PROJECTIONS = (PROJ_IDENTITY, PROJ_SWAP, PROJ_BOTH_1, PROJ_BOTH_2)


def compose_projections(inner: Projection, outer: Projection) -> Projection:
    """The single projection equivalent to applying ``inner`` first and
    ``outer`` on top of the result: i -> inner-image of outer(i) read
    through outer, i.e. combined(i) = outer-then-inner lookup.

    Semantically ``(R^inner)^outer = R^combined`` with
    ``combined(i) = outer(inner(i))``; validated exhaustively in the
    test suite over all 16 pairs.
    """
    return Projection(outer.img(inner.img1), outer.img(inner.img2))


class Term:
    """Base class; concrete terms are the ``record`` classes below."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


@record
class Var(Term):
    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].islower() or not self.name.isidentifier():
            raise TermError(f"variable names are lowercase-initial identifiers: {self.name!r}")


@record
class Bot(Term):
    pass


@record
class Top(Term):
    pass


@record
class Id(Term):
    pass


@record
class Di(Term):
    pass


@record
class Union(Term):
    left: Term
    right: Term


@record
class Inter(Term):
    left: Term
    right: Term


@record
class Compl(Term):
    arg: Term


@record
class Comp(Term):
    left: Term
    right: Term


@record
class Dagger(Term):
    left: Term
    right: Term


@record
class Proj(Term):
    arg: Term
    proj: Projection


BOT = Bot()
TOP = Top()
ID = Id()
DI = Di()

# The term syntax, read by the tokenizer, the parser and the printer:
# the infix operators, loosest first (level 0), and the constant names.
_INFIX = (("|", Union), ("&", Inter), ("$", Dagger), (";", Comp))
_CONSTANTS = {"bot": BOT, "top": TOP, "I": ID, "D": DI}

_BINARY = tuple(ctor for _, ctor in _INFIX)


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, _BINARY):
        return (t.left, t.right)
    if isinstance(t, Compl):
        return (t.arg,)
    if isinstance(t, Proj):
        return (t.arg,)
    return ()


def subterms(t: Term) -> Iterator[Term]:
    """All subterms, preorder."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def variables(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, Var)}


def vo(t: Term) -> int:
    """Number of variable occurrences: 1 for a variable, the sum over
    children otherwise (constants contribute 0)."""
    return sum(1 for s in subterms(t) if isinstance(s, Var))


# ---------------------------------------------------------------------------
# Complement normal form and dot-dagger alternation levels


def complement_nf(t: Term) -> Term:
    """Push complements down to variables.  The result is equal to t on
    every structure: complement passes through union and intersection
    by De Morgan, through the projections unchanged, and turns
    composition into dagger and back (``~(R ; S) = ~R $ ~S``)."""
    return _cnf(t, False)


_DUAL = {Union: Inter, Inter: Union, Comp: Dagger, Dagger: Comp}
_NEGATED_CONSTANT = {Bot: TOP, Top: BOT, Id: DI, Di: ID}


def _cnf(t: Term, neg: bool) -> Term:
    if isinstance(t, Var):
        return Compl(t) if neg else t
    if isinstance(t, (Bot, Top, Id, Di)):
        return _NEGATED_CONSTANT[type(t)] if neg else t
    if isinstance(t, _BINARY):
        ctor = _DUAL[type(t)] if neg else type(t)
        return ctor(_cnf(t.left, neg), _cnf(t.right, neg))
    if isinstance(t, Compl):
        return _cnf(t.arg, not neg)
    if isinstance(t, Proj):
        return Proj(_cnf(t.arg, neg), t.proj)
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


@record
class FragmentInfo:
    """Variable-occurrence count and least alternation levels.

    ``sigma_level``/``pi_level`` are the least n such that the term lies
    in the n-th existential/universal alternation class.  They are read
    from the complement normal form, which is equal to the term, so
    every term has both; they are 0 exactly when that form has no
    composition or dagger, and otherwise differ by at most one.
    """

    vo: int
    sigma_level: int
    pi_level: int


def _levels(t: Term) -> tuple[int, int]:
    # on a complement normal form, where complements sit on variables;
    # a subterm is (0, 0) iff it has no composition or dagger, and a
    # level of 1 or more on one side means 1 or more on the other
    if isinstance(t, (Union, Inter)):
        ls, lp = _levels(t.left)
        rs, rp = _levels(t.right)
        return max(ls, rs), max(lp, rp)
    if isinstance(t, Proj):
        return _levels(t.arg)
    if isinstance(t, Comp):
        sigma = max(_levels(t.left)[0], _levels(t.right)[0], 1)
        return sigma, sigma + 1
    if isinstance(t, Dagger):
        pi = max(_levels(t.left)[1], _levels(t.right)[1], 1)
        return pi + 1, pi
    return 0, 0


def dotdagger_level(t: Term) -> FragmentInfo:
    return FragmentInfo(vo(t), *_levels(complement_nf(t)))


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error, carrying the byte offset and the expected tokens."""

    def __init__(self, offset: int, expected: frozenset[str], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        want = ", ".join(sorted(expected))
        super().__init__(f"syntax error at offset {offset}: expected one of {{{want}}}, found {found}")


_PUNCT = "".join(symbol for symbol, _ in _INFIX) + "^~[](),"
_BY_SYMBOL = {symbol: (level, ctor) for level, (symbol, ctor) in enumerate(_INFIX)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, value, offset); kinds: ident, const, punct, digit, end
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            out.append(("punct", c, i))
            i += 1
            continue
        if c in "12":
            out.append(("digit", c, i))
            i += 1
            continue
        if c.isalpha() and c.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("const" if word in _CONSTANTS else "ident", word, i))
            i = j
            continue
        if c in _CONSTANTS:  # the one-letter names
            out.append(("const", c, i))
            i += 1
            continue
        raise ParseError(i, frozenset({"term"}), repr(c))
    out.append(("end", "", n))
    return out


def _found(val: str) -> str:
    return repr(val) if val else "end of input"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, value: str) -> None:
        kind, val, off = self.peek()
        if kind != "punct" or val != value:
            raise ParseError(off, frozenset({repr(value)}), _found(val))
        self.take()

    def term(self, level: int = 0) -> Term:
        """The longest term whose unparenthesized infix operators are all
        at ``level`` or tighter, by precedence climbing: each operator
        takes as its right operand a term one level tighter, so that
        operators of one level associate to the left."""
        node = self.operand()
        while True:
            op = _BY_SYMBOL.get(self.peek()[1])
            if op is None or op[0] < level:
                return node
            self.take()
            node = op[1](node, self.term(op[0] + 1))

    def operand(self) -> Term:
        """An atom and the postfix operators after it."""
        kind, val, off = self.take()
        if kind == "ident":
            node = Var(val)
        elif kind == "const":
            node = _CONSTANTS[val]
        elif val == "(":
            node = self.term()
            self.expect_punct(")")
        else:
            raise ParseError(off, frozenset({"identifier", "'('", *map(repr, _CONSTANTS)}),
                             _found(val))
        while True:
            val = self.peek()[1]
            if val not in ("^", "~", "["):
                return node
            self.take()
            if val == "^":
                node = Proj(node, PROJ_SWAP)
            elif val == "~":
                node = Compl(node)
            else:
                d1 = self.digit()
                self.expect_punct(",")
                d2 = self.digit()
                self.expect_punct("]")
                node = Proj(node, Projection(d1, d2))

    def digit(self) -> int:
        kind, val, off = self.peek()
        if kind != "digit":
            raise ParseError(off, frozenset({"'1'", "'2'"}), _found(val))
        self.take()
        return int(val)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    node = p.term()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(off, frozenset({"operator", "end of input"}), repr(val))
    return node


# ---------------------------------------------------------------------------
# Printing

_BY_CTOR = {ctor: (level, symbol) for level, (symbol, ctor) in enumerate(_INFIX)}
_CONSTANT_NAMES = {type(value): name for name, value in _CONSTANTS.items()}


def _print(t: Term, minimum: int) -> str:
    # parenthesized when its infix binds looser than ``minimum``; a
    # postfix operand asks for len(_INFIX), tighter than every infix
    if isinstance(t, Var):
        return t.name
    if isinstance(t, _BINARY):
        level, symbol = _BY_CTOR[type(t)]
        text = f"{_print(t.left, level)} {symbol} {_print(t.right, level + 1)}"
        return f"({text})" if level < minimum else text
    if isinstance(t, Compl):
        return f"{_print(t.arg, len(_INFIX))}~"
    if isinstance(t, Proj):
        body = _print(t.arg, len(_INFIX))
        if t.proj == PROJ_SWAP:
            return f"{body}^"
        return f"{body}[{t.proj.img1},{t.proj.img2}]"
    if type(t) in _CONSTANT_NAMES:
        return _CONSTANT_NAMES[type(t)]
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


def print_term(t: Term) -> str:
    """Minimal-parenthesization rendering; parses back to the same tree."""
    return _print(t, 0)
