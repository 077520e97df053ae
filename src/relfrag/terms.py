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

Every pass over a term or a first-order formula (``fo``) is a table
on one post-order walk on an explicit stack, ``fold``, so a flat chain
of ten thousand ``|`` meets no recursion limit; the parser too is one
loop on an explicit stack.  The alternation levels, defined on the
complement normal form, need no normal form: pushing a complement
through a term turns ``;`` into ``$`` and back (``~(R ; S) = ~R $ ~S``),
swaps ``|`` and ``&``, on which the levels are symmetric, and passes
the projections.  So ``~t`` has the (σ, π) levels of t swapped, and one
walk over the term reads them.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterator, Mapping


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

# ---------------------------------------------------------------------------
# The walk

# each inner node class and its children, left to right; ``fo`` adds
# the formula classes, and a class that is not here is a leaf
CHILDREN: dict[type, Callable] = {
    **dict.fromkeys((Union, Inter, Comp, Dagger), lambda t: (t.left, t.right)),
    Compl: lambda t: (t.arg,), Proj: lambda t: (t.arg,)}


def children(t: Term) -> tuple[Term, ...]:
    return CHILDREN[type(t)](t) if type(t) in CHILDREN else ()


def subterms(t: Term) -> Iterator[Term]:
    """All subterms, preorder."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def fold(root, up: Mapping[type, Callable], ctx=None,
         down: Mapping[type, Callable] = MappingProxyType({})):
    """One bottom-up pass over a term or a formula, on an explicit stack.
    ``up[type(node)](node, ctx, *values)`` makes a node's value from its
    children's values, left to right; each child gets its parent's
    ``ctx``.  A pass that carries a value down, or skips children, has
    ``down[type(node)](node, ctx)``: it runs when the walk reaches the
    node, in preorder, and returns the context for the node's ``up`` and
    the children to visit, each paired with its context."""
    # the hot loop: methods bound to locals, one or two values unsliced
    values: list = []
    stack = [(root, ctx, None, 0)]  # (node, context, its up once entered, number of children)
    push, pop, emit = stack.append, stack.pop, values.append
    while stack:
        node, c, combine, n = pop()
        if combine is not None:  # the children's values are the last n
            if n == 1:
                values[-1] = combine(node, c, values[-1])
            elif n == 2:
                right = values.pop()
                values[-1] = combine(node, c, values[-1], right)
            else:
                args = values[-n:]
                del values[-n:]
                emit(combine(node, c, *args))
            continue
        enter = down.get(type(node))
        if enter is None:
            kids = CHILDREN.get(type(node))
            if kids is not None:
                kids = kids(node)
                push((node, c, up[type(node)], len(kids)))
                for k in reversed(kids):
                    push((k, c, None, 0))
                continue
        else:
            c, kids = enter(node, c)
            if kids:
                push((node, c, up[type(node)], len(kids)))
                for k, kc in reversed(kids):
                    push((k, kc, None, 0))
                continue
        emit(up[type(node)](node, c))
    return values.pop()


# ---------------------------------------------------------------------------
# Variables, dot-dagger alternation levels and complement normal form


@record
class FragmentInfo:
    """Variable-occurrence count and least alternation levels.

    ``sigma_level``/``pi_level`` are the least n such that the term lies
    in the n-th existential/universal alternation class.  They are those
    of the complement normal form, which is equal to the term, so
    every term has both; they are 0 exactly when that form has no
    composition or dagger, and otherwise differ by at most one.
    """

    vo: int
    sigma_level: int
    pi_level: int


# (vo, sigma, pi) of each node, collecting the names; the levels are
# (0, 0) iff the subterm has no ; or $, and otherwise differ by one
_FRAGMENT = {Var: lambda t, names: names.add(t.name) or (1, 0, 0),
             **dict.fromkeys((Bot, Top, Id, Di), lambda t, names: (0, 0, 0)),
             **dict.fromkeys((Union, Inter), lambda t, names, a, b: (
                 a[0] + b[0], max(a[1], b[1]), max(a[2], b[2]))),
             Comp: lambda t, names, a, b: (a[0] + b[0], max(a[1], b[1], 1), max(a[1], b[1], 1) + 1),
             Dagger: lambda t, names, a, b: (a[0] + b[0], max(a[2], b[2], 1) + 1, max(a[2], b[2], 1)),
             Compl: lambda t, names, arg: (arg[0], arg[2], arg[1]),
             Proj: lambda t, names, arg: arg}


def fragment(t: Term) -> tuple[FragmentInfo, set[str]]:
    """The term's ``FragmentInfo`` and its variable names, from one walk."""
    names: set[str] = set()
    return FragmentInfo(*fold(t, _FRAGMENT, names)), names


def dotdagger_level(t: Term) -> FragmentInfo:
    return fragment(t)[0]


def variables(t: Term) -> set[str]:
    return fragment(t)[1]


def vo(t: Term) -> int:
    """Number of variable occurrences."""
    return fragment(t)[0].vo


_DUAL = {Union: Inter, Inter: Union, Comp: Dagger, Dagger: Comp}
_NEGATED_CONSTANT = {Bot: TOP, Top: BOT, Id: DI, Di: ID}

# the walk carries the polarity: True under an odd number of complements
_CNF_DOWN = {Compl: lambda t, neg: (neg, ((t.arg, not neg),))}
_CNF = {Var: lambda t, neg: Compl(t) if neg else t,
        **dict.fromkeys(_NEGATED_CONSTANT, lambda t, neg: _NEGATED_CONSTANT[type(t)] if neg else t),
        **dict.fromkeys(_DUAL, lambda t, neg, a, b: (_DUAL[type(t)] if neg else type(t))(a, b)),
        Compl: lambda t, neg, arg: arg,
        Proj: lambda t, neg, arg: Proj(arg, t.proj)}


def complement_nf(t: Term) -> Term:
    """Push complements down to variables.  The result is equal to t on
    every structure: complement passes through union and intersection
    by De Morgan, through the projections unchanged, and turns
    composition into dagger and back (``~(R ; S) = ~R $ ~S``)."""
    return fold(t, _CNF, False, _CNF_DOWN)


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


def parse_term(text: str) -> Term:
    """One pass over the tokens by operator precedence, on an explicit
    stack.  ``node`` is the operand just read; ``lefts`` and ``ops``
    hold the left operands and the infix operators still open, and a
    ``None`` in ``ops`` marks an open parenthesis.  An infix operator
    first applies the stacked operators of its own level or tighter, so
    that operators of one level associate to the left; a postfix
    operator applies to the operand just read."""
    tokens = _tokenize(text)
    lefts: list[Term] = []
    ops: list = []
    depth = i = 0
    while True:
        kind, val, off = tokens[i]  # an operand
        i += 1
        if kind == "ident":
            node = Var(val)
        elif kind == "const":
            node = _CONSTANTS[val]
        elif val == "(":
            ops.append(None)
            depth += 1
            continue
        else:
            raise ParseError(off, frozenset({"identifier", "'('", *map(repr, _CONSTANTS)}),
                             _found(val))
        while True:  # what follows it
            kind, val, off = tokens[i]
            i += 1
            op = _BY_SYMBOL.get(val)
            if op is not None or val == ")" and depth or kind == "end" and not depth:
                while ops and ops[-1] is not None and (op is None or ops[-1][0] >= op[0]):
                    node = ops.pop()[1](lefts.pop(), node)
                if op is not None:
                    lefts.append(node)
                    ops.append(op)
                    break
                if kind == "end":
                    return node
                ops.pop()
                depth -= 1
            elif val == "^":
                node = Proj(node, PROJ_SWAP)
            elif val == "~":
                node = Compl(node)
            elif val == "[":  # then a digit, a comma, a digit and "]"
                for (_, got, at), want in zip(tokens[i:i + 4], (("1", "2"), (",",), ("1", "2"), ("]",))):
                    if got not in want:  # the end token's "" is in none of them
                        raise ParseError(at, frozenset(map(repr, want)), _found(got))
                node = Proj(node, Projection(int(tokens[i][1]), int(tokens[i + 2][1])))
                i += 4
            elif depth:
                raise ParseError(off, frozenset({"')'"}), _found(val))
            else:
                raise ParseError(off, frozenset({"operator", "end of input"}), repr(val))


# ---------------------------------------------------------------------------
# Printing

# each node's text and the level of its outermost operator; atoms and
# postfix operators bind tighter than every infix
_TIGHTEST = len(_INFIX)


def _operand(value: tuple[str, int], minimum: int) -> str:
    text, level = value
    return f"({text})" if level < minimum else text


_PRINT = {Var: lambda t, c: (t.name, _TIGHTEST),
          **{type(v): lambda t, c, name=name: (name, _TIGHTEST) for name, v in _CONSTANTS.items()},
          **{ctor: lambda t, c, left, right, level=level, symbol=symbol: (
              f"{_operand(left, level)} {symbol} {_operand(right, level + 1)}", level)
             for level, (symbol, ctor) in enumerate(_INFIX)},
          Compl: lambda t, c, arg: (_operand(arg, _TIGHTEST) + "~", _TIGHTEST),
          Proj: lambda t, c, arg: (_operand(arg, _TIGHTEST) + (
              "^" if t.proj == PROJ_SWAP else f"[{t.proj.img1},{t.proj.img2}]"), _TIGHTEST)}


def print_term(t: Term) -> str:
    """Minimal-parenthesization rendering; parses back to the same tree."""
    return fold(t, _PRINT)[0]
