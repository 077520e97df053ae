"""Reference evaluators used as independent oracles in tests.

``naive_eval``: relations are plain sets of pairs and every operator is
spelled out with explicit loops over the universe, straight from its
defining clause; nothing is shared with the packed-bitset
implementation.

``evaluate_formula``: a first-order formula read directly over a finite
structure, so the standard translation can be checked against the
relation semantics.

``complement_nf_ref`` and ``levels_ref``: the complement normal form
and the alternation levels read off it, by structural recursion, as
the package computed them before its passes moved onto ``terms.fold``.
The package reads the levels from the term itself, swapping them at
each complement; these spell out the definition.

``parse_term_ref``: the term syntax by recursive descent and precedence
climbing, as the package parsed it before ``terms.parse_term`` became
one loop on an explicit stack.  It reads the package's tokenizer and
operator table, and it recurses once per parenthesis and per operator
level.
"""

from relfrag.fo import (FoAnd, FoAtom, FoEq, FoExists, FoFalse, FoForall,
                        FoFormula, FoIff, FoNot, FoOr, FoTrue)
from relfrag.semantics import Structure
from relfrag.terms import (BOT, DI, ID, PROJ_SWAP, TOP, Bot, Comp, Compl, Dagger, Di, Id,
                           Inter, ParseError, Proj, Projection, Term, Top, Union, Var,
                           _BY_SYMBOL, _CONSTANTS, _tokenize)


def naive_eval(t: Term, size: int, assignment: dict[str, set]) -> set:
    universe = range(size)
    if isinstance(t, Var):
        return set(assignment[t.name])
    if isinstance(t, Bot):
        return set()
    if isinstance(t, Top):
        return {(x, y) for x in universe for y in universe}
    if isinstance(t, Id):
        return {(x, x) for x in universe}
    if isinstance(t, Di):
        return {(x, y) for x in universe for y in universe if x != y}
    if isinstance(t, Union):
        return naive_eval(t.left, size, assignment) | naive_eval(t.right, size, assignment)
    if isinstance(t, Inter):
        return naive_eval(t.left, size, assignment) & naive_eval(t.right, size, assignment)
    if isinstance(t, Compl):
        inner = naive_eval(t.arg, size, assignment)
        return {(x, y) for x in universe for y in universe if (x, y) not in inner}
    if isinstance(t, Comp):
        r = naive_eval(t.left, size, assignment)
        s = naive_eval(t.right, size, assignment)
        out = set()
        for x in universe:
            for y in universe:
                for z in universe:
                    if (x, z) in r and (z, y) in s:
                        out.add((x, y))
                        break
        return out
    if isinstance(t, Dagger):
        r = naive_eval(t.left, size, assignment)
        s = naive_eval(t.right, size, assignment)
        out = set()
        for x in universe:
            for y in universe:
                if all((x, z) in r or (z, y) in s for z in universe):
                    out.add((x, y))
        return out
    if isinstance(t, Proj):
        inner = naive_eval(t.arg, size, assignment)
        out = set()
        for x1 in universe:
            for x2 in universe:
                coords = (x1, x2)
                if (coords[t.proj.img1 - 1], coords[t.proj.img2 - 1]) in inner:
                    out.add((x1, x2))
        return out
    raise AssertionError(f"unexpected term {t!r}")


def evaluate_formula(f: FoFormula, m: Structure, env: dict[str, int]) -> bool:
    if isinstance(f, FoTrue):
        return True
    if isinstance(f, FoFalse):
        return False
    if isinstance(f, FoAtom):
        return m.assignment[f.rel].contains(env[f.left], env[f.right])
    if isinstance(f, FoEq):
        return env[f.left] == env[f.right]
    if isinstance(f, FoNot):
        return not evaluate_formula(f.arg, m, env)
    if isinstance(f, FoAnd):
        return evaluate_formula(f.left, m, env) and evaluate_formula(f.right, m, env)
    if isinstance(f, FoOr):
        return evaluate_formula(f.left, m, env) or evaluate_formula(f.right, m, env)
    if isinstance(f, FoIff):
        return evaluate_formula(f.left, m, env) == evaluate_formula(f.right, m, env)
    if isinstance(f, FoExists):
        return any(evaluate_formula(f.body, m, {**env, f.var: v}) for v in range(m.size))
    if isinstance(f, FoForall):
        return all(evaluate_formula(f.body, m, {**env, f.var: v}) for v in range(m.size))
    raise AssertionError(f"unexpected formula {f!r}")


_DUAL = {Union: Inter, Inter: Union, Comp: Dagger, Dagger: Comp}
_NEGATED_CONSTANT = {Bot: TOP, Top: BOT, Id: DI, Di: ID}


def complement_nf_ref(t: Term, neg: bool = False) -> Term:
    """Complements pushed down to the variables (of ~t when ``neg``)."""
    if isinstance(t, Var):
        return Compl(t) if neg else t
    if isinstance(t, (Bot, Top, Id, Di)):
        return _NEGATED_CONSTANT[type(t)] if neg else t
    if isinstance(t, (Union, Inter, Comp, Dagger)):
        ctor = _DUAL[type(t)] if neg else type(t)
        return ctor(complement_nf_ref(t.left, neg), complement_nf_ref(t.right, neg))
    if isinstance(t, Compl):
        return complement_nf_ref(t.arg, not neg)
    if isinstance(t, Proj):
        return Proj(complement_nf_ref(t.arg, neg), t.proj)
    raise AssertionError(f"unexpected term {t!r}")


def levels_ref(t: Term) -> tuple[int, int]:
    """(sigma, pi) of a complement normal form: a composition is
    existential and a dagger universal."""
    if isinstance(t, (Union, Inter)):
        ls, lp = levels_ref(t.left)
        rs, rp = levels_ref(t.right)
        return max(ls, rs), max(lp, rp)
    if isinstance(t, Proj):
        return levels_ref(t.arg)
    if isinstance(t, Comp):
        sigma = max(levels_ref(t.left)[0], levels_ref(t.right)[0], 1)
        return sigma, sigma + 1
    if isinstance(t, Dagger):
        pi = max(levels_ref(t.left)[1], levels_ref(t.right)[1], 1)
        return pi + 1, pi
    return 0, 0


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
        at ``level`` or tighter: each operator takes as its right operand
        a term one level tighter, so operators of one level associate to
        the left."""
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


def parse_term_ref(text: str) -> Term:
    p = _Parser(text)
    node = p.term()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(off, frozenset({"operator", "end of input"}), repr(val))
    return node
