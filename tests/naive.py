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

``standard_translations``, ``nnf``, ``universal_polarities``,
``ea_profile`` and ``ea_disjuncts``: the ∃*∀* reading of an inclusion
on first-order formulas, as ``decide`` computed it before it read the
terms.  The standard translations of both sides draw their bound names
from one pool; ``nnf`` pushes negations down to the atoms and folds the
constants; the profile reads the shape of the NNF's disjuncts and each
universal subformula's polarities without expanding them, and
``ea_disjuncts`` expands them.  ``small_model_structures_ref`` builds
the small-model structures from that reading, so a test can check that
``decide``'s two walks of the terms build the same structures in the
same order, or give the same reason.
"""

from typing import NamedTuple, Optional, Union as TUnion

from relfrag.decide import _CANDIDATE_CAP, _partitions
from relfrag.fo import (FoAnd, FoAtom, FoEq, FoExists, FoFalse, FoForall,
                        FoFormula, FoIff, FoNot, FoOr, FoTrue, _TRANSLATE, _TRANSLATE_DOWN)
from relfrag.semantics import MAX_SIZE, Structure, full_mask
from relfrag.terms import (BOT, DI, ID, PROJ_SWAP, TOP, Bot, Comp, Compl, Dagger, Di, Id,
                           Inter, ParseError, Proj, Projection, Term, Top, Union, Var,
                           _BY_SYMBOL, _CONSTANTS, _tokenize, fold)


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


# ---------------------------------------------------------------------------
# The ∃*∀* reading on first-order formulas: translations from one pool,
# negation normal form, the disjuncts and the small-model structures


def standard_translations(terms: tuple[Term, ...]) -> tuple[FoFormula, ...]:
    """Standard translations of several terms in x0 and y0, with their
    bound names drawn from one pool, so no bound name occurs in two of
    them."""
    pool = {"x": 0, "y": 0}
    return tuple(fold(t, _TRANSLATE, ("x0", "y0", pool), _TRANSLATE_DOWN) for t in terms)


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


def small_model_structures_ref(t1: Term, t2: Term, min_size: int, names: list[str]):
    """The small-model structures of ``decide`` built from the FO
    reading: the standard translations of both sides from one pool, the
    NNF of T1 ∧ ¬T2 and of T2 ∧ ¬T1, their profiles and disjuncts.  By
    size, each the tuple of the names' relations; or the reason."""
    f1, f2 = standard_translations((t1, t2))
    phis = [nnf(FoAnd(f1, FoNot(f2))), nnf(FoAnd(f2, FoNot(f1)))]
    profiles = [ea_profile(phi) for phi in phis]
    if None in profiles:
        return "not exists-forall"
    mixed = sorted(frozenset().union(*(p.mixed for p in profiles)))
    if mixed:
        return f"mixed polarity in {mixed[0]}"
    witnesses = [(k + 2, count) for p in profiles for k, count in p.exists.items()]
    if max((max(min_size, k) for k, _ in witnesses), default=0) > MAX_SIZE:
        return "beyond 8 points"
    if sum(len(_partitions(k)) * count for k, count in witnesses) > _CANDIDATE_CAP:
        return "candidate budget"

    structures: dict = {}
    for d, signs in ((d, p.universals) for phi, p in zip(phis, profiles)
                     for d in ea_disjuncts(phi)):
        points = ("x0", "y0", *d.exists)
        full = frozenset().union(*(signs[u.var][0] for u in d.foralls))
        for classes in _partitions(len(points)):
            at = dict(zip(points, classes))
            n = max(min_size, max(classes) + 1)
            bits = {name: full_mask(n) if name in full else 0 for name in names}
            for lit in d.literals:
                atom = lit.arg if isinstance(lit, FoNot) else lit
                if isinstance(atom, FoEq):
                    if (at[atom.left] == at[atom.right]) != (lit is atom):
                        break
                elif isinstance(atom, FoAtom):
                    pair = 1 << (at[atom.left] * n + at[atom.right])
                    bits[atom.rel] = bits[atom.rel] | pair if lit is atom else bits[atom.rel] & ~pair
            else:
                structures.setdefault(n, {})[tuple(bits[name] for name in names)] = None
    return structures
