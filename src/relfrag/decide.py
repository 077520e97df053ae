"""Top-level equivalence decisions, three-valued.

``Equivalent`` always carries a replayable justification (constant-class
derivations, syntactic identity, or the sizes and number of structures
an exact route checked); ``Inequivalent`` carries a separating
structure, checked where its route found it, on at most 8 points, and
carried to the mode's minimum (``_inequivalent``); everything else is
``Unknown`` with the sizes actually exhausted and sampled, the sampling
seed, and the reason the small-model route did not apply.  Only the
bounded route can answer ``Unknown``, and it never answers
``Equivalent``.

Routing in ``decide_terms``: two variable-free terms go through the
constant classes (exact).  Two terms with at most one variable
occurrence each and existential level at most one take the
one-occurrence route (exact).  Two identical terms are equivalent.
Every other pair takes the small-model route (exact) when it applies,
and the bounded counterexample search otherwise.  The route that
answers reports its own witness.  Words
(``decide_word_equiv``) are decided on universes of size at least five
from their singleton images at size 5, read as elements of the word
monoid's table at size 5 (``bitrel.word_monoid``): one element means
equivalent, and otherwise the lowest image where the elements differ
gives the numerically first separating relation, the one
``verify-rules`` reports for a false rule, which computes the images
from scratch.  ``replay_justification`` re-derives a word verdict by
the one-occurrence route, on the terms the words make from one
variable.

The exact routes pack their structures, sizes ascending, into one
bit-sliced batch at the stride of the largest size, each entry keeping
its own size, and hand it to ``_separate``.  It evaluates each side once
and takes the structure at the first entry where the sides differ, at
that entry's size, for ``_inequivalent``.  Sizes and entries keep their
order, so that is the first separating structure of the first
separating size.  Both routes pack with ``bitrel.pack_structures``.  The
one-occurrence basis depends only on the number of variables and the
sizes, so it is packed once for each (``_merged_basis``) and its
variables renamed on every query.

The one-occurrence route evaluates both sides on every assignment of
*basis* relations to the variables: the empty relation, the full
relation, every one-pair relation and every all-but-one-pair relation.
It does so at each size from the mode's minimum to 4, and once at size
5, which stands for every size from 5 on.  This is exact:

* The levels are those of the complement normal form
  (``terms.complement_nf``), which pushes every complement down to the
  variables and is equal to the side on every structure.  Existential
  level at most one means that form has no dagger, so it is f(a) or
  f(~a) for a variable a (or a constant), where f is built from union
  and intersection with constants, composition with constants, converse
  and projections.  The route evaluates the side itself, which has the
  same value as that form.  Such an f is monotone and preserves non-empty
  unions, so it is fixed by its value on the empty relation and on the
  one-pair relations; as a map of a, f(~a) is fixed by its values on
  the full and the all-but-one-pair relations.  The basis of size n
  therefore decides the equation at size n.
* The image of the one-pair relation {(u, v)} is a first-order formula
  over equality in the point variables x, y and the parameters u, v.
  At every quantifier it has at most 4 free variables, so each
  quantifier is eliminated in the same way on every universe with at
  least 5 points, and the images agree at size 5 iff they agree at
  every size from 5 on.  In a mode whose minimum is above 5, a size-5
  witness is re-checked at 5 and carried to the minimum (``_lift``).
* Sides in different variables, or in one variable with opposite
  polarities, are equal only when both are constant: one is monotone
  and the other antitone or independent of it.  The basis holds the
  empty and the full relation, on which a non-constant monotone side
  differs, so the check finds that too.

The small-model route checks both inclusions.  t1 ⊆ t2 fails on a
structure of size at least M exactly when φ = T1(x0, y0) ∧ ¬T2(x0, y0)
holds there for some points x0, y0, where T1 and T2 are the standard
translations (``fo.standard_translation``): ``;`` is an existential
middle point over ∧, ``$`` a universal one over ∨, ``|`` and ``&`` are
∨ and ∧, ``~`` is ¬, I and D are x = y and x ≠ y, top and bot are
true and false, and a projection renames the points.  The route reads
the negation normal form of φ off the terms, without building a
formula.  Negation passes through ∨, ∧, ∃ and ∀ by the same De Morgan
laws by which a complement passes through ``|``, ``&``, ``;`` and
``$`` (``terms.complement_nf``), so the translation of the complement
normal form of t1 & ~t2 is φ with its negations pushed to the atoms;
what NNF adds is the folding of constants: a zero absorbs, a unit drops
out, and a quantifier over a constant is that constant, since universes
are not empty.  One walk of t1 & ~t2 does both: it carries the
polarity, under which ``;`` acts as ``$``, ``|`` as ``&``, I as D and
top as bot, and it folds the constants as it goes up.  With no
existential below a universal, φ is then equivalent to ∃x0 ∃y0 of a
disjunction of formulas ∃z̄ (L ∧ U1 ∧ ... ∧ Ur): ``&`` is distributed
over ``|`` above the universals, the literals L are the variables, the
complemented variables and the I and D there, and each maximal
universal subterm is one Ui.  Call x0, y0 and z̄ the disjunct's
witnesses.  For every disjunct and every partition of its witnesses
into k classes, the route builds one structure C on max(M, k) points:
the classes are the points 0..k-1 in order of first appearance, a
variable that occurs only positively in the Ui is full and every other
variable is empty, and then each atom literal of L sets or clears its
pair.  A partition that breaks an equality literal of L is skipped.
The sides are equivalent iff no C separates them:

1. *Substructures preserve the universal parts.*  Let A, of size at
   least M, satisfy a disjunct with witnesses ā, and let the partition
   be the equality type of ā, with k classes.  Take B, a substructure
   of A with max(M, k) points that contains ā (A has at least M and at
   least k points, and every subset of a relational structure is a
   substructure).  Literals are quantifier-free and universal formulas
   hold in every substructure, so B satisfies the disjunct with ā.
2. *The polarity fill keeps the disjunct true.*  Identify B's points
   with C's so that ā goes to the classes.  C satisfies L: its atom
   literals by construction (they agree with one another, since B
   satisfies them all) and its equality literals by the partition.  A
   variable R that occurs only positively in the Ui is full in C
   except for the pairs that a literal ¬R clears, and B leaves those
   out too, so R in C contains R in B.  A variable that occurs only
   negatively in the Ui is empty in C except for the pairs that a
   literal R sets, and B holds those too, so R in C lies inside R in
   B.  Every Ui is monotone in its atoms and their negations, each of
   which is at least as true in C as in B, so C satisfies every Ui.
3. *max(M, k) points suffice.*  So if the inclusion fails on any
   structure of size at least M, it fails on one of the built
   structures, each of which has at least M points; and any structure
   that separates the sides is a witness.

The route does not apply, and the pair goes to the bounded search, when
an existential sits below a universal, when a variable has both
polarities in the universal parts of one disjunct, when a structure
would have more than ``MAX_SIZE`` (8) points (no kernel limits the size;
the bound stays until a proof of its own lifts it), or when there would
be more than ``_CANDIDATE_CAP`` structures.  One walk of each inclusion
reads the shape of its disjuncts, from which all four are read, and an
and/or tree of their pieces, which is multiplied out only when none
applies.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import count, product
from operator import or_, xor
from typing import TYPE_CHECKING, Optional, Union as TUnion

from .constants import ConstClass, decide_0vo
from .semantics import (MAX_SIZE, OracleConfig, Rel, SizeWindow, Structure, eval_term,
                        exhaustive_check, full_mask, random_check, structure_count)
from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, Top, Union, Var, fold,
                    fragment, print_term, record, variables)

if TYPE_CHECKING:
    from .words import Word


@record
class Equivalent:
    justification: dict


@record
class Inequivalent:
    witness: Structure


@record
class Unknown:
    """No verdict.  ``checked`` is the window of sizes scanned
    exhaustively (None if there were none); ``samples`` structures were
    drawn with ``seed`` in all over the ``sampled`` sizes.  ``reason``
    says why the small-model route did not apply; there always is one."""

    checked: Optional[SizeWindow]
    samples: int
    sampled: tuple[int, ...]
    reason: str
    seed: int


Verdict = TUnion[Equivalent, Inequivalent, Unknown]


@record
class Mode:
    """Structure class: every size at least ``min_size`` (1 = all)."""

    min_size: int = 1

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise ValueError("min_size must be at least 1")

    def __str__(self) -> str:
        return "rel" if self.min_size == 1 else f"rel>={self.min_size}"


REL = Mode(1)


def parse_mode(text: str) -> Mode:
    if text == "rel":
        return REL
    if text.startswith("rel>="):
        try:
            return Mode(int(text[5:]))
        except ValueError:
            pass
    raise ValueError(f"mode must be 'rel' or 'rel>=M', got {text!r}")


def _inequivalent(t1: Term, t2: Term, witness: Structure, min_size: int) -> Inequivalent:
    """The one way to an ``Inequivalent``: the witness is re-checked with
    the scalar evaluator at the size where its route found it, and only
    then carried to ``min_size`` if it is smaller (``_lift``)."""
    if eval_term(t1, witness) == eval_term(t2, witness):
        raise AssertionError("claimed witness does not separate the terms")
    if witness.size < min_size:
        witness = Structure(min_size, {name: _lift(rel, min_size)
                                       for name, rel in witness.assignment.items()})
    return Inequivalent(witness)


def _separate(t1: Term, t2: Term, batch, min_size: int) -> Optional[Inequivalent]:
    """``first_separating`` on one merged (assignment, masks) batch: the
    first witness, handed to ``_inequivalent``; None if no entry
    separates."""
    from .bitrel import first_separating

    witness = first_separating(t1, t2, *batch)
    return None if witness is None else _inequivalent(t1, t2, witness, min_size)


# ---------------------------------------------------------------------------
# One variable occurrence per side


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[int, ...]:
    # empty, full, then every one-pair and every all-but-one-pair relation
    fm = full_mask(n)
    singles = [1 << p for p in range(n * n)]
    return (0, fm, *singles, *(fm ^ s for s in singles))


def _lift(rel: Rel, n: int) -> Rel:
    """A basis relation carried to size n: the same pairs, or all pairs
    but the same ones.  A witness lifted by ``_inequivalent`` still
    separates, route by route.  One occurrence (5 to n > 5): the pair it
    separates keeps its equality type with the named points, which fixes
    the images from size 5 on (module docstring).  Constant classes (3
    to n > 3): the assignment is empty, and no term's value changes
    class from size 3 on (``constants``).  Small models and the bounded
    search find witnesses of at least n points, so nothing is lifted."""
    if rel.bits.bit_count() <= 1:
        return Rel.from_pairs(n, rel.pairs())
    return Rel.from_pairs(n, rel.compl().pairs()).compl()


@lru_cache(maxsize=None)
def _merged_basis(k: int, sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...],
                                                           tuple[int, ...]]:
    """Every assignment of basis relations to k variables, the first
    slowest, at the sizes in turn, packed once: each variable's pair
    integers and the masks.  Every mode from ``rel>=5`` on asks for the
    sizes (5,), so they share one entry."""
    from .bitrel import pack_structures

    batch, masks = pack_structures({n: list(product(_basis(n), repeat=k)) for n in sizes}, range(k))
    return tuple(tuple(batch[i]) for i in range(k)), tuple(masks)


def _one_occurrence(t1: Term, t2: Term, min_size: int, names: list[str]) -> Verdict:
    """Exact verdict for two sides with at most one variable occurrence
    each and level at most one (see the module docstring), in the sorted
    ``names``; a witness is at the mode's minimum size."""
    small = list(range(min_size, 5))
    slots, masks = _merged_basis(len(names), (*small, 5))
    found = _separate(t1, t2, (dict(zip(names, slots)), masks), min_size)
    return found or Equivalent({"kind": "one-occurrence", "exhausted_sizes": small})


def decide_word_equiv(w1: Word, w2: Word, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Exact verdict on universes of size at least 5 for the words
    filled with the variable a, from their elements of the word monoid at
    size 5: Equivalent when they are one element, and otherwise
    Inequivalent with the numerically first separating relation of size
    5, ``1 << j`` for the lowest image j where the elements differ.
    ``cfg`` is accepted for compatibility and ignored."""
    from .bitrel import word_monoid
    from .words import apply_word

    monoid = word_monoid((5,))
    e1, e2 = monoid.element(w1), monoid.element(w2)
    if e1 == e2:
        return Equivalent({"kind": "one-occurrence", "exhausted_sizes": []})
    bad = reduce(or_, map(xor, monoid.images[e1], monoid.images[e2]))
    a = Var("a")
    return _inequivalent(apply_word(w1, a), apply_word(w2, a),
                         Structure(5, {"a": Rel(5, bad & -bad)}), 5)


# ---------------------------------------------------------------------------
# Small models of ∃*∀* inclusions

# the most structures the small-model route builds for one pair
_CANDIDATE_CAP = 1 << 14
_FULL = tuple(map(full_mask, range(MAX_SIZE + 1)))


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of k ordered witnesses, as the class of each
    witness with classes numbered in order of first appearance."""
    out = [()]
    for _ in range(k):
        out = [p + (c,) for p in out for c in range(max(p, default=-1) + 2)]
    return tuple(out)


# The ∃*∀* reading of t1 ⊆ t2: the negation normal form of T1 ∧ ¬T2, read
# off the complement normal forms of t1 and ~t2 in one walk of t1 & ~t2
# (module docstring).  The walk carries the polarity (True under an odd
# number of complements), whether a universal lies above, the two points
# and a counter that names each middle point.  A node's value is True or
# False where the reading folds to a constant.  Below a universal it is
# the variables with each polarity, or None below an existential too;
# above, the profile (number of existentials -> number of disjuncts, the
# positive, negative and mixed variables of the universal parts) and an
# and/or tree of the disjuncts' pieces (``_pair``, ``_expand``).


def _conj(t: Term, c) -> bool:
    # & and ; are a conjunction and an existential under even polarity,
    # | and $ under odd
    return isinstance(t, (Inter, Comp)) != c[0]


def _junction(conj: bool, left, right, combine):
    # the conjunction (disjunction) of two readings, constants folded as
    # in negation normal form: a zero absorbs and a unit drops out; what
    # is left of an existential below a universal is None
    if left is (not conj) or right is (not conj):
        return not conj
    if left is conj:
        return right
    if right is conj:
        return left
    return None if left is None or right is None else combine(conj, left, right)


def _middle_point(t: TUnion[Comp, Dagger], c):
    # the node's own up reads its middle point; a universal puts its
    # children below it
    neg, inside, x, y, pool = c
    z, below = next(pool), inside or not _conj(t, c)
    return (neg, inside, z), ((t.left, (neg, below, x, z, pool)),
                              (t.right, (neg, below, z, y, pool)))


_EA_DOWN = {Compl: lambda t, c: (c, ((t.arg, (not c[0], *c[1:])),)),
            Comp: _middle_point, Dagger: _middle_point,
            Proj: lambda t, c: (c, ((t.arg, (*c[:2], c[1 + t.proj.img1], c[1 + t.proj.img2],
                                                c[4])),))}
_NONE = frozenset()
_LITERAL = ({0: 1}, _NONE, _NONE, _NONE)  # a literal, or True, is one disjunct
_CONSTANT = {True: (_LITERAL, [((), (), _NONE)]), False: (({}, _NONE, _NONE, _NONE), [])}


def _signs(conj: bool, left, right):
    return left[0] | right[0], left[1] | right[1]


def _pair(conj: bool, left, right):
    (lx, lp, ln, lm), (rx, rp, rn, rm) = left[0], right[0]
    exists = {} if conj else dict(lx)
    for j, m in lx.items() if conj else ((0, 1),):
        for k, n in rx.items():
            exists[j + k] = exists.get(j + k, 0) + m * n
    mixed = lm | rm | ((lp & rn) | (ln & rp) if conj else _NONE)
    return (exists, lp | rp, ln | rn, mixed), (conj, left[1], right[1])


def _quantifier(t, c, left, right):
    conj, inside = _conj(t, c), c[1]
    body = _junction(conj, left, right, _signs if inside or not conj else _pair)
    if isinstance(body, bool) or body is None:
        return body
    if inside:
        return None if conj else body
    if conj:  # an existential: the conjunction of its point and its body
        return _pair(True, (({1: 1}, _NONE, _NONE, _NONE), [((c[2],), (), _NONE)]), body)
    return ({0: 1}, *body, body[0] & body[1]), [((), (), body[0])]


def _literal(t: Term, c):
    name, positive = t.name if isinstance(t, Var) else None, isinstance(t, (Var, Id)) != c[0]
    return _LITERAL, [((), ((name, c[2], c[3], positive),), _NONE)]  # None is equality


_READING = {Var: lambda t, c: ((_NONE, frozenset({t.name})) if c[0] and c[1] else
                               (frozenset({t.name}), _NONE) if c[1] else _literal(t, c)),
            **dict.fromkeys((Bot, Top), lambda t, c: isinstance(t, Top) != c[0]),
            **dict.fromkeys((Id, Di), lambda t, c: (_NONE, _NONE) if c[1] else _literal(t, c)),
            **dict.fromkeys((Union, Inter), lambda t, c, left, right: _junction(
                _conj(t, c), left, right, _signs if c[1] else _pair)),
            **dict.fromkeys((Comp, Dagger), _quantifier),
            **dict.fromkeys((Compl, Proj), lambda t, c, arg: arg)}


def _expand(tree) -> list:
    """A tree's disjuncts (existential points, literals, variables positive
    in the universal parts), on an explicit stack: a leaf lists them,
    (True, l, r) gives the products, l the outer loop, (False, l, r) l's then r's."""
    values, stack = [], [tree]
    while stack:
        t = stack.pop()
        if type(t) is list:
            values.append(t)
        elif len(t) == 3:  # the node again, below its children
            stack += ((t[0],), t[2], t[1])
        else:
            right = values.pop()
            values[-1] = ([(a[0] + b[0], a[1] + b[1], a[2] | b[2]) for a in values[-1]
                           for b in right] if t[0] else values[-1] + right)
    return values[0]


def _small_model_structures(t1: Term, t2: Term, min_size: int, names: list[str]
                            ) -> TUnion[str, dict[int, dict[tuple[int, ...], None]]]:
    """The structures built in the module docstring for sides in the
    sorted ``names``, by size, each the tuple of the names' relations;
    or why the route does not apply."""
    # the readings of t1 ⊆ t2 and t2 ⊆ t1; points 0 and 1 are x0 and y0
    readings = [fold(Inter(a, Compl(b)), _READING, (False, False, 0, 1, count(2)), _EA_DOWN)
                for a, b in ((t1, t2), (t2, t1))]
    readings = [_CONSTANT[r] if isinstance(r, bool) else r for r in readings]
    if None in readings:
        return "not exists-forall"
    mixed = sorted(frozenset().union(*(p[3] for p, _ in readings)))
    if mixed:
        return f"mixed polarity in {mixed[0]}"
    witnesses = [(k + 2, n) for p, _ in readings for k, n in p[0].items()]
    if max((max(min_size, k) for k, _ in witnesses), default=0) > MAX_SIZE:
        return "beyond 8 points"
    if sum(len(_partitions(k)) * n for k, n in witnesses) > _CANDIDATE_CAP:
        return "candidate budget"

    index = {name: i for i, name in enumerate(names)}
    structures: dict[int, dict[tuple[int, ...], None]] = {}
    for exists, literals, full in (d for _, tree in readings for d in _expand(tree)):
        # each literal's name by index and its points by position in (x0,
        # y0, *exists); a name's fill is -1 (full) or 0 (empty), ANDed per size
        at = {p: i for i, p in enumerate((0, 1, *exists))}
        literals = [(index.get(name), at[left], at[right], positive)
                    for name, left, right, positive in literals]
        full = [-(name in full) for name in names]
        for classes in _partitions(len(exists) + 2):
            n = max(min_size, max(classes) + 1)
            bits = [_FULL[n] & f for f in full]
            for i, left, right, positive in literals:
                if i is None:
                    if (classes[left] == classes[right]) != positive:
                        break
                else:
                    bit = 1 << (classes[left] * n + classes[right])
                    bits[i] = bits[i] | bit if positive else bits[i] & ~bit
            else:
                structures.setdefault(n, {})[tuple(bits)] = None
    return structures


def _small_model(t1: Term, t2: Term, min_size: int, names: list[str]) -> TUnion[str, Verdict]:
    """Exact verdict from the structures built in the module docstring
    for sides in the sorted ``names``, or why the route does not apply."""
    structures = _small_model_structures(t1, t2, min_size, names)
    if isinstance(structures, str):
        return structures
    from .bitrel import pack_structures

    found = _separate(t1, t2, pack_structures(structures, names), min_size) if structures else None
    return found or Equivalent({"kind": "small-model", "sizes": sorted(structures),
                                "structures": sum(map(len, structures.values()))})


# ---------------------------------------------------------------------------
# Terms


def _bounded_separation(t1: Term, t2: Term, mode: Mode, cfg: OracleConfig,
                        reason: str, num_vars: int) -> Verdict:
    """Exhaustive scan at small sizes within budget, then seeded
    sampling (including any small sizes the budget skipped); an oracle
    size below the mode's minimum is sampled at the minimum instead.
    Never answers Equivalent.  An Unknown carries ``reason``."""
    from .bitrel import sample_count

    num_vars = max(1, num_vars)
    budget = 1 << 26
    exhausted, skipped_small = [], []
    for n in range(mode.min_size, 5):
        if structure_count(num_vars, n) > budget:
            skipped_small.append(n)
            continue
        witness = exhaustive_check(t1, t2, [n], budget=budget)
        if witness is not None:
            return _inequivalent(t1, t2, witness, mode.min_size)
        exhausted.append(n)
    samples = 0
    sizes = sorted({n for n in (max(s, mode.min_size) for s in
                                (*cfg.sample_sizes, cfg.exhaustive_size, *skipped_small))
                    if n <= MAX_SIZE})
    for n in sizes:
        witness = random_check(t1, t2, n, cfg.samples_per_size, cfg.seed)
        samples += sample_count(cfg.samples_per_size)
        if witness is not None:
            return _inequivalent(t1, t2, witness, mode.min_size)
    # the structure count grows with the size, so the exhausted sizes
    # are a run from the mode's minimum
    checked = SizeWindow(exhausted[0], exhausted[-1]) if exhausted else None
    return Unknown(checked, samples, tuple(sizes), reason, cfg.seed)


def decide_terms(t1: Term, t2: Term, mode: Mode = REL,
                 cfg: OracleConfig = OracleConfig()) -> Verdict:
    (info1, names1), (info2, names2) = fragment(t1), fragment(t2)
    names = sorted(names1 | names2)
    if info1.vo == 0 and info2.vo == 0:
        found = decide_0vo(t1, t2, mode.min_size)
        if isinstance(found, ConstClass):
            return Equivalent({"kind": "constant-classes", "class": found.value,
                               "checked_small_sizes": list(range(mode.min_size, 3))})
        return _inequivalent(t1, t2, found, mode.min_size)

    if info1.vo <= 1 and info2.vo <= 1 and info1.sigma_level <= 1 and info2.sigma_level <= 1:
        return _one_occurrence(t1, t2, mode.min_size, names)
    # ``==`` on terms recurses into the fields; no two terms print alike
    if info1 == info2 and print_term(t1) == print_term(t2):
        return Equivalent({"kind": "syntactic"})
    verdict = _small_model(t1, t2, mode.min_size, names)
    if not isinstance(verdict, str):
        return verdict
    return _bounded_separation(t1, t2, mode, cfg, verdict, len(names))


def replay_justification(verdict: Equivalent, t1: Term, t2: Term) -> bool:
    """Re-derive an Equivalent verdict from its recorded justification.
    A word verdict replays on the words filled with the variable a."""
    j = verdict.justification
    names = sorted(variables(t1) | variables(t2))
    if j["kind"] == "constant-classes":
        found = decide_0vo(t1, t2, min(j["checked_small_sizes"], default=3))
        return isinstance(found, ConstClass) and found.value == j["class"]
    if j["kind"] == "one-occurrence":
        return _one_occurrence(t1, t2, min(j["exhausted_sizes"], default=5), names) == verdict
    if j["kind"] == "syntactic":
        return print_term(t1) == print_term(t2)
    if j["kind"] == "small-model":
        return _small_model(t1, t2, min(j["sizes"], default=1), names) == verdict
    return False
