"""Top-level equivalence decisions, three-valued.

``Equivalent`` always carries a replayable justification (constant-class
derivations, syntactic identity, or the sizes and number of structures
an exact route checked); ``Inequivalent`` carries a separating
structure that is re-checked on construction; everything else is
``Unknown`` with the sizes actually exhausted and sampled, the sampling
seed, and the reason the small-model route did not apply.  Only the
bounded route can answer ``Unknown``, and it never answers
``Equivalent``.

Routing in ``decide_terms``: two variable-free terms go through the
constant classes (exact).  Two terms with at most one variable
occurrence each and existential level at most one take the
one-occurrence route (exact).  Two identical terms are equivalent.
Every other pair takes the small-model route (exact) when it applies,
and the bounded counterexample search otherwise.  Words
(``decide_word_equiv``) take the one-occurrence route on the terms
they make from one variable, on universes of size at least five.

The exact routes hand (size, count, assignment batch) triples, sizes
ascending, to ``_separate``.  It merges them into one bit-sliced batch
at the stride of the largest size, each entry keeping its own size
(``bitrel.merge_batches``), evaluates each side once, and takes the
structure at the first entry where the sides differ, at that entry's
size, and re-checks it.  Sizes and entries keep their order, so that
is the first separating structure of the first separating size.

The one-occurrence route evaluates both sides on every assignment of
*basis* relations to the variables: the empty relation, the full
relation, every one-pair relation and every all-but-one-pair relation.
It does so at each size from the mode's minimum to 4, and once at one
size of at least 5, which stands for every size from 5 on.  This is
exact:

* The levels are read from the complement normal form
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
  least 5 points, and the images agree at one size from 5 on iff they
  agree at all of them.  The route evaluates at sizes up to
  ``MAX_SIZE`` (8) only, so in a larger mode a size-5 witness is
  carried to the mode's minimum with the same named points: the pair
  it separates keeps its equality type with them.
* Sides in different variables, or in one variable with opposite
  polarities, are equal only when both are constant: one is monotone
  and the other antitone or independent of it.  The basis holds the
  empty and the full relation, on which a non-constant monotone side
  differs, so the check finds that too.

The small-model route checks both inclusions.  t1 ⊆ t2 fails on a
structure of size at least M exactly when φ = T1(x0, y0) ∧ ¬T2(x0, y0)
holds there for some points x0, y0, where T1 and T2 are the standard
translations (``fo``), their bound names drawn from one pool.  In
negation normal form, with no existential below a universal, φ is
equivalent to ∃x0 ∃y0 of a disjunction of formulas ∃z̄ (L ∧ U1 ∧ ... ∧
Ur): the literals L are quantifier-free and the Ui are universal
formulas (``fo.ea_disjuncts``).  Call x0, y0 and z̄ the disjunct's
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

The route does not apply, and the pair goes to the bounded search,
when an existential sits below a universal, when a variable has both
polarities in the universal parts of one disjunct, when a structure
would have more than ``MAX_SIZE`` (8) points (no kernel limits the
size; the bound stays until a proof of its own lifts it), or when there
would be more than ``_CANDIDATE_CAP`` structures.  All four are read
from ``fo.ea_profile`` before any disjunct is expanded.  When a built
structure separates the sides, the bounded search runs all the same,
so that its witness is the one reported; the built witness is reported
only when that search comes back ``Unknown``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Optional, Union as TUnion

from .constants import decide_0vo
from .semantics import (MAX_SIZE, OracleConfig, Rel, SizeWindow, Structure, eval_term,
                        exhaustive_check, full_mask, random_check, structure_count)
from .terms import Term, Var, dotdagger_level, record, variables, vo

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
    says why the small-model route did not apply."""

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


def _checked_inequivalent(t1: Term, t2: Term, witness: Structure) -> Inequivalent:
    if eval_term(t1, witness) == eval_term(t2, witness):
        raise AssertionError("claimed witness does not separate the terms")
    return Inequivalent(witness)


def _separate(t1: Term, t2: Term, batches, min_size: int) -> Optional[Inequivalent]:
    """``first_separating`` on the (size, count, assignment) triples merged
    into one batch in order.  The first witness, carried to ``min_size``
    if it is smaller (see ``_lift``) and re-checked; None if no entry
    separates."""
    from .bitrel import first_separating, merge_batches

    batches = list(batches)
    witness = first_separating(t1, t2, *merge_batches(batches)) if batches else None
    if witness is None:
        return None
    if witness.size < min_size:
        witness = Structure(min_size, {name: _lift(rel, min_size)
                                       for name, rel in witness.assignment.items()})
    return _checked_inequivalent(t1, t2, witness)


# ---------------------------------------------------------------------------
# One variable occurrence per side


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[int, ...]:
    # empty, full, then every one-pair and every all-but-one-pair relation
    fm = full_mask(n)
    singles = [1 << p for p in range(n * n)]
    return (0, fm, *singles, *(fm ^ s for s in singles))


@lru_cache(maxsize=None)
def _basis_slots(k: int, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The number of assignments of basis relations at size n to k
    variables, and each variable's pair integers over them, the first
    variable slowest."""
    from .bitrel import pair_integers

    assignments = list(product(_basis(n), repeat=k))
    return len(assignments), tuple(tuple(pair_integers(rels, n)) for rels in zip(*assignments))


def _basis_batch(names: list[str], n: int) -> tuple[int, int, dict]:
    """Every assignment of basis relations at size n, first variable by
    name slowest, as a (size, count, assignment) triple."""
    count, slots = _basis_slots(len(names), n)
    return n, count, dict(zip(names, slots))


def _lift(rel: Rel, n: int) -> Rel:
    """A basis relation carried to size n: the same pairs, or all pairs
    but the same ones."""
    if rel.bits.bit_count() <= 1:
        return Rel.from_pairs(n, rel.pairs())
    return Rel.from_pairs(n, rel.compl().pairs()).compl()


def _one_occurrence(t1: Term, t2: Term, min_size: int) -> Verdict:
    """Exact verdict for two sides with at most one variable occurrence
    each and level at most one (see the module docstring); a witness
    is at the mode's minimum size."""
    names = sorted(variables(t1) | variables(t2))
    small = list(range(min_size, 5))
    large = max(min_size, 5) if min_size <= MAX_SIZE else 5
    found = _separate(t1, t2, (_basis_batch(names, n) for n in (*small, large)), min_size)
    return found or Equivalent({"kind": "one-occurrence", "exhausted_sizes": small})


def decide_word_equiv(w1: Word, w2: Word, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Exact verdict on universes of size at least 5 for the words
    filled with one variable: Equivalent, or Inequivalent with a size-5
    witness.  ``cfg`` is accepted for compatibility and ignored."""
    from .words import apply_word

    a = Var("a")
    return _one_occurrence(apply_word(w1, a), apply_word(w2, a), 5)


# ---------------------------------------------------------------------------
# Small models of ∃*∀* inclusions

# the most structures the small-model route builds for one pair
_CANDIDATE_CAP = 1 << 14


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Every partition of k ordered witnesses, as the class of each
    witness with classes numbered in order of first appearance."""
    out = [()]
    for _ in range(k):
        out = [p + (c,) for p in out for c in range(max(p, default=-1) + 2)]
    return tuple(out)


def _small_model(t1: Term, t2: Term, min_size: int) -> TUnion[str, Verdict]:
    """Exact verdict from the structures built in the module docstring,
    or the reason the route does not apply."""
    from .fo import (FoAnd, FoAtom, FoEq, FoNot, ea_disjuncts, ea_profile, nnf,
                     standard_translations, universal_polarities)

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

    names = sorted(variables(t1) | variables(t2))
    structures: dict[int, dict[tuple[int, ...], None]] = {}
    for d in (d for phi in phis for d in ea_disjuncts(phi)):
        points = ("x0", "y0", *d.exists)
        full = frozenset().union(*(universal_polarities(u)[0] for u in d.foralls))
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
    from .bitrel import pair_integers

    batches = [(n, len(structures[n]), dict(zip(names, (pair_integers(rels, n)
                                                         for rels in zip(*structures[n])))))
               for n in sorted(structures)]
    found = _separate(t1, t2, batches, min_size)
    return found or Equivalent({"kind": "small-model", "sizes": sorted(structures),
                                "structures": sum(map(len, structures.values()))})


# ---------------------------------------------------------------------------
# Terms


def _bounded_separation(t1: Term, t2: Term, mode: Mode,
                        cfg: OracleConfig, reason: str) -> Verdict:
    """Exhaustive scan at small sizes within budget, then seeded
    sampling (including any small sizes the budget skipped); an oracle
    size below the mode's minimum is sampled at the minimum instead.
    Never answers Equivalent.  An Unknown carries ``reason``."""
    num_vars = max(1, len(variables(t1) | variables(t2)))
    budget = 1 << 26
    exhausted, skipped_small = [], []
    for n in range(mode.min_size, 5):
        if structure_count(num_vars, n) > budget:
            skipped_small.append(n)
            continue
        witness = exhaustive_check(t1, t2, [n], budget=budget)
        if witness is not None:
            return _checked_inequivalent(t1, t2, witness)
        exhausted.append(n)
    samples = 0
    sizes = sorted({n for n in (max(s, mode.min_size) for s in
                                (*cfg.sample_sizes, cfg.exhaustive_size, *skipped_small))
                    if n <= MAX_SIZE})
    for n in sizes:
        witness = random_check(t1, t2, n, cfg.samples_per_size, cfg.seed)
        samples += cfg.samples_per_size
        if witness is not None:
            return _checked_inequivalent(t1, t2, witness)
    # the structure count grows with the size, so the exhausted sizes
    # are a run from the mode's minimum
    checked = SizeWindow(exhausted[0], exhausted[-1]) if exhausted else None
    return Unknown(checked, samples, tuple(sizes), reason, cfg.seed)


def decide_terms(t1: Term, t2: Term, mode: Mode = REL,
                 cfg: OracleConfig = OracleConfig()) -> Verdict:
    if vo(t1) == 0 and vo(t2) == 0:
        z = decide_0vo(t1, t2, mode.min_size)
        if z.equivalent:
            return Equivalent({
                "kind": "constant-classes",
                "class": z.left_class.value,
                "checked_small_sizes": list(z.checked_small_sizes),
            })
        assert z.witness is not None
        return _checked_inequivalent(t1, t2, z.witness)

    info1, info2 = dotdagger_level(t1), dotdagger_level(t2)
    if info1.vo <= 1 and info2.vo <= 1 and info1.sigma_level <= 1 and info2.sigma_level <= 1:
        return _one_occurrence(t1, t2, mode.min_size)
    if t1 == t2:
        return Equivalent({"kind": "syntactic"})
    verdict = _small_model(t1, t2, mode.min_size)
    if isinstance(verdict, Equivalent):
        return verdict
    bounded = _bounded_separation(t1, t2, mode, cfg, verdict if isinstance(verdict, str) else "")
    if isinstance(verdict, Inequivalent) and isinstance(bounded, Unknown):
        return verdict
    return bounded


def replay_justification(verdict: Equivalent, t1: Term, t2: Term) -> bool:
    """Re-derive an Equivalent verdict from its recorded justification.
    A word verdict replays on the words filled with the variable a."""
    j = verdict.justification
    if j["kind"] == "constant-classes":
        z = decide_0vo(t1, t2, min(j["checked_small_sizes"], default=3))
        return z.equivalent and z.left_class.value == j["class"]
    if j["kind"] == "one-occurrence":
        return _one_occurrence(t1, t2, min(j["exhausted_sizes"], default=5)) == verdict
    if j["kind"] == "syntactic":
        return t1 == t2
    if j["kind"] == "small-model":
        return _small_model(t1, t2, min(j["sizes"], default=1)) == verdict
    return False
