"""Top-level equivalence decisions, three-valued.

``Equivalent`` always carries a replayable justification (constant-class
derivations, or the sizes a one-occurrence check decided one by one);
``Inequivalent`` carries a separating structure that is re-checked on
construction; everything else is ``Unknown`` with the sizes actually
exhausted and sampled.  Only the variable-free route and the
one-occurrence route can answer ``Equivalent``; the bounded oracles
are sound but incomplete.

Routing in ``decide_terms``: two variable-free terms go through the
constant classes (exact).  Two terms with at most one variable
occurrence each and existential level at most one take the
one-occurrence route (exact).  Anything else gets a bounded
counterexample search and never an ``Equivalent``.  Words
(``decide_word_equiv``) take the one-occurrence route on the terms
they make from one variable, on universes of size at least five.

The one-occurrence route evaluates both sides on every assignment of
*basis* relations to the variables: the empty relation, the full
relation, every one-pair relation and every all-but-one-pair relation.
It does so at each size from the mode's minimum to 4, and once at one
size of at least 5, which stands for every size from 5 on.  This is
exact:

* Level at most one means there is no dagger and every complement sits
  below every composition.  Complements pass through union,
  intersection, converse and the projections, so each side is f(a) or
  f(~a) for a variable a (or a constant), where f is built from union
  and intersection with constants, composition with constants, converse
  and projections.  Such an f is monotone and preserves non-empty
  unions, so it is fixed by its value on the empty relation and on the
  one-pair relations; as a map of a, f(~a) is fixed by its values on
  the full and the all-but-one-pair relations.  The basis of size n
  therefore decides the equation at size n.
* The image of the one-pair relation {(u, v)} is a first-order formula
  over equality in the point variables x, y and the parameters u, v.
  At every quantifier it has at most 4 free variables, so each
  quantifier is eliminated in the same way on every universe with at
  least 5 points, and the images agree at one size from 5 on iff they
  agree at all of them.  Past size 8 no kernel packs the basis, so a
  size-5 witness is carried to the mode's minimum with the same named
  points: the pair it separates keeps its equality type with them.
* Sides in different variables, or in one variable with opposite
  polarities, are equal only when both are constant: one is monotone
  and the other antitone or independent of it.  The basis holds the
  empty and the full relation, on which a non-constant monotone side
  differs, so the check finds that too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union as TUnion

import numpy as np

from .constants import decide_0vo
from .semantics import (Rel, SizeWindow, Structure, eval_term, exhaustive_check,
                        first_separating, full_mask, random_check, structure_count)
from .search import OracleConfig
from .terms import Term, Var, dotdagger_level, variables, vo
from .words import Word, apply_word


@dataclass(frozen=True)
class Equivalent:
    justification: dict


@dataclass(frozen=True)
class Inequivalent:
    witness: Structure


@dataclass(frozen=True)
class Unknown:
    """No verdict.  ``checked`` is the window of sizes scanned
    exhaustively (None if there were none); ``samples`` seeded
    structures were drawn in all over the ``sampled`` sizes."""

    checked: Optional[SizeWindow]
    samples: int
    sampled: tuple[int, ...] = ()


Verdict = TUnion[Equivalent, Inequivalent, Unknown]


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# One variable occurrence per side


@lru_cache(maxsize=None)
def _basis(n: int) -> np.ndarray:
    # empty, full, then every one-pair and every all-but-one-pair relation
    fm = full_mask(n)
    singles = [1 << p for p in range(n * n)]
    return np.array([0, fm, *singles, *(fm ^ s for s in singles)], dtype=np.uint64)


def _basis_difference(t1: Term, t2: Term, n: int) -> Optional[Structure]:
    """First assignment of basis relations (first variable by name
    slowest) on which the terms differ at size n, or None."""
    names = sorted(variables(t1) | variables(t2))
    grids = np.meshgrid(*[_basis(n)] * len(names), indexing="ij")
    return first_separating(t1, t2, {name: g.ravel() for name, g in zip(names, grids)}, n)


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
    small = list(range(min_size, 5))
    large = max(min_size, 5) if min_size <= 8 else 5
    for n in (*small, large):
        witness = _basis_difference(t1, t2, n)
        if witness is not None:
            if n < min_size:
                witness = Structure(min_size, {name: _lift(rel, min_size)
                                               for name, rel in witness.assignment.items()})
            return _checked_inequivalent(t1, t2, witness)
    return Equivalent({"kind": "one-occurrence", "exhausted_sizes": small})


def decide_word_equiv(w1: Word, w2: Word, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Exact verdict on universes of size at least 5 for the words
    filled with one variable: Equivalent, or Inequivalent with a size-5
    witness.  ``cfg`` is accepted for compatibility and ignored."""
    a = Var("a")
    return _one_occurrence(apply_word(w1, a), apply_word(w2, a), 5)


# ---------------------------------------------------------------------------
# Terms


def _bounded_separation(t1: Term, t2: Term, mode: Mode,
                        cfg: OracleConfig) -> Verdict:
    """Exhaustive scan at small sizes within budget, then seeded
    sampling (including any small sizes the budget skipped); never
    answers Equivalent."""
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
    sizes = sorted({s for s in (*cfg.sample_sizes, cfg.exhaustive_size, *skipped_small)
                    if mode.min_size <= s <= 8})
    for n in sizes:
        witness = random_check(t1, t2, n, cfg.samples_per_size, cfg.seed)
        samples += cfg.samples_per_size
        if witness is not None:
            return _checked_inequivalent(t1, t2, witness)
    # the structure count grows with the size, so the exhausted sizes
    # are a run from the mode's minimum
    checked = SizeWindow(exhausted[0], exhausted[-1]) if exhausted else None
    return Unknown(checked, samples, tuple(sizes))


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
    if (info1.vo <= 1 and info2.vo <= 1
            and info1.sigma_level is not None and info1.sigma_level <= 1
            and info2.sigma_level is not None and info2.sigma_level <= 1):
        return _one_occurrence(t1, t2, mode.min_size)
    return _bounded_separation(t1, t2, mode, cfg)


def replay_justification(verdict: Equivalent, t1: Term, t2: Term) -> bool:
    """Re-derive an Equivalent verdict from its recorded justification.
    A word verdict replays on the words filled with the variable a."""
    j = verdict.justification
    if j["kind"] == "constant-classes":
        z = decide_0vo(t1, t2, min(j["checked_small_sizes"], default=3))
        return z.equivalent and z.left_class.value == j["class"]
    if j["kind"] == "one-occurrence":
        return _one_occurrence(t1, t2, min(j["exhausted_sizes"], default=5)) == verdict
    return False
