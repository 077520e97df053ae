"""Finite-structure semantics for relation terms.

A relation on an n-element universe is a packed bitset: bit ``x*n + y``
set iff the pair (x, y) is in the relation (row-major).  A structure is
a universe size plus one relation per variable.  Evaluation follows the
binary-relation reading of each operator: composition is relative
product, dagger is relative sum ((x,y) in R dagger S iff for every z,
(x,z) in R or (z,y) in S), projections re-read coordinates, boolean
operators and complement act inside the full square.

Equivalence oracles come in two flavours: ``exhaustive_check`` scans
every labeled structure at the given sizes (with a structure-count
budget) and ``random_check`` samples seeded random structures.  Only
they use the bit-sliced kernel (``bitrel``), loaded when called; both
stop at the first batch that separates the terms and return the first
counterexample in a documented deterministic order.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Optional

from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, TermError,
                    Top, Union, Var, record, variables)


class SemanticsError(ValueError):
    pass


class BudgetExceeded(SemanticsError):
    """An exhaustive scan would need more structures than allowed."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"enumeration needs {required} structures, budget is {budget}")


def full_mask(n: int) -> int:
    return (1 << (n * n)) - 1


def diag_mask(n: int) -> int:
    m = 0
    for x in range(n):
        m |= 1 << (x * n + x)
    return m


@record
class Rel:
    """A binary relation on [0, size) as a packed row-major bitset."""

    size: int
    bits: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SemanticsError("universe size must be at least 1")
        if not 0 <= self.bits <= full_mask(self.size):
            raise SemanticsError("relation bits out of range for the universe size")

    @staticmethod
    def empty(n: int) -> "Rel":
        return Rel(n, 0)

    @staticmethod
    def full(n: int) -> "Rel":
        return Rel(n, full_mask(n))

    @staticmethod
    def identity(n: int) -> "Rel":
        return Rel(n, diag_mask(n))

    @staticmethod
    def difference(n: int) -> "Rel":
        return Rel(n, full_mask(n) ^ diag_mask(n))

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        bits = 0
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise SemanticsError(f"pair ({x}, {y}) out of range for size {n}")
            bits |= 1 << (x * n + y)
        return Rel(n, bits)

    def contains(self, x: int, y: int) -> bool:
        return bool(self.bits >> (x * self.size + y) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        # each row once, its bits read lowest first from the binary digits
        return [(x, y) for x, r in enumerate(self.rows())
                for y, bit in enumerate(bin(r)[:1:-1]) if bit == "1"]

    def rows(self) -> list[int]:
        n = self.size
        mask = (1 << n) - 1
        return [(self.bits >> (x * n)) & mask for x in range(n)]

    def union(self, other: "Rel") -> "Rel":
        return Rel(self.size, self.bits | other.bits)

    def inter(self, other: "Rel") -> "Rel":
        return Rel(self.size, self.bits & other.bits)

    def compl(self) -> "Rel":
        return Rel(self.size, self.bits ^ full_mask(self.size))

    def comp(self, other: "Rel") -> "Rel":
        # relative product: row x of the result is the union of the
        # rows of `other` indexed by the bits of row x of self
        n = self.size
        right = other.rows()
        out = 0
        for r in reversed(self.rows()):
            acc = 0
            while r:
                low = r & -r
                acc |= right[low.bit_length() - 1]
                r ^= low
            out = (out << n) | acc
        return Rel(n, out)

    def dagger(self, other: "Rel") -> "Rel":
        # relative sum, the De Morgan dual of composition
        return self.compl().comp(other.compl()).compl()

    def converse(self) -> "Rel":
        # scatter the set bits of each row x into column x
        n = self.size
        cols = [0] * n
        for x, r in enumerate(self.rows()):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << x
                r ^= low
        out = 0
        for c in reversed(cols):
            out = (out << n) | c
        return Rel(n, out)

    def project(self, img1: int, img2: int) -> "Rel":
        if (img1, img2) == (1, 2):
            return self
        if (img1, img2) == (2, 1):
            return self.converse()
        loops = self.inter(Rel.identity(self.size))
        full = Rel.full(self.size)
        # [1,1]: (x,y) iff (x,x) in self; [2,2]: (x,y) iff (y,y) in self
        return loops.comp(full) if img1 == 1 else full.comp(loops)


@record
class Structure:
    """A finite universe plus one relation per variable."""

    size: int
    assignment: Mapping[str, Rel]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SemanticsError("universe size must be at least 1")
        for name, rel in self.assignment.items():
            if rel.size != self.size:
                raise SemanticsError(f"relation for {name!r} has size {rel.size}, structure has {self.size}")
        object.__setattr__(self, "assignment", dict(self.assignment))


@record
class SizeWindow:
    """The universe sizes a bounded verdict actually covered."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise SemanticsError(f"invalid size window [{self.lo}, {self.hi}]")


def structure_to_json(m: Structure) -> str:
    relations = {name: sorted(rel.pairs()) for name, rel in sorted(m.assignment.items())}
    return json.dumps({"size": m.size, "relations": relations})


def structure_from_json(text: str) -> Structure:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SemanticsError(f"invalid structure JSON: {e}") from None
    # bool is a subclass of int, but true is not a size or a point
    if not isinstance(obj, dict) or type(obj.get("size")) is not int:
        raise SemanticsError("structure object needs an integer 'size'")
    n = obj["size"]
    if n < 1:
        raise SemanticsError("structure size must be at least 1")
    rels = obj.get("relations", {})
    if not isinstance(rels, dict):
        raise SemanticsError("'relations' must map variable names to pair lists")
    assignment = {}
    for name, pairs in rels.items():
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(type(c) is int for c in p) for p in pairs):
            raise SemanticsError(f"relation {name!r}: pairs must be [x, y] integer lists")
        seen = set()
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise SemanticsError(f"relation {name!r}: pair ({x}, {y}) out of range for size {n}")
            if (x, y) in seen:
                raise SemanticsError(f"relation {name!r}: duplicate pair ({x}, {y})")
            seen.add((x, y))
        assignment[name] = Rel.from_pairs(n, (tuple(p) for p in pairs))
    return Structure(n, assignment)


def eval_term(t: Term, m: Structure) -> Rel:
    """Evaluate a term in a structure.  Every variable of t must be
    assigned."""
    n = m.size
    if isinstance(t, Var):
        try:
            return m.assignment[t.name]
        except KeyError:
            raise SemanticsError(f"variable {t.name!r} is not assigned in the structure") from None
    if isinstance(t, Bot):
        return Rel.empty(n)
    if isinstance(t, Top):
        return Rel.full(n)
    if isinstance(t, Id):
        return Rel.identity(n)
    if isinstance(t, Di):
        return Rel.difference(n)
    if isinstance(t, Union):
        return eval_term(t.left, m).union(eval_term(t.right, m))
    if isinstance(t, Inter):
        return eval_term(t.left, m).inter(eval_term(t.right, m))
    if isinstance(t, Compl):
        return eval_term(t.arg, m).compl()
    if isinstance(t, Comp):
        return eval_term(t.left, m).comp(eval_term(t.right, m))
    if isinstance(t, Dagger):
        return eval_term(t.left, m).dagger(eval_term(t.right, m))
    if isinstance(t, Proj):
        return eval_term(t.arg, m).project(t.proj.img1, t.proj.img2)
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Structure enumeration
#
# Order: variables sorted by name; the concatenation of their row-major
# bit matrices (first variable first, bit (0,0) first) is read as a
# big-endian binary string, and ``exhaustive_check`` scans structures
# in increasing order of that string, i.e. lexicographically.

DEFAULT_BUDGET = 1 << 28


def structure_count(num_vars: int, size: int) -> int:
    return 1 << (size * size * num_vars)


# ---------------------------------------------------------------------------
# Equivalence oracles

# the largest universe the decision routes take.  No kernel or sampler
# limits the size; the bound stays, so that no verdict moves, until a
# proof that a small structure settles the larger ones lifts it
MAX_SIZE = 8

@record
class OracleConfig:
    """Sizes and seeded samples for the bounded route in ``decide``;
    ``search`` reads only the exhaustive size.  Every size is at most
    ``MAX_SIZE``."""

    exhaustive_size: int = 5
    sample_sizes: tuple[int, ...] = (3, 4, 6)
    samples_per_size: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.exhaustive_size <= MAX_SIZE:
            raise ValueError(f"exhaustive_size must be in 1..{MAX_SIZE}")
        if any(not 1 <= s <= MAX_SIZE for s in self.sample_sizes):
            raise ValueError(f"sample sizes must be in 1..{MAX_SIZE}")
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be positive")
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))


def exhaustive_check(t1: Term, t2: Term, sizes: Iterable[int],
                     budget: int = DEFAULT_BUDGET) -> Optional[Structure]:
    """First structure (sizes ascending, then enumeration order) where
    the two terms evaluate differently; None if there is none."""
    from .bitrel import _CHUNK, _enumerated_batch, first_separating

    names = sorted(variables(t1) | variables(t2))
    for size in sorted(set(sizes)):
        count = structure_count(len(names), size)
        if count > budget:
            raise BudgetExceeded(count, budget)
        for start in range(0, count, _CHUNK):
            witness = first_separating(
                t1, t2, *_enumerated_batch(start, min(start + _CHUNK, count), names, size))
            if witness is not None:
                return witness
    return None


def random_check(t1: Term, t2: Term, size: int, samples: int,
                 seed: int) -> Optional[Structure]:
    """Seeded random search for a separating structure: the
    ``bitrel.sampled_batches`` of the terms' variables (constant terms
    keep one dummy variable ``a``, drawn and reported), max(samples, 4)
    of them at ``size`` on ``random.Random(seed)``, drawn one batch at a
    time and stopping at the first batch that separates the terms."""
    if seed < 0:
        # refused before any draw, with the message the command line
        # has always printed for it
        raise ValueError("expected non-negative integer")
    from .bitrel import first_separating, sampled_batches

    names = variables(t1) | variables(t2) or {"a"}
    for batch in sampled_batches(names, size, samples, seed):
        witness = first_separating(t1, t2, *batch)
        if witness is not None:
            return witness
    return None
