"""Finite-structure semantics for relation terms.

A relation on an n-element universe is a packed bitset: bit ``x*n + y``
set iff the pair (x, y) is in the relation (row-major).  A structure is
a universe size plus one relation per variable.  Evaluation follows the
binary-relation reading of each operator: composition is relative
product, dagger is relative sum ((x,y) in R dagger S iff for every z,
(x,z) in R or (z,y) in S), projections re-read coordinates, boolean
operators and complement act inside the full square.

The batch evaluator (``eval_term_batch``) runs each operator on whole
numpy arrays of packed relations (n <= 8).  Composition takes n
vector steps, one per middle point z: column z of the left side,
shifted to bit 0 of each row, times row z of the right side copies
that row into exactly the rows x with (x, z) on the left.  No product
carries, since the set bits of one factor are n apart and the other is
below 2^n (at n = 8 the products fill all 64 bits).  Dagger is the De
Morgan dual ~(~R ; ~S) within the full square.  Converse and the
projections [1,1] and [2,2] send each pair to a fixed set of pairs and
preserve unions, so they, like the bit reversal that turns an
enumeration index into relations, go through chunked lookup tables
(``linear_tables``; ``bitrel`` shares them).

Equivalence oracles come in two flavours: ``exhaustive_check`` scans
every labeled structure at the given sizes (with a structure-count
budget) and ``random_check`` samples seeded random structures.  Both
hand chunks of ``_CHUNK`` structures to ``first_separating``, stop at
the first chunk that separates the terms, and return the first
counterexample in a documented deterministic order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional

import numpy as np

from .terms import (Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, TermError,
                    Top, Union, Var, variables)


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


@dataclass(frozen=True)
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
        n = self.size
        return [(x, y) for x in range(n) for y in range(n) if self.contains(x, y)]

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    if not isinstance(obj, dict) or not isinstance(obj.get("size"), int):
        raise SemanticsError("structure object needs an integer 'size'")
    n = obj["size"]
    if n < 1:
        raise SemanticsError("structure size must be at least 1")
    rels = obj.get("relations", {})
    if not isinstance(rels, dict):
        raise SemanticsError("'relations' must map variable names to pair lists")
    assignment = {}
    for name, pairs in rels.items():
        seen = set()
        for p in pairs:
            if not (isinstance(p, list) and len(p) == 2 and all(isinstance(c, int) for c in p)):
                raise SemanticsError(f"relation {name!r}: pairs must be [x, y] integer lists")
            x, y = p
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
# Vectorized term evaluation on batches of packed relations

# a relation on n points packs into one 64-bit word only up to n = 8
MAX_SIZE = 8


def _first_col(n: int) -> int:
    # bit 0 of every row
    return sum(1 << (x * n) for x in range(n))


def linear_tables(images: Iterable[int], dtype) -> tuple[tuple[int, int, np.ndarray], ...]:
    """A map of packed words that sends 0 to 0 and preserves OR, given
    by the images of the single bits (bit p goes to ``images[p]``), as
    read-only lookup tables, one per group of <= 13 input bits."""
    images = list(images)
    tables = []
    for lo in range(0, len(images), 13):
        width = min(13, len(images) - lo)
        vals = np.arange(1 << width, dtype=dtype)
        out = np.zeros_like(vals)
        for p in range(width):
            if images[lo + p]:
                out |= ((vals >> dtype(p)) & dtype(1)) * dtype(images[lo + p])
        out.setflags(write=False)
        tables.append((lo, width, out))
    return tuple(tables)


def map_bits(arr: np.ndarray, tables) -> np.ndarray:
    """Apply a ``linear_tables`` map to every entry; the result is a new
    array of the tables' dtype."""
    dt = arr.dtype.type
    idx = np.empty(arr.shape, dtype=np.uint64)
    out = part = None
    for lo, width, table in tables:
        np.right_shift(arr, dt(lo), out=idx)
        idx &= np.uint64((1 << width) - 1)
        # indices are below 2^width by construction; "clip" skips the
        # bounds check and lets take write into ``part`` unbuffered
        if out is None:
            out = table.take(idx.view(np.int64), mode="clip")
        else:
            part = table.take(idx.view(np.int64), out=part, mode="clip")
            out |= part
    return out


@lru_cache(maxsize=None)
def _transpose_tables(n: int, dtype) -> tuple[tuple[int, int, np.ndarray], ...]:
    return linear_tables((1 << (y * n + x) for x in range(n) for y in range(n)), dtype)


@lru_cache(maxsize=None)
def _bitrev_tables(nbits: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    # maps a big-endian bit block to the packed little-endian relation
    return linear_tables((1 << (nbits - 1 - p) for p in range(nbits)), np.uint64)


@lru_cache(maxsize=None)
def _diag_proj_tables(n: int, img: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    # [1,1] sends a loop (x,x) to all of row x, [2,2] to all of column x
    spread = [((1 << n) - 1) << (x * n) if img == 1 else _first_col(n) << x for x in range(n)]
    return linear_tables((spread[x] if x == y else 0 for x in range(n) for y in range(n)), np.uint64)


def _batch_comp(r: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    # one step per middle point z: column z of r, moved to bit 0 of each
    # row, times row z of s copies that row into exactly the rows x with
    # (x, z) in r.  No product carries: the set bits of one factor are
    # n apart and the other factor is below 2^n.
    rm = np.uint64((1 << n) - 1)
    c = np.uint64(_first_col(n))
    out = (r & c) * (s & rm)
    col = np.empty_like(r)
    row = np.empty_like(r)
    for z in range(1, n):
        np.right_shift(r, np.uint64(z), out=col)
        col &= c
        np.right_shift(s, np.uint64(n * z), out=row)
        row &= rm
        col *= row
        out |= col
    return out


def _batch_project(r: np.ndarray, img1: int, img2: int, n: int) -> np.ndarray:
    if (img1, img2) == (1, 2):
        return r
    if (img1, img2) == (2, 1):
        return map_bits(r, _transpose_tables(n, np.uint64))
    return map_bits(r, _diag_proj_tables(n, img1))


def eval_term_batch(t: Term, assignment: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate a term on a whole batch of structures at once; each
    variable maps to a uint64 array of packed relations.  Packing
    limits the universe to ``MAX_SIZE`` points."""
    if n > MAX_SIZE:
        raise SemanticsError(f"batched evaluation packs relations into 64-bit words; size must be <= {MAX_SIZE}")
    fm = np.uint64(full_mask(n))
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise SemanticsError(f"variable {t.name!r} is not assigned") from None
    some = next(iter(assignment.values()), None)
    shape = some.shape if some is not None else (1,)
    if isinstance(t, Bot):
        return np.zeros(shape, dtype=np.uint64)
    if isinstance(t, Top):
        return np.full(shape, fm, dtype=np.uint64)
    if isinstance(t, Id):
        return np.full(shape, np.uint64(diag_mask(n)), dtype=np.uint64)
    if isinstance(t, Di):
        return np.full(shape, np.uint64(full_mask(n) ^ diag_mask(n)), dtype=np.uint64)
    if isinstance(t, Union):
        return eval_term_batch(t.left, assignment, n) | eval_term_batch(t.right, assignment, n)
    if isinstance(t, Inter):
        return eval_term_batch(t.left, assignment, n) & eval_term_batch(t.right, assignment, n)
    if isinstance(t, Compl):
        return eval_term_batch(t.arg, assignment, n) ^ fm
    if isinstance(t, Comp):
        return _batch_comp(eval_term_batch(t.left, assignment, n),
                           eval_term_batch(t.right, assignment, n), n)
    if isinstance(t, Dagger):
        # De Morgan dual of composition: R $ S = ~(~R ; ~S)
        out = _batch_comp(eval_term_batch(t.left, assignment, n) ^ fm,
                          eval_term_batch(t.right, assignment, n) ^ fm, n)
        out ^= fm
        return out
    if isinstance(t, Proj):
        return _batch_project(eval_term_batch(t.arg, assignment, n), t.proj.img1, t.proj.img2, n)
    raise TermError(f"unexpected term {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Equivalence oracles


@dataclass(frozen=True)
class OracleConfig:
    """Sizes and seeded samples for the bounded route in ``decide``;
    ``search`` reads only the exhaustive size.  Every size must pack."""

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


# small enough that a chunk's temporaries stay in cache and the first
# separating chunk ends the scan early
_CHUNK = 1 << 14


def first_separating(t1: Term, t2: Term, assignment: Mapping[str, np.ndarray],
                     n: int) -> Optional[Structure]:
    """The structure at the first index of the batch where the two terms
    evaluate differently; None if they agree on the whole batch."""
    diff = np.nonzero(eval_term_batch(t1, assignment, n) != eval_term_batch(t2, assignment, n))[0]
    if not diff.size:
        return None
    return Structure(n, {name: Rel(n, int(vals[diff[0]])) for name, vals in assignment.items()})


def _enumerated_batch(start: int, stop: int, names: list[str], size: int) -> dict[str, np.ndarray]:
    """The structures with enumeration indices start..stop-1, as one
    array of packed relations per variable: each variable's block of the
    index is bit-reversed into a row-major relation."""
    nn = size * size
    rev = _bitrev_tables(nn)
    block_mask = np.uint64((1 << nn) - 1)
    idx = np.arange(start, stop, dtype=np.uint64)
    k = len(names)
    return {name: map_bits((idx >> np.uint64(nn * (k - 1 - slot))) & block_mask, rev)
            for slot, name in enumerate(names)}


def exhaustive_check(t1: Term, t2: Term, sizes: Iterable[int],
                     budget: int = DEFAULT_BUDGET) -> Optional[Structure]:
    """First structure (sizes ascending, then enumeration order) where
    the two terms evaluate differently; None if there is none."""
    names = sorted(variables(t1) | variables(t2))
    for size in sorted(set(sizes)):
        count = structure_count(len(names), size)
        if count > budget:
            raise BudgetExceeded(count, budget)
        for start in range(0, count, _CHUNK):
            witness = first_separating(
                t1, t2, _enumerated_batch(start, min(start + _CHUNK, count), names, size), size)
            if witness is not None:
                return witness
    return None


def random_check(t1: Term, t2: Term, size: int, samples: int,
                 seed: int) -> Optional[Structure]:
    """Seeded random search for a separating structure: each pair is
    present independently with probability 1/2, with the empty, full,
    identity and difference assignments forced into every batch."""
    if size > MAX_SIZE:
        raise SemanticsError(f"random_check packs relations into 64-bit words; size must be <= {MAX_SIZE}")
    names = sorted(variables(t1) | variables(t2))
    if not names:
        names = ["a"]  # constant terms still need one dummy slot for batching
    rng = np.random.default_rng(seed)
    fm = np.uint64(full_mask(size))
    forced = [np.uint64(0), fm, np.uint64(diag_mask(size)), np.uint64(full_mask(size) ^ diag_mask(size))]
    total = max(samples, len(forced))
    assignment = {}
    for name in names:
        lo = rng.integers(0, 1 << 32, size=total, dtype=np.uint64)
        vals = rng.integers(0, 1 << 32, size=total, dtype=np.uint64)
        vals <<= np.uint64(32)
        vals |= lo
        vals &= fm
        vals[: len(forced)] = forced
        assignment[name] = vals
    for start in range(0, total, _CHUNK):
        witness = first_separating(t1, t2, {name: vals[start:start + _CHUNK]
                                            for name, vals in assignment.items()}, size)
        if witness is not None:
            return witness
    return None
