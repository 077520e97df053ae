"""The packed-relation kernel, the one module that imports numpy on load.

A relation on n points (n <= ``MAX_SIZE`` = 8) is one machine word, and
every kernel acts on whole numpy arrays of such words.  One array may
hold relations of several universe sizes: the largest size m in the
batch is the row stride, a relation on n <= m points keeps the pair
(x, y) at bit ``x*m + y``, and its rows and columns from n on stay
empty.  A batch of one size is the case m = n, bit ``x*n + y``.  The
size argument ``n`` of the kernels is that one size, or the ``Sizes``
of a batch with several; then each entry also carries its full mask
(the n x n square at stride m), and the few maps that can reach past an
entry's square AND with it: complement, ``top``, ``I``, ``D``, dagger,
the projections [1,1] and [2,2], and the letter ``cD``.  Composition,
converse, union, intersection, ``iI`` and ``iD`` keep the empty rows
and columns empty.  With one size the mask is the whole word and is
skipped.

Maps that send each pair to a fixed set of pairs preserve unions, so
they go through chunked lookup tables (``linear_tables``), each mapping
a group of input bits to the union of their images: converse, the
projections [1,1] and [2,2], the letter ``cD`` and the bit reversal
that turns an enumeration index into relations.

*Context words.*  ``iI`` / ``iD`` are single masks; ``cv`` is converse;
``{(x, y)} ; D`` is row x minus column y, so a row composed with the
difference relation is full with two or more bits, full minus that
column with exactly one, and empty when it is empty.  At stride m it is
row x of width m minus (x, y), ANDed with the entry's full mask, so one
table serves every size.  Every letter preserves unions and sends the
empty relation to itself, so the n^2 images of the one-pair relations
(``one_pair_relations``, ``singleton_images``) fix a word's map at size
n exactly.  Two words differ at size n iff some image differs, and if j
is the lowest such index, counted x*n + y, then ``1 << j`` is the
numerically first separating relation of size n (a smaller relation has
only bits below j, whose images agree).  ``rule_counterexamples``
evaluates each word once over all the sizes asked for.  The literal
scan over all 2^(n^2) relations lives in the test suite as an
independent oracle.

*Terms.*  ``eval_term_batch`` evaluates a term on a batch of
structures, one array per variable.  Composition takes m vector steps,
one per middle point z: column z of the left side, shifted to bit 0 of
each row, times row z of the right side copies that row into exactly
the rows x with (x, z) on the left.  No product carries, since the set
bits of one factor are m apart and the other is below 2^m (at m = 8 the
products fill all 64 bits).  Dagger is the De Morgan dual ~(~R ; ~S).
``first_separating`` finds the first structure of a batch that
separates two terms, at that entry's own size; the oracles of
``semantics`` hand it batches of one size, and the exact routes of
``decide`` merge theirs into one batch (``merge_batches``).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .semantics import MAX_SIZE, Rel, SemanticsError, Structure, diag_mask, full_mask
from .terms import Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, TermError, Top, Union, Var
from .words import CAP_D, CAP_I, CONV, DOT_D, Letter, Word


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


def _dtype(n: int):
    return np.uint32 if n * n <= 32 else np.uint64


def _check_size(n: int) -> None:
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"packed relations support sizes 1..{MAX_SIZE}, got {n}")


@lru_cache(maxsize=None)
def _full_masks(m: int) -> np.ndarray:
    # entry n: the n x n square at stride m
    out = np.array([sum(((1 << n) - 1) << (x * m) for x in range(n)) for n in range(m + 1)],
                   dtype=np.uint64)
    out.setflags(write=False)
    return out


class Sizes:
    """The size argument of a batch whose entries have several universe
    sizes: each entry's size, the stride (the largest size) and each
    entry's full mask, built once per batch."""

    __slots__ = ("each", "stride", "full")

    def __init__(self, each: np.ndarray) -> None:
        self.each = each
        self.stride = int(each.max())
        self.full = _full_masks(self.stride)[each]
        self.full.setflags(write=False)


def size_arg(sizes: Sequence[int], counts: Sequence[int]):
    """The kernels' size argument for a batch of ``counts[i]`` entries
    of size ``sizes[i]`` in turn: the one size, or their ``Sizes``."""
    if len(set(sizes)) == 1:
        return sizes[0]
    return Sizes(np.repeat(sizes, counts))


def _layout(n):
    """Stride, and the full masks that the maps which reach past an
    entry's square AND with: None for one size, whose square is the
    whole word."""
    return (n.stride, n.full) if isinstance(n, Sizes) else (n, None)


@lru_cache(maxsize=None)
def _rowd_tables(m: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    # {(x, y)} ; D is row x minus (x, y), ANDed with the entry's square
    full_row = (1 << m) - 1
    return linear_tables(((full_row ^ (1 << y)) << (x * m) for x in range(m) for y in range(m)),
                         _dtype(m))


def apply_letter(arr: np.ndarray, letter: Letter, n) -> np.ndarray:
    """One letter on every entry; ``arr`` has the dtype ``_dtype`` of
    the stride."""
    m, mask = _layout(n)
    dt = _dtype(m)
    if letter is CAP_I:
        return arr & dt(diag_mask(m))
    if letter is CAP_D:
        return arr & dt(full_mask(m) ^ diag_mask(m))
    if letter is CONV:
        return map_bits(arr, _transpose_tables(m, dt))
    if letter is DOT_D:
        out = map_bits(arr, _rowd_tables(m))
        if mask is not None:
            out &= mask
        return out
    raise ValueError(f"unknown letter {letter!r}")


def apply_word_packed(arr: np.ndarray, w: Word, n) -> np.ndarray:
    """Value of w filled with each relation of ``arr``; the last letter
    acts first (it is innermost)."""
    if not isinstance(n, Sizes):
        _check_size(n)
    for letter in reversed(w):
        arr = apply_letter(arr, letter, n)
    return arr


# ---------------------------------------------------------------------------
# Exact equality


@lru_cache(maxsize=None)
def one_pair_relations(sizes: tuple[int, ...]):
    """The one-pair relations of each size in turn, (x, y) at index
    x*n + y of its size's segment, packed at the stride of the largest
    size, and the kernels' size argument for them."""
    for n in sizes:
        _check_size(n)
    m = max(sizes)
    dt = _dtype(m)
    arr = dt(1) << np.array([x * m + y for n in sizes for x in range(n) for y in range(n)], dtype=dt)
    arr.setflags(write=False)
    return arr, size_arg(sizes, [n * n for n in sizes])


def singleton_images(w: Word, n: int) -> np.ndarray:
    """Packed images under w of the n^2 one-pair relations: entry j is
    w[1 << j].  These fix w's value on every relation of size n."""
    return apply_word_packed(one_pair_relations((n,))[0], w, n)


def rule_counterexamples(pairs: Sequence[tuple[Word, Word]],
                         sizes: Sequence[int]) -> dict[int, list[Optional[int]]]:
    """Per size and per pair of words, the numerically first packed
    relation R of that size with w1[R] != w2[R] (always a one-pair
    relation ``1 << j``), or None when the words agree on all 2^(n^2)
    relations.  Each word, and each suffix shared between words, is
    evaluated once, on the one-pair relations of every size at once."""
    for n in sizes:
        _check_size(n)
    sizes = tuple(sorted(set(sizes)))
    base, arg = one_pair_relations(sizes)
    # one row per suffix of a word, shortest first, so that the row of
    # w[1:] is filled before the row of w (one array, rather than one
    # per suffix, keeps repeated calls from fragmenting the heap)
    suffixes = sorted({()} | {w[k:] for pair in pairs for w in pair for k in range(len(w))},
                      key=len)
    row = {w: i for i, w in enumerate(suffixes)}
    images = np.empty((len(suffixes), len(base)), dtype=base.dtype)
    images[0] = base
    for i, w in enumerate(suffixes[1:], start=1):
        # the last letter acts first, so w is w[0] applied to w[1:]
        images[i] = apply_letter(images[row[w[1:]]], w[0], arg)

    segments, lo = [], 0
    for n in sizes:
        segments.append((n, lo, lo + n * n))
        lo += n * n
    out: dict[int, list[Optional[int]]] = {n: [] for n in sizes}
    for w1, w2 in pairs:
        bad = np.flatnonzero(images[row[w1]] != images[row[w2]]).tolist()
        for n, lo, hi in segments:
            k = bisect_left(bad, lo)
            out[n].append(1 << (bad[k] - lo) if k < len(bad) and bad[k] < hi else None)
    return out


def scan_rule_pairs(pairs: Sequence[tuple[Word, Word]], n: int) -> list[Optional[int]]:
    """Per pair, its ``rule_counterexamples`` at size n."""
    return rule_counterexamples(pairs, (n,))[n]


def words_equal_all_relations(w1: Word, w2: Word, n: int) -> bool:
    """Whether the words agree on every relation of size n."""
    return bool(np.array_equal(singleton_images(w1, n), singleton_images(w2, n)))


def word_matrix(w: Word, n: int) -> np.ndarray:
    """Boolean transfer matrix of the word: bit j of the input feeds
    bit i of the output iff entry (i, j) is set, so column j is the
    image of ``1 << j``."""
    images = singleton_images(w, n).astype(np.uint64)
    shifts = np.arange(n * n, dtype=np.uint64)[:, None]
    return ((images[None, :] >> shifts) & np.uint64(1)).astype(np.uint8)


# ---------------------------------------------------------------------------
# Seeded panels: kept only because the perfbench tracer wraps
# ``sampled_counterexample``; every word question in the program is
# answered from the singleton images above.


@lru_cache(maxsize=32)
def sample_panel(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic panel of packed relations: each pair present with
    probability 1/2, with empty, full, identity and difference forced
    into the first four slots."""
    _check_size(n)
    rng = np.random.default_rng([seed, n])
    total = max(count, 4)
    lo = rng.integers(0, 1 << 32, size=total, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=total, dtype=np.uint64)
    vals = (lo | (hi << np.uint64(32))) & np.uint64(full_mask(n))
    vals[0] = 0
    vals[1] = full_mask(n)
    vals[2] = diag_mask(n)
    vals[3] = full_mask(n) ^ diag_mask(n)
    arr = vals.astype(_dtype(n))
    arr.setflags(write=False)
    return arr


def sampled_counterexample(w1: Word, w2: Word, n: int, count: int,
                           seed: int) -> Optional[int]:
    """First panel relation separating the two words, or None.  When
    the words agree on every relation of size n no panel entry can
    separate them, and the panel is neither built nor evaluated."""
    if words_equal_all_relations(w1, w2, n):
        return None
    panel = sample_panel(n, count, seed)
    a = apply_word_packed(panel, w1, n)
    b = apply_word_packed(panel, w2, n)
    bad = np.nonzero(a != b)[0]
    return int(panel[int(bad[0])]) if bad.size else None


# ---------------------------------------------------------------------------
# Terms on batches of structures


def _batch_comp(r: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    # one step per middle point z: column z of r, moved to bit 0 of each
    # row, times row z of s copies that row into exactly the rows x with
    # (x, z) in r.  No product carries: the set bits of one factor are
    # m apart and the other factor is below 2^m.
    rm = np.uint64((1 << m) - 1)
    c = np.uint64(_first_col(m))
    out = (r & c) * (s & rm)
    col = np.empty_like(r)
    row = np.empty_like(r)
    for z in range(1, m):
        np.right_shift(r, np.uint64(z), out=col)
        col &= c
        np.right_shift(s, np.uint64(m * z), out=row)
        row &= rm
        col *= row
        out |= col
    return out


def _batch_project(r: np.ndarray, img1: int, img2: int, m: int, mask) -> np.ndarray:
    if (img1, img2) == (1, 2):
        return r
    if (img1, img2) == (2, 1):
        return map_bits(r, _transpose_tables(m, np.uint64))
    # a loop spreads over its whole row or column at the stride
    out = map_bits(r, _diag_proj_tables(m, img1))
    if mask is not None:
        out &= mask
    return out


def eval_term_batch(t: Term, assignment: Mapping[str, np.ndarray], n) -> np.ndarray:
    """Evaluate a term on a whole batch of structures at once; each
    variable maps to a uint64 array of packed relations, and ``n`` is
    their size or their ``Sizes``.  Packing limits the universe to
    ``MAX_SIZE`` points."""
    if not isinstance(n, Sizes) and n > MAX_SIZE:
        raise SemanticsError(f"batched evaluation packs relations into 64-bit words; size must be <= {MAX_SIZE}")
    m, mask = _layout(n)
    fm = np.uint64(full_mask(m)) if mask is None else mask
    some = next(iter(assignment.values()), None)
    shape = some.shape if some is not None else n.each.shape if mask is not None else (1,)
    ident = np.uint64(diag_mask(m)) & fm
    leaves = {Bot: np.uint64(0), Top: fm, Id: ident, Di: fm ^ ident}

    def ev(t: Term) -> np.ndarray:
        if isinstance(t, Var):
            try:
                return assignment[t.name]
            except KeyError:
                raise SemanticsError(f"variable {t.name!r} is not assigned") from None
        if type(t) in leaves:
            return np.full(shape, leaves[type(t)], dtype=np.uint64)
        if isinstance(t, Union):
            return ev(t.left) | ev(t.right)
        if isinstance(t, Inter):
            return ev(t.left) & ev(t.right)
        if isinstance(t, Compl):
            return ev(t.arg) ^ fm
        if isinstance(t, Comp):
            return _batch_comp(ev(t.left), ev(t.right), m)
        if isinstance(t, Dagger):
            # De Morgan dual of composition: R $ S = ~(~R ; ~S)
            out = _batch_comp(ev(t.left) ^ fm, ev(t.right) ^ fm, m)
            out ^= fm
            return out
        if isinstance(t, Proj):
            return _batch_project(ev(t.arg), t.proj.img1, t.proj.img2, m, mask)
        raise TermError(f"unexpected term {t!r}")  # pragma: no cover

    return ev(t)


# small enough that a chunk's temporaries stay in cache and the first
# separating chunk ends the scan early
_CHUNK = 1 << 14


def _unstride(bits: int, m: int, n: int) -> int:
    """A relation on n points packed at stride m, repacked at stride n."""
    row = (1 << n) - 1
    return sum(((bits >> (x * m)) & row) << (x * n) for x in range(n))


def first_separating(t1: Term, t2: Term, assignment: Mapping[str, np.ndarray],
                     n) -> Optional[Structure]:
    """The structure at the first index of the batch where the two terms
    evaluate differently, at that entry's own size; None if they agree
    on the whole batch."""
    diff = np.flatnonzero(eval_term_batch(t1, assignment, n) != eval_term_batch(t2, assignment, n))
    if not diff.size:
        return None
    i = int(diff[0])
    m, mask = _layout(n)
    k = n if mask is None else int(n.each[i])
    return Structure(k, {name: Rel(k, _unstride(int(vals[i]), m, k))
                         for name, vals in assignment.items()})


@lru_cache(maxsize=None)
def _stride_tables(n: int, m: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    return linear_tables((1 << (x * m + y) for x in range(n) for y in range(n)), np.uint64)


def merge_batches(batches: Iterable[tuple[int, Mapping[str, np.ndarray]]]):
    """One batch from (size, assignment) pairs whose arrays are packed
    at their own size, in the order given, restrided to the largest
    size; returns the merged assignment and its size argument.  A pair
    with no variables stands for one structure."""
    batches = list(batches)
    m = max(n for n, _ in batches)
    names = list(batches[0][1])
    counts = [len(next(iter(a.values()))) if a else 1 for _, a in batches]
    merged = {name: np.concatenate([a[name] if n == m else map_bits(a[name], _stride_tables(n, m))
                                    for n, a in batches])
              for name in names}
    return merged, size_arg([n for n, _ in batches], counts)


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
