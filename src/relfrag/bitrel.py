"""The packed-relation kernel, the one module that imports numpy on load.

A relation on n points (n <= ``MAX_SIZE`` = 8) is one machine word, bit
``x*n + y`` for the pair (x, y), and every kernel acts on whole numpy
arrays of such words.  Maps that send each pair to a fixed set of pairs
preserve unions, so they go through chunked lookup tables
(``linear_tables``), each mapping a group of input bits to the union of
their images: converse, the projections [1,1] and [2,2], the letter
``cD`` and the bit reversal that turns an enumeration index into
relations.

*Context words.*  ``iI`` / ``iD`` are single masks; ``cv`` is converse;
``{(x, y)} ; D`` is row x minus column y, so a row composed with the
difference relation is full with two or more bits, full minus that
column with exactly one, and empty when it is empty.  Every letter
preserves unions and sends the empty relation to itself, so the n^2
images of the one-pair relations ``1 << j`` (``singleton_images``) fix
a word's map at size n exactly.  Two words differ at size n iff some
image differs, and if j is the lowest such index then ``1 << j`` is the
numerically first separating relation (a smaller relation has only
bits below j, whose images agree).  The literal scan over all 2^(n^2)
relations lives in the test suite as an independent oracle.

*Terms.*  ``eval_term_batch`` evaluates a term on a batch of
structures, one array per variable.  Composition takes n vector steps,
one per middle point z: column z of the left side, shifted to bit 0 of
each row, times row z of the right side copies that row into exactly
the rows x with (x, z) on the left.  No product carries, since the set
bits of one factor are n apart and the other is below 2^n (at n = 8 the
products fill all 64 bits).  Dagger is the De Morgan dual ~(~R ; ~S).
``first_separating`` finds the first structure of a batch that
separates two terms; the oracles of ``semantics`` and the exact routes
of ``decide`` hand it their batches.
"""

from __future__ import annotations

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
def _rowd_tables(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    # {(x, y)} ; D is row x minus column y
    full_row = (1 << n) - 1
    return linear_tables(((full_row ^ (1 << y)) << (x * n) for x in range(n) for y in range(n)),
                         _dtype(n))


def apply_letter(arr: np.ndarray, letter: Letter, n: int) -> np.ndarray:
    dt = _dtype(n)
    if letter is CAP_I:
        return arr & dt(diag_mask(n))
    if letter is CAP_D:
        return arr & dt(full_mask(n) ^ diag_mask(n))
    if letter is CONV:
        return map_bits(arr, _transpose_tables(n, dt))
    if letter is DOT_D:
        return map_bits(arr, _rowd_tables(n))
    raise ValueError(f"unknown letter {letter!r}")


def apply_word_packed(arr: np.ndarray, w: Word, n: int) -> np.ndarray:
    """Value of w filled with each relation of ``arr``; the last letter
    acts first (it is innermost)."""
    _check_size(n)
    for letter in reversed(w):
        arr = apply_letter(arr, letter, n)
    return arr


# ---------------------------------------------------------------------------
# Exact equality at one size


def singleton_images(w: Word, n: int) -> np.ndarray:
    """Packed images under w of the n^2 one-pair relations: entry j is
    w[1 << j].  These fix w's value on every relation of size n."""
    _check_size(n)
    dt = _dtype(n)
    return apply_word_packed(dt(1) << np.arange(n * n, dtype=dt), w, n)


def first_counterexample(w1: Word, w2: Word, n: int) -> Optional[int]:
    """Numerically first packed relation R of size n with w1[R] != w2[R]
    (always a one-pair relation), or None when the words agree on all
    2^(n^2) relations."""
    bad = np.nonzero(singleton_images(w1, n) != singleton_images(w2, n))[0]
    return 1 << int(bad[0]) if bad.size else None


def scan_rule_pairs(pairs: Sequence[tuple[Word, Word]], n: int) -> list[Optional[int]]:
    """Per pair, ``first_counterexample`` at size n."""
    _check_size(n)
    return [first_counterexample(w1, w2, n) for w1, w2 in pairs]


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
