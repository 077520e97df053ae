"""Vectorized kernels for context words on packed relations.

A relation on n points (n <= 8) is one machine word: bit ``x*n + y``
for the pair (x, y).  The four context letters act on whole numpy
arrays of packed relations:

* ``iI`` / ``iD`` are single mask operations;
* ``cv`` (converse) and ``cD`` go through per-chunk lookup tables
  (``semantics.linear_tables``): each maps a group of input bits to
  the union of their images.  Converse moves pair (x, y) to (y, x)
  (the tables the batch evaluator in ``semantics`` uses too), and
  ``{(x, y)} ; D`` is row x minus column y, so a row composed with the
  difference relation is full with two or more bits, full minus that
  column with exactly one, and empty when it is empty.

Every letter preserves unions and sends the empty relation to itself,
so a word's value on any relation of size n is the union of its values
on the pairs of that relation.  The n^2 images of the one-pair
relations ``1 << j`` (``singleton_images``) therefore fix the word's
map at size n exactly, and every "are these words equal at size n"
question is answered from them: two words differ at size n iff some
image differs, and if j is the lowest such index then ``1 << j`` is the
numerically first separating relation (a smaller relation has only
bits below j, whose images agree).  The literal scan over all 2^(n^2)
relations lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .semantics import _transpose_tables, diag_mask, full_mask, linear_tables, map_bits
from .words import CAP_D, CAP_I, CONV, DOT_D, Letter, Word

MAX_SIZE = 8


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
