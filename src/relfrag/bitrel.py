"""The bit-sliced kernel: a batch of relations as Python integers.

A batch of B structures at stride m holds, per variable, m^2 Python
integers, one per pair (x, y) at index ``x*m + y``: bit i says whether
entry i has the pair.  Entries may have different universe sizes up to
m, the entries of one size consecutive.  Each pair also has a mask
(``batch_masks``): the entries whose size covers the pair, which is all
B bits when the batch has one size.  The operators are then plain
integer operations.  Union, intersection and complement (XOR with the
mask) are one operation per pair; converse is a permutation of the
list; composition is the OR over z of ``R[x][z] & S[z][y]`` and dagger
is its De Morgan dual ~(~R ; ~S).  The maps that can reach past an
entry's square AND with the mask: complement, ``top``, ``I``, ``D``,
dagger, the projections [1,1] and [2,2], which copy the diagonal along
each row or column, and the letter ``cD``.  Composition, converse,
union, intersection, ``iI`` and ``iD`` keep the pairs outside an
entry's square empty.  No kernel limits the size.

*Context words.*  ``iI`` / ``iD`` keep or clear the diagonal; ``cv`` is
converse; ``{(x, y)} ; D`` is row x minus (x, y), so ``cD`` sets (x, y)
where row x has some other pair: where it has two pairs, or one that is
not (x, y), masked.  Every letter preserves unions and sends the empty relation
to itself, so the n^2 images of the one-pair relations
(``one_pair_relations``, ``singleton_images``) fix a word's map at size
n exactly.  Entry j of that batch is the one-pair relation ``1 << j``
(j = x*n + y), so the images are the word's transfer matrix: bit j of
pair i's integer says whether pair j feeds pair i.  Two words differ at
size n iff some image differs, and if j is the lowest such entry then
``1 << j`` is the numerically first separating relation of size n (a
smaller relation has only bits below j, whose images agree).
``rule_counterexamples`` evaluates each word once over all the sizes
asked for.  The literal scan over all 2^(n^2) relations lives in the
test suite as an independent oracle.

*Terms.*  ``eval_term_batch`` evaluates a term on a batch of
structures.  ``first_separating`` takes the lowest set bit of the OR of
the pairwise XORs of the two sides, the first entry that separates
them, and reads that structure back at its own size.  The oracles of
``semantics`` hand it batches of one size, and the exact routes of
``decide`` merge theirs into one batch (``merge_batches``).

*Samples.*  ``sampled_batches`` draws seeded random structures straight
into batches, one ``random.getrandbits`` integer per pair and variable;
``semantics.random_check`` and ``sample_panel`` both draw with it.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from math import isqrt
from operator import and_, or_, xor
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .semantics import Rel, SemanticsError, Structure
from .terms import Bot, Comp, Compl, Dagger, Di, Id, Inter, Proj, Term, TermError, Top, Union, Var
from .words import CAP_D, CAP_I, CONV, DOT_D, Letter, Word


def batch_masks(layout: Iterable[tuple[int, int]]) -> list[int]:
    """The masks of a batch of ``count`` entries of ``size`` for each
    (size, count) in turn, at the stride of the largest size."""
    layout = list(layout)
    m = max(n for n, _ in layout)
    out = [0] * (m * m)
    offset = 0
    for n, count in layout:
        block = ((1 << count) - 1) << offset
        for x in range(n):
            for y in range(n):
                out[x * m + y] |= block
        offset += count
    return out


def pair_integers(relations: Sequence[int], n: int) -> list[int]:
    """The pair integers of a sequence of relations of size n, each a
    row-major bitset (``Rel.bits``): bit i of pair p's integer is bit p
    of relation i."""
    nn = n * n
    # the relations' binary digits, last relation first, so that the
    # digits of one pair, read every nn characters, form its integer
    text = "".join([format(r, f"0{nn}b") for r in reversed(relations)])
    return [int(text[nn - 1 - p::nn], 2) for p in range(nn)]


@lru_cache(maxsize=None)
def _converse_order(m: int) -> tuple[int, ...]:
    # pair (x, y) of the converse is pair (y, x)
    return tuple(y * m + x for x in range(m) for y in range(m))


def apply_letter(rels: Sequence[int], letter: Letter, masks: Sequence[int]) -> list[int]:
    """One letter on every entry of a batch."""
    m = isqrt(len(masks))
    if letter is CAP_I:
        out = [0] * len(rels)
        out[::m + 1] = rels[::m + 1]  # the diagonal, every m+1 pairs
        return out
    if letter is CAP_D:
        out = list(rels)
        out[::m + 1] = [0] * m
        return out
    if letter is CONV:
        return [rels[i] for i in _converse_order(m)]
    if letter is DOT_D:
        # (x, y) is set where row x has a pair other than (x, y): where
        # the row has two pairs, or one pair and (x, y) is not it
        out = []
        for x in range(0, m * m, m):
            row = rels[x:x + m]
            one = two = 0
            for v in row:
                two |= one & v
                one |= v
            out += [(two | (one ^ v)) & mask for v, mask in zip(row, masks[x:x + m])]
        return out
    raise ValueError(f"unknown letter {letter!r}")


def apply_word_packed(rels: Sequence[int], w: Word, masks: Sequence[int]) -> list[int]:
    """Value of w filled with each relation of the batch; the last
    letter acts first (it is innermost)."""
    rels = list(rels)
    for letter in reversed(w):
        rels = apply_letter(rels, letter, masks)
    return rels


# ---------------------------------------------------------------------------
# Exact equality


@lru_cache(maxsize=None)
def one_pair_relations(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one-pair relations of each size in turn, (x, y) of size n as
    entry x*n + y of that size's segment, at the stride of the largest
    size, and the batch's masks."""
    m = max(sizes)
    base = [0] * (m * m)
    offset = 0
    for n in sizes:
        for x in range(n):
            for y in range(n):
                base[x * m + y] |= 1 << (offset + x * n + y)
        offset += n * n
    return tuple(base), tuple(batch_masks((n, n * n) for n in sizes))


def singleton_images(w: Word, n: int) -> list[int]:
    """Images under w of the n^2 one-pair relations: bit j of pair i's
    integer says whether pair i is in w[1 << j].  These fix w's value on
    every relation of size n."""
    base, masks = one_pair_relations((n,))
    return apply_word_packed(base, w, masks)


def rule_counterexamples(pairs: Sequence[tuple[Word, Word]],
                         sizes: Sequence[int]) -> dict[int, list[Optional[int]]]:
    """Per size and per pair of words, the numerically first packed
    relation R of that size with w1[R] != w2[R] (always a one-pair
    relation ``1 << j``), or None when the words agree on all 2^(n^2)
    relations.  Each word, and each suffix shared between words, is
    evaluated once, on the one-pair relations of every size at once."""
    sizes = tuple(sorted(set(sizes)))
    base, masks = one_pair_relations(sizes)
    images = {(): base}
    # shortest first, so that w[1:] is evaluated before w; the last
    # letter acts first, so w is w[0] applied to w[1:]
    for w in sorted({w[k:] for pair in pairs for w in pair for k in range(len(w))}, key=len):
        images[w] = apply_letter(images[w[1:]], w[0], masks)
    out: dict[int, list[Optional[int]]] = {n: [] for n in sizes}
    for w1, w2 in pairs:
        bad = reduce(or_, map(xor, images[w1], images[w2]))
        for n in sizes:
            segment = bad & ((1 << (n * n)) - 1)
            out[n].append(segment & -segment or None)
            bad >>= n * n
    return out


def scan_rule_pairs(pairs: Sequence[tuple[Word, Word]], n: int) -> list[Optional[int]]:
    """Per pair, its ``rule_counterexamples`` at size n."""
    return rule_counterexamples(pairs, (n,))[n]


def words_equal_all_relations(w1: Word, w2: Word, n: int) -> bool:
    """Whether the words agree on every relation of size n."""
    return singleton_images(w1, n) == singleton_images(w2, n)


def word_matrix(w: Word, n: int) -> list[list[int]]:
    """Boolean transfer matrix of the word, as rows of 0/1: bit j of the
    input feeds bit i of the output iff entry (i, j) is 1, so column j
    is the image of ``1 << j``."""
    return [[row >> j & 1 for j in range(n * n)] for row in singleton_images(w, n)]


# ---------------------------------------------------------------------------
# Terms on batches of structures


def _comp(r: Sequence[int], s: Sequence[int], m: int) -> list[int]:
    # (x, y) is in R ; S for the entries with (x, z) in R and (z, y) in
    # S for some z
    rows = [r[x:x + m] for x in range(0, m * m, m)]
    cols = [s[y::m] for y in range(m)]
    return [reduce(or_, map(and_, row, col)) for row in rows for col in cols]


def _project(r: list[int], img1: int, img2: int, masks: Sequence[int], m: int) -> list[int]:
    if (img1, img2) == (1, 2):
        return r
    if (img1, img2) == (2, 1):
        return [r[i] for i in _converse_order(m)]
    # [1,1] copies the loop (x, x) along row x, [2,2] along column x
    loops = r[::m + 1]
    spread = [loop for loop in loops for _ in range(m)] if img1 == 1 else loops * m
    return list(map(and_, spread, masks))


def eval_term_batch(t: Term, assignment: Mapping[str, Sequence[int]],
                    masks: Sequence[int]) -> list[int]:
    """Evaluate a term on a whole batch of structures at once; each
    variable maps to its pair integers, and ``masks`` are the batch's."""
    m = isqrt(len(masks))

    def compl(r: Sequence[int]) -> list[int]:
        return list(map(xor, r, masks))

    def ev(t: Term) -> list[int]:
        if isinstance(t, Var):
            try:
                return list(assignment[t.name])
            except KeyError:
                raise SemanticsError(f"variable {t.name!r} is not assigned") from None
        if isinstance(t, Bot):
            return [0] * len(masks)
        if isinstance(t, Top):
            return list(masks)
        if isinstance(t, Id):
            return apply_letter(masks, CAP_I, masks)
        if isinstance(t, Di):
            return apply_letter(masks, CAP_D, masks)
        if isinstance(t, Union):
            return list(map(or_, ev(t.left), ev(t.right)))
        if isinstance(t, Inter):
            return list(map(and_, ev(t.left), ev(t.right)))
        if isinstance(t, Compl):
            return compl(ev(t.arg))
        if isinstance(t, Comp):
            return _comp(ev(t.left), ev(t.right), m)
        if isinstance(t, Dagger):
            # De Morgan dual of composition: R $ S = ~(~R ; ~S)
            return compl(_comp(compl(ev(t.left)), compl(ev(t.right)), m))
        if isinstance(t, Proj):
            return _project(ev(t.arg), t.proj.img1, t.proj.img2, masks, m)
        raise TermError(f"unexpected term {t!r}")  # pragma: no cover

    return ev(t)


# small enough that the first separating chunk ends a scan early
_CHUNK = 1 << 14


def first_separating(t1: Term, t2: Term, assignment: Mapping[str, Sequence[int]],
                     masks: Sequence[int]) -> Optional[Structure]:
    """The structure at the first entry of the batch where the two terms
    evaluate differently, at that entry's own size; None if they agree
    on the whole batch."""
    bad = reduce(or_, map(xor, eval_term_batch(t1, assignment, masks),
                          eval_term_batch(t2, assignment, masks)))
    if not bad:
        return None
    i = (bad & -bad).bit_length() - 1
    m = isqrt(len(masks))
    k = sum(masks[x * m + x] >> i & 1 for x in range(m))  # the entry's size
    return Structure(k, {name: Rel(k, sum((rels[x * m + y] >> i & 1) << (x * k + y)
                                          for x in range(k) for y in range(k)))
                         for name, rels in assignment.items()})


def merge_batches(batches: Iterable[tuple[int, int, Mapping[str, Sequence[int]]]]):
    """One batch from (size, count, assignment) triples, each sliced at
    its own size, in the order given: the entries of each triple follow
    those of the triples before it.  Returns the merged assignment and
    its masks."""
    batches = list(batches)
    m = max(n for n, _, _ in batches)
    merged = {name: [0] * (m * m) for name in batches[0][2]}
    offset = 0
    for n, count, assignment in batches:
        for name, rels in assignment.items():
            out = merged[name]
            for x in range(n):
                for y in range(n):
                    out[x * m + y] |= rels[x * n + y] << offset
        offset += count
    return merged, batch_masks((n, count) for n, count, _ in batches)


@lru_cache(maxsize=None)
def _periodic(b: int, width: int) -> int:
    # bit i is bit b of i, for i < width: runs of 2^b zeros and ones
    period = 2 << b
    run = ((1 << (1 << b)) - 1) << (1 << b)
    return run * (((1 << width) - 1) // ((1 << period) - 1))


def _enumerated_batch(start: int, stop: int, names: list[str], size: int):
    """The structures with enumeration indices start..stop-1, and the
    batch's masks; stop - start is a power of two that divides start.
    Pair p of the variable in slot s is bit ``nn*(k-1-s) + nn-1-p`` of
    the index (each variable's block of the index is its row-major
    relation read big-endian).  Bit b of start + i is a periodic
    pattern in i below the width and bit b of start above it."""
    nn, k, width = size * size, len(names), stop - start

    def index_bit(b: int) -> int:
        if 1 << b < width:
            return _periodic(b, width)
        return (1 << width) - 1 if start >> b & 1 else 0

    return ({name: [index_bit(nn * (k - 1 - slot) + nn - 1 - p) for p in range(nn)]
             for slot, name in enumerate(names)},
            batch_masks([(size, width)]))


# ---------------------------------------------------------------------------
# Seeded samples


def sampled_batches(names: Iterable[str], size: int, total: int,
                    seed: int | str) -> Iterator[tuple[dict[str, list[int]], list[int]]]:
    """max(total, 4) seeded random structures of one size, as batches
    of up to ``_CHUNK`` entries with their masks, drawn one batch at a
    time.  Each pair of each variable is present with probability 1/2,
    except that entries 0-3 of the first batch hold the empty, full,
    identity and difference relations in every variable.

    Order of draws on ``random.Random(seed)``: per batch, per variable
    sorted by name, per pair (x, y) in row-major order, one
    ``getrandbits(count)`` for the batch's count entries, bit i for
    entry i.  The four fixed entries overwrite bits that were drawn."""
    rng = random.Random(seed)
    total = max(total, 4)
    for start in range(0, total, _CHUNK):
        count = min(_CHUNK, total - start)
        batch = {name: [rng.getrandbits(count) for _ in range(size * size)]
                 for name in sorted(names)}
        if start == 0:
            # bit 0 empty, bit 1 full, bit 2 on the diagonal, bit 3 off it
            for rels in batch.values():
                for p in range(size * size):
                    diagonal = p % (size + 1) == 0  # (x, x) is pair x*(size+1)
                    rels[p] = rels[p] & ~0b1111 | (0b0110 if diagonal else 0b1010)
        yield batch, batch_masks([(size, count)])


def sample_panel(n: int, count: int, seed: int) -> tuple[int, ...]:
    """Deterministic panel of max(count, 4) relations of size n, as pair
    integers: the ``sampled_batches`` of one variable on the stream
    seeded with the string ``f"{seed}/{n}"``, one after the other."""
    rels = [0] * (n * n)
    for k, (batch, _) in enumerate(sampled_batches(["a"], n, count, f"{seed}/{n}")):
        rels = [r | c << k * _CHUNK for r, c in zip(rels, batch["a"])]
    return tuple(rels)


def sampled_counterexample(w1: Word, w2: Word, n: int, count: int,
                           seed: int) -> Optional[int]:
    """First panel relation separating the two words, or None.  When
    the words agree on every relation of size n no panel entry can
    separate them, and the panel is neither built nor evaluated.  Kept
    only because the perfbench tracer wraps it; every word question in
    the program is answered from the singleton images."""
    if words_equal_all_relations(w1, w2, n):
        return None
    panel = sample_panel(n, count, seed)
    masks = batch_masks([(n, max(count, 4))])
    bad = reduce(or_, map(xor, apply_word_packed(panel, w1, masks),
                          apply_word_packed(panel, w2, masks)))
    if not bad:
        return None
    i = (bad & -bad).bit_length() - 1
    return sum((r >> i & 1) << p for p, r in enumerate(panel))
