"""Literal scan over every relation of one size, the independent oracle
for word equality, conversions between packed relations and the
bit-sliced batches of ``bitrel``, and the plain loops that two of its
kernels replace (``dot_d``, ``batch_masks``).

``bitrel`` decides equality at size n from the images of the n^2
one-pair relations, which is only sound because every letter preserves
unions.  This scan does not use that fact: it evaluates both sides of
each pair on all 2^(n^2) relations, in increasing numeric order, one
chunk at a time.  It shares only the per-letter kernel
(``bitrel.apply_letter``), which ``test_words`` checks against the
generic term evaluator.
"""

from math import isqrt
from operator import and_

from relfrag import bitrel

# small enough that a chunk's integers stay in cache
CHUNK = 1 << 13


def consecutive(start, count, n):
    """The relations start..start+count-1 of size n as a bit-sliced
    batch (count a power of two that divides start): pair p is bit p of
    each relation, which runs in blocks of 2^p below the width and is
    constant above it."""
    out = []
    for p in range(n * n):
        if 1 << p < count:
            period = 2 << p
            run = ((1 << (1 << p)) - 1) << (1 << p)
            out.append(run * (((1 << count) - 1) // ((1 << period) - 1)))
        else:
            out.append((1 << count) - 1 if start >> p & 1 else 0)
    return out


def sliced(relations, n):
    """A bit-sliced batch of one size from packed relations (ints or a
    numpy array), and its masks."""
    batch, masks = bitrel.pack_structures({n: [(int(r),) for r in relations]}, [""])
    return batch[""], masks


def entries(rels, masks):
    """Each entry of a bit-sliced batch as a packed relation at its own
    size, in order.  No entry may hold a pair outside its square."""
    assert all(r & ~mask == 0 for r, mask in zip(rels, masks)), "a pair outside an entry's square"
    m = isqrt(len(masks))
    out = []
    for i in range(max(mask.bit_length() for mask in masks)):
        k = sum(masks[x * m + x] >> i & 1 for x in range(m))
        out.append(sum((rels[x * m + y] >> i & 1) << (x * k + y) for x in range(k) for y in range(k)))
    return out


def dot_d(rels, masks):
    """``cD`` on a batch, row by row: (x, y) is set where row x has a
    pair other than (x, y), that is where the row has two pairs, or one
    pair and (x, y) is not it; then masked."""
    m = isqrt(len(masks))
    out = []
    for x in range(0, m * m, m):
        row = rels[x:x + m]
        one = two = 0
        for v in row:
            two |= one & v
            one |= v
        out += [two | (one ^ v) for v in row]
    return list(map(and_, out, masks))


def batch_masks(layout):
    """``bitrel.batch_masks`` pair by pair: each (size, count) block of
    entries covers every pair inside its size's square."""
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


def first_counterexamples(pairs, n, chunk=CHUNK, limit=None):
    """Per pair of words, the numerically first packed relation of size
    n on which the two sides differ, or None.  Stops after the first
    chunk in which every pair has one.  With ``limit`` (a multiple of
    the chunk, or below it) only the relations below it are scanned,
    and None means none of them separates."""
    count = 1 << (n * n) if limit is None else min(limit, 1 << (n * n))
    chunk = min(chunk, count)
    results = [None] * len(pairs)
    for start in range(0, count, chunk):
        todo = [i for i, hit in enumerate(results) if hit is None]
        if not todo:
            break
        masks = bitrel.batch_masks([(n, chunk)])
        values = {(): consecutive(start, chunk, n)}

        def value(w):
            # the last letter acts first, so w is its first letter
            # applied to the value of the rest; suffixes are shared
            if w not in values:
                values[w] = bitrel.apply_letter(value(w[1:]), w[0], masks)
            return values[w]

        for i in todo:
            w1, w2 = pairs[i]
            bad = 0
            for a, b in zip(value(w1), value(w2)):
                bad |= a ^ b
            if bad:
                results[i] = start + (bad & -bad).bit_length() - 1
    return results


def first_counterexample(w1, w2, n):
    return first_counterexamples([(w1, w2)], n)[0]
