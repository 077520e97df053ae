"""Literal scan over every relation of one size, the independent oracle
for word equality.

``bitrel`` decides equality at size n from the images of the n^2
one-pair relations, which is only sound because every letter preserves
unions.  This scan does not use that fact: it evaluates both sides of
each pair on all 2^(n^2) packed relations, in increasing numeric order,
one chunk at a time.  It shares only the per-letter kernel
(``bitrel.apply_letter``), which ``test_words`` checks against the
generic term evaluator.
"""

import numpy as np

from relfrag import bitrel

CHUNK = 1 << 16


def first_counterexamples(pairs, n, chunk=CHUNK, limit=None):
    """Per pair of words, the numerically first packed relation of size
    n on which the two sides differ, or None.  Stops after the first
    chunk in which every pair has one.  With ``limit`` only the
    relations below it are scanned, and None means none of them
    separates."""
    dt = np.uint32 if n * n <= 32 else np.uint64
    count = 1 << (n * n) if limit is None else min(limit, 1 << (n * n))
    results = [None] * len(pairs)
    for start in range(0, count, chunk):
        todo = [i for i, hit in enumerate(results) if hit is None]
        if not todo:
            break
        arr = np.arange(start, min(start + chunk, count), dtype=dt)
        values = {(): arr}

        def value(w):
            # the last letter acts first, so w is its first letter
            # applied to the value of the rest; suffixes are shared
            if w not in values:
                values[w] = bitrel.apply_letter(value(w[1:]), w[0], n)
            return values[w]

        for i in todo:
            w1, w2 = pairs[i]
            bad = np.nonzero(value(w1) != value(w2))[0]
            if bad.size:
                results[i] = start + int(bad[0])
    return results


def first_counterexample(w1, w2, n):
    return first_counterexamples([(w1, w2)], n)[0]
