"""Batches that span several universe sizes at one stride.

Each entry of a merged batch must hold exactly what the scalar
evaluator gives at that entry's own size, restrided: the bits outside
its square stay clear.  The pinned examples put a smaller size under
every map that ANDs with the entry's full mask.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfrag.bitrel import (apply_word_packed, eval_term_batch, first_separating, merge_batches,
                            one_pair_relations, rule_counterexamples, scan_rule_pairs)
from relfrag.semantics import Rel, Structure, eval_term
from relfrag.terms import Var, parse_term, variables
from relfrag.words import DOT_D, apply_word, parse_word

from strategies import near_pairs, terms, words

size_sets = st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True).map(sorted)
seeds = st.integers(0, 2**32 - 1)

# a smaller size under each masked map: top, D, I, complement, dagger,
# the projections [1,1] and [2,2]
_MASKED = ["top", "D", "I", "a~", "a $ b", "a[1,1]", "a[2,2]", "(a ; top)~ $ I"]


def _at_stride(rel: Rel, m: int) -> int:
    return sum(1 << (x * m + y) for x, y in rel.pairs())


def _random_batch(rng, names, n, count):
    """``count`` random structures of size n, the first all-empty and
    the second all-full, and their packed batch."""
    ms = []
    for i in range(count):
        p = (0.0, 1.0)[i] if i < 2 else rng.choice([0.2, 0.5, 0.8])
        ms.append(Structure(n, {name: Rel.from_pairs(
            n, [(x, y) for x in range(n) for y in range(n) if rng.random() < p]) for name in names}))
    return ms, {name: np.array([m.assignment[name].bits for m in ms], dtype=np.uint64)
                for name in names}


def _example_terms(*texts):
    def wrap(f):
        for text in texts:
            f = example(parse_term(text), [2, 5], 0)(f)
            f = example(parse_term(text), [1, 3, 8], 1)(f)
        return f
    return wrap


@given(terms, size_sets, seeds)
@_example_terms(*_MASKED)
@settings(max_examples=80, deadline=None)
def test_merged_eval_matches_scalar_at_each_size(t, sizes, seed):
    rng = np.random.default_rng(seed)
    names = sorted(variables(t) | {"a"})
    structures, batches = [], []
    for n in sizes:
        ms, batch = _random_batch(rng, names, n, 4)
        structures += ms
        batches.append((n, batch))
    assignment, arg = merge_batches(batches)
    out = eval_term_batch(t, assignment, arg)
    m = max(sizes)
    assert [int(v) for v in out] == [_at_stride(eval_term(t, s), m) for s in structures]


@given(near_pairs(), size_sets, seeds)
@example((parse_term("a ; D"), parse_term("a")), [1, 2, 4], 0)
@example((parse_term("a[1,1] $ b"), parse_term("b ; a[2,2]")), [3, 6], 0)
@settings(max_examples=60, deadline=None)
def test_merged_first_separating_matches_per_size_loop(pair, sizes, seed):
    t1, t2 = pair
    rng = np.random.default_rng(seed)
    names = sorted(variables(t1) | variables(t2) | {"a"})
    batches = [(n, _random_batch(rng, names, n, 6)[1]) for n in sizes]
    expected = next((w for w in (first_separating(t1, t2, a, n) for n, a in batches)
                     if w is not None), None)
    assert first_separating(t1, t2, *merge_batches(batches)) == expected


def test_merge_keeps_one_size_unmasked():
    # a batch of one size is today's layout: the size itself, no mask
    batch = {"a": np.array([1, 2], dtype=np.uint64)}
    assignment, arg = merge_batches([(3, batch), (3, batch)])
    assert arg == 3 and assignment["a"].tolist() == [1, 2, 1, 2]
    base, arg = one_pair_relations((4,))
    assert arg == 4 and base.tolist() == [1 << j for j in range(16)]


@given(words, size_sets)
@example((DOT_D,), [2, 5])
@example(parse_word("cD cv cD"), [1, 4, 7])
@settings(max_examples=60, deadline=None)
def test_merged_word_images_match_scalar_at_each_size(w, sizes):
    base, arg = one_pair_relations(tuple(sizes))
    out = [int(v) for v in apply_word_packed(base, w, arg)]
    a, m = Var("a"), max(sizes)
    t = apply_word(w, a)
    expected = [_at_stride(eval_term(t, Structure(n, {"a": Rel(n, 1 << j)})), m)
                for n in sizes for j in range(n * n)]
    assert out == expected


@given(st.lists(st.tuples(words, words), min_size=1, max_size=6), size_sets)
@example([((DOT_D,), (DOT_D, DOT_D))], [1, 2, 3])
@settings(max_examples=40, deadline=None)
def test_rule_counterexamples_match_each_size_alone(pairs, sizes):
    found = rule_counterexamples(pairs, sizes)
    assert found == {n: scan_rule_pairs(pairs, n) for n in sizes}
