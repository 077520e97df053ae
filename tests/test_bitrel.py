"""Bit-sliced batches that span several universe sizes.

Each entry of a merged batch must hold exactly what the scalar
evaluator gives at that entry's own size: the pairs outside its square
stay clear.  The kernel has no size limit, so the sizes run past 8.
The pinned examples put a smaller size under every map that ANDs with
the masks.  ``cD`` skips its mask when every entry has the full size,
so it also runs on one size.  Every batch is built by
``pack_structures``, which is checked on its own against the layout it
promises.  A composition with ``D`` or ``I`` runs on the
letter kernels, so it is checked against the general kernel on the
same batch as well.  The Cayley table of the word monoid
(``word_monoid``) is checked against the words evaluated from scratch
at every size set it is asked for, and its closure sizes are pinned.
"""

import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from brute import entries
from relfrag import bitrel
from relfrag.bitrel import (apply_letter, apply_word_packed, batch_masks, eval_term_batch,
                            first_separating, one_pair_relations, pack_structures,
                            rule_counterexamples, scan_rule_pairs, singleton_images,
                            word_monoid)
from relfrag.semantics import MAX_SIZE, Rel, Structure, eval_term
from relfrag.terms import (DI, ID, PROJ_BOTH_1, PROJ_BOTH_2, PROJ_SWAP, Comp, Compl, Proj, Var,
                           fold, parse_term, variables)
from relfrag.words import DOT_D, LETTERS, apply_word, parse_word

from strategies import near_pairs, terms, two_variable_terms, words

size_sets = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted)
seeds = st.integers(0, 2**32 - 1)

# cD skips its mask exactly when every entry has the full size: one
# size; several sizes mask
layouts = st.one_of(st.integers(1, 8).map(lambda n: [n]),
                    st.lists(st.integers(1, 8), min_size=2, max_size=4, unique=True).map(sorted))

# a smaller size under each masked map: top, D, I, complement, dagger,
# the projections [1,1] and [2,2]
_MASKED = ["top", "D", "I", "a~", "a $ b", "a[1,1]", "a[2,2]", "(a ; top)~ $ I"]


def _random_structures(rng, names, sizes, count):
    """``count`` random structures at each of the ascending sizes, the
    first of each size all-empty and the second all-full."""
    ms = []
    for n in sizes:
        for i in range(count):
            p = (0.0, 1.0)[i] if i < 2 else rng.choice([0.2, 0.5, 0.8])
            ms.append(Structure(n, {name: Rel.from_pairs(
                n, [(x, y) for x in range(n) for y in range(n) if rng.random() < p])
                for name in names}))
    return ms


def _pack(structures, names):
    """``pack_structures`` of Structures given sizes ascending."""
    by_size = {}
    for m in structures:
        by_size.setdefault(m.size, []).append([m.assignment[name].bits for name in names])
    return pack_structures(by_size, names)


def _example_terms(*texts):
    def wrap(f):
        for text in texts:
            f = example(parse_term(text), [2, 5], 0)(f)
            f = example(parse_term(text), [1, 3, 8], 1)(f)
            f = example(parse_term(text), [4, 11], 2)(f)
        return f
    return wrap


@given(terms, size_sets, seeds)
@_example_terms(*_MASKED)
@settings(max_examples=80, deadline=None)
def test_merged_eval_matches_scalar_at_each_size(t, sizes, seed):
    rng = random.Random(seed)
    names = sorted(variables(t) | {"a"})
    structures = _random_structures(rng, names, sizes, 4)
    assignment, masks = _pack(structures, names)
    out = eval_term_batch(t, assignment, masks)
    assert entries(out, masks) == [eval_term(t, s).bits for s in structures]


@given(near_pairs(), size_sets, seeds)
@example((parse_term("a ; D"), parse_term("a")), [1, 2, 4], 0)
@example((parse_term("a[1,1] $ b"), parse_term("b ; a[2,2]")), [3, 6], 0)
@example((parse_term("a[1,1] $ b"), parse_term("b ; a[2,2]")), [9, 12], 0)
@settings(max_examples=60, deadline=None)
def test_merged_first_separating_matches_per_size_loop(pair, sizes, seed):
    t1, t2 = pair
    rng = random.Random(seed)
    names = sorted(variables(t1) | variables(t2) | {"a"})
    structures = _random_structures(rng, names, sizes, 6)
    expected = next((w for w in (first_separating(t1, t2, *_pack(structures[i:i + 6], names))
                                 for i in range(0, len(structures), 6)) if w is not None), None)
    assert first_separating(t1, t2, *_pack(structures, names)) == expected


def test_merge_keeps_one_size_unmasked():
    # a batch of one size masks every entry on every pair, and its
    # entries follow one another in the order given
    assignment, masks = pack_structures({3: [(1,), (2,), (1,), (2,)]}, ["a"])
    assert masks == [0b1111] * 9 and assignment["a"] == [1 | 1 << 2, 2 | 2 << 2] + [0] * 7
    base, masks = one_pair_relations((4,))
    assert masks == tuple(batch_masks([(4, 16)])) == ((1 << 16) - 1,) * 16
    assert base == tuple(1 << j for j in range(16))


@st.composite
def structures_by_size(draw):
    """k from 0 to 3 and 1 to 8 structures of k relations at each of 1
    to 4 sizes from 1 to 8, the sizes in any order."""
    k = draw(st.integers(0, 3))
    out = {}
    for n in draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)):
        rel = st.integers(0, (1 << n * n) - 1) | st.sampled_from([0, (1 << n * n) - 1])
        out[n] = draw(st.lists(st.tuples(*[rel] * k), min_size=1, max_size=8))
    return k, out


@given(structures_by_size())
# the shape of decide._small_model_structures: each size's distinct structures as dict keys
@example((1, {3: {(0b100010001,): None, (0,): None}, 1: {(1,): None}}))
@example((0, {2: [(), ()], 5: [()]}))
@settings(max_examples=150, deadline=None)
def test_pack_structures_puts_each_pair_at_its_entry(drawn):
    # entry j is the j-th structure, sizes ascending: bit j of pair x*m+y
    # is bit x*n+y of its relation, and no bit lies outside its square
    k, structures = drawn
    names = [f"v{i}" for i in range(k)]
    assignment, masks = pack_structures(structures, names)
    m = max(structures)
    layout = [(n, len(structures[n])) for n in sorted(structures)]
    assert masks == batch_masks(layout)
    packed = [(n, rels) for n, _ in layout for rels in structures[n]]
    assert list(assignment) == names
    for i, name in enumerate(names):
        pairs = assignment[name]
        assert len(pairs) == m * m
        assert all(r >> len(packed) == 0 for r in pairs)
        for j, (n, rels) in enumerate(packed):
            for x in range(m):
                for y in range(m):
                    inside = rels[i] >> (x * n + y) & 1 if x < n and y < n else 0
                    assert pairs[x * m + y] >> j & 1 == inside, (name, j, x, y)


@given(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 200)), min_size=1, max_size=3,
                unique_by=lambda t: t[0]), seeds)
@example([(5, 64)], 0)
@example([(5, 65)], 0)
@example([(2, 63), (7, 66)], 1)
@settings(max_examples=40, deadline=None)
def test_pack_structures_across_blocks_of_64(layout, seed):
    # the packer fills 64 entries at a time and joins the blocks: each
    # entry reads back as its relation, across every block boundary
    rng = random.Random(seed)
    structures = {n: [(rng.getrandbits(n * n), rng.getrandbits(n * n)) for _ in range(count)]
                  for n, count in layout if count}
    if not structures:
        return
    assignment, masks = pack_structures(structures, ["a", "b"])
    for slot, name in enumerate(["a", "b"]):
        assert entries(assignment[name], masks) == [rels[slot] for n in sorted(structures)
                                                    for rels in structures[n]]


@given(words, size_sets | layouts)
@example((DOT_D,), [2, 5])
@example(parse_word("cD cv cD"), [1, 4, 7])
@example(parse_word("cD cv cD"), [3, 10])
@example(parse_word("cD cv cD"), [4])
@example(parse_word("cv cD iD cD"), [8])
@settings(max_examples=80, deadline=None)
def test_merged_word_images_match_scalar_at_each_size(w, sizes):
    base, masks = one_pair_relations(tuple(sizes))
    out = entries(apply_word_packed(base, w, masks), masks)
    t = apply_word(w, Var("a"))
    expected = [eval_term(t, Structure(n, {"a": Rel(n, 1 << j)})).bits
                for n in sizes for j in range(n * n)]
    assert out == expected


@given(layouts, seeds)
@example([5], 0)
@example([5, 7], 0)
@example([1, 8], 1)
@settings(max_examples=60, deadline=None)
def test_cD_matches_scalar_on_one_and_merged_sizes(sizes, seed):
    rng = random.Random(seed)
    structures = _random_structures(rng, ["a"], sizes, 5)
    assignment, masks = _pack(structures, ["a"])
    assert (masks[0] == masks[-1]) == (len(set(sizes)) == 1)
    out = apply_letter(assignment["a"], DOT_D, masks)
    t = apply_word((DOT_D,), Var("a"))
    assert entries(out, masks) == [eval_term(t, s).bits for s in structures]


def _every_stride(*rest):
    # one size and two sizes at each stride from 1 to 8
    def wrap(f):
        for m in range(1, 9):
            f = example([m], [5, 1, 1, 1], *rest)(f)
            if m > 1:
                f = example([1, m], [3, 4, 1, 1], *rest)(f)
        return f
    return wrap


counts = st.lists(st.integers(0, 40), min_size=4, max_size=4)


@given(layouts, counts, seeds)
@_every_stride(0)
@settings(max_examples=100, deadline=None)
def test_cD_kernel_matches_the_row_loop(sizes, counts, seed):
    # random batches, each pair inside its entries' squares
    masks = batch_masks(zip(sizes, counts))
    rng = random.Random(seed)
    rels = [rng.getrandbits(sum(counts)) & mask for mask in masks]
    assert apply_letter(rels, DOT_D, masks) == brute.dot_d(rels, masks)


@given(layouts, counts)
@_every_stride()
@example([2, 5], [0, 3, 0, 0])
@settings(max_examples=100, deadline=None)
def test_batch_masks_match_the_pair_loop(sizes, counts):
    layout = list(zip(sizes, counts))
    assert batch_masks(layout) == brute.batch_masks(layout)


@given(words, st.integers(9, 12))
@example(parse_word("cD cv iD cD"), 12)
@settings(max_examples=20, deadline=None)
def test_singleton_images_match_scalar_past_8_points(w, n):
    # bit j of pair i's integer: pair i is in w applied to {pair j}
    images = singleton_images(w, n)
    t = apply_word(w, Var("a"))
    for j in range(n * n):
        image = eval_term(t, Structure(n, {"a": Rel(n, 1 << j)})).bits
        assert sum((images[i] >> j & 1) << i for i in range(n * n)) == image, (j, n)


@given(st.lists(st.tuples(words, words), min_size=1, max_size=6), size_sets)
@example([((DOT_D,), (DOT_D, DOT_D))], [1, 2, 3])
@settings(max_examples=40, deadline=None)
def test_rule_counterexamples_match_each_size_alone(pairs, sizes):
    found = rule_counterexamples(pairs, sizes)
    assert found == {n: scan_rule_pairs(pairs, n) for n in sizes}


# the compositions that run on the letter kernels, and the maps above them
_LETTER_COMPS = {"R;D": lambda r: Comp(r, DI), "D;R": lambda r: Comp(DI, r),
                 "R;I": lambda r: Comp(r, ID), "I;R": lambda r: Comp(ID, r)}
_ABOVE = {"": lambda t: t, "~": Compl, "^": lambda t: Proj(t, PROJ_SWAP),
          "[1,1]": lambda t: Proj(t, PROJ_BOTH_1), "[2,2]": lambda t: Proj(t, PROJ_BOTH_2)}
def _general_eval(t, assignment, masks):
    """``eval_term_batch`` with every composition on the general kernel."""
    table = {**bitrel._BATCH,
             Comp: lambda t, batch, left, right: bitrel._comp(left, right, batch[2])}
    return fold(t, table, (assignment, masks, isqrt(len(masks))))


@given(two_variable_terms, st.sampled_from(sorted(_LETTER_COMPS)), st.sampled_from(sorted(_ABOVE)),
       layouts, seeds)
# cD masks a smaller size; D ; a is not a ; D; a ; I is a, not I
@example(Var("a"), "R;D", "", [2, 5], 0)
@example(Var("a"), "D;R", "~", [2, 5], 0)
@example(Var("a"), "D;R", "", [3], 0)
@example(Var("a"), "R;I", "", [4], 0)
@example(Var("a"), "I;R", "[2,2]", [1, 3, 6], 0)
@settings(max_examples=120, deadline=None)
def test_letter_compositions_match_the_general_kernel(r, comp, above, sizes, seed):
    rng = random.Random(seed)
    names = sorted(variables(r) | {"a"})
    structures = _random_structures(rng, names, sizes, 5)
    assignment, masks = _pack(structures, names)
    before = {name: list(rels) for name, rels in assignment.items()}
    t = _ABOVE[above](_LETTER_COMPS[comp](r))
    out = eval_term_batch(t, assignment, masks)
    assert out == _general_eval(t, assignment, masks)
    assert entries(out, masks) == [eval_term(t, s).bits for s in structures]
    # no kernel writes its inputs, R ; I hands back R's list included
    assert assignment == before


# every size set a table is asked for: the search's key sizes for each
# exhaustive size in 1..MAX_SIZE ((5,) among them, the word route's)
_TABLE_SIZES = [tuple(range(m, max(m, 5) + 1)) for m in range(1, MAX_SIZE + 1)]


@given(st.sampled_from(_TABLE_SIZES), st.lists(st.sampled_from(LETTERS), max_size=14).map(tuple))
@example((1, 2, 3, 4, 5), ())
@example((5,), parse_word("cD cv cD iD cD"))
@settings(max_examples=150, deadline=None)
def test_word_monoid_element_images_match_the_word_from_scratch(sizes, w):
    monoid = word_monoid(sizes)
    base, masks = one_pair_relations(sizes)
    assert monoid.images[monoid.element(w)] == tuple(apply_word_packed(base, w, masks))


# the closure of the table: 124 elements from 5 points on (the paper's
# finite monoid), more where a size below 5 still tells words apart
_CLOSURE = {(5,): 124, (6,): 124, (8,): 124, (5, 6, 7): 124, (4, 5): 168,
            (3, 4, 5): 996, (2, 3, 4, 5): 1238, (1, 2, 3, 4, 5): 1239}


@pytest.mark.parametrize("sizes", sorted(_CLOSURE))
def test_word_monoid_closes_at_the_pinned_size(sizes):
    monoid = word_monoid(sizes)
    e = 0
    while e < len(monoid.images):  # every cell of every element found so far
        for letter in LETTERS:
            monoid.times(e, letter)
        e += 1
    assert len(monoid.images) == len(set(monoid.images)) == _CLOSURE[sizes]
    assert all(None not in cells for cells in monoid.cells)
