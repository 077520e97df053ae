import json
import random

import numpy as np
import pytest
from hypothesis import given, settings

from relfrag.bitrel import _CHUNK, _enumerated_batch, eval_term_batch, sampled_batches
from relfrag.semantics import (BudgetExceeded, Rel, SemanticsError, SizeWindow,
                               Structure, eval_term, exhaustive_check, random_check,
                               structure_count, structure_from_json,
                               structure_to_json)
from relfrag.terms import TOP, Var, parse_term, variables

from brute import entries, sliced
from naive import naive_eval
from strategies import terms


def _random_structure(rng, names, size):
    return Structure(size, {name: Rel.from_pairs(
        size, [(x, y) for x in range(size) for y in range(size) if rng.random() < 0.5])
        for name in names})


def test_eval_paper_style_cases():
    dd = parse_term("D ; D")
    assert eval_term(dd, Structure(1, {})) == Rel.empty(1)
    assert eval_term(TOP, Structure(1, {})) == Rel.full(1)
    for n in (3, 4, 5):
        assert eval_term(dd, Structure(n, {})) == Rel.full(n)


def test_eval_projection_identity_example():
    # a[1,1] (with or without a converse inside) agrees with (a & I) ; top
    rng = np.random.default_rng(0)
    rhs = parse_term("(a & I) ; top")
    for lhs in (parse_term("a[1,1]"), parse_term("a^[1,1]")):
        for _ in range(50):
            m = _random_structure(rng, ["a"], int(rng.integers(1, 5)))
            assert eval_term(lhs, m) == eval_term(rhs, m)


def test_pairs_match_definition_and_round_trip():
    # pairs() reads each row once; the order stays x, then y
    rng = np.random.default_rng(9)
    for n in range(1, 10):
        for p in (0.0, 0.2, 0.5, 0.8, 1.0):
            for _ in range(5):
                r = Rel.from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                                       if rng.random() < p])
                expected = [(x, y) for x in range(n) for y in range(n)
                            if r.bits >> (x * n + y) & 1]
                assert r.pairs() == expected
                assert Rel.from_pairs(n, r.pairs()) == r


def test_eval_unassigned_variable_is_reported():
    with pytest.raises(SemanticsError, match="'b'"):
        eval_term(parse_term("a ; b"), Structure(2, {"a": Rel.empty(2)}))


def test_eval_agrees_with_naive_oracle():
    rng = np.random.default_rng(42)
    corpus = [
        "a ; b", "a $ b", "(a | b~) & top", "a^ ; (b & I)", "D $ (a ; D)",
        "(a & b)~", "a[1,1] $ b[2,2]", "bot | (a ; (b ; c))", "(a $ b)^",
        "(a ; b) & (b ; a)", "a~^", "top ; (a & D)",
    ]
    checked = 0
    for size in (1, 2, 3, 4, 5):
        for text in corpus:
            t = parse_term(text)
            for _ in range(17):
                m = _random_structure(rng, sorted(variables(t)), size)
                expected = naive_eval(t, size, {k: set(v.pairs()) for k, v in m.assignment.items()})
                assert set(eval_term(t, m).pairs()) == expected
                checked += 1
    assert checked == 1020


@pytest.mark.parametrize("size", [9, 12])
def test_scalar_operators_match_naive_beyond_packed_sizes(size):
    # converse and composition read each row once; the naive evaluator
    # spells every operator out pair by pair
    rng = np.random.default_rng(size)
    special = [Rel.empty(size), Rel.full(size), Rel.identity(size), Rel.difference(size)]
    rels = special + [_random_structure(rng, ["a"], size).assignment["a"] for _ in range(4)]
    for text in ["a^", "a ; b", "a $ b", "a[1,1]", "a[2,2]"]:
        t = parse_term(text)
        for r, s in zip(rels, rels[3:] + rels[:3]):
            m = Structure(size, {"a": r, "b": s})
            env = {"a": set(r.pairs()), "b": set(s.pairs())}
            assert set(eval_term(t, m).pairs()) == naive_eval(t, size, env), (text, size)


@given(terms)
@settings(max_examples=60, deadline=None)
def test_batch_eval_matches_scalar(t):
    rng = np.random.default_rng(7)
    for size in (1, 3):
        ms = [_random_structure(rng, sorted(variables(t)) or ["a"], size) for _ in range(4)]
        batch = {name: sliced([m.assignment.get(name, Rel.empty(size)).bits for m in ms], size)[0]
                 for name in (variables(t) or {"a"})}
        masks = sliced([0] * len(ms), size)[1]
        assert entries(eval_term_batch(t, batch, masks), masks) == [eval_term(t, m).bits for m in ms]


def test_dagger_de_morgan_identity_exhaustive_small():
    # a $ b vs (a~ ; b~)~ on every two-relation structure up to size 3
    lhs = parse_term("a $ b")
    rhs = parse_term("(a~ ; b~)~")
    assert exhaustive_check(lhs, rhs, [1, 2, 3]) is None
    assert random_check(lhs, rhs, 4, 20_000, 11) is None


# One term per batch operator; the naive evaluator is the independent
# oracle (dagger from its defining clause, not from De Morgan).
_KERNEL_TERMS = ["a ; b", "a $ b", "a^", "a[1,1]", "a[2,2]", "a[2,1]", "a[1,2]", "a~"]


@pytest.mark.parametrize("size", range(1, 9))
def test_batch_kernels_match_naive_every_packed_size(size):
    rng = np.random.default_rng(100 + size)
    special = [Rel.empty(size), Rel.full(size), Rel.identity(size), Rel.difference(size)]
    rels = special + [Rel.from_pairs(size, [(x, y) for x in range(size) for y in range(size)
                                            if rng.random() < p])
                      for p in (0.2, 0.5, 0.8) for _ in range(4)]
    # every special relation meets every other one on the other side
    pairs = [(r, s) for r in special for s in special] + list(zip(rels, rels[5:] + rels[:5]))
    a, masks = sliced([r.bits for r, _ in pairs], size)
    b, _ = sliced([s.bits for _, s in pairs], size)
    a0, b0 = list(a), list(b)
    for text in _KERNEL_TERMS:
        out = entries(eval_term_batch(parse_term(text), {"a": a, "b": b}, masks), masks)
        for i, (r, s) in enumerate(pairs):
            expected = naive_eval(parse_term(text), size, {"a": set(r.pairs()), "b": set(s.pairs())})
            assert set(Rel(size, out[i]).pairs()) == expected, (text, size, i)
    # no kernel may write into the caller's pair integers
    assert (a, b) == (a0, b0)


# First witnesses in the oracles' documented orders, pinned so that no
# kernel or sampler change moves them unnoticed.  The random ones
# follow the draw order of ``bitrel.sampled_batches``.  Sizes 5-7 of
# the exhaustive ones cover enumeration indices whose variable blocks
# reach past the chunk width, where an index bit is constant across
# the chunk.
_PINNED_RANDOM = [
    ('a ; b', 'b ; a', 3, 11,
     '{"size": 3, "relations": {"a": [[0, 1], [1, 0], [1, 1], [1, 2], [2, 1], [2, 2]], "b": [[1, 1], [2, 1], [2, 2]]}}'),
    ('a $ b', 'b $ a', 4, 12,
     '{"size": 4, "relations": {"a": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2], [3, 0]], "b": [[1, 2], [1, 3], [2, 3], [3, 1]]}}'),
    ('(a ; a^) & D', '(a^ ; a) & D', 5, 13,
     '{"size": 5, "relations": {"a": [[0, 0], [0, 3], [0, 4], [2, 0], [2, 1], [2, 2], [2, 4], [3, 1], [3, 2], [3, 3], [3, 4], [4, 0], [4, 4]]}}'),
    ('(a $ b) ; a^', 'a^ ; (b $ a)', 6, 14,
     '{"size": 6, "relations": {"a": [[0, 0], [0, 4], [0, 5], [1, 3], [2, 4], [3, 0], [3, 1], [3, 2], [3, 5], [4, 5], [5, 0], [5, 1], [5, 2], [5, 4], [5, 5]], "b": [[0, 4], [0, 5], [1, 4], [2, 2], [2, 4], [2, 5], [3, 3], [3, 4], [3, 5], [4, 1], [4, 2], [4, 4], [5, 2], [5, 3], [5, 4]]}}'),
    ('a ; (b $ a)', '(a $ b) ; a', 7, 15,
     '{"size": 7, "relations": {"a": [[0, 0], [0, 3], [0, 4], [0, 5], [0, 6], [1, 2], [1, 4], [1, 5], [2, 0], [2, 2], [2, 4], [3, 2], [4, 1], [4, 2], [4, 4], [4, 6], [5, 1], [5, 5], [5, 6], [6, 1], [6, 3], [6, 5]], "b": [[0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 0], [1, 2], [1, 3], [1, 4], [1, 5], [2, 1], [2, 3], [2, 5], [2, 6], [3, 1], [3, 2], [3, 5], [4, 1], [4, 2], [4, 4], [5, 0], [5, 1], [5, 2], [5, 3], [5, 4], [6, 0], [6, 1], [6, 2], [6, 5], [6, 6]]}}'),
    ('(a $ b)^ & a[2,2]', '(b^ $ a^) & b[2,2]', 8, 16,
     '{"size": 8, "relations": {"a": [[0, 2], [0, 3], [0, 4], [1, 0], [1, 1], [1, 2], [1, 3], [1, 5], [1, 6], [1, 7], [2, 1], [2, 3], [2, 7], [3, 1], [3, 5], [4, 2], [4, 4], [4, 6], [5, 2], [5, 3], [6, 0], [6, 1], [6, 2], [6, 3], [7, 0], [7, 4], [7, 6], [7, 7]], "b": [[0, 0], [0, 2], [0, 3], [0, 5], [0, 7], [1, 0], [1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [2, 1], [2, 2], [2, 4], [2, 5], [3, 0], [3, 1], [3, 3], [3, 4], [3, 5], [3, 6], [3, 7], [4, 0], [4, 1], [4, 2], [4, 3], [4, 7], [5, 1], [5, 2], [5, 4], [5, 6], [5, 7], [6, 0], [6, 1], [6, 2], [6, 3], [6, 4], [6, 6], [6, 7], [7, 1], [7, 2], [7, 3], [7, 5], [7, 6], [7, 7]]}}'),
]
_PINNED_EXHAUSTIVE = [
    ('a ; b', 'b ; a', 3,
     '{"size": 3, "relations": {"a": [[2, 2]], "b": [[2, 1]]}}'),
    ('a $ b^', 'b^ $ a', 3,
     '{"size": 3, "relations": {"a": [], "b": [[2, 0], [2, 1], [2, 2]]}}'),
    ('(a ; a^) & D', '(a^ ; a) & D', 4,
     '{"size": 4, "relations": {"a": [[3, 2], [3, 3]]}}'),
    ('a[1,2] $ a', 'a ; a[2,2]', 5,
     '{"size": 5, "relations": {"a": [[4, 4]]}}'),
    ('(a $ D) ; a', 'a ; a^', 6,
     '{"size": 6, "relations": {"a": [[5, 4]]}}'),
    ('(a $ a^) ; a[1,2]', 'a ; (a^ $ a)', 7,
     '{"size": 7, "relations": {"a": [[6, 0], [6, 1], [6, 2], [6, 3], [6, 4], [6, 5], [6, 6]]}}'),
]


@pytest.mark.parametrize("lhs,rhs,size,seed,expected", _PINNED_RANDOM)
def test_random_check_first_witness_pinned(lhs, rhs, size, seed, expected):
    m = random_check(parse_term(lhs), parse_term(rhs), size, 4000, seed)
    assert m is not None and structure_to_json(m) == expected
    env = {name: set(rel.pairs()) for name, rel in m.assignment.items()}
    assert naive_eval(parse_term(lhs), size, env) != naive_eval(parse_term(rhs), size, env)


@pytest.mark.parametrize("lhs,rhs,size,expected", _PINNED_EXHAUSTIVE)
def test_exhaustive_check_first_witness_pinned(lhs, rhs, size, expected):
    m = exhaustive_check(parse_term(lhs), parse_term(rhs), [size], budget=1 << 64)
    assert m is not None and structure_to_json(m) == expected


def test_projection_algebra_exhaustive():
    # (R^p)^q = R^(p then q) for all 16 pairs, all relations up to size 3
    from relfrag.terms import ALL_PROJECTIONS, compose_projections, Proj
    for inner in ALL_PROJECTIONS:
        for outer in ALL_PROJECTIONS:
            lhs = Proj(Proj(Var("a"), inner), outer)
            rhs = Proj(Var("a"), compose_projections(inner, outer))
            assert exhaustive_check(lhs, rhs, [1, 2, 3]) is None


def test_enumerate_structures_counts():
    assert structure_count(0, 1) == 1
    assert structure_count(1, 2) == 16
    assert structure_count(1, 5) == 33_554_432


def test_enumerate_structures_unique_and_ordered():
    # the order in which exhaustive_check scans structures
    batch, masks = _enumerated_batch(0, structure_count(2, 2), ["a", "b"], 2)
    seen = list(zip(entries(batch["a"], masks), entries(batch["b"], masks)))
    assert len(seen) == 256
    assert len(set(seen)) == 256
    # documented order: first structure all-empty, last all-full
    assert seen[0] == (0, 0)
    assert seen[-1] == (15, 15)
    # lexicographic on concatenated row-major bits, first var most
    # significant, bit (0,0) most significant inside a block
    assert seen[1] == (0, 8)  # lowest index flips var b's last bit (1,1)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_check(Var("a"), parse_term("a^"), [5], budget=1000)
    assert err.value.required == 33_554_432


def test_exhaustive_check_finds_first_counterexample():
    m = exhaustive_check(parse_term("D ; D"), TOP, [1])
    assert m is not None and m.size == 1
    assert exhaustive_check(parse_term("a;(b;c)"), parse_term("(a;b);c"), [1, 2]) is None
    m = exhaustive_check(parse_term("a ; a^"), parse_term("a^ ; a"), [1, 2, 3])
    assert m is not None and m.size == 2
    # first counterexample in enumeration order: index 1 is the
    # symmetric loop {(1,1)} (no separation), index 2 is {(1,0)}
    assert m.assignment["a"].pairs() == [(1, 0)]


def test_random_check_examples():
    t = parse_term("a ; (b $ c)")
    assert random_check(t, t, 3, 50, 1) is None
    m = random_check(Var("a"), parse_term("a~"), 2, 100, 1)
    assert m is not None
    assert eval_term(Var("a"), m) != eval_term(parse_term("a~"), m)
    assert random_check(parse_term("bot"), parse_term("I & D"), 4, 1000, 7) is None


def test_random_check_deterministic():
    a, b = Var("a"), parse_term("a~")
    m1 = random_check(a, b, 3, 200, 9)
    m2 = random_check(a, b, 3, 200, 9)
    assert m1 == m2


def _redraw(names, size, total, seed):
    """The structures ``random_check`` draws, in order, as {name: packed
    relation} per entry: the draw order that ``bitrel.sampled_batches``
    documents, redrawn from ``random.Random`` here."""
    rng = random.Random(seed)
    nn = size * size
    out = []
    for start in range(0, max(total, 4), _CHUNK):
        count = min(_CHUNK, max(total, 4) - start)
        draws = {name: [rng.getrandbits(count) for _ in range(nn)] for name in sorted(names)}
        out += [{name: sum((d[p] >> i & 1) << p for p in range(nn)) for name, d in draws.items()}
                for i in range(count)]
    full, diag = (1 << nn) - 1, sum(1 << (x * size + x) for x in range(size))
    for i, bits in enumerate([0, full, diag, full ^ diag]):
        out[i] = {name: bits for name in names}
    return out


# pairs in one to three variables; most agree on the four fixed entries,
# so that the drawn ones decide, and three never separate
_SAMPLED_PAIRS = [
    ("a ; b", "b ; a"), ("(a ; a^) & D", "(a^ ; a) & D"), ("a & b", "a & c"),
    ("a ; (b ; c)", "c ; (b ; a)"), ("(a & I) & (b | c)~", "bot"),
    ("a ; top", "top"), ("I", "D"),
    ("a ; (b ; c)", "(a ; b) ; c"), ("a $ b", "(a~ ; b~)~"), ("a[1,1]", "(a & I) ; top"),
]


@pytest.mark.parametrize("size", range(1, 13))
def test_random_check_returns_first_separating_redraw(size):
    # the naive evaluator, run entry by entry on the redrawn stream, is
    # the independent oracle; no size is refused
    for k, (lhs, rhs) in enumerate(_SAMPLED_PAIRS):
        t1, t2 = parse_term(lhs), parse_term(rhs)
        seed = 31 * size + k
        names = sorted(variables(t1) | variables(t2)) or ["a"]
        expected = None
        for entry in _redraw(names, size, 40, seed):
            env = {name: set(Rel(size, bits).pairs()) for name, bits in entry.items()}
            if naive_eval(t1, size, env) != naive_eval(t2, size, env):
                expected = Structure(size, {name: Rel(size, bits) for name, bits in entry.items()})
                break
        assert random_check(t1, t2, size, 40, seed) == expected, (lhs, rhs, size)


def test_sampled_batches_two_chunks_match_redraw():
    batches = list(sampled_batches(["b", "a"], 2, _CHUNK + 5, 77))
    assert [masks[0].bit_length() for _, masks in batches] == [_CHUNK, 5]
    got = [dict(zip(("a", "b"), pair)) for batch, masks in batches
           for pair in zip(entries(batch["a"], masks), entries(batch["b"], masks))]
    assert got == _redraw(["a", "b"], 2, _CHUNK + 5, 77)


def test_random_check_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        random_check(Var("a"), parse_term("a~"), 3, 10, -1)


def test_structure_json_roundtrip():
    m = Structure(3, {"a": Rel.from_pairs(3, [(2, 1), (0, 0)]), "b": Rel.empty(3)})
    text = structure_to_json(m)
    obj = json.loads(text)
    assert obj["relations"]["a"] == [[0, 0], [2, 1]]  # sorted pairs
    assert structure_from_json(text) == m
    # reader accepts any order
    assert structure_from_json('{"size": 3, "relations": {"a": [[2,1],[0,0]], "b": []}}') == m


def test_structure_json_rejects_bad_input():
    with pytest.raises(SemanticsError):
        structure_from_json('{"size": 2, "relations": {"a": [[0, 2]]}}')
    with pytest.raises(SemanticsError):
        structure_from_json('{"size": 2, "relations": {"a": [[0, 1], [0, 1]]}}')
    with pytest.raises(SemanticsError):
        structure_from_json('{"relations": {}}')
    with pytest.raises(SemanticsError):
        structure_from_json('not json')
    with pytest.raises(SemanticsError):
        structure_from_json('{"size": 0, "relations": {}}')


def test_size_window_validation():
    with pytest.raises(SemanticsError):
        SizeWindow(3, 2)
    assert SizeWindow(1, 5).hi == 5
