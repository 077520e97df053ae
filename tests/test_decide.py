from contextlib import contextmanager
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from naive import naive_eval, small_model_structures_ref
from strategies import (complemented_daggers, near_pairs, one_occurrence_terms,
                        two_variable_terms)
from relfrag import bitrel, decide, semantics
from relfrag.decide import (Equivalent, Inequivalent, Mode, REL, Unknown, _basis, _separate,
                            decide_terms, decide_word_equiv, parse_mode, replay_justification)
from relfrag.rewriting import enumerate_irreducibles, figure1_rules
from relfrag.search import OracleConfig
from relfrag.semantics import (Rel, Structure, eval_term, exhaustive_check, random_check,
                               structure_count)
from relfrag.terms import BOT, TOP, Var, dotdagger_level, parse_term, variables, vo
from relfrag.words import LETTERS, apply_word, parse_word

CFG = OracleConfig()
FAST = OracleConfig(samples_per_size=512)


def test_parse_mode():
    assert parse_mode("rel") == Mode(1)
    assert parse_mode("rel>=3") == Mode(3)
    with pytest.raises(ValueError):
        parse_mode("all")
    with pytest.raises(ValueError):
        parse_mode("rel>=x")
    with pytest.raises(ValueError):
        Mode(0)


def test_word_equiv_examples():
    v = decide_word_equiv(parse_word("cD cD cD"), parse_word("cD cD"), CFG)
    assert isinstance(v, Equivalent)
    assert v.justification["kind"] == "one-occurrence"
    assert replay_justification(v, apply_word(parse_word("cD cD cD"), Var("a")),
                                apply_word(parse_word("cD cD"), Var("a")))

    v = decide_word_equiv(parse_word("cD"), parse_word("cv cD"), CFG)
    assert isinstance(v, Inequivalent)
    assert v.witness.size == 5

    w = parse_word("iI cD iD cv")
    assert isinstance(decide_word_equiv(w, w, CFG), Equivalent)


def test_word_equiv_witness_separates():
    w1, w2 = parse_word("cD"), parse_word("iD cv")
    v = decide_word_equiv(w1, w2, CFG)
    assert isinstance(v, Inequivalent)
    t1, t2 = apply_word(w1, Var("a")), apply_word(w2, Var("a"))
    assert eval_term(t1, v.witness) != eval_term(t2, v.witness)


def _naive_word(w, pairs):
    return naive_eval(apply_word(w, Var("a")), 5, {"a": set(pairs)})


@given(st.lists(st.sampled_from(LETTERS), max_size=8).map(tuple),
       st.lists(st.sampled_from(LETTERS), max_size=8).map(tuple))
@example(parse_word("cD"), parse_word("cv cD"))
# in the one-occurrence basis order the full relation separates these first
@example(parse_word("cD cD"), parse_word("iD cD"))
@settings(max_examples=200, deadline=None)
def test_word_oracle_agrees_with_the_one_occurrence_route(w1, w2):
    t1, t2 = apply_word(w1, Var("a")), apply_word(w2, Var("a"))
    v = decide_word_equiv(w1, w2, CFG)
    assert type(v) is type(decide._one_occurrence(t1, t2, 5, ["a"]))
    if isinstance(v, Equivalent):
        assert replay_justification(v, t1, t2)
        return
    # letters preserve unions and fix the empty relation, so a separating
    # one-pair relation with no lower one separating is numerically first
    rel = v.witness.assignment["a"]
    assert v.witness.size == 5 and rel.bits.bit_count() == 1
    assert _naive_word(w1, rel.pairs()) != _naive_word(w2, rel.pairs())
    for j in range(rel.bits.bit_length() - 1):
        assert _naive_word(w1, [divmod(j, 5)]) == _naive_word(w2, [divmod(j, 5)]), j


@given(st.lists(st.sampled_from(LETTERS), max_size=14).map(tuple),
       st.lists(st.sampled_from(LETTERS), max_size=14).map(tuple))
@example((), ())
@example((), parse_word("cv cv"))
@example(parse_word("iI"), ())
@settings(max_examples=200, deadline=None)
def test_word_route_matches_the_images_from_scratch(w1, w2):
    # the word route reads the word monoid's table; rule certification
    # evaluates the words from scratch, and both give one witness
    v = decide_word_equiv(w1, w2, CFG)
    bad = bitrel.rule_counterexamples([(w1, w2)], (5,))[5][0]
    if bad is None:
        assert isinstance(v, Equivalent)
    else:
        assert isinstance(v, Inequivalent)
        assert v.witness == Structure(5, {"a": Rel(5, bad)})


def test_decide_terms_constant_route():
    v = decide_terms(parse_term("D ; D"), parse_term("top"), REL, FAST)
    assert isinstance(v, Inequivalent) and v.witness.size == 1
    v = decide_terms(parse_term("D ; D"), parse_term("top"), Mode(3), FAST)
    assert isinstance(v, Equivalent)
    assert v.justification["kind"] == "constant-classes"
    assert replay_justification(v, parse_term("D ; D"), parse_term("top"))


def test_decide_terms_pipeline_route():
    lhs, rhs = parse_term("a & I"), parse_term("(a & I) & I")
    v = decide_terms(lhs, rhs, REL, FAST)
    assert isinstance(v, Equivalent)
    assert v.justification["kind"] == "one-occurrence"
    assert v.justification["exhausted_sizes"] == [1, 2, 3, 4]
    assert replay_justification(v, lhs, rhs)


def test_decide_terms_pipeline_with_projections_and_tops():
    # p[1,1] against (p & I) ; top, both through the full pipeline
    lhs, rhs = parse_term("a[1,1]"), parse_term("(a & I) ; top")
    v = decide_terms(lhs, rhs, REL, FAST)
    assert isinstance(v, Equivalent)


def test_decide_terms_pipeline_converse_normalization():
    v = decide_terms(parse_term("a^^"), Var("a"), REL, FAST)
    assert isinstance(v, Equivalent)
    v = decide_terms(parse_term("(a & I)^"), parse_term("a & I"), REL, FAST)
    assert isinstance(v, Equivalent)


def test_decide_terms_size_split():
    # equal on large universes only: pieces match but size 2 separates
    lhs, rhs = parse_term("a ; (D ; D)"), parse_term("a ; top")
    v = decide_terms(lhs, rhs, REL, FAST)
    assert isinstance(v, Inequivalent) and v.witness.size <= 2
    v = decide_terms(lhs, rhs, Mode(3), FAST)
    assert isinstance(v, Equivalent)
    v = decide_terms(lhs, rhs, Mode(5), FAST)
    assert isinstance(v, Equivalent)


def test_decide_terms_empty_disjuncts_are_dropped():
    v = decide_terms(parse_term("bot"), parse_term("a & bot"), REL, FAST)
    assert isinstance(v, Equivalent)
    v = decide_terms(parse_term("a & I & D"), parse_term("bot"), REL, FAST)
    assert isinstance(v, Equivalent)


def test_decide_terms_bounded_route_counterexamples():
    v = decide_terms(parse_term("a ; a^"), parse_term("a^ ; a"), REL, FAST)
    assert isinstance(v, Inequivalent) and v.witness.size <= 3
    v = decide_terms(parse_term("a ; (b $ c)"), parse_term("(a ; b) $ c"), REL, FAST)
    assert isinstance(v, Inequivalent) and v.witness.size <= 3
    assert eval_term(parse_term("a ; (b $ c)"), v.witness) != \
        eval_term(parse_term("(a ; b) $ c"), v.witness)


def test_decide_terms_bounded_route_agreements_stay_unknown():
    # an identity with an existential below a universal in both
    # directions: the bounded route cannot certify it, so the verdict
    # must stay Unknown, never Equivalent
    v = decide_terms(parse_term("(a;(b$c))^"), parse_term("(c^$b^);a^"), REL,
                     OracleConfig(samples_per_size=128, seed=3))
    assert isinstance(v, Unknown)
    assert v.checked.lo == 1
    assert v.samples > 0
    assert v.reason == "not exists-forall"
    assert v.seed == 3


def test_decide_terms_mode_monotone():
    pairs = [("a & I", "(a & I) & I"), ("D ; D", "top"), ("bot", "I & D"),
             ("a ; (D ; D)", "a ; top")]
    for lhs_text, rhs_text in pairs:
        lhs, rhs = parse_term(lhs_text), parse_term(rhs_text)
        if isinstance(decide_terms(lhs, rhs, REL, FAST), Equivalent):
            for m in (2, 3, 5, 6):
                assert isinstance(decide_terms(lhs, rhs, Mode(m), FAST), Equivalent), m


def test_decide_terms_deterministic():
    lhs, rhs = parse_term("a ; a^"), parse_term("a^ ; a")
    assert decide_terms(lhs, rhs, REL, FAST) == decide_terms(lhs, rhs, REL, FAST)


def test_one_occurrence_decides_words_on_large_universes():
    # equal from size 5 on, though iI and iI cD cD iI differ at size 1
    for lhs, rhs in (("iI", "iI cD cD iI"), ("iD iI", "iD iI cv")):
        v = decide_word_equiv(parse_word(lhs), parse_word(rhs), CFG)
        assert isinstance(v, Equivalent), (lhs, rhs)
        assert v.justification == {"kind": "one-occurrence", "exhausted_sizes": []}


def test_one_occurrence_terms_on_large_universes():
    lhs, rhs = parse_term("a & I"), parse_term("((a & I) ; D ; D) & I")
    v = decide_terms(lhs, rhs, Mode(5), FAST)
    assert isinstance(v, Equivalent)
    assert replay_justification(v, lhs, rhs)
    v = decide_terms(lhs, rhs, REL, FAST)
    assert isinstance(v, Inequivalent) and v.witness.size < 5


def test_one_occurrence_witness_at_the_mode_size():
    # the sides differ on every size; the witness is never below the mode
    for m in (1, 3, 5, 6, 8):
        v = decide_terms(parse_term("a"), parse_term("a ; D"), Mode(m), FAST)
        assert isinstance(v, Inequivalent) and v.witness.size == m


def test_one_occurrence_witness_keeps_its_shape_past_packed_sizes():
    # a full or all-but-one-pair witness at size 5 stays full or all but
    # the same pair at size 9
    v = decide_terms(parse_term("top;a~;top"), parse_term("top"), Mode(9), FAST)
    assert v.witness.assignment["a"] == Rel.full(9)
    v = decide_terms(parse_term("top;(a~ & I);top"), parse_term("top;a~;top"), Mode(9), FAST)
    assert v.witness.assignment["a"] == Rel.from_pairs(9, [(0, 1)]).compl()


def test_one_occurrence_mixed_variables_and_polarities():
    v = decide_terms(parse_term("a & bot"), parse_term("b & bot"), REL, FAST)
    assert isinstance(v, Equivalent)
    v = decide_terms(parse_term("a | top"), parse_term("b~ | top"), REL, FAST)
    assert isinstance(v, Equivalent)
    for lhs, rhs in (("a", "b"), ("a", "a~"), ("a & I", "a~ & I")):
        v = decide_terms(parse_term(lhs), parse_term(rhs), Mode(5), FAST)
        assert isinstance(v, Inequivalent), (lhs, rhs)


def _partition(words, n):
    classes = {}
    for w in words:
        classes.setdefault(tuple(bitrel.singleton_images(w, n)), set()).add(w)
    return {frozenset(c) for c in classes.values()}


def test_figure1_leftovers_stabilize_from_size_5():
    # the word monoid at size n is read off the singleton images; from
    # n = 5 on it no longer changes
    leftovers = list(enumerate_irreducibles(figure1_rules()))
    assert len(leftovers) == 1810
    at5 = _partition(leftovers, 5)
    assert len(at5) == 124
    for n in (6, 7, 8):
        assert _partition(leftovers, n) == at5, n


def _naive_structures(names, n):
    pairs = [(x, y) for x in range(n) for y in range(n)]
    for code in range(1 << (len(names) * n * n)):
        yield {name: {p for i, p in enumerate(pairs) if code >> (slot * n * n + i) & 1}
               for slot, name in enumerate(names)}


def _in_gate(t):
    info = dotdagger_level(t)
    return info.vo <= 1 and info.sigma_level <= 1


@given(one_occurrence_terms, one_occurrence_terms, st.sampled_from([1, 2, 3, 5, 6]))
# antitone sides: from size 3 on, the only basis relations that
# separate them are those with all pairs but one
@example(parse_term("a~ ; D"), parse_term("a~ ; top"), 3)
@settings(max_examples=150, deadline=None)
def test_one_occurrence_route_differential(lhs, rhs, m):
    assume(_in_gate(lhs) and _in_gate(rhs) and vo(lhs) + vo(rhs) > 0)
    v = decide_terms(lhs, rhs, Mode(m), FAST)
    assert not isinstance(v, Unknown)
    names = sorted(variables(lhs) | variables(rhs))
    if isinstance(v, Inequivalent):
        n = v.witness.size
        assert n >= m
        env = {name: set(rel.pairs()) for name, rel in v.witness.assignment.items()}
        assert naive_eval(lhs, n, env) != naive_eval(rhs, n, env)
        return
    for n in range(m, 4):
        if len(names) * n * n <= 12:
            for env in _naive_structures(names, n):
                assert naive_eval(lhs, n, env) == naive_eval(rhs, n, env), (n, env)
        else:
            assert exhaustive_check(lhs, rhs, [n]) is None, n
    for n in range(max(m, 5), 9):
        assert random_check(lhs, rhs, n, 3000, n) is None, n


def _differs_naively(lhs, rhs, sizes):
    names = sorted(variables(lhs) | variables(rhs))
    for n in sizes:
        if len(names) * n * n <= 12:
            if any(naive_eval(lhs, n, env) != naive_eval(rhs, n, env)
                   for env in _naive_structures(names, n)):
                return True
        elif exhaustive_check(lhs, rhs, [n]) is not None:
            return True
    return False


@given(complemented_daggers, st.one_of(complemented_daggers, one_occurrence_terms),
       st.sampled_from([1, 2, 3]))
@example(parse_term("(a $ D)~"), parse_term("a~ ; I"), 1)
@example(parse_term("(bot $ a)~"), parse_term("a~"), 1)
@settings(max_examples=150, deadline=None)
def test_one_occurrence_route_complement_above_dagger(lhs, rhs, m):
    # the gate reads levels after complements are pushed down, so a
    # complement above a dagger takes the exact route; the route
    # evaluates the sides as given, and must agree with every structure
    # of size m..3 and separate with its witness
    assume(_in_gate(rhs) and vo(lhs) + vo(rhs) > 0)
    assert _in_gate(lhs)
    v = decide_terms(lhs, rhs, Mode(m), FAST)
    assert isinstance(v, (Equivalent, Inequivalent))
    if isinstance(v, Equivalent):
        assert v.justification["kind"] in ("one-occurrence", "syntactic")
        assert not _differs_naively(lhs, rhs, range(m, 4))
        return
    n = v.witness.size
    assert n >= m
    env = {name: set(rel.pairs()) for name, rel in v.witness.assignment.items()}
    assert naive_eval(lhs, n, env) != naive_eval(rhs, n, env)
    if n > 3:
        assert not _differs_naively(lhs, rhs, range(m, 4))


@given(one_occurrence_terms, one_occurrence_terms, st.sampled_from([6, 9, 10, 12, 13, 40]))
# a full relation at size 5 separates only while it stays full
@example(parse_term("a~ ; top"), TOP, 6)
@example(parse_term("D ; D"), parse_term("I"), 40)
@settings(max_examples=150, deadline=None)
def test_one_occurrence_witness_carried_past_packed_sizes(lhs, rhs, m):
    # past size 5 the verdict is the one at size 5, and a witness found
    # at size 5 (constant classes: at size 3) and carried to size m
    # still separates at m: under eval_term, and up to 12 points under
    # the set semantics
    assume(vo(lhs) + vo(rhs) == 0 or _in_gate(lhs) and _in_gate(rhs))
    v = decide_terms(lhs, rhs, Mode(m), FAST)
    assert type(v) is type(decide_terms(lhs, rhs, Mode(5), FAST))
    if isinstance(v, Inequivalent):
        assert v.witness.size == m
        assert eval_term(lhs, v.witness) != eval_term(rhs, v.witness)
        if m <= 12:
            env = {name: set(rel.pairs()) for name, rel in v.witness.assignment.items()}
            assert naive_eval(lhs, m, env) != naive_eval(rhs, m, env)


@contextmanager
def _evaluated_sizes():
    """Every size at which a term is evaluated inside the block, by the
    scalar evaluator or a batch (at the batch's stride)."""
    sizes, scalar, batch = [], semantics.eval_term, bitrel.eval_term_batch

    def scalar_spy(t, m):
        sizes.append(m.size)
        return scalar(t, m)

    def batch_spy(t, assignment, masks):
        sizes.append(isqrt(len(masks)))
        return batch(t, assignment, masks)

    semantics.eval_term = decide.eval_term = scalar_spy
    bitrel.eval_term_batch = batch_spy
    try:
        yield sizes
    finally:
        semantics.eval_term = decide.eval_term = scalar
        bitrel.eval_term_batch = batch


@pytest.mark.parametrize("lhs, rhs, pairs", [("D;D", "I", None), ("(a~)^", "(a~)^;D", [(0, 0)])])
def test_large_modes_evaluate_on_at_most_8_points(lhs, rhs, pairs):
    # the witness is checked where its route found it and lifted to 2000
    with _evaluated_sizes() as sizes:
        v = decide_terms(parse_term(lhs), parse_term(rhs), Mode(2000), FAST)
    assert sizes and max(sizes) <= 8
    relations = {} if pairs is None else {"a": Rel.from_pairs(2000, pairs)}
    assert v == Inequivalent(Structure(2000, relations))


@given(st.one_of(st.tuples(one_occurrence_terms, one_occurrence_terms),
                 st.tuples(two_variable_terms, two_variable_terms), near_pairs()),
       st.sampled_from([9, 40]))
@settings(max_examples=200, deadline=None)
def test_no_route_evaluates_above_8_points(pair, m):
    with _evaluated_sizes() as sizes:
        decide_terms(*pair, Mode(m), FAST)
    assert max(sizes, default=0) <= 8, sizes


def _fresh_basis(names, sizes):
    """Every assignment of basis relations to the ``names`` at the sizes,
    packed afresh in the names themselves."""
    return bitrel.pack_structures({n: list(product(_basis(n), repeat=len(names)))
                                   for n in sizes}, names)


@given(one_occurrence_terms, one_occurrence_terms, st.sampled_from([6, 7, 8]))
@settings(max_examples=100, deadline=None)
def test_one_occurrence_size_five_stands_for_larger_sizes(lhs, rhs, m):
    # the route evaluates the basis at size 5 and carries a witness to m;
    # the basis evaluated at m itself gives the same verdict and witness
    assume(_in_gate(lhs) and _in_gate(rhs) and vo(lhs) + vo(rhs) > 0)
    names = sorted(variables(lhs) | variables(rhs))
    native = _separate(lhs, rhs, _fresh_basis(names, [m]), m)
    v = decide_terms(lhs, rhs, Mode(m), FAST)
    assert v == (native or Equivalent({"kind": "one-occurrence", "exhausted_sizes": []}))


_MODES = [1, 2, 3, 4, 5, 6, 9, 2000]


@given(one_occurrence_terms, one_occurrence_terms, st.sampled_from(_MODES))
@example(parse_term("a~ ; D"), parse_term("a~ ; top"), 3)
@example(parse_term("a ; D"), parse_term("D ; b"), 2000)
@settings(max_examples=150, deadline=None)
def test_cached_basis_matches_freshly_merged_batches(lhs, rhs, m):
    # the route reads one cached basis with its variables renamed; the
    # basis packed afresh in the names gives the same verdict and witness
    assume(_in_gate(lhs) and _in_gate(rhs) and vo(lhs) + vo(rhs) > 0)
    names = sorted(variables(lhs) | variables(rhs))
    small = list(range(m, 5))
    fresh = _fresh_basis(names, (*small, 5))
    expected = (_separate(lhs, rhs, fresh, m)
                or Equivalent({"kind": "one-occurrence", "exhausted_sizes": small}))
    v = decide._one_occurrence(lhs, rhs, m, names)
    assert v == expected
    if isinstance(v, Equivalent):
        assert replay_justification(v, lhs, rhs)


def test_modes_from_5_on_share_one_cached_basis():
    # every mode from rel>=5 on evaluates the basis at size 5 alone, so
    # they add at most one merged batch per number of variables
    for pair in (("a ; D", "a"), ("a ; D", "D ; b")):
        lhs, rhs = map(parse_term, pair)
        before = decide._merged_basis.cache_info().currsize
        for m in (6, 9, 2000):
            decide_terms(lhs, rhs, Mode(m), FAST)
        assert decide._merged_basis.cache_info().currsize - before <= 1, pair


# the identities of the decide benchmark's bounded queries, over three
# variables
BOUNDED_IDENTITIES = [
    ("(a;b);c", "a;(b;c)"),
    ("(a$b)$c", "a$(b$c)"),
    ("(a;b)^", "b^;a^"),
    ("(a$b)^", "b^$a^"),
    ("a$b", "(a~;b~)~"),
    ("(a|b);c", "(a;c)|(b;c)"),
    ("a;(b|c)", "(a;b)|(a;c)"),
    ("a;(b;c)", "(a;b);c"),
    ("a&(b|c)", "(a&b)|(a&c)"),
]


@pytest.mark.parametrize("m", [1, 5, 8])
def test_small_model_decides_the_bounded_identities(m):
    for lhs_text, rhs_text in BOUNDED_IDENTITIES:
        lhs, rhs = parse_term(lhs_text), parse_term(rhs_text)
        v = decide_terms(lhs, rhs, Mode(m), CFG)
        assert isinstance(v, Equivalent), (lhs_text, rhs_text)
        assert v.justification["kind"] == "small-model"
        assert min(v.justification["sizes"]) == m
        assert replay_justification(v, lhs, rhs)


def test_small_model_reports_its_own_witness(monkeypatch):
    # the first built structure that separates is the verdict, at the
    # mode's minimum or the two points the disjunct needs, and the
    # bounded search does not run
    calls = []
    monkeypatch.setattr(decide, "_bounded_separation", lambda *args: calls.append(args))
    lhs, rhs = parse_term("a ; b"), parse_term("b ; a")
    for m, n in ((1, 2), (3, 3)):
        v = decide_terms(lhs, rhs, Mode(m), FAST)
        assert v == Inequivalent(Structure(n, {"a": Rel.from_pairs(n, [(0, 1)]),
                                               "b": Rel.from_pairs(n, [(1, 0)])}))
    assert calls == []


@pytest.mark.parametrize("samples", [1, 3, 4])
def test_unknown_reports_the_samples_drawn(monkeypatch, samples):
    # sampled_batches draws at least its four fixed structures per size
    drawn = []
    original = bitrel.sampled_batches

    def counting(*args):
        for batch, masks in original(*args):
            drawn.append(masks[0].bit_length())
            yield batch, masks

    monkeypatch.setattr(bitrel, "sampled_batches", counting)
    v = decide_terms(parse_term("(a;(b$c))^"), parse_term("(c^$b^);a^"), REL,
                     OracleConfig(samples_per_size=samples))
    assert isinstance(v, Unknown) and v.sampled == (3, 4, 5, 6)
    assert v.samples == sum(drawn) == 16


def test_syntactic_equality():
    t = parse_term("a$a~")
    for m in (1, 3, 9):
        v = decide_terms(t, t, Mode(m), FAST)
        assert v == Equivalent({"kind": "syntactic"})
        assert replay_justification(v, t, t)
    assert not replay_justification(v, t, parse_term("a$a~ | bot"))


def _chain(n, left):
    t = parse_term("a")
    for _ in range(n - 1):
        t = parse_term(f"({t});a") if left else parse_term(f"a;({t})")
    return t


def _reason_cases():
    # (lhs, rhs, mode, reason) for each reason the small-model route gives
    return [
        (parse_term("(a;(b$c))^"), parse_term("(c^$b^);a^"), REL, "not exists-forall"),
        (parse_term("a$a~"), parse_term("(a$a~)^^"), REL, "mixed polarity in a"),
        (parse_term("a;(b;c)"), parse_term("(a;b);c"), Mode(9), "beyond 8 points"),
        (_chain(8, True), _chain(8, False), Mode(8), "beyond 8 points"),
        (parse_term(f"({_chain(6, True)});(a|b)"), parse_term(f"({_chain(6, False)});(a|b)"),
         Mode(8), "candidate budget"),
    ]


def test_small_model_reasons_for_unknown():
    for lhs, rhs, mode, reason in _reason_cases():
        v = decide_terms(lhs, rhs, mode, OracleConfig(samples_per_size=16, seed=5))
        assert isinstance(v, Unknown), (lhs, rhs)
        assert (v.reason, v.seed) == (reason, 5)
    # within the budget, a longer chain is still decided
    v = decide_terms(_chain(7, True), _chain(7, False), REL, FAST)
    assert v.justification["kind"] == "small-model"


def test_no_disjunct_is_expanded_when_a_gate_fails(monkeypatch):
    # every reason is read off the profiles before a tree is multiplied
    # out; the 20 factors of (a | b) would make 2^20 disjuncts
    expanded = []
    expand = decide._expand
    monkeypatch.setattr(decide, "_expand", lambda tree: expanded.append(tree) or expand(tree))
    wide = parse_term(" & ".join(["(a | b)"] * 20))
    for lhs, rhs, mode, reason in [*_reason_cases(), (wide, parse_term("a | b"), REL,
                                                      "candidate budget")]:
        names = sorted(variables(lhs) | variables(rhs))
        assert decide._small_model_structures(lhs, rhs, mode.min_size, names) == reason
    assert expanded == []
    # the spy sees both trees where the route applies
    structures = decide._small_model_structures(parse_term("a;(b;c)"), parse_term("(a;b);c"), 1,
                                                ["a", "b", "c"])
    assert sum(map(len, structures.values())) == 17 and len(expanded) == 2


def _scan_or_sample(lhs, rhs, m):
    """Every structure of each size m..4 within 2^20 structures, set
    semantics for the smallest; 3,000 samples at every other size up
    to 6.  True if nothing separates the sides."""
    names = sorted(variables(lhs) | variables(rhs))
    for n in range(m, 7):
        if n <= 4 and structure_count(len(names), n) <= 1 << 12:
            for env in _naive_structures(names, n):
                if naive_eval(lhs, n, env) != naive_eval(rhs, n, env):
                    return False
        elif n <= 4 and structure_count(len(names), n) <= 1 << 20:
            if exhaustive_check(lhs, rhs, [n]) is not None:
                return False
        elif random_check(lhs, rhs, n, 3000, n) is not None:
            return False
    return True


@given(st.one_of(st.tuples(two_variable_terms, two_variable_terms), near_pairs()),
       st.sampled_from([1, 2, 3, 4, 5]))
@example((parse_term("b$b"), BOT), 2)
@example((parse_term("a;b | top"), parse_term("a;b | top;D")), 1)
@settings(max_examples=500, deadline=None)
def test_small_model_route_differential(pair, m):
    # every small-model or syntactic verdict survives a scan and samples
    # (the two examples separate only under the documented polarity fill
    # and at max(M, k) points), and every witness separates
    lhs, rhs = pair
    v = decide_terms(lhs, rhs, Mode(m), FAST)
    if isinstance(v, Inequivalent):
        n = v.witness.size
        assert n >= m
        env = {name: set(rel.pairs()) for name, rel in v.witness.assignment.items()}
        assert naive_eval(lhs, n, env) != naive_eval(rhs, n, env)
    elif isinstance(v, Equivalent) and v.justification["kind"] in ("small-model", "syntactic"):
        assert _scan_or_sample(lhs, rhs, m), v.justification
        assert replay_justification(v, lhs, rhs)


def _in_order(structures):
    # a reason, or each size in turn with its structures in order
    return structures if isinstance(structures, str) else [
        (n, list(by_size)) for n, by_size in structures.items()]


@given(st.one_of(st.tuples(two_variable_terms, two_variable_terms), near_pairs()),
       st.integers(1, 8))
@example((parse_term("a ; top"), parse_term("a")), 1)
@example((parse_term("a $ (top ; top)"), parse_term("b & a $ (top ; top)")), 1)
@example((parse_term("a $ (bot ; b)"), parse_term("a")), 2)
@example((parse_term("(b $ I)~"), parse_term("b")), 1)
@example((parse_term("a[1,1]"), parse_term("a ; b[2,1]")), 3)
@example((parse_term("a$a~"), parse_term("(a$a~)^^")), 1)
@example((parse_term("(a&D);(b|I)"), parse_term("((a&D);b)|(a&D)")), 2)
@example((parse_term("a;(b&D);c"), parse_term("(a;b;c)&(a;(b&D);c)")), 2)
@example((parse_term("(a;b)|(b;a)"), parse_term("(b;a)|(a;b)")), 3)
@settings(max_examples=300, deadline=None)
def test_small_model_reads_the_fo_reference_off_the_terms(pair, m):
    # the term reading builds the structures of the FO reading (standard
    # translations, NNF, profile, disjuncts), in the same order, or
    # gives the same reason; the examples fold constants under each
    # polarity, rename points and mix polarities, and the last three
    # pin the expansion order, the skipped partitions and the dedupe
    lhs, rhs = pair
    names = sorted(variables(lhs) | variables(rhs))
    assert _in_order(decide._small_model_structures(lhs, rhs, m, names)) == \
        _in_order(small_model_structures_ref(lhs, rhs, m, names))
