from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from relfrag import bitrel
from relfrag.rewriting import (InfiniteIrreducibleSet, RewriteError, Rule,
                               count_irreducibles,
                               enumerate_irreducibles, figure1_rules,
                               format_rules, load_rules,
                               make_system, normalize, parse_rules,
                               rewrite_step)
from relfrag.words import (CAP_D, CAP_I, CONV, DOT_D, format_word, parse_word,
                           shortlex_key)

from strategies import words

RS = figure1_rules()
SEARCH_RULES_43 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "search_rules_43.txt"

# the longest leftover word, transcribed
W28 = parse_word("iI iD cD cD cv cD iI cD cv cD cD iD cv cD iD cv cD iD "
                 "cv cD iD cv cD iD cv cD cD iI")

# regression constants, derived by path counting over the complement
# automaton and by minimization
IRREDUCIBLE_COUNT = 1810
MIN_DFA_STATES = 36


def replay_trace(w, rs, trace):
    """Re-apply a recorded trace step by step, verifying each large
    side actually occurs where recorded."""
    for index, pos in trace:
        rule = rs.by_index(index)
        if w[pos:pos + len(rule.large)] != rule.large:
            raise RewriteError(f"trace step (rule {index}, pos {pos}) does not match "
                               f"{format_word(w)}")
        w = w[:pos] + rule.small + w[pos + len(rule.large):]
    return w


def test_builtin_rule_shapes():
    assert len(RS.rules) == 21
    assert RS.by_index(7).small == ()
    assert RS.by_index(7).large == (CONV, CONV)
    assert RS.by_index(13).small == (DOT_D, DOT_D)
    assert RS.by_index(13).large == (DOT_D, DOT_D, DOT_D)
    assert len(RS.by_index(21).small) == 9
    assert len(RS.by_index(21).large) == 10
    assert len(RS.by_index(20).small) == 14
    assert len(RS.by_index(20).large) == 16


def test_rule_orientation_enforced():
    for r in RS.rules:
        assert shortlex_key(r.small) < shortlex_key(r.large)
    with pytest.raises(RewriteError):
        Rule((CAP_D,), (CAP_I,), 1)  # iD is not below iI
    with pytest.raises(RewriteError):
        Rule((CAP_I,), (CAP_I,), 1)


def test_rewrite_step_examples():
    assert rewrite_step((CONV, CONV), RS) == ((), 7, 0)
    assert rewrite_step((DOT_D, DOT_D, DOT_D), RS) == ((DOT_D, DOT_D), 13, 0)
    assert rewrite_step((CAP_I,), RS) is None


def test_rewrite_step_leftmost_lowest():
    # iI iI starting at 0 beats iD iD starting at 2
    w = parse_word("iI iI iD iD")
    assert rewrite_step(w, RS) == (parse_word("iI iD iD"), 1, 0)
    # at the same position the lower rule index wins: iI iI (rule 1)
    # and iI cv (rule 3) both begin at 1
    w = parse_word("cD iI iI cv")
    new, index, pos = rewrite_step(w, RS)
    assert (index, pos) == (1, 1)


def test_normalize_examples():
    nf, trace = normalize(parse_word("cD cD cD cD"), RS)
    assert nf == parse_word("cD cD")
    assert trace == [(13, 0), (13, 0)]
    nf, trace = normalize(W28, RS)
    assert nf == W28 and trace == []
    nf, trace = normalize(parse_word("cv cv iI"), RS)
    assert nf == (CAP_I,) and trace == [(7, 0)]


def test_normalize_semantic_soundness_sampled():
    # the normal form denotes the same map on a size-5 panel, under the
    # built-in rules and under the 43 rules the search discovers
    panel = bitrel.sample_panel(5, 3000, 123)
    masks = bitrel.batch_masks([(5, 3000)])
    from relfrag.words import LETTERS
    for rs in (RS, load_rules(str(SEARCH_RULES_43))):
        rng = np.random.default_rng(9)
        for _ in range(150):
            w = tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 13))))
            nf, trace = normalize(w, rs)
            assert shortlex_key(nf) <= shortlex_key(w)
            assert rewrite_step(nf, rs) is None
            assert replay_trace(w, rs, trace) == nf
            assert bitrel.apply_word_packed(panel, w, masks) == bitrel.apply_word_packed(panel, nf, masks)


@given(words)
@settings(max_examples=200)
def test_normalize_traces_replay(w):
    nf, trace = normalize(w, RS)
    assert replay_trace(w, RS, trace) == nf
    assert rewrite_step(nf, RS) is None


def test_replay_rejects_corrupt_traces():
    with pytest.raises(RewriteError):
        replay_trace(parse_word("cv cv"), RS, [(7, 1)])


def test_is_irreducible_examples():
    assert rewrite_step(W28, RS) is None
    assert len(W28) == 28
    assert rewrite_step((CAP_I, CAP_I), RS) is not None
    assert rewrite_step((), RS) is None


def test_enumerate_first_words():
    gen = enumerate_irreducibles(RS)
    first = [next(gen) for _ in range(5)]
    assert first == [(), (CAP_I,), (CAP_D,), (DOT_D,), (CONV,)]


def test_enumerate_and_count_agree():
    irreducibles = list(enumerate_irreducibles(RS))
    assert len(irreducibles) == IRREDUCIBLE_COUNT
    assert count_irreducibles(RS) == IRREDUCIBLE_COUNT
    assert max(len(w) for w in irreducibles) == 28
    assert W28 in set(irreducibles)
    assert len(set(irreducibles)) == IRREDUCIBLE_COUNT
    # shortlex order
    keys = [shortlex_key(w) for w in irreducibles]
    assert keys == sorted(keys)
    # exactly the irreducible words up to the length bound
    sample = irreducibles[::97]
    assert all(rewrite_step(w, RS) is None for w in sample)


def test_enumeration_cross_validated_against_membership():
    # a word of length <= 28 is in the enumerated set iff it is
    # irreducible; sampled over random short-biased words
    from relfrag.words import LETTERS
    members = set(enumerate_irreducibles(RS))
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        length = int(rng.integers(0, 9))
        w = tuple(LETTERS[i] for i in rng.integers(0, 4, size=length))
        assert (w in members) == (rewrite_step(w, RS) is None)


def test_two_letter_system_counts():
    from itertools import product
    from relfrag.words import LETTERS
    pairs = []
    for i, (x, y) in enumerate(product(LETTERS, repeat=2), start=1):
        pairs.append(((), (x, y)))
    rs = make_system(pairs)
    assert count_irreducibles(rs) == 5  # the empty word and 4 letters


def test_no_rules_is_infinite():
    with pytest.raises(InfiniteIrreducibleSet):
        count_irreducibles(make_system([]))
    with pytest.raises(InfiniteIrreducibleSet):
        list(enumerate_irreducibles(make_system([])))


def test_single_pattern_is_infinite():
    rs = make_system([(((CAP_I,)), (CAP_I, CAP_I))])
    with pytest.raises(InfiniteIrreducibleSet):
        count_irreducibles(rs)


def test_rule_file_roundtrip(tmp_path):
    text = format_rules(RS)
    assert text.splitlines()[0] == "iI = iI iI"
    assert text.splitlines()[6] == "eps = cv cv"
    assert parse_rules(text) == RS
    path = tmp_path / "rules.txt"
    path.write_text("# comment\n\niI = iI iI\n", encoding="utf-8")
    rs = load_rules(str(path))
    assert len(rs.rules) == 1
    assert load_rules("builtin:figure1") == RS


def test_rule_file_errors():
    with pytest.raises(RewriteError):
        parse_rules("iI = iI = iI")
    with pytest.raises(RewriteError):
        parse_rules("iI = zz")
    with pytest.raises(RewriteError):
        load_rules("builtin:unknown")
