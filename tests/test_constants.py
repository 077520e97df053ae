"""The constant classes and the variable-free decision.

``classify_const`` reads a class off ``semantics.eval_term``, so every
check here compares against ``naive.naive_eval``, which shares nothing
with it, at sizes 3 to 6.
"""

import numpy as np
import pytest

from relfrag import decide, semantics
from relfrag.constants import (ConstClass, ConstError, REPRESENTATIVES, classify_const,
                               decide_0vo)
from relfrag.decide import Equivalent, Inequivalent, Mode, decide_terms, replay_justification
from relfrag.normalforms import complement_nf
from relfrag.semantics import Structure, eval_term
from relfrag.terms import (ALL_PROJECTIONS, BOT, DI, ID, TOP, Comp, Compl,
                           Dagger, Inter, Proj, Union, Var, parse_term)

from naive import naive_eval

B, T, I, D = ConstClass.BOT, ConstClass.TOP, ConstClass.ID, ConstClass.DI
_SIZES = (3, 4, 5, 6)


def _naive(t, n):
    return naive_eval(t, n, {})


def _agrees(t, cls):
    rep = REPRESENTATIVES[cls]
    return all(_naive(t, n) == _naive(rep, n) for n in _SIZES)


def test_transcribed_entries():
    assert classify_const(parse_term("D ; D")) is T
    assert classify_const(parse_term("I~")) is D
    assert classify_const(parse_term("I & D")) is B
    assert classify_const(parse_term("D^")) is D


def test_every_cayley_entry_validated_semantically():
    # each operator applied to representatives lands in the class that
    # naive evaluation gives it at sizes 3 to 6
    ctor = {"inter": Inter, "union": Union, "comp": Comp, "dagger": Dagger}
    for op, build in ctor.items():
        for x in ConstClass:
            for y in ConstClass:
                composite = build(REPRESENTATIVES[x], REPRESENTATIVES[y])
                assert _agrees(composite, classify_const(composite)), (op, x, y)
    for x in ConstClass:
        assert _agrees(Compl(REPRESENTATIVES[x]), classify_const(Compl(REPRESENTATIVES[x])))
        for proj in ALL_PROJECTIONS:
            composite = Proj(REPRESENTATIVES[x], proj)
            assert _agrees(composite, classify_const(composite))


def test_classify_examples():
    assert classify_const(parse_term("D ; D")) is T
    assert classify_const(parse_term("I & D")) is B
    assert classify_const(parse_term("(D ; D)~")) is B
    assert _agrees(parse_term("(D ; D)~"), B)


def test_classify_rejects_variables():
    with pytest.raises(ConstError, match="variable 'a'"):
        classify_const(Var("a"))
    with pytest.raises(ConstError, match="variable 'b'"):
        classify_const(parse_term("(I ; b) | a"))


def _random_const_term(rng, depth, leaf=0.25):
    if depth == 0 or rng.random() < leaf:
        return [BOT, TOP, ID, DI][int(rng.integers(0, 4))]
    pick = int(rng.integers(0, 7))
    if pick < 2:
        return Compl(_random_const_term(rng, depth - 1, leaf))
    if pick == 2:
        return Proj(_random_const_term(rng, depth - 1, leaf),
                    ALL_PROJECTIONS[int(rng.integers(0, 4))])
    build = [Union, Inter, Comp, Dagger][pick - 3]
    return build(_random_const_term(rng, depth - 1, leaf),
                 _random_const_term(rng, depth - 1, leaf))


def test_classify_agrees_with_evaluation_at_3_to_6():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        t1 = _random_const_term(rng, 6)
        t2 = _random_const_term(rng, 6)
        naively = all(_naive(t1, n) == _naive(t2, n) for n in _SIZES)
        found = decide_0vo(t1, t2, 3)
        assert isinstance(found, ConstClass) == naively
        # an equal pair's class is that of both sides
        assert not naively or _agrees(t1, found) and _agrees(t2, found)


def test_classify_stable_under_complement_normal_form():
    # the pass is total, so every constant term keeps its class
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = _random_const_term(rng, 5)
        assert classify_const(complement_nf(t)) is classify_const(t)


def test_differential_against_naive_evaluation():
    # classes and decisions both against naive values at sizes 1 to 6;
    # the leaf chance keeps most terms small enough for naive evaluation
    rng = np.random.default_rng(25)
    for _ in range(1000):
        t1, t2 = _random_const_term(rng, 6, 0.4), _random_const_term(rng, 6, 0.4)
        v1 = {n: _naive(t1, n) for n in range(1, 7)}
        v2 = {n: _naive(t2, n) for n in range(1, 7)}
        for t, v in ((t1, v1), (t2, v2)):
            rep = REPRESENTATIVES[classify_const(t)]
            assert all(v[n] == _naive(rep, n) for n in _SIZES), t
        for m in range(1, 5):
            found = decide_0vo(t1, t2, m)
            witness = None if isinstance(found, ConstClass) else found
            assert witness is not None or found is classify_const(t1) is classify_const(t2)
            first = next((n for n in range(m, 7) if v1[n] != v2[n]), None)
            # a difference from size 3 on is a class difference, found at 3
            assert (witness.size if witness else None) == (first and min(first, 3)), (t1, t2, m)
            assert witness is None or v1[witness.size] != v2[witness.size]


def test_classification_never_evaluates_above_size_3(monkeypatch):
    # under rel>=2000 the class must come from size 3, not from 2000
    sizes = []

    def recording(t, m):
        sizes.append(m.size)
        return eval_term(t, m)

    monkeypatch.setattr(semantics, "eval_term", recording)
    monkeypatch.setattr(decide, "eval_term", recording)
    v = decide_terms(parse_term("D;D"), TOP, Mode(2000))
    assert isinstance(v, Equivalent) and v.justification["class"] == "top"
    assert sizes and max(sizes) <= 3


def test_decide_0vo_examples():
    witness = decide_0vo(parse_term("D ; D"), TOP, 1)
    assert witness == Structure(1, {})
    assert decide_0vo(parse_term("D ; D"), TOP, 3) is T
    assert decide_0vo(parse_term("bot"), parse_term("I & D"), 1) is B


def test_decide_0vo_intermediate_min_size():
    # D ; D differs from top exactly below size 3
    assert decide_0vo(parse_term("D ; D"), TOP, 2) == Structure(2, {})
    assert decide_0vo(parse_term("D ; D"), TOP, 4) is T


def test_decide_0vo_class_difference_witness():
    witness = decide_0vo(ID, DI, 1)
    assert witness is not None and _naive(ID, witness.size) != _naive(DI, witness.size)
    # a class difference is found at size 3 whatever the minimum
    assert decide_0vo(ID, DI, 7) == Structure(3, {})


def test_decide_0vo_rejects_variables():
    with pytest.raises(ConstError, match="variable 'a'"):
        decide_0vo(Var("a"), TOP, 1)
    # on the right side too
    with pytest.raises(ConstError, match="variable 'b'"):
        decide_0vo(TOP, parse_term("I ; b"), 2)
    with pytest.raises(ConstError):
        decide_0vo(TOP, TOP, 0)


_MINIMA = [1, 2, 3, 4, 7, 2000]
# per pair, the mode minima at which it is inequivalent, and its class:
# D ; D is I at size 2 and full from 3 on, I and D differ at every size
_PINNED = {("D;D", "top"): ({1, 2}, "top"), ("I", "D"): (set(_MINIMA), None),
           ("I;D", "D"): (set(), "D")}


@pytest.mark.parametrize("pair", list(_PINNED), ids="/".join)
@pytest.mark.parametrize("m", _MINIMA)
def test_decide_terms_constant_verdicts_pinned(pair, m):
    t1, t2 = map(parse_term, pair)
    separated, cls = _PINNED[pair]
    v = decide_terms(t1, t2, Mode(m))
    if m in separated:
        # found at size min(m, 3) and carried to m unevaluated
        assert v == Inequivalent(Structure(m, {}))
    else:
        assert v == Equivalent({"kind": "constant-classes", "class": cls,
                                "checked_small_sizes": list(range(m, 3))})
        assert replay_justification(v, t1, t2)
