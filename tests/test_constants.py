import numpy as np
import pytest

from relfrag.constants import (ConstClass, ConstError, REPRESENTATIVES, cayley,
                               classify_const, decide_0vo)
from relfrag.normalforms import complement_nf
from relfrag.semantics import Structure, eval_term
from relfrag.terms import (ALL_PROJECTIONS, BOT, DI, ID, TOP, Comp, Compl,
                           Dagger, Inter, Proj, Union, Var, parse_term)

B, T, I, D = ConstClass.BOT, ConstClass.TOP, ConstClass.ID, ConstClass.DI
_STRUCTURES = [Structure(n, {}) for n in (3, 4, 5)]


def _agrees(t, cls):
    rep = REPRESENTATIVES[cls]
    return all(eval_term(t, m) == eval_term(rep, m) for m in _STRUCTURES)


def test_transcribed_entries():
    assert cayley("comp", D, D) is T
    assert cayley("compl", I) is D
    assert cayley("inter", I, D) is B
    assert cayley("conv", D) is D


def test_every_cayley_entry_validated_semantically():
    # binary tables against evaluation on the variable-free structures
    # of sizes 3, 4 and 5
    ctor = {"inter": Inter, "union": Union, "comp": Comp, "dagger": Dagger}
    for op, build in ctor.items():
        for x in ConstClass:
            for y in ConstClass:
                composite = build(REPRESENTATIVES[x], REPRESENTATIVES[y])
                assert _agrees(composite, cayley(op, x, y)), (op, x, y)
    for x in ConstClass:
        assert _agrees(Compl(REPRESENTATIVES[x]), cayley("compl", x))
        for proj in ALL_PROJECTIONS:
            assert _agrees(Proj(REPRESENTATIVES[x], proj), cayley("proj", x, proj=proj))


def test_cayley_arity_errors():
    with pytest.raises(ConstError):
        cayley("inter", T)
    with pytest.raises(ConstError):
        cayley("compl", T, B)
    with pytest.raises(ConstError):
        cayley("proj", T)
    with pytest.raises(ConstError):
        cayley("what", T)


def test_classify_examples():
    assert classify_const(parse_term("D ; D")) is T
    assert classify_const(parse_term("I & D")) is B
    assert classify_const(parse_term("(D ; D)~")) is B
    assert _agrees(parse_term("(D ; D)~"), B)


def test_classify_rejects_variables():
    with pytest.raises(ConstError):
        classify_const(Var("a"))


def _random_const_term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return [BOT, TOP, ID, DI][int(rng.integers(0, 4))]
    pick = int(rng.integers(0, 7))
    if pick < 2:
        return Compl(_random_const_term(rng, depth - 1))
    if pick == 2:
        return Proj(_random_const_term(rng, depth - 1),
                    ALL_PROJECTIONS[int(rng.integers(0, 4))])
    build = [Union, Inter, Comp, Dagger][pick - 3]
    return build(_random_const_term(rng, depth - 1), _random_const_term(rng, depth - 1))


def test_classify_agrees_with_evaluation_at_3_to_6():
    rng = np.random.default_rng(2024)
    structures = [Structure(n, {}) for n in (3, 4, 5, 6)]
    for _ in range(500):
        t1 = _random_const_term(rng, 6)
        t2 = _random_const_term(rng, 6)
        verdict = decide_0vo(t1, t2, 3)
        semantically = all(eval_term(t1, m) == eval_term(t2, m) for m in structures)
        assert verdict.equivalent == semantically


def test_classify_stable_under_complement_normal_form():
    # the pass is total, so every constant term keeps its class
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = _random_const_term(rng, 5)
        assert classify_const(complement_nf(t)) is classify_const(t)


def test_decide_0vo_examples():
    v = decide_0vo(parse_term("D ; D"), TOP, 1)
    assert not v.equivalent and v.witness is not None and v.witness.size == 1
    assert decide_0vo(parse_term("D ; D"), TOP, 3).equivalent
    assert decide_0vo(parse_term("bot"), parse_term("I & D"), 1).equivalent


def test_decide_0vo_intermediate_min_size():
    # D ; D differs from top exactly below size 3
    v = decide_0vo(parse_term("D ; D"), TOP, 2)
    assert not v.equivalent and v.witness.size == 2
    assert decide_0vo(parse_term("D ; D"), TOP, 4).equivalent


def test_decide_0vo_class_difference_witness():
    v = decide_0vo(ID, DI, 1)
    assert not v.equivalent
    assert eval_term(ID, v.witness) != eval_term(DI, v.witness)


def test_decide_0vo_rejects_variables():
    with pytest.raises(ConstError):
        decide_0vo(Var("a"), TOP, 1)
