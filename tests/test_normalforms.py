import re

import numpy as np
import pytest

from relfrag.normalforms import (NormalFormError, UnionBlowup, complement_nf,
                                 expand_projections, projection_nf, union_nf)
from relfrag.semantics import exhaustive_check
from relfrag.terms import (Compl, FragmentInfo, Proj, PROJ_SWAP, Union, Var,
                           dotdagger_level, parse_term, print_term, subterms)


def _equiv_small(t1, t2, sizes=(1, 2, 3)):
    return exhaustive_check(t1, t2, sizes) is None


def test_complement_nf_examples():
    assert complement_nf(parse_term("(a | b)~")) == parse_term("a~ & b~")
    assert complement_nf(parse_term("I~")) == parse_term("D")
    assert complement_nf(parse_term("a~~")) == Var("a")
    assert complement_nf(parse_term("(a & b~)~ ; D")) == parse_term("(a~ | b) ; D")


def test_complement_nf_output_shape():
    rng = np.random.default_rng(23)
    for t in [parse_term("((a | I)~ & (b^)~)~")] + [_random_term(rng, 4) for _ in range(200)]:
        for s in subterms(complement_nf(t)):
            if isinstance(s, Compl):
                assert isinstance(s.arg, Var)


def test_complement_nf_total_examples():
    # complement turns composition into dagger and back
    assert complement_nf(parse_term("(a ; b)~")) == parse_term("a~ $ b~")
    assert complement_nf(parse_term("(b $ I)~")) == parse_term("b~ ; D")
    assert complement_nf(parse_term("a ; (b $ c)")) == parse_term("a ; (b $ c)")
    assert complement_nf(parse_term("((a ; b^)~ | c)~")) == parse_term("(a ; b^) & c~")
    assert complement_nf(parse_term("(a[1,1] ; top)~")) == parse_term("a~[1,1] $ bot")


def _random_level0(rng, depth):
    # no composition or dagger anywhere; complements allowed
    from relfrag.terms import ALL_PROJECTIONS, BOT, DI, ID, TOP, Inter, Proj, Union
    if depth == 0 or rng.random() < 0.3:
        return [Var("a"), BOT, TOP, ID, DI][int(rng.integers(0, 5))]
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return Compl(_random_level0(rng, depth - 1))
    if pick == 1:
        return Proj(_random_level0(rng, depth - 1), ALL_PROJECTIONS[int(rng.integers(0, 4))])
    build = Union if pick == 2 else __import__("relfrag.terms", fromlist=["Inter"]).Inter
    return build(_random_level0(rng, depth - 1), _random_level0(rng, depth - 1))


def _random_level1_term(rng, depth, allow_compl=True):
    # union/intersection/composition/projection over composition-free
    # cores; complements only inside the cores
    from relfrag.terms import ALL_PROJECTIONS, Comp, Inter, Proj, Union
    if depth == 0 or rng.random() < 0.25:
        core = _random_level0(rng, 2)
        return core if allow_compl else elim_compl(core)
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return Proj(_random_level1_term(rng, depth - 1, allow_compl),
                    ALL_PROJECTIONS[int(rng.integers(0, 4))])
    build = [Union, Inter, Comp][pick - 1]
    return build(_random_level1_term(rng, depth - 1, allow_compl),
                 _random_level1_term(rng, depth - 1, allow_compl))


def elim_compl(t):
    from relfrag.terms import children
    if isinstance(t, Compl):
        return elim_compl(t.arg)
    if not children(t):
        return t
    if isinstance(t, Proj):
        return Proj(elim_compl(t.arg), t.proj)
    return type(t)(elim_compl(t.left), elim_compl(t.right))


def _elim_bot_top(t):
    # bot as I & D and top as I | D, so that union_nf distributes more
    text = re.sub(r"\bbot\b", "(I & D)", print_term(t))
    return parse_term(re.sub(r"\btop\b", "(I | D)", text))


def test_complement_nf_preserves_semantics():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(500):
        t = _random_level1_term(rng, 4)
        out = complement_nf(t)
        assert _equiv_small(t, out)
        checked += 1
    assert checked == 500


def test_projection_nf_examples():
    assert projection_nf(parse_term("(a ; b)^")) == parse_term("b^ ; a^")
    assert projection_nf(parse_term("(a^)^")) == Var("a")
    assert projection_nf(parse_term("I[1,1]")) == parse_term("top")
    assert projection_nf(parse_term("(a ; b)[1,1]")) == parse_term("(a & b^) ; top")
    assert projection_nf(parse_term("(a $ b)[2,2]")) == parse_term("bot $ (a^ | b)")


def test_projection_nf_output_shape():
    rng = np.random.default_rng(77)
    for _ in range(200):
        t = _random_term(rng, 4)
        out = projection_nf(t)
        for s in subterms(out):
            if isinstance(s, Proj):
                assert isinstance(s.arg, Var)


def _random_term(rng, depth):
    from relfrag.terms import (ALL_PROJECTIONS, BOT, DI, ID, TOP, Comp, Dagger,
                               Inter, Union)
    if depth == 0:
        return [Var("a"), BOT, TOP, ID, DI][int(rng.integers(0, 5))]
    pick = int(rng.integers(0, 7))
    if pick == 0:
        return Compl(_random_term(rng, depth - 1))
    if pick == 1:
        return Proj(_random_term(rng, depth - 1), ALL_PROJECTIONS[int(rng.integers(0, 4))])
    build = [Union, Inter, Comp, Dagger, Union][pick - 2]
    return build(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def test_projection_nf_preserves_semantics():
    rng = np.random.default_rng(13)
    for _ in range(500):
        t = _random_term(rng, 4)
        assert _equiv_small(t, projection_nf(t))


def test_expand_projections():
    out = expand_projections(parse_term("a[1,1] & b[2,2]"))
    assert out == parse_term("((a & I) ; top) & (top ; (b & I))")
    assert _equiv_small(parse_term("a[1,1]"), expand_projections(parse_term("a[1,1]")))
    # converse is kept
    assert expand_projections(parse_term("a^")) == Proj(Var("a"), PROJ_SWAP)


def test_union_nf_examples():
    assert union_nf(parse_term("(I | D) ; a")) == [parse_term("I ; a"), parse_term("D ; a")]
    assert union_nf(parse_term("a & I")) == [parse_term("a & I")]
    four = union_nf(parse_term("(I | D) & (I | D)"))
    assert len(four) == 4
    rebuilt = four[0]
    for d in four[1:]:
        rebuilt = Union(rebuilt, d)
    assert _equiv_small(parse_term("(I | D) & (I | D)"), rebuilt)


def test_union_nf_disjuncts_are_union_free():
    rng = np.random.default_rng(59)
    from relfrag.terms import Union as U
    checked = 0
    for _ in range(400):
        t = _elim_bot_top(_random_level1_term(rng, 3, allow_compl=False))
        t = projection_nf(t)
        t = complement_nf(t)
        t = expand_projections(t)
        t = _elim_bot_top(t)
        disjuncts = union_nf(t)
        if len(disjuncts) > 64:  # keep the recombined term evaluable
            continue
        rebuilt = disjuncts[0]
        for d in disjuncts[1:]:
            assert not any(isinstance(s, U) for s in subterms(d))
            rebuilt = U(rebuilt, d)
        assert _equiv_small(t, rebuilt)
        checked += 1
    assert checked >= 300


def test_union_nf_ceiling():
    t = parse_term("I | D")
    for _ in range(6):
        t = parse_term(f"({print_term(t)}) & ({print_term(t)})")
    with pytest.raises(UnionBlowup):
        union_nf(t, ceiling=1000)


def test_union_nf_rejects_outside_signature():
    with pytest.raises(NormalFormError):
        union_nf(parse_term("a $ b"))


def test_complement_dual_examples():
    # the complement normal form of ~t is the De Morgan dual of t
    assert complement_nf(Compl(parse_term("a $ b"))) == parse_term("a~ ; b~")
    assert complement_nf(Compl(parse_term("I"))) == parse_term("D")
    assert complement_nf(Compl(parse_term("a~"))) == Var("a")


def test_complement_dual_semantics():
    # ~t, with its complements pushed down, equals ~t and has the
    # levels of t swapped
    rng = np.random.default_rng(71)
    for _ in range(200):
        t = _random_term(rng, 3)
        info = dotdagger_level(t)
        rho = complement_nf(Compl(t))
        assert exhaustive_check(Compl(t), rho, [1, 2, 3]) is None
        assert dotdagger_level(rho) == dotdagger_level(Compl(t))
        assert dotdagger_level(Compl(t)) == FragmentInfo(info.vo, info.pi_level, info.sigma_level)
