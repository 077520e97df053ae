import pytest
from hypothesis import given, settings

from relfrag.terms import (BOT, DI, ID, TOP, Comp, Compl, Dagger, Inter,
                           ParseError, PROJ_BOTH_1, PROJ_IDENTITY, PROJ_SWAP,
                           Proj, Union, Var, compose_projections,
                           dotdagger_level, parse_term, print_term, vo)

from strategies import terms


def test_parse_basics():
    assert parse_term("a & I") == Inter(Var("a"), ID)
    assert parse_term("a ; (b $ c)") == Comp(Var("a"), Dagger(Var("b"), Var("c")))
    four = parse_term("(a ; b) ; (I ; (a ; b))")
    assert vo(four) == 4
    assert parse_term("bot | top") == Union(BOT, TOP)
    assert parse_term("a^") == Proj(Var("a"), PROJ_SWAP)
    assert parse_term("a~") == Compl(Var("a"))
    assert parse_term("a[1,1]") == Proj(Var("a"), PROJ_BOTH_1)
    assert parse_term("a[1,2]") == Proj(Var("a"), PROJ_IDENTITY)


def test_precedence_and_associativity():
    # postfix > ; > $ > & > |, infixes left-associative
    assert parse_term("a | b & c") == Union(Var("a"), Inter(Var("b"), Var("c")))
    assert parse_term("a & b $ c") == Inter(Var("a"), Dagger(Var("b"), Var("c")))
    assert parse_term("a $ b ; c") == Dagger(Var("a"), Comp(Var("b"), Var("c")))
    assert parse_term("a ; b^") == Comp(Var("a"), Proj(Var("b"), PROJ_SWAP))
    assert parse_term("a | b | c") == Union(Union(Var("a"), Var("b")), Var("c"))
    assert parse_term("a ; b ; c") == Comp(Comp(Var("a"), Var("b")), Var("c"))


def test_parse_whitespace_insensitive():
    assert parse_term("a&I") == parse_term("  a  &  I ")


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_term("a & ")
    assert err.value.offset == 4
    assert any("identifier" in e for e in err.value.expected)
    with pytest.raises(ParseError) as err:
        parse_term("a b")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse_term("a[3,1]")
    with pytest.raises(ParseError):
        parse_term("(a")


def test_print_examples():
    assert print_term(ID) == "I"
    assert print_term(Proj(Var("a"), PROJ_SWAP)) == "a^"
    assert print_term(Inter(Var("a"), DI)) == "a & D"
    assert print_term(Proj(Var("a"), PROJ_IDENTITY)) == "a[1,2]"
    assert print_term(Compl(Comp(Var("a"), Var("b")))) == "(a ; b)~"
    assert print_term(Union(Var("a"), Union(Var("b"), Var("c")))) == "a | (b | c)"
    assert print_term(Union(Union(Var("a"), Var("b")), Var("c"))) == "a | b | c"


@given(terms)
@settings(max_examples=300)
def test_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t


def test_vo_examples():
    assert vo(parse_term("(a;b);(I;(a;b))")) == 4
    assert vo(ID) == 0
    assert vo(parse_term("a & a^")) == 2


def test_levels_examples():
    assert dotdagger_level(parse_term("a ; b")).sigma_level == 1
    assert dotdagger_level(parse_term("a ; (b $ c)")).sigma_level == 2
    info = dotdagger_level(parse_term("a | b^"))
    assert (info.sigma_level, info.pi_level) == (0, 0)
    info = dotdagger_level(parse_term("a $ b"))
    assert (info.sigma_level, info.pi_level) == (2, 1)
    # levels are read after complements are pushed to the variables:
    # (a ; b)~ is a~ $ b~, (b $ I)~ is b~ ; D
    info = dotdagger_level(parse_term("(a ; b)~"))
    assert (info.sigma_level, info.pi_level) == (2, 1)
    info = dotdagger_level(parse_term("(b $ I)~"))
    assert (info.sigma_level, info.pi_level) == (1, 2)
    info = dotdagger_level(parse_term("(a ; (b $ c)~)~"))
    assert (info.vo, info.sigma_level, info.pi_level) == (3, 2, 1)


@given(terms)
@settings(max_examples=200)
def test_levels_differ_by_at_most_one(t):
    info = dotdagger_level(t)
    assert abs(info.sigma_level - info.pi_level) <= 1


def test_projection_composition_table():
    # apply-then-apply equals the composed map, on a concrete relation
    from relfrag.semantics import Rel
    from relfrag.terms import ALL_PROJECTIONS
    for n in (2, 3):
        for bits in range(1 << (n * n)) if n == 2 else [0b101010101, 0b1, 0b111000111]:
            r = Rel(n, bits)
            for inner in ALL_PROJECTIONS:
                for outer in ALL_PROJECTIONS:
                    stepwise = r.project(inner.img1, inner.img2).project(outer.img1, outer.img2)
                    combined = compose_projections(inner, outer)
                    assert stepwise == r.project(combined.img1, combined.img2)
