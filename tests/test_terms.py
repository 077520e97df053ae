import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfrag.terms import (BOT, DI, ID, TOP, Comp, Compl, Dagger, Inter,
                           ParseError, PROJ_BOTH_1, PROJ_IDENTITY, PROJ_SWAP,
                           Proj, Union, Var, compose_projections,
                           dotdagger_level, parse_term, print_term, vo)

from naive import parse_term_ref
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


# the infix operators, loosest first
INFIX = [("|", Union), ("&", Inter), ("$", Dagger), (";", Comp)]
POSTFIX = [("^", lambda t: Proj(t, PROJ_SWAP)), ("~", Compl),
           ("[1,1]", lambda t: Proj(t, PROJ_BOTH_1))]


def test_precedence_and_associativity():
    # for every ordered pair of infixes, the tighter one groups first and
    # one of equal level groups to the left; the printer leaves that
    # grouping bare and parenthesizes the other one
    a, b, c = Var("a"), Var("b"), Var("c")
    for i, (s1, c1) in enumerate(INFIX):
        for j, (s2, c2) in enumerate(INFIX):
            text = f"a {s1} b {s2} c"
            right, left = c1(a, c2(b, c)), c2(c1(a, b), c)
            bare, other = (right, left) if i < j else (left, right)
            assert parse_term(text) == bare, text
            assert print_term(bare) == text
            assert print_term(other) != text
            assert parse_term(print_term(other)) == other
    # postfix operators bind tighter than every infix, and stack
    for symbol, ctor in INFIX:
        for post, wrap in POSTFIX:
            assert parse_term(f"a{post} {symbol} b{post}") == ctor(wrap(a), wrap(b))
            assert print_term(wrap(ctor(a, b))) == f"(a {symbol} b){post}"
    assert parse_term("a~^[1,1]") == Proj(Proj(Compl(a), PROJ_SWAP), PROJ_BOTH_1)


def test_parse_whitespace_insensitive():
    assert parse_term("a&I") == parse_term("  a  &  I ")


# every site that raises ParseError: (text, offset, expected, found)
ATOM = "{'(', 'D', 'I', 'bot', 'top', identifier}"
PARSE_ERRORS = [
    # the tokenizer
    ("a # b", 2, "{term}", "'#'"),
    ("a[3,1]", 2, "{term}", "'3'"),
    # an atom
    ("", 0, ATOM, "end of input"),
    ("a & ", 4, ATOM, "end of input"),
    ("a | )", 4, ATOM, "')'"),
    ("a ; ~", 4, ATOM, "'~'"),
    # a closing parenthesis
    ("(a", 2, "{')'}", "end of input"),
    ("(a b)", 3, "{')'}", "'b'"),
    # inside a projection
    ("a[1 1]", 4, "{','}", "'1'"),
    ("a[1,2,", 5, "{']'}", "','"),
    ("a[1,2", 5, "{']'}", "end of input"),
    ("a[,1]", 2, "{'1', '2'}", "','"),
    ("a[1,", 4, "{'1', '2'}", "end of input"),
    # after a whole term
    ("a b", 2, "{end of input, operator}", "'b'"),
    ("a)", 1, "{end of input, operator}", "')'"),
    ("top I", 4, "{end of input, operator}", "'I'"),
]


def test_parse_errors_carry_offset_and_expectations():
    for text, offset, expected, found in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert str(err.value) == (f"syntax error at offset {offset}: "
                                  f"expected one of {expected}, found {found}")
        assert (err.value.offset, err.value.found) == (offset, found)
        assert "{" + ", ".join(sorted(err.value.expected)) + "}" == expected


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


def _outcome(parse, text):
    """The tree's repr, or the error's class, message and fields."""
    try:
        return repr(parse(text))
    except ValueError as e:
        return type(e), str(e), vars(e)


_TOKENS = ["a", "b2", "x_y", "I", "D", "top", "bot", ";", "$", "&", "|", "~", "^", "(", ")",
           "[", "]", ",", "1", "2", " ", "#", "[1,2]", "[2,1]"]


def _edit(text, edits):
    for pos, token, delete in edits:
        pos %= len(text) + 1
        text = text[:pos] + token + text[pos + delete:]
    return text


_edited_prints = st.builds(_edit, terms.map(print_term),
                           st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_TOKENS + [""]),
                                              st.booleans()), max_size=3))


@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=16).map("".join), _edited_prints))
@example("a # b")   # the tokenizer
@example("a & ")    # an atom
@example("(a b)")   # a closing parenthesis
@example("a[,1]")   # a projection's digit
@example("a[1 1]")  # its comma
@example("a[1,2,")  # its closing bracket
@example("a b")     # after a whole term
@example("(a ; b)~ $ c[2,1] ; (I | D^) & top")
@settings(max_examples=500)
def test_parser_matches_recursive_reference(text):
    # the loop parser against the recursive descent it replaced: the
    # same tree, or the same error with the same offset, expected set
    # and found text
    assert _outcome(parse_term, text) == _outcome(parse_term_ref, text)


@pytest.mark.parametrize("op", ["|", "&", "$", ";"])
def test_parser_takes_any_depth(op):
    # no recursion: 100,000 parentheses, and a chain nested 10,000 deep
    # to the right, which the reference parser cannot read
    assert parse_term("(" * 100_000 + "a" + ")" * 100_000) == Var("a")
    t = parse_term(f"a {op} (" * 10_000 + "a" + ")" * 10_000)
    assert print_term(t) == f"a {op} (" * 9_999 + f"a {op} a" + ")" * 9_999
    assert vo(t) == 10_001


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
