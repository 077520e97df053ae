import pytest
from hypothesis import given, settings

from brute import consecutive
from relfrag import bitrel
from relfrag.bitrel import eval_term_batch
from relfrag.semantics import Structure, eval_term
from relfrag.terms import (BOT, DI, ID, TOP, Comp, PROJ_BOTH_1, PROJ_SWAP,
                           Var, parse_term, vo)
from relfrag.words import (CAP_D, CAP_I, CONV, DOT_D, GeneralLetter, LETTERS,
                           WordError, apply_word, decompose_1vo, format_word,
                           parse_word, reduce_letter, shortlex_key)

from strategies import terms, words


def test_word_text_format():
    assert parse_word("cD cD cv") == (DOT_D, DOT_D, CONV)
    assert parse_word("eps") == ()
    assert format_word(()) == "eps"
    assert format_word((CAP_I, CONV)) == "iI cv"
    with pytest.raises(WordError):
        parse_word("xx")
    with pytest.raises(WordError):
        parse_word("")


def test_apply_examples():
    a = Var("a")
    assert apply_word([], a) == a
    assert apply_word([DOT_D, DOT_D], a) == parse_term("(a ; D) ; D")
    assert apply_word([CAP_I], a) == parse_term("a & I")
    assert apply_word([CONV], a) == parse_term("a^")


def test_apply_general_letters_running_example():
    # ((I;I) ; _)(I ; _)(_ ; I) applied to a gives (I;I) ; (I ; (a ; I))
    w = [GeneralLetter("comp", 2, Comp(ID, ID)),
         GeneralLetter("comp", 2, ID),
         GeneralLetter("comp", 1, ID)]
    assert apply_word(w, Var("a")) == parse_term("(I ; I) ; (I ; (a ; I))")


def test_decompose_1vo_examples():
    letters, base = decompose_1vo(parse_term("(a & I) ; D"))
    assert base == Var("a")
    assert [(l.kind, l.hole) for l in letters] == [("comp", 1), ("inter", 1)]
    assert letters[0].filler == DI and letters[1].filler == ID

    letters, base = decompose_1vo(ID)
    assert letters == [] and base == ID

    letters, base = decompose_1vo(parse_term("(I & D) ; a"))
    assert base == Var("a")
    assert [(l.kind, l.hole) for l in letters] == [("comp", 2)]
    assert letters[0].filler == parse_term("I & D")


def test_decompose_1vo_rejects_two_occurrences():
    with pytest.raises(WordError):
        decompose_1vo(parse_term("a & a"))


@given(terms)
@settings(max_examples=300)
def test_decompose_apply_roundtrip(t):
    if vo(t) > 1:
        return
    letters, base = decompose_1vo(t)
    assert apply_word(letters, base) == t
    assert isinstance(base, Var) or not list(__import__("relfrag.terms", fromlist=["children"]).children(base))


def test_reduce_letter_table():
    cases = {
        ("inter", TOP): "eps", ("inter", BOT): "iI iD",
        ("inter", ID): "iI", ("inter", DI): "iD",
        ("comp", TOP): "cD cD", ("comp", BOT): "iI iD",
        ("comp", ID): "eps", ("comp", DI): "cD",
    }
    for (kind, filler), expect in cases.items():
        assert format_word(reduce_letter(GeneralLetter(kind, 1, filler))) == expect
    # the left-slot composition goes through converse conjugation
    assert format_word(reduce_letter(GeneralLetter("comp", 2, DI))) == "cv cD cv"
    assert format_word(reduce_letter(GeneralLetter("inter", 2, DI))) == "iD"
    assert format_word(reduce_letter(GeneralLetter("proj", proj=PROJ_SWAP))) == "cv"


def test_reduce_letter_classifies_compound_fillers():
    assert format_word(reduce_letter(GeneralLetter("comp", 1, parse_term("D ; D")))) == "cD cD"


def test_reduce_letter_rejects_outside_signature():
    with pytest.raises(WordError):
        reduce_letter(GeneralLetter("dagger", 1, DI))
    with pytest.raises(WordError):
        reduce_letter(GeneralLetter("proj", proj=PROJ_BOTH_1))
    with pytest.raises(WordError):
        reduce_letter(GeneralLetter("compl"))
    with pytest.raises(WordError):
        GeneralLetter("inter", 1, Var("b"))  # filler must be variable-free


def _all_test_letters():
    reps = [BOT, TOP, ID, DI]
    out = []
    for filler in reps:
        for kind in ("inter", "comp"):
            for hole in (1, 2):
                out.append(GeneralLetter(kind, hole, filler))
    out.append(GeneralLetter("proj", proj=PROJ_SWAP))
    return out


def test_reduce_letter_sound_exhaustive_small_sizes():
    # every letter against its reduction, all relations of sizes 3 and
    # 4 (reductions through top need at least 3 points: D;D is only
    # full there)
    for x in _all_test_letters():
        t_letter = apply_word([x], Var("a"))
        t_word = apply_word(reduce_letter(x), Var("a"))
        for n in (3, 4):
            count = 1 << (n * n)
            rels, masks = consecutive(0, count, n), bitrel.batch_masks([(n, count)])
            lhs = eval_term_batch(t_letter, {"a": rels}, masks)
            rhs = bitrel.apply_word_packed(rels, reduce_letter(x), masks)
            assert lhs == rhs, (x, n)


def _sliced_right_slot(x: GeneralLetter, rels: list, n: int) -> list:
    # independent bit-sliced implementation of a right-slot letter
    filler = eval_term(x.filler, Structure(n, {})).bits
    if x.kind == "inter":
        return [r if filler >> p & 1 else 0 for p, r in enumerate(rels)]
    # a ; c has (x, y) where a has (x, z) and c has (z, y)
    out = []
    for xx in range(n):
        for y in range(n):
            acc = 0
            for z in range(n):
                if filler >> (z * n + y) & 1:
                    acc |= rels[xx * n + z]
            out.append(acc)
    return out


def test_reduce_letter_sound_exhaustive_size_5():
    # full scan over all 2^25 single-relation structures; right-slot
    # letters use an inline bit-sliced reference, left-slot letters the
    # generic batch evaluator, neither shared with the word kernels
    n, chunk = 5, 1 << 13
    masks = bitrel.batch_masks([(n, chunk)])
    for x in _all_test_letters():
        word = reduce_letter(x)
        term = apply_word([x], Var("a"))
        for start in range(0, 1 << 25, chunk):
            rels = consecutive(start, chunk, n)
            if x.kind != "proj" and x.hole == 1:
                expected = _sliced_right_slot(x, rels, n)
            else:
                expected = eval_term_batch(term, {"a": rels}, masks)
            assert bitrel.apply_word_packed(rels, word, masks) == expected, (x, start)


def shortlex_compare(w1, w2) -> int:
    """-1, 0 or 1: length first, then letterwise iI < iD < cD < cv."""
    k1, k2 = shortlex_key(w1), shortlex_key(w2)
    return -1 if k1 < k2 else (0 if k1 == k2 else 1)


def test_shortlex_examples():
    assert shortlex_compare((CAP_I,), (CAP_I, CAP_I)) == -1
    assert shortlex_compare((CAP_I, CAP_D), (CAP_D, CAP_I)) == -1
    assert shortlex_compare((DOT_D,), (DOT_D,)) == 0
    assert shortlex_compare((CONV,), (DOT_D,)) == 1


@given(words, words, words, words)
@settings(max_examples=200)
def test_shortlex_congruence(u, v, left, right):
    if shortlex_compare(u, v) == -1:
        assert shortlex_compare(left + u + right, left + v + right) == -1


@given(words, words)
@settings(max_examples=200)
def test_shortlex_total_order(u, v):
    c = shortlex_compare(u, v)
    assert c in (-1, 0, 1)
    assert (c == 0) == (u == v)
    assert shortlex_compare(v, u) == -c


def test_shortlex_well_founded_at_small_lengths():
    # a strictly decreasing chain from w cannot be longer than the
    # number of words shortlex-below w; exhaust everything of length 2
    from itertools import product
    below = []
    for length in range(3):
        for letters in product(LETTERS, repeat=length):
            below.append(tuple(letters))
    for w in below:
        smaller = [v for v in below if shortlex_compare(v, w) == -1]
        assert len(smaller) == below.index(w)  # enumeration is shortlex-sorted
