from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from relfrag.fo import (FoAnd, FoAtom, FoEq, FoError, FoExists, FoFalse, FoForall,
                        FoIff, FoNot, FoOr, FoTrue, export_equation_smt2, export_equation_tptp,
                        standard_translation)
from relfrag.rewriting import figure1_rules
from relfrag.semantics import Rel, Structure, eval_term
from relfrag.terms import TOP, Var, parse_term, variables
from relfrag.words import apply_word, parse_word

from checkers import alpha_equivalent, check_smt2, check_tptp
from naive import (ea_disjuncts, ea_profile, evaluate_formula, nnf, standard_translations,
                   universal_polarities)
from strategies import two_variable_terms


def test_translation_basics():
    assert standard_translation(TOP) == FoTrue()
    assert standard_translation(parse_term("a^")) == FoAtom("a", "y0", "x0")
    assert standard_translation(Var("a")) == FoAtom("a", "x0", "y0")
    assert standard_translation(parse_term("I")) == FoEq("x0", "y0")


def test_translation_of_cDcD_matches_transcribed_target():
    # (exists y1, (exists y2, a(x0, y2) and y2 != y1) and y1 != y0)
    target = FoExists("y1", FoAnd(
        FoExists("y2", FoAnd(FoAtom("a", "x0", "y2"), FoNot(FoEq("y2", "y1")))),
        FoNot(FoEq("y1", "y0"))))
    got = standard_translation(apply_word(parse_word("cD cD"), Var("a")))
    assert got == target
    assert alpha_equivalent(got, target)


def test_alpha_equivalence():
    f = FoExists("y1", FoAtom("a", "x0", "y1"))
    g = FoExists("x1", FoAtom("a", "x0", "x1"))
    assert alpha_equivalent(f, g)
    h = FoExists("y1", FoAtom("a", "y1", "x0"))
    assert not alpha_equivalent(f, h)
    # free variables must match exactly
    assert not alpha_equivalent(FoAtom("a", "x0", "y0"), FoAtom("a", "y0", "x0"))


def _random_structure(rng, names, size):
    return Structure(size, {
        name: Rel(size, int(rng.integers(0, 1 << (size * size))))
        for name in names})


def test_translation_fidelity_on_random_terms():
    rng = np.random.default_rng(99)
    corpus = [
        "a ; b", "a $ b", "a & (b | I~)", "(a ; b) $ c", "a^ ; (b & D)",
        "top ; (a & I)", "a[1,1]", "a[2,2] & b", "(a $ b)^", "bot $ a",
        "(a ; b) ; c", "a ; (D $ b~)",
    ]
    checked = 0
    for text in corpus:
        t = parse_term(text)
        f = standard_translation(t)
        names = sorted(variables(t))
        for size in (1, 2, 3, 4):
            for _ in range(11):
                m = _random_structure(rng, names, size)
                rel = eval_term(t, m)
                for x in range(size):
                    for y in range(size):
                        assert evaluate_formula(f, m, {"x0": x, "y0": y}) == rel.contains(x, y)
                checked += 1
    assert checked >= 500


def test_star_anchor_pairs_semantically_equal():
    # pairs whose translations must agree everywhere (or from level 4/5
    # up), used as proof anchors for the longer rules
    rel_pairs = [
        ("(a ; D) & I", "((a & D) ; D) & I"),            # the *2 shape
        ("(a & I) ; D", "((a & I) ; D) & D"),            # the *3 shape
        ("(a & D) ; top", "((a ; D) & I) ; top"),        # the *5 shape
    ]
    rng = np.random.default_rng(3)
    for lhs_text, rhs_text in rel_pairs:
        lhs, rhs = parse_term(lhs_text), parse_term(rhs_text)
        f, g = standard_translation(lhs), standard_translation(rhs)
        for size in (1, 2, 3, 4):
            for _ in range(8):
                m = _random_structure(rng, ["a"], size)
                for x in range(size):
                    for y in range(size):
                        env = {"x0": x, "y0": y}
                        assert evaluate_formula(f, m, env) == evaluate_formula(g, m, env)


def test_smt2_export_shape_and_grammar():
    lhs = apply_word(parse_word("cD cD"), Var("a"))
    rhs = apply_word(parse_word("cD cD cD"), Var("a"))
    script = export_equation_smt2(lhs, rhs, 5)
    check_smt2(script)
    assert "(declare-fun a (V V) Bool)" in script
    assert "(distinct p1 p2 p3 p4 p5)" in script
    assert script.endswith("(check-sat)\n")
    assert script == export_equation_smt2(lhs, rhs, 5)  # byte-stable

    trivial = export_equation_smt2(Var("a"), Var("a"), 1)
    check_smt2(trivial)
    assert "distinct" not in trivial


def test_smt2_export_all_builtin_rules():
    for rule in figure1_rules().rules:
        lhs = apply_word(rule.small, Var("a"))
        rhs = apply_word(rule.large, Var("a"))
        check_smt2(export_equation_smt2(lhs, rhs, 5))


def test_tptp_export_shape_and_grammar():
    lhs = apply_word(parse_word("cD cD"), Var("a"))
    rhs = apply_word(parse_word("cD cD cD"), Var("a"))
    text = export_equation_tptp(lhs, rhs, 5)
    check_tptp(text)
    assert text.startswith("fof(at_least_5, axiom,")
    assert "fof(equation, conjecture," in text
    assert text == export_equation_tptp(lhs, rhs, 5)


def test_tptp_export_all_builtin_rules():
    for rule in figure1_rules().rules:
        lhs = apply_word(rule.small, Var("a"))
        rhs = apply_word(rule.large, Var("a"))
        check_tptp(export_equation_tptp(lhs, rhs, 5))


def test_checkers_reject_garbage():
    with pytest.raises(ValueError):
        check_smt2("(assert (foo)")
    with pytest.raises(ValueError):
        check_smt2("(frobnicate x)\n(check-sat)")
    with pytest.raises(ValueError):
        check_tptp("fof(x, axiom, ?].")
    with pytest.raises(ValueError):
        check_tptp("cnf(x, axiom, p).")


def test_export_min_size_validation():
    with pytest.raises(FoError):
        export_equation_smt2(Var("a"), Var("a"), 0)
    with pytest.raises(FoError):
        export_equation_tptp(Var("a"), Var("a"), 0)


def _bound_names(f):
    if isinstance(f, (FoExists, FoForall)):
        return [f.var] + _bound_names(f.body)
    if isinstance(f, (FoAnd, FoOr, FoIff)):
        return _bound_names(f.left) + _bound_names(f.right)
    if isinstance(f, FoNot):
        return _bound_names(f.arg)
    return []


def test_translations_share_one_pool():
    f, g = standard_translations((parse_term("a ; b"), parse_term("a $ b")))
    assert (f, g) == (FoExists("y1", FoAnd(FoAtom("a", "x0", "y1"), FoAtom("b", "y1", "y0"))),
                      FoForall("y2", FoOr(FoAtom("a", "x0", "y2"), FoAtom("b", "y2", "y0"))))
    # one side alone is translated as before
    assert standard_translations((parse_term("a $ b"),))[0] == standard_translation(parse_term("a $ b"))


def test_nnf_pushes_negations_to_atoms_and_folds_constants():
    a = FoAtom("a", "x0", "y0")
    assert nnf(FoNot(FoExists("y1", FoAnd(a, FoEq("y1", "y0"))))) == \
        FoForall("y1", FoOr(FoNot(a), FoNot(FoEq("y1", "y0"))))
    assert nnf(FoNot(FoOr(a, FoTrue()))) == FoFalse()
    assert nnf(FoAnd(a, FoNot(FoFalse()))) == a
    assert nnf(FoForall("y1", FoOr(a, FoNot(FoFalse())))) == FoTrue()
    assert nnf(FoNot(FoIff(a, FoTrue()))) == FoNot(a)


def test_ea_profile_rejects_an_existential_below_a_universal():
    f, g = standard_translations((parse_term("a ; (b $ c)"), parse_term("(a ; b) $ c")))
    assert ea_profile(nnf(FoAnd(f, FoNot(g)))) is not None
    assert ea_profile(nnf(FoAnd(g, FoNot(f)))) is None
    assert universal_polarities(nnf(g)) is None


def _disjunction(disjuncts):
    out = FoFalse()
    for d in disjuncts:
        body = FoTrue()
        for part in (*d.literals, *d.foralls):
            body = FoAnd(body, part)
        for name in reversed(d.exists):
            body = FoExists(name, body)
        out = FoOr(out, body)
    return out


@given(two_variable_terms, two_variable_terms)
@settings(max_examples=150, deadline=None)
def test_ea_split_keeps_the_meaning_and_matches_its_profile(lhs, rhs):
    f, g = standard_translations((lhs, rhs))
    assert len(set(_bound_names(FoAnd(f, g)))) == len(_bound_names(FoAnd(f, g)))
    phi = FoAnd(f, FoNot(g))
    normal = nnf(phi)
    profile = ea_profile(normal)
    split = _disjunction(ea_disjuncts(normal)) if profile is not None else None
    rng = np.random.default_rng(len(str(lhs)) + len(str(rhs)))
    for size in (1, 2, 3):
        m = _random_structure(rng, ["a", "b"], size)
        for x in range(size):
            for y in range(size):
                env = {"x0": x, "y0": y}
                want = evaluate_formula(phi, m, env)
                assert evaluate_formula(normal, m, env) == want
                if split is not None:
                    assert evaluate_formula(split, m, env) == want
    if profile is None:
        return
    disjuncts = ea_disjuncts(normal)
    assert profile.exists == dict(Counter(len(d.exists) for d in disjuncts))
    # the profile's polarities are those of the disjuncts' universal parts
    assert profile.universals == {u.var: universal_polarities(u)
                                  for d in disjuncts for u in d.foralls}
    signs = [[universal_polarities(u) for u in d.foralls] for d in disjuncts]
    positive = [frozenset().union(*(p for p, _ in s)) for s in signs]
    negative = [frozenset().union(*(n for _, n in s)) for s in signs]
    assert profile.positive == frozenset().union(*positive)
    assert profile.negative == frozenset().union(*negative)
    assert profile.mixed == frozenset().union(*(p & n for p, n in zip(positive, negative)))
