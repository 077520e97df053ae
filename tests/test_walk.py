"""The passes on ``terms.fold`` against independent references: the
recursive complement normal form and levels (``naive``), the naive
set evaluator, and the parser."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from relfrag.bitrel import eval_term_batch, pack_structures
from relfrag.semantics import Rel, Structure, eval_term
from relfrag.terms import (ID, Compl, Dagger, FragmentInfo, Var, complement_nf,
                           dotdagger_level, parse_term, print_term, subterms, variables)

from brute import entries
from naive import complement_nf_ref, levels_ref, naive_eval
from strategies import terms


@given(terms)
@example(Compl(Dagger(Var("b"), ID)))
@settings(max_examples=500)
def test_levels_are_those_of_the_complement_normal_form(t):
    occurrences = sum(isinstance(s, Var) for s in subterms(t))
    assert dotdagger_level(t) == FragmentInfo(occurrences, *levels_ref(complement_nf_ref(t)))


def test_complement_swaps_the_levels():
    # (b $ I)~ is b~ ; D once the complement is pushed through: its
    # levels are the dagger's, swapped
    assert dotdagger_level(parse_term("b $ I")) == FragmentInfo(1, 2, 1)
    assert dotdagger_level(parse_term("(b $ I)~")) == dotdagger_level(parse_term("b~ ; D"))
    assert dotdagger_level(parse_term("b~ ; D")) == FragmentInfo(1, 1, 2)


@given(terms, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_walk_passes_match_the_references(t, seed):
    assert complement_nf(t) == complement_nf_ref(t)
    assert parse_term(print_term(t)) == t
    rng = random.Random(seed)
    names = sorted(variables(t)) or ["a"]
    for n in (1, 2, 3):
        rels = [{name: rng.getrandbits(n * n) for name in names} for _ in range(5)]
        sets = [{name: set(Rel(n, bits).pairs()) for name, bits in entry.items()}
                for entry in rels]
        expected = [naive_eval(t, n, env) for env in sets]
        scalar = [set(eval_term(t, Structure(n, {k: Rel(n, b) for k, b in entry.items()})).pairs())
                  for entry in rels]
        assert scalar == expected
        batch, masks = pack_structures({n: [[entry[name] for name in names] for entry in rels]},
                                       names)
        out = entries(eval_term_batch(t, batch, masks), masks)
        assert [set(Rel(n, bits).pairs()) for bits in out] == expected
