"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from relfrag.terms import (ALL_PROJECTIONS, BOT, DI, ID, TOP, Comp, Compl,
                           Dagger, Inter, Proj, Union, Var)
from relfrag.words import LETTERS

variable_names = st.sampled_from(["a", "b", "c", "x1", "y_2"])

leaves = st.one_of(
    variable_names.map(Var),
    st.sampled_from([BOT, TOP, ID, DI]),
)


def _extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Union(*p)),
        binary.map(lambda p: Inter(*p)),
        binary.map(lambda p: Comp(*p)),
        binary.map(lambda p: Dagger(*p)),
        children.map(Compl),
        st.tuples(children, st.sampled_from(ALL_PROJECTIONS)).map(lambda p: Proj(*p)),
    )


terms = st.recursive(leaves, _extend, max_leaves=12)

# terms over {|, &, ;, constants, variables} with converse/complement,
# the shape the low-alternation pipeline accepts
_pipeline_leaves = st.one_of(
    variable_names.map(Var),
    st.sampled_from([BOT, TOP, ID, DI]),
)


def _extend_pipeline(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Union(*p)),
        binary.map(lambda p: Inter(*p)),
        binary.map(lambda p: Comp(*p)),
        st.tuples(children, st.sampled_from(ALL_PROJECTIONS)).map(lambda p: Proj(*p)),
    )


sigma1_terms = st.recursive(_pipeline_leaves, _extend_pipeline, max_leaves=8)

# the shape of sigma1_terms with at most one variable occurrence, plus
# complements (level one when they sit below every composition, which a
# caller filters for); two variable names, so two sides often share one
_constant_terms = st.recursive(st.sampled_from([BOT, TOP, ID, DI]), _extend_pipeline,
                               max_leaves=3)


def _extend_one_hole(children):
    with_const = st.tuples(children, _constant_terms)
    return st.one_of(
        with_const.map(lambda p: Union(*p)),
        with_const.map(lambda p: Inter(*p)),
        with_const.map(lambda p: Comp(*p)),
        with_const.map(lambda p: Comp(p[1], p[0])),
        st.tuples(children, st.sampled_from(ALL_PROJECTIONS)).map(lambda p: Proj(*p)),
        children.map(Compl),
    )


one_occurrence_terms = st.recursive(
    st.one_of(st.sampled_from([Var("a"), Var("b")]), st.sampled_from([BOT, TOP, ID, DI])),
    _extend_one_hole, max_leaves=6)

words = st.lists(st.sampled_from(LETTERS), max_size=12).map(tuple)

nonempty_words = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=10).map(tuple)
