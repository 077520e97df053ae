"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from relfrag.terms import (ALL_PROJECTIONS, BOT, DI, ID, PROJ_SWAP, TOP, Comp, Compl,
                           Dagger, Inter, Proj, Union, Var, children)
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

# every operator over two variables, small enough that a scan of the
# sizes up to 3 stays cheap
_two_variable_leaves = st.one_of(st.sampled_from([Var("a"), Var("b")]),
                                 st.sampled_from([BOT, TOP, ID, DI]))
two_variable_terms = st.recursive(_two_variable_leaves, _extend, max_leaves=7)


def _law(t):
    """Terms equal to t on every structure, one law away."""
    out = [Compl(Compl(t)), Proj(Proj(t, PROJ_SWAP), PROJ_SWAP)]
    if isinstance(t, (Union, Inter)):
        out.append(type(t)(t.right, t.left))
    if isinstance(t, (Comp, Dagger)):
        op = type(t)
        if isinstance(t.left, op):
            out.append(op(t.left.left, op(t.left.right, t.right)))
        if isinstance(t.right, op):
            out.append(op(op(t.left, t.right.left), t.right.right))
        if isinstance(t.right, Union) and op is Comp:
            out.append(Union(Comp(t.left, t.right.left), Comp(t.left, t.right.right)))
    if isinstance(t, Dagger):
        out.append(Compl(Comp(Compl(t.left), Compl(t.right))))
    if isinstance(t, Proj) and t.proj == PROJ_SWAP and isinstance(t.arg, (Comp, Dagger)):
        out.append(type(t.arg)(Proj(t.arg.right, PROJ_SWAP), Proj(t.arg.left, PROJ_SWAP)))
    return out


def _rebuild(t, path, new):
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = _rebuild(kids[path[0]], path[1:], new)
    if isinstance(t, (Compl, Proj)):
        return Compl(kids[0]) if isinstance(t, Compl) else Proj(kids[0], t.proj)
    return type(t)(*kids)


def _paths(t, path=()):
    yield path, t
    for i, c in enumerate(children(t)):
        yield from _paths(c, path + (i,))


@st.composite
def near_pairs(draw):
    """A two-variable term and the term after a few laws, each step
    at a random node.  With probability about 1/2 one more step breaks
    the equation at a random node, the root half the time: it swaps
    the node for a leaf, or meets it with top;D or D;D, which equal top
    only from 2 or 3 points on."""
    t = u = draw(two_variable_terms)
    for _ in range(draw(st.integers(1, 4))):
        path, node = draw(st.sampled_from(list(_paths(u))))
        u = _rebuild(u, path, draw(st.sampled_from(_law(node))))
    if draw(st.booleans()):
        nodes = list(_paths(u))
        path, node = draw(st.sampled_from(nodes[:1] * len(nodes) + nodes))
        u = _rebuild(u, path, draw(st.one_of(
            _two_variable_leaves,
            st.sampled_from([Inter(node, Comp(TOP, DI)), Inter(node, Comp(DI, DI))]))))
    return t, u

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


def _extend_dagger_constant(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda p: Union(*p)),
        binary.map(lambda p: Inter(*p)),
        binary.map(lambda p: Dagger(*p)),
        st.tuples(children, st.sampled_from(ALL_PROJECTIONS)).map(lambda p: Proj(*p)),
    )


_dagger_constant_terms = st.recursive(st.sampled_from([BOT, TOP, ID, DI]),
                                      _extend_dagger_constant, max_leaves=3)


def _extend_dagger_hole(children):
    with_const = st.tuples(children, _dagger_constant_terms)
    return st.one_of(
        with_const.map(lambda p: Union(*p)),
        with_const.map(lambda p: Inter(*p)),
        with_const.map(lambda p: Dagger(*p)),
        with_const.map(lambda p: Dagger(p[1], p[0])),
        st.tuples(children, st.sampled_from(ALL_PROJECTIONS)).map(lambda p: Proj(*p)),
    )


_dagger_hole_terms = st.recursive(
    st.one_of(st.sampled_from([Var("a"), Var("b"), Compl(Var("a")), Compl(Var("b"))]),
              st.sampled_from([BOT, TOP, ID, DI])),
    _extend_dagger_hole, max_leaves=5)

# one_occurrence_terms turned inside out: the complement of a dagger
# over one hole and constants built without composition.  Pushed down,
# the complement turns every dagger into a composition, so each of
# these sides has existential level one.
complemented_daggers = st.tuples(_dagger_hole_terms, _dagger_constant_terms, st.booleans()).map(
    lambda p: Compl(Dagger(p[0], p[1]) if p[2] else Dagger(p[1], p[0])))

words = st.lists(st.sampled_from(LETTERS), max_size=12).map(tuple)

nonempty_words = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=10).map(tuple)
