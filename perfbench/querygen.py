"""Seeded stream of equivalence queries with known answers.

Equivalent pairs apply one entry of a fixed catalogue of identities
(valid on every universe) to random instances inside a random context;
word pairs expand a Figure 1 rule's small side to its large side inside
random outer words (valid on universes of size >= 5).  Inequivalent
pairs are mutations that the reference evaluator separates while the
query is generated; a mutation it cannot separate is dropped and
another one is drawn.  The same seed gives the same queries.

Queries come in blocks of 20 with an exact mix by route and known
answer (``BLOCK_MIX``), shuffled within the block, so the share of each
kind is the same in every run whatever its length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

X, Y, Z = ("meta", "X"), ("meta", "Y"), ("meta", "Z")
I, D, TOP, BOT = ("I",), ("D",), ("top",), ("bot",)


def conv(t):
    return ("proj", t, 2, 1)


# name, lhs, rhs: valid on every universe
CATALOGUE = (
    ("assoc_comp", (";", (";", X, Y), Z), (";", X, (";", Y, Z))),
    ("assoc_dagger", ("$", ("$", X, Y), Z), ("$", X, ("$", Y, Z))),
    ("conv_comp", conv((";", X, Y)), (";", conv(Y), conv(X))),
    ("conv_dagger", conv(("$", X, Y)), ("$", conv(Y), conv(X))),
    ("conv_union", conv(("|", X, Y)), ("|", conv(X), conv(Y))),
    ("conv_inter", conv(("&", X, Y)), ("&", conv(X), conv(Y))),
    ("double_conv", conv(conv(X)), X),
    ("double_compl", ("~", ("~", X)), X),
    ("de_morgan_union", ("~", ("|", X, Y)), ("&", ("~", X), ("~", Y))),
    ("de_morgan_inter", ("~", ("&", X, Y)), ("|", ("~", X), ("~", Y))),
    ("dagger_dual", ("$", X, Y), ("~", (";", ("~", X), ("~", Y)))),
    ("proj_11", ("proj", X, 1, 1), (";", ("&", X, I), TOP)),
    ("proj_22", ("proj", X, 2, 2), (";", TOP, ("&", X, I))),
    ("distrib_inter", ("&", X, ("|", Y, Z)), ("|", ("&", X, Y), ("&", X, Z))),
    ("distrib_comp_right", (";", X, ("|", Y, Z)), ("|", (";", X, Y), (";", X, Z))),
    ("distrib_comp_left", (";", ("|", X, Y), Z), ("|", (";", X, Z), (";", Y, Z))),
    ("comm_union", ("|", X, Y), ("|", Y, X)),
    ("comm_inter", ("&", X, Y), ("&", Y, X)),
    ("unit_comp", (";", X, I), X),
    ("unit_comp_left", (";", I, X), X),
    ("top_inter", ("&", X, TOP), X),
    ("bot_union", ("|", X, BOT), X),
    ("conv_diag", conv(("&", X, I)), ("&", X, I)),
)

# the paper's instance suite (criterion 5), with variables renamed per query
A, B, C = ("var", "a"), ("var", "b"), ("var", "c")
PAPER_IDENTITIES = (
    ("paper_assoc", (";", X, (";", Y, Z)), (";", (";", X, Y), Z)),
    ("paper_distrib", ("&", X, ("|", Y, Z)), ("|", ("&", X, Y), ("&", X, Z))),
)
PAPER_NON_IDENTITIES = (
    ("paper_conv_swap", (";", A, conv(A)), (";", conv(A), A)),
    ("paper_comp_dagger", (";", A, ("$", B, C)), ("$", (";", A, B), C)),
)

# (kind, route, known, count per block); the mix is exact per block
BLOCK_MIX = (
    ("const_eq", "constant", "equivalent", 2),
    ("const_neq", "constant", "inequivalent", 1),
    ("word_eq", "word", "equivalent", 2),
    ("word_neq", "word", "inequivalent", 2),
    ("pipe_eq_large", "pipeline", "equivalent", 4),
    ("pipe_neq_large", "pipeline", "inequivalent", 1),
    ("pipe_eq", "pipeline", "equivalent", 3),
    ("pipe_neq", "pipeline", "inequivalent", 1),
    ("bound_eq", "bounded", "equivalent", 3),
    ("bound_neq", "bounded", "inequivalent", 1),
)
CONSTANT_MODES = ("rel", "rel>=2", "rel>=3")
VAR_NAMES = ("a", "b", "c", "r", "s", "x", "y", "z")
FIGURE1 = ref.parse_rules((Path(__file__).parent / "data" / "figure1_rules.txt").read_text())


@dataclass(frozen=True)
class Query:
    index: int
    route: str       # intended route: constant | word | pipeline | bounded
    lhs: str         # term text, or word text on the word route
    rhs: str
    mode: str        # rel | rel>=M; words are read on universes of size >= 5
    known: str       # equivalent | inequivalent (in the mode's size class)
    why: str         # catalogue entry or mutation, and where it separated
    trees: tuple     # both sides for the reference: term tuples or words


def _meta_count(t, name) -> int:
    if t == ("meta", name):
        return 1
    return sum(_meta_count(c, name) for c in t[1:] if isinstance(c, tuple))


def _metas(t) -> set:
    if t[0] == "meta":
        return {t[1]}
    return set().union(*(_metas(c) for c in t[1:] if isinstance(c, tuple)))


def _subst(t, sigma):
    if t[0] == "meta":
        return sigma[t[1]]
    return tuple(_subst(c, sigma) if isinstance(c, tuple) else c for c in t)


def _has(t, ops) -> bool:
    return t[0] in ops or any(_has(c, ops) for c in t[1:] if isinstance(c, tuple))


def _compl_above_comp(t) -> bool:
    """Complement above a composition or dagger leaves alternation
    level one, which would move a pipeline query to the bounded route."""
    if t[0] == "~" and _has(t[1], (";", "$")):
        return True
    return any(_compl_above_comp(c) for c in t[1:] if isinstance(c, tuple))


def _nodes(t, path=()):
    yield path, t
    for i, c in enumerate(t[1:], start=1):
        if isinstance(c, tuple):
            yield from _nodes(c, path + (i,))


def _replace(t, path, new):
    if not path:
        return new
    i = path[0]
    return t[:i] + (_replace(t[i], path[1:], new),) + t[i + 1:]


def _carriers(lhs, rhs) -> list:
    """Metavariables that occur once on each side: one of them can carry
    the variable and keep both sides one-occurrence."""
    return [m for m in sorted(_metas(lhs)) if _meta_count(lhs, m) == 1 and _meta_count(rhs, m) == 1]


# Entries per route, each cycled in a fixed order from a seeded offset so
# that every run carries the same mix of identities.  The pipeline takes
# the dagger-free entries with a carrier.  The bounded route takes the
# identities built on composition and dagger, plus the paper's two: the
# lighter entries cost 20-100 ms against 150-300 ms, and p90 would land
# among them.
PIPELINE_ENTRIES = tuple(e for e in CATALOGUE
                         if not _has(e[1], ("$",)) and not _has(e[2], ("$",)) and _carriers(e[1], e[2]))
BOUNDED_ENTRIES = tuple(e for e in CATALOGUE if e[0] in (
    "assoc_comp", "assoc_dagger", "conv_comp", "conv_dagger", "dagger_dual",
    "distrib_comp_left", "distrib_comp_right")) + PAPER_IDENTITIES


class QueryGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0
        self.pending: list[tuple[str, str, str]] = []
        self.cycles = {kind: self.rng.randrange(1 << 16) for kind, *_ in BLOCK_MIX}

    def _cycled(self, kind: str, entries):
        self.cycles[kind] += 1
        return entries[self.cycles[kind] % len(entries)]

    def __iter__(self):
        return self

    def __next__(self) -> Query:
        if not self.pending:
            self.pending = [(kind, route, known) for kind, route, known, k in BLOCK_MIX
                            for _ in range(k)]
            self.rng.shuffle(self.pending)
        kind, route, known = self.pending.pop()
        t1, t2, mode, why = getattr(self, "_" + kind)()
        show = ref.show_word if route == "word" else ref.show
        q = Query(self.count, route, show(t1), show(t2), mode, known, why, (t1, t2))
        self.count += 1
        return q

    # -- building blocks ---------------------------------------------------

    def _const_leaf(self):
        return self.rng.choice((I, D, TOP, BOT))

    def _const_term(self, depth: int):
        r = self.rng
        if depth == 0 or r.random() < 0.35:
            return self._const_leaf()
        op = r.choice(("|", "&", ";", "$", "~", "^", "[1,1]", "[2,2]"))
        if op == "~":
            return ("~", self._const_term(depth - 1))
        if op == "^":
            return conv(self._const_term(depth - 1))
        if op.startswith("["):
            return ("proj", self._const_term(depth - 1), int(op[1]), int(op[3]))
        return (op, self._const_term(depth - 1), self._const_term(depth - 1))

    def _letter(self, union_ok: bool):
        """One random context with a constant filler, as a function
        that wraps its argument."""
        r = self.rng
        pick = r.randrange(6 if union_ok else 5)
        if pick == 0:
            k = r.choice((I, D, TOP, I, D))
            return (lambda t: ("&", t, k)) if r.random() < 0.5 else (lambda t: ("&", k, t))
        if pick == 1:
            k = r.choice((I, D, D))
            return lambda t: (";", t, k)
        if pick == 2:
            k = r.choice((I, D, D))
            return lambda t: (";", k, t)
        if pick == 3:
            return conv
        if pick == 4:
            k = r.choice((I, D))
            return lambda t: ("&", t, k)
        k = r.choice((I, D, BOT))
        return lambda t: ("|", t, k)

    def _literal_term(self, var: str, comp_free: bool):
        """A one-occurrence term over var: a literal under two letters."""
        t = ("var", var)
        if self.rng.random() < 0.25:
            t = ("~", t)
        for _ in range(2):
            nxt = self._letter(union_ok=False)(t)
            t = conv(t) if comp_free and nxt[0] == ";" else nxt
        return t

    def _mutate(self, t, var_names):
        """One random local change: a leaf constant swapped, a
        composition turned into a dagger or back, a converse or
        complement dropped or added, or a variable renamed."""
        r = self.rng
        nodes = list(_nodes(t))
        path, node = r.choice(nodes)
        op = node[0]
        if op in ("I", "D", "top", "bot"):
            new = r.choice([c for c in (I, D, TOP, BOT) if c != node])
        elif op == ";":
            new = ("$",) + node[1:]
        elif op == "$":
            new = (";",) + node[1:]
        elif op in ("~", "proj"):
            new = node[1]
        elif op == "var":
            others = [v for v in var_names if v != node[1]]
            new = ("var", r.choice(others)) if others and r.random() < 0.5 else ("~", node)
        else:
            new = conv(node)
        return _replace(t, path, new)

    def _separated(self, t1, t2, sizes):
        return ref.separating_env(self.rng, t1, t2, sizes, tries=24)

    # -- constant route ------------------------------------------------------

    def _const_pair(self):
        name, lhs, rhs = self.rng.choice(CATALOGUE)
        sigma = {m: self._const_term(1) for m in "XYZ"}
        t1, t2 = _subst(lhs, sigma), _subst(rhs, sigma)
        if self.rng.random() < 0.5:
            wrap = self._letter(union_ok=True)
            t1, t2 = wrap(t1), wrap(t2)
        return name, t1, t2

    def _const_eq(self):
        name, t1, t2 = self._const_pair()
        return t1, t2, self.rng.choice(CONSTANT_MODES), f"identity {name}"

    def _const_neq(self):
        mode = self.rng.choice(CONSTANT_MODES)
        lo = int(mode[5:]) if mode != "rel" else 1
        for _ in range(20):
            name, t1, t2 = self._const_pair()
            t2 = self._mutate(t2, ())
            hit = self._separated(t1, t2, range(lo, 5))
            if hit:
                return t1, t2, mode, f"mutation of identity {name}, separated at size {hit[0]}"
        return I, D, mode, "fallback pair, separated at every size"

    # -- word route ----------------------------------------------------------

    def _random_word(self, max_len: int):
        return tuple(self.rng.choice(ref.LETTERS) for _ in range(self.rng.randrange(max_len + 1)))

    def _word_pair(self):
        i = self.rng.randrange(len(FIGURE1))
        small, large = FIGURE1[i]
        u, v = self._random_word(3), self._random_word(3)
        w1, w2 = u + small + v, u + large + v
        if self.rng.random() < 0.5:
            w1, w2 = w2, w1
        return i + 1, w1, w2

    def _word_eq(self):
        i, w1, w2 = self._word_pair()
        return w1, w2, "rel>=5", f"Figure 1 rule {i} in context"

    def _word_neq(self):
        r = self.rng
        while True:
            i, w1, w2 = self._word_pair()
            pos = r.randrange(len(w2) + 1)
            how = r.randrange(3) if w2 else 0
            if how == 0:
                w2 = w2[:pos] + (r.choice(ref.LETTERS),) + w2[pos:]
            elif how == 1:
                pos = min(pos, len(w2) - 1)
                w2 = w2[:pos] + w2[pos + 1:]
            else:
                pos = min(pos, len(w2) - 1)
                w2 = w2[:pos] + (r.choice(ref.LETTERS),) + w2[pos + 1:]
            if ref.words_separator(w1, w2, 5):
                return w1, w2, "rel>=5", f"mutation of Figure 1 rule {i} in context, separated at size 5"

    # -- pipeline route ------------------------------------------------------

    def _pipe_pair(self, kind: str):
        """A cycled identity with a two-letter literal as its carrier,
        constant leaves elsewhere, inside one random context letter."""
        r = self.rng
        var = r.choice(VAR_NAMES)
        name, lhs, rhs = self._cycled(kind, PIPELINE_ENTRIES)
        comp_free = _has(lhs, ("~",)) or _has(rhs, ("~",))
        sigma = {m: self._const_leaf() for m in "XYZ"}
        sigma[r.choice(_carriers(lhs, rhs))] = self._literal_term(var, comp_free)
        wrap = self._letter(union_ok=True)
        return name, var, wrap(_subst(lhs, sigma)), wrap(_subst(rhs, sigma))

    def _pipe_eq(self):
        name, _, t1, t2 = self._pipe_pair("pipe_eq")
        return t1, t2, "rel", f"identity {name} on a one-occurrence term"

    def _pipe_eq_large(self):
        """On universes of size >= 5 the pipeline answers without
        exhausting sizes 1..4, so these measure the normal forms, words
        and rewriting alone."""
        name, _, t1, t2 = self._pipe_pair("pipe_eq_large")
        return t1, t2, "rel>=5", f"identity {name} on a one-occurrence term"

    def _pipe_neq(self, kind="pipe_neq", mode="rel", sizes=(1, 2, 3)):
        for _ in range(20):
            name, var, t1, t2 = self._pipe_pair(kind)
            t2 = self._mutate(t2, (var,))
            if _compl_above_comp(t2) or _has(t2, ("$",)):
                continue
            hit = self._separated(t1, t2, sizes)
            if hit:
                return t1, t2, mode, f"mutation of identity {name}, separated at size {hit[0]}"
        return A, conv(A), mode, "fallback pair, separated at every size >= 2"

    def _pipe_neq_large(self):
        return self._pipe_neq("pipe_neq_large", "rel>=5", (5,))

    # -- bounded route -------------------------------------------------------

    def _bound_pair(self, kind: str):
        """A cycled multi-variable identity over three plain variables."""
        name, lhs, rhs = self._cycled(kind, BOUNDED_ENTRIES)
        names = self.rng.sample(VAR_NAMES, 3)
        sigma = {m: ("var", v) for m, v in zip("XYZ", names)}
        return name, _subst(lhs, sigma), _subst(rhs, sigma), names

    def _bound_eq(self):
        name, t1, t2, _ = self._bound_pair("bound_eq")
        return t1, t2, "rel", f"identity {name} over several variables"

    def _bound_neq(self):
        r = self.rng
        if r.random() < 0.25:
            name, t1, t2 = r.choice(PAPER_NON_IDENTITIES)
            ren = dict(zip("abc", r.sample(VAR_NAMES, 3)))
            return _rename(t1, ren), _rename(t2, ren), "rel", f"{name} (paper non-identity)"
        for _ in range(20):
            name, t1, t2, names = self._bound_pair("bound_neq")
            t2 = self._mutate(t2, names)
            hit = self._separated(t1, t2, (1, 2, 3))
            if hit:
                return t1, t2, "rel", f"mutation of identity {name}, separated at size {hit[0]}"
        return (";", A, B), (";", B, A), "rel", "fallback pair, separated at size 2"


def _rename(t, ren):
    if t[0] == "var":
        return ("var", ren.get(t[1], t[1]))
    return tuple(_rename(c, ren) if isinstance(c, tuple) else c for c in t)
