"""Equation search over the core alphabet, with an exact word oracle.

Two context words are compared through their singleton images
(``bitrel.singleton_images``): letters preserve unions, so the images
of the n^2 one-pair relations fix a word's map at size n, and equal
images mean equal values on all 2^(n^2) relations.  The word monoid
read off these images stops changing from 5 points on (the images
agree at one size from 5 on iff they agree at all of them; see
``decide``), so the images at the sizes from the exhaustive size to 5
decide equality on every universe of at least the exhaustive size.
Those images, one batch over all these sizes at the stride of the
largest (``bitrel.one_pair_relations``), as the tuple of its pair
integers, are the search's exact key (``word_fingerprint``); no seeded
panel is evaluated anywhere in this module.

``run_search`` is the possibly non-terminating completion loop: it
draws candidate pairs (u, v), with v ascending in shortlex order over
the words that are irreducible under the rules admitted so far, and u
the surviving word below v with the same key.  Restricting u to
survivors loses nothing: key equality is transitive, and every
discarded word has the key of some survivor.  A key hit becomes a
rule; the loop stops as soon as the admitted large sides make the
irreducible language finite, or when the budget or length bound runs
out.  Each stopping cause is reported.

The key is read off a Cayley table of the word monoid
(``bitrel.word_monoid``): one table per set of key sizes, whose
elements are the distinct images and whose cells hold the element of a
letter applied after an element.  A candidate v is drawn only when
v[1:] survived, and letters preserve unions with the first letter
acting last, so v's images are the letter v[0] applied to those of
v[1:]: v's key is the table's cell at the element of v[1:] and the
letter v[0], and a cell is computed (one letter application on the one
batch that spans every key size) only the first time any search reads
it.  The table is bounded: the exhaustive size is in 1..``MAX_SIZE``,
so there are at most eight key size sets, and the largest table, that
of sizes 1..5, closes at 1,239 elements of four cells.  A one-shot
search pays only for the cells it reads; later searches in the same
process find them filled.

Candidates are drawn through suffix links, without building the words
that are not drawn.  Each survivor of length L-1 keeps the index of its
suffix (the word without its first letter) among the survivors of
length L-2, and each survivor of length L-2 keeps, per letter, the
index of its extension by that letter if that survived.  For survivor
p of length L-1 and a letter x, v = p + (x,) is drawn iff the suffix
of p has a surviving extension by x, and that extension is v[1:], v's
window.

Two things keep the loop incremental within one search: the keys come
from the table, and cofiniteness is decided on the window graph of the
current length L, which the loop walks anyway, not on a rebuilt
automaton.
Its nodes are the survivors of length L-1.  A word is irreducible iff
its prefix and suffix one letter shorter are and it is no large side
itself; every word whose prefix and suffix survived was drawn unless
it is a seed large side, and survived unless it was admitted, so by
induction over the lengths the survivors of length L-1 are exactly the
irreducible words of that length.
Its edges are the candidates of length L not admitted, each from its
prefix to its suffix.  When no large side is longer than L, every
occurrence of a large side in a word of length at least L lies in one
of its windows of length L, so the irreducible words of length at
least L-1 are exactly the walks of this graph: the irreducible
language is infinite iff the graph has a cycle, and otherwise its
longest word has length L-1 plus the longest path.  The edge list is
built once per length, in the order the loop draws the candidates;
each admission deletes one edge, the sinks are peeled as edges go,
and the loop stops as cofinite the moment every window is peeled.  A
seed rule (``seed_rules``) may have a large side longer than L, which
no window of length L can see; below the longest seed large side the
loop therefore re-decides cofiniteness with ``automata.is_cofinite``
after each admission, as it does once at the start for the seeds.

``verify_rules`` re-certifies any rule set exactly at the exhaustive
size and at each sample size, evaluating each word once over all of
those sizes (``bitrel.rule_counterexamples``).  Neither it nor
``word_fingerprint`` reads the table: each computes the images from
scratch with ``bitrel.apply_letter``.  A certificate of what the search
emits, or a reference search keyed by ``word_fingerprint`` (as in the
test suite), that read the table the search filled would check
nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import bitrel
from .rewriting import RewriteSystem, Rule
from .semantics import MAX_SIZE, OracleConfig
from .terms import record
from .words import LETTERS, Word


def _key_sizes(cfg: OracleConfig) -> tuple[int, ...]:
    """Every key size, from the exhaustive size to 5."""
    return tuple(range(cfg.exhaustive_size, max(cfg.exhaustive_size, 5) + 1))


def word_fingerprint(w: Word, cfg: OracleConfig) -> tuple[int, ...]:
    """Exact key of the word's map on universes of at least the
    exhaustive size m: its singleton images at every size from m to
    max(m, 5), in one batch.  Two words share a key iff they agree on
    every relation of every size >= m.  ``run_search`` reads the same
    images off the word monoid's table; this key computes them from
    scratch."""
    base, masks = bitrel.one_pair_relations(_key_sizes(cfg))
    return tuple(bitrel.apply_word_packed(base, w, masks))


def word_equiv_oracle(w1: Word, w2: Word, cfg: OracleConfig) -> bool:
    """True iff the words agree on every relation of every size from
    the exhaustive size on."""
    return word_fingerprint(w1, cfg) == word_fingerprint(w2, cfg)


@record
class SearchReport:
    rules: RewriteSystem
    cofinite: bool
    candidates_examined: int
    oracle_calls: int
    stop_reason: str  # "cofinite" | "budget" | "exhausted"
    max_complement_length: Optional[int] = None
    survivors: int = 0


class _Windows:
    """The window graph of one length (see the module docstring) with
    its sinks peeled: edge e runs from window ``src[e]`` to window
    ``dst[e]``."""

    def __init__(self, nodes: int, src: list[int], dst: list[int]):
        self.src, self.dst = src, dst
        self.alive = [True] * len(src)
        self.out = [0] * nodes  # per window, its live edges to windows not peeled
        self.into: list[list[int]] = [[] for _ in range(nodes)]
        for e, (s, t) in enumerate(zip(src, dst)):
            self.out[s] += 1
            self.into[t].append(e)
        self.peeled: list[int] = []  # in the order peeled
        self.gone = [False] * nodes
        self._peel([s for s, n in enumerate(self.out) if not n])

    def _peel(self, sinks: list[int]) -> None:
        out, src, alive = self.out, self.src, self.alive
        while sinks:
            t = sinks.pop()
            self.gone[t] = True
            self.peeled.append(t)
            for e in self.into[t]:
                if alive[e]:
                    out[src[e]] -= 1
                    if not out[src[e]]:
                        sinks.append(src[e])

    def delete(self, e: int) -> bool:
        """Delete edge e; whether every window is now peeled."""
        self.alive[e] = False
        s = self.src[e]
        if not self.gone[self.dst[e]]:
            self.out[s] -= 1
            if not self.out[s]:
                self._peel([s])
        return len(self.peeled) == len(self.out)

    def longest_path(self) -> int:
        """Edges on the longest path, once every window is peeled.  An
        edge's target is peeled before its source, so each window's
        longest path is final when the pass reaches it."""
        longest = [0] * len(self.out)
        for t in self.peeled:
            for e in self.into[t]:
                if self.alive[e] and longest[self.src[e]] <= longest[t]:
                    longest[self.src[e]] = longest[t] + 1
        return max(longest)


def run_search(cfg: OracleConfig, max_len: int, budget: int,
               seed_rules: Optional[RewriteSystem] = None) -> SearchReport:
    """Deterministic completion loop up to the given candidate-pair
    budget and large-side length bound.

    A word is fresh when all its proper factors survived earlier rounds
    and it is not itself a seed large side; fresh words are drawn in
    shortlex order.  A fresh word whose exact key is already taken is
    admitted as a rule with the survivor of that key as its small side;
    otherwise it survives.
    """
    from .automata import is_cofinite

    rules: list[Rule] = list(seed_rules.rules) if seed_rules else []
    seeds = {r.large for r in rules}
    # the window graph of length L sees the seeds of length <= L
    windows_from = max(map(len, seeds), default=0)

    def report(reason: str, longest: Optional[int] = None) -> SearchReport:
        return SearchReport(RewriteSystem(tuple(rules)),
                            reason == "cofinite", examined, oracle_calls, reason,
                            longest, survivors=len(by_fp))

    times = bitrel.word_monoid(_key_sizes(cfg)).times
    by_fp: dict[int, Word] = {}  # element -> the one survivor with that element
    examined = 0
    oracle_calls = 0

    rep = is_cofinite([r.large for r in rules])
    if rep.cofinite:
        return report("cofinite", rep.max_complement_length)

    # The survivors of the last length, by index: the word, its element
    # and its suffix link, the index of the word without its first
    # letter one length below.  ``child`` holds, per survivor one length
    # below, per letter, the index of its extension by that letter if
    # the extension survived.  The empty word always survives (nothing
    # is below it); its suffix link is to a node below it whose every
    # extension is the empty word.
    parents, elements, links = [()], [0], [0]
    child: list[list[Optional[int]]] = [[0] * len(LETTERS)]
    by_fp[0] = ()

    for length in range(1, max_len + 1):
        if not parents:
            break
        # the candidates in drawing order, each with its prefix and
        # suffix window: the edges of the window graph
        drawn = [(i, letter, j) for i, s in enumerate(links)
                 for letter, j in zip(LETTERS, child[s]) if j is not None]
        if seeds:
            drawn = [c for c in drawn if parents[c[0]] + (c[1],) not in seeds]
        graph = (_Windows(len(parents), [i for i, _, _ in drawn], [j for _, _, j in drawn])
                 if length >= windows_from else None)
        grown: list[Word] = []
        grown_elements: list[int] = []
        grown_links: list[int] = []
        extended: list[list[Optional[int]]] = [[None] * len(LETTERS) for _ in parents]
        for e, (i, letter, j) in enumerate(drawn):
            if examined >= budget:
                return report("budget")
            examined += len(by_fp)
            v = parents[i] + (letter,)
            key = times(elements[j], v[0])
            u = by_fp.get(key)
            if u is None:
                by_fp[key] = v
                extended[i][letter] = len(grown)
                grown.append(v)
                grown_elements.append(key)
                grown_links.append(j)
                continue
            oracle_calls += 1
            rules.append(Rule(u, v, len(rules) + 1))
            if graph is not None:
                if graph.delete(e):
                    return report("cofinite", length - 1 + graph.longest_path())
            else:
                rep = is_cofinite([r.large for r in rules])
                if rep.cofinite:
                    return report("cofinite", rep.max_complement_length)
        parents, elements, links, child = grown, grown_elements, grown_links, extended
    return report("exhausted")


# ---------------------------------------------------------------------------
# Rule certification


@record
class RuleCheck:
    index: int
    small: Word
    large: Word
    exhaustive_size: int
    exhaustive_ok: bool
    exhaustive_counterexample: Optional[int]
    sampled_ok: bool
    sampled_failures: tuple[tuple[int, int], ...]  # (size, relation bits)


def verify_rules(rs: RewriteSystem, exhaustive_size: int = 5,
                 sample_sizes: Sequence[int] = (6, 7),
                 samples_per_size: int = 100_000, seed: int = 0,
                 threads: Optional[int] = None) -> list[RuleCheck]:
    """Certify every rule exactly, from the singleton images, on all
    2^(n^2) relations at the exhaustive size and at each sample size.
    A failure at a sample size is reported as (size, 1 << j) for the
    lowest differing image j of that size.  ``samples_per_size``,
    ``seed`` and ``threads`` are accepted for compatibility and
    ignored: no panel is drawn.  Every size must be in 1..``MAX_SIZE``,
    the sizes the decision routes take."""
    for n in (exhaustive_size, *sample_sizes):
        if not 1 <= n <= MAX_SIZE:
            raise ValueError(f"rule certification sizes must be in 1..{MAX_SIZE}, got {n}")
    found = bitrel.rule_counterexamples([(r.small, r.large) for r in rs.rules],
                                        (exhaustive_size, *sample_sizes))
    out = []
    for i, rule in enumerate(rs.rules):
        bad = found[exhaustive_size][i]
        failures = tuple((n, found[n][i]) for n in sample_sizes if found[n][i] is not None)
        out.append(RuleCheck(rule.index, rule.small, rule.large,
                             exhaustive_size, bad is None, bad,
                             not failures, failures))
    return out
