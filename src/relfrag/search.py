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

Two things keep the loop incremental within one search.  A candidate
v is drawn only when v[1:] survived, and letters preserve unions with
the first letter acting last, so v's singleton images are the letter
v[0] applied to those of v[1:]; each survivor keeps its images, and a
key costs one letter application on the one batch that spans every key
size.  Cofiniteness is re-decided only when the last infinite witness
dies: while the admitted large sides leave infinitely many words,
``is_cofinite`` returns a lasso, an infinite word
prefix·cycle·cycle·… containing none of them.  A new large side that
does not occur in it leaves that word irreducible, so the language
stays infinite and the lasso stays a witness; admitting rules only
shrinks the language, so the decision is never revisited.  Only a
large side that occurs in the lasso rebuilds the automaton.  The lasso
is made of the letters that sort last wherever the large sides allow
(``automata.leftover_paths``), and the words of each length are drawn
in shortlex order, so its factors are drawn last: with ``max_len`` 15
the README search rebuilds 5 times, not 14 as with a lasso of the first
letters.

``verify_rules`` re-certifies any rule set exactly at the exhaustive
size and at each sample size, evaluating each word once over all of
those sizes (``bitrel.rule_counterexamples``, which also decides
``decide.decide_word_equiv`` at size 5).
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import bitrel
from .rewriting import RewriteSystem, Rule
from .semantics import MAX_SIZE, OracleConfig
from .terms import record
from .words import LETTERS, Word


def _key_base(cfg: OracleConfig):
    """The one-pair relations of every key size, from the exhaustive
    size to 5, in one batch, and its masks."""
    return bitrel.one_pair_relations(tuple(range(cfg.exhaustive_size,
                                                 max(cfg.exhaustive_size, 5) + 1)))


def word_fingerprint(w: Word, cfg: OracleConfig) -> tuple[int, ...]:
    """Exact key of the word's map on universes of at least the
    exhaustive size m: its singleton images at every size from m to
    max(m, 5), in one batch.  Two words share a key iff they agree on
    every relation of every size >= m.  ``run_search`` builds the same
    key from the images of w[1:] with the one letter w[0]."""
    base, masks = _key_base(cfg)
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


def run_search(cfg: OracleConfig, max_len: int, budget: int,
               seed_rules: Optional[RewriteSystem] = None) -> SearchReport:
    """Deterministic completion loop up to the given candidate-pair
    budget and large-side length bound.

    A word is fresh when all its proper factors survived earlier rounds
    and it is not itself an admitted large side; fresh words are drawn
    in shortlex order.  A fresh word whose exact key is already taken
    is admitted as a rule with the survivor of that key as its small
    side; otherwise it survives.
    """
    from .automata import is_cofinite

    rules: list[Rule] = list(seed_rules.rules) if seed_rules else []
    larges = {r.large for r in rules}

    # recomputed whenever an admitted large side occurs in its lasso,
    # so it always covers ``rules`` (see the module docstring)
    rep = is_cofinite([r.large for r in rules])

    def report(reason: str) -> SearchReport:
        return SearchReport(RewriteSystem(tuple(rules)),
                            rep.cofinite, examined, oracle_calls, reason,
                            rep.max_complement_length,
                            survivors=len(images))

    base, masks = _key_base(cfg)
    # survivor -> its singleton images, which are also its key
    images: dict[Word, tuple[int, ...]] = {}
    by_fp: dict[tuple[int, ...], Word] = {}  # key -> the one survivor with that key
    by_len: dict[int, list[Word]] = {}
    examined = 0
    oracle_calls = 0

    def keep(v: Word, imgs: tuple[int, ...]) -> None:
        images[v] = imgs
        by_fp[imgs] = v
        by_len.setdefault(len(v), []).append(v)

    if rep.cofinite:
        return report("cofinite")

    # the empty word always survives (nothing is below it)
    keep((), base)

    for length in range(1, max_len + 1):
        parents = by_len.get(length - 1, [])
        if not parents:
            break
        for p in parents:
            for letter in LETTERS:
                v = p + (letter,)
                below = images.get(v[1:])
                if below is None or v in larges:
                    continue
                if examined >= budget:
                    return report("budget")
                examined += len(images)
                imgs = tuple(bitrel.apply_letter(below, v[0], masks))
                u = by_fp.get(imgs)
                if u is None:
                    keep(v, imgs)
                    continue
                oracle_calls += 1
                rules.append(Rule(u, v, len(rules) + 1))
                larges.add(v)
                if rep.lasso.contains(v):
                    rep = is_cofinite([r.large for r in rules])
                    if rep.cofinite:
                        return report("cofinite")
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
