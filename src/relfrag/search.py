"""Equation search over the core alphabet, with a bounded-model
equivalence oracle.

The oracle for two context words compares their values on every
relation at one exhaustive size (default five) and on seeded random
panels at the sample sizes.  Both clauses go through the words'
singleton images (``bitrel.singleton_images``): letters preserve
unions, so the images of the n^2 one-pair relations fix a word's map
at size n, and equal images mean equal values on all 2^(n^2)
relations, hence on every panel of that size too (the panel is only
evaluated when the images differ).  The images at the exhaustive size
are also the exact bucket key of the search (``word_fingerprint``).

``run_search`` is the possibly non-terminating completion loop: it
draws candidate pairs (u, v), with v ascending in shortlex order over
the words that are irreducible under the rules admitted so far, and u
ascending over the previously surviving words below v.  Restricting u
to survivors loses nothing: the oracle relation is equality of values
on a fixed model panel, hence transitive, and every discarded word is
oracle-equal to some survivor.  A pair that passes the oracle becomes a
rule; the loop stops as soon as the admitted large sides make the
irreducible language finite, or when the budget or length bound runs
out.  Each stopping cause is reported.

Verdicts are bounded-certified only: agreement on the checked models.
``verify_rules`` re-certifies any rule set exactly at the exhaustive
size and on large sampled panels at the remaining sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import bitrel
from .rewriting import RewriteSystem, Rule, make_system
from .words import LETTERS, Word


@dataclass(frozen=True)
class OracleConfig:
    exhaustive_size: int = 5
    sample_sizes: tuple[int, ...] = (3, 4, 6)
    samples_per_size: int = 2048
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.exhaustive_size <= bitrel.MAX_SIZE:
            raise ValueError(f"exhaustive_size must be in 1..{bitrel.MAX_SIZE}")
        if any(not 1 <= s <= bitrel.MAX_SIZE for s in self.sample_sizes):
            raise ValueError(f"sample sizes must be in 1..{bitrel.MAX_SIZE}")
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be positive")
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))


def word_fingerprint(w: Word, cfg: OracleConfig) -> bytes:
    """Exact key of the word's map at the exhaustive size: its packed
    singleton images.  Two words share a key iff they agree on every
    relation of that size."""
    return bitrel.singleton_images(w, cfg.exhaustive_size).tobytes()


def word_equiv_oracle(w1: Word, w2: Word, cfg: OracleConfig) -> bool:
    """True iff the words agree on every relation at the exhaustive
    size and on every panel relation at the sample sizes."""
    if w1 == w2:
        return True
    if not bitrel.words_equal_all_relations(w1, w2, cfg.exhaustive_size):
        return False
    return all(bitrel.sampled_counterexample(w1, w2, n, cfg.samples_per_size,
                                             cfg.seed) is None
               for n in cfg.sample_sizes)


@dataclass(frozen=True)
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
    in shortlex order.  Each fresh word is compared against the
    surviving words below it with the same exact key, in shortlex order,
    and the first oracle hit admits the pair as a rule.

    Admission targets the word monoid on universes of size >= the
    exhaustive size, so sample sizes below it are dropped here: several
    true rules of that monoid (e.g. three of the built-in ones) are
    false on 3-element universes, and sampling there would veto them
    and leave the loop unable to ever reach cofiniteness.
    """
    from .automata import is_cofinite

    cfg = OracleConfig(cfg.exhaustive_size,
                       tuple(s for s in cfg.sample_sizes if s >= cfg.exhaustive_size)
                       or (min(cfg.exhaustive_size + 1, bitrel.MAX_SIZE),),
                       cfg.samples_per_size, cfg.seed)

    rules: list[Rule] = list(seed_rules.rules) if seed_rules else []
    larges = {r.large for r in rules}

    def report(reason: str) -> SearchReport:
        rep = is_cofinite([r.large for r in rules])
        return SearchReport(make_system([(r.small, r.large) for r in rules]),
                            rep.cofinite, examined, oracle_calls, reason,
                            rep.max_complement_length,
                            survivors=len(survivors))

    survivors: list[Word] = []
    survivor_set: set[Word] = set()
    by_fp: dict[bytes, list[Word]] = {}
    by_len: dict[int, list[Word]] = {}
    examined = 0
    oracle_calls = 0

    def admit_or_keep(v: Word) -> Optional[Rule]:
        nonlocal examined, oracle_calls
        fp = word_fingerprint(v, cfg)
        examined_here = len(survivors)
        for u in by_fp.get(fp, ()):  # ascending shortlex by construction
            oracle_calls += 1
            if word_equiv_oracle(u, v, cfg):
                examined += examined_here
                return Rule(u, v, len(rules) + 1)
        examined += examined_here
        survivors.append(v)
        survivor_set.add(v)
        by_fp.setdefault(fp, []).append(v)
        by_len.setdefault(len(v), []).append(v)
        return None

    if is_cofinite([r.large for r in rules]).cofinite:
        return report("cofinite")

    # the empty word always survives (nothing is below it)
    survivors.append(())
    survivor_set.add(())
    by_fp.setdefault(word_fingerprint((), cfg), []).append(())
    by_len.setdefault(0, []).append(())

    for length in range(1, max_len + 1):
        parents = by_len.get(length - 1, [])
        if not parents:
            break
        for p in parents:
            for letter in LETTERS:
                v = p + (letter,)
                if v[1:] not in survivor_set or v in larges:
                    continue
                if examined >= budget:
                    return report("budget")
                rule = admit_or_keep(v)
                if rule is not None:
                    rules.append(rule)
                    larges.add(rule.large)
                    if is_cofinite([r.large for r in rules]).cofinite:
                        return report("cofinite")
    return report("exhausted")


# ---------------------------------------------------------------------------
# Heavyweight certification


@dataclass(frozen=True)
class RuleCheck:
    index: int
    small: Word
    large: Word
    exhaustive_size: int
    exhaustive_ok: bool
    exhaustive_counterexample: Optional[int]
    sampled_ok: bool
    sampled_failures: tuple[tuple[int, int], ...]  # (size, packed relation)


def verify_rules(rs: RewriteSystem, exhaustive_size: int = 5,
                 sample_sizes: Sequence[int] = (6, 7),
                 samples_per_size: int = 100_000, seed: int = 0,
                 threads: Optional[int] = None) -> list[RuleCheck]:
    """Certify every rule: equality of both sides on all 2^(n^2)
    relations at the exhaustive size (exact, from the singleton images)
    and on seeded sampled panels at the remaining sizes.  ``threads``
    is accepted for compatibility and ignored."""
    pairs = [(r.small, r.large) for r in rs.rules]
    exhaustive = bitrel.scan_rule_pairs(pairs, exhaustive_size)
    out = []
    for rule, bad in zip(rs.rules, exhaustive):
        failures = []
        for n in sample_sizes:
            hit = bitrel.sampled_counterexample(rule.small, rule.large, n,
                                                samples_per_size, seed)
            if hit is not None:
                failures.append((n, hit))
        out.append(RuleCheck(rule.index, rule.small, rule.large,
                             exhaustive_size, bad is None, bad,
                             not failures, tuple(failures)))
    return out
