"""Equation search over the core alphabet, with an exact word oracle.

Two context words are compared through their singleton images
(``bitrel.singleton_images``): letters preserve unions, so the images
of the n^2 one-pair relations fix a word's map at size n, and equal
images mean equal values on all 2^(n^2) relations.  The word monoid
read off these images stops changing from 5 points on (the images
agree at one size from 5 on iff they agree at all of them; see
``decide``), so the images at the sizes from the exhaustive size to 5
decide equality on every universe of at least the exhaustive size.
That concatenation is the search's exact key (``word_fingerprint``);
no seeded panel is evaluated anywhere in this module.

``run_search`` is the possibly non-terminating completion loop: it
draws candidate pairs (u, v), with v ascending in shortlex order over
the words that are irreducible under the rules admitted so far, and u
the surviving word below v with the same key.  Restricting u to
survivors loses nothing: key equality is transitive, and every
discarded word has the key of some survivor.  A key hit becomes a
rule; the loop stops as soon as the admitted large sides make the
irreducible language finite, or when the budget or length bound runs
out.  Each stopping cause is reported.

``verify_rules`` re-certifies any rule set exactly at the exhaustive
size and at each sample size.
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
    """Exact key of the word's map on universes of at least the
    exhaustive size m: its packed singleton images at every size from m
    to max(m, 5), concatenated.  Two words share a key iff they agree
    on every relation of every size >= m."""
    return b"".join(bitrel.singleton_images(w, n).tobytes()
                    for n in range(cfg.exhaustive_size, max(cfg.exhaustive_size, 5) + 1))


def word_equiv_oracle(w1: Word, w2: Word, cfg: OracleConfig) -> bool:
    """True iff the words agree on every relation of every size from
    the exhaustive size on."""
    return word_fingerprint(w1, cfg) == word_fingerprint(w2, cfg)


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
    in shortlex order.  A fresh word whose exact key is already taken
    is admitted as a rule with the survivor of that key as its small
    side; otherwise it survives.
    """
    from .automata import is_cofinite

    rules: list[Rule] = list(seed_rules.rules) if seed_rules else []
    larges = {r.large for r in rules}

    def report(reason: str) -> SearchReport:
        rep = is_cofinite([r.large for r in rules])
        return SearchReport(make_system([(r.small, r.large) for r in rules]),
                            rep.cofinite, examined, oracle_calls, reason,
                            rep.max_complement_length,
                            survivors=len(survivors))

    survivors: set[Word] = set()
    by_fp: dict[bytes, Word] = {}  # key -> the one survivor with that key
    by_len: dict[int, list[Word]] = {}
    examined = 0
    oracle_calls = 0

    def keep(v: Word, fp: bytes) -> None:
        survivors.add(v)
        by_fp[fp] = v
        by_len.setdefault(len(v), []).append(v)

    if is_cofinite([r.large for r in rules]).cofinite:
        return report("cofinite")

    # the empty word always survives (nothing is below it)
    keep((), word_fingerprint((), cfg))

    for length in range(1, max_len + 1):
        parents = by_len.get(length - 1, [])
        if not parents:
            break
        for p in parents:
            for letter in LETTERS:
                v = p + (letter,)
                if v[1:] not in survivors or v in larges:
                    continue
                if examined >= budget:
                    return report("budget")
                examined += len(survivors)
                fp = word_fingerprint(v, cfg)
                u = by_fp.get(fp)
                if u is None:
                    keep(v, fp)
                    continue
                oracle_calls += 1
                rules.append(Rule(u, v, len(rules) + 1))
                larges.add(v)
                if is_cofinite([r.large for r in rules]).cofinite:
                    return report("cofinite")
    return report("exhausted")


# ---------------------------------------------------------------------------
# Rule certification


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
    """Certify every rule exactly, from the singleton images, on all
    2^(n^2) relations at the exhaustive size and at each sample size.
    A failure at a sample size is reported as (size, 1 << j) for the
    lowest differing image j.  ``samples_per_size``, ``seed`` and
    ``threads`` are accepted for compatibility and ignored: no panel is
    drawn."""
    pairs = [(r.small, r.large) for r in rs.rules]
    exhaustive = bitrel.scan_rule_pairs(pairs, exhaustive_size)
    by_size = [(n, bitrel.scan_rule_pairs(pairs, n)) for n in sample_sizes]
    out = []
    for i, (rule, bad) in enumerate(zip(rs.rules, exhaustive)):
        failures = tuple((n, hits[i]) for n, hits in by_size if hits[i] is not None)
        out.append(RuleCheck(rule.index, rule.small, rule.large,
                             exhaustive_size, bad is None, bad,
                             not failures, failures))
    return out
