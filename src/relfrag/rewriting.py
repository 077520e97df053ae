"""String rewriting on context words, oriented by shortlex.

A rule is an ordered pair of words with the small side strictly below
the large side in shortlex order; rewriting replaces an occurrence of a
large side by the corresponding small side, so every step strictly
shrinks the word in a well-founded order and normalization terminates.
The strategy is fixed for reproducibility: leftmost occurrence first,
ties at the same position broken by the lowest rule index.

No confluence is assumed anywhere: distinct irreducible words may well
denote the same map, and nothing here claims otherwise.

Rule files hold one ``small = large`` line per rule in the word token
syntax (e.g. ``iI = iI iI``); ``#`` starts a comment line.  The name
``builtin:figure1`` denotes the embedded 21-rule system.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import automata
from .terms import record
from .words import (Word, WordError, format_word, parse_word, shortlex_key,
                    LETTERS)


class RewriteError(ValueError):
    pass


class InfiniteIrreducibleSet(RewriteError):
    """The words containing no large side of any rule form an infinite
    language, so they cannot be enumerated or counted."""


@record
class Rule:
    small: Word
    large: Word
    index: int

    def __post_init__(self) -> None:
        if not shortlex_key(self.small) < shortlex_key(self.large):
            raise RewriteError(
                f"rule {self.index}: {format_word(self.small)!r} must be "
                f"shortlex-below {format_word(self.large)!r}")


@record
class RewriteSystem:
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        for pos, rule in enumerate(self.rules, start=1):
            if rule.index != pos:
                raise RewriteError(f"rule indices must be 1..n in order, got {rule.index} at {pos}")

    def large_sides(self) -> list[Word]:
        return [r.large for r in self.rules]

    def by_index(self, index: int) -> Rule:
        return self.rules[index - 1]

    @cached_property
    def _matcher(self):
        """Aho-Corasick machine over the large sides, with, per state,
        the matched (pattern length, rule index) pairs, and the longest
        large side; built once per system."""
        goto, matches = automata.aho_corasick(self.large_sides())
        outputs = [[(len(self.rules[i].large), self.rules[i].index) for i in m] for m in matches]
        return goto, outputs, max((len(r.large) for r in self.rules), default=0)


def make_system(pairs: Sequence[tuple[Word, Word]]) -> RewriteSystem:
    return RewriteSystem(tuple(Rule(s, l, i) for i, (s, l) in enumerate(pairs, start=1)))


_BUILTIN_FIGURE1 = (
    ("iI", "iI iI"),
    ("iD", "iD iD"),
    ("iI", "iI cv"),
    ("iI", "cv iI"),
    ("iI iD", "iD iI"),
    ("iD cv", "cv iD"),
    ("eps", "cv cv"),
    ("iD iI", "cD iI iD"),
    ("iD iI", "iI cD iI"),
    ("iI cD", "iI cD iD"),
    ("cD iI", "iD cD iI"),
    ("cD cD", "cD iD cD"),
    ("cD cD", "cD cD cD"),
    ("cD cD iD", "cD cD iI cD"),
    ("iD cD cD", "cD iI cD cD"),
    ("cv cD iI", "iD cv cD iI"),
    ("cD cv cD cv", "cv cD cv cD"),
    ("cv cD iI cD", "iD cv cD cD iD"),
    ("cD cv cD cD cv", "cv cD cD cv cD"),
    ("cD iD cv cD iD cv cD iD cv cD iD cv cD iD",
     "cv cD iD cv cD iD cv cD iD cv cD iD cv cD iD cv"),
    ("cD iI cD cv cD iI cD cv cD",
     "cv cD iI cD cv cD iI cD cv cD"),
)


def figure1_rules() -> RewriteSystem:
    """The embedded 21-rule system over the core alphabet."""
    return make_system([(parse_word(s), parse_word(l)) for s, l in _BUILTIN_FIGURE1])


# ---------------------------------------------------------------------------
# Matching and normalization


def _first_match(w: Word, rs: RewriteSystem) -> Optional[tuple[int, int]]:
    # (start position, rule index) of the leftmost match, lowest rule
    # index on position ties
    children, outputs, max_len = rs._matcher
    best: Optional[tuple[int, int]] = None
    state = 0
    for end, letter in enumerate(w):
        state = children[state][int(letter)]
        for length, index in outputs[state]:
            start = end + 1 - length
            cand = (start, index)
            if best is None or cand < best:
                best = cand
        if best is not None and best[0] <= end + 1 - max_len:
            break
    return best


def rewrite_step(w: Word, rs: RewriteSystem) -> Optional[tuple[Word, int, int]]:
    """One rewrite at the leftmost matching position (lowest rule index
    on ties): (new word, rule index, position), or None if irreducible.
    """
    hit = _first_match(w, rs)
    if hit is None:
        return None
    start, index = hit
    rule = rs.by_index(index)
    new = w[:start] + rule.small + w[start + len(rule.large):]
    return new, index, start


def normalize(w: Word, rs: RewriteSystem) -> tuple[Word, list[tuple[int, int]]]:
    """Rewrite to an irreducible word, returning it with the replayable
    trace of (rule index, position) steps.  Each step is checked to
    strictly decrease shortlex order."""
    trace: list[tuple[int, int]] = []
    while True:
        step = rewrite_step(w, rs)
        if step is None:
            return w, trace
        new, index, pos = step
        if not shortlex_key(new) < shortlex_key(w):
            raise RewriteError(f"rewrite step did not decrease shortlex order: "
                               f"{format_word(w)} -> {format_word(new)}")  # pragma: no cover
        trace.append((index, pos))
        w = new


# ---------------------------------------------------------------------------
# The irreducible language


def _leftover_paths(rs: RewriteSystem) -> tuple[dict[int, int], dict[int, int]]:
    # per irreducible state of the matcher: longest path, path count
    if not rs.rules:
        raise InfiniteIrreducibleSet("with no rules every word is irreducible")
    goto, outputs, _ = rs._matcher
    paths = automata.leftover_paths(goto, outputs)
    if paths is None:
        raise InfiniteIrreducibleSet("the irreducible language is infinite")
    return paths


def count_irreducibles(rs: RewriteSystem) -> int:
    """Number of irreducible words, by path counting over the matcher's
    irreducible states; errors out when infinite."""
    return _leftover_paths(rs)[1][0]


def enumerate_irreducibles(rs: RewriteSystem) -> Iterator[Word]:
    """All irreducible words exactly once in shortlex order; errors out
    when the set is infinite."""
    longest, _ = _leftover_paths(rs)
    goto = rs._matcher[0]
    yield ()
    for length in range(1, longest[0] + 1):
        # depth first, letters in order, on an explicit stack: per letter
        # of the prefix and one more, the successors still to try of the
        # state that letter leaves from.  Every irreducible state
        # accepts, so a path of the remaining length starts at t iff t's
        # longest path is at least that long.
        prefix: list = []
        stack = [zip(LETTERS, goto[0])]
        while stack:
            remaining = length - len(stack)
            for letter, t in stack[-1]:
                if longest.get(t, -1) >= remaining:
                    if remaining:
                        prefix.append(letter)
                        stack.append(zip(LETTERS, goto[t]))
                        break
                    yield (*prefix, letter)
            else:
                stack.pop()
                del prefix[-1:]


# ---------------------------------------------------------------------------
# Rule files


def parse_rules(text: str) -> RewriteSystem:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.count("=") != 1:
            raise RewriteError(f"line {lineno}: expected 'small = large'")
        left, right = line.split("=")
        try:
            pairs.append((parse_word(left.strip()), parse_word(right.strip())))
        except WordError as e:
            raise RewriteError(f"line {lineno}: {e}") from None
    return make_system(pairs)


def format_rules(rs: RewriteSystem) -> str:
    return "".join(f"{format_word(r.small)} = {format_word(r.large)}\n" for r in rs.rules)


def load_rules(source: str) -> RewriteSystem:
    """Resolve a rule source: ``builtin:figure1`` or a file path."""
    if source == "builtin:figure1":
        return figure1_rules()
    if source.startswith("builtin:"):
        raise RewriteError(f"unknown builtin rule system {source!r}")
    with open(source, "r", encoding="utf-8") as fh:
        return parse_rules(fh.read())
