"""Pattern automata over the four-letter context alphabet.

``build_pattern_dfa`` runs Aho-Corasick over a pattern set and returns
a total DFA for "some pattern occurs as a factor" (the accepting states
are absorbing).  Complementation plus trimming, an acyclicity check
with longest-path / path-count dynamic programming, and partition-
refinement minimization together decide whether the factor language is
cofinite and, when it is, how long and how numerous the leftover words
are.  Everything is linear-time in the total pattern length except
minimization, which only serves reporting and export.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import LETTER_TOKENS, LETTERS, Letter, Word

ALPHABET_SIZE = len(LETTERS)


class AutomataError(ValueError):
    pass


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton; ``delta[state][letter]`` indexes
    by the letter's position in the alphabet order.  ``dead`` marks the
    explicit trap state introduced by trimming, if any."""

    num_states: int
    start: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]
    dead: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.num_states:
            raise AutomataError("start state out of range")
        if len(self.delta) != self.num_states:
            raise AutomataError("transition table must cover every state")
        for row in self.delta:
            if len(row) != ALPHABET_SIZE or any(not 0 <= t < self.num_states for t in row):
                raise AutomataError("transition table must be total over the alphabet")
        if any(not 0 <= s < self.num_states for s in self.accepting):
            raise AutomataError("accepting state out of range")

    def step(self, state: int, letter: Letter) -> int:
        return self.delta[state][int(letter)]

    def accepts(self, w: Word) -> bool:
        state = self.start
        for letter in w:
            state = self.delta[state][int(letter)]
        return state in self.accepting


@dataclass(frozen=True)
class CofinitenessReport:
    cofinite: bool
    max_complement_length: Optional[int] = None
    complement_count: Optional[int] = None


def aho_corasick(patterns: Sequence[Word]) -> tuple[list[list[int]], list[list[int]]]:
    """Aho-Corasick machine over the patterns: the total goto table
    (trie edges completed through the failure links) and, per state,
    the indices into ``patterns`` of every pattern that ends there,
    including those inherited along the failure chain."""
    goto: list[list[int]] = [[-1] * ALPHABET_SIZE]
    matches: list[list[int]] = [[]]
    for i, p in enumerate(patterns):
        node = 0
        for letter in p:
            c = int(letter)
            if goto[node][c] < 0:
                goto.append([-1] * ALPHABET_SIZE)
                matches.append([])
                goto[node][c] = len(goto) - 1
            node = goto[node][c]
        matches[node].append(i)

    # failure links by BFS
    fail = [0] * len(goto)
    order = deque()
    for c in range(ALPHABET_SIZE):
        child = goto[0][c]
        if child >= 0:
            order.append(child)
        else:
            goto[0][c] = 0
    while order:
        node = order.popleft()
        matches[node] += matches[fail[node]]
        for c in range(ALPHABET_SIZE):
            child = goto[node][c]
            if child >= 0:
                fail[child] = goto[fail[node]][c]
                order.append(child)
            else:
                goto[node][c] = goto[fail[node]][c]
    return goto, matches


def build_pattern_dfa(patterns: Iterable[Word]) -> Dfa:
    """DFA for the words containing some pattern as a contiguous
    factor.  Patterns must be nonempty words; the empty pattern would
    accept everything and is rejected."""
    pats = [tuple(p) for p in patterns]
    if not pats:
        raise AutomataError("pattern set must be nonempty")
    if any(len(p) == 0 for p in pats):
        raise AutomataError("the empty word is not a valid pattern")
    goto, matches = aho_corasick(pats)
    # accepting states absorb
    delta = tuple((s,) * ALPHABET_SIZE if matches[s] else tuple(row)
                  for s, row in enumerate(goto))
    return Dfa(len(goto), 0, frozenset(s for s, m in enumerate(matches) if m), delta)


def _reachable(sources: Iterable[int], succ: Sequence[Iterable[int]]) -> set[int]:
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def complement_and_trim(d: Dfa) -> Dfa:
    """Complement the language, then keep only states reachable from
    the start and co-reachable to acceptance; an explicit dead state
    re-totalizes the table."""
    accepting = frozenset(range(d.num_states)) - d.accepting
    back: list[set[int]] = [set() for _ in range(d.num_states)]
    for s in range(d.num_states):
        for t in d.delta[s]:
            back[t].add(s)
    useful = _reachable([d.start], d.delta) & _reachable(accepting, back)
    if d.start not in useful:
        # the start cannot reach acceptance at all: empty language
        loops = (tuple(0 for _ in range(ALPHABET_SIZE)),)
        return Dfa(1, 0, frozenset(), loops, dead=0)
    # BFS numbering from the start for a deterministic result
    index: dict[int, int] = {}
    order = deque([d.start])
    while order:
        s = order.popleft()
        if s in index:
            continue
        index[s] = len(index)
        for t in d.delta[s]:
            if t in useful and t not in index:
                order.append(t)
    dead = len(index)
    delta = []
    for s in sorted(index, key=index.get):
        delta.append(tuple(index.get(t, dead) for t in d.delta[s]))
    delta.append(tuple(dead for _ in range(ALPHABET_SIZE)))
    acc = frozenset(index[s] for s in useful if s in accepting)
    return Dfa(dead + 1, index[d.start], acc, tuple(delta), dead=dead)


def is_finite_language(d: Dfa) -> tuple[bool, Optional[int], Optional[int]]:
    """(finite, longest accepted length, accepted word count) for a
    trimmed DFA; the dead state is ignored by the cycle search."""
    if not d.accepting:
        return True, None, 0

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * d.num_states
    stack = [(d.start, 0)]
    while stack:
        s, ci = stack[-1]
        if ci == 0:
            color[s] = GRAY
        if ci == ALPHABET_SIZE:
            color[s] = BLACK
            stack.pop()
            continue
        stack[-1] = (s, ci + 1)
        t = d.delta[s][ci]
        if t == d.dead:
            continue
        if color[t] == GRAY:
            return False, None, None
        if color[t] == WHITE:
            stack.append((t, 0))

    # acyclic: longest path and path count to acceptance, memoized
    max_len: dict[int, Optional[int]] = {}
    count: dict[int, int] = {}

    order: list[int] = []
    seen = [False] * d.num_states
    stack2 = [(d.start, 0)]
    seen[d.start] = True
    while stack2:
        s, ci = stack2.pop()
        if ci == ALPHABET_SIZE:
            order.append(s)
            continue
        stack2.append((s, ci + 1))
        t = d.delta[s][ci]
        if t != d.dead and not seen[t]:
            seen[t] = True
            stack2.append((t, 0))
    for s in order:  # reverse-topological
        best: Optional[int] = 0 if s in d.accepting else None
        total = 1 if s in d.accepting else 0
        for c in range(ALPHABET_SIZE):
            t = d.delta[s][c]
            if t == d.dead or not seen[t]:
                continue
            sub = max_len.get(t)
            if sub is not None and (best is None or sub + 1 > best):
                best = sub + 1
            total += count.get(t, 0)
        max_len[s] = best
        count[s] = total
    return True, max_len.get(d.start), count.get(d.start, 0)


def is_cofinite(patterns: Iterable[Word]) -> CofinitenessReport:
    """Whether all but finitely many words contain some pattern as a
    factor; when they do, the longest leftover length and the leftover
    count."""
    pats = [tuple(p) for p in patterns]
    if not pats:
        return CofinitenessReport(False)
    trimmed = complement_and_trim(build_pattern_dfa(pats))
    finite, longest, count = is_finite_language(trimmed)
    if not finite:
        return CofinitenessReport(False)
    return CofinitenessReport(True, longest, count)


def minimize(d: Dfa) -> Dfa:
    """Language-minimal total DFA via partition refinement, with states
    renumbered in breadth-first order from the start for deterministic
    output."""
    states = sorted(_reachable([d.start], d.delta))

    block = {s: (s in d.accepting) for s in states}
    while True:
        sig = {s: (block[s], tuple(block[d.delta[s][c]] for c in range(ALPHABET_SIZE)))
               for s in states}
        fresh: dict = {}
        for s in states:
            fresh.setdefault(sig[s], len(fresh))
        new_block = {s: fresh[sig[s]] for s in states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    # representative per block, BFS numbering
    rep: dict[int, int] = {}
    for s in states:
        rep.setdefault(block[s], s)
    index: dict[int, int] = {}
    order = deque([block[d.start]])
    while order:
        b = order.popleft()
        if b in index:
            continue
        index[b] = len(index)
        s = rep[b]
        for c in range(ALPHABET_SIZE):
            t = block[d.delta[s][c]]
            if t not in index:
                order.append(t)
    delta = []
    for b in sorted(index, key=index.get):
        s = rep[b]
        delta.append(tuple(index[block[d.delta[s][c]]] for c in range(ALPHABET_SIZE)))
    acc = frozenset(index[b] for b, s in rep.items() if s in d.accepting)
    return Dfa(len(index), index[block[d.start]], acc, tuple(delta))


def export_dot(d: Dfa) -> str:
    """GraphViz rendering: states numbered, accepting states double
    circled, one labeled edge per state and letter.  Deterministic."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for s in range(d.num_states):
        shape = "doublecircle" if s in d.accepting else "circle"
        label = f"{s}" if s != d.dead else f"{s} (dead)"
        lines.append(f'  q{s} [shape={shape}, label="{label}"];')
    lines.append(f"  __start -> q{d.start};")
    for s in range(d.num_states):
        for c in range(ALPHABET_SIZE):
            token = LETTER_TOKENS[LETTERS[c]]
            lines.append(f'  q{s} -> q{d.delta[s][c]} [label="{token}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
