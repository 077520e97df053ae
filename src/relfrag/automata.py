"""Pattern automata over the four-letter context alphabet.

``aho_corasick`` builds the goto and match tables of a pattern set.  A
word contains a pattern iff its path from the root meets a state that
matches one, so the leftover words (those containing no pattern) are
the paths from the root through states that match none.
``leftover_paths`` finds in one depth-first pass whether those states
hold a cycle (infinitely many leftover words), or else how long and how
numerous the leftover words are; that decides ``is_cofinite``, and
rewriting counts and enumerates its irreducible words from the same
pass.  Both are linear in the total pattern length.  The completion
search decides cofiniteness on its own window graph and calls
``is_cofinite`` only for its seed rules (see ``search``).
``build_pattern_dfa``, ``complement_and_trim`` and partition-refinement
``minimize`` build the explicit automata that ``export-dfa`` draws.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence

from .terms import record
from .words import LETTER_TOKENS, LETTERS, Word

ALPHABET_SIZE = len(LETTERS)


class AutomataError(ValueError):
    pass


@record
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

    def accepts(self, w: Word) -> bool:
        state = self.start
        for letter in w:
            state = self.delta[state][int(letter)]
        return state in self.accepting


@record
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


def _bfs_numbering(start: int, succ: Callable[[int], Iterable[int]]) -> dict[int, int]:
    """Number the states reachable from start breadth first, each
    state's successors taken in letter order, so that the result is
    deterministic; the dict iterates in that order."""
    index: dict[int, int] = {}
    order = deque([start])
    while order:
        s = order.popleft()
        if s in index:
            continue
        index[s] = len(index)
        order.extend(t for t in succ(s) if t not in index)
    return index


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
    index = _bfs_numbering(d.start, lambda s: [t for t in d.delta[s] if t in useful])
    dead = len(index)
    delta = [tuple(index.get(t, dead) for t in d.delta[s]) for s in index]
    delta.append(tuple(dead for _ in range(ALPHABET_SIZE)))
    acc = frozenset(index[s] for s in useful if s in accepting)
    return Dfa(dead + 1, index[d.start], acc, tuple(delta), dead=dead)


def leftover_paths(goto: Sequence[Sequence[int]], matches: Sequence[Sequence]
                   ) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """One depth-first pass over the leftover states of an Aho-Corasick
    machine: those that match no pattern and are reachable from the
    root through such states.  They are the states of the trimmed
    complement DFA, and each of them accepts.  None if they hold a
    cycle (infinitely many leftover words); otherwise, per leftover
    state, the length of the longest path from it and the number of
    paths from it, the empty path included."""
    longest: dict[int, int] = {}
    count: dict[int, int] = {}
    on_path = {0}
    # (state, its successors still to try)
    stack = [(0, iter(goto[0]))]
    while stack:
        s, succ = stack[-1]
        for t in succ:
            if matches[t] or t in longest:
                continue
            if t in on_path:
                return None
            on_path.add(t)
            stack.append((t, iter(goto[t])))
            break
        else:
            stack.pop()
            on_path.remove(s)
            nxt = [t for t in goto[s] if not matches[t]]
            longest[s] = 1 + max((longest[t] for t in nxt), default=-1)
            count[s] = 1 + sum(count[t] for t in nxt)
    return longest, count


def is_cofinite(patterns: Iterable[Word]) -> CofinitenessReport:
    """Whether all but finitely many words contain some pattern as a
    factor, and when they do, the longest leftover length and the
    leftover count.  Patterns must be nonempty words."""
    pats = [tuple(p) for p in patterns]
    if any(len(p) == 0 for p in pats):
        raise AutomataError("the empty word is not a valid pattern")
    paths = leftover_paths(*aho_corasick(pats))
    if paths is None:
        return CofinitenessReport(False)
    longest, count = paths
    return CofinitenessReport(True, longest[0], count[0])


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
    index = _bfs_numbering(block[d.start], lambda b: [block[t] for t in d.delta[rep[b]]])
    delta = tuple(tuple(index[block[t]] for t in d.delta[rep[b]]) for b in index)
    acc = frozenset(index[b] for b, s in rep.items() if s in d.accepting)
    return Dfa(len(index), index[block[d.start]], acc, delta)


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
