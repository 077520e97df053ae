import hashlib
from itertools import product

import numpy as np
import pytest

from relfrag.automata import (AutomataError, CofinitenessReport, Dfa, aho_corasick,
                              build_pattern_dfa, complement_and_trim, export_dot,
                              is_cofinite, leftover_paths, minimize)
from relfrag.rewriting import (InfiniteIrreducibleSet, count_irreducibles,
                               enumerate_irreducibles, figure1_rules, make_system)
from relfrag.words import CAP_D, CAP_I, CONV, DOT_D, LETTERS, parse_word, shortlex_key

RS = figure1_rules()
W28 = parse_word("iI iD cD cD cv cD iI cD cv cD cD iD cv cD iD cv cD iD "
                 "cv cD iD cv cD iD cv cD cD iI")


# sha256 of export_dot for the Figure 1 pattern DFA and its complement:
# the state numbering is part of the export-dfa output, and the other
# tests only count states
FIGURE1_PATTERN_DOT_SHA256 = "152338666441a74fa4461f621c5a2351eb64010e1e7a8908128ca30a941fac4a"
FIGURE1_COMPLEMENT_DOT_SHA256 = "511da25fa3422d6700aaa7163d8e5850e50a70fc636e976f7d32962027d7648c"


def _naive_contains_factor(w, patterns):
    for p in patterns:
        for i in range(len(w) - len(p) + 1):
            if w[i:i + len(p)] == p:
                return True
    return False


def test_pattern_dfa_examples():
    d = build_pattern_dfa([(CAP_I, CAP_I)])
    assert d.accepts((CAP_I, CAP_I, CAP_D))
    assert not d.accepts((CAP_I, CAP_D, CAP_I))
    d = build_pattern_dfa(RS.large_sides())
    assert not d.accepts(W28)
    d = build_pattern_dfa([(CAP_I,)])
    assert d.accepts((CAP_D, CAP_I))
    assert not d.accepts((CAP_D, CONV, DOT_D))


def test_pattern_dfa_rejects_empty_pattern():
    with pytest.raises(AutomataError):
        build_pattern_dfa([])
    with pytest.raises(AutomataError):
        build_pattern_dfa([()])


def test_pattern_dfa_accepting_absorbs():
    d = build_pattern_dfa([(CAP_I,)])
    for s in d.accepting:
        assert all(t == s for t in d.delta[s])


def test_membership_matches_naive_factor_search():
    rng = np.random.default_rng(17)
    patterns = RS.large_sides()
    d = build_pattern_dfa(patterns)
    for _ in range(10_000):
        w = tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 41))))
        assert d.accepts(w) == _naive_contains_factor(w, patterns)


def test_complement_trim_full_language():
    # a full-language acceptor complements to the empty acceptor
    full = Dfa(1, 0, frozenset({0}), ((0, 0, 0, 0),))
    c = complement_and_trim(full)
    assert c.accepting == frozenset()


def test_complement_of_builtin_accepts_short_words():
    c = complement_and_trim(build_pattern_dfa(RS.large_sides()))
    assert c.accepts(())
    for letter in LETTERS:
        assert c.accepts((letter,))
    assert c.accepts(W28)
    assert not c.accepts((CAP_I, CAP_I))


def test_complement_two_letter_blanket():
    pats = [tuple(p) for p in product(LETTERS, repeat=2)]
    c = complement_and_trim(build_pattern_dfa(pats))
    accepted = [w for length in range(4) for w in product(LETTERS, repeat=length)
                if c.accepts(tuple(w))]
    assert len(accepted) == 5  # the empty word and the four letters


def test_is_cofinite_examples():
    report = is_cofinite(RS.large_sides())
    assert report.cofinite and report.max_complement_length == 28
    assert report.complement_count == 1810

    report = is_cofinite([(CAP_I, CAP_I)])
    assert not report.cofinite

    report = is_cofinite([tuple(p) for p in product(LETTERS, repeat=2)])
    assert (report.cofinite, report.max_complement_length, report.complement_count) == (True, 1, 5)

    assert is_cofinite([]) == CofinitenessReport(False)
    assert is_cofinite([(CONV,)]) == CofinitenessReport(False)
    assert is_cofinite([(CONV,), (DOT_D, DOT_D)]) == CofinitenessReport(False)


def test_minimize_builtin_regression():
    d = build_pattern_dfa(RS.large_sides())
    m = minimize(d)
    assert m.num_states == 36
    assert minimize(m).num_states == 36
    # acyclic except the accepting sink: only accepting states may be
    # on a cycle
    assert len(m.accepting) == 1
    sink = next(iter(m.accepting))
    seen = set()
    stack = [(m.start, ())]
    color = {}

    def dfs(s, path):
        color[s] = "gray"
        for t in m.delta[s]:
            if t == sink:
                continue
            if color.get(t) == "gray":
                raise AssertionError("cycle outside the accepting sink")
            if color.get(t) is None:
                dfs(t, path)
        color[s] = "black"

    dfs(m.start, ())


def test_minimize_language_equivalence_sampled():
    rng = np.random.default_rng(3)
    d = build_pattern_dfa(RS.large_sides())
    m = minimize(d)
    for _ in range(10_000):
        w = tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 35))))
        assert d.accepts(w) == m.accepts(w)


def test_finiteness_dp_matches_brute_force_enumeration():
    # small random systems whose leftover language is modest: compare
    # the path-counting answers with literal enumeration
    rng = np.random.default_rng(8)
    built = 0
    while built < 6:
        pats = {tuple(LETTERS[i] for i in rng.integers(0, 4, size=2))
                for _ in range(int(rng.integers(8, 14)))}
        report = is_cofinite(sorted(pats))
        longest, count = report.max_complement_length, report.complement_count
        if not report.cofinite or count > 10**5:
            continue
        words = []
        frontier = [()]
        while frontier:
            w = frontier.pop()
            if longest is not None and len(w) > longest + 1:
                continue
            if not _naive_contains_factor(w, pats):
                words.append(w)
                frontier.extend(w + (x,) for x in LETTERS)
        assert len(words) == count
        assert max((len(w) for w in words), default=None) == longest
        built += 1


def _brute_leftovers(pats):
    """Every word containing no pattern, found letter by letter, or None
    if there are infinitely many.  Whether a letter completes a pattern
    depends only on the last m - 1 letters before it (m the longest
    pattern), so a leftover word of length 4^(m-1) + m - 1 repeats such
    a window, and the factor between the repeats can be pumped."""
    m = max(map(len, pats))
    bound = 4 ** (m - 1) + m - 1
    found, stack = [], [()]
    while stack:
        w = stack.pop()
        if _naive_contains_factor(w, pats):
            continue
        if len(w) >= bound:
            return None
        found.append(w)
        stack.extend(w + (x,) for x in LETTERS)
    return sorted(found, key=shortlex_key)


def test_leftover_pass_matches_brute_force():
    # random sets of patterns of length 1 to 3, cofinite or not: the
    # cofiniteness report, the irreducible count and the exact shortlex
    # enumeration all agree with literal enumeration
    rng = np.random.default_rng(31)
    cofinite = 0
    for _ in range(300):
        pats = sorted({tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 4))))
                       for _ in range(int(rng.integers(1, 40)))})
        words = _brute_leftovers(pats)
        report = is_cofinite(pats)
        rs = make_system([((), p) for p in pats])
        if words is None:
            assert leftover_paths(*aho_corasick(pats)) is None
            assert report == CofinitenessReport(False)
            with pytest.raises(InfiniteIrreducibleSet):
                count_irreducibles(rs)
            with pytest.raises(InfiniteIrreducibleSet):
                next(enumerate_irreducibles(rs))
            continue
        cofinite += 1
        assert report == CofinitenessReport(True, max(map(len, words)), len(words))
        assert count_irreducibles(rs) == len(words)
        assert list(enumerate_irreducibles(rs)) == words
    assert 100 <= cofinite <= 200, cofinite


def test_is_cofinite_scales_linearly():
    # doubling the total pattern length should not much more than
    # double the runtime; the trials alternate small and large, so a
    # change of host speed hits both sides, and each side keeps its
    # best of five; each trial makes 15 calls, so that it outlasts the
    # scheduler's noise on a loaded host
    import time

    def patterns(k, rng):
        out = set()
        while len(out) < k:
            out.add(tuple(LETTERS[i] for i in rng.integers(0, 4, size=6)))
        return sorted(out)

    def trial(pats):
        t0 = time.perf_counter()
        for _ in range(15):
            is_cofinite(pats)
        return time.perf_counter() - t0

    rng = np.random.default_rng(12)
    small = patterns(400, rng)
    large = patterns(800, rng)
    t_small = t_large = float("inf")
    for _ in range(5):
        t_small = min(t_small, trial(small))
        t_large = min(t_large, trial(large))
    assert t_large / t_small <= 2.5, (t_small, t_large)


def test_minimize_canonical_for_same_language():
    # two different acceptors of "contains iI" minimize identically
    d1 = build_pattern_dfa([(CAP_I,)])
    d2 = build_pattern_dfa([(CAP_I,), (CAP_I, CAP_D)])  # second pattern redundant
    assert minimize(d1) == minimize(d2)


def _check_dot(text: str) -> None:
    assert text.startswith("digraph")
    assert text.rstrip().endswith("}")
    body = text[text.index("{") + 1: text.rindex("}")]
    for line in body.strip().splitlines():
        line = line.strip()
        assert line.endswith(";"), line


def test_export_dot():
    empty = complement_and_trim(Dfa(1, 0, frozenset({0}), ((0, 0, 0, 0),)))
    text = export_dot(empty)
    _check_dot(text)

    d = minimize(build_pattern_dfa(RS.large_sides()))
    text = export_dot(d)
    _check_dot(text)
    assert text == export_dot(d)  # deterministic
    assert text.count("doublecircle") == len(d.accepting)

    single = build_pattern_dfa([(CAP_I, CONV)])
    text = export_dot(single)
    assert text.count("->") == 4 * single.num_states + 1  # +1 for the start marker


def test_pattern_and_complement_numbering_pinned():
    d = build_pattern_dfa(RS.large_sides())
    assert hashlib.sha256(export_dot(d).encode()).hexdigest() == FIGURE1_PATTERN_DOT_SHA256
    trimmed = complement_and_trim(d)
    assert hashlib.sha256(export_dot(trimmed).encode()).hexdigest() == FIGURE1_COMPLEMENT_DOT_SHA256
