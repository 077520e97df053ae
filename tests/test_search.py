import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

import brute
from relfrag import bitrel
from relfrag.automata import is_cofinite
from relfrag.rewriting import Rule, figure1_rules, format_rules, load_rules, make_system
from relfrag.search import (OracleConfig, SearchReport, run_search, verify_rules,
                            word_equiv_oracle, word_fingerprint)
from relfrag.words import CONV, DOT_D, LETTERS, parse_word, shortlex_key

CFG = OracleConfig()
PLANTED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "planted_false_rules.txt"


def _random_word(rng, max_len):
    return tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, max_len + 1))))


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(exhaustive_size=9)
    with pytest.raises(ValueError):
        OracleConfig(sample_sizes=(0,))
    with pytest.raises(ValueError):
        OracleConfig(samples_per_size=0)


def test_fingerprint_examples():
    assert word_fingerprint((CONV, CONV), CFG) == word_fingerprint((), CFG)
    assert word_fingerprint(parse_word("iI"), CFG) != word_fingerprint(parse_word("iD"), CFG)
    assert word_fingerprint(parse_word("cD cv"), CFG) == word_fingerprint(parse_word("cD cv"), OracleConfig())


def test_oracle_examples():
    assert word_equiv_oracle(parse_word("cD cD"), parse_word("cD cD cD"), CFG)
    assert not word_equiv_oracle((DOT_D,), (CONV, DOT_D), CFG)
    w = parse_word("iI cD cv")
    assert word_equiv_oracle(w, w, CFG)


def test_matrix_equality_matches_brute_scan():
    # exact equality from the singleton images agrees with the full scan
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        for _ in range(60):
            w1 = tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 6))))
            w2 = tuple(LETTERS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 6))))
            fast = bitrel.words_equal_all_relations(w1, w2, n)
            slow = brute.first_counterexample(w1, w2, n) is None
            assert fast == slow, (w1, w2, n)


def test_matrix_equality_matches_brute_scan_size5_spot():
    pairs = [(parse_word("cD cD"), parse_word("cD cD cD")),
             (parse_word("iI"), parse_word("cv iI")),
             (parse_word("cD"), parse_word("cv cD")),
             (parse_word("cv cD iI cD"), parse_word("iD cv cD cD iD"))]
    for w1, w2 in pairs:
        fast = bitrel.words_equal_all_relations(w1, w2, 5)
        slow = brute.first_counterexample(w1, w2, 5) is None
        assert fast == slow


def test_scan_rule_pairs_matches_brute_first_counterexample():
    # the lowest differing singleton image is the numerically first
    # separating relation of the literal scan
    rng = np.random.default_rng(300)
    for n in (1, 2, 3, 4):
        pairs = [(_random_word(rng, 6), _random_word(rng, 6)) for _ in range(75)]
        expected = brute.first_counterexamples(pairs, n)
        assert bitrel.scan_rule_pairs(pairs, n) == expected, n
        assert any(e is not None for e in expected) and any(e is None for e in expected)
    planted = [(r.small, r.large) for r in load_rules(str(PLANTED)).rules]
    assert brute.first_counterexamples(planted, 5) == [1, 2, 1]
    assert bitrel.scan_rule_pairs(planted, 5) == [1, 2, 1]


def test_verify_rules_matches_brute_scan_at_each_size():
    # one batch spans sizes 5, 6 and 7; at each size the answer is the
    # literal scan's.  The full size-5 scan of Figure 1 is criterion 1;
    # at 6 and 7 the scan covers the first 2^16 relations.
    rng = np.random.default_rng(400)
    figure1 = [(r.small, r.large) for r in figure1_rules().rules]
    planted = [(r.small, r.large) for r in load_rules(str(PLANTED)).rules]
    randoms = []
    while len(randoms) < 24:
        w1, w2 = sorted((_random_word(rng, 6), _random_word(rng, 6)), key=shortlex_key)
        if w1 != w2:
            randoms.append((w1, w2))
    pairs = figure1 + planted + randoms
    checks = verify_rules(make_system(pairs), exhaustive_size=5, sample_sizes=(6, 7))
    got = {5: [c.exhaustive_counterexample for c in checks]}
    for n in (6, 7):
        got[n] = [dict(c.sampled_failures).get(n) for c in checks]
    assert all(c.sampled_ok == (got[6][i] is None and got[7][i] is None)
               for i, c in enumerate(checks))
    assert brute.first_counterexamples(planted + randoms, 5) == got[5][len(figure1):]
    limit = 1 << 16
    for n in (6, 7):
        expected = brute.first_counterexamples(pairs, n, limit=limit)
        assert expected == [c if c is not None and c < limit else None for c in got[n]], n
    assert any(c is not None for c in got[7][len(figure1):])


def test_word_matrix_columns_and_products():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        for _ in range(20):
            w1, w2 = _random_word(rng, 5), _random_word(rng, 5)
            m1, m2 = np.array(bitrel.word_matrix(w1, n)), np.array(bitrel.word_matrix(w2, n))
            # the matrix of a concatenation is the Boolean product
            assert np.array_equal((m1 @ m2 > 0).astype(int), bitrel.word_matrix(w1 + w2, n))
            for j in range(n * n):
                rels, masks = brute.sliced([1 << j], n)
                column = brute.entries(bitrel.apply_word_packed(rels, w1, masks), masks)[0]
                assert sum(int(b) << i for i, b in enumerate(m1[:, j])) == column


def _panel_draws(n, count, seed):
    # the seeded stream of sample_panel: per batch of up to
    # bitrel._CHUNK relations, one getrandbits per pair on the stream
    # seeded with "seed/n", bit i for relation i of the batch
    rng = random.Random(f"{seed}/{n}")
    total, vals = max(count, 4), []
    for start in range(0, total, bitrel._CHUNK):
        width = min(bitrel._CHUNK, total - start)
        pairs = [rng.getrandbits(width) for _ in range(n * n)]
        vals += [sum((r >> i & 1) << p for p, r in enumerate(pairs)) for i in range(width)]
    full, diag = (1 << (n * n)) - 1, sum(1 << (x * n + x) for x in range(n))
    return [0, full, diag, full ^ diag] + vals[4:]


def test_sampled_counterexample_matches_direct_panel():
    # the shortcut through the singleton images never changes the answer
    rng = np.random.default_rng(37)
    separated = 0
    for n in (3, 4, 5, 6, 7):
        panel = bitrel.sample_panel(n, 500, 11)
        masks = bitrel.batch_masks([(n, 500)])
        relations = brute.entries(panel, masks)
        assert relations == _panel_draws(n, 500, 11)
        for _ in range(40):
            w1, w2 = _random_word(rng, 6), _random_word(rng, 6)
            a = brute.entries(bitrel.apply_word_packed(panel, w1, masks), masks)
            b = brute.entries(bitrel.apply_word_packed(panel, w2, masks), masks)
            direct = next((r for r, x, y in zip(relations, a, b) if x != y), None)
            assert bitrel.sampled_counterexample(w1, w2, n, 500, 11) == direct, (w1, w2, n)
            separated += direct is not None
    assert separated >= 100


def test_sample_panel_joins_its_batches():
    count = bitrel._CHUNK + 5
    masks = bitrel.batch_masks([(2, count)])
    assert brute.entries(bitrel.sample_panel(2, count, 11), masks) == _panel_draws(2, count, 11)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_verify_rules_exact_beyond_scan_sizes(n):
    # 2^36 .. 2^64 relations: every built-in rule holds exactly
    checks = verify_rules(figure1_rules(), exhaustive_size=n)
    assert sum(c.exhaustive_ok and c.sampled_ok for c in checks) == 21


def test_verify_rules_rejects_planted_rules():
    checks = verify_rules(load_rules(str(PLANTED)), exhaustive_size=5)
    assert [c.exhaustive_counterexample for c in checks] == [1, 2, 1]
    assert not any(c.exhaustive_ok or c.sampled_ok for c in checks)


def test_search_same_rules_for_every_oracle_seed():
    texts = set()
    for seed in (0, 1, 2):
        report = run_search(OracleConfig(seed=seed), 15, 10**6)
        assert report.cofinite
        # exact buckets: every oracle call admits a rule
        assert report.oracle_calls == len(report.rules.rules) == 43
        texts.add(format_rules(report.rules))
    assert len(texts) == 1


# sha256 of the rule text admitted at exhaustive sizes 3 and 4 with
# max_len 15, recorded when the oracle still checked seeded panels
_SEARCH_TEXT_SHA256 = {
    3: "1a9d23c2830304e853af728fdf5eceabfbb47a2c3e1302a99f64b09921c9c8c1",
    4: "effb75866f9f0c3787662d58cabd6f3711c0f3c7c95dc045734c728b4c700cc3",
}


@pytest.mark.parametrize("m", [3, 4])
def test_search_admits_only_exact_rules(m):
    report = run_search(OracleConfig(exhaustive_size=m), 15, 10**6)
    assert hashlib.sha256(format_rules(report.rules).encode()).hexdigest() == _SEARCH_TEXT_SHA256[m]
    # one key hit per admitted rule, and no rule is false at any size >= m
    assert report.oracle_calls == len(report.rules.rules)
    for rule in report.rules.rules:
        for n in range(m, 9):
            assert bitrel.words_equal_all_relations(rule.small, rule.large, n), (rule, n)


def test_search_budget_zero():
    report = run_search(CFG, max_len=4, budget=0)
    assert report.rules.rules == ()
    assert not report.cofinite
    assert report.stop_reason == "budget"


def test_search_len2_matches_builtin_short_rules():
    report = run_search(CFG, max_len=2, budget=10**6)
    got = {(r.small, r.large) for r in report.rules.rules}
    expected = {(r.small, r.large) for r in figure1_rules().rules if len(r.large) <= 2}
    assert got == expected
    assert len(got) == 7
    assert not report.cofinite
    assert report.stop_reason == "exhausted"


def test_search_deterministic():
    a = run_search(CFG, max_len=3, budget=10**5)
    b = run_search(CFG, max_len=3, budget=10**5)
    assert a == b


def test_search_completes_to_cofinite():
    report = run_search(CFG, max_len=15, budget=10**6)
    assert report.cofinite
    assert report.stop_reason == "cofinite"
    assert report.candidates_examined <= 10**6
    # every admitted rule is oracle-certified at sizes >= 5
    admission = OracleConfig(sample_sizes=(6,))
    for rule in report.rules.rules:
        assert word_equiv_oracle(rule.small, rule.large, admission)
    # freshness: no admitted large side contains an earlier one
    larges = [r.large for r in report.rules.rules]
    for i, later in enumerate(larges):
        for earlier in larges[:i]:
            assert not any(later[j:j + len(earlier)] == earlier
                           for j in range(len(later) - len(earlier) + 1))


def test_search_with_seed_rules():
    seven = make_system([(r.small, r.large) for r in figure1_rules().rules[:7]])
    report = run_search(CFG, max_len=2, budget=10**6, seed_rules=seven)
    # the seven short pairs are already present, so nothing new of
    # length <= 2 can be admitted
    assert len(report.rules.rules) == 7
    assert report.stop_reason == "exhausted"

    full = run_search(CFG, max_len=2, budget=10**6, seed_rules=figure1_rules())
    # a cofinite seed system short-circuits before any candidate
    assert full.stop_reason == "cofinite" and full.candidates_examined == 0


def test_search_seeded_cofinite_short_circuit():
    cfg = OracleConfig()
    complete = run_search(cfg, max_len=15, budget=10**6).rules
    again = run_search(cfg, max_len=15, budget=10**6, seed_rules=complete)
    assert again.cofinite
    assert len(again.rules.rules) == len(complete.rules)
    assert again.candidates_examined == 0


def _reference_search(cfg, max_len, budget, seed_rules=None):
    """The completion loop without its shortcuts: a full key per
    candidate and the cofiniteness decision after every admission."""
    rules = list(seed_rules.rules) if seed_rules else []
    larges = {r.large for r in rules}
    rep = is_cofinite([r.large for r in rules])
    survivors, by_fp, by_len = set(), {}, {}
    examined = oracle_calls = 0

    def report(reason):
        return SearchReport(make_system([(r.small, r.large) for r in rules]),
                            rep.cofinite, examined, oracle_calls, reason,
                            rep.max_complement_length, survivors=len(survivors))

    def keep(v, fp):
        survivors.add(v)
        by_fp[fp] = v
        by_len.setdefault(len(v), []).append(v)

    if rep.cofinite:
        return report("cofinite")
    keep((), word_fingerprint((), cfg))
    for length in range(1, max_len + 1):
        parents = by_len.get(length - 1, [])
        if not parents:
            break
        for v in (p + (x,) for p in parents for x in LETTERS):
            if v[1:] not in survivors or v in larges:
                continue
            if examined >= budget:
                return report("budget")
            examined += len(survivors)
            fp = word_fingerprint(v, cfg)
            if fp not in by_fp:
                keep(v, fp)
                continue
            oracle_calls += 1
            rules.append(Rule(by_fp[fp], v, len(rules) + 1))
            larges.add(v)
            rep = is_cofinite([r.large for r in rules])
            if rep.cofinite:
                return report("cofinite")
    return report("exhausted")


_GRID = ((15, 10**6), (2, 10**6), (6, 10**6), (15, 500), (15, 20_000))


@pytest.mark.parametrize("m", range(1, 8))
def test_search_matches_reference_loop(m):
    # keys built from one letter and cofiniteness re-decided only when
    # the lasso dies give the same report
    cfg = OracleConfig(exhaustive_size=m)
    for max_len, budget in _GRID:
        assert run_search(cfg, max_len, budget) == _reference_search(cfg, max_len, budget), \
            (max_len, budget)


def test_reference_grid_reaches_every_stop_reason():
    reasons = {_reference_search(CFG, max_len, budget).stop_reason for max_len, budget in _GRID}
    assert reasons == {"cofinite", "budget", "exhausted"}


def test_search_matches_reference_loop_with_seed_rules():
    seven = make_system([(r.small, r.large) for r in figure1_rules().rules[:7]])
    for max_len, budget in ((2, 10**6), (15, 10**6), (15, 500)):
        assert run_search(CFG, max_len, budget, seven) == _reference_search(CFG, max_len, budget, seven)
    # a cofinite seed stops before any candidate
    cofinite = figure1_rules()
    assert run_search(CFG, 15, 10**6, cofinite) == _reference_search(CFG, 15, 10**6, cofinite)


def test_verify_rules_passes_builtin_small():
    # exhaustive certification at size 4 is quick and already rules out
    # most transcription mistakes
    checks = verify_rules(figure1_rules(), exhaustive_size=4, sample_sizes=(5,),
                          samples_per_size=5000, seed=0, threads=1)
    assert all(c.exhaustive_ok and c.sampled_ok for c in checks)


def test_verify_rules_reports_failures():
    bogus = make_system([(parse_word("iI"), parse_word("iD iD"))])
    checks = verify_rules(bogus, exhaustive_size=3, sample_sizes=(4,),
                          samples_per_size=1000, seed=0, threads=1)
    assert not checks[0].exhaustive_ok
    assert checks[0].exhaustive_counterexample is not None
    assert not checks[0].sampled_ok
