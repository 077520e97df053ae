import hashlib
from pathlib import Path

import numpy as np
import pytest

import brute
from relfrag import bitrel
from relfrag.rewriting import figure1_rules, format_rules, load_rules, make_system
from relfrag.search import (OracleConfig, run_search, verify_rules,
                            word_equiv_oracle, word_fingerprint)
from relfrag.words import CONV, DOT_D, LETTERS, parse_word

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


def test_word_matrix_columns_and_products():
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        for _ in range(20):
            w1, w2 = _random_word(rng, 5), _random_word(rng, 5)
            m1, m2 = bitrel.word_matrix(w1, n), bitrel.word_matrix(w2, n)
            # the matrix of a concatenation is the Boolean product
            assert np.array_equal((m1.astype(int) @ m2 > 0).astype(np.uint8),
                                  bitrel.word_matrix(w1 + w2, n))
            for j in range(n * n):
                column = bitrel.apply_word_packed(np.array([1 << j], dtype=np.uint64), w1, n)[0]
                assert int(sum(int(b) << i for i, b in enumerate(m1[:, j]))) == int(column)


def test_sampled_counterexample_matches_direct_panel():
    # the shortcut through the singleton images never changes the answer
    rng = np.random.default_rng(37)
    separated = 0
    for n in (3, 4, 5, 6, 7):
        panel = bitrel.sample_panel(n, 500, 11)
        for _ in range(40):
            w1, w2 = _random_word(rng, 6), _random_word(rng, 6)
            a = bitrel.apply_word_packed(panel, w1, n)
            b = bitrel.apply_word_packed(panel, w2, n)
            bad = np.nonzero(a != b)[0]
            direct = int(panel[int(bad[0])]) if bad.size else None
            assert bitrel.sampled_counterexample(w1, w2, n, 500, 11) == direct, (w1, w2, n)
            separated += direct is not None
    assert separated >= 100


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
