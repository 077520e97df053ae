import json
from pathlib import Path

import pytest

from relfrag.cli import main
from relfrag.semantics import structure_from_json

PLANTED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "planted_false_rules.txt"


@pytest.fixture()
def run(capsys):
    def _run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def test_equiv_exit_codes_and_witness(run):
    code, out, _ = run("equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel")
    assert code == 1
    assert '"size": 1' in out

    code, out, _ = run("equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel>=3")
    assert code == 0

    code, out, _ = run("equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c",
                       "--samples", "64")
    assert code == 2


def test_equiv_json_schema(run):
    code, out, _ = run("equiv", "--lhs", "a & I", "--rhs", "(a & I) & I", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "equivalent"
    assert obj["justification"]["kind"] == "one-occurrence"
    assert obj["witness"] is None

    code, out, _ = run("equiv", "--lhs", "a ; a^", "--rhs", "a^ ; a", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "inequivalent"
    witness = structure_from_json(json.dumps(obj["witness"]))
    assert witness.size <= 3

    code, out, _ = run("equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c",
                       "--samples", "64", "--json")
    obj = json.loads(out)
    assert obj["verdict"] == "unknown"
    assert obj["checked"]["lo"] == 1 and obj["checked"]["samples"] > 0


def test_eval_subcommand(run, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"size": 2, "relations": {"a": [[0, 1]]}}', encoding="utf-8")
    code, out, _ = run("eval", "--term", "a ; a^", "--structure", str(path))
    assert code == 0
    assert out.splitlines() == ["0 0"]
    code, out, _ = run("eval", "--term", "a^", "--structure", str(path), "--json")
    assert json.loads(out) == {"size": 2, "pairs": [[1, 0]]}


def test_eval_rejects_bad_structure(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "relations": {"a": [[0, 7]]}}', encoding="utf-8")
    code, _, err = run("eval", "--term", "a", "--structure", str(path))
    assert code == 65
    assert "out of range" in err


def test_vo_and_level(run):
    assert run("vo", "--term", "(a;b);(I;(a;b))")[:2] == (0, "4\n")
    code, out, _ = run("level", "--term", "a;(b$c)", "--json")
    assert json.loads(out) == {"vo": 3, "sigma_level": 2, "pi_level": 3}


def test_normalize_subcommand(run):
    code, out, _ = run("normalize", "--word", "cv cv iI")
    assert (code, out) == (0, "iI\n")
    code, out, _ = run("normalize", "--word", "cD cD cD cD", "--json")
    obj = json.loads(out)
    assert obj == {"normal_form": "cD cD", "trace": [[13, 0], [13, 0]]}
    code, _, err = run("normalize", "--word", "zz")
    assert code == 65


def test_cofinite_subcommand(run):
    code, out, _ = run("cofinite", "builtin:figure1", "--json")
    assert code == 0
    assert json.loads(out) == {"cofinite": True, "max_length": 28, "count": 1810}
    code, out, _ = run("cofinite", "--rules", "builtin:figure1")
    assert code == 0 and "28" in out


def test_cofinite_not(run, tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("iI = iI iI\n", encoding="utf-8")
    code, out, _ = run("cofinite", str(path), "--json")
    assert code == 1
    assert json.loads(out)["cofinite"] is False


def test_enumerate_and_count(run):
    code, out, _ = run("enumerate-irreducible", "builtin:figure1", "--limit", "5")
    assert code == 0
    assert out.splitlines() == ["eps", "iI", "iD", "cD", "cv"]
    code, out, _ = run("count-irreducible", "builtin:figure1")
    assert (code, out) == (0, "1810\n")


def test_search_subcommand(run, tmp_path):
    emit = tmp_path / "found.txt"
    code, out, _ = run("search", "--max-len", "2", "--budget", "100000",
                       "--emit", str(emit), "--json")
    assert code == 1  # not yet cofinite
    obj = json.loads(out)
    assert len(obj["rules"]) == 7 and obj["cofinite"] is False
    text = emit.read_text(encoding="utf-8")
    assert "eps = cv cv" in text
    # the emitted file parses back
    code, out, _ = run("cofinite", str(emit), "--json")
    assert json.loads(out)["cofinite"] is False


def test_export_dfa(run, tmp_path):
    out_path = tmp_path / "dfa.dot"
    code, _, _ = run("export-dfa", "builtin:figure1", "--kind", "minimal",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert text.count("doublecircle") == 1


def test_export_smt_and_tptp(run, tmp_path):
    code, out, _ = run("export-smt", "--lhs-word", "cD cD", "--rhs-word", "cD cD cD")
    assert code == 0
    assert out.startswith("(set-logic UF)")
    code, out, _ = run("export-tptp", "--lhs", "a & I", "--rhs", "(a & I) & I")
    assert code == 0
    assert "fof(equation, conjecture," in out
    path = tmp_path / "ob.smt2"
    code, _, _ = run("export-smt", "--lhs", "a", "--rhs", "a", "--out", str(path))
    assert path.read_text(encoding="utf-8").endswith("(check-sat)\n")


def test_export_requires_one_side_form(run):
    code, _, err = run("export-smt", "--lhs", "a", "--lhs-word", "iI", "--rhs", "a")
    assert code == 64


def test_verify_rules_subcommand_small(run, tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("iI = iI iI\ncD cD = cD cD cD\n", encoding="utf-8")
    code, out, _ = run("verify-rules", str(path), "--exhaustive-size", "4",
                       "--sample-sizes", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule 1: PASS"
    assert lines[1] == "rule 2: PASS"
    assert "2/2 rules pass" in lines[2]

    bad = tmp_path / "bad.txt"
    bad.write_text("iI = iD iD\n", encoding="utf-8")
    code, out, _ = run("verify-rules", str(bad), "--exhaustive-size", "3",
                       "--sample-sizes", "4", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] == 0 and obj["rules"][0]["pass"] is False


def test_verify_rules_reports_exact_failures_beyond_size_5(run, tmp_path):
    # {(0,0)} separates these sides at sizes 5, 6 and 7; a seeded panel
    # at 6 and 7 missed it
    path = tmp_path / "r.txt"
    path.write_text("cD cv cD cD = cD cD cv cD cD\n", encoding="utf-8")
    code, out, _ = run("verify-rules", str(path), "--json")
    assert code == 1
    assert json.loads(out)["rules"][0]["sampled_failures"] == [[6, 1], [7, 1]]

    code, out, _ = run("verify-rules", str(PLANTED), "--json")
    assert code == 1
    assert [r["sampled_failures"] for r in json.loads(out)["rules"]] == \
        [[[6, 1], [7, 1]], [[6, 2], [7, 2]], [[6, 1], [7, 1]]]


def test_removed_oracle_flags_are_usage_errors(run):
    assert run("search", "--max-len", "2", "--samples", "64")[0] == 64
    assert run("verify-rules", "builtin:figure1", "--seed", "1")[0] == 64
    assert run("equiv", "--lhs", "a", "--rhs", "a", "--threads", "2")[0] == 64


def test_usage_errors(run):
    code, _, err = run("equiv", "--lhs", "a")
    assert code == 64
    code, _, err = run("nonsense")
    assert code == 64
    code, _, err = run("cofinite")
    assert code == 64


def test_input_errors(run):
    code, _, err = run("equiv", "--lhs", "a &", "--rhs", "a")
    assert code == 65
    code, _, err = run("equiv", "--lhs", "a", "--rhs", "a", "--mode", "sometimes")
    assert code == 65
    code, _, err = run("normalize", "--word", "iI", "--rules", "builtin:nope")
    assert code == 65


def test_union_blowup_is_unknown_not_an_input_error(run):
    # valid input whose union normal form would have 2^21 disjuncts; it
    # is a true identity, decided without distributing the unions
    lhs = "a" + " & (I|D)" * 21
    code, out, err = run("equiv", "--lhs", lhs, "--rhs", "a", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"
    assert err == ""


def test_equiv_mixed_variables_constant_sides(run):
    # both sides are empty on every structure; no enumeration of pairs
    # of relations is needed to say so
    code, out, err = run("equiv", "--lhs", "a & bot", "--rhs", "b & bot")
    assert code == 0
    assert out == "equivalent (one-occurrence)\n"
    assert err == ""


@pytest.mark.parametrize("command", ["equiv", "vo"])
def test_deep_nesting_is_an_input_error(run, command):
    deep = "(" * 2000 + "a" + ")" * 2000
    args = ("equiv", "--lhs", deep, "--rhs", "a") if command == "equiv" else ("vo", "--term", deep)
    code, out, err = run(*args)
    assert code == 65
    assert out == ""
    assert err == "input error: input nested too deeply\n"


def test_deep_nesting_exit_code_in_a_fresh_process():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    deep = "(" * 2000 + "a" + ")" * 2000
    proc = subprocess.run([sys.executable, "-m", "relfrag.cli", "equiv", "--lhs", deep, "--rhs", "a"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_exits_70(run, monkeypatch):
    import relfrag.cli as cli

    def boom(_term):
        raise ZeroDivisionError("simulated fault")

    monkeypatch.setattr(cli, "vo", boom)
    code, out, err = run("vo", "--term", "a")
    assert code == 70
    assert out == ""
    assert err == "internal error: ZeroDivisionError: simulated fault\n"


def test_determinism_byte_identical(run):
    args = ("equiv", "--lhs", "a ; a^", "--rhs", "a^ ; a", "--json", "--seed", "5")
    first = run(*args)
    second = run(*args)
    assert first == second
