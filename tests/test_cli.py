import json
import os
import subprocess
import sys
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

    code, out, _ = run("equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^",
                       "--samples", "64")
    assert code == 2

    code, out, _ = run("equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c")
    assert (code, out) == (0, "equivalent (small-model)\n")


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

    code, out, _ = run("equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^",
                       "--samples", "64", "--json")
    obj = json.loads(out)
    assert obj["verdict"] == "unknown"
    assert obj["checked"]["lo"] == 1 and obj["checked"]["samples"] > 0

    code, out, _ = run("equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c", "--json")
    assert code == 0
    assert json.loads(out)["justification"] == {"kind": "small-model", "sizes": [1, 2, 3, 4],
                                                "structures": 17}


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
    # complements are pushed down first: (a;b)~ is a~ $ b~
    assert run("level", "--term", "(a;b)~") == (0, "vo=2 sigma=2 pi=1\n", "")
    code, out, _ = run("level", "--term", "(a;b)~", "--json")
    assert json.loads(out) == {"vo": 2, "sigma_level": 2, "pi_level": 1}


def test_equiv_complement_above_dagger_is_one_occurrence(run):
    # (a $ D)~ is a~ ; I, so the pair takes the exact one-occurrence route
    code, out, err = run("equiv", "--lhs", "(a $ D)~", "--rhs", "a~ ; I")
    assert (code, out, err) == (0, "equivalent (one-occurrence)\n", "")


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


def test_search_output_certifies_with_verify_rules(run, tmp_path):
    emit = tmp_path / "found.txt"
    code, _, _ = run("search", "--max-len", "15", "--budget", "1000000", "--emit", str(emit))
    assert code == 0
    code, out, _ = run("verify-rules", str(emit), "--json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["passed"], obj["total"]) == (43, 43)


def test_removed_oracle_flags_are_usage_errors(run):
    assert run("search", "--max-len", "2", "--samples", "64")[0] == 64
    assert run("verify-rules", "builtin:figure1", "--seed", "1")[0] == 64
    assert run("equiv", "--lhs", "a", "--rhs", "a", "--threads", "2")[0] == 64
    assert run("export-smt", "--lhs", "a", "--rhs", "a", "--out", "f",
               "--run-solver", "z3")[0] == 64
    assert run("normalize", "--word", "iI", "--trace")[0] == 64


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
    code, _, err = run("verify-rules", "builtin:figure1", "--sample-sizes", "9")
    assert (code, err) == (65, "input error: rule certification sizes must be in 1..8, got 9\n")
    code, _, err = run("search", "--max-len", "2", "--exhaustive-size", "9")
    assert (code, err) == (65, "input error: exhaustive_size must be in 1..8\n")
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


def _fresh_python(*args, cwd=None):
    """Run a new interpreter with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=60)


def test_deep_nesting_exit_code_in_a_fresh_process():
    deep = "(" * 2000 + "a" + ")" * 2000
    proc = _fresh_python("-m", "relfrag.cli", "equiv", "--lhs", deep, "--rhs", "a")
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr


# runs each command line given as a JSON list in argv[1] through
# cli.main in this one process, then prints the exit codes and the
# relfrag modules and numpy as far as they were loaded
_LOADED = """
import contextlib, io, json, sys
from relfrag import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("relfrag."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

README_WITHOUT_KERNEL = [
    ["vo", "--term", "(a;b);(I;(a;b))"],
    ["level", "--term", "a;(b$c)"],
    ["normalize", "--word", "cv cv iI"],
    ["cofinite", "builtin:figure1", "--json"],
    ["count-irreducible", "builtin:figure1"],
    ["enumerate-irreducible", "builtin:figure1", "--limit", "5"],
    ["export-dfa", "builtin:figure1", "--kind", "minimal", "--out", "dfa.dot"],
    ["export-smt", "--lhs-word", "cD cD", "--rhs-word", "cD cD cD", "--min-size", "5",
     "--out", "ob.smt2"],
    ["export-tptp", "--lhs", "a & I", "--rhs", "(a & I) & I", "--min-size", "5"],
]


def _loaded_by(commands, cwd):
    proc = _fresh_python("-c", _LOADED, json.dumps(commands), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_the_kernel_load_no_numpy(tmp_path):
    # nine README commands run without numpy and without the modules
    # that decide, search or evaluate relations
    got = _loaded_by(README_WITHOUT_KERNEL, tmp_path)
    assert got["codes"] == [0] * len(README_WITHOUT_KERNEL)
    assert {"numpy", "relfrag.semantics", "relfrag.decide", "relfrag.search"}.isdisjoint(got["loaded"])
    assert (tmp_path / "dfa.dot").exists() and (tmp_path / "ob.smt2").exists()


def test_eval_loads_no_decision_route(tmp_path):
    (tmp_path / "m.json").write_text('{"size": 2, "relations": {"a": [[0, 1]]}}')
    got = _loaded_by([["eval", "--term", "a ; a^", "--structure", "m.json"]], tmp_path)
    assert got["codes"] == [0]
    assert "relfrag.semantics" in got["loaded"]
    assert {"relfrag.decide", "relfrag.search"}.isdisjoint(got["loaded"])


# the README lines decided by the constant classes, which evaluate
# with the scalar relations only
README_CONSTANT_EQUIV = [
    ["equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel"],
    ["equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel>=3"],
]


def test_eval_and_constant_equiv_load_no_kernel(tmp_path):
    (tmp_path / "m.json").write_text('{"size": 2, "relations": {"a": [[0, 1]]}}')
    got = _loaded_by([["eval", "--term", "a ; a^", "--structure", "m.json"],
                      *README_CONSTANT_EQUIV], tmp_path)
    assert got["codes"] == [0, 1, 0]
    assert {"numpy", "relfrag.bitrel", "relfrag.fo"}.isdisjoint(got["loaded"])


def _imported_at_start(args, cwd):
    """The modules a fresh interpreter imports, read from ``-X importtime``."""
    proc = _fresh_python("-X", "importtime", *args, cwd=cwd)
    lines = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return proc.returncode, set(lines[1:])  # the first line is the header


def test_quick_commands_start_without_dataclasses_or_inspect(tmp_path):
    # the twelve quick README commands; a host whose interpreter start
    # already imports one of the two cannot tell, so it is left out
    _, bare = _imported_at_start(["-c", "pass"], tmp_path)
    watched = {"dataclasses", "inspect"} - bare
    if not watched:
        pytest.skip("the bare interpreter start imports dataclasses and inspect")
    (tmp_path / "m.json").write_text('{"size": 2, "relations": {"a": [[0, 1]]}}')
    commands = [*README_CONSTANT_EQUIV, ["eval", "--term", "a ; a^", "--structure", "m.json"],
                *README_WITHOUT_KERNEL]
    assert len(commands) == 12
    for argv in commands:
        code, imported = _imported_at_start(["-m", "relfrag.cli", *argv], tmp_path)
        assert code == (1 if argv[-1] == "rel" else 0), argv
        assert "relfrag.terms" in imported
        assert watched.isdisjoint(imported), argv


def test_batch_route_loads_the_kernel(tmp_path):
    got = _loaded_by([["equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c"]], tmp_path)
    assert got["codes"] == [0]
    assert "relfrag.bitrel" in got["loaded"] and "numpy" not in got["loaded"]


# every route runs on the bit-sliced kernel and the standard library's
# seeded stream alone
KERNEL_WITHOUT_NUMPY = [
    ["equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c"],
    ["equiv", "--lhs", "a ; D", "--rhs", "a", "--mode", "rel>=3"],
    ["verify-rules", "builtin:figure1"],
    ["search", "--max-len", "15", "--budget", "1000000"],
    ["equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^", "--samples", "64"],
]


def test_no_command_loads_numpy(tmp_path):
    got = _loaded_by(KERNEL_WITHOUT_NUMPY, tmp_path)
    assert got["codes"] == [0, 1, 0, 0, 2]
    assert "relfrag.bitrel" in got["loaded"] and "numpy" not in got["loaded"]


def test_negative_seed_is_an_input_error_once_sampling_starts(run):
    # the bounded route refuses the seed before its first draw
    code, out, err = run("equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^",
                         "--samples", "10", "--seed", "-1")
    assert (code, out, err) == (65, "", "input error: expected non-negative integer\n")
    # a pair separated before any sampling never reads the seed
    code, out, err = run("equiv", "--lhs", "a;b", "--rhs", "b;a", "--seed", "-1")
    assert (code, err) == (1, "")
    assert out == 'inequivalent; witness: {"size": 2, "relations": {"a": [[1, 1]], "b": [[1, 0]]}}\n'


def test_semantics_alone_loads_no_numpy():
    proc = _fresh_python("-c", "import sys, relfrag.semantics; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("text", [
    '{"size": 2, "relations": {"a": 5}}',
    '{"size": 2, "relations": {"a": null}}',
    '{"size": true, "relations": {}}',
    '{"size": 2, "relations": {"a": [[0, true]]}}',
])
def test_malformed_structure_is_an_input_error(run, tmp_path, text):
    # pair lists that are not lists, and booleans where integers belong
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("eval", "--term", "a", "--structure", str(path))
    assert (code, out) == (65, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_unknown_beyond_packed_sizes_claims_no_coverage(run):
    # a level-2 pair takes the bounded route, and the oracles stop at
    # 8 points: nothing is exhausted and nothing is sampled
    code, out, err = run("equiv", "--lhs", "a;(b$c)", "--rhs", "(a;b)$c", "--mode", "rel>=9")
    assert code == 2
    assert out == "unknown (exhausted no size, 0 samples)\n"
    assert err == ""


def test_one_occurrence_witness_beyond_packed_sizes(run):
    # the size-5 basis witness is carried to size 9 with the same pairs
    code, out, _ = run("equiv", "--lhs", "a", "--rhs", "a;D", "--mode", "rel>=9", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["witness"] == {"size": 9, "relations": {"a": [[0, 0]]}}


def test_bounded_route_samples_at_the_mode_minimum(run):
    # the default oracle sizes 5 and 6 lie below rel>=7; the route
    # samples at size 7 instead, where this level-2 pair separates
    code, out, err = run("equiv", "--lhs", "a;(b$c)", "--rhs", "(a;b)$c", "--mode", "rel>=7",
                         "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["witness"]["size"] == 7


def test_unknown_separates_sampled_from_exhausted_sizes(run):
    # in mode rel>=5 the bounded route exhausts no size; sizes 5 and 6
    # are only sampled
    code, out, _ = run("equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^", "--mode", "rel>=5",
                       "--samples", "64", "--json")
    assert code == 2
    assert json.loads(out)["checked"] == {"lo": None, "hi": None, "samples": 128,
                                          "sampled": [5, 6], "reason": "not exists-forall",
                                          "seed": 0}
    code, out, _ = run("equiv", "--lhs", "(a;(b$c))^", "--rhs", "(c^$b^);a^", "--samples", "64")
    assert out == "unknown (exhausted sizes 1..2, 256 samples at sizes 3,4,5,6)\n"


def test_equiv_syntactic_equality(run):
    # a mixed-polarity dagger, identical on both sides, in every mode
    for mode in ("rel", "rel>=3", "rel>=9"):
        code, out, _ = run("equiv", "--lhs", "a$a~", "--rhs", "a$a~", "--mode", mode)
        assert (code, out) == (0, "equivalent (syntactic)\n")


def test_unknown_reason_and_seed_in_json(run):
    code, out, _ = run("equiv", "--lhs", "a;(b;c)", "--rhs", "(a;b);c", "--mode", "rel>=9",
                       "--seed", "7", "--json")
    assert code == 2
    checked = json.loads(out)["checked"]
    assert (checked["reason"], checked["seed"]) == ("beyond 8 points", 7)
