"""The four workloads: inputs from the seed, one unit of work, and the
independent check of each output.

Every workload is a closed loop with one client in this process: the
next unit starts when the previous one has finished.  Program
functions are looked up through their modules at call time, so the
traced run sees the calls.  See README.md for why each workload was
chosen.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import reference as ref
from querygen import QueryGen

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# a decide query counts as decided when definite within this limit;
# today's slowest query takes well under half a second
DECIDE_LIMIT_S = 2.0
# `relfrag equiv` defaults: exhaustive size 5, samples at sizes 5 and 6
EQUIV_ORACLE = dict(exhaustive_size=5, sample_sizes=(5, 6), samples_per_size=100_000, seed=0)
# `relfrag verify-rules` defaults, on one thread
VERIFY = dict(exhaustive_size=5, sample_sizes=(6, 7), samples_per_size=100_000, seed=0, threads=1)

# Figure 1 rule numbers per certify unit ("P" marks a planted false
# rule), balanced by measured single-rule scan times; one pass over all four
# is the README `verify-rules builtin:figure1` plus the planted file.
CERTIFY_BATCHES = (
    (20, 16, 6, 9),
    (21, 14, 10, 2, 5, "P3"),
    (19, 15, 12, 3, "P1", "P2"),
    (17, 18, 13, 11, 8, 7, 4, 1),
)


class Unit:
    """Outcome of one unit: ok is the check's verdict, decided whether
    it gave a definite answer, note a reason when not ok."""

    __slots__ = ("ok", "decided", "note")

    def __init__(self, ok: bool, decided: bool = True, note: str = ""):
        self.ok, self.decided, self.note = ok, decided, note


class Workload:
    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, seconds: float) -> Unit:
        raise NotImplementedError

    def traced_call(self, inp):
        """The call a traced run makes twice, untraced and traced."""
        return self.run(inp)

    def summary(self) -> str:
        """One line on what the checked outputs established."""
        return ""

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# certify


class Certify(Workload):
    """One unit certifies one batch of rules by brute force at size 5."""

    def __init__(self, seed: int):
        figure1 = ref.parse_rules((DATA / "figure1_rules.txt").read_text())
        planted = ref.parse_rules((DATA / "planted_false_rules.txt").read_text())
        self.rules = {i: r for i, r in enumerate(figure1, start=1)}
        self.rules.update({f"P{i}": r for i, r in enumerate(planted, start=1)})
        # truth from the reference: equal on all relations of size 5, and of sizes 5..7
        self.valid5 = {key: not ref.words_separator(s, l, 5) for key, (s, l) in self.rules.items()}
        self.valid = {key: self.valid5[key] and not any(ref.words_separator(s, l, n) for n in (6, 7))
                      for key, (s, l) in self.rules.items()}
        if not all(self.valid[i] for i in range(1, 22)) or \
                any(self.valid5[f"P{i}"] for i in range(1, 4)):
            raise RuntimeError("rule data disagrees with the reference evaluator")
        self.start = seed % len(CERTIFY_BATCHES)
        self.confirmed: set = set()

    def inputs(self):
        k = self.start
        while True:
            keys = CERTIFY_BATCHES[k % len(CERTIFY_BATCHES)]
            text = "".join(f"{ref.show_word(self.rules[key][0])} = "
                           f"{ref.show_word(self.rules[key][1])}\n" for key in keys)
            yield keys, text
            k += 1

    def run(self, inp):
        from relfrag import rewriting, search
        checks = search.verify_rules(rewriting.parse_rules(inp[1]), **VERIFY)
        return [(c.exhaustive_ok, c.exhaustive_counterexample, c.sampled_ok,
                 tuple(c.sampled_failures)) for c in checks]

    def check(self, inp, out, seconds):
        keys = inp[0]
        if len(out) != len(keys):
            return Unit(False, note=f"{len(out)} checks for {len(keys)} rules")
        for key, (exh_ok, cex, sampled_ok, failures) in zip(keys, out):
            small, large = self.rules[key]
            passed = exh_ok and sampled_ok
            if passed != self.valid[key] or exh_ok != self.valid5[key]:
                return Unit(False, note=f"rule {key}: pass={passed} (size 5: {exh_ok}), reference "
                                        f"says {self.valid[key]} (size 5: {self.valid5[key]})")
            witnesses = ([(5, cex)] if cex is not None else []) + list(failures)
            if not passed and not witnesses:
                return Unit(False, note=f"rule {key} failed without a counterexample")
            for n, bits in witnesses:
                rel = ref.unpack(bits, n)
                if ref.apply_word(small, rel, n) == ref.apply_word(large, rel, n):
                    return Unit(False, note=f"rule {key}: counterexample {bits} at size {n} "
                                            "does not separate")
        self.confirmed.update(keys)
        return Unit(True)

    def summary(self):
        passed = sum(isinstance(k, int) for k in self.confirmed)
        rejected = len(self.confirmed) - passed
        return f"Figure 1 rules certified: {passed}/21; planted false rules rejected: {rejected}/3"


def probe_certify(seed: int) -> None:
    from relfrag import rewriting, search
    search.verify_rules(rewriting.parse_rules("iI iD = iD iI\n"), **VERIFY)


# ---------------------------------------------------------------------------
# discover


class Discover(Workload):
    """One unit is the README search with a fresh oracle seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.confirmed = 0
        self.expected = (DATA / "search_rules_43.txt").read_text()
        rules = ref.parse_rules(self.expected)
        longest, _ = ref.leftover_language([large for _, large in rules])
        # the paper: 43 rules, boundary 11; every rule must hold at sizes 5..7
        if len(rules) != 43 or longest != 11 or any(
                ref.shortlex_key(s) >= ref.shortlex_key(l) or
                any(ref.words_separator(s, l, n) for n in (5, 6, 7)) for s, l in rules):
            raise RuntimeError("expected search output disagrees with the reference evaluator")

    def inputs(self):
        while True:
            yield self.rng.randrange(1 << 31)

    def run(self, inp):
        from relfrag import rewriting, search
        rep = search.run_search(search.OracleConfig(seed=inp), max_len=15, budget=10**6)
        return (rewriting.format_rules(rep.rules), rep.cofinite, rep.stop_reason,
                rep.max_complement_length)

    def summary(self):
        return f"oracle seeds giving the 43-rule, boundary-11 system: {self.confirmed}"

    def check(self, inp, out, seconds):
        text, cofinite, reason, longest = out
        if text != self.expected:
            return Unit(False, note=f"oracle seed {inp}: rule text differs from the 43-rule system")
        if not cofinite or reason != "cofinite" or longest != 11:
            return Unit(False, note=f"oracle seed {inp}: cofinite={cofinite} stop={reason} "
                                    f"boundary={longest}")
        self.confirmed += 1
        return Unit(True)


def probe_discover(seed: int) -> None:
    from relfrag import search
    search.run_search(search.OracleConfig(seed=seed), max_len=2, budget=10**6)


# ---------------------------------------------------------------------------
# decide


def _verdict_summary(v) -> tuple:
    from relfrag import decide, semantics
    if isinstance(v, decide.Equivalent):
        return ("equivalent", json.dumps(v.justification, sort_keys=True))
    if isinstance(v, decide.Inequivalent):
        return ("inequivalent", semantics.structure_to_json(v.witness))
    return ("unknown", f"{v.checked.lo}..{v.checked.hi}/{v.samples}")


class Decide(Workload):
    """One unit is one generated equivalence query."""

    def __init__(self, seed: int):
        from relfrag import search
        self.gen = QueryGen(seed)
        self.cfg = search.OracleConfig(**EQUIV_ORACLE)
        self.verdicts = {"equivalent": 0, "inequivalent": 0, "unknown": 0}

    def summary(self):
        v = self.verdicts
        return (f"verdicts: {v['equivalent']} equivalent, {v['inequivalent']} inequivalent "
                f"(every witness confirmed), {v['unknown']} unknown")

    def inputs(self):
        return self.gen

    def run(self, q):
        from relfrag import decide, terms, words
        if q.route == "word":
            v = decide.decide_word_equiv(words.parse_word(q.lhs), words.parse_word(q.rhs), self.cfg)
        else:
            v = decide.decide_terms(terms.parse_term(q.lhs), terms.parse_term(q.rhs),
                                    decide.parse_mode(q.mode), self.cfg)
        return _verdict_summary(v)

    def check(self, q, out, seconds):
        kind, detail = out
        lo = 5 if q.route == "word" else (1 if q.mode == "rel" else int(q.mode[5:]))
        if kind == "equivalent" and q.known == "inequivalent":
            return Unit(False, False, f"query {q.index}: equivalent, but the reference "
                                      f"separated it ({q.why})")
        if kind == "inequivalent":
            n, env = ref.structure_env(detail)
            t1, t2 = q.trees
            if q.route == "word":
                a = env.get("a", set())
                same = ref.apply_word(t1, a, n) == ref.apply_word(t2, a, n)
            else:
                same = ref.evaluate(t1, n, env) == ref.evaluate(t2, n, env)
            if same:
                return Unit(False, False, f"query {q.index}: witness does not separate")
            if q.known == "equivalent" and n >= lo:
                return Unit(False, False, f"query {q.index}: witness of size {n} contradicts "
                                          f"{q.why}")
            if q.route != "word" and n < lo:
                return Unit(False, False, f"query {q.index}: witness size {n} below mode {q.mode}")
        self.verdicts[kind] += 1
        return Unit(True, kind != "unknown" and seconds <= DECIDE_LIMIT_S)


def probe_decide(seed: int) -> None:
    from relfrag import decide, search, terms, words
    cfg = search.OracleConfig(**EQUIV_ORACLE)
    decide.decide_terms(terms.parse_term("D;D"), terms.parse_term("top"), decide.parse_mode("rel>=3"), cfg)
    decide.decide_terms(terms.parse_term("(a^)^"), terms.parse_term("a"), decide.parse_mode("rel"), cfg)
    decide.decide_word_equiv(words.parse_word("cD cD"), words.parse_word("cD cD cD"), cfg)


# ---------------------------------------------------------------------------
# cli


def _work_dir() -> Path:
    d = HERE / "_work"
    d.mkdir(exist_ok=True)
    return d


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """One unit is one README command in a fresh interpreter."""

    OUTPUT_FILES = {"export_dfa": "dfa.dot", "export_smt": "ob.smt2"}

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.env = _child_env(root)
        self.work = _work_dir()
        self.max_rss_kb = 0
        self.figure1_large = [large for _, large in
                              ref.parse_rules((DATA / "figure1_rules.txt").read_text())]

    def _commands(self, structure: Path):
        w = self.work
        return [
            ("equiv_rel", ["equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel"]),
            ("equiv_rel3", ["equiv", "--lhs", "D;D", "--rhs", "top", "--mode", "rel>=3"]),
            ("eval", ["eval", "--term", "a ; a^", "--structure", str(structure)]),
            ("vo", ["vo", "--term", "(a;b);(I;(a;b))"]),
            ("level", ["level", "--term", "a;(b$c)"]),
            ("normalize", ["normalize", "--word", "cv cv iI"]),
            ("cofinite", ["cofinite", "builtin:figure1", "--json"]),
            ("count", ["count-irreducible", "builtin:figure1"]),
            ("enumerate", ["enumerate-irreducible", "builtin:figure1", "--limit", "5"]),
            ("export_dfa", ["export-dfa", "builtin:figure1", "--kind", "minimal",
                            "--out", str(w / self.OUTPUT_FILES["export_dfa"])]),
            ("export_smt", ["export-smt", "--lhs-word", "cD cD", "--rhs-word", "cD cD cD",
                            "--min-size", "5", "--out", str(w / self.OUTPUT_FILES["export_smt"])]),
            ("export_tptp", ["export-tptp", "--lhs", "a & I", "--rhs", "(a & I) & I",
                             "--min-size", "5"]),
        ]

    def inputs(self):
        """Rounds of the twelve commands in a seeded order; each round
        evaluates `a ; a^` on a fresh seeded structure."""
        rnd = 0
        while True:
            n = self.rng.randint(2, 4)
            pairs = sorted((x, y) for x in range(n) for y in range(n) if self.rng.random() < 0.4)
            structure = self.work / f"m{rnd % 2}.json"
            structure.write_text(json.dumps({"size": n, "relations": {"a": [list(p) for p in pairs]}}))
            expected_eval = sorted(ref.evaluate((";", ("var", "a"), ("proj", ("var", "a"), 2, 1)),
                                                n, {"a": set(pairs)}))
            cmds = self._commands(structure)
            self.rng.shuffle(cmds)
            for name, argv in cmds:
                yield name, argv, expected_eval
            rnd += 1

    def _clear_outputs(self, name):
        if name in self.OUTPUT_FILES:
            (self.work / self.OUTPUT_FILES[name]).unlink(missing_ok=True)

    def run(self, inp):
        name, argv, _ = inp
        self._clear_outputs(name)
        with open(self.work / "stderr.txt", "wb") as err, \
                subprocess.Popen([sys.executable, "-m", "relfrag.cli", *argv], env=self.env,
                                 cwd=self.work, stdout=subprocess.PIPE, stderr=err) as p:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return p.returncode, out.decode(), self._read_outputs(name)

    def _read_outputs(self, name):
        path = self.work / self.OUTPUT_FILES.get(name, "-")
        return path.read_text() if name in self.OUTPUT_FILES and path.exists() else None

    def traced_call(self, inp):
        """In-process `relfrag.cli.main` on the same arguments."""
        from relfrag import cli
        name, argv, _ = inp
        self._clear_outputs(name)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue(), self._read_outputs(name)

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0

    def check(self, inp, out, seconds):
        name, _, expected_eval = inp
        code, stdout, written = out
        lines = stdout.strip().splitlines()
        try:
            if name == "equiv_rel":
                prefix = "inequivalent; witness: "
                if code != 1 or not stdout.startswith(prefix):
                    raise ValueError(f"exit {code}: {stdout.strip()[:80]}")
                n, env = ref.structure_env(stdout[len(prefix):])
                dd = (";", ("D",), ("D",))
                if ref.evaluate(dd, n, env) == ref.evaluate(("top",), n, env):
                    raise ValueError("witness does not separate D;D from top")
            elif name == "equiv_rel3":
                if code != 0 or not stdout.startswith("equivalent"):
                    raise ValueError(f"exit {code}: {stdout.strip()[:80]}")
            elif name == "eval":
                got = sorted(tuple(map(int, line.split())) for line in lines)
                if code != 0 or got != expected_eval:
                    raise ValueError(f"exit {code}: {got} != {expected_eval}")
            elif name == "enumerate":
                words = [ref.parse_word(line) for line in lines]
                keys = [ref.shortlex_key(w) for w in words]
                if code != 0 or len(words) != 5 or keys != sorted(set(keys)) or any(
                        w[i:i + len(p)] == p for w in words for p in self.figure1_large
                        for i in range(len(w) - len(p) + 1)):
                    raise ValueError(f"exit {code}: {lines}")
            elif name in ("export_dfa", "export_smt", "export_tptp"):
                checker = {"export_dfa": ref.check_dot, "export_smt": ref.check_smt2,
                           "export_tptp": ref.check_tptp}[name]
                if code != 0:
                    raise ValueError(f"exit {code}")
                checker(stdout if name == "export_tptp" else (written or ""))
            else:
                expected = {"vo": "4", "level": "vo=3 sigma=2 pi=3", "normalize": "iI",
                            "count": "1810"}.get(name)
                if name == "cofinite":
                    ok = code == 0 and json.loads(stdout) == \
                        {"cofinite": True, "max_length": 28, "count": 1810}
                else:
                    ok = code == 0 and stdout.strip() == expected
                if not ok:
                    raise ValueError(f"exit {code}: {stdout.strip()[:80]}")
        except ValueError as e:
            return Unit(False, False, f"{name}: {e}")
        return Unit(True)

    def import_seconds(self) -> float:
        """Fresh-interpreter time to import relfrag.cli, measured inside
        the child."""
        code = ("import time; t = time.perf_counter(); import relfrag.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.work,
                             capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)


def probe_cli(seed: int) -> None:
    from relfrag import cli
    with redirect_stdout(io.StringIO()):
        cli.main(["vo", "--term", "a"])


# ---------------------------------------------------------------------------


PROBES = {"certify": probe_certify, "discover": probe_discover, "decide": probe_decide,
          "cli": probe_cli}


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "certify":
        return Certify(seed)
    if name == "discover":
        return Discover(seed)
    if name == "decide":
        return Decide(seed)
    return Cli(seed, root)


def probe_main(name: str, seed: int) -> None:
    """Body of a set-up probe process: import the program, run the
    workload's probe twice, and report when the first one ended (on the
    system-wide monotonic clock) and how long the second one took."""
    PROBES[name](seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    PROBES[name](seed + 1)
    print(json.dumps({"ready": ready, "second": time.perf_counter() - t0}))
