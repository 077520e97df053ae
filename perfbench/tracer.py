"""Outside-in span and counter recorder for the traced run.

``Recorder.installed()`` replaces each traced public function of
``relfrag`` with a wrapper, under every name the package binds to it
(``relfrag.decide.normalize`` as well as ``relfrag.rewriting.normalize``,
the re-exports in ``relfrag/__init__``, and so on), and puts the
originals back on exit.  Nothing is patched outside that block, so the
untraced runs execute the program exactly as shipped.

A span is (name, start, end, parent span, unit id).  The recorder
keeps one span stack, so traced calls must run on one thread (every
workload passes ``threads=1``).  Spans are kept in
compact arrays in memory and only aggregated when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# module -> traced public functions
TRACED = {
    "bitrel": ("scan_rule_pairs", "sampled_counterexample", "word_matrix",
               "apply_word_packed", "words_equal_all_relations"),
    "search": ("verify_rules", "run_search", "word_fingerprint", "word_equiv_oracle"),
    "automata": ("is_cofinite", "minimize", "build_pattern_dfa", "complement_and_trim",
                 "export_dot"),
    "rewriting": ("normalize", "enumerate_irreducibles", "count_irreducibles",
                  "figure1_rules", "load_rules"),
    "normalforms": ("projection_nf", "complement_nf", "expand_projections", "union_nf"),
    "words": ("decompose_1vo", "reduce_letters", "parse_word", "apply_word"),
    "constants": ("decide_0vo",),
    "semantics": ("exhaustive_check", "random_check", "eval_term"),
    "terms": ("parse_term", "dotdagger_level"),
    "decide": ("decide_terms", "decide_word_equiv"),
    "fo": ("export_equation_smt2", "export_equation_tptp"),
    "cli": ("main",),
}


def _exhaustive_structures(args, kwargs, result) -> float:
    """Structures in the sizes scanned, up to the witness size if one
    was found (computed from the arguments, not counted)."""
    from relfrag.terms import variables
    t1, t2, sizes = args[0], args[1], kwargs.get("sizes", args[2] if len(args) > 2 else ())
    k = len(variables(t1) | variables(t2))
    stop = result.size if result is not None else None
    return float(sum(1 << (k * n * n) for n in sorted(set(sizes)) if stop is None or n <= stop))


def _scan_relations(args, kwargs, result) -> float:
    pairs, n = args[0], args[1]
    return float((1 << (n * n)) * len(pairs))


def _random_samples(args, kwargs, result) -> float:
    return float(args[3] if len(args) > 3 else kwargs["samples"])


# counted but not timed: these run inside the scan and fingerprint
# loops, and a span of their own would move the loops' time out of the
# callers the metrics are about
CALLS_ONLY = {"bitrel.apply_word_packed"}

# span name -> {counter name: f(args, kwargs, result)}
COUNTERS = {
    "rewriting.normalize": {"rewriting.normalize.steps": lambda a, k, r: float(len(r[1]))},
    "normalforms.union_nf": {"normalforms.union_nf.disjuncts": lambda a, k, r: float(len(r))},
    "semantics.exhaustive_check": {"semantics.exhaustive_check.structures": _exhaustive_structures},
    "semantics.random_check": {"semantics.random_check.samples": _random_samples},
    "bitrel.scan_rule_pairs": {"bitrel.scan_rule_pairs.relations": _scan_relations},
    "search.run_search": {
        "search.candidates_examined": lambda a, k, r: float(r.candidates_examined),
        "search.rules_admitted": lambda a, k, r: float(len(r.rules.rules)),
        "search.oracle_calls": lambda a, k, r: float(r.oracle_calls),
    },
}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit_of = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.verdicts: dict[int, str] = {}   # decide_terms span -> verdict class
        self._stack: list[int] = []
        self.unit = -1
        self.units: list[tuple[int, float]] = []  # (unit id, duration)
        self._patches = None

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit_of.append(self.unit)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counters = COUNTERS.get(name, {})
        rec = self

        if name in CALLS_ONLY:
            def counting_wrapper(*args, **kwargs):
                rec.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counting_wrapper

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = rec._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec._close(i)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(i)
            for cname, f in counters.items():
                rec.counts[cname] += f(args, kwargs, result)
            if name == "decide.decide_terms":
                rec.verdicts[i] = type(result).__name__
            return result
        return wrapper

    def _patch_list(self) -> list:
        """(module, attribute, original, wrapper) for every name relfrag
        binds a traced function to."""
        import importlib
        if self._patches is None:
            traced = {short: importlib.import_module(f"relfrag.{short}") for short in TRACED}
            modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "relfrag" or name.startswith("relfrag."))]
            self._patches = []
            for short, funcs in TRACED.items():
                for fname in funcs:
                    orig = getattr(traced[short], fname)
                    wrapper = self._wrap(f"{short}.{fname}", orig)
                    self._patches += [(m, attr, orig, wrapper) for m in modules
                                      for attr, val in vars(m).items() if val is orig]
        return self._patches

    @contextmanager
    def installed(self):
        """Patch the traced functions; restore the originals on exit."""
        patches = self._patch_list()
        try:
            for m, attr, _, wrapper in patches:
                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, orig, _ in patches:
                setattr(m, attr, orig)

    @contextmanager
    def unit_scope(self, unit_id: int):
        self.unit = unit_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.units.append((unit_id, time.perf_counter() - t0))
            self.unit = -1

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Totals over the run: per span name calls and self seconds,
        per module self seconds, counters, decide routes and the unit
        time no span covers."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        descendants: dict[int, set] = defaultdict(set)
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = self.parent[i]
            if p < 0:
                covered[self.unit_of[i]] += dur
            while p >= 0:
                descendants[p].add(name)
                p = self.parent[p]
        routes: dict[str, float] = defaultdict(float)
        for i, verdict in self.verdicts.items():
            below = descendants[i]
            if "constants.decide_0vo" in below:
                routes["constant"] += 1
            elif verdict == "Equivalent" and "normalforms.union_nf" in below:
                routes["pipeline"] += 1
            else:
                routes["bounded"] += 1
        uncovered = sum(max(0.0, d - covered[u]) for u, d in self.units)
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "routes": routes, "uncovered_s": uncovered, "units": len(self.units),
                "spans": n}


# (metric, unit, how): "self" = self seconds per traced unit, "calls" =
# calls per traced unit, "count" = counter per traced unit
LAYER_METRICS = (
    ("bitrel.self_s", "s", "module"),
    ("bitrel.scan_rule_pairs.self_s", "s", "self"),
    ("bitrel.scan_rule_pairs.relations_per_s", "1/s", "rate"),
    ("bitrel.sampled_counterexample.self_s", "s", "self"),
    ("bitrel.word_matrix.calls", "count", "calls"),
    ("bitrel.word_matrix.self_s", "s", "self"),
    ("bitrel.apply_word_packed.calls", "count", "count"),
    ("search.self_s", "s", "module"),
    ("search.verify_rules.self_s", "s", "self"),
    ("search.run_search.self_s", "s", "self"),
    ("search.word_fingerprint.calls", "count", "calls"),
    ("search.word_fingerprint.self_s", "s", "self"),
    ("search.word_equiv_oracle.calls", "count", "calls"),
    ("search.candidates_examined", "count", "count"),
    ("search.oracle_hit_ratio", "ratio", "ratio"),
    ("automata.self_s", "s", "module"),
    ("automata.is_cofinite.calls", "count", "calls"),
    ("automata.is_cofinite.self_s", "s", "self"),
    ("automata.minimize.self_s", "s", "self"),
    ("rewriting.self_s", "s", "module"),
    ("rewriting.normalize.calls", "count", "calls"),
    ("rewriting.normalize.self_s", "s", "self"),
    ("rewriting.normalize.steps", "count", "count"),
    ("rewriting.enumerate_irreducibles.self_s", "s", "self"),
    ("normalforms.self_s", "s", "module"),
    ("normalforms.projection_nf.self_s", "s", "self"),
    ("normalforms.complement_nf.self_s", "s", "self"),
    ("normalforms.expand_projections.self_s", "s", "self"),
    ("normalforms.union_nf.self_s", "s", "self"),
    ("normalforms.union_nf.disjuncts", "count", "count"),
    ("words.self_s", "s", "module"),
    ("words.decompose_1vo.self_s", "s", "self"),
    ("words.reduce_letters.self_s", "s", "self"),
    ("constants.self_s", "s", "module"),
    ("constants.decide_0vo.calls", "count", "calls"),
    ("constants.decide_0vo.self_s", "s", "self"),
    ("semantics.self_s", "s", "module"),
    ("semantics.exhaustive_check.calls", "count", "calls"),
    ("semantics.exhaustive_check.self_s", "s", "self"),
    ("semantics.exhaustive_check.structures", "count", "count"),
    ("semantics.random_check.calls", "count", "calls"),
    ("semantics.random_check.self_s", "s", "self"),
    ("semantics.random_check.samples", "count", "count"),
    ("semantics.eval_term.self_s", "s", "self"),
    ("terms.self_s", "s", "module"),
    ("terms.parse_term.self_s", "s", "self"),
    ("terms.dotdagger_level.self_s", "s", "self"),
    ("decide.self_s", "s", "module"),
    ("decide.route.constant", "count", "route"),
    ("decide.route.pipeline", "count", "route"),
    ("decide.route.bounded", "count", "route"),
    ("decide.decide_word_equiv.self_s", "s", "self"),
    ("fo.self_s", "s", "module"),
    ("fo.export_equation_smt2.self_s", "s", "self"),
    ("fo.export_equation_tptp.self_s", "s", "self"),
    ("cli.self_s", "s", "module"),
    ("cli.import_s", "s", "extra"),
    ("cli.main_ms", "ms", "extra"),
    ("cli.process_overhead_ms", "ms", "extra"),
    ("trace.units", "count", "units"),
    ("trace.uncovered_s", "s", "uncovered"),
    ("trace.overhead_ms", "ms", "overhead"),
)


def layer_metrics(summary: dict, plain: list[float], traced: list[float], extra: dict) -> dict:
    """Per-layer metrics from a traced run.  Times, calls and counts are
    per traced unit; rates and ratios are over the whole run;
    trace.overhead_ms is the median traced minus the median untraced
    time of the same calls."""
    import statistics
    units = max(1, summary["units"])
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    modules: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        modules[name.split(".")[0]] += value
    out = {}
    for metric, unit, how in LAYER_METRICS:
        if how == "module":
            value = modules[metric.split(".")[0]] / units
        elif how == "self":
            value = self_s.get(metric[:-len(".self_s")], 0.0) / units
        elif how == "calls":
            value = calls.get(metric[:-len(".calls")], 0.0) / units
        elif how == "count":
            value = counts.get(metric, 0.0) / units
        elif how == "route":
            value = summary["routes"].get(metric.rsplit(".", 1)[1], 0.0) / units
        elif how == "rate":
            busy = self_s.get("bitrel.scan_rule_pairs", 0.0)
            value = counts.get("bitrel.scan_rule_pairs.relations", 0.0) / busy if busy else 0.0
        elif how == "ratio":
            oracle = counts.get("search.oracle_calls", 0.0)
            value = counts.get("search.rules_admitted", 0.0) / oracle if oracle else 0.0
        elif how == "extra":
            value = extra.get(metric, 0.0)
        elif how == "units":
            value = float(summary["units"])
        elif how == "uncovered":
            value = summary["uncovered_s"] / units
        else:
            value = (statistics.median(traced) - statistics.median(plain)) * 1000
        out[metric] = {"value": value, "unit": unit}
    return out
