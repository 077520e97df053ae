"""Top-level equivalence decisions, three-valued.

``Equivalent`` always carries a replayable justification (rewrite
traces, constant-class derivations, exhausted small sizes);
``Inequivalent`` carries a separating structure that is re-checked on
construction; everything else is ``Unknown`` with the window actually
covered.  The bounded oracles here are sound but incomplete: only the
variable-free route and the one-occurrence low-alternation pipeline can
answer ``Equivalent``.

Routing in ``decide_terms``: two variable-free terms go through the
constant classes (exact); two terms with at most one variable
occurrence each and existential level at most one go through the
normal-form pipeline down to the word monoid, with small sizes (1..4)
exhausted separately when the mode asks for plain equivalence rather
than equivalence on large universes; anything else, including a
pipeline input whose union normal form exceeds the disjunct ceiling,
gets a bounded counterexample search and never an ``Equivalent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union as TUnion

from . import bitrel
from .constants import ConstClass, classify_const, decide_0vo
from .normalforms import (UnionBlowup, complement_nf, expand_projections,
                          projection_nf, union_nf)
from .rewriting import RewriteSystem, figure1_rules, normalize
from .semantics import (Rel, SizeWindow, Structure, eval_term, exhaustive_check,
                        random_check, structure_count)
from .search import OracleConfig
from .terms import Term, Var, dotdagger_level, variables, vo
from .words import Word, apply_word, decompose_1vo, format_word, reduce_letters


@dataclass(frozen=True)
class Equivalent:
    justification: dict


@dataclass(frozen=True)
class Inequivalent:
    witness: Structure


@dataclass(frozen=True)
class Unknown:
    checked: SizeWindow
    samples: int


Verdict = TUnion[Equivalent, Inequivalent, Unknown]


@dataclass(frozen=True)
class Mode:
    """Structure class: every size at least ``min_size`` (1 = all)."""

    min_size: int = 1

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise ValueError("min_size must be at least 1")

    def __str__(self) -> str:
        return "rel" if self.min_size == 1 else f"rel>={self.min_size}"


REL = Mode(1)


def parse_mode(text: str) -> Mode:
    if text == "rel":
        return REL
    if text.startswith("rel>="):
        try:
            return Mode(int(text[5:]))
        except ValueError:
            pass
    raise ValueError(f"mode must be 'rel' or 'rel>=M', got {text!r}")


def _checked_inequivalent(t1: Term, t2: Term, witness: Structure) -> Inequivalent:
    if eval_term(t1, witness) == eval_term(t2, witness):
        raise AssertionError("claimed witness does not separate the terms")
    return Inequivalent(witness)


# ---------------------------------------------------------------------------
# Words


def decide_word_equiv(w1: Word, w2: Word, cfg: OracleConfig = OracleConfig(),
                      rules: Optional[RewriteSystem] = None) -> Verdict:
    """Equivalent when both words rewrite to the same normal form
    (valid on universes of size >= 5, the class the rules are certified
    for); Inequivalent with a concrete witness when they differ at a
    size up to the exhaustive one (the first separating relation, read
    off the singleton images) or on a sampled panel; Unknown
    otherwise."""
    rs = rules if rules is not None else figure1_rules()
    nf1, tr1 = normalize(w1, rs)
    nf2, tr2 = normalize(w2, rs)
    if nf1 == nf2:
        return Equivalent({
            "kind": "rewrite",
            "normal_form": format_word(nf1),
            "lhs_trace": list(tr1),
            "rhs_trace": list(tr2),
            "rules": "certified on all size-5 relations and sampled larger sizes",
        })
    t1, t2 = apply_word(w1, Var("a")), apply_word(w2, Var("a"))
    for n in range(1, cfg.exhaustive_size + 1):
        hit = bitrel.first_counterexample(w1, w2, n)
        if hit is not None:
            witness = Structure(n, {"a": Rel(n, hit)})
            return _checked_inequivalent(t1, t2, witness)
    samples = 0
    for n in cfg.sample_sizes:
        hit = bitrel.sampled_counterexample(w1, w2, n, cfg.samples_per_size, cfg.seed)
        samples += cfg.samples_per_size
        if hit is not None:
            witness = Structure(n, {"a": Rel(n, hit)})
            return _checked_inequivalent(t1, t2, witness)
    return Unknown(SizeWindow(1, cfg.exhaustive_size), samples)


# ---------------------------------------------------------------------------
# Terms


def _pipeline_pieces(t: Term, rs: RewriteSystem) -> tuple[frozenset, list]:
    """Union-free canonical pieces of a one-occurrence level-one term:
    constant classes for variable-free disjuncts and (variable,
    decoration, normal-form word) triples otherwise.

    Dropped pieces: variable-free disjuncts of the bottom class (exact
    on sizes >= 3; smaller sizes are re-checked separately by the
    caller) and variable disjuncts whose word contains the iI iD
    factor, which pinch through I & D and denote the empty relation on
    every universe.
    """
    from .words import CAP_D, CAP_I
    u = projection_nf(t)
    u = complement_nf(u)
    u = expand_projections(u)
    pieces = set()
    notes = []
    for d in union_nf(u):
        if vo(d) == 0:
            c = classify_const(d)
            if c is not ConstClass.BOT:
                pieces.add(("const", c.value))
            continue
        letters, base = decompose_1vo(d)
        decoration = ""
        if letters and letters[-1].kind == "compl":
            decoration = "~"
            letters = letters[:-1]
        word = reduce_letters(letters)
        nf, trace = normalize(word, rs)
        notes.append({"disjunct_word": format_word(word),
                      "normal_form": format_word(nf), "trace": list(trace)})
        if any(nf[i:i + 2] == (CAP_I, CAP_D) for i in range(len(nf) - 1)):
            continue
        pieces.add(("var", base.name, decoration, nf))
    return frozenset(pieces), notes


def _piece_json(piece) -> list:
    if piece[0] == "const":
        return ["const", piece[1]]
    return ["var", piece[1], piece[2], format_word(piece[3])]


def _bounded_separation(t1: Term, t2: Term, mode: Mode,
                        cfg: OracleConfig) -> Verdict:
    """Exhaustive scan at small sizes within budget, then seeded
    sampling (including any small sizes the budget skipped); never
    answers Equivalent."""
    num_vars = max(1, len(variables(t1) | variables(t2)))
    checked_hi = mode.min_size
    budget = 1 << 26
    skipped_small = []
    for n in range(mode.min_size, 5):
        if structure_count(num_vars, n) > budget:
            skipped_small.append(n)
            continue
        witness = exhaustive_check(t1, t2, [n], budget=budget)
        checked_hi = max(checked_hi, n)
        if witness is not None:
            return _checked_inequivalent(t1, t2, witness)
    samples = 0
    sizes = sorted({s for s in (*cfg.sample_sizes, cfg.exhaustive_size, *skipped_small)
                    if mode.min_size <= s <= 8})
    for n in sizes:
        witness = random_check(t1, t2, n, cfg.samples_per_size, cfg.seed)
        samples += cfg.samples_per_size
        if witness is not None:
            return _checked_inequivalent(t1, t2, witness)
    return Unknown(SizeWindow(mode.min_size, max(checked_hi, mode.min_size)), samples)


def decide_terms(t1: Term, t2: Term, mode: Mode = REL,
                 cfg: OracleConfig = OracleConfig(),
                 rules: Optional[RewriteSystem] = None) -> Verdict:
    rs = rules if rules is not None else figure1_rules()
    if vo(t1) == 0 and vo(t2) == 0:
        z = decide_0vo(t1, t2, mode.min_size)
        if z.equivalent:
            return Equivalent({
                "kind": "constant-classes",
                "class": z.left_class.value,
                "checked_small_sizes": list(z.checked_small_sizes),
            })
        assert z.witness is not None
        return _checked_inequivalent(t1, t2, z.witness)

    info1, info2 = dotdagger_level(t1), dotdagger_level(t2)
    low = (info1.vo <= 1 and info2.vo <= 1
           and info1.sigma_level is not None and info1.sigma_level <= 1
           and info2.sigma_level is not None and info2.sigma_level <= 1)
    if low:
        try:
            pieces1, notes1 = _pipeline_pieces(t1, rs)
            pieces2, notes2 = _pipeline_pieces(t2, rs)
        except UnionBlowup:
            return _bounded_separation(t1, t2, mode, cfg)
        if pieces1 == pieces2:
            checked: list[int] = []
            if mode.min_size < 5:
                small = list(range(mode.min_size, 5))
                witness = exhaustive_check(t1, t2, small)
                if witness is not None:
                    return _checked_inequivalent(t1, t2, witness)
                checked = small
            return Equivalent({
                "kind": "pipeline",
                "pieces": sorted(map(_piece_json, pieces1)),
                "lhs": notes1,
                "rhs": notes2,
                "exhausted_sizes": checked,
                "rules": "certified on all size-5 relations and sampled larger sizes",
            })
    return _bounded_separation(t1, t2, mode, cfg)


def replay_justification(verdict: Equivalent, t1: Term, t2: Term,
                         rules: Optional[RewriteSystem] = None) -> bool:
    """Re-derive an Equivalent verdict from its recorded justification.
    """
    rs = rules if rules is not None else figure1_rules()
    j = verdict.justification
    if j["kind"] == "constant-classes":
        z = decide_0vo(t1, t2, min(j["checked_small_sizes"], default=3))
        return z.equivalent and z.left_class.value == j["class"]
    if j["kind"] == "pipeline":
        pieces1, _ = _pipeline_pieces(t1, rs)
        pieces2, _ = _pipeline_pieces(t2, rs)
        if pieces1 != pieces2 or sorted(map(_piece_json, pieces1)) != j["pieces"]:
            return False
        sizes = j["exhausted_sizes"]
        return not sizes or exhaustive_check(t1, t2, sizes) is None
    return False


def replay_word_justification(verdict: Equivalent, w1: Word, w2: Word,
                              rules: Optional[RewriteSystem] = None) -> bool:
    from .rewriting import replay_trace
    rs = rules if rules is not None else figure1_rules()
    j = verdict.justification
    if j["kind"] != "rewrite":
        return False
    a = replay_trace(w1, rs, [tuple(s) for s in j["lhs_trace"]])
    b = replay_trace(w2, rs, [tuple(s) for s in j["rhs_trace"]])
    return a == b and format_word(a) == j["normal_form"]
