"""Command-line interface.

Subcommands: eval, equiv, vo, level, normalize, enumerate-irreducible,
count-irreducible, cofinite, search, export-dfa, export-smt,
export-tptp, verify-rules.

Exit codes: 0 success (for equiv: Equivalent), 1 Inequivalent,
2 Unknown, 64 usage error, 65 input format error (input nested too
deeply included), 70 internal error.  ``--json`` switches
every subcommand to a stable machine-readable schema.

Each command imports the modules it runs, at the top of its function,
so a process loads only what its command uses: ``vo`` and ``level``
load ``terms`` alone, and only ``search``, ``verify-rules`` and the
batch routes of ``equiv`` (one-occurrence, small-model, bounded) load
the bit-sliced kernel ``bitrel``.  No command needs a package outside
the standard library; the constant route of ``equiv`` loads neither
``fo`` nor ``words``.  ``terms`` is imported here because every
command parses with it.  No module imports the standard library's
data-class module, nor ``inspect``: the value classes are
``terms.record`` classes, each built with one ``exec`` at import.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .terms import Var, dotdagger_level, parse_term, vo

EX_OK, EX_INEQUIV, EX_UNKNOWN, EX_USAGE, EX_DATA, EX_SOFTWARE = 0, 1, 2, 64, 65, 70


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _structure_json_obj(m) -> dict:
    from .semantics import structure_to_json

    return json.loads(structure_to_json(m))


def _verdict_json(verdict) -> dict:
    from .decide import Equivalent, Inequivalent

    if isinstance(verdict, Equivalent):
        return {"verdict": "equivalent", "witness": None,
                "justification": verdict.justification, "checked": None}
    if isinstance(verdict, Inequivalent):
        return {"verdict": "inequivalent", "witness": _structure_json_obj(verdict.witness),
                "justification": None, "checked": None}
    lo, hi = (verdict.checked.lo, verdict.checked.hi) if verdict.checked else (None, None)
    return {"verdict": "unknown", "witness": None, "justification": None,
            "checked": {"lo": lo, "hi": hi,
                        "samples": verdict.samples, "sampled": list(verdict.sampled),
                        "reason": verdict.reason, "seed": verdict.seed}}


def _verdict_exit(verdict) -> int:
    from .decide import Equivalent, Inequivalent

    if isinstance(verdict, Equivalent):
        return EX_OK
    if isinstance(verdict, Inequivalent):
        return EX_INEQUIV
    return EX_UNKNOWN


def _print_verdict(verdict, as_json: bool) -> int:
    from .decide import Equivalent, Inequivalent
    from .semantics import structure_to_json

    if as_json:
        print(json.dumps(_verdict_json(verdict)))
        return _verdict_exit(verdict)
    if isinstance(verdict, Equivalent):
        print(f"equivalent ({verdict.justification['kind']})")
    elif isinstance(verdict, Inequivalent):
        print(f"inequivalent; witness: {structure_to_json(verdict.witness)}")
    else:
        window = verdict.checked
        exhausted = f"sizes {window.lo}..{window.hi}" if window else "no size"
        at = f" at sizes {','.join(map(str, verdict.sampled))}" if verdict.sampled else ""
        print(f"unknown (exhausted {exhausted}, {verdict.samples} samples{at})")
    return _verdict_exit(verdict)


def _rules_arg(args) -> str:
    spec = getattr(args, "rules_positional", None) or args.rules
    if spec is None:
        raise UsageError("a rule system is required (positional or --rules)")
    return spec


def _add_oracle_flags(p, sizes_default: Optional[tuple[int, ...]] = None,
                      samples_default: Optional[int] = None) -> None:
    """--exhaustive-size always; --sample-sizes for commands that check
    further sizes, --samples and --seed for those that draw samples."""
    p.add_argument("--exhaustive-size", type=int, default=5, dest="exhaustive_size")
    if sizes_default is not None:
        p.add_argument("--sample-sizes", dest="sample_sizes", default=sizes_default,
                       type=lambda s: tuple(int(x) for x in s.split(",")))
    if samples_default is not None:
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--seed", type=int, default=0)


def _cmd_eval(args) -> int:
    from .semantics import eval_term, structure_from_json

    term = parse_term(args.term)
    with open(args.structure, "r", encoding="utf-8") as fh:
        structure = structure_from_json(fh.read())
    rel = eval_term(term, structure)
    if args.json:
        print(json.dumps({"size": rel.size, "pairs": sorted(rel.pairs())}))
    else:
        for x, y in sorted(rel.pairs()):
            print(f"{x} {y}")
    return EX_OK


def _cmd_equiv(args) -> int:
    from .decide import decide_terms, parse_mode
    from .semantics import OracleConfig

    lhs, rhs = parse_term(args.lhs), parse_term(args.rhs)
    mode = parse_mode(args.mode)
    cfg = OracleConfig(exhaustive_size=args.exhaustive_size, sample_sizes=args.sample_sizes,
                       samples_per_size=args.samples, seed=args.seed)
    verdict = decide_terms(lhs, rhs, mode, cfg)
    return _print_verdict(verdict, args.json)


def _cmd_vo(args) -> int:
    print(vo(parse_term(args.term)))
    return EX_OK


def _cmd_level(args) -> int:
    info = dotdagger_level(parse_term(args.term))
    if args.json:
        print(json.dumps({"vo": info.vo, "sigma_level": info.sigma_level,
                          "pi_level": info.pi_level}))
    else:
        print(f"vo={info.vo} sigma={info.sigma_level} pi={info.pi_level}")
    return EX_OK


def _cmd_normalize(args) -> int:
    from .rewriting import load_rules, normalize
    from .words import format_word, parse_word

    rs = load_rules(args.rules)
    word = parse_word(args.word)
    nf, trace = normalize(word, rs)
    if args.json:
        print(json.dumps({"normal_form": format_word(nf),
                          "trace": [list(step) for step in trace]}))
    else:
        print(format_word(nf))
    return EX_OK


def _cmd_enumerate(args) -> int:
    from .rewriting import enumerate_irreducibles, load_rules
    from .words import format_word

    rs = load_rules(_rules_arg(args))
    count = 0
    for w in enumerate_irreducibles(rs):
        print(format_word(w))
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    return EX_OK


def _cmd_count(args) -> int:
    from .rewriting import count_irreducibles, load_rules

    print(count_irreducibles(load_rules(_rules_arg(args))))
    return EX_OK


def _cmd_cofinite(args) -> int:
    from .automata import is_cofinite
    from .rewriting import load_rules

    rs = load_rules(_rules_arg(args))
    report = is_cofinite(rs.large_sides())
    if args.json:
        print(json.dumps({"cofinite": report.cofinite,
                          "max_length": report.max_complement_length,
                          "count": report.complement_count}))
    else:
        if report.cofinite:
            print(f"cofinite: longest leftover word {report.max_complement_length}, "
                  f"{report.complement_count} leftover words")
        else:
            print("not cofinite")
    return EX_OK if report.cofinite else EX_INEQUIV


def _cmd_search(args) -> int:
    from .rewriting import format_rules, load_rules
    from .search import run_search
    from .semantics import OracleConfig
    from .words import format_word

    cfg = OracleConfig(exhaustive_size=args.exhaustive_size)
    seed_rules = load_rules(args.rules) if args.rules else None
    report = run_search(cfg, args.max_len, args.budget, seed_rules)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(format_rules(report.rules))
    if args.json:
        print(json.dumps({
            "cofinite": report.cofinite,
            "rules": [[format_word(r.small), format_word(r.large)] for r in report.rules.rules],
            "candidates_examined": report.candidates_examined,
            "oracle_calls": report.oracle_calls,
            "stop_reason": report.stop_reason,
            "max_complement_length": report.max_complement_length,
        }))
    else:
        print(f"{len(report.rules.rules)} rules; cofinite={report.cofinite} "
              f"({report.stop_reason}; {report.candidates_examined} candidates, "
              f"{report.oracle_calls} oracle calls)")
    return EX_OK if report.cofinite else EX_INEQUIV


def _cmd_export_dfa(args) -> int:
    from .automata import build_pattern_dfa, complement_and_trim, export_dot, minimize
    from .rewriting import load_rules

    rs = load_rules(_rules_arg(args))
    d = build_pattern_dfa(rs.large_sides())
    if args.kind == "minimal":
        d = minimize(d)
    elif args.kind == "complement":
        d = complement_and_trim(d)
    text = export_dot(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EX_OK


def _term_sides(args):
    from .words import apply_word, parse_word

    if (args.lhs is None) == (args.lhs_word is None):
        raise UsageError("give exactly one of --lhs / --lhs-word (same for rhs)")
    if (args.rhs is None) == (args.rhs_word is None):
        raise UsageError("give exactly one of --rhs / --rhs-word")
    lhs = parse_term(args.lhs) if args.lhs else apply_word(parse_word(args.lhs_word), Var("a"))
    rhs = parse_term(args.rhs) if args.rhs else apply_word(parse_word(args.rhs_word), Var("a"))
    return lhs, rhs


def _cmd_export_obligation(args, fmt: str) -> int:
    from .fo import export_equation_smt2, export_equation_tptp

    lhs, rhs = _term_sides(args)
    exporter = export_equation_smt2 if fmt == "smt2" else export_equation_tptp
    text = exporter(lhs, rhs, args.min_size)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EX_OK


def _cmd_verify_rules(args) -> int:
    from .rewriting import load_rules
    from .search import verify_rules
    from .words import format_word

    rs = load_rules(_rules_arg(args))
    checks = verify_rules(rs, exhaustive_size=args.exhaustive_size,
                          sample_sizes=args.sample_sizes)
    passed = 0
    rows = []
    for c in checks:
        ok = c.exhaustive_ok and c.sampled_ok
        passed += ok
        rows.append({"index": c.index, "small": format_word(c.small),
                     "large": format_word(c.large), "pass": ok,
                     "exhaustive_counterexample": c.exhaustive_counterexample,
                     "sampled_failures": [list(f) for f in c.sampled_failures]})
        if not args.json:
            detail = "" if ok else f"  counterexample={c.exhaustive_counterexample} sampled={c.sampled_failures}"
            print(f"rule {c.index}: {'PASS' if ok else 'FAIL'}{detail}")
    if args.json:
        print(json.dumps({"passed": passed, "total": len(checks), "rules": rows}))
    else:
        print(f"{passed}/{len(checks)} rules pass (exhaustive size {args.exhaustive_size}, "
              f"exact at sizes {','.join(map(str, args.sample_sizes))})")
    return EX_OK if passed == len(checks) else EX_INEQUIV


def build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="relfrag",
                          description="Decision machinery for bounded-occurrence relation terms")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term in a structure file")
    p.add_argument("--term", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("equiv", help="decide equivalence of two terms")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--mode", default="rel", help="rel or rel>=M")
    _add_oracle_flags(p, samples_default=100_000, sizes_default=(5, 6))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("vo", help="count variable occurrences")
    p.add_argument("--term", required=True)
    p.set_defaults(fn=_cmd_vo)

    p = sub.add_parser("level", help="alternation levels of a term")
    p.add_argument("--term", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_level)

    p = sub.add_parser("normalize", help="rewrite a word to normal form")
    p.add_argument("--word", required=True)
    p.add_argument("--rules", default="builtin:figure1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("enumerate-irreducible", help="list all irreducible words")
    p.add_argument("rules_positional", nargs="?")
    p.add_argument("--rules")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count-irreducible", help="count irreducible words")
    p.add_argument("rules_positional", nargs="?")
    p.add_argument("--rules")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("cofinite", help="is the factor language of the large sides cofinite?")
    p.add_argument("rules_positional", nargs="?")
    p.add_argument("--rules")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_cofinite)

    p = sub.add_parser("search", help="search for valid equations until cofinite")
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--rules", help="optional seed rules")
    p.add_argument("--emit", help="write the admitted rules to this file")
    _add_oracle_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("export-dfa", help="export a pattern automaton as DOT")
    p.add_argument("rules_positional", nargs="?")
    p.add_argument("--rules")
    p.add_argument("--kind", choices=("pattern", "minimal", "complement"), default="minimal")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_export_dfa)

    for name, fmt in (("export-smt", "smt2"), ("export-tptp", "tptp")):
        p = sub.add_parser(name, help=f"emit a {fmt} proof obligation")
        p.add_argument("--lhs")
        p.add_argument("--rhs")
        p.add_argument("--lhs-word", dest="lhs_word")
        p.add_argument("--rhs-word", dest="rhs_word")
        p.add_argument("--min-size", type=int, default=5, dest="min_size")
        p.add_argument("--out")
        p.set_defaults(fn=lambda args, fmt=fmt: _cmd_export_obligation(args, fmt))

    p = sub.add_parser("verify-rules", help="certify every rule exactly at the exhaustive "
                                            "size and at each sample size")
    p.add_argument("rules_positional", nargs="?")
    p.add_argument("--rules")
    _add_oracle_flags(p, sizes_default=(6, 7))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify_rules)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    except ValueError as e:  # every relfrag input error derives from it
        print(f"input error: {e}", file=sys.stderr)
        return EX_DATA
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EX_DATA
    except RecursionError:
        print("input error: input nested too deeply", file=sys.stderr)
        return EX_DATA
    except Exception as e:  # never let a crash read as a verdict (exit 1)
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
