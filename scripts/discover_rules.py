#!/usr/bin/env python3
"""Run the equation search until the admitted large sides make the
irreducible language finite, then print a summary and optionally write
the rule file.

Example:
    python3 scripts/discover_rules.py --max-len 15 --budget 1000000 \
        --emit discovered-rules.txt
"""

import argparse
import time

from relfrag.automata import is_cofinite
from relfrag.rewriting import format_rules
from relfrag.search import OracleConfig, run_search
from relfrag.words import format_word


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=int, default=15)
    ap.add_argument("--budget", type=int, default=10**6)
    ap.add_argument("--exhaustive-size", type=int, default=5)
    ap.add_argument("--emit")
    args = ap.parse_args()

    cfg = OracleConfig(exhaustive_size=args.exhaustive_size)
    t0 = time.time()
    report = run_search(cfg, args.max_len, args.budget)
    elapsed = time.time() - t0

    print(f"stop reason:        {report.stop_reason}")
    print(f"rules admitted:     {len(report.rules.rules)}")
    print(f"cofinite:           {report.cofinite}")
    if report.cofinite:
        print(f"leftover boundary:  {report.max_complement_length}")
        print(f"leftover words:     {is_cofinite([r.large for r in report.rules.rules]).complement_count}")
    print(f"candidates:         {report.candidates_examined}")
    print(f"oracle calls:       {report.oracle_calls}")
    print(f"elapsed:            {elapsed:.1f}s")

    lengths = {}
    for r in report.rules.rules:
        lengths[len(r.large)] = lengths.get(len(r.large), 0) + 1
    print("large-side lengths: " + ", ".join(f"{k}:{v}" for k, v in sorted(lengths.items())))

    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(format_rules(report.rules))
        print(f"rules written to {args.emit}")
    else:
        for r in report.rules.rules[:10]:
            print(f"  {format_word(r.small)} = {format_word(r.large)}")
        if len(report.rules.rules) > 10:
            print(f"  ... ({len(report.rules.rules) - 10} more; use --emit)")


if __name__ == "__main__":
    main()
