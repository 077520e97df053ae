#!/usr/bin/env python3
"""Certification of a rule system: every rule is checked exactly on
all 2^(n^2) relations at the exhaustive size (from the images of the
one-pair relations) and on large seeded panels at the sample sizes.

Example:
    python3 scripts/certify_rules.py builtin:figure1
"""

import argparse
import time

from relfrag.rewriting import load_rules
from relfrag.search import verify_rules
from relfrag.words import format_word


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("rules", help="builtin:figure1 or a rule file path")
    ap.add_argument("--exhaustive-size", type=int, default=5)
    ap.add_argument("--sample-sizes", default="6,7",
                    type=lambda s: tuple(int(x) for x in s.split(",")))
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rs = load_rules(args.rules)
    t0 = time.time()
    checks = verify_rules(rs, exhaustive_size=args.exhaustive_size,
                          sample_sizes=args.sample_sizes,
                          samples_per_size=args.samples, seed=args.seed)
    elapsed = time.time() - t0
    passed = 0
    for c in checks:
        ok = c.exhaustive_ok and c.sampled_ok
        passed += ok
        mark = "ok " if ok else "FAIL"
        print(f"[{mark}] rule {c.index:3}  {format_word(c.small)} = {format_word(c.large)}")
        if not c.exhaustive_ok:
            print(f"       exhaustive counterexample (packed): {c.exhaustive_counterexample}")
        for size, packed in c.sampled_failures:
            print(f"       sampled counterexample at size {size} (packed): {packed}")
    print(f"{passed}/{len(checks)} rules certified in {elapsed:.1f}s")
    raise SystemExit(0 if passed == len(checks) else 1)


if __name__ == "__main__":
    main()
