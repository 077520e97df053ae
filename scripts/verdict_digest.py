#!/usr/bin/env python3
"""The verdict digest of the ``decide`` benchmark workload: the sha256 of
``repr`` of the list of verdict summaries (``perfbench/workloads.py``
``_verdict_summary``) of its first 5,000 queries at a seed.  A change
that keeps every verdict, justification and witness keeps the digest.

Examples:
    python3 scripts/verdict_digest.py --seed 1         # print the digest
    python3 scripts/verdict_digest.py --check          # seeds 1, 2, 3
    python3 scripts/verdict_digest.py --check --seed 1 # seed 1 only

``--check`` compares with the committed digests and exits 1 on any
difference.  The workload's code is imported from ``perfbench/``, not
copied.
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERIES = 5000
# committed digests of the first QUERIES queries, by seed
DIGESTS = {
    1: "c0d87daf5ac5d5c69b43c97fa5b9d9866df2d0512b0a7dc05d2011806909be23",
    2: "e5142ec2e2fd43f67c98794d68a05151e045b6b5a4bd8efe2bb27cf727d458b3",
    3: "12b3bdb7effcdabf5ca79f86a53d41da2d0a47b1c69961a411f3fc7350f4f77d",
}


def verdict_digest(seed: int, queries: int = QUERIES) -> str:
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    workload = workloads.Decide(seed)
    summaries = [workload.run(q) for q in itertools.islice(workload.inputs(), queries)]
    return hashlib.sha256(repr(summaries).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, action="append",
                    help="a workload seed (repeatable; default: the committed seeds)")
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed digests; exit 1 on a difference")
    args = ap.parse_args()
    seeds = args.seed or sorted(DIGESTS)
    if args.check and not set(seeds) <= DIGESTS.keys():
        ap.error(f"no committed digest for seed(s) {sorted(set(seeds) - DIGESTS.keys())}")
    failed = False
    for seed in seeds:
        digest = verdict_digest(seed)
        if args.check and digest != DIGESTS[seed]:
            failed = True
            print(f"seed {seed}: {digest} differs from the committed {DIGESTS[seed]}")
        else:
            print(f"seed {seed}: {digest}" + (" ok" if args.check else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
