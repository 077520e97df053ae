#!/usr/bin/env python3
"""Per-operator timings of the bit-sliced kernel.

Times ``bitrel.eval_term_batch`` for each operator and
``bitrel.apply_word_packed`` for each context letter, at every size in
``--sizes``, on one batch of ``--relations`` seeded random relations
(each pair present with probability 1/2, so each pair integer is
``--relations`` random bits).  Each letter is also timed on one merged
batch of ``--relations`` relations at each of the sizes 5, 6 and 7,
under the key ``5,6,7``: ``cD`` masks there and skips its mask on one
size, so both of its paths are timed.  Every figure is the median of
``--repeat`` runs in milliseconds, after one untimed warm-up run.
Prints JSON with the machine (nproc and Python version); ``--out DIR``
also writes it to ``DIR/BENCH_kernels_<label>.json``.

Example:
    PYTHONPATH=src python3 scripts/bench_kernels.py --label current --out .
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relfrag import bitrel  # noqa: E402
from relfrag.terms import parse_term  # noqa: E402
from relfrag.words import parse_word  # noqa: E402

OPERATORS = ("a ; b", "a $ b", "a^", "a[1,1]", "a[2,2]", "a~", "a | b", "a & b")
LETTERS = ("iI", "iD", "cD", "cv")
MERGED_SIZES = (5, 6, 7)


def _random_pairs(rng: random.Random, n: int, count: int) -> list[int]:
    # the pair integers of count random relations of size n
    return [rng.getrandbits(count) for _ in range(n * n)]


def _median_ms(fn, repeat: int) -> float:
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 4)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--relations", type=int, default=100_000)
    ap.add_argument("--sizes", default="3,4,5,6,7,8",
                    type=lambda s: tuple(int(x) for x in s.split(",")))
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="directory for BENCH_kernels_<label>.json")
    args = ap.parse_args()

    batch: dict[str, dict[str, float]] = {op: {} for op in OPERATORS}
    letters: dict[str, dict[str, float]] = {name: {} for name in LETTERS}
    for n in args.sizes:
        rng = random.Random(f"{args.seed}/{n}")
        a, b = _random_pairs(rng, n, args.relations), _random_pairs(rng, n, args.relations)
        masks = bitrel.batch_masks([(n, args.relations)])
        for op in OPERATORS:
            t = parse_term(op)
            batch[op][str(n)] = _median_ms(lambda: bitrel.eval_term_batch(t, {"a": a, "b": b}, masks),
                                           args.repeat)
        for name in LETTERS:
            w = parse_word(name)
            letters[name][str(n)] = _median_ms(lambda: bitrel.apply_word_packed(a, w, masks), args.repeat)
    # each entry's pairs drawn with probability 1/2 inside its own square
    rng = random.Random(f"{args.seed}/merged")
    masks = bitrel.batch_masks((n, args.relations) for n in MERGED_SIZES)
    merged = [rng.getrandbits(len(MERGED_SIZES) * args.relations) & mask for mask in masks]
    label = ",".join(map(str, MERGED_SIZES))
    for name in LETTERS:
        w = parse_word(name)
        letters[name][label] = _median_ms(lambda: bitrel.apply_word_packed(merged, w, masks),
                                          args.repeat)

    result = {
        "label": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "params": {"relations": args.relations, "sizes": list(args.sizes),
                   "merged_sizes": list(MERGED_SIZES),
                   "repeat": args.repeat, "seed": args.seed, "unit": "ms (median)"},
        "eval_term_batch": batch,
        "apply_word_packed": letters,
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        path = Path(args.out) / f"BENCH_kernels_{args.label}.json"
        path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
