"""Generate a random graph6 corpus for codec and scanner stress tests.

Usage:
    python scripts/make_corpus.py --count 10000 --max-n 11 --seed 7 --out corpus.g6

Orders are uniform on 1..max-n and each edge appears with probability 1/2,
so the corpus mixes sparse, dense, and disconnected graphs.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import combinations

from lapspec.realize import DenseGraph, graph6_encode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--max-n", type=int, default=11)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    args = parser.parse_args()

    if args.count < 0:
        parser.error("--count must be at least 0")
    if not 1 <= args.max_n <= 62:
        parser.error("--max-n must be in 1..62")

    rng = random.Random(args.seed)
    sink = sys.stdout if args.out == "-" else open(args.out, "w", encoding="ascii")
    try:
        for _ in range(args.count):
            n = rng.randint(1, args.max_n)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            sink.write(graph6_encode(DenseGraph.from_edges(n, edges)) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
