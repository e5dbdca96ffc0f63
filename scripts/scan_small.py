"""Exhaustively scan every graph on up to --max-n vertices for Laplacian
energy equal to the complete-graph value 2n-2.

Usage:
    python scripts/scan_small.py --max-n 5

Enumeration is brute force (canonical form = minimum edge bitmask over all
vertex relabelings), so it is only meant for desk-scale orders; n = 6 takes
a minute or two, beyond that use an external isomorph-free generator and
feed its output to `lapspec scan`.
"""

from __future__ import annotations

import argparse
from itertools import combinations, permutations

from lapspec.realize import DenseGraph, graph6_encode
from lapspec.scan import CERTIFIED_HIT, dedupe_cospectral, scan


def graph_classes(n: int):
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    seen = set()
    for mask in range(1 << len(pairs)):
        canon = min(_relabeled(mask, pairs, index, perm) for perm in permutations(range(n)))
        if canon in seen:
            continue
        seen.add(canon)
        edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
        yield DenseGraph.from_edges(n, edges)


def _relabeled(mask: int, pairs, index, perm) -> int:
    out = 0
    for k, (u, v) in enumerate(pairs):
        if (mask >> k) & 1:
            pu, pv = perm[u], perm[v]
            out |= 1 << index[(pu, pv) if pu < pv else (pv, pu)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        lines = [graph6_encode(g) for g in graph_classes(n)]
        records = list(scan(lines))
        hits = [r for r in records if r.verdict != "miss"]
        print(f"n={n}: {len(records)} isomorphism classes, {len(hits)} hits")
        for group in dedupe_cospectral(hits):
            rec = group[0]
            label = "exact" if rec.verdict == CERTIFIED_HIT else "numeric only"
            spectrum = rec.certificate if rec.certificate else tuple(round(x, 6) for x in rec.numeric_spectrum)
            print(f"    {rec.g6:<12} spectrum {spectrum}  LE {rec.numeric_le:.9f}  [{label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
