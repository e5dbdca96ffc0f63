"""Seeded inputs for the three workloads, and what the oracle expects of them.

``generate(workload, seed, workdir, tiny)`` writes the input files and
``spec.json`` (the CLI calls one pass makes, read by ``worker.py``) and
returns the oracle's expectations plus a digest of the input bytes.  The
same seed gives the same bytes.

Inputs that lapspec cannot yet process are left out on purpose:
non-ASCII lines abort a whole scan file, and parenthesis nesting near 190
levels or operator chains near 900 terms raise ``RecursionError``.  The
README says when they come in.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("scan_small", "scan_large", "calculus")

# scan_small: the corpus shape of tests/conftest.py (orders uniform on 1..11,
# each edge with probability 1/2), except that every order appears equally
# often, so that the eigensolve work does not swing with the seed; plus a
# fixed number of malformed ASCII lines at seeded positions.
SMALL_MAX_N, SMALL_PER_ORDER, SMALL_MALFORMED = 11, 100, 11
# scan_large: a fixed schedule, so every seed does the same amount of work;
# the seed permutes vertex labels, picks Gir's index and draws the misses.
# G24/G34 at r >= 2 are Laplacian integral but miss the energy target.
LARGE_FAMILIES = (("Omega2", 9), ("G24", 10), ("Gir", 11), ("G34", 12), ("G13", 13))
LARGE_MISSES = (44, 58)
# calculus: verify-family and eval up to R, then a tail of large expressions
# (count, operator or "tree", terms or leaves).  The tail is 5% of the evals,
# so op_p99_ms falls inside the 512-leaf trees.
CALCULUS_R = 20
CALCULUS_TAIL = ((8, "+", 300), (8, "*", 300), (12, "tree", 512), (2, "tree", 2048))

TINY = {
    "SMALL_MAX_N": 6,
    "SMALL_PER_ORDER": 5,
    "SMALL_MALFORMED": 3,
    "LARGE_FAMILIES": (("Omega2", 1), ("Gir", 2), ("G24", 2)),
    "LARGE_MISSES": (9,),
    "CALCULUS_R": 2,
    "CALCULUS_TAIL": ((1, "+", 5), (1, "*", 5), (1, "tree", 8)),
}


def _size(name: str, tiny: bool):
    return TINY[name] if tiny else globals()[name]


def _random_adjacency(rng: random.Random, n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[u, v] = adj[v, u] = 1
    return adj


def _malformed(rng: random.Random) -> str:
    """A graph6 line that any reader must reject: truncated, extended or with a bad byte."""
    record = oracle.graph6(_random_adjacency(rng, rng.randint(2, 11)))
    kind = rng.randrange(3)
    if kind == 0:
        return record[:-1]
    if kind == 1:
        return record + chr(63 + rng.randrange(64))
    k = rng.randrange(1, len(record))
    return record[:k] + chr(rng.randint(33, 62)) + record[k + 1 :]


def _scan_spec(workdir: Path, lines: list[str]) -> tuple[dict, bytes]:
    data = "".join(line + "\n" for line in lines).encode("ascii")
    (workdir / "input.g6").write_bytes(data)
    warm = [oracle.graph6(oracle.adjacency(oracle.parse(t))) for t in ("K4", "K2 * 2K1", "K1 + K2")]
    (workdir / "warmup.g6").write_text("".join(w + "\n" for w in warm), encoding="ascii")
    jsonl = str(workdir / "out.jsonl")
    spec = {
        "warmup": ["scan", str(workdir / "warmup.g6"), "--jobs", "1"],
        "calls": [
            {
                "argv": ["scan", str(workdir / "input.g6"), "--jobs", "1", "--json", jsonl],
                "latency": "lines",
                "files": {"jsonl": jsonl},
            }
        ],
        "ops": len(lines),
    }
    return spec, data


def _scan_small(seed: int, tiny: bool) -> tuple[list[str], dict]:
    rng = random.Random(seed)
    orders = list(range(1, _size("SMALL_MAX_N", tiny) + 1)) * _size("SMALL_PER_ORDER", tiny)
    rng.shuffle(orders)
    graphs = [_random_adjacency(rng, n) for n in orders]
    bad = random.Random(f"{seed}/malformed")
    slots = set(bad.sample(range(len(graphs) + 1), _size("SMALL_MALFORMED", tiny)))
    lines, records, errors = [], [], []
    for k in range(len(graphs) + 1):
        if k in slots:
            lines.append(_malformed(bad))
            errors.append(len(lines))
        if k < len(graphs):
            lines.append(oracle.graph6(graphs[k]))
            records.append({"line": len(lines), "g6": lines[-1], **oracle.scan_expectation(graphs[k])})
    return lines, {"records": records, "errors": errors}


def _scan_large(seed: int, tiny: bool) -> tuple[list[str], dict]:
    from lapspec.families import FamilySpec, source

    rng = random.Random(seed)
    graphs = []
    for fid, r in _size("LARGE_FAMILIES", tiny):
        spec = FamilySpec(fid, r, rng.randint(0, 2 * r) if fid == "Gir" else None)
        tree = oracle.parse(source(spec))
        n, eigs = oracle.spectrum(tree)
        perm = list(range(n))
        rng.shuffle(perm)
        adj = oracle.adjacency(tree)[np.ix_(perm, perm)]
        family = {"family": f"{fid} r={r} i={spec.i}", "family_spectrum": sorted(v for v, m in eigs.items() for _ in range(m))}
        graphs.append((adj, family))
    graphs += [(_random_adjacency(rng, n), {}) for n in _size("LARGE_MISSES", tiny)]
    rng.shuffle(graphs)
    lines, records = [], []
    for adj, family in graphs:
        lines.append(oracle.graph6(adj))
        exp = {"line": len(lines), "g6": lines[-1], **oracle.scan_expectation(adj), **family}
        if family and not oracle.close_enough(exp["eigs"], family["family_spectrum"]):
            raise AssertionError(f"oracle disagrees with itself on {family['family']}")
        records.append(exp)
    return lines, {"records": records, "errors": []}


def _term(rng: random.Random) -> str:
    a, m = rng.randint(1, 4), rng.randint(2, 3)
    return (f"K{a}", f"{m}K{a}", f"~({m}K{a})", f"(K{a} * {m}K1)")[rng.randrange(4)]


def _tree(rng: random.Random, leaves: int, depth: int = 0) -> str:
    """Balanced tree over random terms.  The operator alternates by depth: a
    random operator near the root would swing the composition cost by the
    seed far more than the terms do."""
    if leaves == 1:
        return _term(rng)
    half = leaves // 2
    return f"({_tree(rng, half, depth + 1)} {'*+'[depth % 2]} {_tree(rng, leaves - half, depth + 1)})"


def _verdict_line(fid: str, r: int, i: int | None) -> dict:
    """verify-family's JSON verdict, from the paper: LE = 8r + 6, except that
    G24 and G34 exceed it by r(r-1)/(r+1)."""
    le = Fraction(8 * r + 6) + (Fraction(r * (r - 1), r + 1) if fid in ("G24", "G34") else 0)
    ok = le == 8 * r + 6
    return {
        "id": fid,
        "r": r,
        "i": i,
        "order": 4 * r + 4,
        "spectra_match": True,
        "le": [le.numerator, le.denominator],
        "target": 8 * r + 6,
        "le_matches_target": ok,
        "noncospectral_with_complete": True,
        "passed": ok,
    }


def _calculus(seed: int, tiny: bool, workdir: Path) -> tuple[dict, dict, bytes]:
    from lapspec.families import family_specs, source

    big_r = _size("CALCULUS_R", tiny)
    verdicts = [
        _verdict_line(fid, r, i)
        for r in range(1, big_r + 1)
        for fid in oracle.FAMILY_IDS
        for i in (range(2 * r + 1) if fid == "Gir" else (None,))
    ]
    texts = [source(spec) for r in range(1, big_r + 1) for spec in family_specs(r)]
    rng = random.Random(seed)
    for count, kind, size in _size("CALCULUS_TAIL", tiny):
        for _ in range(count):
            texts.append(_tree(rng, size) if kind == "tree" else f" {kind} ".join(_term(rng) for _ in range(size)))
    evals = [oracle.energy_json(*oracle.spectrum(oracle.parse(t))) for t in texts]
    verify_argv = ["verify-family", "--id", "all", "--r-max", str(big_r), "--json"]
    spec = {
        "warmup": ["eval", "K2 * 2K1", "--json"],
        "calls": [{"argv": verify_argv, "latency": "none"}]
        + [{"argv": ["eval", t, "--json"], "latency": "call"} for t in texts],
        "ops": len(verdicts) + len(texts),
    }
    expect = {"verify": {"rc": 0 if all(v["passed"] for v in verdicts) else 1, "lines": verdicts}, "evals": evals}
    return spec, expect, json.dumps([verify_argv, texts]).encode("ascii")


def generate(workload: str, seed: int, workdir: Path, tiny: bool = False) -> tuple[dict, str]:
    """Write the inputs and ``spec.json``; return (expectations, input sha256)."""
    if workload == "calculus":
        spec, expect, data = _calculus(seed, tiny, workdir)
    else:
        lines, expect = (_scan_small if workload == "scan_small" else _scan_large)(seed, tiny)
        spec, data = _scan_spec(workdir, lines)
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="ascii")
    return expect, hashlib.sha256(data).hexdigest()
