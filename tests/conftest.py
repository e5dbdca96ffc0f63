import random
from itertools import combinations

import pytest

import helpers
from lapspec.realize import DenseGraph, graph6_encode


@pytest.fixture(scope="session")
def g6_corpus():
    """10k random graph6 records on 1..11 vertices; deterministic by seed."""
    rng = random.Random(0xC0FFEE)
    lines = []
    for _ in range(10_000):
        n = rng.randint(1, 11)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        lines.append(graph6_encode(DenseGraph.from_edges(n, edges)))
    return lines


@pytest.fixture(scope="session")
def mixed_corpus():
    """3001 records on 0..62 vertices with a malformed line every 37th; deterministic by seed.

    Their matrices hold about 2.07 million cells, so the scan's cell budget
    (``CHUNK_CELLS``, about 1.97 million) closes a chunk inside it.
    """
    rng = random.Random(2024)
    lines = []
    for k in range(3001):
        if k % 37 == 36:
            lines.append("E~!>")
        else:
            lines.append(graph6_encode(helpers.random_graph(rng, rng.choice((0, 1, 4, 8, 9, 17, 33, 62)))))
    return lines
