"""Concrete adjacency matrices, numeric eigenvalues, an exact integer
spectrum certificate, and the graph6 codec.

These routes are deliberately independent of the spectrum calculus so they
can cross-check it: numeric eigenvalues of the realized Laplacian come from
LAPACK, and an integer eigenvalue multiset can be certified exactly from
the minimal polynomial and power traces of the matrix in integer arithmetic.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .expr import Complement, Complete, GraphExpr, Join, Repeat, Union, order

__all__ = [
    "DenseGraph",
    "GraphTooLargeError",
    "Graph6Error",
    "DEFAULT_SIZE_CAP",
    "GRAPH6_HEADER",
    "realize",
    "laplacian_matrix",
    "symmetric_eigenvalues",
    "certify_integer_spectrum",
    "graph6_decode",
    "graph6_encode",
    "iter_graph6",
]

DEFAULT_SIZE_CAP = 4096

GRAPH6_HEADER = ">>graph6<<"


class GraphTooLargeError(ValueError):
    """Expression order beyond the realization size cap."""


class Graph6Error(ValueError):
    """Malformed graph6 record."""


# --- dense graphs ---------------------------------------------------------


class DenseGraph:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""

    def __init__(self, adj):
        a = np.asarray(adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if a.size:
            if not np.isin(a, (0, 1)).all():
                raise ValueError("adjacency entries must be 0 or 1")
            if np.diagonal(a).any():
                raise ValueError("adjacency diagonal must be zero")
            if not np.array_equal(a, a.T):
                raise ValueError("adjacency must be symmetric")
        self.adj = a.astype(np.uint8)
        self.n = int(a.shape[0])

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "DenseGraph":
        """Wrap a uint8 adjacency matrix that is valid by construction, unchecked."""
        g = cls.__new__(cls)
        g.adj = adj
        g.n = int(adj.shape[0])
        return g

    @classmethod
    def complete(cls, n: int) -> "DenseGraph":
        a = np.ones((n, n), dtype=np.uint8)
        np.fill_diagonal(a, 0)
        return cls._trusted(a)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DenseGraph":
        a = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for order {n}")
            a[u, v] = a[v, u] = 1
        return cls(a)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def union(self, other: "DenseGraph") -> "DenseGraph":
        n1, n2 = self.n, other.n
        a = np.zeros((n1 + n2, n1 + n2), dtype=np.uint8)
        a[:n1, :n1] = self.adj
        a[n1:, n1:] = other.adj
        return DenseGraph._trusted(a)

    def join(self, other: "DenseGraph") -> "DenseGraph":
        n1 = self.n
        combined = self.union(other)
        combined.adj[:n1, n1:] = 1
        combined.adj[n1:, :n1] = 1
        return combined

    def complement(self) -> "DenseGraph":
        a = (1 - self.adj).astype(np.uint8)
        np.fill_diagonal(a, 0)
        return DenseGraph._trusted(a)

    def repeat(self, m: int) -> "DenseGraph":
        if m < 1:
            raise ValueError("repetition count must be at least 1")
        return DenseGraph._trusted(np.kron(np.eye(m, dtype=np.uint8), self.adj))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __repr__(self) -> str:
        return f"DenseGraph(n={self.n}, m={self.edge_count()})"


def realize(expr: GraphExpr, size_cap: int = DEFAULT_SIZE_CAP) -> DenseGraph:
    """Adjacency-matrix realization of an expression."""
    n = order(expr)
    if n > size_cap:
        raise GraphTooLargeError(f"expression order {n} exceeds the size cap {size_cap}")
    return _realize(expr)


def _realize(expr: GraphExpr) -> DenseGraph:
    # Recursive on purpose, as an independent route; ``order`` has checked every node.
    match expr:
        case Complete(n):
            return DenseGraph.complete(n)
        case Union(left, right):
            return _realize(left).union(_realize(right))
        case Join(left, right):
            return _realize(left).join(_realize(right))
        case Repeat(m, inner):
            return _realize(inner).repeat(m)
        case Complement(inner):
            return _realize(inner).complement()


def laplacian_matrix(g: DenseGraph) -> np.ndarray:
    """Degree diagonal minus adjacency; every row sums to zero."""
    adj = g.adj.astype(np.int64)
    return np.diag(adj.sum(axis=1)) - adj


# --- numeric eigensolver -----------------------------------------------------


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by LAPACK (``dsyevd``).

    Accepts one ``(n, n)`` matrix, giving an ``(n,)`` result, or a
    ``(k, n, n)`` stack solved in one call, giving one spectrum per row of a
    ``(k, n)`` result.  The input must be exactly symmetric, since
    ``eigvalsh`` would otherwise read one triangle and silently answer for
    another matrix.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("matrix must be exactly symmetric")
    return np.linalg.eigvalsh(a)


# --- exact spectrum certificate ---------------------------------------------

# The certifier runs in int64 only while its overflow bound stays below this.
_INT64_PROOF_LIMIT = 2**62


def certify_integer_spectrum(matrix, candidate: Sequence[int]) -> bool:
    """Whether the candidate integer multiset is exactly the spectrum of ``matrix``.

    The matrix must be exactly symmetric with integer entries, so it is
    diagonalisable.  With S the distinct candidate values and m_k their
    multiplicities, the candidate is the spectrum iff the product of
    ``M - kI`` over S vanishes (every eigenvalue lies in S) and
    ``tr(M^j) = sum(m_k * k^j)`` for ``j = 1 .. |S| - 1`` (a Vandermonde
    system on distinct nodes then fixes the multiplicities).

    Both checks run in int64 when ``(||M||_inf + max|k|)^|S| * n < 2^62``,
    where ``||M||_inf`` is the largest absolute row sum.  That norm is
    submultiplicative, so no partial sum of a product, power or trace can
    then reach the int64 limit.  The norm and the bound are computed in
    Python ints, so huge entries cannot wrap while they are checked.
    Otherwise both checks run on Python ints.  Either way a wrong candidate
    is rejected, never silently accepted.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    cand = []
    for k in candidate:
        ki = int(k)
        if ki != k:
            raise ValueError("candidate eigenvalues must be integers")
        cand.append(ki)
    n = a.shape[0]
    if len(cand) != n:
        raise ValueError(f"candidate multiset has {len(cand)} values for order {n}")
    rows = a.tolist()
    ints = [[int(x) for x in row] for row in rows]
    if ints != rows:
        raise ValueError("matrix entries must be integers")
    if list(map(list, zip(*ints))) != ints:
        raise ValueError("matrix must be exactly symmetric")
    multiplicity = Counter(cand)
    norm = max((sum(map(abs, row)) for row in ints), default=0)
    bound = (norm + max(map(abs, multiplicity), default=0)) ** len(multiplicity) * n
    dtype = np.int64 if bound < _INT64_PROOF_LIMIT else object
    m = np.array(ints, dtype=dtype).reshape(n, n)
    eye = np.identity(n, dtype=dtype)
    product = eye
    for k in multiplicity:
        product = product @ (m - k * eye)
    if (product != 0).any():
        return False
    power = eye
    for j in range(1, len(multiplicity)):
        power = power @ m
        if power.trace() != sum(mult * k**j for k, mult in multiplicity.items()):
            return False
    return True


# --- graph6 codec -----------------------------------------------------------


@functools.cache
def _graph6_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in an ``n * n`` matrix of each graph6 bit and of its mirror.

    graph6 lists the upper triangle column by column.  Built on first use of
    each order (at most 63 of them), not at import.
    """
    cols, rows = np.tril_indices(n, -1)
    upper, lower = rows * n + cols, cols * n + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def graph6_decode(text: str) -> DenseGraph:
    """Decode one graph6 record (single-byte order form, n <= 62)."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character in graph6 record") from exc
    head = data[0]
    if head == 126:
        raise Graph6Error("multi-byte order encoding (n > 62) is not supported")
    if not 63 <= head <= 126:
        raise Graph6Error(f"malformed graph6 byte {head} (must be 63..126)")
    n = head - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = data[1:]
    if len(payload) < need:
        raise Graph6Error(f"truncated graph6 payload: expected {need} bytes, found {len(payload)}")
    if len(payload) > need:
        raise Graph6Error(f"trailing bytes after graph6 payload of {need} bytes")
    values = np.frombuffer(payload, dtype=np.uint8) - np.uint8(63)
    if values.max(initial=0) > 63:  # bytes below 63 wrap around to large values
        first = int(np.argmax(values > 63))
        raise Graph6Error(f"malformed graph6 byte {payload[first]} (must be 63..126)")
    bits = np.unpackbits(values[:, None], axis=1)[:, 2:].ravel()[:nbits]
    upper, lower = _graph6_positions(n)
    adj = np.zeros(n * n, dtype=np.uint8)
    adj[upper] = bits
    adj[lower] = bits
    return DenseGraph._trusted(adj.reshape(n, n))


def graph6_encode(g: DenseGraph) -> str:
    """Encode a graph as one graph6 record (requires n <= 62)."""
    if g.n > 62:
        raise Graph6Error("graph6 single-byte order encoding supports n <= 62 only")
    out = [chr(63 + g.n)]
    value = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            value = (value << 1) | int(g.adj[i, j])
            filled += 1
            if filled == 6:
                out.append(chr(63 + value))
                value = 0
                filled = 0
    if filled:
        out.append(chr(63 + (value << (6 - filled))))
    return "".join(out)


def iter_graph6(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, record)`` pairs from graph6 text lines.

    Blank lines are skipped and the optional ``>>graph6<<`` header is
    tolerated, either alone on a line or prefixed to the first record.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s.startswith(GRAPH6_HEADER):
            s = s[len(GRAPH6_HEADER):].strip()
        if not s:
            continue
        yield lineno, s
