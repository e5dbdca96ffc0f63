"""Concrete adjacency matrices, numeric eigenvalues, an exact integer
spectrum certificate, and the graph6 codec.

These routes are deliberately independent of the spectrum calculus so they
can cross-check it: numeric eigenvalues of the realized Laplacian come from
LAPACK, and an integer eigenvalue multiset can be certified exactly from
the minimal polynomial and power traces of the matrix.  ``realize`` folds
an expression with a ``Builder`` of ``DenseGraph`` operations, which shares
nothing with the spectrum rules.  The certificate's arithmetic is exact:
float64 through BLAS while a bound computed beforehand keeps every
intermediate value an integer below 2^53, else Python ints.  A stack of
matrices of one order is certified, like it is solved, in one call.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .expr import Builder, GraphExpr, fold, order

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


_GRAPHS = Builder(
    DenseGraph.complete, DenseGraph.union, DenseGraph.join, lambda m, g: g.repeat(m), DenseGraph.complement
)


def realize(expr: GraphExpr, size_cap: int = DEFAULT_SIZE_CAP) -> DenseGraph:
    """Adjacency-matrix realization of an expression."""
    n = order(expr)
    if n > size_cap:
        raise GraphTooLargeError(f"expression order {n} exceeds the size cap {size_cap}")
    return fold(expr, _GRAPHS)


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

# Below this every integer is exact in float64; the proof runs there while
# its bound stays below it, and on Python ints beyond.
_FLOAT64_PROOF_LIMIT = 2**53


def certify_integer_spectrum(matrix, candidate) -> bool | np.ndarray:
    """Whether the candidate integer multiset is exactly the spectrum of ``matrix``.

    The matrix must be exactly symmetric with integer entries, so it is
    diagonalisable.  With S the distinct candidate values and m_k their
    multiplicities, the candidate is the spectrum iff the product of
    ``M - kI`` over S vanishes (every eigenvalue lies in S) and
    ``tr(M^j) = sum(m_k * k^j)`` for ``j = 1 .. |S| - 1`` (a Vandermonde
    system on distinct nodes then fixes the multiplicities).

    Accepts one ``(n, n)`` matrix and one candidate, giving a bool, or a
    ``(k, n, n)`` stack and one candidate per matrix, proved together and
    giving a ``(k,)`` bool array.  In a stack every S is padded to the
    widest one, w values, by repeating one of its values: the product then
    vanishes exactly when it did, and the extra traces hold for any true
    spectrum.

    With k_1 .. k_w those values and ``||.||`` the largest absolute row sum,
    which is submultiplicative, each matrix has the bound
    ``B = n * max(||M||, max|k|, max_t prod_{s<=t} ||M - k_s I||, ||M||^(w-1))``,
    computed exactly.  No entry, factor, partial sum of a product or power,
    or trace can exceed it, whatever the summation order.  So the proof runs
    in float64 through BLAS when ``B < 2^53`` and on Python ints otherwise;
    the right-hand sides of the traces are Python ints.  Either way a wrong
    candidate is rejected, never silently accepted.
    """
    a = np.asarray(matrix)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    n = a.shape[-1]
    cands = [_exact_ints(list(c)) for c in (candidate if a.ndim == 3 else [candidate])]
    if None in cands:
        raise ValueError("candidate eigenvalues must be integers")
    for cand in cands:
        if len(cand) != n:
            raise ValueError(f"candidate multiset has {len(cand)} values for order {n}")
    stack = a if a.ndim == 3 else a[None]
    if len(cands) != len(stack):
        raise ValueError(f"{len(cands)} candidates for {len(stack)} matrices")
    m = _exact_entries(stack)
    if not np.array_equal(m, np.swapaxes(m, 1, 2)):
        raise ValueError("matrix must be exactly symmetric")
    proved = _prove(m, [Counter(cand) for cand in cands])
    return proved if a.ndim == 3 else bool(proved[0])


def _exact_ints(values: list) -> list[int] | None:
    """``values`` as Python ints if each one equals an integer, else None."""
    try:
        ints = [int(x) for x in values]
    except (OverflowError, TypeError, ValueError):  # an infinity, NaN, None or complex value
        return None
    return ints if ints == values else None


def _exact_entries(a: np.ndarray) -> np.ndarray:
    """The entries of a stack of integer matrices, exactly.

    float64 when every absolute row sum is below 2^53, so the row sums are
    exact too; else Python ints in an object array.  Raises ``ValueError``
    on an entry that is not an integer.
    """
    if a.dtype.kind == "f" and not (np.isfinite(a).all() and (np.trunc(a) == a).all()):
        raise ValueError("matrix entries must be integers")
    if a.dtype.kind in "biuf":
        largest = max(int(a.max()), -int(a.min())) if a.size else 0
        if largest * a.shape[-1] < _FLOAT64_PROOF_LIMIT:
            return a.astype(np.float64, copy=False)
    ints = _exact_ints(a.ravel().tolist())
    if ints is None:
        raise ValueError("matrix entries must be integers")
    return np.array(ints, dtype=object).reshape(a.shape)


def _proof_bounds(m: np.ndarray, values: list[list[int]]) -> list[int]:
    """The certifier's bound B for each matrix of an exact stack and its padded values."""
    n = m.shape[1]
    diag = np.diagonal(m, axis1=1, axis2=2)
    off = np.abs(m).sum(axis=2) - np.abs(diag)
    # max_i(|d_i - k| + off_i) = max(max_i(d_i + off_i) - k, max_i(off_i - d_i) + k)
    above = (diag + off).max(axis=1).tolist()
    below = (off - diag).max(axis=1).tolist()
    norms = (np.abs(diag) + off).max(axis=1).tolist()
    bounds = []
    for norm, hi, lo, row in zip(norms, above, below, values):
        norm, hi, lo = int(norm), int(hi), int(lo)
        prefix, chain = 1, 0
        for k in row:
            prefix *= max(hi - k, lo + k)
            chain = max(chain, prefix)
        bounds.append(n * max(norm, max(map(abs, row)), chain, norm ** (len(row) - 1)))
    return bounds


def _prove(m: np.ndarray, multiplicities: list[Counter]) -> np.ndarray:
    """The certifier's proof for each matrix of an exact stack and its candidate."""
    count, n = m.shape[:2]
    proved = np.ones(count, dtype=bool)
    if count == 0 or n == 0:  # the empty matrix has the empty spectrum
        return proved
    w = max(map(len, multiplicities))
    values = [list(mult) + [next(iter(mult))] * (w - len(mult)) for mult in multiplicities]
    exact = np.array([b < _FLOAT64_PROOF_LIMIT for b in _proof_bounds(m, values)])
    diag = np.arange(n)
    for in_float64 in dict.fromkeys(exact.tolist()):
        members = np.flatnonzero(exact == in_float64)
        x = m[members]
        if in_float64:  # exact, as B bounds every entry below 2^53
            x = x.astype(np.float64, copy=False)
        elif x.dtype != object:  # integers below 2^53, which int64 and then Python ints keep
            x = x.astype(np.int64).astype(object)
        ks = np.array([values[i] for i in members], dtype=x.dtype)
        product = None
        for s in range(w):
            factor = x.copy()
            factor[:, diag, diag] -= ks[:, s, None]
            product = factor if product is None else product @ factor
        vanishes = ~(product != 0).any(axis=(1, 2))
        traces, power = [], x
        for j in range(1, w):
            if j > 1:
                power = power @ x
            traces.append(np.trace(power, axis1=1, axis2=2).tolist())
        for row, i in enumerate(members.tolist()):
            mult = multiplicities[i]
            proved[i] = vanishes[row] and all(
                t[row] == sum(c * k**j for k, c in mult.items()) for j, t in enumerate(traces, start=1)
            )
    return proved


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


# The order a graph6 record's first character gives; any other first character is rejected.
_GRAPH6_ORDERS = {chr(63 + n): n for n in range(63)}


def graph6_decode(text: str) -> DenseGraph:
    """Decode one graph6 record (single-byte order form, n <= 62), ignoring whitespace around it."""
    s = text.strip()
    groups, rejected = _graph6_decode_records([s])
    if rejected:
        raise Graph6Error(_graph6_fault(s))
    return DenseGraph._trusted(groups[0][1][0])


def _graph6_decode_records(records: Sequence[str]) -> tuple[list[tuple[list[int], np.ndarray]], list[int]]:
    """Decode stripped graph6 records of any orders, each order at once.

    Returns, for each order with well-formed records, their positions and
    ``(k, n, n)`` uint8 adjacency stack; then the positions of the rejected
    records, ascending, whose faults ``_graph6_fault`` names.
    """
    by_order: dict[int, list[int]] = {}
    for pos, record in enumerate(records):
        by_order.setdefault(_GRAPH6_ORDERS.get(record[:1], -1), []).append(pos)
    groups, rejected = [], by_order.pop(-1, [])
    for n, members in by_order.items():
        size = 1 + (n * (n - 1) // 2 + 5) // 6  # the order byte, then 6 bits of the upper triangle a byte
        ok = np.array([len(records[pos]) == size and records[pos].isascii() for pos in members], dtype=bool)
        data = "".join(records[pos] for pos in compress(members, ok)).encode("ascii")
        values = np.frombuffer(data, dtype=np.uint8).reshape(-1, size)[:, 1:] - np.uint8(63)
        good = (values <= 63).all(axis=1)  # bytes below 63 wrap around
        ok[ok] = good
        if good.any():
            groups.append((list(compress(members, ok)), _graph6_adjacency(n, values[good])))
        rejected += compress(members, ~ok)
    return groups, sorted(rejected)


def _graph6_fault(record: str) -> str:
    """The message for a stripped record that ``_graph6_decode_records`` rejects."""
    if not record:
        return "empty graph6 record"
    if not record.isascii():
        return "non-ASCII character in graph6 record"
    if record[0] == "~":
        return "multi-byte order encoding (n > 62) is not supported"
    n = _GRAPH6_ORDERS.get(record[0])
    if n is not None:
        need, found = (n * (n - 1) // 2 + 5) // 6, len(record) - 1
        if found < need:
            return f"truncated graph6 payload: expected {need} bytes, found {found}"
        if found > need:
            return f"trailing bytes after graph6 payload of {need} bytes"
    bad = next(c for c in record if not "?" <= c <= "~")  # the order byte or a payload byte
    return f"malformed graph6 byte {ord(bad)} (must be 63..126)"


def _graph6_adjacency(n: int, values: np.ndarray) -> np.ndarray:
    """The ``(k, n, n)`` uint8 adjacency stack of k rows of 6-bit graph6 payload values."""
    k = len(values)
    bits = np.unpackbits(values[:, :, None], axis=2)[:, :, 2:].reshape(k, 6 * values.shape[1])[:, : n * (n - 1) // 2]
    upper, lower = _graph6_positions(n)
    adj = np.zeros((k, n * n), dtype=np.uint8)
    adj[:, upper] = bits
    adj[:, lower] = bits
    return adj.reshape(k, n, n)


def graph6_encode(g: DenseGraph) -> str:
    """Encode a graph as one graph6 record (requires n <= 62)."""
    if g.n > 62:
        raise Graph6Error("graph6 single-byte order encoding supports n <= 62 only")
    upper, _ = _graph6_positions(g.n)
    bits = np.zeros(-(-upper.size // 6) * 6, dtype=np.uint8)  # zero-padded to whole 6-bit groups
    bits[: upper.size] = g.adj.ravel()[upper]
    # packbits fills each 8-bit byte from the top, so a 6-bit group sits 2 bits up.
    values = np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2
    return chr(63 + g.n) + (values + 63).tobytes().decode("ascii")


def iter_graph6(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, record)`` pairs from graph6 text lines.

    Blank lines are skipped, and a ``>>graph6<<`` header is stripped from
    the start of any line, whether alone on it or before a record.
    """
    for lineno, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s.startswith(GRAPH6_HEADER):
            s = s[len(GRAPH6_HEADER):].strip()
        if not s:
            continue
        yield lineno, s
