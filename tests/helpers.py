"""Shared generators and brute-force oracles for the test suite."""

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import numpy as np

from lapspec.expr import Complete, Complement, Join, Repeat, Union, order
from lapspec.realize import DenseGraph

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, **env):
    """``python ARGS`` in a fresh interpreter that imports lapspec from ``src``."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )


def random_expr(rng: random.Random, max_depth: int):
    if max_depth == 0 or rng.random() < 0.3:
        return Complete(rng.randint(1, 4))
    pick = rng.randrange(4)
    if pick == 0:
        return Union(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))
    if pick == 1:
        return Join(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))
    if pick == 2:
        return Repeat(rng.randint(1, 3), random_expr(rng, max_depth - 1))
    return Complement(random_expr(rng, max_depth - 1))


def random_expr_with_order(rng: random.Random, max_depth: int = 5, max_order: int = 12):
    while True:
        e = random_expr(rng, max_depth)
        if order(e) <= max_order:
            return e


def random_graph(rng: random.Random, n: int) -> DenseGraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    return DenseGraph.from_edges(n, edges)


def expr_strategy(max_leaves: int = 8):
    atoms = st.integers(1, 4).map(Complete)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Union(*ab)),
            st.tuples(children, children).map(lambda ab: Join(*ab)),
            st.tuples(st.integers(1, 3), children).map(lambda ma: Repeat(*ma)),
            children.map(Complement),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


def text_strategy():
    """Short texts over the expression alphabet, with whitespace, other decimal
    digits and a stray letter: most are malformed, some parse."""
    return st.text("K0123456789+*~() \t\u00b2\u0663x", max_size=40)


def source_strategy(max_leaves: int = 8):
    """Texts that parse, whose grouping is left to precedence and associativity
    where it can be: operands with counts and ``~``s, joined by ``+`` and ``*``."""
    atoms = st.integers(1, 4).map("K{}".format)

    def extend(texts):
        operand = st.tuples(st.sampled_from(["", "2", "~", "3~~"]), atoms | texts.map("({})".format)).map("".join)
        terms = st.lists(st.tuples(st.sampled_from([" + ", " * "]), operand), min_size=1, max_size=4)
        return st.builds(lambda first, rest: first + "".join(op + term for op, term in rest), operand, terms)

    return st.recursive(atoms, extend, max_leaves=max_leaves)


def graph_classes(n: int) -> list[DenseGraph]:
    """One graph per isomorphism class on n <= 7 vertices, from the networkx atlas."""
    import networkx

    if not 0 <= n <= 7:
        raise ValueError("the graph atlas covers orders 0..7 only")
    return [
        DenseGraph(networkx.to_numpy_array(g, nodelist=range(n), dtype=np.uint8))
        for g in networkx.graph_atlas_g()
        if g.number_of_nodes() == n
    ]


def charpoly_coeffs(matrix) -> tuple[int, ...]:
    """``det(xI - M)`` of an integer matrix; entry k is the coefficient of ``x**k``.

    An independent exact oracle for ``certify_integer_spectrum``: the
    Faddeev-LeVerrier recurrence over Python integers, O(n^4).  The
    per-step division by k is exact for integer input, and that is asserted.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    rows = [[int(x) for x in row] for row in a.tolist()]
    if rows != a.tolist():
        raise ValueError("matrix entries must be integers")
    n = len(rows)
    coeffs = [0] * n + [1]
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*aux))
        am = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in rows]
        t = sum(am[i][i] for i in range(n))
        if t % k:
            raise ArithmeticError("non-integer coefficient; input was not an integer matrix")
        coeffs[n - k] = -(t // k)
        for i in range(n):
            am[i][i] += coeffs[n - k]
        aux = am
    return tuple(coeffs)


def from_roots(roots) -> tuple[int, ...]:
    """Coefficients, lowest degree first, of the monic product of ``x - r``."""
    coeffs = [1]
    for root in roots:
        r = int(root)
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return tuple(coeffs)


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted before the off-diagonal norm fell below tol."""

    def __init__(self, residual: float):
        super().__init__(f"Jacobi iteration did not converge; off-diagonal norm {residual:.3e}")
        self.residual = residual


def _offdiagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diagonal(a))
    return float(np.sqrt((off * off).sum()))


def jacobi_eigenvalues(matrix, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi.

    An independent numeric oracle for ``symmetric_eigenvalues`` (LAPACK):
    plain rotations in Python, sharing no code with it.  Sweeps run over the
    fixed pivot order (0,1), (0,2), ..., (n-2,n-1) until the off-diagonal
    Frobenius norm drops below ``tol``; the pivot order makes the output
    reproducible bit-for-bit on one platform.  Raises
    ``JacobiConvergenceError`` with the residual after ``max_sweeps`` sweeps.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    n = a.shape[0]
    if n < 2:
        return np.diagonal(a).copy()
    converged = False
    for _ in range(max_sweeps):
        if _offdiagonal_norm(a) < tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                scale = abs(a[p, p]) + abs(a[q, q])
                if scale + 100.0 * abs(apq) == scale:
                    # Negligible against the diagonal; rotating would overflow tau.
                    a[p, q] = a[q, p] = 0.0
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = c * a[p, :] - s * a[q, :]
                row_q = s * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                col_p = c * a[:, p] - s * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                a[p, q] = a[q, p] = 0.0
    if not converged:
        residual = _offdiagonal_norm(a)
        if residual >= tol:
            raise JacobiConvergenceError(residual)
    return np.sort(np.diagonal(a).copy())
