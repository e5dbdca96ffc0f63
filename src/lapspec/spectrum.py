"""Exact Laplacian spectra of graph expressions.

Spectra compose structurally, so no matrix is ever diagonalized here:

* a disjoint union concatenates the two eigenvalue multisets;
* the complement of an n-vertex graph drops a single zero and reflects
  every remaining eigenvalue ``mu`` to ``n - mu``;
* a join keeps one zero, shifts the remaining eigenvalues of each side by
  the other side's order, and appends ``n1 + n2``.

Every expression denotes a cograph, and cographs are Laplacian integral:
the rules act on ``(order, {eigenvalue: multiplicity})`` pairs of Python
ints, one function per node class, and a single ``Spectrum`` is
validated at the root.  The five functions are one ``expr.Builder``:
``spectrum_of`` folds a tree with it, and ``spectrum_of_text`` passes it
to ``parse``, so a text is composed while it is parsed and no tree is
built.  ``Spectrum`` itself also holds rational eigenvalues (a closed form
or a JSON object may carry them); an integral value is always an ``int``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .expr import Builder, GraphExpr, fold, parse

__all__ = [
    "Spectrum",
    "spectrum_of",
    "spectrum_of_text",
    "spectrum_of_complete",
    "multiplicity_of_zero",
]


@dataclass(frozen=True)
class Spectrum:
    """Multiset of Laplacian eigenvalues of a graph on ``n`` vertices.

    ``entries`` holds ``(eigenvalue, multiplicity)`` pairs sorted ascending
    with distinct eigenvalues (equal values merged); an integral eigenvalue
    is an ``int``, any other a ``Fraction``.
    """

    n: int
    entries: tuple[tuple[int | Fraction, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a spectrum needs a positive order")
        total = 0
        prev = None
        for value, mult in self.entries:
            mult = _count(mult)
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if prev is not None and value <= prev:
                raise ValueError("entries must be sorted with distinct eigenvalues")
            prev = value
            total += mult
        if total != self.n:
            raise ValueError(f"multiplicities sum to {total}, expected the order {self.n}")
        if self.entries[0][0] != 0:
            raise ValueError("the smallest Laplacian eigenvalue must be exactly 0")
        if self.entries[-1][0] > self.n:
            raise ValueError("Laplacian eigenvalues cannot exceed the order")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int | Fraction, int]]) -> "Spectrum":
        """Build a spectrum from possibly unsorted, possibly duplicated pairs.

        Pairs with multiplicity 0 are dropped; equal eigenvalues are merged.
        Values may be any exact rationals; integral ones are stored as ``int``.
        """
        merged: dict = {}
        for value, mult in pairs:
            value, mult = _exact(value), _count(mult)
            if mult < 0:
                raise ValueError("multiplicities cannot be negative")
            if mult:
                merged[value] = merged.get(value, 0) + mult
        return cls(n, tuple(sorted(merged.items())))

    def trace(self) -> int | Fraction:
        """Sum of all eigenvalues with multiplicity (equals twice the edge count)."""
        return sum(value * mult for value, mult in self.entries)

    def multiplicity(self, value: int | Fraction) -> int:
        for entry_value, mult in self.entries:
            if entry_value == value:
                return mult
        return 0

    def expanded(self) -> list[int | Fraction]:
        """All ``n`` eigenvalues as a flat ascending list."""
        return [value for value, mult in self.entries for _ in range(mult)]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "eigs": [[v.numerator, v.denominator, m] for v, m in self.entries],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Spectrum":
        try:
            return cls.from_pairs(obj["n"], [(Fraction(p, q), m) for p, q, m in obj["eigs"]])
        except (TypeError, ZeroDivisionError) as exc:  # a float or a zero denominator
            raise ValueError(f"not a spectrum object: {exc}") from None


def spectrum_of_complete(n: int) -> Spectrum:
    """Spectrum of the complete graph: one 0 and ``n`` with multiplicity n-1."""
    return Spectrum.from_pairs(n, [(0, 1), (n, n - 1)])


def _count(mult: int) -> int:
    """A multiplicity as a Python ``int``: numpy ints pass, floats do not."""
    try:
        return operator.index(mult)
    except TypeError:
        raise ValueError(f"multiplicities must be integers, not {mult!r}") from None


def _exact(value: int | Fraction) -> int | Fraction:
    v = value if isinstance(value, int) else Fraction(value)
    return v.numerator if v.denominator == 1 else v


# The five rules, on ``(order, {eigenvalue: multiplicity})`` pairs of ints.
# A pair is passed on once, to its parent, so its dict is reused in place.
_Pair = tuple[int, dict[int, int]]


def _complete(n: int) -> _Pair:
    return n, {0: 1, n: n - 1} if n > 1 else {0: 1}


def _union(left: _Pair, right: _Pair) -> _Pair:
    (n1, e1), (n2, e2) = left, right
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    for value, mult in e2.items():
        e1[value] = e1.get(value, 0) + mult
    return n1 + n2, e1


def _join(left: _Pair, right: _Pair) -> _Pair:
    (n1, e1), (n2, e2) = left, right
    n = n1 + n2
    eigs = {0: 1, n: 1}
    # Each side keeps all but one 0, shifted by the other side's order.
    for shift, side in ((n2, e1), (n1, e2)):
        side[0] -= 1
        for value, mult in side.items():
            if mult:
                value += shift
                eigs[value] = eigs.get(value, 0) + mult
    return n, eigs


def _repeat(m: int, inner: _Pair) -> _Pair:
    # m-fold union scales every multiplicity.
    n, eigs = inner
    for value in eigs:
        eigs[value] *= m
    return m * n, eigs


def _complement(inner: _Pair) -> _Pair:
    # One 0 stays; the rest reflect to n - value, and a value n becomes another 0.
    n, eigs = inner
    eigs[0] -= 1
    out = {n - value: mult for value, mult in eigs.items() if mult}
    out[0] = out.get(0, 0) + 1
    return n, out


_RULES = Builder(_complete, _union, _join, _repeat, _complement)


def _spectrum(n: int, eigs: dict[int, int]) -> Spectrum:
    return Spectrum(n, tuple(sorted(eigs.items())))


def spectrum_of(expr: GraphExpr) -> Spectrum:
    """Exact Laplacian spectrum of the graph an expression denotes."""
    return _spectrum(*fold(expr, _RULES))


def spectrum_of_text(text: str) -> Spectrum:
    """``spectrum_of(parse(text))``, composed while parsing: no tree is built.

    Raises the same ``ParseError`` as ``parse`` on malformed text.
    """
    return _spectrum(*parse(text, _RULES))


def multiplicity_of_zero(s: Spectrum) -> int:
    """Multiplicity of eigenvalue 0, i.e. the number of connected components."""
    return s.multiplicity(0)
