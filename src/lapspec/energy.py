"""Mean-centered matrix energies and the L-borderenergetic predicate.

The Laplacian energy of a graph is the sum of ``|mu - dbar|`` over its
Laplacian eigenvalues, where ``dbar`` is the average vertex degree.  For the
complete graph this equals ``2n - 2``; a graph whose Laplacian energy hits
that value exactly is called L-borderenergetic.

Everything here is exact rational arithmetic: there is no epsilon anywhere
in this module, because the predicate is an exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .spectrum import Spectrum, _count

__all__ = [
    "EnergyReport",
    "m_energy",
    "laplacian_energy",
    "is_l_borderenergetic",
    "is_cospectral",
    "energy_report",
]


def m_energy(entries: Iterable[tuple[int | Fraction, int]], trace: int | Fraction, n: int) -> Fraction:
    """Sum of ``|eigenvalue - trace/n|`` over a multiset of ``n`` eigenvalues.

    ``entries`` is any iterable of ``(value, multiplicity)`` pairs with integer
    multiplicities; the caller guarantees that ``trace`` is their sum.
    """
    if n == 0:
        raise ValueError("the eigenvalue multiset must not be empty")
    pairs = [(value, _count(mult)) for value, mult in entries]
    total = sum(mult for _, mult in pairs)
    if total != n:
        raise ValueError(f"multiset carries {total} eigenvalues, expected {n}")
    # n times the sum, so integer eigenvalues and trace stay in integers.
    return Fraction(sum(mult * abs(n * value - trace) for value, mult in pairs), n)


def laplacian_energy(s: Spectrum) -> Fraction:
    """Exact Laplacian energy; the mean is the spectrum trace over the order."""
    return m_energy(s.entries, s.trace(), s.n)


def is_l_borderenergetic(s: Spectrum) -> bool:
    """Whether the Laplacian energy equals ``2n - 2`` exactly."""
    return laplacian_energy(s) == 2 * s.n - 2


def is_cospectral(s1: Spectrum, s2: Spectrum) -> bool:
    """Whether two spectra are identical multisets on the same order."""
    return s1.n == s2.n and s1.entries == s2.entries


@dataclass(frozen=True)
class EnergyReport:
    """Order, size, average degree, Laplacian energy, and the verdict."""

    n: int
    m: int
    avg_degree: Fraction
    laplacian_energy: Fraction
    target: int
    is_l_borderenergetic: bool
    is_complete: bool

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "dbar": [self.avg_degree.numerator, self.avg_degree.denominator],
            "le": [self.laplacian_energy.numerator, self.laplacian_energy.denominator],
            "target": self.target,
            "borderenergetic": self.is_l_borderenergetic,
        }


def energy_report(s: Spectrum) -> EnergyReport:
    """Full report for a spectrum; the edge count is recovered from the trace.

    A ``Spectrum`` holds one 0 at least and no value above ``n``, so its
    trace reaches ``n(n - 1)`` only when the other ``n - 1`` values all
    equal ``n``: that is, only for the spectrum of the complete graph.
    """
    n = s.n
    trace = s.trace()
    if trace.denominator != 1 or trace.numerator % 2:
        raise ValueError("spectrum trace is not an even integer; not a Laplacian spectrum")
    le = m_energy(s.entries, trace, n)
    target = 2 * n - 2
    return EnergyReport(
        n=n,
        m=trace.numerator // 2,
        avg_degree=Fraction(trace, n),
        laplacian_energy=le,
        target=target,
        is_l_borderenergetic=le == target,
        is_complete=trace == n * (n - 1),
    )
