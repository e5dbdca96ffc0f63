"""Built-in parametric families of L-borderenergetic graphs.

Every family member has order ``4r + 4``.  The paper states that each has
Laplacian energy ``8r + 6``, the energy of the complete graph on the same
vertex count; ``verify`` checks it, and it fails for G24 and G34 at
``r >= 2`` (see "A finding the verifier flags" in the README).  Ten
families are provided:

=======  ==============================================================
Omega1   join of two copies of (r isolated vertices + a star on r+2)
Omega2   join of two perfect matchings on 2r+2 vertices each
Omega3   (one edge + 2r+1 isolated vertices) joined with 2r+1 isolated
Omega4   triple join of 2r+1 isolated, 2r+2 isolated, and one vertex
G12      block 1 joined with block 2
G13      block 1 joined with block 3
G23      block 2 joined with block 3
G24      block 2 joined with block 4
G34      block 3 joined with block 4
Gir      2r+1 isolated vertices joined with (2r+1-i isolated + a star
         on i+2); one member per i in 0..2r
=======  ==============================================================

where the four building blocks on ``2r + 2`` vertices are

    block 1: r isolated vertices plus a star on r+2 vertices,
    block 2: a perfect matching (r+1 disjoint edges),
    block 3: r disjoint edges plus two isolated vertices,
    block 4: a star.

``Gir`` at ``i = 0`` coincides with ``Omega3``; both rows stay and a
regression test pins their cospectrality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .energy import energy_report, is_cospectral
from .expr import GraphExpr, parse
from .spectrum import Spectrum, spectrum_of_text

__all__ = [
    "FAMILY_IDS",
    "FamilySpec",
    "FamilyVerdict",
    "block1",
    "block2",
    "block3",
    "block4",
    "build",
    "source",
    "closed_form_spectrum",
    "verify",
    "family_specs",
    "pairwise_noncospectral",
]

# Texts of blocks 1-4 at r.
_BLOCKS = (
    lambda r: f"({r}K1 + (K1 * {r + 1}K1))",
    lambda r: f"{r + 1}K2",
    lambda r: f"({r}K2 + 2K1)",
    lambda r: f"({2 * r + 1}K1 * K1)",
)


def _fixed(r: int) -> tuple[None]:
    return (None,)


# The one place a family is defined.  Each row is (the indices i of its members
# at r, its text at (r, i), its closed-form (eigenvalue, multiplicity) pairs at
# (r, i) with n = 4r + 4).  The closed forms are written by hand, not derived
# from the texts: they are what ``verify`` checks the calculus against.
_FAMILIES = {
    "Omega1": (_fixed, lambda r, i: f"{_BLOCKS[0](r)} * {_BLOCKS[0](r)}",
               lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r), (2 * r + 3, 2 * r), (3 * r + 4, 2), (n, 1)]),
    "Omega2": (_fixed, lambda r, i: f"{_BLOCKS[1](r)} * {_BLOCKS[1](r)}",
               lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r), (2 * r + 4, 2 * r + 2), (n, 1)]),
    "Omega3": (_fixed, lambda r, i: f"(K2 + {2 * r + 1}K1) * {2 * r + 1}K1",
               lambda r, i, n: [(0, 1), (2 * r + 1, 2 * r + 1), (2 * r + 3, 2 * r + 1), (n, 1)]),
    "Omega4": (_fixed, lambda r, i: f"({2 * r + 1}K1 * {2 * r + 2}K1) * K1",
               lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 3, 2 * r), (n, 2)]),
    "G12": (_fixed, lambda r, i: f"{_BLOCKS[0](r)} * {_BLOCKS[1](r)}",
            lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r), (2 * r + 3, r), (2 * r + 4, r + 1), (3 * r + 4, 1), (n, 1)]),
    "G13": (_fixed, lambda r, i: f"{_BLOCKS[0](r)} * {_BLOCKS[2](r)}",
            lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 3, r), (2 * r + 4, r), (3 * r + 4, 1), (n, 1)]),
    "G23": (_fixed, lambda r, i: f"{_BLOCKS[1](r)} * {_BLOCKS[2](r)}",
            lambda r, i, n: [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 4, 2 * r + 1), (n, 1)]),
    "G24": (_fixed, lambda r, i: f"{_BLOCKS[1](r)} * {_BLOCKS[3](r)}",
            lambda r, i, n: [(0, 1), (2 * r + 2, r), (2 * r + 3, 2 * r), (2 * r + 4, r + 1), (n, 2)]),
    "G34": (_fixed, lambda r, i: f"{_BLOCKS[2](r)} * {_BLOCKS[3](r)}",
            lambda r, i, n: [(0, 1), (2 * r + 2, r + 1), (2 * r + 3, 2 * r), (2 * r + 4, r), (n, 2)]),
    "Gir": (lambda r: range(2 * r + 1), lambda r, i: f"{2 * r + 1}K1 * ({2 * r + 1 - i}K1 + (K1 * {i + 1}K1))",
            lambda r, i, n: [(0, 1), (2 * r + 1, 2 * r + 1 - i), (2 * r + 2, i), (2 * r + 3, 2 * r),
                             (2 * r + 3 + i, 1), (n, 1)]),
}

FAMILY_IDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """One family member: an id, the size parameter r, and (for Gir) the index i."""

    id: str
    r: int
    i: int | None = None

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise ValueError(f"unknown family id {self.id!r}")
        for name in ("r", "i") if self.i is not None else ("r",):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"the family parameter {name} must be an integer, not {value!r}") from None
        if self.r < 1:
            raise ValueError("the family parameter r must be at least 1")
        indices = _FAMILIES[self.id][0](self.r)
        if self.i not in indices:
            if self.i is None:
                raise ValueError(f"family {self.id} requires the index i")
            if None in indices:
                raise ValueError(f"family {self.id} takes no index i")
            raise ValueError(f"index i={self.i} outside [0, {indices[-1]}]")


def block1(r: int) -> GraphExpr:
    """r isolated vertices plus a star on r+2 vertices."""
    return parse(_BLOCKS[0](r))


def block2(r: int) -> GraphExpr:
    """Perfect matching on 2r+2 vertices."""
    return parse(_BLOCKS[1](r))


def block3(r: int) -> GraphExpr:
    """r disjoint edges plus two isolated vertices."""
    return parse(_BLOCKS[2](r))


def block4(r: int) -> GraphExpr:
    """Star on 2r+2 vertices."""
    return parse(_BLOCKS[3](r))


def source(spec: FamilySpec) -> str:
    """Expression text for the family member, in the surface syntax."""
    return _FAMILIES[spec.id][1](spec.r, spec.i)


def build(spec: FamilySpec) -> GraphExpr:
    """AST of the family member: ``parse(source(spec))``."""
    return parse(source(spec))


def closed_form_spectrum(spec: FamilySpec) -> Spectrum:
    """Closed-form Laplacian spectrum of the member at (r, i).

    Zero-multiplicity entries and coinciding eigenvalues (both arise for Gir
    at the ends of the i range) are normalized away by the constructor.
    """
    n = 4 * spec.r + 4
    return Spectrum.from_pairs(n, _FAMILIES[spec.id][2](spec.r, spec.i, n))


@dataclass(frozen=True)
class FamilyVerdict:
    """Result of checking one family member against its closed form."""

    spec: FamilySpec
    calculus_spectrum: Spectrum
    closed_form_spectrum: Spectrum
    spectra_match: bool
    le: Fraction
    le_matches_target: bool
    noncospectral_with_complete: bool

    @property
    def expr(self) -> GraphExpr:
        """AST of the member, built on each read: ``verify`` composes without one."""
        return build(self.spec)

    @property
    def passed(self) -> bool:
        return self.spectra_match and self.le_matches_target and self.noncospectral_with_complete

    def to_json_obj(self) -> dict:
        return {
            "id": self.spec.id,
            "r": self.spec.r,
            "i": self.spec.i,
            "order": 4 * self.spec.r + 4,
            "spectra_match": self.spectra_match,
            "le": [self.le.numerator, self.le.denominator],
            "target": 8 * self.spec.r + 6,
            "le_matches_target": self.le_matches_target,
            "noncospectral_with_complete": self.noncospectral_with_complete,
            "passed": self.passed,
        }


def verify(spec: FamilySpec) -> FamilyVerdict:
    """Evaluate one member through the calculus and compare with the closed form."""
    calculus = spectrum_of_text(source(spec))
    formula = closed_form_spectrum(spec)
    report = energy_report(calculus)
    return FamilyVerdict(
        spec=spec,
        calculus_spectrum=calculus,
        closed_form_spectrum=formula,
        spectra_match=is_cospectral(calculus, formula),
        le=report.laplacian_energy,
        le_matches_target=report.is_l_borderenergetic,
        noncospectral_with_complete=not report.is_complete,
    )


def family_specs(r: int, ids: tuple[str, ...] = FAMILY_IDS) -> list[FamilySpec]:
    """All members at parameter r for the requested ids (all 2r+1 of them for Gir)."""
    specs: list[FamilySpec] = []
    for fid in ids:
        indices = _FAMILIES[fid][0](r) if fid in FAMILY_IDS else (None,)  # FamilySpec rejects an unknown id
        specs.extend(FamilySpec(fid, r, i) for i in indices)
    return specs


def pairwise_noncospectral(
    specs: list[FamilySpec],
) -> tuple[bool, tuple[FamilySpec, FamilySpec] | None]:
    """Whether all listed members have pairwise distinct spectra.

    Returns ``(True, None)`` or ``(False, (earlier, later))`` for the first
    collision in list order.
    """
    if not specs:
        raise ValueError("need at least one family member")
    seen: dict[Spectrum, FamilySpec] = {}
    for spec in specs:
        key = spectrum_of_text(source(spec))
        if key in seen:
            return False, (seen[key], spec)
        seen[key] = spec
    return True, None
