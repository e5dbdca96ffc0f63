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

``Gir`` at ``i = 0`` coincides with ``Omega3``; both builders are kept and
a regression test pins their cospectrality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .energy import energy_report, is_cospectral
from .expr import GraphExpr, parse
from .spectrum import Spectrum, spectrum_of, spectrum_of_text

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

FAMILY_IDS = (
    "Omega1",
    "Omega2",
    "Omega3",
    "Omega4",
    "G12",
    "G13",
    "G23",
    "G24",
    "G34",
    "Gir",
)

@dataclass(frozen=True)
class FamilySpec:
    """One family member: an id, the size parameter r, and (for Gir) the index i."""

    id: str
    r: int
    i: int | None = None

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise ValueError(f"unknown family id {self.id!r}")
        if self.r < 1:
            raise ValueError("the family parameter r must be at least 1")
        if self.id == "Gir":
            if self.i is None:
                raise ValueError("family Gir requires the index i")
            if not 0 <= self.i <= 2 * self.r:
                raise ValueError(f"index i={self.i} outside [0, {2 * self.r}]")
        elif self.i is not None:
            raise ValueError(f"family {self.id} takes no index i")


def _block1_source(r: int) -> str:
    return f"({r}K1 + (K1 * {r + 1}K1))"


def _block2_source(r: int) -> str:
    return f"{r + 1}K2"


def _block3_source(r: int) -> str:
    return f"({r}K2 + 2K1)"


def _block4_source(r: int) -> str:
    return f"({2 * r + 1}K1 * K1)"


def block1(r: int) -> GraphExpr:
    """r isolated vertices plus a star on r+2 vertices."""
    return parse(_block1_source(r))


def block2(r: int) -> GraphExpr:
    """Perfect matching on 2r+2 vertices."""
    return parse(_block2_source(r))


def block3(r: int) -> GraphExpr:
    """r disjoint edges plus two isolated vertices."""
    return parse(_block3_source(r))


def block4(r: int) -> GraphExpr:
    """Star on 2r+2 vertices."""
    return parse(_block4_source(r))


def source(spec: FamilySpec) -> str:
    """Expression text for the family member, in the surface syntax."""
    r, i = spec.r, spec.i
    match spec.id:
        case "Omega1":
            h = _block1_source(r)
            return f"{h} * {h}"
        case "Omega2":
            h = _block2_source(r)
            return f"{h} * {h}"
        case "Omega3":
            return f"(K2 + {2 * r + 1}K1) * {2 * r + 1}K1"
        case "Omega4":
            return f"({2 * r + 1}K1 * {2 * r + 2}K1) * K1"
        case "G12":
            return f"{_block1_source(r)} * {_block2_source(r)}"
        case "G13":
            return f"{_block1_source(r)} * {_block3_source(r)}"
        case "G23":
            return f"{_block2_source(r)} * {_block3_source(r)}"
        case "G24":
            return f"{_block2_source(r)} * {_block4_source(r)}"
        case "G34":
            return f"{_block3_source(r)} * {_block4_source(r)}"
        case "Gir":
            return f"{2 * r + 1}K1 * ({2 * r + 1 - i}K1 + (K1 * {i + 1}K1))"
    raise AssertionError


def build(spec: FamilySpec) -> GraphExpr:
    """AST of the family member: ``parse(source(spec))``."""
    return parse(source(spec))


def closed_form_spectrum(spec: FamilySpec) -> Spectrum:
    """Closed-form Laplacian spectrum of the member at (r, i).

    Zero-multiplicity entries and coinciding eigenvalues (both arise for Gir
    at the ends of the i range) are normalized away by the constructor.
    """
    r, i = spec.r, spec.i
    n = 4 * r + 4
    match spec.id:
        case "Omega1":
            pairs = [(0, 1), (2 * r + 2, 2 * r), (2 * r + 3, 2 * r), (3 * r + 4, 2), (n, 1)]
        case "Omega2":
            pairs = [(0, 1), (2 * r + 2, 2 * r), (2 * r + 4, 2 * r + 2), (n, 1)]
        case "Omega3":
            pairs = [(0, 1), (2 * r + 1, 2 * r + 1), (2 * r + 3, 2 * r + 1), (n, 1)]
        case "Omega4":
            pairs = [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 3, 2 * r), (n, 2)]
        case "G12":
            pairs = [(0, 1), (2 * r + 2, 2 * r), (2 * r + 3, r), (2 * r + 4, r + 1), (3 * r + 4, 1), (n, 1)]
        case "G13":
            pairs = [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 3, r), (2 * r + 4, r), (3 * r + 4, 1), (n, 1)]
        case "G23":
            pairs = [(0, 1), (2 * r + 2, 2 * r + 1), (2 * r + 4, 2 * r + 1), (n, 1)]
        case "G24":
            pairs = [(0, 1), (2 * r + 2, r), (2 * r + 3, 2 * r), (2 * r + 4, r + 1), (n, 2)]
        case "G34":
            pairs = [(0, 1), (2 * r + 2, r + 1), (2 * r + 3, 2 * r), (2 * r + 4, r), (n, 2)]
        case "Gir":
            pairs = [(0, 1), (2 * r + 1, 2 * r + 1 - i), (2 * r + 2, i), (2 * r + 3, 2 * r), (2 * r + 3 + i, 1), (n, 1)]
        case _:
            raise AssertionError
    return Spectrum.from_pairs(n, pairs)


@dataclass(frozen=True)
class FamilyVerdict:
    """Result of checking one family member against its closed form."""

    spec: FamilySpec
    expr: GraphExpr
    calculus_spectrum: Spectrum
    closed_form_spectrum: Spectrum
    spectra_match: bool
    le: Fraction
    le_matches_target: bool
    noncospectral_with_complete: bool

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
    expr = build(spec)
    calculus = spectrum_of(expr)
    formula = closed_form_spectrum(spec)
    report = energy_report(calculus)
    return FamilyVerdict(
        spec=spec,
        expr=expr,
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
        if fid == "Gir":
            specs.extend(FamilySpec("Gir", r, i) for i in range(2 * r + 1))
        else:
            specs.append(FamilySpec(fid, r))
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
