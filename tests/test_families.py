import hashlib
from fractions import Fraction

import numpy as np
import pytest

from lapspec.energy import is_cospectral, laplacian_energy
from lapspec.expr import order, parse
from lapspec.families import (
    FAMILY_IDS,
    FamilySpec,
    block1,
    block2,
    block3,
    block4,
    build,
    closed_form_spectrum,
    family_specs,
    pairwise_noncospectral,
    source,
    verify,
)
from lapspec.spectrum import Spectrum, multiplicity_of_zero, spectrum_of


def spec(n, *pairs):
    return Spectrum.from_pairs(n, pairs)


def all_specs_upto(r_max):
    for r in range(1, r_max + 1):
        yield from family_specs(r)


class TestFamilySpec:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            FamilySpec("Omega5", 1)

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            FamilySpec("Omega1", 0)

    def test_gir_requires_index(self):
        with pytest.raises(ValueError):
            FamilySpec("Gir", 2)

    def test_gir_index_range(self):
        FamilySpec("Gir", 2, 4)
        with pytest.raises(ValueError):
            FamilySpec("Gir", 2, 5)
        with pytest.raises(ValueError):
            FamilySpec("Gir", 2, -1)

    def test_fixed_families_take_no_index(self):
        with pytest.raises(ValueError):
            FamilySpec("Omega2", 1, 0)

    def test_float_r_is_rejected(self):
        with pytest.raises(ValueError, match="parameter r must be an integer, not 2.0"):
            FamilySpec("Omega1", 2.0)

    def test_float_i_is_rejected(self):
        with pytest.raises(ValueError, match="parameter i must be an integer, not 1.0"):
            FamilySpec("Gir", 2, 1.0)

    def test_bool_r_is_stored_as_int(self):
        member = FamilySpec("Omega1", True)
        assert type(member.r) is int
        assert source(member) == source(FamilySpec("Omega1", 1))

    def test_numpy_ints_are_stored_as_python_ints(self):
        member = FamilySpec("Gir", np.int64(2), np.int32(1))
        assert (type(member.r), type(member.i)) == (int, int)
        assert member == FamilySpec("Gir", 2, 1)


class TestSources:
    def test_omega2(self):
        assert source(FamilySpec("Omega2", 1)) == "2K2 * 2K2"

    def test_omega1(self):
        assert source(FamilySpec("Omega1", 1)) == "(1K1 + (K1 * 2K1)) * (1K1 + (K1 * 2K1))"

    def test_gir(self):
        assert source(FamilySpec("Gir", 1, 2)) == "3K1 * (1K1 + (K1 * 3K1))"

    @pytest.mark.parametrize("member", list(all_specs_upto(5)), ids=str)
    def test_source_parses_to_build(self, member):
        assert parse(source(member)) == build(member)


class TestBuildingBlocks:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_block_spectra(self, r):
        n = 2 * r + 2
        assert spectrum_of(block1(r)) == spec(n, (0, r + 1), (1, r), (r + 2, 1))
        assert spectrum_of(block2(r)) == spec(n, (0, r + 1), (2, r + 1))
        assert spectrum_of(block3(r)) == spec(n, (0, r + 2), (2, r))
        assert spectrum_of(block4(r)) == spec(n, (0, 1), (1, 2 * r), (n, 1))


class TestClosedForms:
    def test_omega4(self):
        assert closed_form_spectrum(FamilySpec("Omega4", 1)) == spec(
            8, (0, 1), (4, 3), (5, 2), (8, 2)
        )

    def test_g23(self):
        assert closed_form_spectrum(FamilySpec("G23", 1)) == spec(8, (0, 1), (4, 3), (6, 3), (8, 1))

    def test_gir_merges_at_index_zero(self):
        assert closed_form_spectrum(FamilySpec("Gir", 1, 0)) == spec(
            8, (0, 1), (3, 3), (5, 3), (8, 1)
        )

    @pytest.mark.parametrize("member", list(all_specs_upto(8)), ids=str)
    def test_calculus_matches_closed_form(self, member):
        assert spectrum_of(build(member)) == closed_form_spectrum(member)


class TestVerify:
    def test_omega1_r1(self):
        verdict = verify(FamilySpec("Omega1", 1))
        assert verdict.passed
        assert verdict.le == 14

    def test_omega3_r3(self):
        verdict = verify(FamilySpec("Omega3", 3))
        assert verdict.passed
        assert verdict.le == 30

    def test_gir_r2_i3(self):
        verdict = verify(FamilySpec("Gir", 2, 3))
        assert verdict.passed
        assert verdict.le == 22
        assert order(verdict.expr) == 12

    def test_expr_is_the_built_tree(self):
        for member in family_specs(2):
            assert verify(member).expr == build(member)

    @pytest.mark.parametrize("member", list(all_specs_upto(8)), ids=str)
    def test_structure_checks_hold_everywhere(self, member):
        verdict = verify(member)
        assert verdict.spectra_match
        assert verdict.noncospectral_with_complete
        assert order(verdict.expr) == 4 * member.r + 4
        assert multiplicity_of_zero(verdict.calculus_spectrum) == 1

    @pytest.mark.parametrize("fid", [f for f in FAMILY_IDS if f not in ("G24", "G34")])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_energy_hits_target(self, fid, r):
        members = family_specs(r, (fid,))
        for member in members:
            verdict = verify(member)
            assert verdict.le == 8 * r + 6
            assert verdict.le_matches_target

    @pytest.mark.parametrize("fid", ["G24", "G34"])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_g24_g34_energy_exceeds_target_beyond_r1(self, fid, r):
        # Their closed-form spectra are reproduced exactly, yet the energy
        # overshoots 8r+6 by r(r-1)/(r+1); the target is met only at r=1.
        verdict = verify(FamilySpec(fid, r))
        assert verdict.spectra_match
        assert verdict.le == Fraction(8 * r + 6) + Fraction(r * (r - 1), r + 1)
        assert verdict.le_matches_target == (r == 1)
        assert verdict.passed == (r == 1)

    def test_json_shape(self):
        obj = verify(FamilySpec("Gir", 1, 1)).to_json_obj()
        assert obj == {
            "id": "Gir",
            "r": 1,
            "i": 1,
            "order": 8,
            "spectra_match": True,
            "le": [14, 1],
            "target": 14,
            "le_matches_target": True,
            "noncospectral_with_complete": True,
            "passed": True,
        }


class TestPairwise:
    def test_gir_members_are_distinct(self):
        ok, witness = pairwise_noncospectral([FamilySpec("Gir", 1, i) for i in range(3)])
        assert ok
        assert witness is None

    def test_omega3_collides_with_gir_at_index_zero(self):
        ok, witness = pairwise_noncospectral([FamilySpec("Omega3", 1), FamilySpec("Gir", 1, 0)])
        assert not ok
        assert witness == (FamilySpec("Omega3", 1), FamilySpec("Gir", 1, 0))

    def test_singleton(self):
        ok, witness = pairwise_noncospectral([FamilySpec("Omega1", 4)])
        assert ok and witness is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pairwise_noncospectral([])

    @pytest.mark.parametrize("r", range(1, 11))
    def test_gir_family_pairwise_distinct(self, r):
        ok, _ = pairwise_noncospectral([FamilySpec("Gir", r, i) for i in range(2 * r + 1)])
        assert ok

    @pytest.mark.parametrize("r", range(1, 11))
    def test_nine_fixed_families_pairwise_distinct(self, r):
        ok, _ = pairwise_noncospectral([FamilySpec(fid, r) for fid in FAMILY_IDS[:-1]])
        assert ok


class TestCrossConstruction:
    @pytest.mark.parametrize("r", range(1, 6))
    def test_omega3_equals_gir_at_index_zero(self, r):
        a = spectrum_of(build(FamilySpec("Omega3", r)))
        b = spectrum_of(build(FamilySpec("Gir", r, 0)))
        assert is_cospectral(a, b)


class TestFamilyGate:
    """Pins every member's text and closed form for r <= 40: the texts are the
    benchmark's input and the closed forms are what ``verify`` checks against."""

    SHA256 = "1d0da5d3687780075ea95bdad865a77721061354c2478bb94aa3fb8ef67f19db"

    def test_texts_and_closed_forms_are_pinned(self):
        digest = hashlib.sha256()
        members = list(all_specs_upto(40))
        for member in members:
            entries = closed_form_spectrum(member).entries
            digest.update(f"{member.id} {member.r} {member.i} {source(member)} {entries!r}\n".encode())
        assert len(members) == 2040
        assert digest.hexdigest() == self.SHA256


def test_family_specs_counts():
    assert len(family_specs(3)) == 9 + 7
    assert len(family_specs(3, ("Gir",))) == 7
    assert [s.id for s in family_specs(2, ("Omega1", "G23"))] == ["Omega1", "G23"]


def test_le_excess_is_shared_by_g24_and_g34():
    for r in range(1, 12):
        le24 = laplacian_energy(spectrum_of(build(FamilySpec("G24", r))))
        le34 = laplacian_energy(spectrum_of(build(FamilySpec("G34", r))))
        assert le24 == le34
