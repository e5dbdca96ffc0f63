import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from lapspec.energy import (
    energy_report,
    is_cospectral,
    is_l_borderenergetic,
    laplacian_energy,
    m_energy,
)
from lapspec.expr import parse
from lapspec.spectrum import Spectrum, spectrum_of, spectrum_of_complete


def spec(n, *pairs):
    return Spectrum.from_pairs(n, pairs)


class TestMEnergy:
    def test_single_zero(self):
        assert m_energy([(0, 1)], 0, 1) == 0

    def test_adjacency_spectrum_of_complete_graph(self):
        # K4 adjacency eigenvalues -1, -1, -1, 3 with zero trace.
        assert m_energy([(-1, 3), (3, 1)], 0, 4) == 6

    def test_four_cycle_laplacian(self):
        assert m_energy([(0, 1), (2, 2), (4, 1)], 8, 4) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            m_energy([], 0, 0)

    def test_rejects_multiset_size_mismatch(self):
        with pytest.raises(ValueError):
            m_energy([(0, 1)], 0, 2)

    def test_rejects_a_float_multiplicity(self):
        with pytest.raises(ValueError, match="multiplicities must be integers, not 1.9"):
            m_energy([(0, 1.9), (2, 1.1)], 2, 2)

    def test_numpy_int_multiplicities_pass(self):
        assert m_energy([(0, np.int64(1)), (2, np.int32(2))], 4, 3) == m_energy([(0, 1), (2, 2)], 4, 3)

    @given(
        st.lists(
            st.tuples(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)), st.integers(1, 4)),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_the_direct_sum(self, entries):
        n = sum(mult for _, mult in entries)
        trace = sum(value * mult for value, mult in entries)
        direct = sum((abs(Fraction(value) - Fraction(trace, n)) * mult for value, mult in entries), Fraction(0))
        assert m_energy(entries, trace, n) == direct


class TestLaplacianEnergy:
    def test_single_vertex(self):
        assert laplacian_energy(spectrum_of_complete(1)) == 0

    def test_omega1_member(self):
        s = spec(8, (0, 1), (4, 2), (5, 2), (7, 2), (8, 1))
        assert laplacian_energy(s) == 14

    def test_diamond(self):
        # dbar = 5/2: |0-5/2| + |2-5/2| + 2*|4-5/2| = 6
        assert laplacian_energy(spec(4, (0, 1), (2, 1), (4, 2))) == 6

    def test_complete_graphs_spot_check(self):
        for n in range(1, 60):
            assert laplacian_energy(spectrum_of_complete(n)) == 2 * n - 2

    @given(helpers.expr_strategy())
    def test_float_recomputation_agrees(self, e):
        s = spectrum_of(e)
        exact = laplacian_energy(s)
        dbar = float(s.trace()) / s.n
        approx = sum(abs(float(v) - dbar) * m for v, m in s.entries)
        assert approx == pytest.approx(float(exact), rel=1e-9, abs=1e-9)

    def test_permutation_invariance(self):
        entries = [(4, 2), (0, 1), (8, 1), (5, 2), (7, 2)]
        a = Spectrum.from_pairs(8, entries)
        b = Spectrum.from_pairs(8, list(reversed(entries)))
        assert laplacian_energy(a) == laplacian_energy(b)


class TestBorderenergetic:
    def test_complete_graph_is_trivially_at_target(self):
        s = spectrum_of_complete(5)
        assert is_l_borderenergetic(s) is True
        report = energy_report(s)
        assert report.is_l_borderenergetic
        assert report.laplacian_energy == report.target == 8

    def test_family_member_hits_target(self):
        s = spec(8, (0, 1), (3, 3), (5, 3), (8, 1))
        assert is_l_borderenergetic(s) is True
        report = energy_report(s)
        assert report.is_l_borderenergetic
        assert report.laplacian_energy == 14

    def test_four_cycle_misses(self):
        s = spectrum_of(parse("2K1 * 2K1"))
        assert is_l_borderenergetic(s) is False
        report = energy_report(s)
        assert not report.is_l_borderenergetic
        assert report.laplacian_energy == 4
        assert report.target == 6


class TestCospectral:
    def test_reflexive(self):
        s = spectrum_of(parse("2K2 * 2K2"))
        assert is_cospectral(s, s)

    def test_family_member_vs_complete(self):
        omega1 = spec(8, (0, 1), (4, 2), (5, 2), (7, 2), (8, 1))
        assert not is_cospectral(omega1, spectrum_of_complete(8))

    def test_different_orders_never_cospectral(self):
        assert not is_cospectral(spectrum_of_complete(3), spectrum_of_complete(4))

    def test_equivalence_on_a_small_collection(self):
        spectra = [
            spectrum_of(parse(text))
            for text in ("K4", "K2 * 2K1", "2K1 * 2K1", "K2 * 2K1", "K4")
        ]
        for a in spectra:
            assert is_cospectral(a, a)
            for b in spectra:
                assert is_cospectral(a, b) == is_cospectral(b, a)
                for c in spectra:
                    if is_cospectral(a, b) and is_cospectral(b, c):
                        assert is_cospectral(a, c)


class TestEnergyReport:
    def test_report_fields(self):
        report = energy_report(spectrum_of(parse("2K2 * 2K2")))
        assert (report.n, report.m) == (8, 20)
        assert report.avg_degree == 5
        assert report.laplacian_energy == 14
        assert report.target == 14
        assert report.is_l_borderenergetic
        assert not report.is_complete

    def test_complete_flag(self):
        assert energy_report(spectrum_of_complete(6)).is_complete

    def test_json_schema(self):
        obj = energy_report(spectrum_of(parse("K2 * 2K1"))).to_json_obj()
        assert obj == {
            "n": 4,
            "m": 5,
            "dbar": [5, 2],
            "le": [6, 1],
            "target": 6,
            "borderenergetic": True,
        }

    def test_rejects_non_laplacian_trace(self):
        with pytest.raises(ValueError):
            energy_report(Spectrum.from_pairs(2, [(0, 1), (Fraction(3, 2), 1)]))


class TestCompleteFlag:
    """``is_complete`` reads the trace; it says what comparing with the complete graph's spectrum says."""

    @staticmethod
    def check(s):
        assert energy_report(s).is_complete == is_cospectral(s, spectrum_of_complete(s.n))

    def test_on_seeded_expressions(self):
        rng = random.Random(31)
        for _ in range(300):
            self.check(spectrum_of(helpers.random_expr(rng, 5)))
        for text in ["K1", "K7", "K1 * K1 * K1", "~(5K1)", "~(2K1 + K1) * K2", "K2 * 2K1", "~K3"]:
            self.check(spectrum_of(parse(text)))

    def test_on_json_spectra(self):
        rng = random.Random(37)
        checked = complete = 0
        while checked < 300:
            n = rng.randint(1, 9)
            # Halves in (0, n], with n itself drawn often, so that some spectra are complete.
            halves = [rng.choice([2 * n] * 3 + [rng.randint(1, 2 * n)]) for _ in range(n - 1)]
            s = Spectrum.from_json_obj({"n": n, "eigs": [[0, 1, 1]] + [[h, 2, 1] for h in halves]})
            trace = s.trace()
            if trace.denominator != 1 or trace % 2:
                continue  # not a Laplacian trace: energy_report rejects it
            self.check(s)
            checked += 1
            complete += s == spectrum_of_complete(n)
        assert 0 < complete < checked

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 11])
    def test_next_to_the_complete_spectrum(self, n):
        near = [
            [[0, 1, 1], [n, 1, n - 1]],
            [[0, 1, 2], [n, 1, n - 2]],
            [[0, 1, 1], [n - 1, 1, 2], [n, 1, n - 3]],
            [[0, 1, 1], [n - 2, 1, 1], [n, 1, n - 2]],
            [[0, 1, 1], [2 * n - 3, 2, 1], [2 * n - 1, 2, 1], [n, 1, n - 3]],
        ]
        for eigs in near:
            if all(m >= 0 for _, _, m in eigs):
                s = Spectrum.from_json_obj({"n": n, "eigs": eigs})
                if s.trace() % 2 == 0:
                    self.check(s)
