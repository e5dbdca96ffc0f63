import importlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from lapspec.expr import Repeat, Complete, edge_count, order, parse
from lapspec.families import FamilySpec, build, closed_form_spectrum, family_specs
from lapspec.realize import (
    DenseGraph,
    Graph6Error,
    GraphTooLargeError,
    certify_integer_spectrum,
    graph6_decode,
    graph6_encode,
    iter_graph6,
    laplacian_matrix,
    realize,
    symmetric_eigenvalues,
)
from lapspec.scan import scan
from lapspec.spectrum import spectrum_of

networkx = pytest.importorskip("networkx")

# The package re-exports the function ``realize``, which hides the module of that name.
realize_module = importlib.import_module("lapspec.realize")


def numeric(expr_text):
    g = realize(parse(expr_text))
    return helpers.jacobi_eigenvalues(laplacian_matrix(g))


class TestDenseGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DenseGraph([[0, 1], [0, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DenseGraph([[1, 0], [0, 0]])

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            DenseGraph([[0, 2], [2, 0]])

    def test_from_edges_bounds(self):
        with pytest.raises(ValueError):
            DenseGraph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            DenseGraph.from_edges(2, [(1, 1)])

    def test_complement_involution(self):
        rng = random.Random(5)
        g = helpers.random_graph(rng, 7)
        assert g.complement().complement() == g


class TestRealize:
    def test_single_edge(self):
        g = realize(parse("K1 * K1"))
        assert g.n == 2
        assert g.adj[0, 1] == g.adj[1, 0] == 1

    def test_join_of_matchings(self):
        g = realize(parse("2K2 * 2K2"))
        assert g.n == 8
        assert g.edge_count() == 20

    def test_complement_of_complete_is_empty(self):
        g = realize(parse("~K3"))
        assert g.n == 3
        assert not g.adj.any()

    def test_size_cap(self):
        with pytest.raises(GraphTooLargeError):
            realize(Repeat(5000, Complete(1)))
        assert realize(Repeat(5000, Complete(1)), size_cap=5000).n == 5000

    @given(helpers.expr_strategy())
    @settings(max_examples=50)
    def test_structure_matches_counts(self, e):
        g = realize(e)
        assert g.n == order(e)
        assert g.edge_count() == edge_count(e)
        assert g.adj.dtype == np.uint8
        assert np.isin(g.adj, (0, 1)).all()
        assert np.array_equal(g.adj, g.adj.T)
        assert not np.diagonal(g.adj).any()


class TestLaplacian:
    def test_edge(self):
        g = realize(parse("K2"))
        assert laplacian_matrix(g).tolist() == [[1, -1], [-1, 1]]

    def test_empty(self):
        g = realize(parse("2K1"))
        assert not laplacian_matrix(g).any()

    def test_diamond_from_edges(self):
        g = DenseGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        lap = laplacian_matrix(g)
        assert np.diagonal(lap).tolist() == [3, 3, 2, 2]
        assert lap[2, 3] == 0

    def test_rows_sum_to_zero(self):
        g = realize(parse("(2K1 + K2) * K3"))
        assert not laplacian_matrix(g).sum(axis=1).any()


class TestJacobi:
    """The cyclic Jacobi solver in ``helpers`` is the independent numeric oracle."""

    def test_edge(self):
        assert numeric("K2") == pytest.approx([0.0, 2.0], abs=1e-10)

    def test_path_on_three_vertices(self):
        # charpoly x(x-1)(x-3)
        assert numeric("K1 * 2K1") == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)

    def test_family_member(self):
        got = numeric("(1K1 + (K1 * 2K1)) * (1K1 + (K1 * 2K1))")
        assert got == pytest.approx([0, 4, 4, 5, 5, 7, 7, 8], abs=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            helpers.jacobi_eigenvalues([[0, 1], [2, 0]])

    def test_nonconvergence_reports_residual(self):
        with pytest.raises(helpers.JacobiConvergenceError) as excinfo:
            helpers.jacobi_eigenvalues([[0, 1], [1, 0]], max_sweeps=0)
        assert excinfo.value.residual > 0

    def test_deterministic(self):
        lap = laplacian_matrix(realize(parse("(2K1 + K2) * (K3 + 2K1)")))
        first = helpers.jacobi_eigenvalues(lap)
        second = helpers.jacobi_eigenvalues(lap)
        assert np.array_equal(first, second)

    def test_agrees_with_numpy_on_random_graphs(self):
        # Jacobi oracle vs symmetric_eigenvalues (LAPACK through numpy).
        rng = random.Random(99)
        for _ in range(50):
            g = helpers.random_graph(rng, rng.randint(1, 9))
            lap = laplacian_matrix(g)
            oracle = helpers.jacobi_eigenvalues(lap)
            assert symmetric_eigenvalues(lap) == pytest.approx(oracle, abs=1e-8)


class TestSymmetricEigenvalues:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="exactly symmetric"):
            symmetric_eigenvalues([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="exactly symmetric"):
            symmetric_eigenvalues([[[0, 1], [1, 0]], [[0, 1], [2, 0]]])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 3), (1, 1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            symmetric_eigenvalues(np.zeros(shape))

    def test_trivial_orders(self):
        assert symmetric_eigenvalues([[3]]).tolist() == [3.0]
        assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)
        assert symmetric_eigenvalues(np.zeros((4, 0, 0))).shape == (4, 0)

    def test_stack_equals_one_at_a_time(self):
        rng = random.Random(12)
        for n in (1, 5, 8, 13, 40):
            laps = np.stack([laplacian_matrix(helpers.random_graph(rng, n)) for _ in range(9)])
            stacked = symmetric_eigenvalues(laps)
            assert stacked.shape == (9, n)
            for lap, row in zip(laps, stacked):
                assert np.array_equal(symmetric_eigenvalues(lap), row)


class TestCharpoly:
    """The Faddeev-LeVerrier recurrence in ``helpers`` is the exact oracle."""

    def test_zero_matrix(self):
        assert helpers.charpoly_coeffs([[0, 0], [0, 0]]) == (0, 0, 1)

    def test_edge_laplacian(self):
        assert helpers.charpoly_coeffs([[1, -1], [-1, 1]]) == (0, -2, 1)

    def test_diamond(self):
        lap = laplacian_matrix(realize(parse("K2 * 2K1")))
        coeffs = helpers.charpoly_coeffs(lap)
        assert coeffs == (0, -32, 32, -10, 1)
        assert coeffs == helpers.from_roots([0, 2, 4, 4])

    def test_from_roots_expansion(self):
        assert helpers.from_roots([1, -1]) == (-1, 0, 1)

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError):
            helpers.charpoly_coeffs([[0.5, 0], [0, 0.5]])

    def test_vanishes_on_certified_spectrum(self):
        lap = laplacian_matrix(realize(parse("2K2 * 2K2")))
        coeffs = helpers.charpoly_coeffs(lap)
        for value in spectrum_of(parse("2K2 * 2K2")).expanded():
            assert sum(c * value**k for k, c in enumerate(coeffs)) == 0


def _graphs_up_to_12():
    random_graphs = st.builds(
        lambda n, seed: helpers.random_graph(random.Random(seed), n),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    cographs = helpers.expr_strategy().filter(lambda e: order(e) <= 12).map(realize)
    return st.one_of(random_graphs, cographs)


class TestCertify:
    def test_triangle(self):
        lap = laplacian_matrix(realize(parse("K3")))
        assert certify_integer_spectrum(lap, [0, 3, 3])
        assert not certify_integer_spectrum(lap, [0, 2, 4])

    def test_diamond(self):
        lap = laplacian_matrix(realize(parse("K2 * 2K1")))
        assert certify_integer_spectrum(lap, [0, 2, 4, 4])

    def test_five_cycle_has_no_integer_spectrum(self):
        g = DenseGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        lap = laplacian_matrix(g)
        eigs = symmetric_eigenvalues(lap)
        rounded = [int(round(x)) for x in eigs]
        assert max(abs(x - k) for x, k in zip(eigs, rounded)) > 1e-6
        assert not certify_integer_spectrum(lap, rounded)
        assert not certify_integer_spectrum(lap, [0, 1, 1, 4, 4])

    def test_candidate_size_must_match(self):
        with pytest.raises(ValueError):
            certify_integer_spectrum([[0]], [0, 0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="exactly symmetric"):
            certify_integer_spectrum([[0, 1], [0, 0]], [0, 0])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match="integers"):
            certify_integer_spectrum([[0.5, 0], [0, 0.5]], [0, 1])

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "where, message",
        [("matrix", "matrix entries must be integers"), ("candidate", "candidate eigenvalues must be integers")],
    )
    def test_rejects_non_finite_values(self, where, message, value):
        matrix, candidate = ([[value]], [0]) if where == "matrix" else ([[0]], [value])
        with pytest.raises(ValueError, match=message):
            certify_integer_spectrum(matrix, candidate)

    @pytest.mark.parametrize("value", [None, 1j])
    @pytest.mark.parametrize(
        "where, message",
        [("matrix", "matrix entries must be integers"), ("candidate", "candidate eigenvalues must be integers")],
    )
    def test_rejects_none_and_complex_values(self, where, message, value):
        matrix, candidate = ([[value]], [0]) if where == "matrix" else ([[0]], [value])
        with pytest.raises(ValueError, match=message):
            certify_integer_spectrum(matrix, candidate)

    @pytest.mark.parametrize("family_id", ["Omega1", "G13", "G34"])
    def test_family_member_at_r13(self, family_id):
        member = FamilySpec(family_id, 13)
        lap = laplacian_matrix(realize(build(member)))
        closed = [int(v) for v in closed_form_spectrum(member).expanded()]
        assert lap.shape == (56, 56)
        assert certify_integer_spectrum(lap, closed)
        wrong = list(closed)
        wrong[1] += 1
        wrong[-2] -= 1
        assert not certify_integer_spectrum(lap, wrong)

    def test_int64_wraparound_is_ruled_out(self):
        # Unchecked int64 arithmetic wraps the product to exactly 0 here, and the
        # j = 1 trace matches too, so it would accept the wrong candidate.
        m = np.diag([2**32, -(2**32), -(2**32)])
        assert not certify_integer_spectrum(m, [0, 0, -(2**32)])
        assert certify_integer_spectrum(m, [2**32, -(2**32), -(2**32)])

    def test_float64_rounding_is_ruled_out(self):
        # In float64, 2^53 + 1 rounds to 2^53, so M - 2^53 I would vanish and
        # the wrong candidate pass; its per-factor product alone is only 1.
        m = (2**53 + 1) * np.identity(2, dtype=np.int64)
        assert not certify_integer_spectrum(m, [2**53, 2**53])
        assert certify_integer_spectrum(m, [2**53 + 1, 2**53 + 1])

    def test_python_ints_prove_beyond_the_int64_bound(self):
        # 20 * prod_k max(k, 19 - k) is far above 2^62, and tr(M^19) alone exceeds int64.
        m = np.diag(range(20))
        assert certify_integer_spectrum(m, range(20))
        assert not certify_integer_spectrum(m, [0, 0, *range(2, 20)])

    def test_python_ints_prove_above_the_float64_bound(self):
        member = FamilySpec("Gir", 40, 80)
        lap = laplacian_matrix(realize(build(member)))
        closed = [int(v) for v in closed_form_spectrum(member).expanded()]
        assert realize_module._proof_bounds(lap[None], [list(Counter(closed))])[0] >= 2**53
        assert certify_integer_spectrum(lap, closed)
        wrong = list(closed)
        wrong[1] += 1
        wrong[-2] -= 1
        assert not certify_integer_spectrum(lap, wrong)

    def test_stack_agrees_with_one_matrix_at_a_time(self):
        laps, cands = [], []
        for text in ("K8", "K4 + K4", "2K2 * 2K2", "K1 * (3K1 + K4)", "~(K3 + K5)"):
            lap = laplacian_matrix(realize(parse(text)))
            closed = list(spectrum_of(parse(text)).expanded())
            shifted = list(closed)
            shifted[0] += 1
            shifted[-1] -= 1
            laps += [lap, lap]
            cands += [closed, shifted]
        # Beyond the float64 bound, with a single distinct value.
        laps.append((2**53 + 1) * np.identity(8, dtype=np.int64))
        cands.append([2**53 + 1] * 8)
        assert len({len(set(c)) for c in cands}) > 2  # several |S|, so the stack pads them
        one_at_a_time = [certify_integer_spectrum(lap, cand) for lap, cand in zip(laps, cands)]
        assert one_at_a_time == [True, False] * 5 + [True]
        stacked = certify_integer_spectrum(np.stack(laps), cands)
        assert stacked.dtype == bool and stacked.tolist() == one_at_a_time
        floats = certify_integer_spectrum(np.stack(laps[:-1]).astype(np.float64), cands[:-1])
        assert floats.tolist() == one_at_a_time[:-1]
        with pytest.raises(ValueError, match="2 candidates for 3 matrices"):
            certify_integer_spectrum(np.stack(laps[:3]), cands[:2])
        # The empty matrix has the empty spectrum; an empty stack has no verdicts.
        assert certify_integer_spectrum(np.zeros((0, 0)), []) is True
        assert certify_integer_spectrum(np.zeros((0, 3, 3)), []).tolist() == []
        assert certify_integer_spectrum(np.zeros((2, 0, 0)), [[], []]).tolist() == [True, True]

    def test_family_members_up_to_n62_are_proved_in_float64(self):
        # For a Laplacian, ||L - kI|| = max_i(|d_i - k| + d_i) and ||L|| = 2 d_max.
        for member in (m for r in range(1, 15) for m in family_specs(r)):
            lap = laplacian_matrix(realize(build(member)))
            values = list(Counter(int(v) for v in closed_form_spectrum(member).expanded()))
            degrees = np.diagonal(lap).tolist()
            prefix, chain = 1, 0
            for k in values:
                prefix *= max(abs(d - k) + d for d in degrees)
                chain = max(chain, prefix)
            bound = lap.shape[0] * max(chain, (2 * max(degrees)) ** (len(values) - 1))
            assert realize_module._proof_bounds(lap[None], [values]) == [bound]
            assert bound < realize_module._FLOAT64_PROOF_LIMIT

    @pytest.mark.parametrize("path", ["float64", "object"])
    @given(_graphs_up_to_12(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_charpoly_oracle(self, path, g, data):
        lap = laplacian_matrix(g)
        rounded = [int(round(x)) for x in symmetric_eigenvalues(lap)]
        candidates = [rounded]
        if g.n > 1:
            # Move one unit between two entries: the trace stays the same.
            i, j = data.draw(st.permutations(range(g.n)))[:2]
            shifted = list(rounded)
            shifted[i] += 1
            shifted[j] -= 1
            candidates.append(shifted)
        if path == "float64":
            # Keep only examples whose every candidate is proved in float64.
            bounds = [realize_module._proof_bounds(lap[None], [list(Counter(c))])[0] for c in candidates]
            assume(all(b < 2**53 for b in bounds))
        oracle = helpers.charpoly_coeffs(lap)
        with pytest.MonkeyPatch.context() as mp:
            if path == "object":
                mp.setattr(realize_module, "_FLOAT64_PROOF_LIMIT", 0)
            for cand in candidates:
                assert certify_integer_spectrum(lap, cand) == (oracle == helpers.from_roots(cand))


class TestGraph6:
    def test_known_small_records(self):
        assert graph6_decode("@") == DenseGraph.from_edges(1, [])
        assert graph6_decode("A_") == DenseGraph.from_edges(2, [(0, 1)])
        assert graph6_decode("Bw") == realize(parse("K3"))

    def test_known_encodings(self):
        assert graph6_encode(realize(parse("K1"))) == "@"
        assert graph6_encode(realize(parse("K2"))) == "A_"
        assert graph6_encode(realize(parse("K3"))) == "Bw"

    def test_cross_check_against_networkx(self):
        rng = random.Random(31)
        for n in [*range(63)] * 2:  # every single-byte order, twice
            g = helpers.random_graph(rng, n)
            line = graph6_encode(g)
            reference = networkx.to_graph6_bytes(
                networkx.from_numpy_array(g.adj), header=False
            ).decode().strip()
            assert line == reference
            back = networkx.from_graph6_bytes(line.encode())
            assert networkx.to_numpy_array(back).astype(int).tolist() == g.adj.astype(int).tolist()

    def test_roundtrip_random_orders(self):
        rng = random.Random(7)
        for n in (0, 1, 2, 5, 11, 30, 62):
            g = helpers.random_graph(rng, n) if n else DenseGraph(np.zeros((0, 0)))
            line = graph6_encode(g)
            assert graph6_decode(line) == g
            assert graph6_encode(graph6_decode(line)) == line

    def test_encode_rejects_large_graphs(self):
        with pytest.raises(Graph6Error):
            graph6_encode(DenseGraph(np.zeros((63, 63), dtype=int)))

    @pytest.mark.parametrize(
        "record, message",
        [
            ("", "empty graph6 record"),
            ("~AAAA", "multi-byte order encoding (n > 62) is not supported"),
            (">C~", "malformed graph6 byte 62 (must be 63..126)"),
            ("B", "truncated graph6 payload: expected 1 bytes, found 0"),
            ("A_X", "trailing bytes after graph6 payload of 1 bytes"),
            ("A\x7f", "malformed graph6 byte 127 (must be 63..126)"),
            ("Aé", "non-ASCII character in graph6 record"),
        ],
    )
    def test_decode_rejects_malformed(self, record, message):
        with pytest.raises(Graph6Error) as excinfo:
            graph6_decode(record)
        assert str(excinfo.value) == message
        errors = []
        assert list(scan([record], jobs=1, on_error=lambda ln, msg: errors.append((ln, msg)))) == []
        # The scan skips a blank line, so only a non-empty record is reported.
        assert errors == ([(1, message)] if record else [])

    def test_first_bad_payload_byte_is_named(self):
        # Order 6 needs three payload bytes; the second and third are bad.
        with pytest.raises(Graph6Error) as excinfo:
            graph6_decode("E~!>")
        assert str(excinfo.value) == "malformed graph6 byte 33 (must be 63..126)"
        with pytest.raises(Graph6Error) as excinfo:
            graph6_decode("E?\x7f!")
        assert str(excinfo.value) == "malformed graph6 byte 127 (must be 63..126)"

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130), max_size=12),
        )
    )
    @settings(max_examples=500)
    def test_decode_raises_only_graph6_error(self, text):
        try:
            g = graph6_decode(text)
        except Graph6Error:
            return
        assert g.n == ord(text.strip()[0]) - 63

    @given(
        st.lists(
            st.tuples(st.integers(0, 62), st.integers(0, 2**32 - 1), st.integers(0, 3), st.text(max_size=3)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300)
    def test_decoding_a_list_agrees_with_each_record_alone(self, mutations):
        records = []
        for n, seed, kind, text in mutations:
            record = graph6_encode(helpers.random_graph(random.Random(seed), n))
            if kind == 1 and len(record) > 1:
                record = record[:-1]
            elif kind == 2:
                record += text
            elif kind == 3:  # replace one character, the order byte included
                i = seed % len(record)
                record = record[:i] + text + record[i + 1:]
            records.append(record)
        groups, rejected = realize_module._graph6_decode_records([r.strip() for r in records])
        decoded = {}
        for members, adj in groups:
            assert len(adj) == len(members)
            decoded.update(zip(members, adj))
        assert rejected == sorted(rejected)
        assert sorted([*decoded, *rejected]) == list(range(len(records)))
        for pos, record in enumerate(records):
            if pos in decoded:
                assert graph6_decode(record) == DenseGraph(decoded[pos])
            else:
                with pytest.raises(Graph6Error) as excinfo:
                    graph6_decode(record)
                assert str(excinfo.value) == realize_module._graph6_fault(record.strip())

    @given(st.integers(0, 62), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_roundtrip_property(self, n, seed):
        g = helpers.random_graph(random.Random(seed), n)
        assert graph6_decode(graph6_encode(g)) == g

    def test_iter_graph6_skips_header_and_blanks(self):
        lines = [">>graph6<<", "", "A_", "  ", ">>graph6<<Bw", "C~"]
        assert list(iter_graph6(lines)) == [(3, "A_"), (5, "Bw"), (6, "C~")]


class TestOracleAgreement:
    def test_random_expressions_match_exact_spectra(self):
        rng = random.Random(4242)
        for _ in range(150):
            e = helpers.random_expr_with_order(rng, max_depth=5, max_order=12)
            exact = np.array([float(v) for v in spectrum_of(e).expanded()])
            got = symmetric_eigenvalues(laplacian_matrix(realize(e)))
            assert got == pytest.approx(exact, abs=1e-8)

    def test_complement_rule_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            g = helpers.random_graph(rng, rng.randint(1, 10))
            mu = symmetric_eigenvalues(laplacian_matrix(g))
            predicted = np.sort(np.array([0.0] + [g.n - x for x in mu[1:]]))
            actual = symmetric_eigenvalues(laplacian_matrix(g.complement()))
            assert actual == pytest.approx(predicted, abs=1e-8)

    def test_join_rule_on_random_graphs(self):
        rng = random.Random(18)
        for _ in range(60):
            g1 = helpers.random_graph(rng, rng.randint(1, 10))
            g2 = helpers.random_graph(rng, rng.randint(1, 10))
            mu1 = symmetric_eigenvalues(laplacian_matrix(g1))
            mu2 = symmetric_eigenvalues(laplacian_matrix(g2))
            predicted = np.sort(
                np.array(
                    [0.0]
                    + [g2.n + x for x in mu1[1:]]
                    + [g1.n + x for x in mu2[1:]]
                    + [float(g1.n + g2.n)]
                )
            )
            actual = symmetric_eigenvalues(laplacian_matrix(g1.join(g2)))
            assert actual == pytest.approx(predicted, abs=1e-8)
