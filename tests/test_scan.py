import csv
import hashlib
import importlib
import itertools
import json
import math
import random
from concurrent import futures
from concurrent.futures import Future
from contextlib import closing

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import helpers
from lapspec.expr import parse
from lapspec.families import FamilySpec, build, closed_form_spectrum, family_specs
from lapspec.realize import DenseGraph, Graph6Error, graph6_encode, iter_graph6, realize
from lapspec.scan import (
    CERTIFIED_HIT,
    CHUNK_CELLS,
    CHUNK_SIZE,
    CSV_HEADER,
    MISS,
    NUMERIC_HIT,
    ScanRecord,
    dedupe_cospectral,
    scan,
    scan_g6,
)

# The package re-exports functions named ``scan`` and ``realize``, which hide the modules.
scan_module = importlib.import_module("lapspec.scan")
realize_module = importlib.import_module("lapspec.realize")


def g6(expr_text):
    return graph6_encode(realize(parse(expr_text)))


K4 = g6("K4")
DIAMOND = g6("K2 * 2K1")
FOUR_CYCLE = g6("2K1 * 2K1")


class TestScanOne:
    def test_complete_graph_is_certified(self):
        rec = scan_g6(1, K4)
        assert rec.verdict == CERTIFIED_HIT
        assert rec.certificate == (0, 4, 4, 4)
        assert rec.numeric_le == pytest.approx(6.0, abs=1e-9)

    def test_diamond_is_certified(self):
        rec = scan_g6(1, DIAMOND)
        assert rec.verdict == CERTIFIED_HIT
        assert rec.certificate == (0, 2, 4, 4)
        assert rec.numeric_le == pytest.approx(6.0, abs=1e-9)

    def test_four_cycle_misses(self):
        rec = scan_g6(1, FOUR_CYCLE)
        assert rec.verdict == MISS
        assert rec.certificate is None
        assert rec.numeric_le == pytest.approx(4.0, abs=1e-9)

    def test_integral_hit_off_the_exact_target_is_not_certified(self):
        # C4 has spectrum (0, 2, 2, 4) and LE 4 against the target 6: a loose
        # tolerance makes it a numeric hit, but its exact LE is not 2n - 2.
        rec = scan_g6(1, FOUR_CYCLE, tol=3)
        assert rec.verdict == NUMERIC_HIT
        assert rec.certificate is None

    def test_whitespace_around_the_record_is_stripped(self):
        rec = scan_g6(1, f" {K4}\t")
        assert rec.g6 == f" {K4}\t"
        assert rec.verdict == CERTIFIED_HIT
        assert rec.certificate == (0, 4, 4, 4)

    def test_single_vertex_is_certified(self):
        rec = scan_g6(1, "@")
        assert rec.verdict == CERTIFIED_HIT
        assert rec.certificate == (0,)

    def test_numeric_spectrum_is_ascending(self):
        rec = scan_g6(1, DIAMOND)
        assert list(rec.numeric_spectrum) == sorted(rec.numeric_spectrum)

    def test_certificate_is_sorted_whatever_order_the_solver_returns(self, monkeypatch):
        monkeypatch.setattr(scan_module, "symmetric_eigenvalues", lambda laps: np.linalg.eigvalsh(laps)[:, ::-1])
        records = list(scan([K4, DIAMOND, FOUR_CYCLE]))
        assert [r.certificate for r in records] == [(0, 4, 4, 4), (0, 2, 4, 4), None]


class TestScanStream:
    def test_verdicts_in_input_order(self):
        records = list(scan([K4, DIAMOND, FOUR_CYCLE]))
        assert [r.verdict for r in records] == [CERTIFIED_HIT, CERTIFIED_HIT, MISS]
        assert [r.index for r in records] == [1, 2, 3]

    def test_bad_lines_are_reported_and_skipped(self):
        errors = []
        records = list(
            scan([K4, "!!notgraph6!!", DIAMOND], on_error=lambda ln, msg: errors.append(ln))
        )
        assert [r.index for r in records] == [1, 3]
        assert errors == [2]

    def test_header_line_is_skipped(self):
        records = list(scan([">>graph6<<", K4]))
        assert [r.index for r in records] == [2]

    def test_empty_input(self):
        assert list(scan([])) == []


class TestScanFile:
    @pytest.fixture()
    def corpus_path(self, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join([K4, DIAMOND, "?!bad", FOUR_CYCLE]) + "\n", encoding="ascii")
        return str(path)

    @staticmethod
    def scan_path(path, **kwargs):
        with open(path, encoding="ascii") as fh:
            return list(scan(fh, **kwargs))

    def test_serial(self, corpus_path):
        errors = []
        records = self.scan_path(corpus_path, on_error=lambda ln, msg: errors.append(ln))
        assert [r.verdict for r in records] == [CERTIFIED_HIT, CERTIFIED_HIT, MISS]
        assert errors == [3]

    def test_parallel_matches_serial(self, corpus_path):
        serial = self.scan_path(corpus_path)
        parallel = self.scan_path(corpus_path, jobs=2)
        assert serial == parallel

    def test_parallel_on_larger_input(self, tmp_path):
        lines = [K4, DIAMOND, FOUR_CYCLE] * 40
        path = tmp_path / "big.g6"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        serial = self.scan_path(path)
        parallel = self.scan_path(path, jobs=3)
        assert serial == parallel
        assert len(serial) == 120


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers``, runs tasks at submit."""

    def __init__(self, created, max_workers):
        created.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _LazyFuture(Future):
    """A future that stays pending until its result is read, and only then runs its task."""

    def __init__(self, fn, args):
        super().__init__()
        self.task = (fn, args)

    def result(self, timeout=None):
        if not self.done():
            fn, args = self.task
            self.set_result(fn(*args))
        return super().result(timeout)


class _LazyPool:
    """Stands in for ``ProcessPoolExecutor``: no task starts until its result is read."""

    def __init__(self):
        self.futures = []
        self.shutdowns = []

    def submit(self, fn, *args):
        self.futures.append(_LazyFuture(fn, args))
        return self.futures[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)
        if cancel_futures:
            for future in self.futures:
                future.cancel()


class TestPoolSize:
    @pytest.mark.parametrize(
        "n_chunks, cpus, expected",
        [(3, 4, [3]), (3, 2, [2]), (1, 4, []), (3, None, [])],
    )
    def test_workers_capped_by_chunks_and_cores(self, monkeypatch, n_chunks, cpus, expected):
        created = []
        # ``scan`` imports the pool class from ``concurrent.futures`` when it needs one.
        monkeypatch.setattr(futures, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(created, max_workers))
        monkeypatch.setattr(scan_module.os, "cpu_count", lambda: cpus)
        lines = [[K4, DIAMOND, FOUR_CYCLE][k % 3] for k in range((n_chunks - 1) * CHUNK_SIZE + 1)]
        records = list(scan(lines, jobs=100_000))
        assert created == expected
        assert records == list(scan(lines))


class TestLaziness:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_record_pulls_a_bounded_prefix(self, jobs):
        pulled = 0

        def endless():
            nonlocal pulled
            for line in itertools.cycle([K4, DIAMOND, FOUR_CYCLE]):
                pulled += 1
                yield line

        with closing(scan(endless(), jobs=jobs)) as records:
            assert next(records).index == 1
            assert pulled <= (2 * jobs + 1) * CHUNK_SIZE


@pytest.fixture
def lazy_pools(monkeypatch):
    pools = []

    def make(max_workers):
        pools.append(_LazyPool())
        return pools[-1]

    monkeypatch.setattr(futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    return pools


class TestEarlyStop:
    def test_close_cancels_the_chunks_not_started(self, lazy_pools):
        lines = [[K4, DIAMOND, FOUR_CYCLE][k % 3] for k in range(8 * CHUNK_SIZE)]
        records = scan(lines, jobs=2)
        assert next(records).index == 1
        records.close()
        (pool,) = lazy_pools
        assert pool.shutdowns == [True]
        # Two chunks per worker were in flight, and one more was submitted before the first was read.
        assert len(pool.futures) == 5
        assert pool.futures[0].done() and not pool.futures[0].cancelled()
        assert all(future.cancelled() for future in pool.futures[1:])

    def test_a_full_read_cancels_nothing(self, lazy_pools):
        lines = [[K4, DIAMOND, FOUR_CYCLE][k % 3] for k in range(5 * CHUNK_SIZE)]
        assert list(scan(lines, jobs=2)) == list(scan(lines))
        (pool,) = lazy_pools
        assert len(pool.futures) == 5
        assert not any(future.cancelled() for future in pool.futures)


class TestDedupe:
    def test_distinct_spectra_make_distinct_classes(self):
        records = list(scan([K4, DIAMOND]))
        classes = dedupe_cospectral(records)
        assert len(classes) == 2

    def test_duplicate_lines_group(self):
        records = list(scan([K4, K4]))
        classes = dedupe_cospectral(records)
        assert len(classes) == 1
        assert [r.index for r in classes[0]] == [1, 2]

    def test_empty(self):
        assert dedupe_cospectral([]) == []

    def test_misses_are_ignored(self):
        records = list(scan([K4, FOUR_CYCLE]))
        assert len(dedupe_cospectral(records)) == 1

    def test_classes_ordered_by_order_then_index(self):
        records = list(scan([K4, DIAMOND, "@"]))
        classes = dedupe_cospectral(records)
        assert [cls[0].n for cls in classes] == [1, 4, 4]
        assert [cls[0].index for cls in classes] == [3, 1, 2]

    def test_numeric_only_hits_key_by_rounded_spectrum(self):
        rec = ScanRecord(1, "x", 2, (0.0, 1.0000000001), 2.0, NUMERIC_HIT, None)
        twin = ScanRecord(2, "y", 2, (0.0, 1.0000000004), 2.0, NUMERIC_HIT, None)
        assert len(dedupe_cospectral([rec, twin])) == 1


class TestDeskScale:
    def test_n4_hits_match_brute_force_oracle(self):
        # Independent oracle: numpy eigenvalues + direct energy evaluation
        # over every isomorphism class on 4 vertices.
        graphs = helpers.graph_classes(4)
        assert len(graphs) == 11
        expected = set()
        for g in graphs:
            lap = np.diag(g.adj.sum(axis=1).astype(np.int64)) - g.adj.astype(np.int64)
            mu = np.linalg.eigvalsh(lap)
            le = float(np.abs(mu - 2 * g.edge_count() / g.n).sum())
            if abs(le - 6.0) < 1e-9:
                expected.add(tuple(int(round(x)) for x in mu))
        records = list(scan(graph6_encode(g) for g in graphs))
        certified = {r.certificate for r in records if r.verdict == CERTIFIED_HIT}
        assert all(r.verdict != NUMERIC_HIT for r in records)
        assert certified == expected
        assert (0, 4, 4, 4) in certified      # complete graph
        assert (0, 2, 4, 4) in certified      # complete graph minus an edge
        assert (0, 1, 3, 4) in certified      # triangle with a pendant vertex
        assert (0, 0, 3, 3) in certified      # triangle plus an isolated vertex
        assert len(certified) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_orders_hit_only_complete_graphs(self, n):
        graphs = helpers.graph_classes(n)
        records = list(scan(graph6_encode(g) for g in graphs))
        hits = [r for r in records if r.verdict != MISS]
        assert len(hits) == 1
        assert hits[0].certificate == tuple([0] + [n] * (n - 1))

    def test_family_members_scan_as_certified(self):
        lines = [graph6_encode(realize(build(member))) for member in family_specs(1)]
        records = list(scan(lines))
        assert all(r.verdict == CERTIFIED_HIT for r in records)


PAPER_HITS = (FamilySpec("Omega2", 9), FamilySpec("Gir", 11, 7), FamilySpec("G13", 13))
PAPER_MISSES = (FamilySpec("G24", 10), FamilySpec("G34", 12))


def paper_order_lines():
    """Family members on 40..56 vertices with their vertex labels permuted, seeded."""
    rng = np.random.default_rng(13)
    lines = []
    for spec in PAPER_HITS + PAPER_MISSES:
        adj = realize(build(spec)).adj
        perm = rng.permutation(len(adj))
        lines.append(graph6_encode(DenseGraph(adj[np.ix_(perm, perm)])))
    return lines


class TestPaperOrders:
    """The paper's members at n = 4r + 4 certify; G24 and G34 miss the target."""

    def test_hits_certify_their_closed_form(self):
        records = list(scan(paper_order_lines()))
        assert [r.n for r in records] == [4 * spec.r + 4 for spec in PAPER_HITS + PAPER_MISSES]
        for rec, spec in zip(records, PAPER_HITS):
            assert rec.verdict == CERTIFIED_HIT
            assert rec.certificate == tuple(closed_form_spectrum(spec).expanded())
        assert [r.verdict for r in records[len(PAPER_HITS):]] == [MISS] * len(PAPER_MISSES)

    def test_python_int_certifier_gives_equal_records(self, monkeypatch):
        lines = paper_order_lines()
        expected = list(scan(lines))
        monkeypatch.setattr(realize_module, "_FLOAT64_PROOF_LIMIT", 0)
        assert list(scan(lines)) == expected


# Floats whose JSON text is easy to get wrong.
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 1.5e300, math.nan, math.inf, -math.inf]


class TestWriters:
    def test_jsonl(self):
        records = list(scan([K4, FOUR_CYCLE]))
        first, second = (json.loads(json.dumps(r.to_json_obj())) for r in records)
        assert first["g6"] == K4
        assert first["verdict"] == CERTIFIED_HIT
        assert first["certificate"] == [0, 4, 4, 4]
        assert second["certificate"] is None

    @settings(max_examples=300, deadline=None)
    @given(
        index=st.integers(0, 10**12),
        g6=st.text() | st.text(st.characters(min_codepoint=63, max_codepoint=126)),
        n=st.integers(0, 62),
        spectrum=st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), max_size=12),
        le=st.floats() | st.sampled_from(EDGE_FLOATS),
        verdict=st.sampled_from([MISS, NUMERIC_HIT, CERTIFIED_HIT]) | st.text(),
        certificate=st.none() | st.lists(st.integers() | st.integers(2**63, 2**80), max_size=12).map(tuple),
    )
    @example(0, "C\\~", 4, (-0.0, 5e-324, 1e16, 1e-7), 1e16, CERTIFIED_HIT, (0, 2**63 + 1, 2**70))
    @example(1, "@\udcff", 1, (math.nan,), math.inf, NUMERIC_HIT, None)
    @example(2, "A_", 2, (-math.inf, 0.0), 2.0, MISS, None)
    def test_json_line_is_json_dumps(self, index, g6, n, spectrum, le, verdict, certificate):
        rec = ScanRecord(index, g6, n, tuple(spectrum), le, verdict, certificate)
        assert rec.json_line() == json.dumps(rec.to_json_obj())

    def test_csv(self, tmp_path):
        records = list(scan([K4]))
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(r.csv_row() for r in records)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["index", "g6", "n", "le", "verdict"]
        assert rows[1][0] == "1" and rows[1][1] == K4 and rows[1][4] == CERTIFIED_HIT


# sha256 of the (index, verdict, certificate) list that the Jacobi-based scan
# gave on the 10^4-line ``g6_corpus``: 8127 misses and 1873 certified hits.
CORPUS_VERDICTS_SHA256 = "d46f131f066126db1ab4a1a5a5ff7a8422899090770346f602f9d1adb526bb26"


def verdict_digest(records):
    key = [[r.index, r.verdict, None if r.certificate is None else list(r.certificate)] for r in records]
    return hashlib.sha256(json.dumps(key).encode("ascii")).hexdigest()


class TestNumericGate:
    """Changes to the numeric pass keep every verdict and certificate."""

    def test_corpus_verdicts_are_pinned(self, g6_corpus):
        for jobs in (1, 2):
            assert verdict_digest(scan(g6_corpus, jobs=jobs)) == CORPUS_VERDICTS_SHA256

    def test_jacobi_oracle_gives_the_same_verdicts(self, g6_corpus, monkeypatch):
        lines = g6_corpus[:1000]
        expected = list(scan(lines))

        def jacobi_stack(laps):
            return np.array([helpers.jacobi_eigenvalues(lap) for lap in laps]).reshape(laps.shape[:2])

        monkeypatch.setattr(scan_module, "symmetric_eigenvalues", jacobi_stack)
        got = list(scan(lines))
        assert verdict_digest(got) == verdict_digest(expected)
        assert [r.numeric_le for r in got] == pytest.approx([r.numeric_le for r in expected], abs=1e-8)


# (CHUNK_SIZE, CHUNK_CELLS): today's bounds, the 512-record bound that came
# before the cell budget, and a budget of 20 records at n = 62.
CHUNK_BOUNDS = [(CHUNK_SIZE, CHUNK_CELLS), (512, 512 * 62 * 62), (CHUNK_SIZE, 20 * 62 * 62)]


class TestBatchIndependence:
    """A record's fields, floats included, do not depend on how it was batched."""

    @pytest.mark.parametrize("source", ["g6_corpus", "mixed_corpus"], ids=["g6_corpus", "mixed"])
    def test_per_line_whole_stream_and_pool_agree(self, source, request, tmp_path, monkeypatch):
        lines = request.getfixturevalue(source)
        path = tmp_path / "in.g6"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        per_line, per_line_errors = [], []
        for lineno, line in enumerate(lines, start=1):
            try:
                per_line.append(scan_g6(lineno, line))
            except Graph6Error as exc:
                per_line_errors.append((lineno, str(exc)))
        assert len(per_line) + len(per_line_errors) == len(lines)
        for size, cells in CHUNK_BOUNDS:
            monkeypatch.setattr(scan_module, "CHUNK_SIZE", size)
            monkeypatch.setattr(scan_module, "CHUNK_CELLS", cells)
            assert len(list(scan_module._chunks(iter_graph6(lines)))) > 1
            errors = []
            streamed = list(scan(lines, on_error=lambda ln, msg: errors.append((ln, msg))))
            pool_errors = []
            with open(path, encoding="ascii") as fh:
                pooled = list(scan(fh, jobs=2, on_error=lambda ln, msg: pool_errors.append((ln, msg))))
            assert streamed == per_line == pooled
            assert errors == pool_errors == per_line_errors


def cells(record):
    """The matrix cells of a record, read from its order byte 63..125; 0 for any other."""
    n = ord(record[0]) - 63 if record else -1
    return n * n if 0 <= n <= 62 else 0


class TestChunks:
    """A chunk closes at ``CHUNK_SIZE`` records, or before the n^2 of its records would pass ``CHUNK_CELLS``."""

    @staticmethod
    def sizes(records):
        return [len(chunk) for chunk in scan_module._chunks(enumerate(records, start=1))]

    def test_the_cell_budget_closes_chunks_of_large_records(self):
        assert CHUNK_CELLS == 512 * 62 * 62
        assert self.sizes([g6("K62")] * 600) == [512, 88]

    def test_the_record_cap_closes_chunks_of_small_records(self):
        assert CHUNK_SIZE == 4096
        assert self.sizes([K4] * 5000) == [4096, 904]

    def test_bytes_outside_the_order_range_count_no_cells(self):
        big = g6("K62")
        # 512 records at n = 62 fill the budget exactly; records that cannot
        # build a matrix must not close the chunk.
        junk = ["~" + big[1:], ">" + big[1:], "!", "\x7f", "\udcff", ""]
        records = [big] * 256 + junk * 50 + [big] * 256
        assert self.sizes(records) == [len(records)]
        assert self.sizes(records + [K4]) == [len(records), 1]

    def test_mixed_orders_stay_under_both_caps(self):
        rng = random.Random(11)
        kinds = [
            lambda: K4,
            lambda: "!",
            lambda: chr(63 + rng.randint(0, 62)) + "x",
            lambda: chr(63 + rng.randint(40, 62)),
        ]
        records = []
        for _ in range(40):
            kind = rng.choice(kinds)
            records += [kind() for _ in range(rng.randint(1, 2000))]
        chunks = list(scan_module._chunks(enumerate(records)))
        assert [pair for chunk in chunks for pair in chunk] == list(enumerate(records))
        closed_by = set()
        for chunk, following in zip(chunks, chunks[1:]):
            total = sum(cells(record) for _, record in chunk)
            assert len(chunk) <= CHUNK_SIZE and total <= CHUNK_CELLS
            # A chunk closes only when the next record would pass a cap.
            assert len(chunk) == CHUNK_SIZE or total + cells(following[0][1]) > CHUNK_CELLS
            closed_by.add("records" if len(chunk) == CHUNK_SIZE else "cells")
        assert closed_by == {"records", "cells"}
        assert len(chunks[-1]) <= CHUNK_SIZE and sum(cells(record) for _, record in chunks[-1]) <= CHUNK_CELLS

    def test_reads_at_most_one_record_ahead(self):
        pulled = 0

        def source():
            nonlocal pulled
            for pair in enumerate(itertools.cycle([g6("K62")] * 700 + [K4] * 5000 + ["!"] * 30)):
                pulled += 1
                yield pair

        delivered = 0
        for chunk in itertools.islice(scan_module._chunks(source()), 20):
            delivered += len(chunk)
            assert delivered <= pulled <= delivered + 1


def test_determinism_repeated_runs():
    lines = [K4, DIAMOND, FOUR_CYCLE]
    assert list(scan(lines)) == list(scan(lines))
