"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``pytest -s``
or read the captured output).  All comparisons on exact quantities use
exact rational equality; numeric oracle comparisons use the stated 1e-8
entrywise bound.

Criterion 1 is split: the structural clauses hold for every family, but
the energy-target clause is provably false for the G24 and G34 families
at r >= 2 (their energy is 8r+6 + r(r-1)/(r+1)), so its faithful test is
expected to stay red.  See tests/test_families.py for the pinned excess.
"""

import random
from fractions import Fraction

import numpy as np

import helpers
from lapspec.energy import is_cospectral, laplacian_energy
from lapspec.expr import order
from lapspec.families import FAMILY_IDS, FamilySpec, build, family_specs, pairwise_noncospectral, verify
from lapspec.realize import (
    graph6_decode,
    graph6_encode,
    laplacian_matrix,
    realize,
    symmetric_eigenvalues,
)
from lapspec.scan import CERTIFIED_HIT, MISS, NUMERIC_HIT, scan
from lapspec.spectrum import spectrum_of, spectrum_of_complete

SOUND_ENERGY_IDS = tuple(fid for fid in FAMILY_IDS if fid not in ("G24", "G34"))


def report(label, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_structure_at_scale():
    """Spectra, orders, and noncospectrality for every family, r = 1..100;
    energy target for the eight families where it holds."""
    failures = []
    checked = 0
    for r in range(1, 101):
        for member in family_specs(r):
            verdict = verify(member)
            checked += 1
            if not verdict.spectra_match:
                failures.append(("spectra", member))
            if order(verdict.expr) != 4 * r + 4:
                failures.append(("order", member))
            if not verdict.noncospectral_with_complete:
                failures.append(("cospectral", member))
            if member.id in SOUND_ENERGY_IDS and verdict.le != 8 * r + 6:
                failures.append(("energy", member))
    ok = not failures
    report("criterion 1 (structure at scale)", ok, f"{checked} members, r=1..100")
    assert ok, failures[:5]


def test_criterion_1_energy_target_for_all_ids_as_stated():
    """LE = 8r+6 exactly for every family id and r = 1..100.

    Known to fail: the G24/G34 constructions reproduce their closed-form
    spectra exactly, yet those spectra give LE = 8r+6 + r(r-1)/(r+1), which
    meets the target only at r = 1.  Kept faithful rather than weakened.
    """
    failures = []
    for r in range(1, 101):
        for member in family_specs(r):
            le = laplacian_energy(spectrum_of(build(member)))
            if le != 8 * r + 6:
                failures.append((member.id, r, le, Fraction(8 * r + 6)))
    ok = not failures
    detail = ""
    if failures:
        fid, r, le, target = failures[0]
        detail = (
            f"{len(failures)} members miss the target; first is {fid} at r={r} "
            f"with LE={le} vs {target} (excess r(r-1)/(r+1))"
        )
    report("criterion 1 (energy target, all ids as stated)", ok, detail)
    assert ok, detail


def test_criterion_2_complete_graph_energy():
    """LE(K_n) = 2n-2 exactly for n = 1..500."""
    ok = all(laplacian_energy(spectrum_of_complete(n)) == 2 * n - 2 for n in range(1, 501))
    report("criterion 2 (complete-graph energy, n<=500)", ok)
    assert ok


def test_criterion_3_numeric_oracle_agreement():
    """Numeric (LAPACK) eigenvalues match the exact calculus within 1e-8: every
    family member for r = 1..4, plus 1000 random expressions of order <= 12."""
    worst = 0.0
    for r in range(1, 5):
        for member in family_specs(r):
            expr = build(member)
            exact = np.array([float(v) for v in spectrum_of(expr).expanded()])
            got = symmetric_eigenvalues(laplacian_matrix(realize(expr)))
            worst = max(worst, float(np.max(np.abs(got - exact))))
    rng = random.Random(20240817)
    for _ in range(1000):
        e = helpers.random_expr_with_order(rng, max_depth=5, max_order=12)
        exact = np.array([float(v) for v in spectrum_of(e).expanded()])
        got = symmetric_eigenvalues(laplacian_matrix(realize(e)))
        worst = max(worst, float(np.max(np.abs(got - exact))))
    ok = worst < 1e-8
    report("criterion 3 (numeric oracle agreement)", ok, f"worst entrywise gap {worst:.2e}")
    assert ok


def test_criterion_4_complement_and_join_identities():
    """Complement and join eigenvalue rules on 500 random graphs each (n <= 10),
    numeric agreement within 1e-8."""
    rng = random.Random(555)
    worst = 0.0
    for _ in range(500):
        g = helpers.random_graph(rng, rng.randint(1, 10))
        mu = symmetric_eigenvalues(laplacian_matrix(g))
        predicted = np.sort(np.array([0.0] + [g.n - x for x in mu[1:]]))
        actual = symmetric_eigenvalues(laplacian_matrix(g.complement()))
        worst = max(worst, float(np.max(np.abs(actual - predicted))))
    for _ in range(500):
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
        worst = max(worst, float(np.max(np.abs(actual - predicted))))
    ok = worst < 1e-8
    report("criterion 4 (complement/join identities)", ok, f"worst entrywise gap {worst:.2e}")
    assert ok


def test_criterion_5_gir_pairwise_noncospectral():
    """For r = 1..50 the 2r+1 Gir members have pairwise distinct spectra."""
    ok = True
    witness = None
    for r in range(1, 51):
        distinct, pair = pairwise_noncospectral([FamilySpec("Gir", r, i) for i in range(2 * r + 1)])
        if not distinct:
            ok = False
            witness = (r, pair)
            break
    report("criterion 5 (Gir pairwise noncospectral, r<=50)", ok, str(witness or ""))
    assert ok, witness


def test_criterion_6_exhaustive_desk_scan():
    """Scanning all graphs on n <= 4 agrees with the brute-force oracle.

    The oracle (direct energy evaluation over every isomorphism class)
    finds four certified hits at n = 4: the complete graph {0,4,4,4}, the
    diamond {0,2,4,4}, the paw {0,1,3,4}, and triangle-plus-vertex
    {0,0,3,3}.  On n <= 3 only the complete graphs hit.
    """
    for n in (1, 2, 3):
        graphs = helpers.graph_classes(n)
        records = list(scan(graph6_encode(g) for g in graphs))
        hits = [r for r in records if r.verdict != MISS]
        assert len(hits) == 1
        assert hits[0].certificate == tuple([0] + [n] * (n - 1))

    graphs = helpers.graph_classes(4)
    assert len(graphs) == 11
    oracle_hits = set()
    for g in graphs:
        lap = laplacian_matrix(g)
        mu = np.linalg.eigvalsh(lap)
        le = float(np.abs(mu - 2 * g.edge_count() / g.n).sum())
        if abs(le - 6.0) < 1e-9:
            oracle_hits.add(tuple(int(round(x)) for x in mu))
    records = list(scan(graph6_encode(g) for g in graphs))
    certified = {r.certificate for r in records if r.verdict == CERTIFIED_HIT}
    ok = (
        certified == oracle_hits
        and (0, 4, 4, 4) in certified
        and (0, 2, 4, 4) in certified
        and all(r.verdict != NUMERIC_HIT for r in records)
        and all(abs(r.numeric_le - 6.0) < 1e-6 for r in records if r.verdict == CERTIFIED_HIT)
    )
    report(
        "criterion 6 (desk-scale scan, n<=4)",
        ok,
        f"scan matches oracle: {len(certified)} certified hit classes at n=4",
    )
    assert ok, (certified, oracle_hits)


def test_criterion_7_cross_construction_regression():
    """Omega3(r) and Gir(r, i=0) are exactly cospectral for r = 1..20."""
    ok = all(
        is_cospectral(
            spectrum_of(build(FamilySpec("Omega3", r))),
            spectrum_of(build(FamilySpec("Gir", r, 0))),
        )
        for r in range(1, 21)
    )
    report("criterion 7 (Omega3 vs Gir(i=0) cospectrality, r<=20)", ok)
    assert ok


def test_criterion_8_graph6_roundtrip_and_trace(g6_corpus):
    """Round-trip identity on a 10^4-line corpus (n <= 11) and the trace
    identity 2m = sum(mu) within 1e-8 of the numeric spectrum sum."""
    assert len(g6_corpus) >= 10_000
    worst = 0.0
    for line in g6_corpus:
        g = graph6_decode(line)
        assert graph6_encode(g) == line
        eigs = symmetric_eigenvalues(laplacian_matrix(g))
        worst = max(worst, abs(float(eigs.sum()) - 2.0 * g.edge_count()))
    ok = worst < 1e-8
    report(
        "criterion 8 (graph6 corpus round-trip + trace identity)",
        ok,
        f"{len(g6_corpus)} lines, worst trace gap {worst:.2e}",
    )
    assert ok
