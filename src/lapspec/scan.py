"""Stream graph6 records and flag graphs whose Laplacian energy meets the
complete-graph value ``2n - 2``.

Each record gets a numeric verdict first (LAPACK eigenvalues of the
realized Laplacian, solved in bounded chunks as one stack per order).  A
numeric hit whose spectrum rounds to integers is then certified exactly
from the minimal polynomial and power traces of its Laplacian; only an
exact certificate upgrades the verdict, so non-integral near-hits stay
explicitly labeled ``numeric_hit``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .energy import is_l_borderenergetic
from .realize import (
    DenseGraph,
    Graph6Error,
    certify_integer_spectrum,
    graph6_decode,
    iter_graph6,
    laplacian_matrix,
    symmetric_eigenvalues,
)
from .spectrum import Spectrum

__all__ = [
    "MISS",
    "NUMERIC_HIT",
    "CERTIFIED_HIT",
    "DEFAULT_TOL",
    "ScanRecord",
    "scan_g6",
    "scan_lines",
    "scan_records",
    "scan_file",
    "dedupe_cospectral",
    "write_jsonl",
    "write_csv",
]

MISS = "miss"
NUMERIC_HIT = "numeric_hit"
CERTIFIED_HIT = "certified_hit"

DEFAULT_TOL = 1e-6

# A numeric eigenvalue this close to an integer is proposed for exact
# certification; a wrong proposal is caught there, never accepted.
INTEGER_CANDIDATE_TOL = 1e-6

ErrorHandler = Callable[[int, str], None]


@dataclass(frozen=True)
class ScanRecord:
    """One scanned graph and its verdict."""

    index: int
    g6: str
    n: int
    numeric_spectrum: tuple[float, ...]
    numeric_le: float
    verdict: str
    certificate: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "g6": self.g6,
            "n": self.n,
            "numeric_spectrum": list(self.numeric_spectrum),
            "numeric_le": self.numeric_le,
            "verdict": self.verdict,
            "certificate": None if self.certificate is None else list(self.certificate),
        }


def scan_g6(index: int, record: str, tol: float = DEFAULT_TOL) -> ScanRecord:
    """Classify a single graph6 record; raises ``Graph6Error`` if it is malformed."""
    (result,) = _scan_chunk([(index, record)], tol)
    if isinstance(result, str):
        raise Graph6Error(result)
    return result


def scan_lines(
    lines: Iterable[str],
    tol: float = DEFAULT_TOL,
    on_error: ErrorHandler | None = None,
) -> Iterator[ScanRecord]:
    """Scan text lines serially; undecodable lines are reported and skipped."""
    for chunk in _chunks(iter_graph6(lines)):
        yield from _deliver(chunk, _scan_chunk(chunk, tol), on_error)


def scan_records(
    pairs: Iterable[tuple[int, str]],
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    on_error: ErrorHandler | None = None,
) -> list[ScanRecord]:
    """Scan ``(line_number, record)`` pairs, optionally with worker processes.

    Results come back in input order no matter how many workers run, and
    each record's numbers do not depend on how the input was split, so the
    output is the same for a given input and tolerance at any ``jobs``.
    """
    chunks = list(_chunks(pairs))
    task = partial(_scan_chunk, tol=tol)
    # More workers than chunks or cores cannot help, and each is a process.
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        results = list(map(task, chunks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, chunks))
    return [rec for chunk, res in zip(chunks, results) for rec in _deliver(chunk, res, on_error)]


def scan_file(
    path: str,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    on_error: ErrorHandler | None = None,
) -> list[ScanRecord]:
    """Scan a graph6 file (one record per line, optional header tolerated).

    A non-ASCII byte is kept as a lone surrogate, so the decoder rejects only
    the line that holds it.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().splitlines()
    return scan_records(iter_graph6(lines), tol=tol, jobs=jobs, on_error=on_error)


# --- numeric pass, one bounded chunk at a time -------------------------------

# Records per numeric batch.  It bounds the memory of a batch; the results do
# not depend on it.
CHUNK_SIZE = 512


def _chunks(pairs: Iterable[tuple[int, str]]) -> Iterator[list[tuple[int, str]]]:
    it = iter(pairs)
    while chunk := list(islice(it, CHUNK_SIZE)):
        yield chunk


def _deliver(
    chunk: Sequence[tuple[int, str]],
    results: Sequence[ScanRecord | str],
    on_error: ErrorHandler | None,
) -> Iterator[ScanRecord]:
    """Yield a chunk's records and report its errors, in input order."""
    for (lineno, _), result in zip(chunk, results):
        if isinstance(result, ScanRecord):
            yield result
        elif on_error is not None:
            on_error(lineno, result)


def _scan_chunk(chunk: Sequence[tuple[int, str]], tol: float) -> list[ScanRecord | str]:
    """Classify a chunk of ``(line_number, record)`` pairs.

    Returns, position for position, the record's ``ScanRecord`` or the
    message of the ``Graph6Error`` that rejected it (the message, not the
    exception: its traceback would tie this frame and the whole chunk into
    a reference cycle).  Decoded graphs are grouped by order and each
    group's Laplacians are solved as one stack.
    """
    results: list = [None] * len(chunk)
    graphs = {}
    by_order: dict[int, list[int]] = {}
    for pos, (_, record) in enumerate(chunk):
        try:
            g = graph6_decode(record)
        except Graph6Error as exc:
            results[pos] = str(exc)
            continue
        graphs[pos] = g
        by_order.setdefault(g.n, []).append(pos)
    for n, members in by_order.items():
        adj = np.stack([graphs[pos].adj for pos in members]).astype(np.float64)
        degrees = adj.sum(axis=2)
        lap = -adj
        diag = np.arange(n)
        lap[:, diag, diag] = degrees
        eigs = symmetric_eigenvalues(lap)
        dbar = degrees.sum(axis=1) / max(n, 1)  # the order-0 graph has average degree 0
        deviations = np.abs(eigs - dbar[:, None])
        for pos, row, dev in zip(members, eigs.tolist(), deviations.tolist()):
            lineno, record = chunk[pos]
            # fsum is correctly rounded, so the LE does not depend on the batch shape.
            results[pos] = _classify(lineno, record, graphs[pos], row, math.fsum(dev), tol)
    return results


def _classify(index: int, record: str, g: DenseGraph, eigs: list[float], le: float, tol: float) -> ScanRecord:
    """Verdict for one graph from its ascending numeric spectrum and numeric LE."""
    target = 2 * g.n - 2
    verdict = MISS
    certificate = None
    if abs(le - target) < tol:
        verdict = NUMERIC_HIT
        rounded = [int(round(x)) for x in eigs]
        if (
            g.n > 0
            and max(abs(x - k) for x, k in zip(eigs, rounded)) < INTEGER_CANDIDATE_TOL
            and certify_integer_spectrum(laplacian_matrix(g), rounded)
        ):
            exact = Spectrum.from_pairs(g.n, [(k, 1) for k in rounded])
            if is_l_borderenergetic(exact):
                verdict = CERTIFIED_HIT
                certificate = tuple(sorted(rounded))
    return ScanRecord(
        index=index,
        g6=record,
        n=g.n,
        numeric_spectrum=tuple(eigs),
        numeric_le=le,
        verdict=verdict,
        certificate=certificate,
    )


def dedupe_cospectral(records: Iterable[ScanRecord]) -> list[list[ScanRecord]]:
    """Group hit records into cospectral classes.

    Certified hits are keyed by their exact integer multiset; numeric-only
    hits by the spectrum rounded to 9 decimals.  Classes come back ordered
    by ``(n, first index)``; misses are ignored.
    """
    classes: dict[tuple, list[ScanRecord]] = {}
    for rec in records:
        if rec.verdict == MISS:
            continue
        if rec.verdict == CERTIFIED_HIT:
            key = ("exact", rec.n, rec.certificate)
        else:
            key = ("numeric", rec.n, tuple(round(x, 9) for x in rec.numeric_spectrum))
        classes.setdefault(key, []).append(rec)
    return sorted(classes.values(), key=lambda group: (group[0].n, group[0].index))


def write_jsonl(records: Sequence[ScanRecord], fh) -> None:
    for rec in records:
        fh.write(json.dumps(rec.to_json_obj()) + "\n")


def write_csv(records: Sequence[ScanRecord], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["index", "g6", "n", "le", "verdict"])
    for rec in records:
        writer.writerow([rec.index, rec.g6, rec.n, repr(rec.numeric_le), rec.verdict])
