"""Stream graph6 records and flag graphs whose Laplacian energy meets the
complete-graph value ``2n - 2``.

Input is read in bounded chunks.  Within a chunk, the records of each order
are decoded together and get a numeric verdict first (LAPACK eigenvalues of
their Laplacians, solved as one stack).  The numeric hits whose spectra
round to integers with an LE of exactly ``2n - 2`` are then certified
exactly from the minimal polynomial and power traces of their Laplacians,
all of one order in one call on the same float64 stack; only an exact
certificate upgrades the verdict, so other near-hits stay explicitly
labeled ``numeric_hit``.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .realize import (
    Graph6Error,
    _graph6_decode_group,
    certify_integer_spectrum,
    graph6_decode,
    iter_graph6,
    symmetric_eigenvalues,
)

__all__ = [
    "MISS",
    "NUMERIC_HIT",
    "CERTIFIED_HIT",
    "DEFAULT_TOL",
    "CSV_HEADER",
    "ScanRecord",
    "scan_g6",
    "scan",
    "dedupe_cospectral",
]

MISS = "miss"
NUMERIC_HIT = "numeric_hit"
CERTIFIED_HIT = "certified_hit"

DEFAULT_TOL = 1e-6

# A numeric eigenvalue this close to an integer is proposed for exact
# certification; a wrong proposal is caught there, never accepted.
INTEGER_CANDIDATE_TOL = 1e-6

CSV_HEADER = ("index", "g6", "n", "le", "verdict")

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

    def csv_row(self) -> list:
        """The record's row under ``CSV_HEADER``."""
        return [self.index, self.g6, self.n, repr(self.numeric_le), self.verdict]


def scan_g6(index: int, record: str, tol: float = DEFAULT_TOL) -> ScanRecord:
    """Classify a single graph6 record; raises ``Graph6Error`` if it is malformed."""
    (result,) = _scan_chunk([(index, record)], tol)
    if isinstance(result, str):
        raise Graph6Error(result)
    return result


def scan(
    lines: Iterable[str],
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    on_error: ErrorHandler | None = None,
) -> Iterator[ScanRecord]:
    """Scan graph6 text lines (header tolerated); bad lines go to ``on_error``.

    Records and errors come in input order, and a record's numbers do not
    depend on how the input was split, so the output is the same at any
    ``jobs``.  Lines are pulled lazily, with at most two chunks per worker
    in flight, so memory does not grow with the input.
    """
    chunks = _chunks(iter_graph6(lines))
    task = partial(_scan_chunk, tol=tol)
    # More workers than chunks or cores cannot help, and each is a process.
    cap = min(jobs, os.cpu_count() or 1)
    head = list(islice(chunks, 2 * cap))
    workers = min(cap, len(head))
    if workers <= 1:
        for chunk in chain(head, chunks):
            yield from _deliver(chunk, task(chunk), on_error)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending = deque((chunk, pool.submit(task, chunk)) for chunk in head)
        while pending:
            chunk, future = pending.popleft()
            nxt = next(chunks, None)
            if nxt is not None:
                pending.append((nxt, pool.submit(task, nxt)))
            yield from _deliver(chunk, future.result(), on_error)
    finally:
        # A consumer that stops early does not wait for chunks no worker has started.
        pool.shutdown(cancel_futures=True)


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
    a reference cycle).  Records are grouped by their first byte, which
    gives the order, and each group is decoded at once; only a record that
    fails the group's checks goes through ``graph6_decode``, for its message.
    """
    results: list = [None] * len(chunk)
    by_head: dict[str, list[int]] = {}
    for pos, (_, record) in enumerate(chunk):
        by_head.setdefault(record[:1], []).append(pos)
    for members in by_head.values():
        ok, adj = _graph6_decode_group([chunk[pos][1] for pos in members])
        if len(adj):
            _classify_group(chunk, list(compress(members, ok)), adj, tol, results)
        for pos in compress(members, ~ok):
            try:
                g = graph6_decode(chunk[pos][1])
            except Graph6Error as exc:
                results[pos] = str(exc)
            else:  # whitespace around the record, which only the decoder strips
                _classify_group(chunk, [pos], g.adj[None], tol, results)
    return results


def _classify_group(
    chunk: Sequence[tuple[int, str]], members: list[int], adj: np.ndarray, tol: float, results: list
) -> None:
    """Store the ``ScanRecord`` of each member, given their ``(k, n, n)`` adjacency stack.

    The Laplacians are solved as one stack and the verdict masks are array
    operations, so only records that pass them reach the certifier, which
    proves all of those in one call on the same Laplacians.
    """
    n = adj.shape[1]
    adj = adj.astype(np.float64)
    degrees = adj.sum(axis=2)
    lap = -adj
    diag = np.arange(n)
    lap[:, diag, diag] = degrees
    eigs = symmetric_eigenvalues(lap)
    dbar = degrees.sum(axis=1) / max(n, 1)  # the order-0 graph has average degree 0
    # fsum is correctly rounded, so the LE does not depend on the batch shape.
    les = [math.fsum(dev) for dev in np.abs(eigs - dbar[:, None]).tolist()]
    target = 2 * n - 2
    hit = np.abs(np.array(les) - target) < tol
    rounded = np.rint(eigs).astype(np.int64)
    # Only an integral hit whose LE is exactly 2n - 2 goes to the certifier.
    # In integers, n * LE = sum |n * mu - 2m|, where 2m is the trace.
    two_m = degrees.sum(axis=1).astype(np.int64)
    candidate = (
        hit
        & (n > 0)
        & (np.abs(eigs - rounded) < INTEGER_CANDIDATE_TOL).all(axis=1)
        & (np.abs(n * rounded - two_m[:, None]).sum(axis=1) == n * target)
    )
    certified = np.zeros(len(members), dtype=bool)
    if candidate.any():
        certified[candidate] = certify_integer_spectrum(lap[candidate], rounded[candidate].tolist())
    rows = zip(members, eigs.tolist(), les, rounded.tolist(), hit.tolist(), certified.tolist())
    for pos, row, le, ints, is_hit, is_certified in rows:
        lineno, record = chunk[pos]
        if is_certified:
            results[pos] = ScanRecord(lineno, record, n, tuple(row), le, CERTIFIED_HIT, tuple(sorted(ints)))
        else:
            results[pos] = ScanRecord(lineno, record, n, tuple(row), le, NUMERIC_HIT if is_hit else MISS)


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
