"""Stream graph6 records and flag graphs whose Laplacian energy meets the
complete-graph value ``2n - 2``.

Input is read in chunks of at most ``CHUNK_SIZE`` records whose matrices
hold at most ``CHUNK_CELLS`` cells, so small orders are solved in large
groups and memory stays bounded at any order.  ``realize`` decodes each
chunk, every order at once, and names the fault of each malformed record.
The well-formed records of an order get a numeric verdict first (LAPACK
eigenvalues of their Laplacians, solved as one stack).  Numeric hits whose
spectra round to integers with an LE of exactly ``2n - 2`` are certified
exactly from the minimal polynomial and power traces of their Laplacians,
in one call on the same float64 stack; only an exact certificate upgrades
the verdict, so other near-hits stay explicitly labeled ``numeric_hit``.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .realize import (
    _GRAPH6_ORDERS,
    Graph6Error,
    _graph6_decode_records,
    _graph6_fault,
    certify_integer_spectrum,
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


@dataclass(frozen=True, slots=True)
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

    def json_line(self) -> str:
        """``json.dumps(self.to_json_obj())``, built directly from the fields."""
        spectrum = ", ".join(map(float.__repr__, self.numeric_spectrum))
        le = float.__repr__(self.numeric_le)
        if "n" in spectrum or "n" in le:  # nan or inf, which JSON spells NaN and Infinity
            return json.dumps(self.to_json_obj())
        certificate = "null" if self.certificate is None else f"[{', '.join(map(int.__repr__, self.certificate))}]"
        return (
            f'{{"index": {self.index}, "g6": {encode_basestring_ascii(self.g6)}, "n": {self.n}, '
            f'"numeric_spectrum": [{spectrum}], "numeric_le": {le}, '
            f'"verdict": {encode_basestring_ascii(self.verdict)}, "certificate": {certificate}}}'
        )

    def csv_row(self) -> list:
        """The record's row under ``CSV_HEADER``."""
        return [self.index, self.g6, self.n, repr(self.numeric_le), self.verdict]


def scan_g6(index: int, record: str, tol: float = DEFAULT_TOL) -> ScanRecord:
    """Classify a single graph6 record; raises ``Graph6Error`` if it is malformed.

    Whitespace around the record is ignored; ``g6`` keeps it.
    """
    (result,) = _scan_chunk([(index, record.strip())], tol)
    if isinstance(result, str):
        raise Graph6Error(result)
    return replace(result, g6=record)


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
    in flight, each of at most ``CHUNK_SIZE`` records and ``CHUNK_CELLS``
    matrix cells, so memory does not grow with the input.
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
    from concurrent.futures import ProcessPoolExecutor  # about 18 ms, so only when used

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

# A chunk closes at ``CHUNK_SIZE`` records, or before the sum of n^2 over its
# records would pass ``CHUNK_CELLS``: the matrices of a chunk's order groups
# hold that many cells.  The cell budget is that of 512 records at n = 62, so
# peak memory is the same at any order while small orders are solved in
# larger groups.  The results do not depend on either bound.
CHUNK_SIZE = 4096
CHUNK_CELLS = 512 * 62 * 62

# Cells of a record's matrix, by its first character.  A record whose first
# character gives no order is rejected without building a matrix.
_CELLS = {head: n * n for head, n in _GRAPH6_ORDERS.items()}


def _chunks(pairs: Iterable[tuple[int, str]]) -> Iterator[list[tuple[int, str]]]:
    chunk: list[tuple[int, str]] = []
    cells = 0
    for pair in pairs:
        size = _CELLS.get(pair[1][:1], 0)
        if cells + size > CHUNK_CELLS and chunk:
            yield chunk
            chunk, cells = [], 0
        chunk.append(pair)
        cells += size
        if len(chunk) == CHUNK_SIZE:
            yield chunk
            chunk, cells = [], 0
    if chunk:
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
    """Classify a chunk of ``(line_number, record)`` pairs, stripped as ``iter_graph6`` yields them.

    Returns, position for position, the record's ``ScanRecord`` or the
    message that names its graph6 fault: a message, not a ``Graph6Error``,
    whose traceback would tie this frame and the chunk into a reference cycle.
    """
    results: list = [None] * len(chunk)
    records = [record for _, record in chunk]
    groups, rejected = _graph6_decode_records(records)
    for members, adj in groups:
        _classify_group(chunk, members, adj, tol, results)
    for pos in rejected:
        results[pos] = _graph6_fault(records[pos])
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
    certificates = iter(np.sort(rounded[certified], axis=1).tolist())
    for pos, row, le, is_hit, is_certified in zip(members, eigs.tolist(), les, hit.tolist(), certified.tolist()):
        lineno, record = chunk[pos]
        if is_certified:
            results[pos] = ScanRecord(lineno, record, n, tuple(row), le, CERTIFIED_HIT, tuple(next(certificates)))
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
