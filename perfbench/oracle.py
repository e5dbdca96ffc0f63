"""Independent oracle for the benchmark's outputs.

Nothing here imports lapspec.  Expression spectra come from a separate
parser and a ``{eigenvalue: multiplicity}`` composition over integers;
scan verdicts come from LAPACK ``np.linalg.eigvalsh`` on adjacency
matrices built here; graph6 records are encoded here.  The ``check_*``
functions compare captured CLI output with the expectations and return
``(attempted, failed, messages)``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# The paper's ten families, in the order ``verify-family --id all`` reports them.
FAMILY_IDS = ("Omega1", "Omega2", "Omega3", "Omega4", "G12", "G13", "G23", "G24", "G34", "Gir")

SCAN_TOL = 1e-6  # the CLI's default --tol
INTEGER_TOL = 1e-6  # how close an eigenvalue must be to an integer to be proposed
NUMERIC_TOL = 1e-8  # allowed gap between the program's numbers and LAPACK's
MAX_MESSAGES = 20

# --- expressions ---------------------------------------------------------------
# A tree is ("K", n), ("+", [children]), ("*", [children]), ("rep", m, child)
# or ("~", child).  Operator chains are n-ary, so depth stays small on the
# long chains the calculus workload feeds the program.


def parse(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch in "K+*~()":
            tokens.append(ch)
            i += 1
        else:
            raise ValueError(f"oracle cannot parse {ch!r} at {i}")
    tokens.append(None)
    pos = 0

    def chain(op, item):
        nonlocal pos
        parts = [item()]
        while tokens[pos] == op:
            pos += 1
            parts.append(item())
        return parts[0] if len(parts) == 1 else (op, parts)

    def union():
        return chain("+", join)

    def join():
        return chain("*", rep)

    def rep():
        nonlocal pos
        if isinstance(tokens[pos], int):
            pos += 1
            return ("rep", tokens[pos - 1], atom())
        return atom()

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "K" and isinstance(tokens[pos], int):
            pos += 1
            return ("K", tokens[pos - 1])
        if tok == "~":
            return ("~", atom())
        if tok == "(":
            inner = union()
            if tokens[pos] != ")":
                raise ValueError("oracle: unbalanced parenthesis")
            pos += 1
            return inner
        raise ValueError(f"oracle: unexpected token {tok!r}")

    tree = union()
    if tokens[pos] is not None:
        raise ValueError("oracle: trailing tokens")
    return tree


def _drop_zero(eigs: dict) -> dict:
    out = dict(eigs)
    out[0] -= 1
    if not out[0]:
        del out[0]
    return out


def _add(acc: dict, value: int, mult: int) -> None:
    acc[value] = acc.get(value, 0) + mult


def spectrum(tree) -> tuple[int, dict]:
    """``(n, {eigenvalue: multiplicity})`` of the Laplacian, by composition."""
    kind = tree[0]
    if kind == "K":
        n = tree[1]
        return n, ({0: 1} if n == 1 else {0: 1, n: n - 1})
    if kind == "rep":
        n, eigs = spectrum(tree[2])
        return tree[1] * n, {v: tree[1] * m for v, m in eigs.items()}
    if kind == "~":
        n, eigs = spectrum(tree[1])
        out = {0: 1}
        for v, m in _drop_zero(eigs).items():
            _add(out, n - v, m)
        return n, out
    parts = [spectrum(child) for child in tree[1]]
    if kind == "+":
        out: dict = {}
        for _, eigs in parts:
            for v, m in eigs.items():
                _add(out, v, m)
        return sum(n for n, _ in parts), out
    n, out = parts[0]
    for n2, eigs2 in parts[1:]:
        joined = {0: 1, n + n2: 1}
        for v, m in _drop_zero(out).items():
            _add(joined, v + n2, m)
        for v, m in _drop_zero(eigs2).items():
            _add(joined, v + n, m)
        n, out = n + n2, joined
    return n, out


def energy_json(n: int, eigs: dict) -> dict:
    """What ``lapspec eval --json`` must print for a graph with this spectrum."""
    trace = sum(v * m for v, m in eigs.items())
    dbar = Fraction(trace, n)
    le = sum((abs(v - dbar) * m for v, m in eigs.items()), Fraction(0))
    return {
        "n": n,
        "m": trace // 2,
        "dbar": [dbar.numerator, dbar.denominator],
        "le": [le.numerator, le.denominator],
        "target": 2 * n - 2,
        "borderenergetic": le == 2 * n - 2,
    }


def adjacency(tree) -> np.ndarray:
    """0/1 adjacency matrix of the graph a tree denotes."""
    kind = tree[0]
    if kind == "K":
        return np.ones((tree[1], tree[1]), dtype=np.uint8) - np.eye(tree[1], dtype=np.uint8)
    if kind == "rep":
        return np.kron(np.eye(tree[1], dtype=np.uint8), adjacency(tree[2]))
    if kind == "~":
        a = adjacency(tree[1])
        return (1 - a - np.eye(len(a), dtype=np.uint8)).astype(np.uint8)
    out = adjacency(tree[1][0])
    for child in tree[1][1:]:
        b = adjacency(child)
        n1, n2 = len(out), len(b)
        big = np.zeros((n1 + n2, n1 + n2), dtype=np.uint8)
        big[:n1, :n1] = out
        big[n1:, n1:] = b
        if kind == "*":
            big[:n1, n1:] = 1
            big[n1:, :n1] = 1
        out = big
    return out


# --- graph6 and scan verdicts ------------------------------------------------


def graph6(adj: np.ndarray) -> str:
    """One graph6 record in the single-byte order form (n <= 62)."""
    n = len(adj)
    if n > 62:
        raise ValueError("oracle encodes n <= 62 only")
    bits = [int(adj[i, j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k : k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def scan_expectation(adj: np.ndarray) -> dict:
    """Verdict, numeric energy and certificate the scan must report for a graph."""
    n = len(adj)
    a = adj.astype(np.float64)
    eigs = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a) if n else np.zeros(0)
    dbar = float(a.sum()) / n if n else 0.0
    le = float(np.abs(eigs - dbar).sum())
    verdict, certificate = "miss", None
    if abs(le - (2 * n - 2)) < SCAN_TOL:
        verdict = "numeric_hit"
        rounded = np.rint(eigs)
        if n and float(np.abs(eigs - rounded).max()) < INTEGER_TOL:
            ints = sorted(int(k) for k in rounded)
            mean = Fraction(sum(ints), n)
            if sum(abs(k - mean) for k in ints) == 2 * n - 2:
                verdict, certificate = "certified_hit", ints
    return {"n": n, "le": le, "eigs": eigs.tolist(), "verdict": verdict, "certificate": certificate}


# --- checks -----------------------------------------------------------------------


def close_enough(xs, ys) -> bool:
    return len(xs) == len(ys) and all(abs(x - y) <= NUMERIC_TOL for x, y in zip(xs, ys))


def _check_record(line_no: int, exp: dict, printed: list[str] | None, rec: dict | None) -> str | None:
    """Why the scan's stdout line and JSONL record for one graph are wrong, or None."""
    if printed is None or rec is None:
        return f"line {line_no}: no scan record"
    try:
        index, g6, n, le, verdict = printed
        printed_ok = (int(index), g6, int(n), verdict) == (line_no, exp["g6"], exp["n"], exp["verdict"])
        printed_ok = printed_ok and abs(float(le) - exp["le"]) <= NUMERIC_TOL + 5e-10
    except ValueError:
        printed_ok = False
    if not printed_ok:
        return f"line {line_no}: printed {' '.join(printed)!r}, expected {exp['verdict']} le={exp['le']:.9f}"
    if (rec.get("index"), rec.get("g6"), rec.get("n"), rec.get("verdict")) != (line_no, exp["g6"], exp["n"], exp["verdict"]):
        return f"line {line_no}: JSON record {rec.get('verdict')!r} differs from the expected {exp['verdict']!r}"
    if not isinstance(rec.get("numeric_le"), float) or abs(rec["numeric_le"] - exp["le"]) > NUMERIC_TOL:
        return f"line {line_no}: numeric_le {rec.get('numeric_le')!r}, LAPACK gives {exp['le']!r}"
    if not close_enough(sorted(rec.get("numeric_spectrum") or []), exp["eigs"]):
        return f"line {line_no}: numeric spectrum differs from LAPACK's"
    if rec.get("certificate") != exp["certificate"]:
        return f"line {line_no}: certificate {rec.get('certificate')!r}, expected {exp['certificate']!r}"
    family = exp.get("family_spectrum")
    if family is not None:
        if exp["certificate"] is not None and exp["certificate"] != family:
            return f"line {line_no}: certificate differs from the calculus spectrum of {exp['family']}"
        if not close_enough(sorted(rec["numeric_spectrum"]), family):
            return f"line {line_no}: numeric spectrum differs from the calculus spectrum of {exp['family']}"
    return None


def check_scan(output: dict, expect: dict) -> tuple[int, int, list[str]]:
    """Check one ``lapspec scan --json`` call: stdout lines, JSONL and ``line N:`` errors."""
    call = output["calls"][0]
    records = expect["records"]
    errors = expect["errors"]
    attempted = len(records) + len(errors)
    if call["rc"] != 0:
        return attempted, attempted, [f"scan exited {call['rc']!r}: {call['stderr'][-300:]}"]
    printed = {}
    for line in call["stdout"].splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            printed[int(fields[0])] = fields
    jsonl = {}
    for line in call["files"].get("jsonl", "").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("index"), int) and "verdict" in obj:
            jsonl[obj["index"]] = obj
    reported: dict[int, int] = {}
    for line in call["stderr"].splitlines():
        head, sep, _ = line.partition(":")
        if sep and head.startswith("line ") and head[5:].isdigit():
            reported[int(head[5:])] = reported.get(int(head[5:]), 0) + 1

    messages = []
    for exp in records:
        problem = _check_record(exp["line"], exp, printed.get(exp["line"]), jsonl.get(exp["line"]))
        if problem is None and exp["line"] in reported:
            problem = f"line {exp['line']}: valid record reported as an error"
        if problem:
            messages.append(problem)
    for line_no in errors:
        if reported.get(line_no) != 1:
            messages.append(f"line {line_no}: malformed line reported {reported.get(line_no, 0)} times, expected once")
        elif line_no in printed or line_no in jsonl:
            messages.append(f"line {line_no}: malformed line produced a record")
    expected_lines = {exp["line"] for exp in records} | set(errors)
    for line_no in sorted((set(printed) | set(jsonl) | set(reported)) - expected_lines):
        messages.append(f"line {line_no}: output for a line that is not in the input")
    return attempted, min(len(messages), attempted), messages[:MAX_MESSAGES]


_VERDICT_KEYS = ("id", "r", "i", "order", "spectra_match", "le", "target", "le_matches_target", "noncospectral_with_complete", "passed")


def check_calculus(output: dict, expect: dict) -> tuple[int, int, list[str]]:
    """Check one ``verify-family --json`` call and the ``eval --json`` calls after it."""
    calls = output["calls"]
    verdicts = expect["verify"]["lines"]
    evals = expect["evals"]
    attempted = len(verdicts) + len(evals)
    messages = []
    failed = 0

    verify = calls[0]
    got = []
    for line in verify["stdout"].splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "id" in obj:
            got.append(obj)
    if verify["rc"] != expect["verify"]["rc"]:
        messages.append(f"verify-family exited {verify['rc']!r}, expected {expect['verify']['rc']}")
        failed = len(verdicts)
    else:
        if len(got) != len(verdicts):
            messages.append(f"verify-family printed {len(got)} verdicts, expected {len(verdicts)}")
        for k, exp in enumerate(verdicts):
            obj = got[k] if k < len(got) else {}
            if {key: obj.get(key) for key in _VERDICT_KEYS} != exp:
                failed += 1
                messages.append(f"verify-family {exp['id']} r={exp['r']} i={exp['i']}: got {obj}, expected {exp}")

    for k, (call, exp) in enumerate(zip(calls[1:], evals)):
        try:
            obj = json.loads(call["stdout"])
        except ValueError:
            obj = None
        if call["rc"] != 0 or not isinstance(obj, dict) or {key: obj.get(key) for key in exp} != exp:
            failed += 1
            messages.append(f"eval #{k}: exit {call['rc']!r}, got {call['stdout'][:200]!r}, expected {exp}")
    if len(calls) - 1 != len(evals):
        messages.append(f"{len(calls) - 1} eval calls ran, expected {len(evals)}")
        failed = attempted
    return attempted, min(failed, attempted), messages[:MAX_MESSAGES]
