"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench

Runs every workload at a tiny size, traced and untraced, and checks the
result line against BENCHMARK.json; checks that the oracle catches a
corrupted verdict; and checks that the benchmark refuses to run without a
source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "5"]
    argv += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_every_named_metric_is_reported(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def captured(argvs):
    import lapspec.cli

    calls = []
    for argv, files in argvs:
        rc, out, err, _, _ = worker.call(lapspec.cli, argv)
        calls.append({"rc": rc, "stdout": out.text(), "stderr": err.text(), "files": {k: Path(p).read_text() for k, p in files.items()}})
    return {"calls": calls}


def test_oracle_catches_a_corrupted_scan_verdict(tmp_path):
    expect, _ = workloads.generate("scan_small", 5, tmp_path, tiny=True)
    spec = json.loads((tmp_path / "spec.json").read_text())
    output = captured([(c["argv"], c["files"]) for c in spec["calls"]])
    attempted, failed, problems = oracle.check_scan(output, expect)
    assert (attempted, failed, problems) == (spec["ops"], 0, [])

    call = output["calls"][0]
    line = next(line for line in call["stdout"].splitlines() if line.endswith(" miss"))
    call["stdout"] = call["stdout"].replace(line, line[: -len("miss")] + "certified_hit", 1)
    _, failed, problems = oracle.check_scan(output, expect)
    assert failed == 1 and "printed" in problems[0]


def test_oracle_catches_a_corrupted_family_verdict(tmp_path):
    expect, _ = workloads.generate("calculus", 5, tmp_path, tiny=True)
    spec = json.loads((tmp_path / "spec.json").read_text())
    output = captured([(c["argv"], {}) for c in spec["calls"]])
    assert oracle.check_calculus(output, expect)[1:] == (0, [])

    verify = output["calls"][0]
    verify["stdout"] = verify["stdout"].replace('"passed": false', '"passed": true', 1)
    _, failed, problems = oracle.check_calculus(output, expect)
    assert failed == 1 and "verify-family G24" in problems[0]


def test_a_function_that_no_longer_exists_reads_as_not_called():
    pass_stats = [{"bench.pass": {"calls": 1, "busy_ns": 10, "self_ns": 10, "true": 0}}]
    values = run.layer_metrics(["realize.gone.calls", "realize.gone.busy_s", "realize.gone.accept_ratio"], {"pass_stats": pass_stats}, {})
    assert values == {"realize.gone.calls": 0, "realize.gone.busy_s": 0.0, "realize.gone.accept_ratio": 0.0}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "scan_small", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
