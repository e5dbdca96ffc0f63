"""lapspec benchmark: three seeded workloads through ``lapspec.cli.main``.

    python3 perfbench/run.py --workload scan_small --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout (``src/lapspec`` must exist).  This
process generates the inputs and the oracle's expectations, times
set-up in fresh interpreters, starts ``worker.py`` for the measured passes,
checks every distinct pass output against the independent oracle, and
prints a details object and then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the per-layer ones.  It exits 1 on any mismatch and 2 on a usage error or
a missing source tree.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s, the worker's own start included
WORKER_GRACE_S = 120  # a worker that overruns --seconds by this much is killed and the run fails
# One client, one thread: BLAS threading on a shared 2-core box only adds noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# Stages whose busy time names the dominant layer; their callers (cli, the
# scan loops, families.verify) contain them and are left out.
STAGES = (
    "realize.graph6_decode",
    "realize.laplacian_matrix",
    "realize.symmetric_eigenvalues",
    "realize.certify_integer_spectrum",
    "energy.is_l_borderenergetic",
    "expr.parse",
    "spectrum.spectrum_of",
    "energy.laplacian_energy",
    "energy.energy_report",
    "families.build",
    "families.closed_form_spectrum",
)


def start_worker(workdir: Path, seconds: float, trace: int, env: dict) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(workdir), repr(t0), str(seconds), str(trace)],
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info varies by version
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lapspec").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "lapspec_commit": commit,
        "lapspec_src_sha256": src.hexdigest(),
    }


def verdict_counts(output: dict) -> dict:
    """Exact outcome counts of one (oracle-checked) pass output."""
    counts = {f"scan.verdict.{v}": 0 for v in ("miss", "numeric_hit", "certified_hit", "error")}
    counts.update({"families.verdict.passed": 0, "families.verdict.failed": 0})
    first = output["calls"][0]
    for line in first["stdout"].splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0].isdigit() and f"scan.verdict.{fields[4]}" in counts:
            counts[f"scan.verdict.{fields[4]}"] += 1
        elif line.startswith("{"):
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "passed" in obj:
                counts["families.verdict.passed" if obj["passed"] else "families.verdict.failed"] += 1
    counts["scan.verdict.error"] = sum(line.startswith("line ") for line in first["stderr"].splitlines())
    return counts


def layer_metrics(names: list[str], run: dict, counts: dict) -> dict:
    """Per-layer values for ``names`` from the traced passes' span summaries."""
    passes = run["pass_stats"]

    def per_pass(fn):
        return statistics.median(fn(stats) for stats in passes)

    def stat(stats, fn_name, key):
        return stats.get(fn_name, {}).get(key, 0)

    def lapspec_self(stats):
        return sum(s["self_ns"] for name, s in stats.items() if name != "bench.pass")

    out = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        if name in counts:
            value = counts[name]
        elif name == "trace.overhead_ratio":
            value = statistics.median(run["traced_walls"]) / statistics.median(run["walls"])
        elif name == "trace.coverage_ratio":
            value = per_pass(lambda s: lapspec_self(s) / stat(s, "bench.pass", "busy_ns"))
        elif "." not in head and kind == "self_s":
            value = per_pass(lambda s: sum(v["self_ns"] for n, v in s.items() if n.startswith(head + "."))) / 1e9
        elif kind == "calls":
            value = stat(passes[0], head, "calls")  # the same in every pass
        elif kind in ("busy_s", "self_s"):
            value = per_pass(lambda s: stat(s, head, kind[:-2] + "_ns")) / 1e9
        elif kind == "accept_ratio":
            value = per_pass(lambda s: stat(s, head, "true") / stat(s, head, "calls") if stat(s, head, "calls") else 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="shrink every input (for the benchmark's own smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lapspec" / "cli.py").is_file():
        print(f"error: no lapspec source tree at {ROOT / 'src' / 'lapspec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    workdir = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    expect, input_digest = workloads.generate(args.workload, args.seed, workdir, args.tiny)
    env = {**os.environ, **CHILD_ENV}

    setup = [start_worker(workdir, 0, 0, env)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = start_worker(workdir, args.seconds, args.trace, env)
    setup.append(run["setup_s"])

    check = oracle.check_calculus if args.workload == "calculus" else oracle.check_scan
    failed_by_digest, messages = {}, []
    for digest, path in run["outputs"].items():
        output = json.loads(Path(path).read_text(encoding="ascii"))
        ops, failed_by_digest[digest], problems = check(output, expect)
        messages += problems
        if ops != run["ops_per_pass"]:
            messages.append(f"oracle expects {ops} operations per pass, the worker ran {run['ops_per_pass']}")
    passes = len(run["digests"])
    attempted = run["ops_per_pass"] * passes
    failed = sum(failed_by_digest[d] for d in run["digests"])
    correct = failed == 0 and not messages

    if args.trace:
        first = json.loads(Path(run["outputs"][run["digests"][0]]).read_text(encoding="ascii"))
        values = layer_metrics([m["name"] for m in config["per_layer"]], run, verdict_counts(first))
        busy = {name: statistics.median(s.get(name, {}).get("busy_ns", 0) for s in run["pass_stats"]) for name in STAGES}
        dominant = max(busy, key=busy.get)
        heads = (m["name"].rpartition(".") for m in config["per_layer"])
        functions = {head for head, _, kind in heads if "." in head and kind in ("calls", "busy_s", "self_s", "accept_ratio")}
        not_found = sorted(functions - set(run["wrapped"]))
    else:
        values = {
            "throughput_ops_s": statistics.median(run["ops_per_pass"] / w for w in run["walls"]),
            "op_p50_ms": run["op_p50_ms"],
            "op_p99_ms": run["op_p99_ms"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        dominant, not_found = None, None
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "input_sha256": input_digest,
        "passes": passes,
        "pass_walls_s": run["walls"],
        "traced_pass_walls_s": run.get("traced_walls"),
        "ops_per_pass": run["ops_per_pass"],
        "latency_samples_per_pass": run["latency_samples_per_pass"],
        "setup_samples_s": setup,
        "fail_ratio": failed / attempted,
        "dominant_stage": dominant,
        "functions_not_found": not_found,
        "trace_file": str(workdir / "trace.json") if args.trace else None,
        "problems": messages[:20],
        "environment": environment(),
    }
    print(json.dumps({"details": details}))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
