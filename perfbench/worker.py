"""The measured process: one fresh interpreter running one workload in-process.

    python3 perfbench/worker.py WORKDIR T0 SECONDS TRACE

T0 is the ``time.monotonic()`` reading its parent took just before starting
this interpreter; set-up time runs from T0 until ``lapspec.cli`` is
imported and one warm-up call has returned.  With SECONDS = 0 the process
stops there.  Otherwise it repeats passes over the CLI calls in
``WORKDIR/spec.json`` (closed loop, one client) until the next pass would
end after SECONDS; with TRACE = 1 the first half of the time runs untraced
and the second half traced.  It saves each distinct pass output for the
oracle and prints one JSON object.
"""

import sys
import time
from pathlib import Path


class Capture:
    """Stands in for stdout/stderr; notes when each line ends."""

    def __init__(self):
        self.parts = []
        self.line_ends = []

    def write(self, text):
        self.parts.append(text)
        if "\n" in text:
            now = time.perf_counter()
            self.line_ends.extend([now] * text.count("\n"))
        return len(text)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def call(cli, argv):
    """Run ``lapspec.cli.main(argv)`` with captured output; returns (rc, out, err, start, end)."""
    out, err = Capture(), Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        rc = f"raised {type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    return rc, out, err, start, end


def main():
    workdir, t0, seconds, traced = Path(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import json

    import lapspec.cli

    spec = json.loads((workdir / "spec.json").read_text(encoding="ascii"))
    warm_rc = call(lapspec.cli, spec["warmup"])[0]
    setup_s = time.monotonic() - t0
    if warm_rc != 0:
        raise SystemExit(f"warm-up call {spec['warmup']} exited {warm_rc!r}")
    if not Path(lapspec.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"lapspec imported from {lapspec.cli.__file__}, not from {root / 'src'}")
    if seconds <= 0:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import hashlib
    import resource
    import statistics

    def one_pass():
        outputs, latencies, wall = [], [], 0.0
        for c in spec["calls"]:
            for p in c.get("files", {}).values():
                Path(p).unlink(missing_ok=True)
            rc, out, err, start, end = call(lapspec.cli, c["argv"])
            wall += end - start
            if c["latency"] == "call":
                latencies.append(end - start)
            elif c["latency"] == "lines":
                latencies.extend(t - start for t in out.line_ends)
            files = {k: Path(p).read_text(encoding="ascii") if Path(p).exists() else "" for k, p in c.get("files", {}).items()}
            outputs.append({"rc": rc, "stdout": out.text(), "stderr": err.text(), "files": files})
        return wall, latencies, {"calls": outputs}

    digests, saved, walls, p50s, p99s = [], {}, [], [], []

    def run_for(budget, tracer=None):
        walls_here = []
        roots = []
        deadline = time.perf_counter() + budget
        while True:
            root_idx = tracer.begin(tracer.name_id("bench.pass")) if tracer else None
            wall, lat, output = one_pass()
            if tracer:
                tracer.finish(root_idx)
                roots.append(root_idx)
            walls_here.append(wall)
            if tracer is None and len(lat) >= 2:
                p50s.append(statistics.median(lat) * 1e3)
                p99s.append(statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3)
            result["latency_samples_per_pass"] = len(lat)
            blob = json.dumps(output, sort_keys=True).encode()
            digest = hashlib.sha256(blob).hexdigest()
            digests.append(digest)
            if digest not in saved:
                saved[digest] = str(workdir / f"output-{len(saved)}.json")
                Path(saved[digest]).write_bytes(blob)
            if time.perf_counter() + wall > deadline:
                return walls_here, roots

    result = {"setup_s": setup_s, "ops_per_pass": spec["ops"]}
    if not traced:
        walls, _ = run_for(seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from importlib import import_module

        from tracer import Tracer

        walls, _ = run_for(seconds / 2)
        tracer = Tracer()
        # import_module, not getattr: the package re-exports a function named ``realize``.
        modules = [import_module(f"lapspec.{m}") for m in ("expr", "spectrum", "energy", "families", "realize", "scan", "cli")]
        restore = tracer.instrument(modules)
        try:
            traced_walls, roots = run_for(seconds / 2, tracer)
        finally:
            restore()
        tracer.write(workdir / "trace.json")
        result["traced_walls"] = traced_walls
        result["pass_stats"] = [tracer.summarize(r) for r in roots]
        result["wrapped"] = sorted(n for n in tracer.names if n != "bench.pass")
    result["walls"] = walls
    # Quantiles per pass, then the median over passes: a scan prints all its
    # records at once, so pooled samples would make p99 the slowest pass.
    if p50s:
        result["op_p50_ms"] = statistics.median(p50s)
        result["op_p99_ms"] = statistics.median(p99s)
    result["digests"] = digests
    result["outputs"] = saved
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
