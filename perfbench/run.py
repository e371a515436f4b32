"""fuzztwin benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload lal-twin --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports fuzztwin from ./src.
With ``--trace 0`` the result holds every end-to-end metric listed in
BENCHMARK.json, with ``--trace 1`` every per-layer metric. Human-readable
report lines (environment, sample counts, the percentile each tail holds,
metrics that apply to this workload only, failed checks) come first; the
last line of standard output is the JSON result. Stores and scratch files go
to a temporary directory under .perfbench/ that is removed on exit; the
full result, and in traced runs the spans, are written to .perfbench/out/.

Load is a closed loop with one client, running one fuzz case at a time; all
socket traffic crosses the host loopback interface, not a real link.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("wire", "twin", "relay", "engine", "store", "analyzer", "predictor", "synth",
           "experiments", "cli")
IMPORT_REPEATS = 5  # spawns before the workload, and as many after it


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_seconds() -> list[float]:
    """Wall times of fresh interpreters importing every fuzztwin module.

    Spawned several times because a single spawn varies by tens of percent
    on a shared machine; the caller takes the median.
    """
    code = "import " + ", ".join(f"fuzztwin.{m}" for m in MODULES)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def filesystem_of(path: str) -> str:
    """Type and mount point of the filesystem holding ``path``, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount, fstype = parts[1], parts[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return f"{best[0]} on {best[1] or '?'}"


def revision() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def runqueue_wait_ns() -> int:
    """Time the main thread has spent runnable but waiting for a CPU."""
    try:
        with open("/proc/self/schedstat") as fh:
            return int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0


def environment(workdir: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": revision(),
        "network": "loopback, not a real link",
        "load": "closed loop, 1 client, one fuzz case at a time",
        "store_filesystem": filesystem_of(workdir),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzztwin" / "__init__.py").is_file():
        print(f"error: no fuzztwin sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import UNEXERCISED, WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    ft = SimpleNamespace(**{m: importlib.import_module(f"fuzztwin.{m}") for m in MODULES})
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench")
    try:
        env = environment(workdir)
        # half the spawns before the workload and half after it: the host's
        # CPU speed changes within seconds, so spawns at one moment all
        # catch the same speed
        import_times = import_seconds()
        bench = Bench(ft, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        wait0, t0 = runqueue_wait_ns(), time.perf_counter_ns()
        WORKLOADS[args.workload](bench)
        # a share well above 0 means other processes took this run's CPU
        bench.report["runqueue_wait_share"] = (
            (runqueue_wait_ns() - wait0) / (time.perf_counter_ns() - t0))
        import_times += import_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import_s = statistics.median(import_times)
    setup_s = import_s + sorted(bench.setup_ns)[len(bench.setup_ns) // 2] / 1e9
    bench.e2e["setup_s"] = setup_s
    bench.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = bench.layers if args.trace else bench.e2e
    correct = bool(bench.checks) and all(ok for _, ok, _ in bench.checks)
    metrics = {}
    if correct:
        names = [m["name"] for m in table]
        if args.trace:
            for name in names:
                if any(name == u or u.endswith(".") and name.startswith(u)
                       for u in UNEXERCISED[args.workload]):
                    if name in values:
                        raise RuntimeError(f"{args.workload} measured unexercised {name}")
                    values[name] = 0.0
        missing = [n for n in names if n not in values]
        unknown = sorted(set(values) - set(names))
        if missing or unknown:
            raise RuntimeError(f"{args.workload}: not measured {missing}, not defined {unknown}")
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in table}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": {
            "import_s": import_s, "import_spawns_s": import_times, "in_process_s": [ns / 1e9 for ns in bench.setup_ns]},
        "report": bench.report, "checks": bench.checks, "e2e": bench.e2e,
        "layers": bench.layers,
    }
    if args.trace:
        full["spans"] = bench.tracer.dump(out_dir / f"{stem}-spans.tsv.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1, default=str))

    for key, value in env.items():
        print(f"# env {key}: {value}")
    for key, value in bench.report.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, ok, detail in bench.checks:
        if not ok:
            print(f"# CHECK FAILED {name}: {detail}")
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
