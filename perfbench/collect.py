"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 11-20 --against perfbench/baseline.json
    python3 perfbench/collect.py --seeds 1 --trace 1

For every workload and metric it reports the median and the spread (the
distance between the first and third quartile over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and flags an end-to-end
spread that is not within the metric's bound in BENCHMARK.json. The spread
of ``setup_s`` is flagged but does not fail the command: set-up is gated on
its median only. With ``--against`` it also flags every end-to-end median,
``setup_s`` included, that is worse than the median in an earlier summary by
more than the bound. Metrics printed only for some workloads (cases_to_all,
false_findings, train_s, ...) are summarised from the result files the runs
leave in .perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def report_values(report: dict, units: dict) -> dict[str, float]:
    """Single numbers out of a run's report section; records their units."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict) and "value" in value:
            out[key] = value["value"]
            units[key] = value["unit"]
        elif key == "case_ms":
            out["case_ms.n"] = value["n"]
        elif key == "tracing_overhead":
            out.update({f"tracing_overhead.{k}": v for k, v in value.items()})
        elif isinstance(value, (int, float)):
            out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--against", help="an earlier --out summary to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        earlier = json.loads(Path(args.against).read_text())["trace0"]["workloads"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        metrics: dict[str, list] = {}
        extra: dict[str, list] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            full = json.loads(
                (ROOT / ".perfbench" / "out" / f"{workload}-seed{seed}-trace{args.trace}.json")
                .read_text())
            for name, value in report_values(full["report"], units).items():
                extra.setdefault(name, []).append(value)
        rows = {}
        for group in (metrics, extra):
            for name, values in group.items():
                med, spr = spread(values)
                rows[name] = {"median": med, "spread": spr, "values": values}
                bound = bounds.get(name) if group is metrics and args.trace == 0 else None
                flag = ""
                if bound is not None:
                    flag = " OVER BOUND" if spr > bound else (" > bound/3" if spr > bound / 3 else "")
                    ok &= spr <= bound or name == "setup_s"
                    old = earlier.get(workload, {}).get(name, {}).get("median")
                    if old:
                        worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                        flag += f" vs-earlier={worse:+.4f}" + (" WORSE BY MORE THAN BOUND"
                                                               if worse > bound else "")
                        ok &= worse <= bound
                print(f"{workload:14s} {name:32s} {units.get(name, ''):10s} "
                      f"median={med:<14.6g} spread={spr:.4f}"
                      + (f" bound={bound}" if bound is not None else "") + flag, flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        # one file holds both kinds of run: end-to-end under "trace0",
        # per-layer under "trace1"
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[f"trace{args.trace}"] = summary
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
