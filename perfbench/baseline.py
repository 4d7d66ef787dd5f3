"""Repeat the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py [--first-seed 0] [--out perfbench/baseline.json]

For each workload it runs ``run.py --trace 0`` once per seed (RUNS seeds
from first-seed on) and ``run.py --trace 1`` on the first TRACE_RUNS of
them, one process at a time, each for BENCHMARK.json's ``run_seconds``.
It writes, per workload and metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median. It also
writes the attempted and failed repeat counts, the workload's config (at
its pinned seed), threads, nominal work and why, and the machine record of
the first run. It flags each end-to-end spread, other than that of
``setup_s``, that exceeds a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACE_RUNS = 3


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    record = next((json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")), {})
    return json.loads(lines[-1]), record


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench-baseline")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        spec_w = workloads.WORKLOADS[name]
        entry = {"why": spec_w["why"], "threads": spec_w["threads"], "config": workloads.config(name),
                 "nominal_work": workloads.nominal_work(workloads.config(name)),
                 "work_unit": spec_w["work_unit"], "seeds": seeds, "correct": True,
                 "attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {}}
        for trace, metrics_key, run_seeds in ((0, "end_to_end", seeds), (1, "per_layer", seeds[:TRACE_RUNS])):
            values = {}
            for seed in run_seeds:
                result, record = _run(name, seed, seconds, trace)
                report.setdefault("machine", record)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["correct"] &= result["correct"]
                for key, m in result["metrics"].items():
                    values.setdefault(key, []).append(m["value"])
                print(f"{name} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                    if trace == 0 or k.endswith("_s")), file=sys.stderr, flush=True)
            entry[metrics_key] = {k: _summary(v) for k, v in values.items() if v}
        entry["fail_fraction"] = entry["failed"] / max(1, entry["attempted"])
        for key, s in entry["end_to_end"].items():
            ok = key == "setup_s" or s["spread"] <= bounds[key] / 3
            print(f"{name:9s} {key:12s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[key]}){'' if ok else '  NOT STEADY'}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
