"""The meanfield benchmark: time to a verdict of pinned ``meanfield run`` workloads.

    python3 perfbench/run.py --workload {coupling,dsmc,cmc} [--seed N]
        [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the program is imported from ``src/``
there. Each repeat is a fresh child process (``perfbench/child.py``) that
calls ``meanfield.cli.run`` once on the generated config; repeats run one
at a time until ``--seconds`` have passed. Every repeat is checked: the
program's exit code, ``summary.json`` ``pass``, and the artifact bytes
against the first repeat. Failed repeats stay in the sample and count in
``failed``.

A shared host's speed drifts by half or more within minutes, so a
calibration process (``calibration.py``) times a fixed piece of work before
the first repeat and after each one; a repeat's calibration time is the
mean of the two around it. The reported times are scaled to the host speed at
which one calibration takes ``CALIBRATION_REF_S``: the sum of a time over
the run's repeats, over the sum of their calibration times, times
``CALIBRATION_REF_S``. The medians of the raw times are printed as well.

``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones plus the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
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
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEADLINE_S = 170.0  # a run must end within 180 s, child processes included
# calibration.calibrate(1, False) on a quiet vCPU of the machine the baseline
# was made on (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6)
CALIBRATION_REF_S = 0.30

END_TO_END = {"scaled_wall_s": "s", "scaled_work_per_s": "work/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.rng.calls": "count", "core.rng.variates": "count", "core.rng.substreams": "count",
    "core.rng.self_s": "s", "core.ensemble.calls": "count", "core.ensemble.self_s": "s",
    "mckean.replica.calls": "count", "mckean.replica.self_s": "s",
    "mckean.drift.calls": "count", "mckean.drift.self_s": "s",
    "mckean.particle_steps": "count", "mckean.step_us": "us",
    "boltzmann.exact.self_s": "s", "boltzmann.bird.self_s": "s",
    "boltzmann.events.proposed": "count", "boltzmann.events.accepted": "count",
    "boltzmann.accept_ratio": "ratio", "boltzmann.event_us": "us",
    "boltzmann.kernel.calls": "count", "boltzmann.kernel.self_s": "s",
    "boltzmann.eventlog.entries": "count", "boltzmann.eventlog.truncated": "count",
    "boltzmann.stall_warnings": "count",
    "jump.cmc.self_s": "s", "jump.sweeps": "count", "jump.sweep_ms": "ms",
    "jump.target.calls": "count", "jump.target.self_s": "s",
    "jump.accept_ratio": "ratio", "jump.mixture.pair_evals": "count",
    "metrics.calls": "count", "metrics.self_s": "s",
    "cli.self_s": "s", "cli.artifact_bytes": "bytes", "cli.map.wall_s": "s",
    "cli.map.busy_s": "s", "cli.cpu_s": "s", "trace.overhead_s": "s",
}
# counts that must repeat exactly between traced repeats of one seed
DETERMINISTIC = tuple(k for k, unit in PER_LAYER.items() if unit == "count")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest_dir(path: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


class Bench:
    """One benchmark invocation: a workload config, a scratch directory
    inside the checkout, and the child processes run one at a time."""

    def __init__(self, name: str, config: dict, work_dir: Path, deadline: float):
        self.spec = workloads.WORKLOADS[name]
        self.threads = self.spec["threads"]
        self.config = config
        self.work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_dir))
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.reference_digest = None
        self.repeats = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def child(self, extra: list[str], result: Path) -> tuple[dict | None, str | None]:
        """Start child.py, wait for it, return (its report, failure or None)."""
        timeout = self.deadline - _now()
        if timeout <= 0:
            return None, "benchmark deadline reached before the repeat started"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), "--spawned", repr(_now())] + extra
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None, f"child did not finish within {timeout:.0f} s"
        if proc.returncode != 0:
            return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        report = json.loads(result.read_text())
        if not Path(report["meanfield_file"]).resolve().is_relative_to(SRC.resolve()):
            return report, f"meanfield imported from {report['meanfield_file']}, not from {SRC}"
        return report, None

    def startup(self):
        self.child([], self.work / "startup.json")

    def repeat(self, traced: bool) -> dict:
        """One workload repeat; the returned sample lists its failures."""
        self.repeats += 1
        rep = self.work / f"r{self.repeats}"
        rep.mkdir()
        out = rep / "out"
        extra = ["--config", str(self.config_path), "--out", str(out),
                 "--threads", str(self.threads)]
        if traced:
            extra += ["--spans", str(rep / "spans.npz"), "--run-id", str(self.repeats)]
        report, failure = self.child(extra, rep / "result.json")
        sample = {"traced": traced, "failures": [failure] if failure else []}
        if report is not None and "rc" in report:
            sample.update(report)
            sample["failures"] += self._check(sample, out)
            if traced and not sample["failures"]:
                from tracer import layer_metrics

                sample["layers"] = layer_metrics(rep / "spans.npz")
        shutil.rmtree(rep, ignore_errors=True)
        return sample

    def _check(self, sample: dict, out: Path) -> list[str]:
        failures = []
        if sample["rc"] != 0:
            failures.append(f"meanfield run exited {sample['rc']}")
        try:
            passed = json.loads((out / "summary.json").read_text()).get("pass")
        except (OSError, ValueError) as err:
            passed = f"unreadable ({err})"
        if passed is not True:
            failures.append(f"summary.json pass is {passed}")
        digest, nbytes = digest_dir(out)
        sample["artifact_bytes"] = nbytes
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            failures.append("artifact bytes differ from the first repeat")
        return failures


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def machine_record(numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source, _ = digest_dir(SRC / "meanfield")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"commit": commit, "source_sha256": source, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy_version}


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[dict], dict, dict]:
    """Run repeats until ``seconds`` have passed (traced and untraced in turn
    when ``trace``); return the samples, the metrics, and the medians of the
    raw times."""
    bench.startup()  # not counted: fills the bytecode and page caches
    kinds = (False, True) if trace else (False,)
    samples = []
    calibrator = subprocess.Popen([sys.executable, str(HERE / "calibration.py"), str(bench.threads),
                                   str(int(bench.spec["calibrate_arrays"]))],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def calibrate() -> float:
        calibrator.stdin.write("\n")
        calibrator.stdin.flush()
        return float(calibrator.stdout.readline())

    try:
        before = calibrate()
        end = _now() + seconds
        while True:
            for traced in kinds:
                sample = bench.repeat(traced)
                after = calibrate()
                sample["calibration_s"] = (before + after) / 2.0
                before = after
                samples.append(sample)
            if _now() >= end:
                break
    finally:
        calibrator.stdin.close()
        try:
            calibrator.wait(timeout=30)
        except subprocess.TimeoutExpired:
            calibrator.kill()
            calibrator.wait()

    traced_layers = [s["layers"] for s in samples if "layers" in s]
    for s in samples:
        moved = [k for k in DETERMINISTIC if k in s.get("layers", {})
                 and s["layers"][k] != traced_layers[0][k]]
        if moved:
            s["failures"].append(f"deterministic counts differ from the first traced repeat: {moved}")

    def stat(group, key):
        values = [g[key] for g in group if key in g]
        return (statistics.median(values) if values else None), values

    def scaled(group, key):
        """Total ``key`` times CALIBRATION_REF_S over total calibration time;
        the values listed are the repeats' own scaled times."""
        done = [g for g in group if key in g and "calibration_s" in g]
        if not done:
            return None, []
        total = sum(g[key] for g in done) / sum(g["calibration_s"] for g in done)
        return total * CALIBRATION_REF_S, [g[key] / g["calibration_s"] * CALIBRATION_REF_S for g in done]

    plain = [s for s in samples if not s["traced"]]
    wall = scaled(plain, "wall_s")
    raw = {key: stat(plain, key) for key in ("wall_s", "setup_s", "calibration_s")}
    if not trace:
        work = workloads.nominal_work(bench.config)
        metrics = {"scaled_wall_s": wall,
                   "scaled_work_per_s": (work / wall[0] if wall[0] else None, []),
                   "setup_s": scaled(plain, "setup_s"),
                   "peak_rss_mb": stat(plain, "peak_rss_mb")}
    else:
        metrics = {key: stat(traced_layers, key) for key in PER_LAYER}
        metrics["cli.cpu_s"] = stat(plain, "cpu_s")
        metrics["cli.artifact_bytes"] = stat(plain, "artifact_bytes")
        traced_wall = scaled([s for s in samples if s["traced"]], "wall_s")[0]
        overhead = traced_wall - wall[0] if traced_wall is not None and wall[0] is not None else None
        metrics["trace.overhead_s"] = (overhead, [])
    return samples, metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = _now()
    if not (SRC / "meanfield" / "cli.py").is_file():
        print(f"perfbench: no meanfield source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, workloads.config(args.workload, args.seed), WORK,
                  started + DEADLINE_S)
    try:
        samples, metrics, raw = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()

    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for s in samples if s["failures"])
    numpy_version = next((s["numpy"] for s in samples if "numpy" in s), None)
    record = machine_record(numpy_version)
    record.update(workload=args.workload, seed=bench.config["seed"], trace=args.trace,
                  threads=bench.threads, repeats=len(samples),
                  nominal_work=workloads.nominal_work(bench.config),
                  work_unit=bench.spec["work_unit"])
    print("record " + json.dumps(record, sort_keys=True))
    for s in samples:
        for failure in s["failures"]:
            print(f"perfbench: repeat failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {bench.config['seed']}: {len(samples)} repeats, {failed} failed "
          f"(fail_fraction {failed / max(1, len(samples)):.4g})")
    for key, (value, values) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:28s} {shown:>12s} {units[key]:6s} {_spread(values) if values else ''}")
    for key, (value, values) in raw.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  raw {key:24s} {shown:>12s} {'s':6s} {_spread(values) if values else ''}")

    missing = [k for k, (v, _) in metrics.items() if v is None]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(1, len(samples)),
        "failed": failed if samples else 1,
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": units[k]}
                    for k, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
