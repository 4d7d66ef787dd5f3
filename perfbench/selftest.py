"""Tests of the benchmark harness itself, on reduced configs (a few seconds).

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
the statistical thresholds are dropped because the configs are tiny.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "coupling": {
        "kind": "coupling_rate", "seed": 3, "n_list": [10, 20, 40], "replicas": 2,
        "time": {"t0": 0.0, "t_end": 0.05, "dt": 0.01},
        "params": {"lambda": 1.0, "kappa": 1.0, "m0": 1.0, "v0": 1.0},
    },
    "dsmc": {
        "kind": "dsmc_compare", "seed": 5, "n_list": [100],
        "time": {"t0": 0.0, "t_end": 0.5, "dt": 0.1},
        "params": {"d": 2, "bird_dt": 0.1, "pairs": 2},
    },
    "cmc": {"kind": "cmc", "seed": 7, "n_list": [50], "params": {"h": 0.5, "steps": 10, "burn_in": 5}},
}


def _bench(name, tmp_path, threads=None):
    b = bench.Bench(name, SMALL[name], tmp_path, bench._now() + 120.0)
    if threads is not None:
        b.threads = threads
    return b


def _traced(name, tmp_path, threads=None):
    sample = _bench(name, tmp_path, threads).repeat(traced=True)
    assert sample["failures"] == []
    return sample["layers"]


def test_coupling_counts_match_the_nominal_work(tmp_path):
    layers = _traced("coupling", tmp_path)
    cfg = SMALL["coupling"]
    assert layers["mckean.particle_steps"] == sum(cfg["n_list"]) * cfg["replicas"] * 5
    assert layers["mckean.particle_steps"] == workloads.nominal_work(cfg)
    assert layers["mckean.replica.calls"] == len(cfg["n_list"]) * cfg["replicas"]
    assert layers["boltzmann.events.proposed"] == 0 and layers["jump.sweeps"] == 0


def test_cmc_sweeps_equal_steps(tmp_path):
    layers = _traced("cmc", tmp_path)
    p, n = SMALL["cmc"]["params"], SMALL["cmc"]["n_list"][0]
    assert layers["jump.sweeps"] == p["steps"]
    assert layers["jump.mixture.pair_evals"] == 2 * n * n * p["steps"]
    assert layers["jump.target.calls"] == n * (p["steps"] + 1)  # initial states, then one per proposal
    assert 0.0 < layers["jump.accept_ratio"] <= 1.0


def test_dsmc_accepted_never_exceeds_proposed(tmp_path):
    layers = _traced("dsmc", tmp_path)
    assert 0 < layers["boltzmann.events.accepted"] <= layers["boltzmann.events.proposed"]
    assert layers["boltzmann.eventlog.entries"] == layers["boltzmann.events.proposed"]
    assert layers["boltzmann.eventlog.truncated"] == 0
    assert layers["cli.map.busy_s"] > 0 and layers["metrics.calls"] == 2 * SMALL["dsmc"]["params"]["pairs"]


def test_deterministic_counts_repeat_across_runs_and_thread_counts(tmp_path):
    keys = ("core.rng.calls", "boltzmann.events.proposed", "jump.target.calls")
    dsmc = [_traced("dsmc", tmp_path, threads) for threads in (2, 2, 1)]
    cmc = [_traced("cmc", tmp_path) for _ in range(2)]
    for runs in (dsmc, cmc):
        for later in runs[1:]:
            assert {k: later[k] for k in bench.DETERMINISTIC} == {k: runs[0][k] for k in bench.DETERMINISTIC}
    assert all(dsmc[0][k] > 0 for k in keys[:2]) and cmc[0]["jump.target.calls"] > 0


def test_tracing_leaves_the_artifacts_unchanged(tmp_path):
    b = _bench("dsmc", tmp_path)
    samples = [b.repeat(traced) for traced in (False, True, False)]
    assert [s["failures"] for s in samples] == [[], [], []]


def test_scaled_wall_is_the_raw_wall_over_the_calibration(tmp_path):
    _, metrics, raw = bench.measure(_bench("cmc", tmp_path), 0.0, trace=False)
    (wall,), (calibration,) = raw["wall_s"][1], raw["calibration_s"][1]
    assert calibration > 0
    scaled = wall * bench.CALIBRATION_REF_S / calibration
    assert metrics["scaled_wall_s"][0] == pytest.approx(scaled, rel=1e-12)


def test_self_times_partition_a_single_threaded_run(tmp_path):
    layers = _traced("coupling", tmp_path)
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total == pytest.approx(layers["cli.run.cpu_s"], rel=1e-9)


def test_self_times_under_two_threads_stay_within_the_process_cpu_time(tmp_path):
    sample = _bench("dsmc", tmp_path, threads=2).repeat(traced=True)
    assert sample["failures"] == []
    total = sum(sample["layers"][f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert 0.0 < total <= sample["cpu_s"] + 1e-3


def test_self_time_subtracts_only_children_on_the_same_thread():
    slot = 2 ** 32
    spans = np.array([
        # id, parent, name, start, end, cpu start, cpu end
        [0, -1, 0, 0.0, 10.0, 0.0, 0.5],                  # cli.map, waiting on the pool
        [slot, 0, 1, 1.0, 6.0, 0.0, 3.0],                 # replica on pool thread 1
        [2 * slot, 0, 1, 4.0, 8.0, 0.0, 2.5],             # replica on pool thread 2
        [2 * slot + 1, 2 * slot, 2, 5.0, 7.0, 1.0, 2.0],  # nested call inside the second replica
    ])
    assert tracer.self_times(spans).tolist() == [0.5, 3.0, 1.5, 1.0]


def _snapshot(modules):
    snap = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def test_untraced_run_leaves_every_meanfield_attribute_original(tmp_path):
    import meanfield.cli  # noqa: F401  (loads every submodule the CLI uses)

    modules = [m for k, m in sys.modules.items()
               if (k == "meanfield" or k.startswith("meanfield.")) and isinstance(m, types.ModuleType)]
    before = _snapshot(modules)
    cfg = tmp_path / "cmc.json"
    cfg.write_text(json.dumps(SMALL["cmc"]))
    assert child.main([str(tmp_path / "result.json"), "--spawned", str(time.monotonic()),
                       "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    after = _snapshot(modules)
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    assert json.loads((tmp_path / "result.json").read_text())["rc"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cmc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
