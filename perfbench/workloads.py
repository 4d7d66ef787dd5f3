"""Pinned workloads of the meanfield benchmark.

Each workload is one ``meanfield run`` config whose work sits mostly in one
layer: ``coupling`` in the per-step interpreter overhead of ``mckean`` and
``core``, ``dsmc`` in the per-event scalar loop of ``boltzmann`` (and the
CLI thread pool), ``cmc`` in the dense O(N^2) array work of ``jump``. A
change to one of those layers has one workload that shows it and two that
must not move.

``calibrate_arrays`` is set for the workload whose time goes mostly into
N x N arrays; its calibration then works on such arrays (``calibration.py``).

The benchmark's ``--seed`` becomes the config's ``seed``; the program sees
nothing but the generated config file.
"""

from __future__ import annotations

import copy

_OU = {"lambda": 1.0, "kappa": 1.0, "m0": 1.0, "v0": 1.0}

WORKLOADS = {
    "coupling": {
        "default_seed": 42,
        "threads": 1,
        "calibrate_arrays": False,
        "work_unit": "particle-steps",
        "why": "per-step interpreter overhead in mckean and core: tiny arrays, "
               "no pairwise or collision code, no thread pool",
        "config": {
            "kind": "coupling_rate",
            "n_list": [50, 100, 200, 400, 800],
            "replicas": 64,
            "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.01},
            "params": _OU,
            "thresholds": {"slope": {"range": [-1.3, -0.7]}, "r2": {"min": 0.9}},
        },
    },
    "dsmc": {
        "default_seed": 99,
        "threads": 2,
        "calibrate_arrays": False,
        "work_unit": "proposals",
        "why": "per-event scalar loop in boltzmann (scalar RNG draws, kernel "
               "calls, EventLog growth); the only workload on the CLI thread pool",
        "config": {
            "kind": "dsmc_compare",
            "n_list": [2000],
            "time": {"t0": 0.0, "t_end": 2.0, "dt": 0.1},
            "params": {"d": 2, "bird_dt": 0.1, "pairs": 4},
            "thresholds": {"ratio": {"max": 3.0}},
        },
    },
    "cmc": {
        "default_seed": 8,
        "threads": 1,
        "calibrate_arrays": True,
        "work_unit": "particle-sweeps",
        "why": "dense O(N^2) mixture evaluation in jump: 8 MB N x N temporaries "
               "above L2, plus the per-particle Python target loop",
        "config": {
            "kind": "cmc",
            "n_list": [1000],
            # burn_in < steps: with burn_in == steps the run reports NaN moments
            "params": {"h": 0.5, "steps": 80, "burn_in": 30},
            "thresholds": {"pooled_mean": {"range": [-0.05, 0.05]},
                           "pooled_variance": {"range": [0.9, 1.1]}},
        },
    },
}


def config(name: str, seed: int | None = None) -> dict:
    """The CLI config of a workload at ``seed`` (the workload default if None)."""
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    cfg["seed"] = spec["default_seed"] if seed is None else int(seed)
    return cfg


def nominal_work(cfg: dict) -> float:
    """Fixed work of a config, in its workload's ``work_unit``.

    coupling_rate: interacting particle-steps, sum(n) * replicas * steps.
    dsmc_compare: expected collision proposals, pairs * 4 runs * Lambda (N-1) T / 2,
    with Lambda = 1 for the unit-mass deflection density the CLI uses.
    cmc: particle-sweeps, n * steps.
    """
    kind = cfg["kind"]
    if kind == "coupling_rate":
        t = cfg["time"]
        steps = max(1, round((t["t_end"] - t["t0"]) / t["dt"]))
        return float(sum(cfg["n_list"]) * cfg["replicas"] * steps)
    if kind == "dsmc_compare":
        n = cfg["n_list"][-1]
        return cfg["params"]["pairs"] * 4 * 1.0 * (n - 1) * cfg["time"]["t_end"] / 2.0
    return float(cfg["n_list"][-1] * cfg["params"]["steps"])  # cmc
