"""Config-driven experiment runner producing deterministic, seed-stamped
artifacts.

A run reads a single JSON config, validates it, and writes three kinds of
files into the output directory: ``manifest.json`` (the resolved config,
seed and tool version), per-run CSV tables, and ``summary.json`` holding
the computed metrics plus a pass/fail verdict for any thresholds declared
in the config. Exit codes: 0 success, 2 validation error, 3 runtime
failure, 4 a declared threshold failed.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .core import Ensemble, RngStream, TimeGrid, write_csv
from .jump import MAX_BANDWIDTH, MIN_BANDWIDTH, CmcConfig, cmc_run
from .mckean import (
    CouplingReport,
    coupling_replica_mse,
    kuramoto_model,
    mean_field_ou_model,
    ou_reference,
    simulate,
)
from .metrics import fit_rate, kuramoto_order_parameter, wasserstein_1d
from .boltzmann import CellGrid, bird_simulate, exact_batch, maxwell_cutoff_model
from .boltzmann import exact_simulate  # noqa: F401  unused here: perfbench/tracer.py wraps it by this name
from .optimizer import CboConfig, EksConfig, cbo_minimize, eks_sample, posterior_gaussian_oracle, spd_matrix
from .schemes1d import CdfScheme, bossy_talay_run, l1_cdf_error, write_cdf_checkpoints_csv

_SWEEP_KINDS = ("coupling_rate", "bossy_talay")  # fit a rate over n_list, running replicas at each size

_OBJECTIVES = {
    "quadratic": lambda target: (lambda x: np.sum((x - np.asarray(target)) ** 2, axis=-1)),
    "rastrigin": lambda target: (
        lambda x: 10.0 * x.shape[-1] + np.sum(x ** 2 - 10.0 * np.cos(2.0 * math.pi * x), axis=-1)
    ),
}

# every param each kind's runner reads: name -> (check, bound, default), where a
# default of None marks a required param. The checks: "count", an integer >=
# bound; "real>" and "real>=", a finite number > or >= bound (a (low, high)
# bound: > or >= low and <= high); "choice", one of bound; "bool"; "spd", a
# finite symmetric positive definite matrix; "array", finite floats; and
# "cases", a non-empty list of Kuramoto cases
_PARAMS = {
    "coupling_rate": {"lambda": ("real>=", -math.inf, 1.0), "kappa": ("real>=", -math.inf, 1.0),
                      "m0": ("real>=", -math.inf, 1.0), "v0": ("real>=", 0, 1.0)},
    "dsmc_compare": {"d": ("count", 2, 2), "pairs": ("count", 1, 5), "bird_dt": ("real>", 0, 0.1)},
    "cbo": {"objective": ("choice", tuple(_OBJECTIVES), "quadratic"), "dim": ("count", 1, 2),
            "target": ("array", None, 0.0),  # one number stands for every coordinate
            "seeds": ("count", 1, 20), "tol": ("real>=", 0, 1e-2), "init_width": ("real>=", 0, 1.0),
            "alpha": ("real>", 0, 30.0), "lambda": ("real>", 0, 1.0), "sigma": ("real>=", 0, 0.5),
            "dt": ("real>", 0, 0.01), "steps": ("count", 1, 1000), "eps_heaviside": ("real>=", 0, 0.0)},
    "eks": {"G": ("array", None, None), "y": ("array", None, None), "Gamma": ("spd", None, None),
            "Gamma0": ("spd", None, None), "dt": ("real>", 0, 0.02), "steps": ("count", 1, 500),
            "derivative_free": ("bool", None, False)},
    "cmc": {"h": ("real>=", (MIN_BANDWIDTH, MAX_BANDWIDTH), 0.5), "steps": ("count", 1, 2000),
            "burn_in": ("count", 0, 500), "dim": ("count", 1, 1)},
    "bossy_talay": {"sigma": ("real>", 0, 1.0), "grid_points": ("count", 2, 2001)},
    "kuramoto_sweep": {"seeds": ("count", 1, 20), "cases": ("cases", None, None)},
}


# every top-level config key, and the kinds whose runner reads the time grid
_CONFIG_KEYS = ("kind", "seed", "n_list", "time", "replicas", "params", "thresholds", "out_dir")
_TIMED_KINDS = ("coupling_rate", "dsmc_compare", "bossy_talay", "kuramoto_sweep")
_TIME_KEYS = ("t0", "t_end", "dt")


def _params(kind: str, given: dict) -> dict:
    """Every param of ``kind``: its value in ``given``, else its _PARAMS default."""
    return {name: given.get(name, default) for name, (_, _, default) in _PARAMS[kind].items()}


def validate(config: dict) -> list[str]:
    """Schema checks only; runs no simulation. Returns violation strings
    naming the offending field."""
    if not isinstance(config, dict):
        return [f"config: must be a JSON object, got {type(config).__name__}"]
    v = [f"{key}: not a config key; those are {', '.join(_CONFIG_KEYS)}"
         for key in config if key not in _CONFIG_KEYS]
    kind = config.get("kind")
    if kind not in KINDS:
        v.append(f"kind: must be one of {KINDS}, got {kind!r}")
    if "seed" not in config:
        v.append("seed: required, never auto-generated")
    elif not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        v.append("seed: must be an integer")
    n_list = config.get("n_list")
    if not isinstance(n_list, list) or not n_list:
        v.append("n_list: must be a non-empty list")
    else:
        if not all(_is_count(n, 1) for n in n_list):
            v.append("n_list: entries must be positive integers")
        elif sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
            v.append("n_list: must be strictly ascending")
        elif kind in _SWEEP_KINDS and len(n_list) < 3:
            v.append("n_list: rate-fitting experiments need at least 3 sizes")
        elif kind in KINDS and kind not in _SWEEP_KINDS and len(n_list) != 1:
            v.append(f"n_list: the {kind} runner runs one size; give exactly one")
        elif kind == "dsmc_compare" and n_list[0] < 2:
            v.append(f"n_list: the dsmc_compare runner collides pairs of particles; it needs at least 2, "
                     f"got {n_list[0]}")
    time = config.get("time")
    grid = None
    if kind in _TIMED_KINDS:
        if not isinstance(time, dict):
            v.append("time: required object {t0, t_end, dt}")
        else:
            v += [f"time.{key}: not a time key; those are {', '.join(_TIME_KEYS)}"
                  for key in time if key not in _TIME_KEYS]
            try:
                grid = TimeGrid(time.get("t0", 0.0), time["t_end"], time["dt"])
            except (KeyError, ValueError, TypeError) as err:
                v.append(f"time: {err}")
    elif "time" in config and kind in KINDS:
        v.append(f"time: the {kind} runner reads no time grid; remove it")
    if grid is not None and kind in ("dsmc_compare", "bossy_talay") and grid.t0 != 0:
        v.append(f"time.t0: the {kind} runner starts at 0 and would ignore t0, got {grid.t0!r}")
    if "replicas" in config and kind in KINDS and kind not in _SWEEP_KINDS:
        pairs = " (it runs params.pairs independent pairs)" if kind == "dsmc_compare" else ""
        v.append(f"replicas: the {kind} runner reads no replica count{pairs}; remove it")
    elif not _is_count(config.get("replicas", 1), 1):
        v.append(f"replicas: must be an integer >= 1, got {config['replicas']!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        v.append("params: must be an object")
        params = {}
    if kind in KINDS:
        table = _PARAMS[kind]
        v += [f"params.{name}: not a {kind} param; those are {', '.join(table)}"
              for name in params if name not in table]
        for name, (check, bound, default) in table.items():
            if default is None and params.get(name) is None:
                v.append(f"params.{name}: required")
            elif name in params:
                v += _param_errors(name, params[name], check, bound)
        p = _params(kind, params)
        if kind == "cmc" and _is_count(p["steps"], 1) and _is_count(p["burn_in"], 0) and p["burn_in"] >= p["steps"]:
            v.append(f"params.burn_in: must satisfy 0 <= burn_in < steps, got {p['burn_in']} with steps {p['steps']}")
        if kind == "cbo" and _is_count(p["dim"], 1) and not _param_errors("target", p["target"], "array", None):
            target = np.asarray(p["target"], dtype=float)
            if target.ndim > 1 or (target.ndim == 1 and target.size != p["dim"]):
                v.append(f"params.target: must be one number or dim = {p['dim']} numbers, got {p['target']!r}")
        if kind == "dsmc_compare" and grid is not None and _is_real(p["bird_dt"]) and p["bird_dt"] > grid.t_end:
            v.append(f"params.bird_dt: must be at most time.t_end = {grid.t_end!r}, got {p['bird_dt']!r}")
        if kind == "eks" and not any(item.startswith("params.") for item in v):
            try:
                _eks_config(p, 1)
            except ValueError as err:  # its message starts with the EksConfig field, G's being forward
                field = str(err).split()[0]
                v.append(f"params.{'G' if field == 'forward' else field}: {err}")
    thresholds = config.get("thresholds", {})
    if not isinstance(thresholds, dict):
        v.append(f"thresholds: must be an object, got {type(thresholds).__name__}")
        thresholds = {}
    keys = _RUNNERS[kind][1] if kind in KINDS else None
    for name, bound in thresholds.items():
        if not _is_bound(bound):
            v.append(f"thresholds.{name}: must be an object with any of min, max (numbers) and "
                     f"range (two numbers), got {bound!r}")
        elif keys is not None and name.split(".")[0] not in keys:
            v.append(f"thresholds.{name}: must start with a key of the {kind} summary: {', '.join(keys)}")
    return v


def _param_errors(name: str, value, check: str, bound) -> list[str]:
    """The violations of ``params.<name>`` by ``value`` under its _PARAMS check."""
    if check == "cases":
        if not isinstance(value, list) or not value:
            return ["params.cases: must be a non-empty list"]
        errors = []
        for i, case in enumerate(value):
            if not isinstance(case, dict):
                errors.append(f"params.cases[{i}]: must be an object, got {case!r}")
                continue
            errors += _param_errors(f"cases[{i}].coupling", case.get("coupling"), "real>=", -math.inf)
            errors += _param_errors(f"cases[{i}].init", case.get("init"), "choice", ("concentrated", "uniform"))
        return errors
    if check in ("spd", "array"):
        try:
            arr = spd_matrix(name, value) if check == "spd" else np.asarray(value, dtype=float)
        except (TypeError, ValueError) as err:
            return [f"params.{name}: {err}"]
        return [] if np.all(np.isfinite(arr)) else [f"params.{name}: must hold finite numbers only, got {value!r}"]
    if check == "count":
        ok, want = _is_count(value, bound), f"an integer >= {bound}"
    elif check.startswith("real"):
        op = check[len("real"):]
        low, high = bound if isinstance(bound, tuple) else (bound, math.inf)
        ok = (_is_real(value) and -math.inf < value < math.inf and value <= high
              and (value > low if op == ">" else value >= low))
        want = f"a finite number {op} {low}" + (f" and <= {high}" if high < math.inf else "")
    elif check == "choice":
        ok, want = value in bound, " or ".join(map(repr, bound))
    else:
        ok, want = isinstance(value, bool), "true or false"
    return [] if ok else [f"params.{name}: must be {want}, got {value!r}"]


def _is_count(x, low: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_bound(bound) -> bool:
    if not isinstance(bound, dict) or not set(bound) <= {"min", "max", "range"}:
        return False
    span = bound.get("range", [0.0, 0.0])
    return (isinstance(span, list) and len(span) == 2
            and all(_is_real(x) for x in (*span, bound.get("min", 0.0), bound.get("max", 0.0))))


def _map_replicas(fn, count: int, threads: int) -> list:
    """Evaluate fn(0..count-1) one after another, in index order. Each
    replica derives its own substream from its index. The replica loops
    hold the GIL, so a thread pool only added time; ``threads`` is unused."""
    # threads stays in the signature: perfbench/tracer.py wraps this function by it
    return [fn(r) for r in range(count)]


def _write_json(path: Path, payload: dict):
    """Write ``payload``, which holds only JSON types; a value json cannot
    encode raises before the file is created."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")


def _check_thresholds(summary: dict, thresholds: dict) -> bool:
    """Compare summary entries against declared bounds. Supported forms:
    {"name": {"min": a}}, {"name": {"max": b}} and {"name": {"range": [a, b]}}
    where name is a dotted path into the summary; a component that is a
    decimal index within a list's range indexes that list (``cases.0.r_median``).
    A name with no summary entry, or whose entry is not a number (a per-N
    table or a null, say), fails its check, with an error naming
    ``thresholds.<name>``."""
    checks = {}
    ok = True
    for name, bound in thresholds.items():
        value = summary
        try:
            for part in name.split("."):
                value = value[int(part) if isinstance(value, list) and part.isdecimal() else part]
        except (KeyError, TypeError, IndexError, ValueError):  # ValueError: more digits than int() reads
            value = None
        if not isinstance(value, numbers.Real):
            error = f"thresholds.{name}: the summary has no number at {name!r}"
            print(error, file=sys.stderr)
            checks[name] = {"value": None, "bound": bound, "pass": False, "error": error}
            ok = False
            continue
        passed = True
        if "min" in bound:
            passed = passed and value >= bound["min"]
        if "max" in bound:
            passed = passed and value <= bound["max"]
        if "range" in bound:
            lo, hi = bound["range"]
            passed = passed and lo <= value <= hi
        checks[name] = {"value": value, "bound": bound, "pass": passed}
        ok = ok and passed
    summary["checks"] = checks
    summary["pass"] = ok
    return ok


# ---------------------------------------------------------------------------
# Experiment kinds


def _run_coupling_rate(config, p: dict, base: RngStream, out: Path) -> dict:
    grid = TimeGrid(config["time"].get("t0", 0.0), config["time"]["t_end"], config["time"]["dt"])
    model = mean_field_ou_model(p["lambda"], p["kappa"])
    ref = ou_reference(p["lambda"], p["kappa"], p["m0"], p["v0"])
    ref.check_model(model)
    replicas = config.get("replicas", 1)
    sup_mse = {}
    for idx, n in enumerate(config["n_list"]):
        n_stream = base.substream(idx)
        # one call per replica, not simulate_synchronous_coupling's batches:
        # perfbench/tracer.py counts the McKean layer per coupling_replica_mse call
        rows = _map_replicas(
            lambda r: coupling_replica_mse(model, ref, n, grid, n_stream.substream(r)),
            replicas, 1,
        )
        report = CouplingReport(times=grid.times(), mse=np.mean(rows, axis=0), n=n, replicas=replicas)
        sup_mse[n] = report.sup_mse
        report.write_csv(out / f"coupling_N{n}.csv")
    fit = fit_rate(sup_mse)
    return {
        "sup_mse": {str(n): sup_mse[n] for n in sup_mse},
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
    }


def _run_dsmc_compare(config, p: dict, base: RngStream, out: Path) -> dict:
    n = config["n_list"][-1]
    t_end = config["time"]["t_end"]
    model = maxwell_cutoff_model(lambda th: np.ones_like(th) / math.pi, d=p["d"])
    grid = CellGrid.single_cell()
    time_grid = TimeGrid(0.0, t_end, p["bird_dt"])

    def run_pair(k):
        s = base.substream(k)
        init = Ensemble(s.substream(0).normal((n, p["d"])))
        # the three exact runs as one batch, so that each level pass serves all three
        (exact_a, exact_c, exact_d), exact_logs = exact_batch(model, np.broadcast_to(init.states, (3, n, p["d"])),
                                                              t_end, [s.substream(j) for j in (1, 3, 4)])
        bird_b, bird_log = bird_simulate(model, grid, init, time_grid, s.substream(2))
        cross = wasserstein_1d(exact_a[:, 0], bird_b.states[:, 0])
        self_dist = wasserstein_1d(exact_c[:, 0], exact_d[:, 0])
        return cross, self_dist, [log.accepted for log in exact_logs], bird_log.accepted

    results = _map_replicas(run_pair, p["pairs"], 1)
    cross, self_d, exact_accepted, bird_accepted = zip(*results)
    write_csv(out / "dsmc_pairs.csv", "pair,w1_cross,w1_self",
              ((k, c, s) for k, (c, s, *_) in enumerate(results)))
    mean_cross = float(np.mean(cross))
    mean_self = float(np.mean(self_d))
    return {
        "n": n,
        "w1_cross_mean": mean_cross,
        "w1_self_mean": mean_self,
        "ratio": mean_cross / mean_self if mean_self > 0 else None,  # null: strict JSON has no Infinity
        # the model has Lambda = M = 1: each run expects Lambda M (n - 1) t_end / 2 collisions
        "expected_collisions": (n - 1) * t_end / 2.0,
        "exact_accepted_mean": float(np.mean(exact_accepted)),
        "bird_accepted_mean": float(np.mean(bird_accepted)),
    }


def _run_cbo(config, p: dict, base: RngStream, out: Path) -> dict:
    cfg = CboConfig(
        objective=_OBJECTIVES[p["objective"]](p["target"]),
        alpha=p["alpha"],
        lambda_drift=p["lambda"],
        sigma_noise=p["sigma"],
        dt=p["dt"],
        steps=p["steps"],
        n=config["n_list"][-1],
        dim=p["dim"],
        eps_heaviside=p["eps_heaviside"],
        init=lambda n, d, rng: p["init_width"] * rng.normal((n, d)),
    )
    results = cbo_minimize(cfg, [base.substream(k) for k in range(p["seeds"])])
    dists = [float(np.linalg.norm(r.consensus - np.asarray(p["target"]))) for r in results]
    successes = int(sum(d <= p["tol"] for d in dists))
    write_csv(out / "cbo_seeds.csv", "seed,distance,success",
              ((k, d, int(d <= p["tol"])) for k, d in enumerate(dists)))
    trajectory_csv = out / "cbo_trajectory.csv"
    results[0].write_trajectory_csv(trajectory_csv)
    return {
        "objective": p["objective"],
        "seeds": p["seeds"],
        "successes": successes,
        "tolerance": p["tol"],
        "median_distance": float(np.median(dists)),
        "consensus": [float(x) for x in results[0].consensus],
        "objective_at_consensus": results[0].objective_at_consensus,
        "trajectory_csv": trajectory_csv.name,
    }


def _eks_config(p: dict, n: int) -> EksConfig:
    """The EksConfig of eks params ``p`` for ``n`` particles; a 1-D G is one row."""
    return EksConfig(forward=np.atleast_2d(np.asarray(p["G"], dtype=float)), Gamma=p["Gamma"],
                     Gamma0=p["Gamma0"], y=p["y"], n=n, dt=p["dt"], steps=p["steps"],
                     derivative_free=p["derivative_free"])


def _run_eks(config, p: dict, base: RngStream, out: Path) -> dict:
    cfg = _eks_config(p, config["n_list"][-1])
    e0 = Ensemble(base.substream(0).normal((cfg.n, cfg.forward.shape[1])))
    final = eks_sample(cfg, e0, base.substream(1))
    mean_oracle, cov_oracle = posterior_gaussian_oracle(cfg.forward, cfg.Gamma, cfg.Gamma0, cfg.y)
    mean_hat = final.states.mean(axis=0)
    centered = final.states - mean_hat
    cov_hat = centered.T @ centered / cfg.n
    std_scale = float(np.sqrt(np.max(np.diag(cov_oracle))))
    mean_err = float(np.linalg.norm(mean_hat - mean_oracle))
    cov_err = float(np.linalg.norm(cov_hat - cov_oracle) / np.linalg.norm(cov_oracle))
    write_csv(out / "eks_final.csv", ",".join(f"coord{k}" for k in range(final.dim)), final.states)
    return {
        "mean_error": mean_err,
        "mean_error_in_posterior_std": mean_err / std_scale,
        "cov_frobenius_rel_error": cov_err,
        "posterior_mean": [float(x) for x in mean_oracle],
    }


def _std_normal_log_density(x: np.ndarray) -> float:
    """-|x|^2 / 2 for one state row, equal bit for bit to
    ``-0.5 * float(np.sum(x ** 2))``. numpy adds fewer than 8 terms in
    order, as the loop does on Python floats without the array calls that
    cost most of the time on so short a row; from 8 terms up numpy sums
    pairwise, so np.sum stays."""
    if len(x) < 8:
        s = 0.0
        for v in x.tolist():
            s += v * v
        return -0.5 * s
    return -0.5 * float(np.sum(x * x))


def _run_cmc(config, p: dict, base: RngStream, out: Path) -> dict:
    n = config["n_list"][-1]
    cfg = CmcConfig(
        # one call per particle: perfbench/tracer.py counts them
        target_log_density=_std_normal_log_density,
        h=p["h"],
        n=n,
        steps=p["steps"],
        burn_in=p["burn_in"],
        dim=p["dim"],
    )
    e0 = Ensemble(base.substream(0).normal((n, cfg.dim)))
    result = cmc_run(cfg, e0, base.substream(1))
    result.write_trace_csv(out / "cmc_accept_trace.csv")
    pooled = result.samples
    return {
        "pooled_mean": float(pooled.mean()),
        "pooled_variance": float(pooled.var()),
        "mean_accept_fraction": float(result.accept_trace[cfg.burn_in:].mean()),
    }


def _run_bossy_talay(config, p: dict, base: RngStream, out: Path) -> dict:
    sigma = p["sigma"]
    t_end = config["time"]["t_end"]
    dt = config["time"]["dt"]
    replicas = config.get("replicas", 1)
    span = 6.0 * sigma * math.sqrt(t_end)
    grid = np.linspace(-span, span, p["grid_points"])
    exact_cdf = 0.5 * (1.0 + np.vectorize(math.erf)(grid / (sigma * math.sqrt(2.0 * t_end))))

    errors = {}
    for idx, n in enumerate(config["n_list"]):
        scheme = CdfScheme(k1=0.0, k2=sigma, n=n, dt=dt, T=t_end,
                           initial=lambda m, rng: np.zeros(m))
        runs = bossy_talay_run(scheme, [base.substream(idx).substream(r) for r in range(replicas)],
                               checkpoints=[t_end / 2.0, t_end])
        errors[n] = float(np.mean([l1_cdf_error(cdfs[-1], exact_cdf, grid) for cdfs in runs]))
    write_csv(out / "bossy_rate.csv", "n,mean_l1_error", errors.items())
    # the checkpoint CDFs of replica 0 of the last, largest N
    write_cdf_checkpoints_csv(runs[0], out / "bossy_checkpoints.csv")
    fit = fit_rate(errors)
    return {
        "errors": {str(n): errors[n] for n in errors},
        "slope": fit.slope,
        "r2": fit.r2,
    }


def _run_kuramoto_sweep(config, p: dict, base: RngStream, out: Path) -> dict:
    n = config["n_list"][-1]
    grid = TimeGrid(config["time"].get("t0", 0.0), config["time"]["t_end"], config["time"]["dt"])
    cases_out = []
    rows = []
    for c_idx, case in enumerate(p["cases"]):
        streams = [base.substream(c_idx).substream(k) for k in range(p["seeds"])]
        if case["init"] == "concentrated":
            theta0 = np.zeros((p["seeds"], n, 1))
        else:
            theta0 = np.stack([s.substream(0).uniform((n, 1)) * 2.0 * math.pi for s in streams])
        final = simulate(kuramoto_model(case["coupling"]), theta0, grid, [s.substream(1) for s in streams])
        r_vals = [kuramoto_order_parameter(theta[:, 0]) for theta in final]
        for k, r in enumerate(r_vals):
            rows.append((c_idx, float(case["coupling"]), case["init"], k, float(r)))
        cases_out.append({
            "coupling": case["coupling"],
            "init": case["init"],
            "r_median": float(np.median(r_vals)),
            "r_min": float(np.min(r_vals)),
            "r_max": float(np.max(r_vals)),
            "count_ge_0.8": int(sum(r >= 0.8 for r in r_vals)),
            "count_le_0.3": int(sum(r <= 0.3 for r in r_vals)),
        })
    write_csv(out / "kuramoto_r.csv", "case,coupling,init,seed,r", rows)
    return {"cases": cases_out}


# each kind's runner and the keys of its summary, one of which starts every threshold name
_RUNNERS = {
    "coupling_rate": (_run_coupling_rate, ("kind", "sup_mse", "slope", "intercept", "r2")),
    "dsmc_compare": (_run_dsmc_compare, ("kind", "n", "w1_cross_mean", "w1_self_mean", "ratio", "expected_collisions",
                                         "exact_accepted_mean", "bird_accepted_mean")),
    "cbo": (_run_cbo, ("kind", "objective", "seeds", "successes", "tolerance", "median_distance",
                       "consensus", "objective_at_consensus", "trajectory_csv")),
    "eks": (_run_eks, ("kind", "mean_error", "mean_error_in_posterior_std", "cov_frobenius_rel_error",
                       "posterior_mean")),
    "cmc": (_run_cmc, ("kind", "pooled_mean", "pooled_variance", "mean_accept_fraction")),
    "bossy_talay": (_run_bossy_talay, ("kind", "errors", "slope", "r2")),
    "kuramoto_sweep": (_run_kuramoto_sweep, ("kind", "cases")),
}
KINDS = tuple(_RUNNERS)


def _valid_config(path, report):
    """The config at ``path`` if it parses and validates; otherwise None,
    after printing why it cannot be read or passing each violation to ``report``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return None
    violations = validate(config)
    for item in violations:
        report(item)
    return None if violations else config


def run(config_path, threads: int = 1, out_dir=None) -> int:
    """Execute a config file; returns the process exit code. Each runner
    gets the config, its kind's params, the base stream of the config's
    seed and the output directory; ``threads`` is accepted for
    compatibility and changes nothing."""
    config = _valid_config(config_path, lambda item: print(f"invalid config: {item}", file=sys.stderr))
    if config is None:
        return 2
    out = Path(out_dir or config.get("out_dir") or Path(config_path).with_suffix("")).absolute()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {"config": config, "seed": config["seed"], "tool_version": __version__})
    kind = config["kind"]
    try:
        p = _params(kind, config.get("params", {}))
        summary = {"kind": kind, **_RUNNERS[kind][0](config, p, RngStream(config["seed"]), out)}
        ok = _check_thresholds(summary, config.get("thresholds", {}))
        _write_json(out / "summary.json", summary)
    except Exception:
        traceback.print_exc()
        return 3
    print(f"{kind}: {'pass' if ok else 'THRESHOLD FAIL'} -> {out / 'summary.json'}")
    return 0 if ok else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="meanfield",
                                     description="mean-field particle experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="validate and execute a config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; replicas run one after another in index order")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_val = sub.add_parser("validate", help="schema-check a config without running it")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "validate":
        return 0 if _valid_config(args.config, print) is not None else 2
    return run(args.config, threads=args.threads, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
