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
from .jump import CmcConfig, cmc_run
from .mckean import (
    CouplingReport,
    coupling_replica_mse,
    kuramoto_model,
    mean_field_ou_model,
    ou_reference,
    simulate,
)
from .metrics import fit_rate, kuramoto_order_parameter, wasserstein_1d
from .boltzmann import CellGrid, bird_simulate, exact_simulate, maxwell_cutoff_model
from .optimizer import CboConfig, EksConfig, cbo_minimize, eks_sample, posterior_gaussian_oracle, spd_matrix
from .schemes1d import CdfScheme, bossy_talay_run, l1_cdf_error, write_cdf_checkpoints_csv

KINDS = ("coupling_rate", "dsmc_compare", "cbo", "eks", "cmc", "bossy_talay", "kuramoto_sweep")

_SWEEP_KINDS = ("coupling_rate", "bossy_talay")  # fit a rate over n_list

_CMC_STEPS, _CMC_BURN_IN = 2000, 500  # cmc defaults for params.steps and params.burn_in


def validate(config: dict) -> list[str]:
    """Schema checks only; runs no simulation. Returns violation strings
    naming the offending field."""
    if not isinstance(config, dict):
        return [f"config: must be a JSON object, got {type(config).__name__}"]
    v = []
    kind = config.get("kind")
    if kind not in KINDS:
        v.append(f"kind: must be one of {KINDS}, got {kind!r}")
    if "seed" not in config:
        v.append("seed: required, never auto-generated")
    elif not isinstance(config["seed"], int):
        v.append("seed: must be an integer")
    n_list = config.get("n_list")
    if not isinstance(n_list, list) or not n_list:
        v.append("n_list: must be a non-empty list")
    else:
        if any((not isinstance(n, int)) or n < 1 for n in n_list):
            v.append("n_list: entries must be positive integers")
        elif sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
            v.append("n_list: must be strictly ascending")
        elif kind in _SWEEP_KINDS and len(n_list) < 3:
            v.append("n_list: rate-fitting experiments need at least 3 sizes")
    replicas = config.get("replicas", 1)
    if not isinstance(replicas, int) or replicas < 1:
        v.append("replicas: must be a positive integer")
    time = config.get("time")
    if kind in ("coupling_rate", "dsmc_compare", "bossy_talay", "kuramoto_sweep"):
        if not isinstance(time, dict):
            v.append("time: required object {t0, t_end, dt}")
        else:
            try:
                TimeGrid(time.get("t0", 0.0), time["t_end"], time["dt"])
            except (KeyError, ValueError, TypeError) as err:
                v.append(f"time: {err}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        v.append("params: must be an object")
        params = {}
    if kind == "eks":
        for name in ("Gamma", "Gamma0", "G", "y"):
            if params.get(name) is None:
                v.append(f"params.{name}: required")
                continue
            try:
                if name in ("G", "y"):
                    np.asarray(params[name], dtype=float)
                else:
                    spd_matrix(name, params[name])
            except (TypeError, ValueError) as err:
                v.append(f"params.{name}: {err}")
    if kind == "cmc":
        steps, burn_in = params.get("steps", _CMC_STEPS), params.get("burn_in", _CMC_BURN_IN)
        if isinstance(steps, int) and isinstance(burn_in, int) and not 0 <= burn_in < steps:
            v.append(f"params.burn_in: must satisfy 0 <= burn_in < steps, got {burn_in} with steps {steps}")
    if kind == "cbo" and params.get("objective") not in ("quadratic", "rastrigin", None):
        v.append("params.objective: must be 'quadratic' or 'rastrigin'")
    if kind == "kuramoto_sweep":
        cases = params.get("cases", [])
        if not isinstance(cases, list):
            v.append("params.cases: must be a list")
            cases = []
        for i, case in enumerate(cases):
            if not isinstance(case, dict):
                v.append(f"params.cases[{i}]: must be an object, got {case!r}")
                continue
            if not _is_real(case.get("coupling")):
                v.append(f"params.cases[{i}].coupling: must be a number, got {case.get('coupling')!r}")
            if case.get("init") not in ("concentrated", "uniform"):
                v.append(f"params.cases[{i}].init: must be 'concentrated' or 'uniform'")
    # a threshold name with no summary entry is left to the run, which fails that check
    thresholds = config.get("thresholds", {})
    if not isinstance(thresholds, dict):
        v.append(f"thresholds: must be an object, got {type(thresholds).__name__}")
    else:
        v.extend(f"thresholds.{name}: must be an object with any of min, max (numbers) and "
                 f"range (two numbers), got {bound!r}"
                 for name, bound in thresholds.items() if not _is_bound(bound))
    return v


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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(x) for k, x in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: Path, payload: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_thresholds(summary: dict, thresholds: dict) -> bool:
    """Compare summary entries against declared bounds. Supported forms:
    {"name": {"min": a}}, {"name": {"max": b}} and {"name": {"range": [a, b]}}
    where name is a dotted path into the summary. A name with no summary
    entry, or whose entry is not a number (a per-N table, say), fails its
    check, with an error naming ``thresholds.<name>``."""
    checks = {}
    ok = True
    for name, bound in thresholds.items():
        value = summary
        try:
            for part in name.split("."):
                value = value[part]
        except (KeyError, TypeError):
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


def _run_coupling_rate(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    lam, kappa = p.get("lambda", 1.0), p.get("kappa", 1.0)
    m0, v0 = p.get("m0", 1.0), p.get("v0", 1.0)
    grid = TimeGrid(config["time"].get("t0", 0.0), config["time"]["t_end"], config["time"]["dt"])
    model = mean_field_ou_model(lam, kappa)
    ref = ou_reference(lam, kappa, m0, v0)
    ref.check_model(model)
    replicas = config.get("replicas", 1)
    base = RngStream(config["seed"])
    sup_mse = {}
    for idx, n in enumerate(config["n_list"]):
        n_stream = base.substream(idx)
        # one call per replica, not simulate_synchronous_coupling's batches:
        # perfbench/tracer.py counts the McKean layer per coupling_replica_mse call
        rows = _map_replicas(
            lambda r: coupling_replica_mse(model, ref, n, grid, n_stream.substream(r)),
            replicas, threads,
        )
        report = CouplingReport(times=grid.times(), mse=np.mean(rows, axis=0), n=n, replicas=replicas)
        sup_mse[n] = report.sup_mse
        report.write_csv(out / f"coupling_N{n}.csv")
    fit = fit_rate(sup_mse)
    return {
        "kind": "coupling_rate",
        "sup_mse": {str(n): sup_mse[n] for n in sup_mse},
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r2,
    }


def _run_dsmc_compare(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    n = config["n_list"][-1]
    d = p.get("d", 2)
    pairs = p.get("pairs", 5)
    bird_dt = p.get("bird_dt", 0.1)
    t_end = config["time"]["t_end"]
    model = maxwell_cutoff_model(lambda th: np.ones_like(th) / math.pi, d=d)
    base = RngStream(config["seed"])
    grid = CellGrid.single_cell()
    time_grid = TimeGrid(0.0, t_end, bird_dt)

    def run_pair(k):
        s = base.substream(k)
        init = s.substream(0).normal((n, d))
        exact_a, _ = exact_simulate(model, Ensemble(init), t_end, s.substream(1))
        bird_b, _ = bird_simulate(model, grid, Ensemble(init), time_grid, s.substream(2))
        exact_c, _ = exact_simulate(model, Ensemble(init), t_end, s.substream(3))
        exact_d, _ = exact_simulate(model, Ensemble(init), t_end, s.substream(4))
        cross = wasserstein_1d(exact_a.states[:, 0], bird_b.states[:, 0])
        self_dist = wasserstein_1d(exact_c.states[:, 0], exact_d.states[:, 0])
        return cross, self_dist

    results = _map_replicas(run_pair, pairs, threads)
    cross = [c for c, _ in results]
    self_d = [s for _, s in results]
    write_csv(out / "dsmc_pairs.csv", "pair,w1_cross,w1_self",
              ((k, c, s) for k, (c, s) in enumerate(results)))
    mean_cross = float(np.mean(cross))
    mean_self = float(np.mean(self_d))
    return {
        "kind": "dsmc_compare",
        "n": n,
        "w1_cross_mean": mean_cross,
        "w1_self_mean": mean_self,
        "ratio": mean_cross / mean_self if mean_self > 0 else math.inf,
    }


_OBJECTIVES = {
    "quadratic": lambda target: (
        lambda x: np.sum((np.atleast_2d(x) - np.asarray(target)) ** 2, axis=1)
    ),
    "rastrigin": lambda target: (
        lambda x: 10.0 * np.atleast_2d(x).shape[1]
        + np.sum(np.atleast_2d(x) ** 2 - 10.0 * np.cos(2.0 * math.pi * np.atleast_2d(x)), axis=1)
    ),
}


def _run_cbo(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    name = p.get("objective", "quadratic")
    dim = p.get("dim", 2)
    target = p.get("target", [0.0] * dim)
    objective = _OBJECTIVES[name](target)
    seeds = p.get("seeds", 20)
    tol = p.get("tol", 1e-2)
    init_width = p.get("init_width", 1.0)
    cfg_kwargs = dict(
        objective=objective,
        alpha=p.get("alpha", 30.0),
        lambda_drift=p.get("lambda", 1.0),
        sigma_noise=p.get("sigma", 0.5),
        dt=p.get("dt", 0.01),
        steps=p.get("steps", 1000),
        n=config["n_list"][-1],
        dim=dim,
        eps_heaviside=p.get("eps_heaviside", 0.0),
        init=lambda n, d, rng: init_width * rng.normal((n, d)),
    )
    base = RngStream(config["seed"])

    def run_seed(k):
        result = cbo_minimize(CboConfig(**cfg_kwargs), base.substream(k))
        dist = float(np.linalg.norm(result.consensus - np.asarray(target)))
        return dist, result

    results = _map_replicas(run_seed, seeds, threads)
    dists = [d for d, _ in results]
    successes = int(sum(d <= tol for d in dists))
    write_csv(out / "cbo_seeds.csv", "seed,distance,success",
              ((k, d, int(d <= tol)) for k, d in enumerate(dists)))
    trajectory_csv = out / "cbo_trajectory.csv"
    results[0][1].write_trajectory_csv(trajectory_csv)
    return {
        "kind": "cbo",
        "objective": name,
        "seeds": seeds,
        "successes": successes,
        "tolerance": tol,
        "median_distance": float(np.median(dists)),
        "consensus": [float(x) for x in results[0][1].consensus],
        "objective_at_consensus": results[0][1].objective_at_consensus,
        "trajectory_csv": trajectory_csv.name,
    }


def _run_eks(config, out: Path, threads: int) -> dict:
    p = config["params"]
    G = np.atleast_2d(np.asarray(p["G"], dtype=float))
    cfg = EksConfig(
        forward=G,
        Gamma=p["Gamma"],
        Gamma0=p["Gamma0"],
        y=p["y"],
        n=config["n_list"][-1],
        dt=p.get("dt", 0.02),
        steps=p.get("steps", 500),
        derivative_free=p.get("derivative_free", False),
    )
    base = RngStream(config["seed"])
    e0 = Ensemble(base.substream(0).normal((cfg.n, G.shape[1])))
    final = eks_sample(cfg, e0, base.substream(1))
    mean_oracle, cov_oracle = posterior_gaussian_oracle(G, cfg.Gamma, cfg.Gamma0, cfg.y)
    mean_hat = final.states.mean(axis=0)
    centered = final.states - mean_hat
    cov_hat = centered.T @ centered / cfg.n
    std_scale = float(np.sqrt(np.max(np.diag(cov_oracle))))
    mean_err = float(np.linalg.norm(mean_hat - mean_oracle))
    cov_err = float(np.linalg.norm(cov_hat - cov_oracle) / np.linalg.norm(cov_oracle))
    write_csv(out / "eks_final.csv", ",".join(f"coord{k}" for k in range(final.dim)), final.states)
    return {
        "kind": "eks",
        "mean_error": mean_err,
        "mean_error_in_posterior_std": mean_err / std_scale,
        "cov_frobenius_rel_error": cov_err,
        "posterior_mean": [float(x) for x in mean_oracle],
    }


def _run_cmc(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    n = config["n_list"][-1]
    cfg = CmcConfig(
        target_log_density=lambda x: -0.5 * float(np.sum(np.asarray(x) ** 2)),
        h=p.get("h", 0.5),
        n=n,
        steps=p.get("steps", _CMC_STEPS),
        burn_in=p.get("burn_in", _CMC_BURN_IN),
        dim=p.get("dim", 1),
    )
    base = RngStream(config["seed"])
    e0 = Ensemble(base.substream(0).normal((n, cfg.dim)))
    result = cmc_run(cfg, e0, base.substream(1))
    result.write_trace_csv(out / "cmc_accept_trace.csv")
    pooled = result.samples
    return {
        "kind": "cmc",
        "pooled_mean": float(pooled.mean()),
        "pooled_variance": float(pooled.var()),
        "mean_accept_fraction": float(result.accept_trace[cfg.burn_in:].mean()),
    }


def _run_bossy_talay(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    sigma = p.get("sigma", 1.0)
    t_end = config["time"]["t_end"]
    dt = config["time"]["dt"]
    replicas = config.get("replicas", 1)
    base = RngStream(config["seed"])
    span = 6.0 * sigma * math.sqrt(t_end)
    grid = np.linspace(-span, span, p.get("grid_points", 2001))

    def exact_cdf(x):
        return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x) / (sigma * math.sqrt(2.0 * t_end))))

    errors = {}
    rows = []
    for idx, n in enumerate(config["n_list"]):
        scheme = CdfScheme(k1=0.0, k2=sigma, n=n, dt=dt, T=t_end,
                           initial=lambda m, rng: np.zeros(m))
        n_stream = base.substream(idx)
        errs = _map_replicas(
            lambda r: l1_cdf_error(bossy_talay_run(scheme, n_stream.substream(r))[-1], exact_cdf, grid),
            replicas, threads,
        )
        errors[n] = float(np.mean(errs))
        rows.append((n, errors[n]))
    write_csv(out / "bossy_rate.csv", "n,mean_l1_error", rows)
    # checkpoint CDFs for one representative replica at the largest size
    largest = CdfScheme(k1=0.0, k2=sigma, n=config["n_list"][-1], dt=dt, T=t_end,
                        initial=lambda m, rng: np.zeros(m))
    checkpoints = bossy_talay_run(largest, base.substream(len(config["n_list"])),
                                  checkpoints=[t_end / 2.0, t_end])
    write_cdf_checkpoints_csv(checkpoints, out / "bossy_checkpoints.csv")
    fit = fit_rate(errors)
    return {
        "kind": "bossy_talay",
        "errors": {str(n): errors[n] for n in errors},
        "slope": fit.slope,
        "r2": fit.r2,
    }


def _run_kuramoto_sweep(config, out: Path, threads: int) -> dict:
    p = config.get("params", {})
    n = config["n_list"][-1]
    seeds = p.get("seeds", 20)
    grid = TimeGrid(config["time"].get("t0", 0.0), config["time"]["t_end"], config["time"]["dt"])
    base = RngStream(config["seed"])
    cases_out = []
    rows = []
    for c_idx, case in enumerate(p.get("cases", [])):
        model = kuramoto_model(case["coupling"])
        case_stream = base.substream(c_idx)

        def run_seed(k):
            s = case_stream.substream(k)
            if case["init"] == "concentrated":
                theta0 = np.zeros((n, 1))
            else:
                theta0 = s.substream(0).uniform((n, 1)) * 2.0 * math.pi
            final = simulate(model, Ensemble(theta0), grid, s.substream(1))
            return kuramoto_order_parameter(final.states[:, 0])

        r_vals = _map_replicas(run_seed, seeds, threads)
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
    return {"kind": "kuramoto_sweep", "cases": cases_out}


_RUNNERS = {
    "coupling_rate": _run_coupling_rate,
    "dsmc_compare": _run_dsmc_compare,
    "cbo": _run_cbo,
    "eks": _run_eks,
    "cmc": _run_cmc,
    "bossy_talay": _run_bossy_talay,
    "kuramoto_sweep": _run_kuramoto_sweep,
}


def run(config_path, threads: int = 1, out_dir=None) -> int:
    """Execute a config file; returns the process exit code."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    violations = validate(config)
    if violations:
        for item in violations:
            print(f"invalid config: {item}", file=sys.stderr)
        return 2

    out = Path(out_dir or config.get("out_dir") or Path(config_path).with_suffix("")).absolute()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json",
                {"config": config, "seed": config["seed"], "tool_version": __version__})
    try:
        summary = _RUNNERS[config["kind"]](config, out, threads)
    except Exception:
        traceback.print_exc()
        return 3
    ok = _check_thresholds(summary, config.get("thresholds", {}))
    _write_json(out / "summary.json", summary)
    print(f"{config['kind']}: {'pass' if ok else 'THRESHOLD FAIL'} -> {out / 'summary.json'}")
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
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        violations = validate(config)
        for item in violations:
            print(item)
        return 2 if violations else 0
    return run(args.config, threads=args.threads, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
