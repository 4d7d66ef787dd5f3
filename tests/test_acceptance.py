"""Acceptance suite: every project exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured values so the whole
gate can be audited from the pytest output (run with -s or read captured
output).
"""

import json
import math

import numpy as np
import pytest

from meanfield.core import Ensemble, RngStream, TimeGrid
from meanfield.boltzmann import (
    CellGrid,
    bird_simulate,
    conservation_report,
    exact_batch,
    exact_simulate,
    maxwell_cutoff_model,
)
from meanfield import cli
from meanfield.cli import _RUNNERS, run as cli_run
from meanfield.jump import CmcConfig, cmc_run
from meanfield.mckean import (
    gradient_system_model,
    kuramoto_model,
    mean_field_ou_model,
    ou_reference,
    simulate,
    simulate_synchronous_coupling,
)
from meanfield.metrics import (
    fit_rate,
    kuramoto_order_parameter,
    pair_covariance_pooled,
    wasserstein_1d,
)
from meanfield.optimizer import (
    CboConfig,
    EksConfig,
    cbo_minimize,
    eks_sample,
    posterior_gaussian_oracle,
)
from meanfield.schemes1d import CdfScheme, bossy_talay_run, l1_cdf_error


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def maxwell(d=2, total=1.0):
    return maxwell_cutoff_model(lambda th: np.full_like(np.asarray(th, dtype=float),
                                                        total / math.pi), d=d)


# Criteria 01 to 10 are functions of their base seed, so that
# tools/gate_sweep.py can measure how often each passes over fresh seeds.
# Each returns (pass, statistic, detail).


def criterion_01_gate(seed):
    """Mean-field OU synchronous coupling: sup-t MSE decays like 1/N; the
    statistic is the fitted slope, which passes in [-1.3, -0.7] with r2 >= 0.9."""
    model = mean_field_ou_model(1.0, 1.0)
    ref = ou_reference(1.0, 1.0, m0=1.0, v0=1.0)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    sup_mse = {}
    for idx, n in enumerate((50, 100, 200, 400, 800)):
        rep = simulate_synchronous_coupling(model, ref, n, grid, RngStream(seed, idx), replicas=64)
        sup_mse[n] = rep.sup_mse
    fit = fit_rate(sup_mse)
    ok = -1.3 <= fit.slope <= -0.7 and fit.r2 >= 0.9
    return ok, fit.slope, f"coupling-rate slope {fit.slope:.3f} in [-1.3, -0.7], r2 {fit.r2:.3f} >= 0.9"


def test_criterion_01_mckean_coupling_rate():
    """Mean-field OU synchronous coupling: sup-t MSE decays like 1/N."""
    ok, _, detail = criterion_01_gate(7)
    assert report(1, ok, detail)


def criterion_02_gate(seed):
    """Uniformly convex gradient system: the coupling error plateaus; the
    statistic is the mean MSE over t in [4, 6] over the mean MSE over [8, 10].

    The system dX = -X dt - (X - E X) dt + sqrt(2) dB from X_0 ~ N(0, 1)
    runs as Y = X / sqrt(2), which has the same drift, unit noise and
    Y_0 ~ N(0, 1/2): the mean-field OU law that ``ou_reference`` solves
    exactly. Y's coupling MSE is half of X's, so no ratio below changes."""
    model = gradient_system_model(lambda x: x, lambda z: z, 1.0, dim=1,
                                  grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True))
    rep = simulate_synchronous_coupling(model, ou_reference(1.0, 1.0, m0=0.0, v0=0.5), n=200,
                                        grid=TimeGrid(0.0, 10.0, 0.01), rng=RngStream(seed), replicas=32)

    def window(lo, hi):
        return float(np.mean(rep.mse[(rep.times > lo - 1e-9) & (rep.times < hi + 1e-9)]))

    late = window(8.0, 10.0)
    ratio = window(4.0, 6.0) / late if late > 0 else math.nan  # an engine with no error fails
    m1, m5, m10 = rep.mse_at(1.0), rep.mse_at(5.0), rep.mse_at(10.0)
    ok = 0.5 <= ratio <= 2.0 and m5 <= 5 * m1 and m10 <= 5 * m1
    return ok, ratio, (f"mean mse over [4, 6] / over [8, 10] = {ratio:.3f} in [0.5, 2]; "
                       f"mse(5) = {m5:.2e}, mse(10) = {m10:.2e}, 5*mse(1) = {5 * m1:.2e}")


def test_criterion_02_uniform_in_time_chaos():
    """Uniformly convex gradient system: the coupling error plateaus."""
    ok, _, detail = criterion_02_gate(11)
    assert report(2, ok, detail)


def criterion_03_gate(seed):
    """Maxwell-cutoff exact simulation conserves momentum and energy;
    the statistic is the larger relative drift."""
    model = maxwell(d=3)
    rng = RngStream(seed)
    e0 = Ensemble(rng.substream(0).normal((1000, 3)))
    final, log = exact_simulate(model, e0, 2.0, rng.substream(1))
    rep = conservation_report([(0.0, e0.states), (2.0, final.states)])
    ok = rep.momentum_drift <= 1e-8 and rep.energy_drift <= 1e-8
    return ok, rep.max_drift(), (f"momentum drift {rep.momentum_drift:.2e}, "
                                 f"energy drift {rep.energy_drift:.2e} (<= 1e-8), "
                                 f"{log.accepted} collisions")


def criterion_04_gate(seed):
    """Bird DSMC with one cell matches the jump-exact algorithm in law;
    the statistic is W1(exact, bird) over the exact self-distance."""
    model = maxwell(d=2)
    n, t_end = 2000, 1.0
    grid = CellGrid.single_cell()
    tg = TimeGrid(0.0, t_end, 0.1)
    cross, self_dist = [], []
    for k in range(5):
        s = RngStream(seed, k)
        init = s.substream(0).normal((n, 2))
        exact_a, exact_c, exact_d = exact_batch(model, np.broadcast_to(init, (3, n, 2)), t_end,
                                                [s.substream(j) for j in (1, 3, 4)])[0]
        bird_b, _ = bird_simulate(model, grid, Ensemble(init), tg, s.substream(2))
        cross.append(wasserstein_1d(exact_a[:, 0], bird_b.states[:, 0]))
        self_dist.append(wasserstein_1d(exact_c[:, 0], exact_d[:, 0]))
    ratio = float(np.mean(cross) / np.mean(self_dist))
    return ratio <= 3.0, ratio, f"W1(exact, bird) / self-distance = {ratio:.2f} <= 3 over 5 seed pairs"


def criterion_05_gate(seed):
    """Two-particle covariance of tanh vanishes at rate 1/N; the statistic
    is the fitted slope.

    The initial velocities are centered (zero total momentum), the standard
    Kac-style conditioning; the covariance is estimated by the all-pairs
    statistic, which targets the same tagged-pair quantity by
    exchangeability with far less replica noise.
    """
    model = maxwell(d=2)
    phi = lambda z: np.tanh(z[..., 0])
    covs = {}
    for n in (50, 100, 200, 400):
        streams = [RngStream(seed, n * 10000 + r) for r in range(512)]
        v = np.stack([s.substream(0).normal((n, 2)) for s in streams])
        v -= v.mean(axis=1, keepdims=True)
        finals, _ = exact_batch(model, v, 1.0, [s.substream(1) for s in streams])
        covs[n] = abs(pair_covariance_pooled(finals, phi))
    fit = fit_rate(covs)
    ok = -1.4 <= fit.slope <= -0.6
    return ok, fit.slope, (f"|pair covariance| slope {fit.slope:.3f} in [-1.4, -0.6] "
                           f"(N * cov = {', '.join(f'{n * covs[n]:.3f}' for n in covs)})")


def test_criterion_03_collision_conservation():
    """Maxwell-cutoff exact simulation conserves momentum and energy."""
    ok, _, detail = criterion_03_gate(28)
    assert report(3, ok, detail)


def test_criterion_04_exact_vs_bird_agreement():
    """Bird DSMC with one cell matches the jump-exact algorithm in law."""
    ok, _, detail = criterion_04_gate(99)
    assert report(4, ok, detail)


def test_criterion_05_kac_chaos_decay():
    """Two-particle covariance of tanh vanishes at rate 1/N."""
    ok, _, detail = criterion_05_gate(4242)
    assert report(5, ok, detail)


def criterion_06_gate(seed):
    """EKS recovers the gaussian posterior, and both modes share
    trajectories; the statistic is max(mean error / 0.1, cov error / 0.2,
    mode gap / 1e-8), which passes at <= 1."""
    rng = RngStream(seed)
    G = rng.substream(0).normal((2, 2))
    y = np.array([1.0, -0.5])
    cfg = EksConfig(forward=G, Gamma=np.eye(2), Gamma0=np.eye(2), y=y,
                    n=1000, dt=0.02, steps=500)
    e0 = Ensemble(rng.substream(1).normal((1000, 2)))
    final = eks_sample(cfg, e0, rng.substream(2))
    mean_o, cov_o = posterior_gaussian_oracle(G, np.eye(2), np.eye(2), y)
    m = final.states.mean(axis=0)
    c = (final.states - m).T @ (final.states - m) / cfg.n
    mean_err = float(np.linalg.norm(m - mean_o) / math.sqrt(np.max(np.diag(cov_o))))
    cov_err = float(np.linalg.norm(c - cov_o) / np.linalg.norm(cov_o))
    cfg_df = EksConfig(forward=G, Gamma=np.eye(2), Gamma0=np.eye(2), y=y,
                       n=1000, dt=0.02, steps=500, derivative_free=True)
    free = eks_sample(cfg_df, e0, rng.substream(2))
    mode_gap = float(np.max(np.abs(free.states - final.states)))
    ok = mean_err <= 0.1 and cov_err <= 0.2 and mode_gap <= 1e-8
    return ok, max(mean_err / 0.1, cov_err / 0.2, mode_gap / 1e-8), (
        f"mean error {mean_err:.3f} posterior-std (<= 0.1), cov Frobenius rel {cov_err:.3f} (<= 0.2), "
        f"mode trajectory gap {mode_gap:.1e} (<= 1e-8)")


def test_criterion_06_eks_linear_gaussian():
    """EKS recovers the gaussian posterior; both modes share trajectories."""
    ok, _, detail = criterion_06_gate(314)
    assert report(6, ok, detail)


def criterion_07_gate(seed):
    """CBO quadratic consensus within 1e-2, with the advisory Rastrigin
    report at ``seed + 1``; the statistic is the number of the 20 quadratic
    seeds within 1e-2. The runs enable the objective-gating factor with a
    sharp smoothing width: without it the consensus point carries a
    fluctuation floor ~1/sqrt(2 alpha N) ~ 1.3e-2 that exceeds the
    tolerance (see the decisions ledger)."""
    target = np.array([1.0, 0.5])
    quad = lambda x: np.sum((x - target) ** 2, axis=-1)
    cfg = CboConfig(objective=quad, alpha=30.0, lambda_drift=3.0, sigma_noise=1.5,
                    dt=0.01, steps=1000, n=100, dim=2, eps_heaviside=1e-5,
                    init=lambda n, d, rng: -2.0 + 6.0 * rng.uniform((n, d)))
    results = cbo_minimize(cfg, [RngStream(seed, k) for k in range(20)])
    dists = [float(np.linalg.norm(res.consensus - target)) for res in results]
    hits = sum(d <= 1e-2 for d in dists)

    def rastrigin(x):
        return 10.0 * x.shape[-1] + np.sum(x ** 2 - 10.0 * np.cos(2 * math.pi * x), axis=-1)

    cfg = CboConfig(objective=rastrigin, alpha=30.0, lambda_drift=1.0, sigma_noise=0.7,
                    dt=0.02, steps=500, n=100, dim=2,
                    init=lambda n, d, rng: -3.0 + 6.0 * rng.uniform((n, d)))
    results = cbo_minimize(cfg, [RngStream(seed + 1, k) for k in range(20)])
    r_dists = [float(np.linalg.norm(res.consensus)) for res in results]
    r_hits = sum(d <= 0.25 for d in r_dists)
    ok = hits >= 18
    return ok, hits, (f"quadratic consensus within 1e-2 in {hits}/20 seeds "
                      f"(median distance {np.median(dists):.4f}; required 18/20); "
                      f"advisory: Rastrigin {r_hits}/20 within 0.25 (median {np.median(r_dists):.3f}), "
                      f"threshold 14/20 {'met' if r_hits >= 14 else 'NOT met'}")


def test_criterion_07_cbo_consensus():
    """CBO quadratic consensus within 1e-2, plus the advisory Rastrigin report."""
    ok, _, detail = criterion_07_gate(45)
    assert report(7, ok, detail)


def criterion_08_gate(seed):
    """Heat-kernel oracle: the L1 CDF error decays like 1/sqrt(N); the
    statistic is the fitted slope, which passes in [-0.7, -0.3]."""
    sigma, t_end, dt = 1.0, 0.01, 1e-4
    span = 6.0 * sigma * math.sqrt(t_end)
    grid = np.linspace(-span, span, 2001)
    # the exact CDF's values on the grid, evaluated once for every run
    exact = 0.5 * (1.0 + np.vectorize(math.erf)(grid / (sigma * math.sqrt(2.0 * t_end))))
    errors = {}
    for idx, n in enumerate((100, 400, 1600)):
        scheme = CdfScheme(k1=0.0, k2=sigma, n=n, dt=dt, T=t_end,
                           initial=lambda m, rng: np.zeros(m))
        runs = bossy_talay_run(scheme, [RngStream(seed, idx * 1000 + r) for r in range(32)])
        errs = [l1_cdf_error(cdfs[-1], exact, grid) for cdfs in runs]
        errors[n] = float(np.mean(errs))
    fit = fit_rate(errors)
    ok = -0.7 <= fit.slope <= -0.3
    return ok, fit.slope, f"L1-CDF error slope {fit.slope:.3f} in [-0.7, -0.3] (r2 {fit.r2:.3f})"


def test_criterion_08_bossy_talay_rate():
    """Heat-kernel oracle: L1 CDF error decays like 1/sqrt(N)."""
    ok, _, detail = criterion_08_gate(1234)
    assert report(8, ok, detail)


def criterion_09_gate(seed):
    """Order parameter: high above the critical coupling, low below; the
    statistic is the smaller of the two counts, of 20 runs each, which passes at >= 18."""
    n = 500
    grid = TimeGrid(0.0, 20.0, 0.01)
    streams = [RngStream(seed, k) for k in range(20)]
    final = simulate(kuramoto_model(2.0), np.zeros((20, n, 1)), grid, [s.substream(1) for s in streams])
    r_hi = [kuramoto_order_parameter(theta[:, 0]) for theta in final]
    theta0 = np.stack([s.substream(2).uniform((n, 1)) * 2.0 * math.pi for s in streams])
    final2 = simulate(kuramoto_model(0.2), theta0, grid, [s.substream(3) for s in streams])
    r_lo = [kuramoto_order_parameter(theta[:, 0]) for theta in final2]
    hi = sum(r >= 0.8 for r in r_hi)
    lo = sum(r <= 0.3 for r in r_lo)
    ok = hi >= 18 and lo >= 18
    return ok, min(hi, lo), (f"r >= 0.8 at K=2 in {hi}/20 (median {np.median(r_hi):.3f}); "
                             f"r <= 0.3 at K=0.2 in {lo}/20 (median {np.median(r_lo):.3f})")


def test_criterion_09_kuramoto_phase_transition():
    """Order parameter: high above the critical coupling, low below."""
    ok, _, detail = criterion_09_gate(2718)
    assert report(9, ok, detail)


def criterion_10_gate(seed):
    """Collective MH recovers the standard gaussian's moments; the statistic
    is max(|mean| / 0.05, |var - 1| / 0.1), which passes at <= 1."""
    cfg = CmcConfig(
        target_log_density=lambda x: -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1),
        h=0.5, n=500, steps=2000, burn_in=500, dim=1, vectorized=True,
    )
    rng = RngStream(seed)
    e0 = Ensemble(rng.substream(0).normal((500, 1)))
    result = cmc_run(cfg, e0, rng.substream(1))
    mean = float(result.samples.mean())
    var = float(result.samples.var())
    ok = abs(mean) <= 0.05 and abs(var - 1.0) <= 0.1
    return ok, max(abs(mean) / 0.05, abs(var - 1.0) / 0.1), (
        f"pooled mean {mean:+.4f} (|.| <= 0.05), variance {var:.4f} (within 10% of 1)")


def test_criterion_10_cmc_target_recovery():
    """Collective MH recovers the standard gaussian's moments."""
    ok, _, detail = criterion_10_gate(8)
    assert report(10, ok, detail)


CRITERION_11_CONFIGS = {
    "coupling_rate": {
        "kind": "coupling_rate", "seed": 11, "n_list": [10, 20, 40], "replicas": 4,
        "time": {"t0": 0.0, "t_end": 0.2, "dt": 0.01},
        "params": {"lambda": 1.0, "kappa": 1.0, "m0": 1.0, "v0": 1.0},
    },
    "dsmc_compare": {
        "kind": "dsmc_compare", "seed": 12, "n_list": [100],
        "time": {"t0": 0.0, "t_end": 0.3, "dt": 0.1}, "params": {"pairs": 2, "d": 2},
    },
    "cbo": {
        "kind": "cbo", "seed": 13, "n_list": [30],
        "params": {"objective": "quadratic", "target": [0.5, 0.5], "dim": 2,
                   "seeds": 2, "steps": 50, "dt": 0.02},
    },
    "eks": {
        "kind": "eks", "seed": 14, "n_list": [100],
        "params": {"G": [[1.0, 0.2], [0.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]],
                   "Gamma0": [[1.0, 0.0], [0.0, 1.0]], "y": [0.3, -0.2],
                   "dt": 0.05, "steps": 50},
    },
    "cmc": {
        "kind": "cmc", "seed": 15, "n_list": [50],
        "params": {"h": 0.5, "steps": 40, "burn_in": 10},
    },
    "bossy_talay": {
        "kind": "bossy_talay", "seed": 16, "n_list": [25, 50, 100], "replicas": 2,
        "time": {"t0": 0.0, "t_end": 0.01, "dt": 1e-3}, "params": {"sigma": 1.0},
    },
    "kuramoto_sweep": {
        "kind": "kuramoto_sweep", "seed": 17, "n_list": [50],
        "time": {"t0": 0.0, "t_end": 1.0, "dt": 0.05},
        "params": {"seeds": 2, "cases": [{"coupling": 2.0, "init": "concentrated"}]},
    },
}


def test_criterion_11_determinism(tmp_path):
    """Identical config bytes and seed give byte-identical artifacts for
    every experiment kind, including with replica parallelism."""
    all_identical = True
    for kind, cfg in CRITERION_11_CONFIGS.items():
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b, out_c = (tmp_path / f"{kind}_{tag}" for tag in "abc")
        assert cli_run(cfg_path, out_dir=out_a) == 0
        assert cli_run(cfg_path, out_dir=out_b) == 0
        assert cli_run(cfg_path, threads=3, out_dir=out_c) == 0
        for artifact in sorted(out_a.iterdir()):
            same = (artifact.read_bytes() == (out_b / artifact.name).read_bytes()
                    == (out_c / artifact.name).read_bytes())
            all_identical = all_identical and same
    assert report(11, all_identical,
                  "byte-identical artifacts across reruns and thread counts for all 7 kinds")


def test_criterion_11_defaults_live_in_the_param_table(tmp_path):
    """Filling each omitted param of a criterion-11 config with its
    cli._PARAMS default changes no artifact but the manifest, which records
    the config as given: no runner keeps a default of its own."""
    filled_any = set()
    for kind, cfg in CRITERION_11_CONFIGS.items():
        defaults = {name: default for name, (_, _, default) in cli._PARAMS[kind].items()}
        filled = {**cfg, "params": {**defaults, **cfg["params"]}}
        if filled["params"] != cfg["params"]:
            filled_any.add(kind)
        outs = []
        for tag, config in (("given", cfg), ("filled", filled)):
            cfg_path = tmp_path / f"{kind}_{tag}.json"
            cfg_path.write_text(json.dumps(config))
            outs.append(tmp_path / f"{kind}_{tag}")
            assert cli_run(cfg_path, out_dir=outs[-1]) == 0
        given, full = ({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
                       for out in outs)
        assert given == full, kind
    # coupling_rate and kuramoto_sweep give every param already
    assert filled_any == {"dsmc_compare", "cbo", "eks", "cmc", "bossy_talay"}


def _plain_json(value) -> bool:
    """True if ``value`` is built of dict (str keys), list, str, int, float,
    bool and None only, by exact type: a numpy scalar is a violation."""
    if type(value) is dict:
        return all(type(k) is str and _plain_json(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain_json(v) for v in value)
    return type(value) in (str, int, float, bool, type(None))


def test_criterion_11_summary_keys_are_the_threshold_table(tmp_path, monkeypatch):
    """validate checks each threshold name against the summary keys that
    cli._RUNNERS lists for the config's kind; the table must not drift from
    what the runners write. manifest.json and summary.json are written as
    given, with no conversion, so every payload, including the ``checks``
    that a declared threshold adds, must already be plain JSON."""
    written = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda path, payload: (written.append((path, payload)), write_json(path, payload)))
    for kind, cfg in CRITERION_11_CONFIGS.items():
        if kind == "coupling_rate":
            cfg = {**cfg, "thresholds": {"slope": {"range": [-1e9, 1e9]}}}
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_run(cfg_path, out_dir=tmp_path / kind) == 0
        summary = json.loads((tmp_path / kind / "summary.json").read_text())
        assert sorted(set(summary) - {"checks", "pass"}) == sorted(_RUNNERS[kind][1]), kind
    assert sorted(path.name for path, _ in written) == ["manifest.json"] * 7 + ["summary.json"] * 7
    checked = [payload["checks"] for path, payload in written if payload.get("checks")]
    assert len(checked) == 1 and checked[0]["slope"]["pass"] is True
    assert [path for path, payload in written if not _plain_json(payload)] == []
