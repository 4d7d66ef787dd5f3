"""Mean-field jump processes by Poisson thinning, and the collective
Metropolis-Hastings sampler whose proposals are perturbed states of other
particles."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream
from .errors import BoundViolation


@dataclass
class JumpModel:
    """Jump specification: state-and-measure dependent rate lambda(x, mu)
    capped by ``rate_bound``, and a jump law drawing the post-jump state.

    ``rate(x, mu)`` takes one state row; ``jump_law(x, mu, rng)`` returns
    the new state row.
    """

    rate: callable
    rate_bound: float
    jump_law: callable


@dataclass
class JumpResult:
    ensemble: Ensemble
    jumps: int
    rings: int


def simulate_jump(model: JumpModel, e0: Ensemble, T: float, rng: RngStream) -> JumpResult:
    """Thinned exact simulation of the mean-field jump process over [0, T].

    Every particle carries an Exp(rate_bound) clock; rings are resolved in
    global time order through one queue, and a ring at state x executes a
    jump with probability rate(x, mu)/rate_bound where mu is the empirical
    measure at the ring time. Observing rate > rate_bound aborts.
    """
    if not math.isfinite(model.rate_bound) or model.rate_bound < 0:
        raise ValueError("rate_bound must be finite and nonnegative")
    ensemble = e0.copy()
    result_time = e0.time + T
    if model.rate_bound == 0.0:
        ensemble.time = result_time
        return JumpResult(ensemble, 0, 0)
    states = ensemble.states
    n = ensemble.n
    scale = 1.0 / model.rate_bound
    queue = [(e0.time + rng.exponential(scale), i) for i in range(n)]
    heapq.heapify(queue)
    jumps = rings = 0
    while queue[0][0] <= result_time:
        t, i = heapq.heappop(queue)
        rings += 1
        mu = Ensemble(states, t).measure()
        r = float(model.rate(states[i], mu))
        if r > model.rate_bound * (1 + 1e-12):
            raise BoundViolation(f"rate {r:g} exceeds the declared bound {model.rate_bound:g}")
        if rng.uniform() <= r / model.rate_bound:
            states[i] = np.asarray(model.jump_law(states[i], mu, rng), dtype=float)
            jumps += 1
        heapq.heappush(queue, (t + rng.exponential(scale), i))
    return JumpResult(Ensemble(states, result_time), jumps, rings)


@dataclass
class CmcConfig:
    """Collective Metropolis-Hastings configuration.

    The proposal mixes the empirical measure with a gaussian kernel of
    bandwidth h: a proposal for particle i is x^j + h xi with j uniform,
    and its density is the full kernel mixture over the pre-sweep ensemble
    (which does not depend on the proposing particle). The target log
    density may be known only up to an additive constant.
    """

    target_log_density: callable
    h: float
    n: int
    steps: int
    burn_in: int = 0
    dim: int = 1
    vectorized: bool = False  # target_log_density accepts an (n, d) batch

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("proposal bandwidth h must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("need 0 <= burn_in < steps")


@dataclass
class CmcResult:
    ensemble: Ensemble
    accept_trace: np.ndarray
    samples: np.ndarray  # pooled post-burn-in states, shape (kept * n, dim)

    def write_trace_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("sweep,accept_fraction\n")
            for k, a in enumerate(self.accept_trace):
                fh.write(f"{k},{float(a)!r}\n")


def _log_mixture(points: np.ndarray, at: np.ndarray, h: float) -> np.ndarray:
    """log of the kernel mixture (1/N) sum_j phi_h(at_i - x_j), row-wise."""
    d = points.shape[1]
    sq = ((at[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    log_terms = -sq / (2.0 * h * h)
    m = log_terms.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(log_terms - m).sum(axis=1))
    norm = math.log(points.shape[0]) + d * math.log(h) + 0.5 * d * math.log(2.0 * math.pi)
    return lse - norm


def cmc_run(cfg: CmcConfig, e0: Ensemble, rng: RngStream) -> CmcResult:
    """Run the interacting-proposal Metropolis-Hastings sampler.

    Sweeps are synchronous: every particle draws its partner, proposal and
    acceptance against the same pre-sweep ensemble, and all accepted moves
    are committed together. The acceptance ratio is computed entirely in
    the log domain, so the target's normalizing constant never enters.
    """
    states = e0.states.copy()
    n, d = states.shape
    if n != cfg.n or d != cfg.dim:
        raise ValueError(f"ensemble shape {(n, d)} does not match the config ({cfg.n}, {cfg.dim})")

    if cfg.vectorized:
        log_target = lambda pts: np.asarray(cfg.target_log_density(pts), dtype=float).reshape(-1)
    else:
        log_target = lambda pts: np.asarray([cfg.target_log_density(x) for x in pts], dtype=float)
    logpi = log_target(states)
    if not np.all(np.isfinite(logpi)):
        raise ValueError("target log density must be finite at every initial state")

    trace = np.zeros(cfg.steps)
    kept = []
    for sweep in range(cfg.steps):
        partners = rng.integers(n, size=n)
        xi = rng.normal((n, d))
        u = rng.uniform(n)
        proposals = states[partners] + cfg.h * xi
        logpi_prop = np.where(np.isnan(lp := log_target(proposals)), -np.inf, lp)
        # both mixture densities use the pre-sweep ensemble
        log_theta_prop = _log_mixture(states, proposals, cfg.h)
        log_theta_curr = _log_mixture(states, states, cfg.h)
        log_alpha = logpi_prop - logpi + log_theta_curr - log_theta_prop
        with np.errstate(divide="ignore"):
            accept = np.log(u) < log_alpha  # strict: -inf log density auto-rejects
        states = np.where(accept[:, None], proposals, states)
        logpi = np.where(accept, logpi_prop, logpi)
        trace[sweep] = accept.mean()
        if sweep >= cfg.burn_in:
            kept.append(states.copy())
    samples = np.concatenate(kept, axis=0) if kept else np.empty((0, d))
    return CmcResult(Ensemble(states, e0.time + cfg.steps), trace, samples)
