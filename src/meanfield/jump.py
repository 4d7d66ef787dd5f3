"""Mean-field jump processes by Poisson thinning, and the collective
Metropolis-Hastings sampler whose proposals are perturbed states of other
particles."""

from __future__ import annotations

import contextvars
import heapq
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, write_csv
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
        if rng.uniform() < r / model.rate_bound:
            states[i] = np.asarray(model.jump_law(states[i], mu, rng), dtype=float)
            jumps += 1
        heapq.heappush(queue, (t + rng.exponential(scale), i))
    return JumpResult(Ensemble(states, result_time), jumps, rings)


# the least proposal bandwidth h for which 2 h^2 > 0: at h = 2**-538, 2 h^2
# is half the least subnormal and rounds to 0, and _log_mixture divides 0/0
MIN_BANDWIDTH = math.nextafter(2.0 ** -538, math.inf)


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
        if not self.h >= MIN_BANDWIDTH:
            raise ValueError(f"proposal bandwidth h must be at least MIN_BANDWIDTH = {MIN_BANDWIDTH!r}")
        if not 0 <= self.burn_in < self.steps:
            raise ValueError("need 0 <= burn_in < steps")


@dataclass
class CmcResult:
    ensemble: Ensemble
    accept_trace: np.ndarray
    samples: np.ndarray  # pooled post-burn-in states, shape (kept * n, dim)

    def write_trace_csv(self, path):
        write_csv(path, "sweep,accept_fraction", enumerate(self.accept_trace))


# _log_mixture keeps each of its (rows, N) temporaries at or below
# _BLOCK_FLOATS floats (512 KB), with at least one row per block.
_BLOCK_FLOATS = 65536


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _mixture_rows(points, at, neg_two_h2, lse, start, stop, rows, work, scratch, own_from):
    """lse[i] = log sum_j exp(-|at_i - x_j|^2 / (2 h^2)) for start <= i < stop,
    in blocks of ``rows`` rows in the buffers ``work`` and ``scratch``.

    The range runs with numpy's ufunc buffer sized to one row of N floats,
    in its own ``np.errstate`` context, which restores the caller's size on
    exit. A pass over a block with a broadcast operand (the query
    coordinate, the row max) runs buffered, and with the default 8192-float
    buffer a row shorter than the buffer goes about 4 times slower than
    once the buffer holds one row. A row longer than the buffer in effect
    keeps that buffer.

    Rows from ``own_from`` on are points themselves. Their self term
    0 / (-2 h^2) = -0.0 is the largest log term, so the row max is -0.0,
    ``sq - m`` equals ``sq`` after exp (-0.0 - -0.0 is +0.0, and exp of
    either zero is 1) and ``m + log(s)`` equals ``log(s)`` for s >= 1.
    Blocks wholly past ``own_from`` skip the max and the shift, with every
    value unchanged; a block that straddles it takes the general path.
    """
    d = points.shape[1]
    with np.errstate():
        one_row = -(-points.shape[0] // 16) * 16  # numpy takes multiples of 16
        if one_row < np.getbufsize():
            np.setbufsize(one_row)
        for lo in range(start, stop, rows):
            block = at[lo:min(lo + rows, stop)]
            sq = work[:len(block)]
            diff = None if scratch is None else scratch[:len(block)]
            if d >= 8:
                # numpy sums 8 or more contiguous terms pairwise; np.sum repeats it
                np.subtract(block[:, None, :], points, out=diff)
                np.square(diff, out=diff)
                np.sum(diff, axis=2, out=sq)
            else:
                # and fewer than 8 in order, as this loop over the coordinates
                # does, several times faster than np.sum over so short an axis
                np.subtract(block[:, :1], points[:, 0], out=sq)
                np.square(sq, out=sq)
                for k in range(1, d):
                    np.subtract(block[:, k:k + 1], points[:, k], out=diff)
                    np.square(diff, out=diff)
                    sq += diff
            np.divide(sq, neg_two_h2, out=sq)  # the log terms; -sq / c == sq / -c
            out = lse[lo:lo + len(block)]
            if lo >= own_from:
                np.exp(sq, out=sq)
                np.log(sq.sum(axis=1), out=out)
            else:
                m = sq.max(axis=1)
                np.subtract(sq, m[:, None], out=sq)
                np.exp(sq, out=sq)
                np.add(m, np.log(sq.sum(axis=1)), out=out)


def _log_mixture(points: np.ndarray, at: np.ndarray, h: float, own_from: int | None = None) -> np.ndarray:
    """log of the kernel mixture (1/N) sum_j phi_h(at_i - x_j), row-wise.

    Rows of ``at`` go through in blocks of ``_BLOCK_FLOATS // (N * d)``
    rows, so memory is O(k * block * N * d) rather than len(at) * N * d.
    The blocks are split into k contiguous ranges, k = min(CPUs of the
    process, full blocks); the calling thread computes the first and one
    thread per other range the rest, each in its own buffers allocated once
    per call. numpy releases the GIL in every ufunc loop and reduction here,
    so the ranges run in parallel. Threads run in a copy of the caller's
    context, so ``np.errstate`` holds in them; once every thread has
    ended, the exception of the lowest range that raised one is raised.
    Each range sizes numpy's ufunc buffer to one row inside its own
    ``np.errstate`` context (see ``_mixture_rows``), so the caller's buffer
    size and error state come back unchanged, also when a range raises.
    ``own_from`` is the index from which every row of ``at`` is a row of
    ``points`` (``cmc_run`` queries the ensemble itself there); those rows
    skip the row max shift, which is exactly a no-op for them.
    Every element and every row reduction is the one of the dense formula
    ``((at[:, None] - points[None]) ** 2).sum(axis=2)`` and so on, so the
    result equals it bit for bit at any k.
    """
    n, d = points.shape
    rows = max(1, min(_BLOCK_FLOATS // max(1, n * d), len(at)))
    k = max(1, min(_cpu_count(), len(at) // rows))
    # one allocation per worker: glibc serves a single (k, rows, N) block
    # with more growth of the peak RSS than k separate ones
    work = [np.empty((rows, n)) for _ in range(k)]
    scratch = [np.empty((rows, n, d) if d >= 8 else (rows, n)) if d > 1 else None for _ in range(k)]
    neg_two_h2 = -(2.0 * h * h)
    lse = np.empty(len(at))
    blocks = -(-len(at) // rows)
    bounds = [min(len(at), (w * blocks // k) * rows) for w in range(k + 1)]
    own_from = len(at) if own_from is None else own_from
    errors = [None] * k

    def rows_of(w):
        try:
            _mixture_rows(points, at, neg_two_h2, lse, bounds[w], bounds[w + 1], rows, work[w], scratch[w], own_from)
        except BaseException as err:  # raised once every worker has ended
            errors[w] = err

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(rows_of, w))
               for w in range(1, k)]
    for t in threads:
        t.start()
    rows_of(0)
    for t in threads:
        t.join()
    for err in errors:
        if err is not None:
            raise err
    norm = math.log(n) + d * math.log(h) + 0.5 * d * math.log(2.0 * math.pi)
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

    def log_target(pts):
        if cfg.vectorized:
            vals = np.asarray(cfg.target_log_density(pts), dtype=float).reshape(-1)
        else:
            vals = np.asarray([cfg.target_log_density(x) for x in pts], dtype=float)
        if vals.shape != (n,):
            raise ValueError(f"target log density must give one value per particle, shape {(n,)}; got shape {vals.shape}")
        return vals

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
        # both mixture densities use the pre-sweep ensemble, whose own rows
        # come after the n proposals
        log_theta = _log_mixture(states, np.concatenate([proposals, states]), cfg.h, own_from=n)
        log_theta_prop, log_theta_curr = log_theta[:n], log_theta[n:]
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
