"""Mean-field jump processes by Poisson thinning, and the collective
Metropolis-Hastings sampler whose proposals are perturbed states of other
particles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, _block_size, write_csv
from .errors import BoundViolation, StepError


@dataclass
class JumpModel:
    """Jump specification: state-and-measure dependent rate lambda(x, mu)
    capped by ``rate_bound``, and a jump law drawing the post-jump state.

    ``rate(x, points)`` takes one state row and the (n, d) points of the
    empirical measure mu, which are the live states: the array that each
    jump writes into. ``jump_law(x, points, rng)`` returns the new state
    row, drawn from ``rng``, the run's jump-law substream.
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

    The N Exp(rate_bound) clocks run as one Exp(N rate_bound) clock whose
    rings each go to a uniform particle, as in ``boltzmann.exact_batch``;
    a ring at state x jumps with probability rate(x, mu)/rate_bound, mu
    the empirical measure at the ring time. Ring gaps, ring particles and
    acceptance uniforms come in blocks from substreams 0, 1 and 2 of
    ``rng``, the jump law's draws from substream 3, and ring times are the
    sequential sum of the gaps, so results do not depend on the block size.
    Observing a rate above rate_bound, below 0 or NaN aborts, and a
    non-finite post-jump state raises a StepError naming the particle and
    the ring time.
    """
    if not math.isfinite(model.rate_bound) or model.rate_bound < 0:
        raise ValueError("rate_bound must be finite and nonnegative")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    states = e0.states.copy()
    n, t, horizon = len(states), e0.time, e0.time + T
    total = n * model.rate_bound
    if not math.isfinite(total * (horizon - t)):
        raise ValueError(f"the expected ring count N rate_bound T is {total * (horizon - t)!r}")
    gaps, marks, uniforms, law = (rng.substream(k) for k in range(4))
    jumps = rings = 0
    while total > 0:
        size = _block_size(total * (horizon - t))
        times = np.cumsum(np.concatenate([[t], gaps.exponential(1.0 / total, size)]))[1:]
        m = int(np.searchsorted(times, horizon, side="right"))
        rings_of_block = zip(times[:m].tolist(), marks.integers(n, size=m).tolist(), uniforms.uniform(m).tolist())
        for t, i, u in rings_of_block:
            r = float(model.rate(states[i], states))
            if not 0 <= r <= model.rate_bound * (1 + 1e-12):
                raise BoundViolation(f"rate {r:g} exceeds the declared bound {model.rate_bound:g}" if r > 0
                                     else f"rate {r:g} is not a rate: it is NaN or below 0")
            if u < r / model.rate_bound:
                states[i] = np.asarray(model.jump_law(states[i], states, law), dtype=float)
                if not np.isfinite(states[i]).all():
                    raise StepError("non-finite post-jump state", particle=i, time=t)
                jumps += 1
        rings += m
        if m < size:  # the block reached the horizon; else t is its last ring time
            break
    return JumpResult(Ensemble(states, horizon), jumps, rings)


# the least proposal bandwidth h, about 5.27e-155, for which the mixture's
# factor -1 / (2 h^2) is finite: below it the factor is -inf, and a query
# on a point would give 0 * -inf = nan
MIN_BANDWIDTH = float.fromhex("0x1.6a09e667f3bcep-513")
# the largest h, about 9.48e153, for which 2 h^2 is finite: above it the
# factor -1 / (2 h^2) is -0.0, and the mixture drops its kernel term
MAX_BANDWIDTH = float.fromhex("0x1.6a09e667f3bccp+511")


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
        if not MIN_BANDWIDTH <= self.h <= MAX_BANDWIDTH:
            raise ValueError(f"proposal bandwidth h must be finite and in [MIN_BANDWIDTH, MAX_BANDWIDTH] = "
                             f"[{MIN_BANDWIDTH!r}, {MAX_BANDWIDTH!r}]; got {self.h!r}")
        if not self.n >= 1:
            raise ValueError(f"need n >= 1 particles; got {self.n!r}")
        if not self.dim >= 1:
            raise ValueError(f"need dim >= 1; got {self.dim!r}")
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
# _BLOCK_FLOATS floats (512 KB), with at least one row per block, so its
# memory is O(block * N * d) rather than len(at) * N * d.
_BLOCK_FLOATS = 65536
# a row whose exp-sum is below _LEAST_SUM is computed again with its row
# max shifted out: some of its terms may have underflowed. Far above the
# subnormals, so a row at or above it has lost no term that counts.
_LEAST_SUM = 2.0 ** -900


def _log_terms(points, block, inv, sq, diff):
    """sq[i, j] = -|block_i - x_j|^2 / (2 h^2), as the product by ``inv``
    = -1 / (2 h^2), with ``diff`` as scratch (None at d = 1)."""
    d = points.shape[1]
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
    np.multiply(sq, inv, out=sq)


def _log_mixture(points: np.ndarray, at: np.ndarray, h: float) -> np.ndarray:
    """log of the kernel mixture (1/N) sum_j phi_h(at_i - x_j), row-wise:
    CMC's proposal density, tuned for ``cmc_run``, its one caller. Every
    other kernel mean goes through ``core.pair_mean``.

    Rows of ``at`` go through in blocks of ``_BLOCK_FLOATS // (N * d)``
    rows in one ``work`` buffer (and one ``scratch`` at d > 1) allocated
    once per call. Every row takes one pass shape: log terms, exp, row
    sum, log. A row whose sum is below ``_LEAST_SUM`` (a query far from
    every point, or an infinite one) has its log terms computed again, and
    takes the row max shifted form m + log sum_j exp(t_j - m); a row of
    points has the self term exp(0) = 1 and never does.

    The loop runs with numpy's ufunc buffer sized to one row of N floats,
    in its own ``np.errstate`` context, so the caller's buffer size and
    error state come back unchanged, also when a row raises. A pass over a
    block with a broadcast operand (the query coordinate, a far row's max)
    runs buffered, and with the default 8192-float buffer a row shorter
    than the buffer goes about 4 times slower than once the buffer holds
    one row. A row longer than the buffer in effect keeps that buffer.
    Every element and every row reduction is the one of the dense formula
    ``((at[:, None] - points[None]) ** 2).sum(axis=2) * (-1 / (2 h^2))``
    and so on, so the result equals it bit for bit.
    """
    n, d = points.shape
    rows = max(1, min(_BLOCK_FLOATS // max(1, n * d), len(at)))
    work = np.empty((rows, n))
    scratch = np.empty((rows, n, d) if d >= 8 else (rows, n)) if d > 1 else None
    inv = -1.0 / (2.0 * h * h)
    lse = np.empty(len(at))
    with np.errstate():
        one_row = -(-n // 16) * 16  # numpy takes multiples of 16
        if one_row < np.getbufsize():
            np.setbufsize(one_row)
        for lo in range(0, len(at), rows):
            block = at[lo:lo + rows]
            sq = work[:len(block)]
            _log_terms(points, block, inv, sq, None if scratch is None else scratch[:len(block)])
            np.exp(sq, out=sq)
            total = sq.sum(axis=1)
            out = lse[lo:lo + len(block)]
            low = total < _LEAST_SUM
            if low.any():
                far = block[low]
                sq = work[:len(far)]
                _log_terms(points, far, inv, sq, None if scratch is None else scratch[:len(far)])
                m = sq.max(axis=1)
                np.subtract(sq, m[:, None], out=sq)  # -inf - -inf for an infinite query
                np.exp(sq, out=sq)
                total[low] = 1.0  # written over below: log(0) would signal divide
                np.log(total, out=out)
                out[low] = m + np.log(sq.sum(axis=1))
            else:
                np.log(total, out=out)
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
        i = int(np.flatnonzero(~np.isfinite(logpi))[0])
        raise ValueError(f"target log density must be finite at every initial state: particle {i} gives {logpi[i]}")

    trace = np.zeros(cfg.steps)
    kept = []
    for sweep in range(cfg.steps):
        partners = rng.integers(n, size=n)
        xi = rng.normal((n, d))
        u = rng.uniform(n)
        proposals = states[partners] + cfg.h * xi
        logpi_prop = np.where(np.isnan(lp := log_target(proposals)), -np.inf, lp)
        # both mixture densities use the pre-sweep ensemble
        log_theta = _log_mixture(states, np.concatenate([proposals, states]), cfg.h)
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
