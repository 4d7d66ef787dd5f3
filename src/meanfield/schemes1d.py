"""One-dimensional particle scheme for McKean-Vlasov PDEs in CDF form,
including the Burgers instance driven by a Heaviside kernel.

The update is implemented verbatim as displayed in the source scheme:
Y^i <- Y^i + mean_j K1(Y^i, Y^j) dt + sqrt(dt) mean_j K2(Y^i, Y^j) G^i,
with one gaussian per particle per step. Note the diffusion coefficient is
the plain kernel average, not the square root of an averaged square.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import RngStream, TimeGrid, pair_mean, write_csv
from .jump import MIN_BANDWIDTH
from .mckean import McKeanModel, simulate


def heaviside(z):
    """Unit step with H(0) = 1, the convention used by the Burgers kernel.
    This feeds the self-interaction term, so it is pinned by tests."""
    return np.where(np.asarray(z, dtype=float) >= 0.0, 1.0, 0.0)


@dataclass
class CdfScheme:
    """Kernel pair driving the scheme plus run geometry.

    ``k1`` and ``k2`` are pairwise kernels K(x, y) vectorized over numpy
    broadcasting, or plain floats for constant kernels (the constant short
    circuits the N^2 kernel calls of the average; the value is identical).
    ``initial(n, rng)`` samples the starting points.
    """

    k1: object
    k2: object
    n: int
    dt: float
    T: float
    initial: callable

    def __post_init__(self):
        if not (0 < self.dt <= self.T and self.n >= 1):
            raise ValueError("need n >= 1 and 0 < dt <= T (the run's TimeGrid(0, T, dt) lands on T)")


class StepCdf:
    """Empirical CDF V(x) = (1/N) sum_i H(x - Y^i): a right-continuous step
    function with values on the grid {0, 1/N, ..., 1}."""

    def __init__(self, samples, time: float = 0.0):
        self.samples = np.sort(np.asarray(samples, dtype=float).reshape(-1))
        self.time = time

    @property
    def n(self) -> int:
        return self.samples.size

    def evaluate(self, x) -> np.ndarray:
        return np.searchsorted(self.samples, np.asarray(x, dtype=float), side="right") / self.n

    def __call__(self, x):
        return self.evaluate(x)


def _kernel_mean(kernel, states, points):
    """mean_j kernel(Y^i, Y^j) for each row of the (..., n, 1) states against the (..., m, 1)
    points of its replica, through ``core.pair_mean``; a constant kernel stays a scalar."""
    if not callable(kernel):
        return float(kernel)
    return pair_mean(kernel, states, points)


def cdf_model(scheme: CdfScheme) -> McKeanModel:
    """The scheme as a McKean model: drift and diffusion are the kernel means of k1 and k2."""
    return McKeanModel(drift=lambda states, points: _kernel_mean(scheme.k1, states, points),
                       diffusion=lambda states, points: _kernel_mean(scheme.k2, states, points),
                       dim=1)


def bossy_talay_run(scheme: CdfScheme, streams: list[RngStream], checkpoints=None) -> list[list[StepCdf]]:
    """Run the scheme once per stream, as one (R, n, 1) batch through
    ``mckean.simulate`` over ``TimeGrid(0, T, dt)``, which lands on T, and
    return for each stream its empirical CDF at each checkpoint. Replica r
    draws its initial points, then its increments, from ``streams[r]``.

    ``checkpoints`` is a sequence of times (default: final time only), each
    snapped to the nearest step boundary; there is one CDF per time, in the
    order given.
    """
    grid = TimeGrid(0.0, scheme.T, scheme.dt)
    if checkpoints is None:
        checkpoints = [scheme.T]
    steps = [min(grid.steps, max(0, round(t / scheme.dt))) for t in checkpoints]
    out = [[None] * len(steps) for _ in streams]

    def record(states, t, step, first):
        for j, at in enumerate(steps):
            if at == step:
                for r, x in enumerate(states, first):
                    out[r][j] = StepCdf(x, float(t))

    x0 = np.stack([np.asarray(scheme.initial(scheme.n, s), dtype=float).reshape(scheme.n, 1) for s in streams])
    simulate(cdf_model(scheme), x0, grid, streams, observers=[record])
    return out


def burgers_scheme(sigma_const: float, initial, n: int, dt: float, T: float) -> CdfScheme:
    """Scheme whose empirical CDF approximates the viscous Burgers solution:
    K1(x, y) = H(x - y) with H(0) = 1, constant diffusion."""
    return CdfScheme(k1=lambda x, y: heaviside(x - y), k2=float(sigma_const),
                     n=n, dt=dt, T=T, initial=initial)


def smoothed_density(samples, eps: float):
    """Gaussian-kernel density x -> (1/N) sum_i phi_eps(x - Y^i) with
    phi_eps the N(0, eps^2) density. Returns a vectorized callable, which
    averages the kernel over the samples through ``core.pair_mean``."""
    if not MIN_BANDWIDTH <= eps < math.inf:  # CMC's least bandwidth: 2 eps^2 > 0 from it on
        raise ValueError(f"eps must be finite and at least jump.MIN_BANDWIDTH = {MIN_BANDWIDTH!r}")
    points = np.asarray(samples, dtype=float).reshape(-1, 1)
    if not len(points):
        raise ValueError("need at least one sample")
    bad = np.flatnonzero(~np.isfinite(points[:, 0]))
    if bad.size:
        raise ValueError(f"sample {bad[0]} is not finite: {points[bad[0], 0]}")
    # dividing by -2 eps^2, which is nonzero at every eps from MIN_BANDWIDTH
    # on, so a coincident point gives exp(0 / -2 eps^2) = 1
    neg_two_eps2 = -(2.0 * eps * eps)
    norm = 1.0 / (eps * math.sqrt(2.0 * math.pi))

    def kernel(x, y):
        return np.exp(np.square(x - y) / neg_two_eps2)

    def density(x):
        x = np.asarray(x, dtype=float)
        # a far point's log term overflows to -inf on purpose: its kernel is 0
        with np.errstate(over="ignore"):
            vals = pair_mean(kernel, x.reshape(-1, 1), points) * norm
        return vals.reshape(x.shape) if x.ndim else float(vals[0, 0])

    return density


def write_cdf_checkpoints_csv(cdfs, path):
    """Serialize checkpoint CDFs as rows ``time, sorted_sample_0..n``."""
    if not cdfs:
        raise ValueError("no checkpoints to write")
    n = cdfs[0].n
    header = "time," + ",".join(f"sorted_sample_{k}" for k in range(n))
    write_csv(path, header, ((cdf.time, *cdf.samples) for cdf in cdfs))


def l1_cdf_error(v: StepCdf, v_exact, grid) -> float:
    """Trapezoid approximation of the L1 distance between an empirical CDF
    and an exact CDF over a grid: ``v_exact`` is the CDF, or its values on
    the grid. The grid must cover the support with margin: a boundary gap
    above 1e-3 triggers a warning."""
    grid = np.asarray(grid, dtype=float)
    emp = v.evaluate(grid)
    exact = np.asarray(v_exact(grid) if callable(v_exact) else v_exact, dtype=float)
    left_gap = max(emp[0], exact[0])
    right_gap = max(1.0 - emp[-1], 1.0 - exact[-1])
    if max(left_gap, right_gap) > 1e-3:
        warnings.warn(f"integration grid too narrow: boundary CDF gap {max(left_gap, right_gap):.2g}")
    return float(np.trapezoid(np.abs(emp - exact), grid))
