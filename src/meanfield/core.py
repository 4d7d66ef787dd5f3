"""Ensembles, seeded random streams, empirical-measure functionals and time grids.

Everything downstream (diffusions, collision models, jump processes, the
particle optimizers) is built on the three objects defined here: an
``Ensemble`` holding the states of N particles at one time instant, the
``EmpiricalMeasure`` view interpreting it as the uniform atomic measure
(1/N) sum of Dirac masses, and ``RngStream``, a counter-based random stream
that can be replayed bit-for-bit and split into independent substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeights

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(a: int, b: int) -> int:
    # splitmix64-style mixing, used to derive substream ids deterministically
    z = (a + 0x9E3779B97F4A7C15 * (b + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngStream:
    """A replayable random stream keyed by (seed, stream_id).

    Built on the counter-based Philox generator, so two streams with
    distinct keys are statistically independent and the draw order inside
    one stream never affects another. Replaying the same (seed, stream_id)
    reproduces the identical sequence bit-for-bit.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        self.gen = np.random.Generator(self._bitgen)

    def substream(self, index: int) -> "RngStream":
        """Derive the index-th child stream, independent of this one and of
        every other child. Derivation is pure arithmetic on the key, so
        substreams may be created in any order."""
        return RngStream(self.seed, _mix64(self.stream_id, int(index)))

    # thin passthroughs so call sites read naturally
    def normal(self, size=None):
        return self.gen.standard_normal(size)

    def uniform(self, size=None):
        return self.gen.random(size)  # Generator.uniform() is 0 + 1 * random(): the same bits

    def exponential(self, scale=1.0, size=None):
        return self.gen.exponential(scale, size=size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def make_rng(seed: int, stream_id: int = 0) -> RngStream:
    """Create a deterministic, replayable random stream."""
    return RngStream(seed, stream_id)


@dataclass
class Ensemble:
    """States of N particles at one time instant.

    ``states`` is an (n, dim) float array in particle-major layout: the d
    coordinates of particle i are adjacent, which is the dominant access
    pattern of every per-particle drift evaluation.
    """

    states: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"states must be 1-D or 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need n >= 1 and dim >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ensemble states must be finite")
        self.states = np.ascontiguousarray(arr)
        self.time = float(self.time)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def copy(self) -> "Ensemble":
        return Ensemble(self.states.copy(), self.time)

    def measure(self) -> "EmpiricalMeasure":
        return EmpiricalMeasure(self)


class EmpiricalMeasure:
    """Non-owning view of an ensemble as the measure (1/N) sum of delta_{x^i}.

    Weights are uniform by construction, so the total mass is exactly 1.
    The view may also wrap the (R, n, d) points of R replicas, unvalidated;
    ``ensemble`` is then None and every reduction over particles runs over
    axis -2, one measure per replica.
    """

    def __init__(self, ensemble: Ensemble | np.ndarray):
        if isinstance(ensemble, np.ndarray):
            self.ensemble, self._points = None, ensemble
        else:
            self.ensemble, self._points = ensemble, None

    @property
    def points(self) -> np.ndarray:
        return self._points if self.ensemble is None else self.ensemble.states

    @property
    def n(self) -> int:
        return self.points.shape[-2]

    def mean(self) -> np.ndarray:
        """The (d,) mean of one ensemble, or the (R, 1, d) per-replica means
        of a batch, shaped to broadcast against its (R, n, d) states."""
        pts = self.points
        # the particle sum divided by n is np.mean's result, bit for bit
        return np.add.reduce(pts, axis=-2, keepdims=pts.ndim > 2) / pts.shape[-2]


def kernel_convolve(mu: EmpiricalMeasure, kernel, x) -> np.ndarray:
    """Convolution of a two-point kernel with an empirical measure; deprecated for ``pair_mean``.

    Returns (1/N) sum_j kernel(x, y_j). The kernel is called once with the
    full (n, d) array of support points and must broadcast over its rows:
    ``kernel(x, ys)`` with ys of shape (n, d) returns an (n,) or (n, m)
    array. The result has the kernel's output dimension.
    """
    x = np.asarray(x, dtype=float)
    ys = mu.points
    values = np.asarray(kernel(x, ys), dtype=float)
    if values.shape[0] != ys.shape[0]:
        raise ValueError(
            f"kernel must return one row per support point, got shape {values.shape} for n={ys.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.argwhere(~np.isfinite(values))[0][0])
        raise ValueError(f"kernel returned a non-finite value at support point index {bad}")
    return values.mean(axis=0)


# pair_mean keeps each block of (..., rows, m, d) pairs at or below
# _PAIR_FLOATS floats (128 KB), with at least one row per block.
_PAIR_FLOATS = 16384


def pair_mean(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(1/m) sum_j fn(x^i, y^j) for each row of x (..., n, d) against the
    y (..., m, d) of its replica; ``fn`` takes broadcast (..., rows, 1, d)
    and (..., 1, m, d) blocks. Each row's mean is the one of the dense
    (..., n, m, d) formula, bit for bit."""
    rows = max(1, _PAIR_FLOATS // (x.size // x.shape[-2] * y.shape[-2]))
    blocks = (fn(x[..., lo:lo + rows, None, :], y[..., None, :, :]) for lo in range(0, x.shape[-2], rows))
    return np.concatenate([np.asarray(b, dtype=float).mean(axis=-2) for b in blocks], axis=-2)


def weighted_mean(ensemble: Ensemble | np.ndarray, w=None, log_w=None) -> np.ndarray:
    """Weighted average of particle positions: the (d,) mean of one ensemble,
    or one per replica of an (..., n, d) batch, bit for bit a lone call's.

    Exactly one of ``w`` (a nonnegative weight function of the state) or
    ``log_w`` (its logarithm, for weights of the form exp(score)) must be
    given. The log form is evaluated with a shift by the replica's maximum
    log-weight, so exponential weights with large exponents never
    underflow; it is the route used by the consensus-point computation.

    Raises ``DegenerateWeights`` when every weight is zero or non-finite,
    or when a log-weight is +inf (its weight would swamp all the others).
    """
    if (w is None) == (log_w is None):
        raise ValueError("provide exactly one of w or log_w")
    pts = ensemble if isinstance(ensemble, np.ndarray) else ensemble.states
    if log_w is not None:
        lw = np.asarray(log_w(pts), dtype=float).reshape(pts.shape[:-1])
        lw = np.where(np.isnan(lw), -np.inf, lw)
        shift = lw.max(axis=-1, keepdims=True)
        _raise_degenerate("log-weight of +inf at particle {particle}", lw == np.inf)
        _raise_degenerate("all log-weights are -inf or nan", ~np.isfinite(shift))
        weights = np.exp(lw - shift)
    else:
        weights = np.asarray(w(pts), dtype=float).reshape(pts.shape[:-1])
        weights = np.where(np.isfinite(weights), weights, 0.0)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
    total = weights.sum(axis=-1, keepdims=True)
    _raise_degenerate("weights sum to zero", ~((total > 0) & np.isfinite(total)))
    # one (1, n) @ (n, d) product per replica: the bits of ``weights @ pts``
    return (weights[..., None, :] @ pts)[..., 0, :] / total


def _raise_degenerate(message: str, mask: np.ndarray):
    """Raise DegenerateWeights at the first True entry of ``mask``, if any."""
    if mask.any():
        *replica, particle = np.argwhere(mask)[0].tolist()
        where = f" (replica {', '.join(map(str, replica))})" if replica else ""
        raise DegenerateWeights(message.format(particle=particle) + where)


def empirical_moments(ensemble: Ensemble, p: int) -> np.ndarray:
    """Coordinate-wise p-th moment (1/N) sum_i (x^i_k)^p."""
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    return np.mean(ensemble.states ** p, axis=0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [t0, t_end] with step dt.

    ``steps`` is round((t_end - t0)/dt); when dt does not divide the
    interval exactly, the final step absorbs the leftover duration so the
    grid always lands on t_end.
    """

    t0: float
    t_end: float
    dt: float
    steps: int = field(init=False)

    def __post_init__(self):
        if not self.t0 < self.t_end:
            raise ValueError(f"need t0 < t_end, got [{self.t0}, {self.t_end}]")
        if not 0 < self.dt <= self.t_end - self.t0:
            raise ValueError(f"need 0 < dt <= t_end - t0, got dt={self.dt}")
        object.__setattr__(self, "steps", max(1, round((self.t_end - self.t0) / self.dt)))

    def step_durations(self) -> np.ndarray:
        """Per-step durations; all equal to dt except a final partial step."""
        durations = np.full(self.steps, self.dt)
        durations[-1] = self.t_end - self.t0 - self.dt * (self.steps - 1)
        return durations

    def times(self) -> np.ndarray:
        """The steps+1 grid times from t0 to t_end inclusive."""
        return np.concatenate([[self.t0], self.t0 + np.cumsum(self.step_durations())])


def csv_row(values) -> str:
    """One CSV line, newline included. A Python or numpy float is written as
    the shortest round-trip ``repr`` of ``float(x)``; anything else as
    ``str(x)``. Every table the package writes formats its rows here."""
    return ",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                    for x in values) + "\n"


def write_csv(path, header: str, rows) -> None:
    """Write the ``header`` line, then one ``csv_row`` line per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(map(csv_row, rows))
