"""Ensembles, seeded random streams, empirical-measure functionals and time grids.

Everything downstream (diffusions, collision models, jump processes, the
particle optimizers) is built on the two objects defined here: an
``Ensemble`` holding the states of N particles at one time instant, and
``RngStream``, a counter-based random stream that can be replayed
bit-for-bit and split into independent substreams. The empirical measure
(1/N) sum of Dirac masses has uniform weights, so it is its points: one
(n, d) ensemble's states, or the (R, n, d) points of R replicas, every
functional reducing over axis -2. Every kernel integral K * mu against such
a measure is one mechanism, ``pair_mean``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeights

_MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_STEPS = 10_000_000  # most steps of a TimeGrid: its step_durations and times take 16 bytes per step
_BLOCK = 4096  # most draws of one kind taken from a stream at once


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

    def rekey(self, stream_id: int) -> "RngStream":
        """Restart this stream, in place, as stream ``stream_id`` of its seed: it then draws
        the bits of a fresh ``RngStream(seed, stream_id)``, for a third of the cost of
        building one. Returns the stream."""
        self.stream_id = int(stream_id) & _MASK64
        zeros = np.zeros(4, dtype=np.uint64)  # counter 0, and an empty buffer with no half word
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": np.array([self.seed, self.stream_id], dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return self

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


def _block_size(expected: float) -> int:
    """Draws to take from a stream when about ``expected`` more are to come:
    the block rule of the exact Boltzmann engine, Bird's cells and the jump
    clock."""
    return min(_BLOCK, int(1.1 * expected) + 16)


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
            i = int(np.argwhere(~np.isfinite(arr))[0, 0])
            raise ValueError(f"ensemble states must be finite: particle {i} is {arr[i].tolist()}")
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


def empirical_mean(points: np.ndarray) -> np.ndarray:
    """The (d,) mean of one (n, d) ensemble's points, or the (R, 1, d)
    per-replica means of an (R, n, d) batch, shaped to broadcast against
    its states."""
    # the particle sum divided by n is np.mean's result, bit for bit
    return np.add.reduce(points, axis=-2, keepdims=points.ndim > 2) / points.shape[-2]


# pair_mean keeps each block of (..., rows, m, d) pairs at or below
# _PAIR_FLOATS floats (128 KB), with at least one row per block.
_PAIR_FLOATS = 16384


def pair_mean(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(1/m) sum_j fn(x^i, y^j) for each row of x (..., n, d) against the
    y (..., m, d) of its replica; ``fn`` takes broadcast (..., rows, 1, d)
    and (..., 1, m, d) blocks. Each row's mean is the one of the dense
    (..., n, m, d) formula, bit for bit; an x of no rows gives (..., 0, k)."""
    if not y.shape[-2]:
        raise ValueError("need at least one point y^j to average over")
    rows = max(1, _PAIR_FLOATS // max(1, x[..., :1, :].size * y.shape[-2]))
    # an x of no rows is one empty block, so the result still has fn's shape
    starts = range(0, max(1, x.shape[-2]), rows)
    blocks = (fn(x[..., lo:lo + rows, None, :], y[..., None, :, :]) for lo in starts)
    return np.concatenate([np.asarray(b, dtype=float).mean(axis=-2) for b in blocks], axis=-2)


def weighted_mean(pts: np.ndarray, w=None, log_w=None) -> np.ndarray:
    """Weighted average of particle positions: the (d,) mean of one (n, d)
    ensemble, or one per replica of an (..., n, d) batch, bit for bit a lone call's.

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


def empirical_moments(pts: np.ndarray, p: int) -> np.ndarray:
    """Coordinate-wise p-th moment (1/N) sum_i (x^i_k)^p: the (d,) moments of
    one (n, d) ensemble, or one row per replica of an (..., n, d) batch, bit
    for bit a lone call's."""
    if p < 1:
        raise ValueError("moment order p must be >= 1")
    return np.mean(pts ** p, axis=-2)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [t0, t_end] with step dt.

    ``steps`` is round((t_end - t0)/dt), at most MAX_STEPS; when dt does
    not divide the interval exactly, the final step absorbs the leftover
    duration so the grid always lands on t_end.
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
        ratio = (self.t_end - self.t0) / self.dt
        if not np.isfinite(ratio):
            raise ValueError(f"need a finite step count (t_end - t0) / dt, got {ratio} "
                             f"for [{self.t0}, {self.t_end}] at dt={self.dt}")
        steps = max(1, round(ratio))
        if steps > MAX_STEPS:
            raise ValueError(f"step count {steps:.4g} for [{self.t0}, {self.t_end}] at dt={self.dt} is above the "
                             f"maximum {MAX_STEPS}: its grid arrays would take {16 * steps / 1e6:.4g} MB")
        object.__setattr__(self, "steps", steps)

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
