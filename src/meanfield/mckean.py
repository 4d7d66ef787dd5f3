"""McKean-Vlasov diffusions: Euler-Maruyama simulation, factories for the
named interacting systems, and the synchronous-coupling harness that
measures the distance to the nonlinear limit empirically.

Drift and diffusion callables are vectorized over particles and replicas:
they receive a (..., n, d) state array together with the points of the
matching empirical measure and return per-particle values. Within one
explicit step every particle sees the same pre-step measure of its own
replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Ensemble, RngStream, TimeGrid, csv_row, empirical_mean, empirical_moments,
                   pair_mean, write_csv)
from .errors import ModelSpecError, StepError, UnsupportedReference


@dataclass
class McKeanModel:
    """Drift/diffusion specification b(x, mu), sigma(x, mu) on R^dim.

    Both callables take states of shape (..., n, d): one (n, d) ensemble,
    or an (R, n, d) batch of R replicas advanced together. ``points`` are
    the (..., m, d) points of the matching empirical measure mu, whose
    weights are uniform; m may differ from n (a nonlinear process reads a
    larger surrogate's measure). Reductions over the measure run over axis
    -2, so each replica sees its own measure only. ``drift(states,
    points)`` returns a (..., n, d) array. ``diffusion(states, points)`` may
    return a scalar (isotropic), a (..., n) array (per-particle scalar), a
    (..., n, d) array (per-particle diagonal) or a (..., n, d, d) array of
    full matrices. A pairwise interaction reduces through
    ``core.pair_mean``, whose blocks bound its memory whatever the batch.
    The coupling harness reuses its state buffers across steps, so a
    callable must not keep the arrays it is given.
    """

    drift: callable
    diffusion: callable
    dim: int


def _apply_diffusion(sigma, xi):
    """Map noise increments xi (..., n, d) through a diffusion coefficient.
    A float is applied as ``sigma * xi`` without array conversion, and 1.0,
    exactly the identity on doubles, returns xi itself."""
    if isinstance(sigma, float):
        return xi if sigma == 1.0 else sigma * xi
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0 or sigma.ndim == xi.ndim:
        return sigma * xi
    if sigma.ndim == xi.ndim - 1:
        return sigma[..., None] * xi
    if sigma.ndim == xi.ndim + 1:
        return np.einsum("...ij,...j->...i", sigma, xi)
    raise ValueError(f"unsupported diffusion shape {sigma.shape}")


def _raise_non_finite(what, arr, batched, first_replica, step, time):
    """Raise a StepError naming the replica and particle of the first
    non-finite entry of a per-particle array. A replica axis exists only in
    a batch, a particle axis only in a non-scalar array."""
    idx = [int(i) for i in np.argwhere(~np.isfinite(arr))[0]]
    replica = idx.pop(0) + first_replica if batched and idx else None
    raise StepError(f"non-finite {what}", replica=replica, particle=idx[0] if idx else None,
                    step=step, time=time)


def _em_update(model, states, h, root_h, xi, time, step, first_replica=0, system="", out=None):
    """One explicit Euler-Maruyama update against the states' own pre-step measure, for an
    (n, d) ensemble or an (R, n, d) batch whose first replica has index
    ``first_replica``: ``states + b h + (sigma xi) sqrt(h)``, with
    ``root_h`` = sqrt(h). Returns the new states, sigma and the noise term
    (sigma xi) sqrt(h), which a copy driven by the same xi may reuse.
    The new states are a new array, or ``out``: an array of the states'
    shape that none of the other arguments share memory with.

    Finiteness is checked once, on the updated states: a non-finite drift
    or diffusion always makes them non-finite, and only then are the
    coefficients searched for the cause.
    """
    b = np.asarray(model.drift(states, states), dtype=float)
    sigma = model.diffusion(states, states)
    term = _apply_diffusion(sigma, xi) * root_h
    new = np.empty_like(states) if out is None else out
    np.add(states, np.multiply(b, h, out=new), out=new)
    np.add(new, term, out=new)
    if np.count_nonzero(np.isfinite(new)) != new.size:  # np.isfinite(new).all(), counted faster
        batched = states.ndim == 3
        for what, arr in (("drift", b), ("diffusion", np.asarray(sigma, dtype=float)), ("state", new)):
            if not np.isfinite(arr).all():
                _raise_non_finite(system + what, arr, batched, first_replica, step, time)
    return new, sigma, term


def _em_loop(model, x, t, grid, streams, first=0, observers=()):
    """The one Euler-Maruyama loop, from states ``x`` at time ``t`` over
    ``grid``: one (n, d) ensemble, or an (R, n, d) batch with first replica
    ``first``, each step seeing the measure of ``x`` itself; row r draws
    from ``streams[r]``. Each observer is called as ``obs(x, t, step, first)``
    at step 0 and after each step; it must not write to ``x``, and may keep
    it: every step makes a new array."""
    for obs in observers:
        obs(x, t, 0, first)
    durations = grid.step_durations().tolist()
    for k0, block in _noise_steps(streams, x.shape[-2:], grid.steps):
        for k, xi in enumerate(block.reshape(-1, *x.shape), k0):
            h = durations[k]
            x = _em_update(model, x, h, math.sqrt(h), xi, t, k, first)[0]
            t += h
            for obs in observers:
                obs(x, t, k + 1, first)
    return x, t


def step_em(model: McKeanModel, ensemble: Ensemble, dt: float, rng: RngStream) -> Ensemble:
    """Advance an ensemble by one explicit Euler-Maruyama step.

    x^i <- x^i + b(x^i, mu) dt + sigma(x^i, mu) sqrt(dt) xi^i with iid
    standard gaussian xi^i; mu is the pre-step empirical measure for every
    particle. This is ``simulate`` over the one-step grid [0, dt].
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    return simulate(model, ensemble, TimeGrid(0.0, dt, dt), rng)


def simulate(model: McKeanModel, e0: Ensemble | np.ndarray, grid: TimeGrid, rng, observers=()):
    """Advance one Ensemble, run from ``e0.time`` with its stream ``rng``; or
    an (R, n, d) array with a list of R streams, run from ``grid.t0`` in
    groups of ``_batch_width`` replicas, row r depending on ``rng[r]`` only.
    Observers ``obs(states, t, step, first)`` see the states at step 0 and
    after each step: the (n, d) ensemble with ``first`` 0, or each (Rb, n, d)
    group of a batch, whose first replica is ``first``. A StepError names
    its step, particle and, in a batch, replica."""
    if isinstance(e0, Ensemble):
        if model.dim != e0.dim:
            raise ValueError(f"model dim {model.dim} != ensemble dim {e0.dim}")
        return Ensemble(*_em_loop(model, e0.states, e0.time, grid, [rng], observers=observers))
    states = np.asarray(e0, dtype=float)
    if states.ndim != 3 or not states.shape[1] or states.shape[2] != model.dim or len(rng) != len(states):
        raise ValueError(f"need (R, n >= 1, {model.dim}) states and one stream per replica, got {states.shape}")
    t0 = float(grid.t0)
    if not np.isfinite(states).all():
        _raise_non_finite("initial state", states, True, 0, 0, t0)
    final = np.empty_like(states)
    width = _batch_width(states.shape[1], model.dim)
    for first in range(0, len(states), width):
        batch = slice(first, first + width)
        final[batch], _ = _em_loop(model, states[batch], t0, grid, rng[batch], first, observers)
    return final


class MomentTracker:
    """Observer recording coordinate-wise p-th moments at every step: a (d,)
    row for a lone run, one (R, d) array of per-replica rows for a batch."""

    def __init__(self, p: int = 2):
        if p < 1:
            raise ValueError("moment order p must be >= 1")
        self.p = p
        self.times = []
        self.values = []

    def __call__(self, states: np.ndarray, t: float, step: int, first: int):
        moments = empirical_moments(states, self.p)
        if first == 0:
            if step == 0:
                self._start = len(self.values)
            self.times.append(float(t))
            self.values.append(moments)
        else:  # a later group of a batch: its rows extend the step's array
            at = self._start + step
            self.values[at] = np.concatenate([self.values[at], moments])


class SnapshotWriter:
    """Observer appending particle states as CSV rows
    ``time, replica, particle, coord0..coordD``: the states of a lone run,
    or row ``replica`` of a batch. Use it as a context manager, or call
    ``close``; the file is open from construction on."""

    def __init__(self, path, replica: int = 0, every: int = 1):
        self.path = path
        self.replica = replica
        self.every = every
        self._file = open(path, "w", newline="\n")
        self._header_written = False

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __call__(self, states: np.ndarray, t: float, step: int, first: int):
        if not self._header_written:
            coords = ",".join(f"coord{k}" for k in range(states.shape[-1]))
            self._file.write(f"time,replica,particle,{coords}\n")
            self._header_written = True
        if states.ndim == 3:
            if not first <= self.replica < first + len(states):
                return
            states = states[self.replica - first]
        if step % self.every:
            return
        self._file.writelines(csv_row((t, self.replica, i, *row)) for i, row in enumerate(states))

    def close(self):
        self._file.close()


# ---------------------------------------------------------------------------
# Reference laws for the synchronous coupling


@dataclass
class GaussianReference:
    """Exact law of the 1-D mean-field OU limit: f_t gaussian with
    m' = -lam m and v' = -2 (lam + kappa) v + 1, both in closed form.
    The nonlinear drift is -lam x - kappa (x - m(t)) with unit diffusion.
    """

    lam: float
    kappa: float
    m0: float
    v0: float

    exact = True

    def __post_init__(self):
        if self.v0 < 0:
            raise ValueError("initial variance must be nonnegative")

    def mean(self, t: float) -> float:
        return self.m0 * math.exp(-self.lam * t)

    def variance(self, t: float) -> float:
        rate = 2.0 * (self.lam + self.kappa)
        if rate == 0.0:
            return self.v0 + t
        v_inf = 1.0 / rate
        return v_inf + (self.v0 - v_inf) * math.exp(-rate * t)

    def initial(self, n: int, rng: RngStream) -> np.ndarray:
        return self.m0 + math.sqrt(self.v0) * rng.normal((n, 1))

    def check_model(self, model: McKeanModel):
        """Refuse a model other than the one this law solves: 1-D, unit diffusion and drift
        -lam x - kappa (x - m) to a relative 1e-12, probed against a measure of mean m = 0.25."""
        if model.dim != 1:
            raise UnsupportedReference(f"exact gaussian reference needs a 1-D model, got dim {model.dim}")
        states = np.array([[-2.0], [-0.5], [1.0], [3.0]])
        points = np.array([[-1.5], [0.25], [2.0]])
        want = -self.lam * states - self.kappa * (states - 0.25)
        b = np.asarray(model.drift(states, points), dtype=float)
        if b.shape != want.shape or not (np.array_equal(b, want)  # equal even where both overflow
                                         or np.abs(b - want).max() <= 1e-12 * np.abs(want).max()):
            raise UnsupportedReference(f"model drift is not -{self.lam!r} x - {self.kappa!r} (x - m)")
        if not np.all(np.asarray(model.diffusion(states, points), dtype=float) == 1.0):
            raise UnsupportedReference("exact gaussian reference needs a unit diffusion")

    def drift(self, states: np.ndarray, t: float) -> np.ndarray:
        return -self.lam * states - self.kappa * (states - self.mean(t))

    def diffusion(self, states: np.ndarray, t: float) -> float:
        return 1.0


@dataclass
class SurrogateReference:
    """Frozen large-ensemble stand-in for the limit law f_t.

    ``initial(n, rng)`` draws n points as an (n, dim) array: the shared
    initial states, and per replica a surrogate of ``factor * n`` particles,
    run under the coupled model, whose measure the nonlinear copies read.
    The size factor 16 is a tunable default, not a modelling constant.
    """

    initial: callable  # (n, rng) -> (n, d) array
    factor: int = 16

    exact = False

    def __post_init__(self):
        if not isinstance(self.factor, (int, np.integer)) or self.factor < 1:
            raise ValueError(f"factor must be an integer >= 1, got {self.factor!r}")


@dataclass
class CouplingReport:
    """Per-time mean-square synchronous-coupling error, replica-averaged."""

    times: np.ndarray
    mse: np.ndarray
    n: int
    replicas: int

    @property
    def sup_mse(self) -> float:
        return float(np.max(self.mse))

    def mse_at(self, t: float) -> float:
        return float(self.mse[int(np.argmin(np.abs(self.times - t)))])

    def write_csv(self, path):
        write_csv(path, "time,n,replicas,mse",
                  ((t, self.n, self.replicas, m) for t, m in zip(self.times, self.mse)))


def ou_reference(lam: float, kappa: float, m0: float, v0: float) -> GaussianReference:
    """Exact reference law for the 1-D mean-field OU model
    b(x, mu) = -lam x - kappa (x - m(mu)), sigma = 1."""
    return GaussianReference(lam=lam, kappa=kappa, m0=m0, v0=v0)


def mean_field_ou_model(lam: float, kappa: float) -> McKeanModel:
    """1-D model with linear confinement plus mean reversion to the
    ensemble mean, b(x, mu) = -lam x - kappa (x - m(mu)), sigma = 1. The
    ensemble mean includes the particle itself."""

    def drift(states, points):
        return -lam * states - kappa * (states - empirical_mean(points))

    return McKeanModel(drift=drift, diffusion=lambda states, points: 1.0, dim=1)


# simulate and the coupling engine advance replicas in batches whose (Rb, n, d)
# states hold at most _BATCH_FLOATS floats (64 KB); pairwise temporaries are
# bounded by core.pair_mean's blocks instead. A replica too large for
# that runs alone, as it would without batching. Noise is drawn for several
# steps at once, in blocks of at most _NOISE_FLOATS floats (256 KB).
_BATCH_FLOATS = 8192
_NOISE_FLOATS = 32768


def _batch_width(particles: int, dim: int) -> int:
    """Replicas per batch for ensembles of ``particles`` points in R^dim."""
    return max(1, _BATCH_FLOATS // (particles * dim))


def _noise_steps(streams, shape, steps):
    """Yield ``(k0, block)`` for each block of steps: ``block`` holds the
    (k, R, *shape) normal increments of steps k0 .. k0 + k - 1, row r from
    ``streams[r]``. A stream draws a block per call, which gives the same
    variates in the same order as one draw per step. One stream's block is
    its draw itself, viewed with a replica axis."""
    per_step = len(streams) * math.prod(shape)
    block = max(1, _NOISE_FLOATS // per_step)
    for start in range(0, steps, block):
        k = min(block, steps - start)
        if len(streams) == 1:
            yield start, streams[0].normal((k, *shape))[:, None]
        else:
            yield start, np.stack([s.normal((k, *shape)) for s in streams], axis=1)


def _mean_square(diff: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(1/n) sum_i |diff^i|^2 of each (n, d) ensemble of a (..., n, d) array,
    bit for bit equal to ``np.mean(np.sum(diff[r] ** 2, axis=1))``: every
    particle sum runs over the same contiguous axis, whatever the leading axes.
    The squares are written to ``sq``, an array of diff's shape."""
    np.multiply(diff, diff, out=sq)
    per_particle = sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)
    return np.add.reduce(per_particle, axis=-1) / diff.shape[-2]


def _same_float(a, b) -> bool:
    """Whether a and b are floats with the same bits: equal, and of the same
    sign if zero, since 0.0 * xi and -0.0 * xi are zeros of opposite signs."""
    return (isinstance(a, float) and isinstance(b, float) and a == b
            and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b)))


def _reference_drift(ref, x_bar, t, step):
    """The exact reference's drift at time t; a closed form that overflows
    there raises a StepError naming the reference, the step and the time."""
    try:
        return ref.drift(x_bar, t)
    except OverflowError:
        raise StepError(f"non-finite reference drift: {type(ref).__name__} overflows",
                        step=step, time=t) from None


def _initial_batch(ref, n, d, streams, k, what, first, t0):
    """Stack ``ref.initial(n, s.substream(k))`` over streams, refusing draws not (n, d) or not finite."""
    x = np.stack([np.asarray(ref.initial(n, s.substream(k)), dtype=float) for s in streams])
    if x.shape[1:] != (n, d):
        raise ValueError(f"reference initial states must have shape {(n, d)}, got {x.shape[1:]}")
    if not np.isfinite(x).all():
        _raise_non_finite(what, x, True, first, 0, t0)
    return x


def _coupling_batch(model, ref, n, grid, streams, first, out):
    """Advance the coupled systems of ``len(streams)`` replicas together as
    (Rb, n, d) arrays and write their squared coupling errors into the
    (Rb, steps + 1) array ``out``. ``first`` is the index of the batch's
    first replica, used in error reports.

    Replica r draws from ``streams[r]`` exactly as a lone replica would:
    initial states from substream 0, the shared increments from
    substream 1, and for a surrogate reference its initial states and
    increments from substreams 2 and 3. x and x_bar share each increment;
    when both diffusions are the same float, they share its noise term too.
    The x - x_bar of a noise block's steps are reduced, then checked, at once.

    x and x_bar advance in buffers allocated once per batch, which the
    coefficients see and later steps overwrite. Each step's x - x_bar
    overwrites the increments it has used, and the squares go to one buffer
    per batch, the only array of a block's size besides the draws.
    """
    d = model.dim
    x = _initial_batch(ref, n, d, streams, 0, "initial state", first, grid.t0)
    noise = _noise_steps([s.substream(1) for s in streams], (n, d), grid.steps)
    x_bar = x.copy()
    spare, scratch = np.empty_like(x), np.empty_like(x)
    if not ref.exact:
        m = ref.factor * n
        surrogate = _initial_batch(ref, m, d, streams, 2, "initial surrogate state", first, grid.t0)
        surrogate_spare = np.empty_like(surrogate)
        surrogate_noise = (xi for _, block in _noise_steps([s.substream(3) for s in streams], (m, d), grid.steps)
                           for xi in block)

    out[:, 0] = 0.0
    t = grid.t0
    durations = grid.step_durations().tolist()
    squares = None
    for k0, block in noise:
        if squares is None:  # the first block is the longest
            squares = np.empty_like(block)
        for k, xi in enumerate(block, k0):
            h = durations[k]
            root_h = math.sqrt(h)
            if ref.exact:
                b_bar = _reference_drift(ref, x_bar, t, k)
                sig_bar = ref.diffusion(x_bar, t)
            else:
                b_bar = model.drift(x_bar, surrogate)
                sig_bar = model.diffusion(x_bar, surrogate)
                surrogate, surrogate_spare = _em_update(model, surrogate, h, root_h, next(surrogate_noise), t, k,
                                                        first, "surrogate ", out=surrogate_spare)[0], surrogate
            new, sigma, term = _em_update(model, x, h, root_h, xi, t, k, first, out=spare)
            x, spare = new, x
            if not _same_float(sigma, sig_bar):
                term = _apply_diffusion(sig_bar, xi) * root_h
            # x_bar + b_bar h + term, as two sums in place
            np.add(x_bar, np.multiply(np.asarray(b_bar, dtype=float), h, out=scratch), out=x_bar)
            np.add(x_bar, term, out=x_bar)
            t += h
            np.subtract(x, x_bar, out=xi)  # xi is used up: its slot keeps x - x_bar
        diffs = block
        mse = _mean_square(diffs, squares[:len(diffs)])
        if not np.isfinite(mse).all() and not np.isfinite(diffs).all():
            j = int(np.argwhere(~np.isfinite(diffs))[0, 0])
            _raise_non_finite("nonlinear copy state", diffs[j], True, first, k0 + j, float(grid.times()[k0 + j]))
        out[:, k0 + 1:k0 + len(block) + 1] = mse.T


def coupling_mse_rows(
    model: McKeanModel, ref, n: int, grid: TimeGrid, streams: list[RngStream]
) -> np.ndarray:
    """Squared coupling error per grid time for each replica stream, as an
    (R, steps + 1) array with one row per stream.

    The interacting system and the nonlinear system share initial states
    and reuse the identical gaussian increments per particle per step; only
    the measure their coefficients see differs (empirical vs reference).
    Replicas advance in batches whose per-step arrays hold at most
    ``_BATCH_FLOATS`` floats (a surrogate reference sizes them by its
    ``factor * n`` particles); a row depends on its own stream only, never
    on the batch.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 particles, got replicas of shape ({len(streams)}, {n}, {model.dim})")
    rows = np.empty((len(streams), grid.steps + 1))
    width = _batch_width(n if ref.exact else ref.factor * n, model.dim)
    for first in range(0, len(streams), width):
        _coupling_batch(model, ref, n, grid, streams[first:first + width], first,
                        rows[first:first + width])
    return rows


def coupling_replica_mse(model: McKeanModel, ref, n: int, grid: TimeGrid, stream: RngStream) -> np.ndarray:
    """Squared coupling error per grid time for one replica stream."""
    return coupling_mse_rows(model, ref, n, grid, [stream])[0]


def simulate_synchronous_coupling(
    model: McKeanModel, ref, n: int, grid: TimeGrid, rng: RngStream, replicas: int = 1
) -> CouplingReport:
    """Measure the propagation-of-chaos error by coupling the trajectories.

    Evolves the N-particle system and N nonlinear processes driven by the
    reference law with the same noise, and returns the per-time value of
    (1/N) sum_i E|X^i_t - Xbar^i_t|^2 averaged over replicas. Replica r
    uses ``rng.substream(r)``; the average sums the rows in replica order.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    if ref.exact:
        ref.check_model(model)
    rows = coupling_mse_rows(model, ref, n, grid, [rng.substream(r) for r in range(replicas)])
    return CouplingReport(times=grid.times(), mse=np.mean(rows, axis=0), n=n, replicas=replicas)


# ---------------------------------------------------------------------------
# Model factories


def gradient_system_model(
    grad_V, grad_W, sigma_const: float, dim: int = 1, grad_W_conv=None
) -> McKeanModel:
    """Gradient system b(x, mu) = -grad V(x) - grad W * mu(x), sigma = const.

    ``grad_V`` and ``grad_W`` act row-wise on (..., d) arrays. The
    interaction gradient must be odd; this is probed at construction on
    eight points drawn from the fixed stream ``RngStream(2024, 777)``.
    ``grad_W_conv(states, points)``, when supplied, is a closed form
    for the convolution grad W * mu evaluated at each state
    (e.g. x - mean for quadratic W), replacing the O(N^2) pairwise sum. It
    takes (..., n, d) states and the (..., m, d) support points of their
    replicas' measures, and reduces over axis -2. The pairwise sum
    includes the self term, which vanishes for odd gradients.
    """
    probes = RngStream(2024, 777).gen.standard_normal((8, dim)) * 3.0
    odd_gap = np.abs(np.asarray(grad_W(probes)) + np.asarray(grad_W(-probes)))
    if np.any(odd_gap > 1e-8):
        raise ModelSpecError("grad_W fails the odd-symmetry probe; W must be symmetric")

    if grad_W_conv is not None:
        def interaction(states, points):
            return np.asarray(grad_W_conv(states, points), dtype=float)
    else:
        def interaction(states, points):
            return pair_mean(lambda x, y: grad_W(x - y), states, points)

    def drift(states, points):
        return -np.asarray(grad_V(states), dtype=float) - interaction(states, points)

    return McKeanModel(drift=drift, diffusion=lambda states, points: float(sigma_const), dim=dim)


def kuramoto_model(coupling: float, n: int | None = None, disorder_sampler=None, rng: RngStream | None = None) -> McKeanModel:
    """Coupled oscillators d theta^i = xi_i dt - (K/N) sum_j sin(theta^i - theta^j) dt + dB^i.

    The natural frequencies xi_i are quenched: drawn once at construction
    (``disorder_sampler(n, rng)``) and frozen for the model's lifetime.
    Phases live in R; reduce mod 2 pi only for reporting. The alignment sum
    runs over the measure's points theta^j, which may differ from the
    states (a nonlinear copy reads a surrogate), and is evaluated through
    the complex order parameter, so each step is O(N + M). When the points
    are the states array itself, their phases are computed once.
    """
    if disorder_sampler is not None:
        if n is None or rng is None:
            raise ModelSpecError("quenched disorder needs n and an rng at construction")
        disorder = np.asarray(disorder_sampler(n, rng), dtype=float).reshape(n)
    else:
        disorder = None

    def drift(states, points):
        theta = states[..., 0]
        if disorder is not None and theta.shape[-1] != disorder.shape[0]:
            raise ValueError("ensemble size differs from the quenched disorder draw")
        phase = np.exp(1j * theta)
        # the interacting system reads its own measure: its phases are the states'
        mu_phase = phase if points is states else np.exp(1j * points[..., 0])
        z = np.mean(mu_phase, axis=-1, keepdims=True)
        align = -coupling * np.imag(phase * np.conj(z))
        if disorder is not None:
            align = align + disorder
        return align[..., None]

    return McKeanModel(drift=drift, diffusion=lambda states, points: 1.0, dim=1)


def cucker_smale_model(gamma: float, sigma_const: float, d: int = 1) -> McKeanModel:
    """Flocking model on states (x, v) in R^d x R^d.

    dx = v dt; dv = (1/N) sum_j K(|x^j - x^i|) (v^j - v^i) dt + sigma dB
    with the observation kernel K(r) = (1 + r^2)^(-gamma/2). Noise acts on
    the velocity block only. The self term of the alignment sum is zero and
    is kept in the average.
    """
    if gamma <= 0:
        raise ModelSpecError("gamma must be positive")
    if d < 1:
        raise ModelSpecError("d must be >= 1")

    def align(x, y):
        k = (1.0 + np.sum((y[..., :d] - x[..., :d]) ** 2, axis=-1)) ** (-gamma / 2.0)
        return k[..., None] * (y[..., d:] - x[..., d:])

    def drift(states, points):
        return np.concatenate([states[..., d:], pair_mean(align, states, points)], axis=-1)

    def diffusion(states, points):
        sig = np.zeros(states.shape)
        sig[..., d:] = sigma_const
        return sig

    return McKeanModel(drift=drift, diffusion=diffusion, dim=2 * d)


def regularized_coulomb_model(xi_strength: float, eps: float, sigma_const: float, d: int = 2) -> McKeanModel:
    """First-order system with the regularized Coulomb force
    F_eps(x) = xi x / max(|x|, eps)^d; dX = F_eps * mu dt + sigma dB.

    The self term j = i is excluded from the interaction sum; since
    F_eps(0) = 0 exactly, dropping it leaves the 1/N average unchanged, so
    no index bookkeeping is needed. Clamping the denominator at eps keeps
    the force bounded at coincident particles.
    """
    if eps <= 0:
        raise ModelSpecError("the regularization eps must be strictly positive")

    def force(diffs):
        norms = np.linalg.norm(diffs, axis=-1)
        return xi_strength * diffs / np.maximum(norms, eps)[..., None] ** d

    def drift(states, points):
        return pair_mean(lambda x, y: force(x - y), states, points)

    return McKeanModel(drift=drift, diffusion=lambda states, points: float(sigma_const), dim=d)
