"""McKean-Vlasov diffusions: Euler-Maruyama simulation, factories for the
named interacting systems, and the synchronous-coupling harness that
measures the distance to the nonlinear limit empirically.

Drift and diffusion callables are vectorized over particles and replicas:
they receive a (..., n, d) state array together with the matching empirical
measure and return per-particle values. Within one explicit step every
particle sees the same pre-step measure of its own replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (EmpiricalMeasure, Ensemble, RngStream, TimeGrid, csv_row, empirical_moments,
                   pair_mean, write_csv)
from .errors import ModelSpecError, StepError, UnsupportedReference


@dataclass
class McKeanModel:
    """Drift/diffusion specification b(x, mu), sigma(x, mu).

    Both callables take states of shape (..., n, d): one (n, d) ensemble,
    or an (R, n, d) batch of R replicas advanced together. ``mu`` is the
    matching ``EmpiricalMeasure`` with points (..., m, d), where m may
    differ from n (a nonlinear process reads a larger surrogate's measure).
    Reductions over the measure run over axis -2, so each replica sees its
    own measure only. ``drift(states, mu)`` returns a (..., n, d) array.
    ``diffusion(states, mu)`` may return a scalar (isotropic), a (..., n)
    array (per-particle scalar), a (..., n, d) array (per-particle
    diagonal) or a (..., n, d, d) array of full matrices. A pairwise
    interaction reduces through ``core.pair_mean``, whose blocks bound its
    memory whatever the batch.
    """

    drift: callable
    diffusion: callable
    dim: int
    family: str = ""
    params: dict = field(default_factory=dict)


def _apply_diffusion(sigma, xi):
    """Map noise increments xi (..., n, d) through a diffusion coefficient."""
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


def _em_update(model, states, mu, dt, xi, time, step, first_replica=0, system=""):
    """One explicit Euler-Maruyama update against a frozen measure, for an
    (n, d) ensemble or an (R, n, d) batch whose first replica has index
    ``first_replica``.

    Finiteness is checked once, on the updated states: a non-finite drift
    or diffusion always makes them non-finite, and only then are the
    coefficients searched for the cause.
    """
    b = np.asarray(model.drift(states, mu), dtype=float)
    sigma = np.asarray(model.diffusion(states, mu), dtype=float)
    new = states + b * dt + _apply_diffusion(sigma, xi) * math.sqrt(dt)
    if not np.isfinite(new).all():
        batched = states.ndim == 3
        for what, arr in (("drift", b), ("diffusion", sigma), ("state", new)):
            if not np.isfinite(arr).all():
                _raise_non_finite(system + what, arr, batched, first_replica, step, time)
    return new


def _em_loop(model, x, t, grid, streams, first=0, observers=()):
    """The one Euler-Maruyama loop, from states ``x`` at time ``t`` over
    ``grid``: one (n, d) ensemble seen through ``Ensemble.measure()``, or an
    (R, n, d) batch with first replica ``first``; row r draws from ``streams[r]``."""
    noise = _noise_steps(streams, x.shape[-2:], grid.steps)
    for k, (h, xi) in enumerate(zip(grid.step_durations(), noise)):
        mu = EmpiricalMeasure(x) if x.ndim == 3 else Ensemble(x, t).measure()
        x = _em_update(model, x, mu, h, xi.reshape(x.shape), t, step=k, first_replica=first)
        t += h
        for obs in observers:
            obs(Ensemble(x, t), k + 1)
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
    """Advance one Ensemble, run from ``e0.time`` with its stream ``rng`` and
    seen by observers ``obs(ensemble, step_index)`` at step 0 and after each
    step; or an (R, n, d) array with a list of R streams, run from ``grid.t0``
    in batches of ``_batch_width`` replicas, row r depending on ``rng[r]``
    only. A StepError names its step, particle and, in a batch, replica."""
    if isinstance(e0, Ensemble):
        if model.dim != e0.dim:
            raise ValueError(f"model dim {model.dim} != ensemble dim {e0.dim}")
        for obs in observers:
            obs(e0.copy(), 0)
        return Ensemble(*_em_loop(model, e0.states, e0.time, grid, [rng], observers=observers))
    states = np.asarray(e0, dtype=float)
    if states.ndim != 3 or states.shape[2] != model.dim or len(rng) != len(states) or observers:
        raise ValueError(f"need (R, n, {model.dim}) states, one stream per replica and no observers")
    final = np.empty_like(states)
    width = _batch_width(states.shape[1], model.dim)
    for first in range(0, len(states), width):
        batch = slice(first, first + width)
        final[batch], _ = _em_loop(model, states[batch], grid.t0, grid, rng[batch], first)
    return final


class MomentTracker:
    """Observer recording coordinate-wise p-th moments at every step."""

    def __init__(self, p: int = 2):
        if p < 1:
            raise ValueError("moment order p must be >= 1")
        self.p = p
        self.times = []
        self.values = []

    def __call__(self, ensemble: Ensemble, step: int):
        self.times.append(ensemble.time)
        self.values.append(empirical_moments(ensemble, self.p))


class SnapshotWriter:
    """Observer appending particle states as CSV rows
    ``time, replica, particle, coord0..coordD``. Use it as a context
    manager, or call ``close``; the file is open from construction on."""

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

    def __call__(self, ensemble: Ensemble, step: int):
        if not self._header_written:
            coords = ",".join(f"coord{k}" for k in range(ensemble.dim))
            self._file.write(f"time,replica,particle,{coords}\n")
            self._header_written = True
        if step % self.every:
            return
        self._file.writelines(csv_row((ensemble.time, self.replica, i, *row))
                              for i, row in enumerate(ensemble.states))

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
        if model.family != "mean-field-ou":
            raise UnsupportedReference(
                f"exact gaussian reference requires the mean-field OU family, got {model.family!r}"
            )
        if (model.params.get("lam"), model.params.get("kappa")) != (self.lam, self.kappa):
            raise UnsupportedReference("reference parameters differ from the model's")

    def drift(self, states: np.ndarray, t: float) -> np.ndarray:
        return -self.lam * states - self.kappa * (states - self.mean(t))

    def diffusion(self, states: np.ndarray, t: float) -> float:
        return 1.0


@dataclass
class SurrogateReference:
    """Frozen large-ensemble stand-in for the limit law f_t.

    A surrogate system of size ``factor * n`` (at least) is simulated once
    per replica with an independent stream; the nonlinear processes read
    their drift and diffusion from the surrogate's empirical measure. The
    size factor 16 is a tunable default, not a modelling constant.
    """

    model: McKeanModel
    initial_sampler: callable  # (n, rng) -> (n, d) array
    factor: int = 16

    exact = False

    def initial(self, n: int, rng: RngStream) -> np.ndarray:
        return np.asarray(self.initial_sampler(n, rng), dtype=float).reshape(n, self.model.dim)

    def check_model(self, model: McKeanModel):
        if model is not self.model and model.family != self.model.family:
            raise UnsupportedReference("surrogate was built for a different model family")


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

    def drift(states, mu):
        return -lam * states - kappa * (states - mu.mean())

    return McKeanModel(
        drift=drift,
        diffusion=lambda states, mu: 1.0,
        dim=1,
        family="mean-field-ou",
        params={"lam": lam, "kappa": kappa},
    )


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
    """Yield the (R, *shape) normal increments of each of ``steps`` steps,
    row r from ``streams[r]``. A stream draws several steps per call, which
    gives the same variates in the same order as one draw per step."""
    per_step = len(streams) * math.prod(shape)
    block = max(1, _NOISE_FLOATS // per_step)
    for start in range(0, steps, block):
        k = min(block, steps - start)
        yield from np.stack([s.normal((k, *shape)) for s in streams], axis=1)


def _mean_square(diff: np.ndarray) -> np.ndarray:
    """(1/n) sum_i |diff^i|^2 of each (n, d) ensemble of an (R, n, d) batch,
    bit for bit equal to ``np.mean(np.sum(diff[r] ** 2, axis=1))``."""
    sq = diff * diff
    per_particle = sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)
    return np.add.reduce(per_particle, axis=-1) / diff.shape[-2]


def _coupling_batch(model, ref, n, grid, streams, first, out):
    """Advance the coupled systems of ``len(streams)`` replicas together as
    (Rb, n, d) arrays and write their squared coupling errors into the
    (Rb, steps + 1) array ``out``. ``first`` is the index of the batch's
    first replica, used in error reports.

    Replica r draws from ``streams[r]`` exactly as a lone replica would:
    initial states from substream 0, the shared increments from
    substream 1, and for a surrogate reference its initial states and
    increments from substreams 2 and 3.
    """
    d = model.dim
    x = np.stack([ref.initial(n, s.substream(0)) for s in streams])
    if not np.isfinite(x).all():
        _raise_non_finite("initial state", x, True, first, 0, grid.t0)
    noise = _noise_steps([s.substream(1) for s in streams], (n, d), grid.steps)
    x_bar = x.copy()
    if not ref.exact:
        m = ref.factor * n
        surrogate = np.stack([ref.initial(m, s.substream(2)) for s in streams])
        if not np.isfinite(surrogate).all():
            _raise_non_finite("initial surrogate state", surrogate, True, first, 0, grid.t0)
        surrogate_noise = _noise_steps([s.substream(3) for s in streams], (m, d), grid.steps)

    out[:, 0] = 0.0
    t = grid.t0
    for k, (h, xi) in enumerate(zip(grid.step_durations(), noise)):
        if ref.exact:
            b_bar = ref.drift(x_bar, t)
            sig_bar = ref.diffusion(x_bar, t)
        else:
            mu_s = EmpiricalMeasure(surrogate)
            b_bar = model.drift(x_bar, mu_s)
            sig_bar = model.diffusion(x_bar, mu_s)
            surrogate = _em_update(model, surrogate, mu_s, h, next(surrogate_noise),
                                   t, step=k, first_replica=first, system="surrogate ")
        x = _em_update(model, x, EmpiricalMeasure(x), h, xi, t, step=k, first_replica=first)
        x_bar = x_bar + np.asarray(b_bar, dtype=float) * h + _apply_diffusion(sig_bar, xi) * math.sqrt(h)
        t += h
        out[:, k + 1] = _mean_square(x - x_bar)


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
    ``grad_W_conv(states, mu_points)``, when supplied, is a closed form
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
        def interaction(states, mu):
            return np.asarray(grad_W_conv(states, mu.points), dtype=float)
    else:
        def interaction(states, mu):
            return pair_mean(lambda x, y: grad_W(x - y), states, mu.points)

    def drift(states, mu):
        return -np.asarray(grad_V(states), dtype=float) - interaction(states, mu)

    return McKeanModel(
        drift=drift,
        diffusion=lambda states, mu: float(sigma_const),
        dim=dim,
        family="gradient-system",
    )


def kuramoto_model(coupling: float, n: int | None = None, disorder_sampler=None, rng: RngStream | None = None) -> McKeanModel:
    """Coupled oscillators d theta^i = xi_i dt - (K/N) sum_j sin(theta^i - theta^j) dt + dB^i.

    The natural frequencies xi_i are quenched: drawn once at construction
    (``disorder_sampler(n, rng)``) and frozen for the model's lifetime.
    Phases live in R; reduce mod 2 pi only for reporting. The alignment sum
    runs over the points theta^j of the measure ``mu``, which may differ
    from the states (a nonlinear copy reads a surrogate), and is evaluated
    through the complex order parameter, so each step is O(N + M).
    """
    if disorder_sampler is not None:
        if n is None or rng is None:
            raise ModelSpecError("quenched disorder needs n and an rng at construction")
        disorder = np.asarray(disorder_sampler(n, rng), dtype=float).reshape(n)
    else:
        disorder = None

    def drift(states, mu):
        theta = states[..., 0]
        if disorder is not None and theta.shape[-1] != disorder.shape[0]:
            raise ValueError("ensemble size differs from the quenched disorder draw")
        phase = np.exp(1j * theta)
        # the interacting system reads its own measure: its phases are the states'
        mu_phase = phase if mu.points is states else np.exp(1j * mu.points[..., 0])
        z = np.mean(mu_phase, axis=-1, keepdims=True)
        align = -coupling * np.imag(phase * np.conj(z))
        if disorder is not None:
            align = align + disorder
        return align[..., None]

    return McKeanModel(drift=drift, diffusion=lambda states, mu: 1.0, dim=1, family="kuramoto",
                       params={"coupling": coupling})


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

    def drift(states, mu):
        return np.concatenate([states[..., d:], pair_mean(align, states, mu.points)], axis=-1)

    def diffusion(states, mu):
        sig = np.zeros(states.shape)
        sig[..., d:] = sigma_const
        return sig

    return McKeanModel(drift=drift, diffusion=diffusion, dim=2 * d, family="cucker-smale",
                       params={"gamma": gamma, "sigma": sigma_const, "d": d})


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

    def drift(states, mu):
        return pair_mean(lambda x, y: force(x - y), states, mu.points)

    return McKeanModel(drift=drift, diffusion=lambda states, mu: float(sigma_const), dim=d,
                       family="regularized-coulomb", params={"xi": xi_strength, "eps": eps})
