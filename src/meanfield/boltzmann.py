"""Parametric Boltzmann collision models and their simulation.

Three simulators share one model object: the jump-exact algorithm driven by
a global exponential clock, Bird's cell-based DSMC with per-cell time
counters, and a one-sided Nanbu variant. Rejected (fictitious) proposals
are first-class events: they are logged but apply no update, which makes
rate audits possible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, TimeGrid, write_csv
from .errors import BoundViolation

_REJECTION_STALL_FACTOR = 50_000  # consecutive fictitious proposals tolerated per cell pass


@dataclass
class CollisionModel:
    """Semi-parametric collision specification.

    ``lam(z1, z2)`` is the symmetric pair collision rate, bounded by
    ``Lambda``; ``psi_pair(z1, z2, theta)`` returns the post-collisional
    pair (z1', z2'); ``theta_sampler(rng)`` draws theta from the reference
    law q0 * nu. For semi-parametric models ``q(z1, z2, theta)`` reweights
    the parameter draw and must satisfy q <= M q0. Leaving ``q`` as None
    means q == q0 identically (plain parametric model). ``free_flow(states,
    dt)`` is the optional per-particle flow applied between collisions.
    """

    lam: callable
    Lambda: float
    psi_pair: callable
    theta_sampler: callable
    q: callable | None = None
    q0: callable | None = None
    M: float = 1.0
    free_flow: callable | None = None
    event_filter: callable | None = None
    name: str = ""

    def accept_ratio(self, z1, z2, theta) -> float:
        return self._ratio(self.lam(z1, z2), z1, z2, theta)

    def _ratio(self, lam, z1, z2, theta) -> float:
        """accept_ratio for an already evaluated rate lam = lam(z1, z2)."""
        ratio = lam / self.Lambda
        if self.q is not None:
            ratio *= self.q(z1, z2, theta) / (self.M * self.q0(theta))
        elif self.M != 1.0:
            ratio /= self.M
        return ratio


@dataclass
class CollisionEvent:
    """One proposed collision: accepted events carry the conserved-quantity
    deltas (state-sum and squared-norm-sum over the touched pair)."""

    time: float
    i: int
    j: int
    accepted: bool
    theta: object
    dp: np.ndarray
    de: float


class EventLog:
    """Bounded audit log. Past the cap it downgrades to counters only."""

    def __init__(self, cap: int = 10_000_000):
        self.cap = cap
        self.events: list[CollisionEvent] = []
        self.proposed = 0
        self.accepted = 0
        self.truncated = False

    def record(self, event: CollisionEvent):
        self.proposed += 1
        if event.accepted:
            self.accepted += 1
        if len(self.events) < self.cap:
            self.events.append(event)
        else:
            self.truncated = True

    def write_csv(self, path):
        dim = len(self.events[0].dp) if self.events else 1
        cols = ",".join(f"dP{k}" for k in range(dim))
        write_csv(path, f"time,i,j,accepted,dE,{cols}",
                  ((e.time, e.i, e.j, int(e.accepted), e.de, *e.dp) for e in self.events))


@dataclass
class CellGrid:
    """Partition of a box domain into cells of side delta.

    ``position(states)`` extracts the coordinates used for cell assignment;
    with the default None the grid is the degenerate single cell used for
    spatially homogeneous runs (cell volume 1).
    """

    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    delta: float = 1.0
    position: callable | None = None

    @classmethod
    def single_cell(cls) -> "CellGrid":
        return cls()

    def __post_init__(self):
        if self.position is not None:
            self.lo = np.asarray(self.lo, dtype=float)
            self.hi = np.asarray(self.hi, dtype=float)
            if self.delta <= 0:
                raise ValueError("cell side delta must be positive")
            self._shape = np.maximum(1, np.ceil((self.hi - self.lo) / self.delta - 1e-12).astype(int))

    def cell_volume(self) -> float:
        if self.position is None:
            return 1.0
        return float(self.delta ** self.lo.shape[0])

    def assign(self, states: np.ndarray) -> np.ndarray:
        """Flat cell index per particle; out-of-box positions clip to the
        boundary cells so every position maps to exactly one cell."""
        if self.position is None:
            return np.zeros(states.shape[0], dtype=int)
        pos = np.asarray(self.position(states), dtype=float)
        idx = np.floor((pos - self.lo) / self.delta).astype(int)
        idx = np.clip(idx, 0, self._shape - 1)
        return np.ravel_multi_index(idx.T, self._shape)


def _apply_free_flow(model, states, dt):
    if model.free_flow is None or dt == 0.0:
        return states
    return np.asarray(model.free_flow(states, dt), dtype=float)


def _other_index(rng: RngStream, n: int, i) -> int:
    """Uniform index in range(n) other than i."""
    j = int(rng.integers(n - 1))
    return j + 1 if j >= i else j


def _draw_pair(rng: RngStream, n: int) -> tuple[int, int]:
    """Uniform unordered pair of distinct indices in range(n), smaller first."""
    i = int(rng.integers(n))
    j = _other_index(rng, n, i)
    return (i, j) if i < j else (j, i)


def _accept(model: CollisionModel, rng: RngStream, z1, z2):
    """Draw theta ~ q0 nu, then u, and accept on u < lam q / (Lambda M q0)
    unless the event filter vetoes it. Returns (accepted, theta, lam(z1, z2))."""
    theta = model.theta_sampler(rng)
    u = rng.uniform()
    lam = model.lam(z1, z2)
    ratio = model._ratio(lam, z1, z2, theta)
    if ratio > 1.0 + 1e-9:
        raise BoundViolation(
            f"acceptance ratio {ratio:g} > 1: the declared Lambda or M does not bound the model"
        )
    if not u < ratio:
        return False, theta, lam
    if model.event_filter is not None and not model.event_filter(z1, z2, theta):
        warnings.warn("collision rejected by the model's event filter", stacklevel=3)
        return False, theta, lam
    return True, theta, lam


def _collide(model: CollisionModel, states, i: int, j: int, theta, accepted: bool, t) -> CollisionEvent:
    """Apply an accepted collision to rows i, j of ``states`` in place; return
    the event with the pair's state-sum and squared-norm-sum deltas."""
    if accepted:
        z1, z2 = states[i], states[j]
        z1p, z2p = model.psi_pair(z1, z2, theta)
        dp = (z1p + z2p) - (z1 + z2)
        de = float(z1p @ z1p + z2p @ z2p - z1 @ z1 - z2 @ z2)
        states[i], states[j] = z1p, z2p
    else:
        dp, de = np.zeros(states.shape[1]), 0.0
    return CollisionEvent(t, i, j, accepted, theta, dp, de)


def exact_simulate(model: CollisionModel, e0: Ensemble, T: float, rng: RngStream,
                   event_cap: int = 10_000_000):
    """Jump-exact simulation over [0, T] on top of the ensemble's clock.

    A global exponential clock with parameter Lambda M (N-1)/2 proposes
    collision times; at each ring a uniform pair and a theta ~ q0 nu are
    drawn and the collision is accepted with probability
    lam(z_i, z_j) q(z_i, z_j, theta) / (Lambda M q0(theta)). Between rings
    the free flow is applied exactly. Returns (ensemble, event log).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    n = e0.n
    if n < 2:
        raise ValueError("need at least two particles")
    states = e0.states.copy()
    t, horizon = e0.time, e0.time + T
    total_rate = model.Lambda * model.M * (n - 1) / 2.0
    log = EventLog(cap=event_cap)

    while True:
        tau = rng.exponential(1.0 / total_rate) if total_rate > 0 else math.inf
        if t + tau > horizon:
            states = _apply_free_flow(model, states, horizon - t)
            break
        states = _apply_free_flow(model, states, tau)
        t += tau
        i, j = _draw_pair(rng, n)
        accepted, theta, _ = _accept(model, rng, states[i], states[j])
        log.record(_collide(model, states, i, j, theta, accepted, t))
    return Ensemble(states, horizon), log


def bird_simulate(model: CollisionModel, grid: CellGrid, e0: Ensemble, time_grid: TimeGrid,
                  rng: RngStream, event_cap: int = 10_000_000):
    """Bird DSMC: time-split transport and per-cell collision counters.

    Each macro step applies the free flow over the whole step first, then
    processes every cell independently: proposals are drawn as in the exact
    algorithm and each ACCEPTED collision advances the cell's time counter
    by dt_ij = (N_G (N_G - 1)/2 * lam(z_i, z_j)/N * delta^-d)^-1. A
    collision whose increment overshoots the step boundary is still
    applied. Cells draw from per-cell substreams, so the outcome does not
    depend on cell processing order.
    """
    states = e0.states.copy()
    n = states.shape[0]
    log = EventLog(cap=event_cap)
    inv_volume = 1.0 / grid.cell_volume()
    times = time_grid.times()

    for k, h in enumerate(time_grid.step_durations()):
        t_k, t_k1 = times[k], times[k + 1]
        states = _apply_free_flow(model, states, h)
        if model.Lambda * model.M == 0.0:
            continue
        cells = grid.assign(states)
        step_stream = rng.substream(k)
        step_events = []
        for cell_id in np.unique(cells):
            members = np.flatnonzero(cells == cell_id)
            n_g = members.size
            if n_g < 2:
                continue
            cell_stream = step_stream.substream(int(cell_id))
            t_c = t_k
            stall = 0
            while t_c <= t_k1:
                a, b = _draw_pair(cell_stream, n_g)
                i, j = int(members[a]), int(members[b])
                accepted, theta, lam = _accept(model, cell_stream, states[i], states[j])
                step_events.append(_collide(model, states, i, j, theta, accepted, t_c))
                if accepted:
                    t_c += 1.0 / (n_g * (n_g - 1) / 2.0 * lam / n * inv_volume)
                stall = 0 if accepted else stall + 1
                if stall >= _REJECTION_STALL_FACTOR:
                    warnings.warn(
                        f"cell {cell_id}: {stall} consecutive fictitious collisions, "
                        "abandoning the cell for this step (all pair rates may be zero)"
                    )
                    break
        # counters run in parallel across cells; merge so the log stays time-ordered
        step_events.sort(key=lambda e: e.time)
        for event in step_events:
            log.record(event)
    return Ensemble(states, time_grid.t_end), log


def nanbu_simulate(model: CollisionModel, e0: Ensemble, dt: float, steps: int, rng: RngStream) -> Ensemble:
    """One-sided collisions: per step each particle independently collides
    with probability min(1, Lambda M dt) against a uniform partner, runs
    the usual accept-reject, and updates only itself, to the first state
    of psi_pair."""
    if dt <= 0 or steps < 1:
        raise ValueError("need dt > 0 and steps >= 1")
    n = e0.n
    if n < 2:
        raise ValueError("need at least two particles")
    p_collide = model.Lambda * model.M * dt
    if p_collide > 1.0:
        warnings.warn(
            f"Lambda*M*dt = {p_collide:g} > 1: collision probability clipped, rates are biased"
        )
        p_collide = 1.0
    states = e0.states.copy()
    t = e0.time
    for _ in range(steps):
        states = _apply_free_flow(model, states, dt)
        t += dt
        hits = rng.uniform(n) < p_collide
        new_states = states.copy()
        for i in np.flatnonzero(hits):
            j = _other_index(rng, n, i)
            accepted, theta, _ = _accept(model, rng, states[i], states[j])
            if accepted:
                new_states[i] = model.psi_pair(states[i], states[j], theta)[0]
        states = new_states
    return Ensemble(states, t)


# ---------------------------------------------------------------------------
# Sphere geometry for velocity collision kernels


def _uniform_direction(k: int, rng: RngStream) -> np.ndarray:
    """Uniform point on the sphere S^(k-1) embedded in R^k."""
    if k == 1:
        return np.array([1.0 if rng.uniform() < 0.5 else -1.0])
    while True:
        g = rng.normal(k)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def _rotate_from_pole(pole_coords: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Apply the Householder map sending the first basis vector onto
    ``axis`` (an orthonormal-frame construction; the identity is the
    deterministic tie-break when the axis already sits at the pole)."""
    d = axis.shape[0]
    u = np.zeros(d)
    u[0] = 1.0
    u -= axis
    nrm2 = u @ u
    if nrm2 < 1e-24:
        return pole_coords
    return pole_coords - (2.0 * (u @ pole_coords) / nrm2) * u


def scattering_direction(rel_velocity: np.ndarray, deflection: float, azimuth: np.ndarray) -> np.ndarray:
    """Unit vector at angle ``deflection`` from the relative-velocity axis,
    with the azimuthal part given by a uniform direction in the orthogonal
    complement."""
    d = rel_velocity.shape[0]
    norm = np.linalg.norm(rel_velocity)
    axis = rel_velocity / norm if norm > 0 else np.eye(d)[0]
    pole = np.empty(d)
    pole[0] = math.cos(deflection)
    pole[1:] = math.sin(deflection) * azimuth
    return _rotate_from_pole(pole, axis)


def _elastic_pair(v, v_star, sigma_dir):
    mid = (v + v_star) / 2.0
    half = np.linalg.norm(v - v_star) / 2.0
    return mid + half * sigma_dir, mid - half * sigma_dir


# ---------------------------------------------------------------------------
# Model factories


def maxwell_cutoff_model(sigma_density, d: int = 3, table_size: int = 4096) -> CollisionModel:
    """Maxwell molecules with an integrable deflection density on [0, pi].

    The pair rate is the constant lambda = integral of the density (zero on
    the diagonal z1 == z2, where the collision is a no-op anyway); theta is
    (deflection angle, azimuth direction) with the deflection drawn from
    the normalized density by inverse transform and the azimuth uniform
    around the relative-velocity axis. Post-collision velocities are
    (v + v*)/2 +- (|v - v*|/2) sigma.
    """
    if d < 2:
        raise ValueError("the sphere parametrization needs d >= 2")
    angles = np.linspace(0.0, math.pi, table_size)
    dens = np.broadcast_to(np.asarray(sigma_density(angles), dtype=float), angles.shape)
    if np.any(dens < 0) or not np.all(np.isfinite(dens)):
        raise ValueError("deflection density must be finite and nonnegative")
    total = float(np.trapezoid(dens, angles))
    if total <= 0:
        raise ValueError("deflection density must have positive mass")
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(angles))])
    cdf /= cdf[-1]

    def lam(z1, z2):
        return 0.0 if np.array_equal(z1, z2) else total

    def theta_sampler(rng):
        deflection = float(np.interp(rng.uniform(), cdf, angles))
        return deflection, _uniform_direction(d - 1, rng)

    def psi_pair(z1, z2, theta):
        deflection, azimuth = theta
        if np.array_equal(z1, z2):
            return z1.copy(), z2.copy()
        sigma_dir = scattering_direction(z1 - z2, deflection, azimuth)
        return _elastic_pair(z1, z2, sigma_dir)

    return CollisionModel(
        lam=lam, Lambda=total, psi_pair=psi_pair, theta_sampler=theta_sampler, name="maxwell-cutoff",
    )


def hard_sphere_model(Lambda_cap: float, d: int = 3) -> CollisionModel:
    """Hard spheres in cutoff form: lam(v, v*) = min(|v - v*|, Lambda_cap)
    with uniform scattering direction on the sphere. The velocity-dependent
    rate runs through accept-reject against the cap; pairs faster than the
    cap collide at the clipped rate (documented cutoff bias)."""
    if Lambda_cap <= 0:
        raise ValueError("Lambda_cap must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")

    def lam(z1, z2):
        return min(float(np.linalg.norm(z1 - z2)), Lambda_cap)

    return CollisionModel(
        lam=lam, Lambda=Lambda_cap, psi_pair=_elastic_pair,
        theta_sampler=lambda rng: _uniform_direction(d, rng),
        name="hard-sphere-cutoff",
    )


def wealth_model(coef_sampler) -> CollisionModel:
    """Conservative-in-mean wealth exchange on the real line.

    theta = (L, R, Ltilde, Rtilde) drawn by ``coef_sampler(rng)`` with
    E[L + R] = E[Ltilde + Rtilde] = 1; a trade maps (z1, z2) to
    (L z1 + R z2, Ltilde z2 + Rtilde z1) at unit rate. Draws with a
    negative coefficient void the trade with a logged warning.
    """

    def lam(z1, z2):
        return 0.0 if np.array_equal(z1, z2) else 1.0

    def psi_pair(z1, z2, theta):
        L, R, Lt, Rt = theta
        return L * z1 + R * z2, Lt * z2 + Rt * z1

    return CollisionModel(
        lam=lam, Lambda=1.0, psi_pair=psi_pair,
        theta_sampler=lambda rng: tuple(float(c) for c in coef_sampler(rng)),
        event_filter=lambda z1, z2, theta: min(theta) >= 0.0,
        name="wealth-exchange",
    )


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass
class ConservationReport:
    """Maximum drift of the state sum and squared-norm sum over a run,
    relative to the initial scales (sum of row norms, total energy)."""

    momentum_drift: float
    energy_drift: float
    times: list

    def max_drift(self) -> float:
        return max(self.momentum_drift, self.energy_drift)


def conservation_report(snapshots, velocity=None) -> ConservationReport:
    """Audit conservation across trajectory snapshots [(time, states), ...].

    ``velocity`` optionally extracts the conserved block from each state
    array (identity by default, for homogeneous velocity-only models).
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    extract = velocity or (lambda s: s)
    times, momenta, energies = [], [], []
    for t, states in snapshots:
        v = np.asarray(extract(np.asarray(states, dtype=float)))
        times.append(t)
        momenta.append(v.sum(axis=0))
        energies.append(float((v ** 2).sum()))
    momenta = np.asarray(momenta)
    base = np.asarray(extract(np.asarray(snapshots[0][1], dtype=float)))
    p_scale = float(np.linalg.norm(base, axis=1).sum())
    e_scale = energies[0]
    p_drift = float(np.max(np.linalg.norm(momenta - momenta[0], axis=1)))
    e_drift = float(np.max(np.abs(np.asarray(energies) - e_scale)))
    return ConservationReport(
        momentum_drift=p_drift / p_scale if p_scale > 0 else p_drift,
        energy_drift=e_drift / e_scale if e_scale > 0 else e_drift,
        times=times,
    )


def probe_model_symmetry(model: CollisionModel, state_sampler, rng: RngStream,
                         pairs: int = 16, draws: int = 1000) -> dict:
    """Best-effort probe of the model invariants on random states.

    Checks lambda symmetry, lambda(z, z) = 0, the rate bound, the
    semi-parametric density bound, and the two-sided symmetry of the
    post-collisional law (two-sample comparison of psi draws with swapped
    arguments). Returns a dict of worst-case gaps; raises nothing.
    """
    sym_gap = diag_max = rate_excess = q_excess = 0.0
    two_sample = 0.0
    for _ in range(pairs):
        z1, z2 = state_sampler(rng), state_sampler(rng)
        l12, l21 = model.lam(z1, z2), model.lam(z2, z1)
        sym_gap = max(sym_gap, abs(l12 - l21))
        diag_max = max(diag_max, abs(model.lam(z1, z1)))
        rate_excess = max(rate_excess, l12 - model.Lambda)
        if model.q is not None:
            theta = model.theta_sampler(rng)
            q_excess = max(q_excess, model.q(z1, z2, theta) - model.M * model.q0(theta))
        fwd = np.array([np.concatenate(model.psi_pair(z1, z2, model.theta_sampler(rng)))
                        for _ in range(draws)])
        rev = np.array([np.concatenate(model.psi_pair(z2, z1, model.theta_sampler(rng))[::-1])
                        for _ in range(draws)])
        # per-coordinate two-sample CDF distance between psi_pair(z1, z2) and the
        # swapped psi_pair(z2, z1) with its two outputs exchanged
        for k in range(fwd.shape[1]):
            a, b = np.sort(fwd[:, k]), np.sort(rev[:, k])
            pooled = np.concatenate([a, b])
            fa = np.searchsorted(a, pooled, side="right") / draws
            fb = np.searchsorted(b, pooled, side="right") / draws
            two_sample = max(two_sample, float(np.max(np.abs(fa - fb))))
    return {
        "lambda_symmetry_gap": sym_gap,
        "lambda_diagonal_max": diag_max,
        "rate_bound_excess": rate_excess,
        "density_bound_excess": q_excess,
        "post_collision_ks": two_sample,
    }
