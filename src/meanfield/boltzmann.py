"""Parametric Boltzmann collision models and their simulation.

Three simulators share one model object: the jump-exact algorithm driven by
a global exponential clock, Bird's cell-based DSMC with per-cell time
counters, and a one-sided Nanbu variant. Rejected (fictitious) proposals
are first-class events: they are logged but apply no update, which makes
rate audits possible.

Models are batched: every model callable takes k pairs at once. Exact and
Bird draw proposals in blocks and apply each dependency level of a block
(proposals that touch no particle twice) as one array step, each level
reading the states the levels below it left, so states and log are those
of one proposal after the other; Bird then undoes the proposals past its
counter's cut. Each kind of draw has its own substream, so the results do
not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, TimeGrid, _mix64, write_csv
from .errors import BoundViolation

_REJECTION_STALL_FACTOR = 50_000  # consecutive fictitious proposals tolerated per cell pass
_BLOCK = 4096  # most proposals drawn from a stream at once


@dataclass
class CollisionModel:
    """Semi-parametric collision specification, evaluated on k pairs at once.

    ``lam(z1, z2)`` maps two (k, d) state arrays to the (k,) symmetric pair
    collision rates, bounded by ``Lambda``; ``psi_pair(z1, z2, theta)``
    maps them and a (k, p) parameter array to the post-collisional pair
    (z1', z2') of (k, d) arrays; ``theta_sampler(rng, k)`` draws a (k, p)
    array from the reference law q0 * nu. The simulators draw thetas in
    blocks of any size, so a sampler must give the same rows whatever k:
    one draw call per block, rows in order (``rng.uniform((k, p))``, say).
    For semi-parametric models ``q(z1, z2, theta)`` reweights the parameter
    draw and must satisfy q <= M q0, where ``q0(theta)`` is (k,) like q.
    Leaving ``q`` as None means q == q0 identically (plain parametric
    model). ``event_filter(z1, z2, theta)`` returns a (k,) boolean array
    that is False where the model vetoes a collision. ``free_flow(states,
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

    def accept_ratio(self, z1, z2, theta) -> np.ndarray:
        return self._ratio(self.lam(z1, z2), z1, z2, theta)

    def _ratio(self, lam, z1, z2, theta) -> np.ndarray:
        """accept_ratio for already evaluated rates lam = lam(z1, z2)."""
        ratio = lam / self.Lambda
        if self.q is not None:
            ratio = ratio * (self.q(z1, z2, theta) / (self.M * self.q0(theta)))
        elif self.M != 1.0:
            ratio = ratio / self.M
        return ratio


@dataclass(slots=True)
class CollisionEvent:
    """One proposed collision: accepted events carry the conserved-quantity
    deltas (state-sum and squared-norm-sum over the touched pair)."""

    time: float
    i: int
    j: int
    accepted: bool
    dp: np.ndarray
    de: float


class EventLog:
    """Bounded audit log, stored as chunks of columns (time, i, j,
    accepted, dE, dP). Past the cap it keeps counting but stores nothing."""

    def __init__(self, cap: int = 10_000_000):
        self.cap = cap
        self.proposed = 0
        self.accepted = 0
        self.truncated = False
        self._chunks = []
        self._stored = 0

    def record(self, time, i, j, accepted, de, dp):
        """Log one proposal per row of the columns, dp being (k, d)."""
        k = len(time)
        self.proposed += k
        self.accepted += int(np.count_nonzero(accepted))
        keep = min(k, self.cap - self._stored)
        if keep < k:
            self.truncated = True
        if keep > 0:
            self._chunks.append(tuple(col[:keep] for col in (time, i, j, accepted, de, dp)))
            self._stored += keep

    def columns(self):
        """The stored (time, i, j, accepted, dE, dP) columns, or None if empty."""
        return tuple(np.concatenate(col) for col in zip(*self._chunks)) if self._chunks else None

    @property
    def events(self) -> list[CollisionEvent]:
        """The stored entries as CollisionEvent objects, built on each read."""
        if not self._chunks:
            return []
        time, i, j, accepted, de, dp = self.columns()
        return [CollisionEvent(*row) for row in
                zip(time.tolist(), i.tolist(), j.tolist(), accepted.tolist(), dp, de.tolist())]

    def write_csv(self, path):
        cols = self.columns()
        if cols is None:
            dim, rows = 1, ()
        else:
            time, i, j, accepted, de, dp = cols
            dim = dp.shape[1]
            rows = zip(time.tolist(), i.tolist(), j.tolist(), accepted.astype(int).tolist(), de.tolist(),
                       *dp.T.tolist())
        write_csv(path, "time,i,j,accepted,dE," + ",".join(f"dP{k}" for k in range(dim)), rows)


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


# ---------------------------------------------------------------------------
# The batched proposal engine


def _apply_free_flow(model, states, dt):
    if model.free_flow is None or dt == 0.0:
        return states
    return np.asarray(model.free_flow(states, dt), dtype=float)


def _streams(rng: RngStream, key: int, kinds=range(4)) -> list[RngStream]:
    """Substreams ``kinds`` of ``rng``'s stream ``key``, built from the key alone: 0 clock times
    (Nanbu: collision candidates), 1 pairs (Nanbu: partners), 2 thetas, 3 acceptance uniforms."""
    return [type(rng)(rng.seed, _mix64(key, k)) for k in kinds]


def _block_size(expected: float) -> int:
    """Proposals to draw when about ``expected`` more are to come."""
    return min(_BLOCK, int(1.1 * expected) + 16)


def _draw_pairs(rng: RngStream, n: int, k: int) -> np.ndarray:
    """k uniform unordered pairs of distinct indices in range(n), smaller
    first, as a (k, 2) array: one draw per pair, an ordered pair (i, j)."""
    m = rng.integers(n * (n - 1), size=k)
    i, r = np.divmod(m, n - 1)
    j = r + (r >= i)
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def _levels(pairs: np.ndarray, n: int, table: list | None = None) -> np.ndarray:
    """Level of each row of a (k, 2) array of pairs in range(n): 1 + the highest
    level of an earlier row sharing a particle with it, else 0. A ``table`` of n
    zeros, kept over the blocks of one simulator call, spares an n-entry list per
    block; each call leaves it zeroed."""
    top, out, rows = [0] * n if table is None else table, [], pairs.tolist()
    for i, j in rows:
        level = top[i] if top[i] > top[j] else top[j]
        top[i] = top[j] = level + 1
        out.append(level)
    for i, j in rows:
        top[i] = top[j] = 0
    return np.array(out, dtype=int)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, summed over the columns in order."""
    out = a[:, 0] * b[:, 0]
    for c in range(1, a.shape[1]):
        out += a[:, c] * b[:, c]
    return out


def _accept(model: CollisionModel, z1, z2, theta, u):
    """Accept proposal k on u[k] < lam q / (Lambda M q0) unless the event filter vetoes it. Returns
    (accepted, lam(z1, z2), ratio, vetoed); pass the ratio and vetoed rows of those made to ``_check``."""
    lam = np.asarray(model.lam(z1, z2), dtype=float)
    ratio = model._ratio(lam, z1, z2, theta)
    accepted = u < ratio
    vetoed = np.zeros(len(u), dtype=bool)
    if model.event_filter is not None and accepted.any():
        rows = np.flatnonzero(accepted)
        vetoed[rows] = ~np.asarray(model.event_filter(z1[rows], z2[rows], theta[rows]), dtype=bool)
        accepted &= ~vetoed
    return accepted, lam, ratio, vetoed


def _check(ratio, vetoed, stacklevel):
    """Raise at the first ratio above 1; warn (for frame ``stacklevel``) if the filter vetoed a collision."""
    too_big = ratio > 1.0 + 1e-9
    if too_big.any():
        raise BoundViolation(
            f"acceptance ratio {ratio[too_big][0]:g} > 1: the declared Lambda or M does not bound the model"
        )
    if vetoed.any():
        warnings.warn("collision rejected by the model's event filter", stacklevel=stacklevel)


def _collide(model: CollisionModel, states, pairs, z1, z2, theta, accepted, de, dp):
    """Apply the accepted rows of proposals that touch no particle twice, with pre-collision states
    z1 and z2, to ``states`` in place; write their squared-norm-sum and state-sum deltas to ``de``, ``dp``."""
    if not accepted.all():
        pairs, z1, z2, theta = pairs[accepted], z1[accepted], z2[accepted], theta[accepted]
    if len(pairs):
        z1p, z2p = (np.asarray(z, dtype=float) for z in model.psi_pair(z1, z2, theta))
        stack = np.concatenate([z1p, z2p, z1, z2])
        sq = _rowdot(stack, stack).reshape(4, -1)
        de[accepted] = sq[0] + sq[1] - sq[2] - sq[3]
        dp[accepted] = (z1p + z2p) - (z1 + z2)
        states[pairs[:, 0]], states[pairs[:, 1]] = z1p, z2p


def _apply_levels(model: CollisionModel, states, pairs, level, theta, u, taus=None):
    """Apply a block of proposals to ``states`` in place, one ``_levels`` level after the other, each
    reading what the levels below it left; with ``taus``, level k is proposal k after the free flow
    over taus[k], which replaces ``states``. Returns the states, the proposal order of the rows level
    by level, the level ends, and in that order (accepted, lam, ratio, vetoed, dE, dP) and (z1, z2)."""
    order = np.argsort(level, kind="stable")  # each level becomes a slice, rows in proposal order
    pairs, theta, u = pairs[order], theta[order], u[order]
    m, d = len(order), states.shape[1]
    accepted, vetoed = np.zeros((2, m), dtype=bool)
    lam, ratio, de, dp, z1, z2 = *np.zeros((3, m)), *np.zeros((3, m, d))
    ends = np.cumsum(np.bincount(level)).tolist()
    for lv in map(slice, [0, *ends], ends):
        states = states if taus is None else _apply_free_flow(model, states, taus[lv.start])
        z1[lv], z2[lv] = states[pairs[lv, 0]], states[pairs[lv, 1]]
        accepted[lv], lam[lv], ratio[lv], vetoed[lv] = _accept(model, z1[lv], z2[lv], theta[lv], u[lv])
        _collide(model, states, pairs[lv], z1[lv], z2[lv], theta[lv], accepted[lv], de[lv], dp[lv])
    return states, order, ends, (accepted, lam, ratio, vetoed, de, dp), (z1, z2)


def exact_simulate(model: CollisionModel, e0: Ensemble, T: float, rng: RngStream,
                   event_cap: int = 10_000_000):
    """Jump-exact simulation over [0, T] on top of the ensemble's clock.

    A global exponential clock with parameter Lambda M (N-1)/2 proposes
    collision times; at each ring a uniform pair and a theta ~ q0 nu are
    drawn and the collision is accepted with probability
    lam(z_i, z_j) q(z_i, z_j, theta) / (Lambda M q0(theta)). Between rings
    the free flow is applied exactly. Each ``_levels`` level of a block (with
    a free flow, each proposal) is one array step. Returns (ensemble, log).
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
    clock, pair_stream, theta_stream, accept_stream = _streams(rng, rng.stream_id)
    table = [0] * n
    while total_rate > 0:
        size = _block_size(total_rate * (horizon - t))
        taus = clock.exponential(1.0 / total_rate, size)
        times = np.cumsum(np.concatenate([[t], taus]))[1:]  # one addition after the other
        m = int(np.searchsorted(times, horizon, side="right"))
        pairs = _draw_pairs(pair_stream, n, m)
        theta = model.theta_sampler(theta_stream, m)
        u = accept_stream.uniform(m)
        level = _levels(pairs, n, table) if model.free_flow is None else np.arange(m)
        states, order, _, (accepted, _, ratio, vetoed, de, dp), _ = _apply_levels(
            model, states, pairs, level, theta, u, taus)
        back = np.argsort(order)
        _check(ratio[back], vetoed, stacklevel=3)
        log.record(times[:m], pairs[:, 0], pairs[:, 1], accepted[back], de[back], dp[back])
        if m:
            t = times[m - 1]
        if m < size:
            break
    states = _apply_free_flow(model, states, horizon - t)
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
    table = [0] * n

    for k, h in enumerate(time_grid.step_durations()):
        states = _apply_free_flow(model, states, h)
        if model.Lambda * model.M == 0.0:
            continue
        cells = grid.assign(states)
        counts = np.bincount(cells)
        ends = np.cumsum(counts)
        by_cell = np.argsort(cells, kind="stable")  # each cell's members, in ascending order
        chunks = []
        for cell_id in np.flatnonzero(counts >= 2).tolist():
            members = by_cell[ends[cell_id] - counts[cell_id]:ends[cell_id]]
            chunks.append(_bird_cell(model, states, members, float(times[k]), float(times[k + 1]),
                                     members.size * (members.size - 1) / 2.0 / n * inv_volume, cell_id, table,
                                     *_streams(rng, _mix64(_mix64(rng.stream_id, k), cell_id), (1, 2, 3))))
        if len(chunks) == 1:  # one cell's counter never decreases: its log is already time-ordered
            log.record(*chunks[0])
        elif chunks:  # counters run in parallel across cells; merge so the log stays time-ordered
            cols = [np.concatenate(col) for col in zip(*chunks)]
            order = np.argsort(cols[0], kind="stable")
            log.record(*(col[order] for col in cols))
    return Ensemble(states, time_grid.t_end), log


def _bird_cell(model: CollisionModel, states, members, t_c: float, t_stop: float, scale: float, cell_id, table,
               pair_stream: RngStream, theta_stream: RngStream, accept_stream: RngStream):
    """Run one cell's collision counter from t_c until it passes t_stop, updating ``states`` in place;
    an accepted proposal adds 1/(scale lam) to the counter. Returns the log columns of the proposals made.

    Each block is applied whole, level by level (``table``: the call's level table), then cut after
    the proposal that takes the counter past t_stop, or at the _REJECTION_STALL_FACTOR-th consecutive
    rejection, which abandons the cell. Only the rows kept are checked and logged; the accepted rows
    past the cut are undone, top level first so that the lowest level's write stays. That is exact:
    a row sharing a particle with an earlier row has a higher level, so no undone row fed a kept one.
    """
    out, stall, cap = [], 0, _REJECTION_STALL_FACTOR
    while True:
        size = _block_size((t_stop - t_c) * scale * model.Lambda * model.M)
        pairs = members[_draw_pairs(pair_stream, members.size, size)]
        theta, u = model.theta_sampler(theta_stream, size), accept_stream.uniform(size)
        _, order, ends, (acc, lam, ratio, vetoed, de, dp), (z1, z2) = _apply_levels(
            model, states, pairs, _levels(pairs, len(states), table), theta, u)
        back = np.argsort(order)
        hits = np.flatnonzero(acc[back])
        inc = np.zeros(size)
        inc[hits] = 1.0 / (scale * lam[back[hits]])
        counter = np.cumsum(np.concatenate([[t_c], inc]))
        past = np.flatnonzero(counter[1:] > t_stop)
        made = int(past[0]) + 1 if past.size else size
        before = np.concatenate([[-1 - stall], hits])  # the row before each run of rejections
        stop = before[np.diff(np.append(before, size)) > cap] + cap + 1 if stall + size >= cap else before[:0]
        stalled = stop.size > 0 and stop[0] < made
        made = int(stop[0]) if stalled else made
        kept = back[:made]
        _check(ratio[kept], vetoed[kept], stacklevel=4)
        undo = acc & (order >= made)
        for lv in reversed(list(map(slice, [0, *ends], ends))) if made < size else ():
            rows = lv.start + np.flatnonzero(undo[lv])
            who = pairs[order[rows]]
            states[who[:, 0]], states[who[:, 1]] = z1[rows], z2[rows]
        stall = made - 1 - int(before[np.searchsorted(before, made) - 1])
        t_c = counter[made]
        out.append((counter[:made], pairs[:made, 0], pairs[:made, 1], acc[kept], de[kept], dp[kept]))
        if stalled:
            warnings.warn(f"cell {cell_id}: {stall} consecutive fictitious collisions, "
                          "abandoning the cell for this step (all pair rates may be zero)")
        if stalled or past.size:
            return out[0] if len(out) == 1 else [np.concatenate(col) for col in zip(*out)]


def nanbu_simulate(model: CollisionModel, e0: Ensemble, dt: float, steps: int, rng: RngStream) -> Ensemble:
    """One-sided collisions: per step each particle independently collides
    with probability min(1, Lambda M dt) against a uniform partner, runs
    the usual accept-reject, and updates only itself, to the first state
    of psi_pair. Every update of a step reads the states before the step,
    so a step is one array step (in blocks of at most _BLOCK particles)."""
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
    hit_stream, partner_stream, theta_stream, accept_stream = _streams(rng, rng.stream_id)
    for _ in range(steps):
        states = _apply_free_flow(model, states, dt)
        t += dt
        hits = np.flatnonzero(hit_stream.uniform(n) < p_collide)
        new_states = states.copy()
        for lo in range(0, hits.size, _BLOCK):
            i = hits[lo:lo + _BLOCK]
            r = partner_stream.integers(n - 1, size=i.size)
            j = r + (r >= i)
            z1, z2 = states[i], states[j]
            theta = model.theta_sampler(theta_stream, i.size)
            accepted, _, ratio, vetoed = _accept(model, z1, z2, theta, accept_stream.uniform(i.size))
            _check(ratio, vetoed, stacklevel=3)
            if accepted.any():
                new_states[i[accepted]] = model.psi_pair(z1[accepted], z2[accepted], theta[accepted])[0]
        states = new_states
    return Ensemble(states, t)


# ---------------------------------------------------------------------------
# Sphere geometry for velocity collision kernels, row by row over k pairs


def _direction_columns(dim: int) -> int:
    """The uniforms per row that ``_directions`` maps into R^dim."""
    return 1 if dim <= 2 else 2 * ((dim + 1) // 2)


def _directions(u: np.ndarray, dim: int) -> np.ndarray:
    """One uniform direction on the sphere S^(dim-1) per row of the (k,
    _direction_columns(dim)) uniforms u: a sign for dim 1, an angle for
    dim 2, and above that dim Box-Muller normals over their norm (e_1
    where the norm is zero)."""
    if dim == 1:
        return np.where(u < 0.5, 1.0, -1.0)
    if dim == 2:
        angle = 2.0 * math.pi * u
        return np.concatenate([np.cos(angle), np.sin(angle)], axis=1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    angle = 2.0 * math.pi * u[:, 1::2]
    g = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2).reshape(len(u), -1)[:, :dim]
    norm = np.sqrt(_rowdot(g, g))
    return np.where(norm[:, None] > 0, g / np.where(norm > 0, norm, 1.0)[:, None], np.eye(1, dim))


def scattering_direction(rel_velocity: np.ndarray, deflection: np.ndarray, azimuth: np.ndarray,
                         speed: np.ndarray | None = None) -> np.ndarray:
    """Unit vectors at angles ``deflection`` (k,) from the relative
    velocities (k, d), with the azimuthal parts (k, d-1) given by uniform
    directions in the orthogonal complement; ``speed`` is |rel_velocity|
    if already known. Row by row: the Householder map sending e_1 onto the
    axis, applied to the pole coordinates (the identity where the axis is
    e_1 or the speed is 0)."""
    if speed is None:
        speed = np.sqrt(_rowdot(rel_velocity, rel_velocity))
    pole = np.empty(rel_velocity.shape)
    pole[:, 0] = np.cos(deflection)
    pole[:, 1:] = np.sin(deflection)[:, None] * azimuth
    turn = speed > 0
    u = rel_velocity / -np.where(turn, speed, 1.0)[:, None]
    u[:, 0] += 1.0  # e_1 - axis
    nrm2 = _rowdot(u, u)
    turn &= nrm2 >= 1e-24
    coef = np.where(turn, 2.0 * _rowdot(u, pole) / np.where(turn, nrm2, 1.0), 0.0)
    return pole - coef[:, None] * u


def _elastic_pair(v, v_star, sigma_dir, speed=None):
    """(v + v*)/2 +- (|v - v*|/2) sigma row by row; ``speed`` is |v - v*| if already known."""
    if speed is None:
        rel = v - v_star
        speed = np.sqrt(_rowdot(rel, rel))
    mid = (v + v_star) / 2.0
    step = (speed / 2.0)[:, None] * sigma_dir
    return mid + step, mid - step


def _same_rows(z1, z2) -> np.ndarray:
    """Rows with z1 == z2 in every coordinate (NaN differs, -0.0 equals 0.0)."""
    return (z1 == z2).all(axis=1)


# ---------------------------------------------------------------------------
# Model factories


def maxwell_cutoff_model(sigma_density, d: int = 3) -> CollisionModel:
    """Maxwell molecules with an integrable deflection density on [0, pi].

    The pair rate is the constant lambda = integral of the density (zero on
    the diagonal z1 == z2, where the collision is a no-op anyway); theta is
    the row (deflection angle, azimuth direction) with the deflection drawn
    from the normalized density by inverse transform (``np.interp`` on a
    trapezoid CDF over 4096 equally spaced angles) and the azimuth uniform
    around the relative-velocity axis, all from one (k, m) uniform draw.
    Post-collision velocities are (v + v*)/2 +- (|v - v*|/2) sigma.
    """
    if d < 2:
        raise ValueError("the sphere parametrization needs d >= 2")
    angles = np.linspace(0.0, math.pi, 4096)
    dens = np.broadcast_to(np.asarray(sigma_density(angles), dtype=float), angles.shape)
    if np.any(dens < 0) or not np.all(np.isfinite(dens)):
        raise ValueError("deflection density must be finite and nonnegative")
    total = float(np.trapezoid(dens, angles))
    if total <= 0:
        raise ValueError("deflection density must have positive mass")
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(angles))])
    cdf /= cdf[-1]
    columns = 1 + _direction_columns(d - 1)

    def lam(z1, z2):
        return np.where(_same_rows(z1, z2), 0.0, total)

    def theta_sampler(rng, k):
        u = rng.uniform((k, columns))
        theta = np.empty((k, d))
        theta[:, 0] = np.interp(u[:, 0], cdf, angles)
        theta[:, 1:] = _directions(u[:, 1:], d - 1)
        return theta

    def psi_pair(z1, z2, theta):
        rel = z1 - z2
        speed = np.sqrt(_rowdot(rel, rel))
        z1p, z2p = _elastic_pair(z1, z2, scattering_direction(rel, theta[:, 0], theta[:, 1:], speed), speed)
        same = _same_rows(z1, z2)
        if same.any():
            z1p[same], z2p[same] = z1[same], z2[same]
        return z1p, z2p

    return CollisionModel(lam=lam, Lambda=total, psi_pair=psi_pair, theta_sampler=theta_sampler)


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
        rel = z1 - z2
        return np.minimum(np.sqrt(_rowdot(rel, rel)), Lambda_cap)

    return CollisionModel(
        lam=lam, Lambda=Lambda_cap, psi_pair=_elastic_pair,
        theta_sampler=lambda rng, k: _directions(rng.uniform((k, _direction_columns(d))), d),
    )


def wealth_model(coef_sampler) -> CollisionModel:
    """Conservative-in-mean wealth exchange on the real line.

    theta = (L, R, Ltilde, Rtilde), k rows drawn as a (k, 4) array by
    ``coef_sampler(rng, k)``, with E[L + R] = E[Ltilde + Rtilde] = 1; a
    trade maps (z1, z2) to (L z1 + R z2, Ltilde z2 + Rtilde z1) at unit
    rate. Draws with a negative coefficient void the trade with a logged
    warning.
    """

    def lam(z1, z2):
        return np.where(_same_rows(z1, z2), 0.0, 1.0)

    def psi_pair(z1, z2, theta):
        L, R, Lt, Rt = (theta[:, c:c + 1] for c in range(4))
        return L * z1 + R * z2, Lt * z2 + Rt * z1

    return CollisionModel(
        lam=lam, Lambda=1.0, psi_pair=psi_pair,
        theta_sampler=lambda rng, k: np.asarray(coef_sampler(rng, k), dtype=float).reshape(k, 4),
        event_filter=lambda z1, z2, theta: (theta >= 0.0).all(axis=1),
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

    ``state_sampler(rng, k)`` draws k states as a (k, d) array. Checks
    lambda symmetry, lambda(z, z) = 0, the rate bound, the semi-parametric
    density bound, and the two-sided symmetry of the post-collisional law
    (two-sample comparison of psi draws with swapped arguments). Returns a
    dict of worst-case gaps; raises nothing.
    """
    z1, z2 = state_sampler(rng, pairs), state_sampler(rng, pairs)
    l12, l21 = model.lam(z1, z2), model.lam(z2, z1)
    q_excess = 0.0
    if model.q is not None:
        theta = model.theta_sampler(rng, pairs)
        q_excess = max(0.0, float(np.max(model.q(z1, z2, theta) - model.M * model.q0(theta))))
    w1, w2 = np.repeat(z1, draws, axis=0), np.repeat(z2, draws, axis=0)
    fwd = np.concatenate(model.psi_pair(w1, w2, model.theta_sampler(rng, pairs * draws)), axis=1)
    # psi_pair(z2, z1) with its two outputs exchanged has the law of psi_pair(z1, z2)
    rev = np.concatenate(model.psi_pair(w2, w1, model.theta_sampler(rng, pairs * draws))[::-1], axis=1)
    two_sample = 0.0
    for a_rows, b_rows in zip(fwd.reshape(pairs, draws, -1), rev.reshape(pairs, draws, -1)):
        # per-coordinate two-sample CDF distance
        for a, b in zip(np.sort(a_rows, axis=0).T, np.sort(b_rows, axis=0).T):
            pooled = np.concatenate([a, b])
            fa = np.searchsorted(a, pooled, side="right") / draws
            fb = np.searchsorted(b, pooled, side="right") / draws
            two_sample = max(two_sample, float(np.max(np.abs(fa - fb))))
    return {
        "lambda_symmetry_gap": max(0.0, float(np.max(np.abs(l12 - l21)))),
        "lambda_diagonal_max": max(0.0, float(np.max(np.abs(model.lam(z1, z1))))),
        "rate_bound_excess": max(0.0, float(np.max(l12 - model.Lambda))),
        "density_bound_excess": q_excess,
        "post_collision_ks": two_sample,
    }
