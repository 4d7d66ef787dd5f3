"""Parametric Boltzmann collision models and their simulation.

Three simulators share one model object: the jump-exact algorithm driven by
a global exponential clock, Bird's cell-based DSMC with per-cell time
counters, and a one-sided Nanbu variant. Rejected (fictitious) proposals
are first-class events: the log holds each proposal's time, pair and
acceptance, and a rejected one applies no update, which makes rate audits
possible. Conservation is audited on states (``conservation_report``), not
per event.

Models are batched: every model callable takes k pairs at once. Exact and
Bird draw proposals in blocks and apply each dependency level of a block
(proposals that touch no particle twice) as one array step, each level
reading the states the levels below it left, so states and log are those
of one proposal after the other; Bird then undoes the proposals past its
counter's cut. Bird carries each cell's counter from one time step to the
next, so on one cell without a free flow a call is one counter run, and
keeps the collision past the call's end with the probability of the time
left to it. Each kind of draw has its own substream, so the results do
not depend on the block size. Bird levels a cell's block in the cell's
own indices; exact runs a batch of replicas as one system of disjoint
particle sets, so that one level pass serves every replica.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, TimeGrid, _block_size, _mix64, write_csv
from .errors import BoundViolation

_REJECTION_STALL_FACTOR = 50_000  # consecutive fictitious proposals tolerated per cell pass
_GROUP_ROWS = 8192  # most proposals of one exact_batch block over its replicas: about 2 MB of columns


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

    def __post_init__(self):
        if not (math.isfinite(self.Lambda) and self.Lambda >= 0):
            raise ValueError(f"Lambda must be finite and >= 0, got {self.Lambda!r}")
        if not (math.isfinite(self.M) and self.M > 0):
            raise ValueError(f"M must be finite and > 0, got {self.M!r}")

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
    """One proposed collision: its time, its pair (i, j) and whether it was accepted."""

    time: float
    i: int
    j: int
    accepted: bool


class EventLog:
    """Bounded audit log, stored as chunks of columns (time, i, j,
    accepted). Past the cap it keeps counting but stores nothing."""

    def __init__(self, cap: int = 10_000_000):
        self.cap = cap
        self.proposed = 0
        self.accepted = 0
        self.truncated = False
        self._chunks = []
        self._stored = 0

    def record(self, time, i, j, accepted):
        """Log one proposal per row of the columns."""
        k = len(time)
        self.proposed += k
        self.accepted += int(np.count_nonzero(accepted))
        keep = min(k, self.cap - self._stored)
        if keep < k:
            self.truncated = True
        if keep > 0:
            self._chunks.append(tuple(col[:keep] for col in (time, i, j, accepted)))
            self._stored += keep

    def columns(self):
        """The stored (time, i, j, accepted) columns, or None if empty."""
        return tuple(np.concatenate(col) for col in zip(*self._chunks)) if self._chunks else None

    @property
    def events(self) -> list[CollisionEvent]:
        """The stored entries as CollisionEvent objects, built on each read."""
        if not self._chunks:
            return []
        return [CollisionEvent(*row) for row in zip(*(col.tolist() for col in self.columns()))]

    def write_csv(self, path):
        cols = self.columns()
        if cols is None:
            rows = ()
        else:
            time, i, j, accepted = cols
            rows = zip(time.tolist(), i.tolist(), j.tolist(), accepted.astype(int).tolist())
        write_csv(path, "time,i,j,accepted", rows)


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
            for name in ("lo", "hi"):
                bound = np.asarray(getattr(self, name), dtype=float)
                if bound.ndim != 1 or bound.size == 0 or not np.isfinite(bound).all():
                    raise ValueError(f"{name} must be a finite 1-D array, got {getattr(self, name)!r}")
                setattr(self, name, bound)
            if self.lo.shape != self.hi.shape:
                raise ValueError(f"lo and hi must have one shape, got {self.lo.shape} and {self.hi.shape}")
            if not (math.isfinite(self.delta) and self.delta > 0):
                raise ValueError(f"cell side delta must be finite and positive, got {self.delta!r}")
            if self.delta ** self.lo.size == 0:
                raise ValueError(f"cell side delta = {self.delta!r} gives a cell volume delta^{self.lo.size} of 0")
            with np.errstate(over="ignore"):  # an infinite count is refused below
                counts = np.maximum(1, np.ceil((self.hi - self.lo) / self.delta - 1e-12))
                cells = counts.prod()
            if not cells < np.iinfo(np.intp).max:  # assign's flat index must fit
                raise ValueError(f"cell side delta = {self.delta!r} gives {cells:g} cells, more than an index holds")
            self._shape = counts.astype(int)

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


def _draw_pairs(rng: RngStream, n: int, k: int) -> np.ndarray:
    """k uniform unordered pairs of distinct indices in range(n), smaller
    first, as a (k, 2) array: one draw per pair, an ordered pair (i, j)."""
    m = rng.integers(n * (n - 1), size=k)
    i, r = np.divmod(m, n - 1)
    j = r + (r >= i)
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def _levels(pairs: np.ndarray, n: int) -> np.ndarray:
    """Level of each row of a (k, 2) array of pairs in range(n): 1 + the highest
    level of an earlier row sharing a particle with it, else 0. Relabelling the
    particles one to one keeps every level. The columns are read through
    memoryviews, which make no list of the block; the call's one list is the n
    entries of its index space."""
    top, out = [0] * n, []
    for i, j in zip(memoryview(pairs[:, 0]), memoryview(pairs[:, 1])):
        level = top[i] if top[i] > top[j] else top[j]
        top[i] = top[j] = level + 1
        out.append(level)
    return np.array(out, dtype=int)


def _level_order(level: np.ndarray) -> np.ndarray:
    """np.argsort(level, kind="stable") for levels below len(level), on the narrowest unsigned key: numpy
    radix-sorts up to 16 bits, and a stable order is unique."""
    return np.argsort(level.astype(np.min_scalar_type(len(level))), kind="stable")


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
    """Raise at the first ratio above 1, below 0 or NaN; warn (for frame ``stacklevel``) if the filter
    vetoed a collision."""
    bad = ~((ratio >= 0.0) & (ratio <= 1.0 + 1e-9))
    if bad.any():
        first = ratio[bad][0]
        raise BoundViolation(
            f"acceptance ratio {first:g} > 1: the declared Lambda or M does not bound the model" if first > 1
            else f"acceptance ratio {first:g} is not a probability: the model's lam or q is NaN or below 0"
        )
    if vetoed.any():
        warnings.warn("collision rejected by the model's event filter", stacklevel=stacklevel)


def _collide(model: CollisionModel, states, pairs, z1, z2, theta, accepted):
    """Write the post-collision states of the accepted rows of proposals that touch no particle twice,
    with pre-collision states z1 and z2, to ``states`` in place."""
    if accepted.any():
        z1p, z2p = model.psi_pair(z1[accepted], z2[accepted], theta[accepted])
        states[pairs[accepted, 0]], states[pairs[accepted, 1]] = z1p, z2p


def _apply_levels(model: CollisionModel, states, pairs, level, theta, u, taus=None, undo=True):
    """Apply a block of proposals to ``states`` in place, one ``_levels`` level after the other, each
    reading what the levels below it left; with ``taus``, level k is proposal k after the free flow
    over taus[k], which replaces ``states``. Returns the states, and in proposal order the columns
    (accepted, lam, ratio, vetoed) and, with ``undo``, the pre-collision states (z1, z2) that ``_undo``
    reads (else None)."""
    order = _level_order(level)  # each level becomes a slice, rows in proposal order
    pairs, theta, u = (np.take(col, order, axis=0) for col in (pairs, theta, u))  # faster than [order] on rows
    m, d = len(order), states.shape[1]
    accepted, vetoed = np.zeros((2, m), dtype=bool)
    lam, ratio = np.zeros((2, m))
    z1, z2 = np.zeros((2, m, d)) if undo else (None, None)
    ends = np.cumsum(np.bincount(level)).tolist()
    for lv in map(slice, [0, *ends], ends):
        states = states if taus is None else _apply_free_flow(model, states, taus[lv.start])
        a, b = np.take(states, pairs[lv, 0], axis=0), np.take(states, pairs[lv, 1], axis=0)
        if undo:
            z1[lv], z2[lv] = a, b
        accepted[lv], lam[lv], ratio[lv], vetoed[lv] = _accept(model, a, b, theta[lv], u[lv])
        _collide(model, states, pairs[lv], a, b, theta[lv], accepted[lv])
    back = np.empty_like(order)
    back[order] = np.arange(m)
    cols = tuple(np.take(col, back, axis=0) for col in (accepted, lam, ratio, vetoed))
    return states, cols, tuple(np.take(z, back, axis=0) for z in (z1, z2)) if undo else None


def exact_simulate(model: CollisionModel, e0: Ensemble, T: float, rng: RngStream,
                   event_cap: int = 10_000_000):
    """Jump-exact simulation over [0, T] on top of the ensemble's clock:
    ``exact_batch`` of the one replica ``e0``. Returns (ensemble, log)."""
    finals, logs = exact_batch(model, e0.states[None], T, [rng], e0.time, event_cap)
    return Ensemble(finals[0], e0.time + T), logs[0]


def exact_batch(model: CollisionModel, states, T: float, streams, t0: float = 0.0,
                event_cap: int = 10_000_000):
    """Jump-exact simulation of R independent replicas over [t0, t0 + T].

    Each replica runs on a global exponential clock with parameter
    Lambda M (N-1)/2; at each ring a uniform pair and a theta ~ q0 nu are
    drawn and the collision is accepted with probability
    lam(z_i, z_j) q(z_i, z_j, theta) / (Lambda M q0(theta)). Between rings
    the free flow is applied exactly. ``states`` is an (R, n, d) array and
    ``streams`` holds the R replicas' streams; replica r draws from four
    substreams of ``streams[r]`` (clock, pairs, thetas, uniforms), so its
    final states and log are those of its lone run. Returns the (R, n, d)
    finals and the R event logs, each capped at ``event_cap`` entries.

    Replicas run in groups whose blocks hold at most _GROUP_ROWS proposals
    together (with a free flow, one replica per group). In each round every
    replica of a group that has not passed its horizon draws a block; the
    blocks are stacked, particle indices offset by r n, and applied as one
    block of the (R n, d) joint states, one ``_levels`` level after the
    other (with a free flow, one proposal after the other). Replicas share
    no particle, so each row gets the level of its lone run. The bound is
    checked after the round, replica by replica in proposal order.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    out = np.array(states, dtype=float)
    if out.ndim != 3 or out.shape[2] < 1:
        raise ValueError(f"states must be an (R, n, d) array, got shape {out.shape}")
    count, n, d = out.shape
    if n < 2:
        raise ValueError("need at least two particles")
    if len(streams) != count:
        raise ValueError(f"need one stream per replica: {count} replicas, {len(streams)} streams")
    if not np.isfinite(out).all():
        r, i = np.argwhere(~np.isfinite(out))[0, :2].tolist()
        raise ValueError(f"states must be finite: replica {r}, particle {i} is {out[r, i].tolist()}")
    horizon = t0 + T
    total_rate = model.Lambda * model.M * (n - 1) / 2.0
    if not math.isfinite(total_rate * (horizon - t0)):  # the expected count of a first block, the largest
        raise ValueError(f"the expected proposal count Lambda M (N - 1) / 2 * T is {total_rate * (horizon - t0)!r}")
    logs = [EventLog(cap=event_cap) for _ in range(count)]
    # replicas per group: a replica's later blocks are never larger than its first
    width = 1 if model.free_flow is not None or total_rate == 0 else _GROUP_ROWS // _block_size(total_rate * T)
    width = max(1, min(width, count))
    for lo in range(0, count, width):
        hi = min(lo + width, count)
        out[lo:hi] = _exact_group(model, out[lo:hi].reshape(-1, d), n, t0, horizon, total_rate,
                                  streams[lo:hi], logs[lo:hi]).reshape(-1, n, d)
    return out, logs


def _exact_group(model: CollisionModel, joint, n: int, t0: float, horizon: float, total_rate: float,
                 streams, logs):
    """Run the replicas of the (R n, d) ``joint`` states, replica r in rows r n to (r + 1) n, from
    t0 to ``horizon``, recording into ``logs``. With a free flow there is one replica. Returns the
    final joint states."""
    draws = [[stream.substream(k) for k in range(4)] for stream in streams]
    t = [t0] * len(streams)
    active = list(range(len(streams))) if total_rate > 0 else []
    while active:
        rounds, blocks = [], []  # (replica, block size, gaps, ring times, rings before the horizon), and draws
        for r in active:
            clock, pair_stream, theta_stream, accept_stream = draws[r]
            size = _block_size(total_rate * (horizon - t[r]))
            gaps = clock.exponential(1.0 / total_rate, size)
            times = np.cumsum(np.concatenate([[t[r]], gaps]))[1:]  # one addition after the other
            m = int(np.searchsorted(times, horizon, side="right"))
            rounds.append((r, size, gaps, times, m))
            blocks.append((_draw_pairs(pair_stream, n, m) + r * n, model.theta_sampler(theta_stream, m),
                           accept_stream.uniform(m)))
        pairs, theta, u = (np.concatenate(col) for col in zip(*blocks))
        del blocks  # so that the replicas' own draws are not held through the level passes
        if model.free_flow is None:
            level, taus = _levels(pairs, len(joint)), None
        else:  # the flow moves every particle between rings, so each proposal is its own level;
            [(_, _, taus, _, _)] = rounds  # the group is one replica, and these are its clock gaps
            level = np.arange(len(pairs))
        joint, (accepted, _, ratio, vetoed), _ = _apply_levels(model, joint, pairs, level, theta, u, taus,
                                                               undo=False)
        active = []
        for (r, size, _, times, m), end in zip(rounds, np.cumsum([m for *_, m in rounds]).tolist()):
            rows = slice(end - m, end)
            _check(ratio[rows], vetoed[rows], stacklevel=4)
            logs[r].record(times[:m], pairs[rows, 0] - r * n, pairs[rows, 1] - r * n, accepted[rows])
            if m:
                t[r] = times[m - 1]
            if m == size:  # its block ran out before the horizon
                active.append(r)
    return _apply_free_flow(model, joint, horizon - t[0])  # a group with a free flow is one replica


def bird_simulate(model: CollisionModel, grid: CellGrid, e0: Ensemble, time_grid: TimeGrid,
                  rng: RngStream, event_cap: int = 10_000_000):
    """Bird DSMC: time-split transport and per-cell collision counters.

    Each macro step applies the free flow over the whole step first, then
    processes every cell independently: proposals are drawn as in the exact
    algorithm and each ACCEPTED collision advances the cell's time counter
    by dt_ij = (N_G (N_G - 1)/2 * lam(z_i, z_j)/N * delta^-d)^-1. A
    collision whose increment overshoots the step boundary is still
    applied, and the counter is carried to the next step (Bird's
    time-counter method): a cell step starts at the later of the cell's
    counter and the step's start, and a cell whose counter is already past
    the step's end skips the step. Nothing carries an overshoot past the
    call's end t_end, so the collision that takes a counter past t_end is
    kept with probability (t_end - counter before it) / its increment,
    which leaves the expected count that of the counter's rate; a dropped
    one ends the cell's run. On one cell without a free flow nothing
    happens between steps, so the call runs the one step [t0, t_end]. Cells
    draw from per-cell substreams, so the outcome does not depend on cell
    processing order; the call builds one set of four streams and re-keys
    it to each cell step's substreams.
    """
    if e0.time != time_grid.t0:
        raise ValueError(f"the ensemble is at time {e0.time!r} but the time grid starts at {time_grid.t0!r}")
    states = e0.states.copy()
    n = states.shape[0]
    log = EventLog(cap=event_cap)
    inv_volume = 1.0 / grid.cell_volume()
    times, durations = time_grid.times(), time_grid.step_durations()
    if grid.position is None and model.free_flow is None:
        times = times[[0, -1]]  # nothing moves between steps: one step, keyed as step 0
    t_end = float(times[-1])
    # no cell step expects more proposals than one cell of every particle over the whole run
    most = (t_end - float(times[0])) * (n * (n - 1) / 2.0 / n * inv_volume) * model.Lambda * model.M
    if not math.isfinite(most):
        raise ValueError(f"the expected proposal count Lambda M (N - 1) / 2 / cell volume * (t_end - t0) is {most!r}")
    kinds = (1, 2, 3, 4)  # the pair, theta, uniform and end streams, built once and re-keyed to each cell step
    streams = [rng.substream(kind) for kind in kinds]

    def keyed(k, cell_id):
        key = _mix64(_mix64(rng.stream_id, k), cell_id)
        return [stream.rekey(_mix64(key, kind)) for kind, stream in zip(kinds, streams)]

    counters = {}  # cell id -> the cell's time counter, carried from step to step
    for k in range(len(times) - 1):
        states = _apply_free_flow(model, states, durations[k])
        t_k, t_next = float(times[k]), float(times[k + 1])
        chunks = []
        for cell_id, members in (_cells(grid, states) if model.Lambda * model.M > 0 else ()):
            t_c = max(counters.get(cell_id, t_k), t_k)
            if t_c <= t_next:  # else the cell's counter is already past the step
                cols, counters[cell_id] = _bird_cell(model, states, members, t_c, t_next, t_end,
                                                     members.size * (members.size - 1) / 2.0 / n * inv_volume,
                                                     cell_id, *keyed(k, cell_id))
                chunks.append(cols)
        if len(chunks) == 1:  # one cell's counter never decreases: its log is already time-ordered
            log.record(*chunks[0])
        elif chunks:  # counters run in parallel across cells; merge so the log stays time-ordered
            cols = [np.concatenate(col) for col in zip(*chunks)]
            order = np.argsort(cols[0], kind="stable")
            log.record(*(col[order] for col in cols))
    return Ensemble(states, time_grid.t_end), log


def _cells(grid: CellGrid, states) -> list:
    """(cell id, members in ascending order) of each cell that holds two particles or more."""
    n = states.shape[0]
    if grid.position is None:  # the single cell holds every particle
        return [(0, np.arange(n))] if n >= 2 else []
    cells = grid.assign(states)
    counts = np.bincount(cells)
    ends = np.cumsum(counts)
    by_cell = np.argsort(cells, kind="stable")
    return [(c, by_cell[ends[c] - counts[c]:ends[c]]) for c in np.flatnonzero(counts >= 2).tolist()]


def _bird_cell(model: CollisionModel, states, members, t_c: float, t_stop: float, t_end: float, scale: float,
               cell_id, pair_stream: RngStream, theta_stream: RngStream, accept_stream: RngStream,
               end_stream: RngStream):
    """Run one cell's collision counter from t_c until it passes t_stop, updating ``states`` in place;
    an accepted proposal adds 1/(scale lam) to the counter. Returns the log columns of the proposals made
    and the final counter. The collision that takes the counter past the call's end t_end is kept with
    probability (t_end - counter before it) / its increment (one ``end_stream`` uniform); a dropped one
    is undone with the rows past the cut, and the counter becomes inf.

    Each block's pairs are drawn and levelled in the cell's own indices, so that a block costs its
    length plus one list over the cell, and mapped through ``members`` only to touch the states. The
    block is applied whole, level by level, then cut after the proposal that takes the counter past
    t_stop, or at the _REJECTION_STALL_FACTOR-th consecutive rejection, which abandons the cell. Only
    the rows kept are checked and logged; the accepted rows past the cut are undone (``_undo``).
    """
    out, stall, cap = [], 0, _REJECTION_STALL_FACTOR
    while True:
        size = _block_size((t_stop - t_c) * scale * model.Lambda * model.M)
        local = _draw_pairs(pair_stream, members.size, size)
        level, pairs = _levels(local, members.size), members[local]
        theta, u = model.theta_sampler(theta_stream, size), accept_stream.uniform(size)
        _, (acc, lam, ratio, vetoed), (z1, z2) = _apply_levels(model, states, pairs, level, theta, u)
        hits = np.flatnonzero(acc)
        inc = np.zeros(size)
        inc[hits] = 1.0 / (scale * lam[hits])
        counter = np.cumsum(np.concatenate([[t_c], inc]))
        past = np.flatnonzero(counter[1:] > t_stop)
        made = int(past[0]) + 1 if past.size else size
        before = np.concatenate([[-1 - stall], hits])  # the row before each run of rejections
        stop = before[np.diff(np.append(before, size)) > cap] + cap + 1 if stall + size >= cap else before[:0]
        stalled = stop.size > 0 and stop[0] < made
        made = int(stop[0]) if stalled else made
        t_c = counter[made]
        if t_c > t_end and end_stream.uniform() >= (t_end - counter[made - 1]) / inc[made - 1]:
            made, t_c = made - 1, math.inf
        _check(ratio[:made], vetoed[:made], stacklevel=4)
        if made < size:
            _undo(states, pairs, level, hits[hits >= made], z1, z2)
        stall = made - 1 - int(before[np.searchsorted(before, made) - 1])
        out.append((counter[:made], pairs[:made, 0], pairs[:made, 1], acc[:made]))
        if stalled:
            warnings.warn(f"cell {cell_id}: {stall} consecutive fictitious collisions, "
                          "abandoning the cell for the rest of this pass (all pair rates may be zero)")
        if stalled or past.size:
            return (out[0] if len(out) == 1 else [np.concatenate(col) for col in zip(*out)]), float(t_c)


def _undo(states, pairs, level, rows, z1, z2):
    """Write back the pre-collision states (z1, z2) of ``rows`` of an ``_apply_levels`` block, all in
    proposal order, top level first, so that the lowest level's write stays. That is exact when no
    row undone fed a row kept: a row sharing a particle with an earlier row has a higher level."""
    top = level[rows]
    for lv in sorted(set(top.tolist()), reverse=True):
        undo = rows[top == lv]
        states[pairs[undo, 0]], states[pairs[undo, 1]] = z1[undo], z2[undo]


def nanbu_simulate(model: CollisionModel, e0: Ensemble, dt: float, steps: int, rng: RngStream) -> Ensemble:
    """One-sided collisions: per step each particle independently collides
    with probability min(1, Lambda M dt) against a uniform partner, runs
    the usual accept-reject, and updates only itself, to the first state
    of psi_pair. Every update of a step reads the states before the step,
    so a step is one array step."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps!r}")
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
    hit_stream, partner_stream, theta_stream, accept_stream = (rng.substream(k) for k in range(4))
    for _ in range(steps):
        states = _apply_free_flow(model, states, dt)
        t += dt
        i = np.flatnonzero(hit_stream.uniform(n) < p_collide)
        r = partner_stream.integers(n - 1, size=i.size)
        z1, z2 = states[i], states[r + (r >= i)]
        theta = model.theta_sampler(theta_stream, i.size)
        accepted, _, ratio, vetoed = _accept(model, z1, z2, theta, accept_stream.uniform(i.size))
        _check(ratio, vetoed, stacklevel=3)
        if accepted.any():  # z1 and z2 are copies, so every update reads the states before the step
            states[i[accepted]] = model.psi_pair(z1[accepted], z2[accepted], theta[accepted])[0]
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
    g = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2).reshape(u.shape)[:, :dim]
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
    """Rows with z1 == z2 in every coordinate (NaN differs, -0.0 equals 0.0), a column at a time."""
    same = z1[:, 0] == z2[:, 0]
    for c in range(1, z1.shape[1]):
        same &= z1[:, c] == z2[:, c]
    return same


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
        u0 = u[:, 0]
        order = u0.argsort()  # np.interp looks up ascending queries from the last knot found
        theta[order, 0] = np.interp(u0[order], cdf, angles)
        theta[:, 1:] = _directions(u[:, 1:], d - 1)
        return theta

    def psi_pair(z1, z2, theta):
        rel = z1 - z2
        speed = np.sqrt(_rowdot(rel, rel))
        z1p, z2p = _elastic_pair(z1, z2, scattering_direction(rel, theta[:, 0], theta[:, 1:], speed), speed)
        zero = ~(speed > 0)  # z1 == z2 gives speed 0 (NaN for an equal infinity): a superset of the same rows
        if zero.any():
            rows = np.flatnonzero(zero)
            same = rows[_same_rows(z1[rows], z2[rows])]
            z1p[same], z2p[same] = z1[same], z2[same]
        return z1p, z2p

    return CollisionModel(lam=lam, Lambda=total, psi_pair=psi_pair, theta_sampler=theta_sampler)


def hard_sphere_model(Lambda_cap: float, d: int = 3) -> CollisionModel:
    """Hard spheres in cutoff form: lam(v, v*) = min(|v - v*|, Lambda_cap)
    with uniform scattering direction on the sphere. The velocity-dependent
    rate runs through accept-reject against the cap; pairs faster than the
    cap collide at the clipped rate (documented cutoff bias)."""
    if not (math.isfinite(Lambda_cap) and Lambda_cap > 0):
        raise ValueError(f"Lambda_cap must be finite and positive, got {Lambda_cap!r}")
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
