"""Spans around the calls the meanfield CLI makes into its layers.

Only the traced child process installs these wrappers; the untraced child
never imports this module. The wrappers replace the names ``meanfield.cli``
imported, a few methods of the public ``RngStream`` and ``Ensemble``
classes, and callables attached to the objects the CLI's factories return.
Nothing inside ``src/`` is edited.

A span is (id, parent id, name code, start, end, cpu start, cpu end):
start and end in ``time.perf_counter`` seconds, cpu start and cpu end on
the calling thread's CPU clock (``time.thread_time``). Each thread appends
to its own buffer, so recording needs no lock under ``--threads 2``; a
span id carries its buffer's slot in its high bits.
Spans stay in memory and are written once, by ``Tracer.write``, after the
run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import warnings
from array import array

import numpy as np

_SLOT = 2 ** 32  # span id = buffer slot * _SLOT + index within the buffer
_DRAWS = ("normal", "uniform", "exponential", "integers")
_STALL = "consecutive fictitious collisions"

# per-layer span names; a layer's self time sums the self time of its spans
LAYERS = {
    "core.rng": ("core.rng.draw", "core.rng.substream"),
    "core.ensemble": ("core.ensemble",),
    "mckean.replica": ("mckean.replica",),
    "mckean.drift": ("mckean.drift",),
    "boltzmann.exact": ("boltzmann.exact",),
    "boltzmann.bird": ("boltzmann.bird",),
    "boltzmann.kernel": ("boltzmann.kernel",),
    "jump.cmc": ("jump.cmc",),
    "jump.target": ("jump.target",),
    "metrics": ("metrics",),
    "cli": ("cli.run", "cli.map", "cli.replica"),
}


class _Buffer:
    __slots__ = ("slot", "rows", "stack", "size", "counts")

    def __init__(self, slot: int):
        self.slot = slot
        self.rows = array("d")
        self.stack = []
        self.size = 0
        self.counts = {}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: int):
        self.run_id = int(run_id)
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def code(self, name: str) -> int:
        with self._lock:
            if name not in self._codes:
                self._codes[name] = len(self.names)
                self.names.append(name)
            return self._codes[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def current(self) -> int:
        """Id of the innermost open span of the calling thread, or -1."""
        stack = self._buffer().stack
        return stack[-1] if stack else -1

    def call(self, code: int, fn, args, kwargs, parent: int | None = None):
        """Run fn(*args, **kwargs) inside a span. ``parent`` defaults to the
        calling thread's innermost open span; pass it to link a span started
        on a pool thread to the span that submitted the work."""
        buf = self._buffer()
        sid = buf.slot * _SLOT + buf.size
        buf.size += 1
        stack = buf.stack
        if parent is None:
            parent = stack[-1] if stack else -1
        stack.append(sid)
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu_end, end = time.thread_time(), time.perf_counter()
            stack.pop()
            buf.rows.extend((sid, parent, code, start, end, cpu_start, cpu_end))

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span named ``name``; ``on_result(args, result)``
        runs after the span closes, to record counts read from the result."""
        code = self.code(name)
        call = self.call
        if on_result is None:
            def traced(*args, **kwargs):
                return call(code, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                result = call(code, fn, args, kwargs)
                on_result(args, result)
                return result
        return functools.update_wrapper(traced, fn)

    def count(self, key: str, amount=1):
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + amount

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 7) float array."""
        parts = [np.frombuffer(b.rows, dtype=float).reshape(-1, 7) for b in self._buffers]
        return np.concatenate(parts) if parts else np.empty((0, 7))

    def counts(self) -> dict:
        merged = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def write(self, path):
        spans = self.spans()
        np.savez(path, spans=spans, run_id=np.full(len(spans), self.run_id, dtype=np.int64),
                 names=np.array(self.names), counts=np.array(json.dumps(self.counts())))


def install(tracer: Tracer, cli, core) -> None:
    """Wrap the layer entry points the CLI reaches. ``cli`` and ``core`` are
    the ``meanfield.cli`` and ``meanfield.core`` modules."""
    t = tracer

    def variates(args, result):
        t.count("core.rng.variates", getattr(result, "size", 1))

    for meth in _DRAWS:
        setattr(core.RngStream, meth, t.wrap("core.rng.draw", getattr(core.RngStream, meth), variates))
    core.RngStream.substream = t.wrap("core.rng.substream", core.RngStream.substream)
    core.Ensemble.__init__ = t.wrap("core.ensemble", core.Ensemble.__init__)

    def attach(factory, attrs, name):
        """factory whose products have ``attrs`` wrapped in spans named ``name``."""
        def build(*args, **kwargs):
            obj = factory(*args, **kwargs)
            for attr in attrs:
                setattr(obj, attr, t.wrap(name, getattr(obj, attr)))
            return obj
        return functools.update_wrapper(build, factory)

    cli.mean_field_ou_model = attach(cli.mean_field_ou_model, ("drift",), "mckean.drift")
    cli.ou_reference = attach(cli.ou_reference, ("drift",), "mckean.drift")
    cli.maxwell_cutoff_model = attach(cli.maxwell_cutoff_model,
                                      ("lam", "psi_pair", "theta_sampler"), "boltzmann.kernel")
    cli.CmcConfig = attach(cli.CmcConfig, ("target_log_density",), "jump.target")

    def replica_done(args, result):  # coupling_replica_mse(model, ref, n, grid, stream)
        n, grid = args[2], args[3]
        t.count("mckean.replica_steps", grid.steps)
        t.count("mckean.particle_steps", n * grid.steps)

    cli.coupling_replica_mse = t.wrap("mckean.replica", cli.coupling_replica_mse, replica_done)

    def log_done(args, result):  # (ensemble, EventLog)
        log = result[1]
        t.count("boltzmann.events.proposed", log.proposed)
        t.count("boltzmann.events.accepted", log.accepted)
        t.count("boltzmann.eventlog.entries", len(log.events))
        t.count("boltzmann.eventlog.truncated", int(log.truncated))

    cli.exact_simulate = t.wrap("boltzmann.exact", cli.exact_simulate, log_done)
    cli.bird_simulate = t.wrap("boltzmann.bird", cli.bird_simulate, log_done)

    def cmc_done(args, result):  # cmc_run(cfg, e0, rng)
        n, sweeps = args[0].n, len(result.accept_trace)
        t.count("jump.sweeps", sweeps)
        t.count("jump.moves.proposed", n * sweeps)
        t.count("jump.moves.accepted", int(round(float(np.sum(result.accept_trace)) * n)))
        t.count("jump.mixture.pair_evals", 2 * n * n * sweeps)

    cli.cmc_run = t.wrap("jump.cmc", cli.cmc_run, cmc_done)
    cli.fit_rate = t.wrap("metrics", cli.fit_rate)
    cli.wasserstein_1d = t.wrap("metrics", cli.wasserstein_1d)

    map_replicas = cli._map_replicas
    map_code, replica_code = t.code("cli.map"), t.code("cli.replica")

    def in_map(fn, count, threads):
        parent = t.current()  # the cli.map span, also for replicas on pool threads
        return map_replicas(lambda r: t.call(replica_code, fn, (r,), {}, parent), count, threads)

    def traced_map(fn, count, threads):
        return t.call(map_code, in_map, (fn, count, threads), {})

    cli._map_replicas = functools.update_wrapper(traced_map, map_replicas)
    cli.run = t.wrap("cli.run", cli.run)

    # bird_simulate warns on a stalled cell; count every such warning
    warnings.filterwarnings("always", message=f".*{_STALL}")
    show = warnings.showwarning

    def showwarning(message, category, filename, lineno, file=None, line=None):
        if _STALL in str(message):
            t.count("boltzmann.stall_warnings")
        show(message, category, filename, lineno, file, line)

    warnings.showwarning = showwarning


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's CPU time on its own thread minus that of its child spans
    on the same thread.

    Thread CPU time leaves out the time a span's thread waits, for the GIL
    while the other pool thread runs under ``--threads 2`` or for a pool's
    replicas to finish. Nested calls on one thread never overlap, so their
    CPU times add; children on other threads (replicas on the CLI thread
    pool) run on their own clocks and are not subtracted.
    """
    ids = spans[:, 0].astype(np.int64)
    parents = spans[:, 1].astype(np.int64)
    cpu = spans[:, 6] - spans[:, 5]
    order = np.argsort(ids)
    has = parents >= 0
    ppos = np.full(len(ids), -1, dtype=np.int64)
    ppos[has] = order[np.searchsorted(ids, parents[has], sorter=order)]
    same = has.copy()
    same[has] = ids[has] // _SLOT == ids[ppos[has]] // _SLOT
    return cpu - np.bincount(ppos[same], weights=cpu[same], minlength=len(ids))


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(path) -> dict:
    """Per-layer metrics of one traced run, from the file ``Tracer.write``
    made. Counts are exact; times are seconds unless the name says otherwise.
    Self times and the per-step, per-event and per-sweep times are thread
    CPU time; ``cli.map.wall_s`` and ``cli.map.busy_s`` are wall time.
    A ratio whose layer did no work reads 0."""
    with np.load(path) as data:
        spans = data["spans"]
        names = [str(x) for x in data["names"]]
        counts = json.loads(str(data["counts"]))
    codes = spans[:, 2].astype(np.int64)
    selfs = self_times(spans)
    wall = spans[:, 4] - spans[:, 3]
    cpu = spans[:, 6] - spans[:, 5]

    def mask(*span_names):
        wanted = [names.index(s) for s in span_names if s in names]
        return np.isin(codes, wanted)

    def calls(*span_names):
        return int(np.count_nonzero(mask(*span_names)))

    def total(*span_names, clock=cpu):
        return float(clock[mask(*span_names)].sum())

    def self_s(layer):
        return float(selfs[mask(*LAYERS[layer])].sum())

    c = lambda key: counts.get(key, 0)  # noqa: E731
    proposed = c("boltzmann.events.proposed")
    sweeps = c("jump.sweeps")
    m = {
        "core.rng.calls": calls("core.rng.draw"),
        "core.rng.variates": c("core.rng.variates"),
        "core.rng.substreams": calls("core.rng.substream"),
        "core.rng.self_s": self_s("core.rng"),
        "core.ensemble.calls": calls("core.ensemble"),
        "core.ensemble.self_s": self_s("core.ensemble"),
        "mckean.replica.calls": calls("mckean.replica"),
        "mckean.replica.self_s": self_s("mckean.replica"),
        "mckean.drift.calls": calls("mckean.drift"),
        "mckean.drift.self_s": self_s("mckean.drift"),
        "mckean.particle_steps": c("mckean.particle_steps"),
        "mckean.step_us": _ratio(total("mckean.replica"), c("mckean.replica_steps"), 1e6),
        "boltzmann.exact.self_s": self_s("boltzmann.exact"),
        "boltzmann.bird.self_s": self_s("boltzmann.bird"),
        "boltzmann.events.proposed": proposed,
        "boltzmann.events.accepted": c("boltzmann.events.accepted"),
        "boltzmann.accept_ratio": _ratio(c("boltzmann.events.accepted"), proposed),
        "boltzmann.event_us": _ratio(total("boltzmann.exact", "boltzmann.bird"), proposed, 1e6),
        "boltzmann.kernel.calls": calls("boltzmann.kernel"),
        "boltzmann.kernel.self_s": self_s("boltzmann.kernel"),
        "boltzmann.eventlog.entries": c("boltzmann.eventlog.entries"),
        "boltzmann.eventlog.truncated": c("boltzmann.eventlog.truncated"),
        "boltzmann.stall_warnings": c("boltzmann.stall_warnings"),
        "jump.cmc.self_s": self_s("jump.cmc"),
        "jump.sweeps": sweeps,
        "jump.sweep_ms": _ratio(total("jump.cmc"), sweeps, 1e3),
        "jump.target.calls": calls("jump.target"),
        "jump.target.self_s": self_s("jump.target"),
        "jump.accept_ratio": _ratio(c("jump.moves.accepted"), c("jump.moves.proposed")),
        "jump.mixture.pair_evals": c("jump.mixture.pair_evals"),
        "metrics.calls": calls("metrics"),
        "metrics.self_s": self_s("metrics"),
        "cli.self_s": self_s("cli"),
        "cli.map.wall_s": total("cli.map", clock=wall),
        "cli.map.busy_s": total("cli.replica", clock=wall),
        "cli.run.cpu_s": total("cli.run"),
    }
    return m
