import math
import re
import threading
import warnings

import numpy as np
import pytest

from meanfield import jump
from meanfield.core import Ensemble, RngStream
from meanfield.errors import BoundViolation
from meanfield.jump import MIN_BANDWIDTH, CmcConfig, JumpModel, cmc_run, simulate_jump, _log_mixture

# rows of 65, 32, 43 and 24 leave a partial last block; N * d above the
# block leaves one row per block
MIXTURE_SHAPES = [(1000, 2000, 1), (1000, 2000, 2), (500, 777, 3), (300, 601, 9), (8000, 5, 9), (70000, 3, 1)]
# coordinate axes of 100 and 4000 against a one-row ufunc buffer of 16
# floats, and N just above numpy's default 8192-float buffer
BUFFER_SHAPES = [(10, 40, 100), (16, 7, 4000), (9000, 3, 1)]


def dense_log_mixture(points, at, h):
    """The N x N(x d) broadcast formula that the blocked mixture reproduces."""
    d = points.shape[1]
    sq = ((at[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    log_terms = -sq / (2.0 * h * h)
    m = log_terms.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(log_terms - m).sum(axis=1))
    norm = math.log(points.shape[0]) + d * math.log(h) + 0.5 * d * math.log(2.0 * math.pi)
    return lse - norm


class TestSimulateJump:
    def test_zero_rate_identity(self):
        model = JumpModel(rate=lambda x, mu: 0.0, rate_bound=5.0,
                          jump_law=lambda x, mu, rng: np.zeros_like(x))
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        result = simulate_jump(model, e0, 10.0, RngStream(60))
        assert np.array_equal(result.ensemble.states, e0.states)
        assert result.jumps == 0

    def test_poisson_survival_fraction(self):
        # unit rate, jump to 0: P(no jump by T=3) = e^-3
        n = 2000
        model = JumpModel(rate=lambda x, mu: 1.0, rate_bound=2.5,
                          jump_law=lambda x, mu, rng: np.zeros(1))
        result = simulate_jump(model, Ensemble(np.ones(n)), 3.0, RngStream(61))
        survived = float((result.ensemble.states == 1.0).mean())
        p = math.exp(-3)
        assert abs(survived - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_identity_jump_law_keeps_states(self):
        model = JumpModel(rate=lambda x, mu: 2.0, rate_bound=2.0,
                          jump_law=lambda x, mu, rng: x)
        e0 = Ensemble(np.array([4.0, -1.0]))
        result = simulate_jump(model, e0, 2.0, RngStream(62))
        assert np.array_equal(result.ensemble.states, e0.states)
        assert result.jumps > 0

    @pytest.mark.parametrize("bound", [1.5, 4.0])
    def test_thinning_invariant_under_bound(self, bound):
        # jump count has mean r N T regardless of the bound used to thin
        n, t, r = 400, 2.0, 1.0
        model = JumpModel(rate=lambda x, mu: r, rate_bound=bound,
                          jump_law=lambda x, mu, rng: x + 1.0)
        result = simulate_jump(model, Ensemble(np.zeros(n)), t, RngStream(63))
        mean = r * n * t
        assert abs(result.jumps - mean) <= 3 * math.sqrt(mean)

    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream):
        # acceptance is strict: u = 0.0 never accepts a zero-rate ring
        model = JumpModel(rate=lambda x, mu: 0.0, rate_bound=5.0,
                          jump_law=lambda x, mu, rng: np.zeros_like(x))
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        result = simulate_jump(model, e0, 10.0, zero_uniform_stream(60))
        assert result.rings > 0 and result.jumps == 0
        assert np.array_equal(result.ensemble.states, e0.states)

    def test_rate_above_bound_aborts(self):
        model = JumpModel(rate=lambda x, mu: 3.0, rate_bound=1.0,
                          jump_law=lambda x, mu, rng: x)
        with pytest.raises(BoundViolation):
            simulate_jump(model, Ensemble(np.zeros(10)), 5.0, RngStream(64))

    def test_rate_sees_current_measure(self):
        # rate depends on the mean: after enough jumps push the mean above
        # the gate, jumping stops; exercises measure refresh at every ring
        model = JumpModel(rate=lambda x, mu: 1.0 if mu.mean()[0] < 0.5 else 0.0,
                          rate_bound=1.0, jump_law=lambda x, mu, rng: np.ones(1))
        result = simulate_jump(model, Ensemble(np.zeros(100)), 50.0, RngStream(65))
        assert 0.45 <= result.ensemble.states.mean() <= 0.6


class TestCmc:
    def test_uniform_target_large_bandwidth_accepts(self):
        # flat target: alpha reduces to the mixture ratio. With h far above
        # the box size the mixture is flat across the box, so alpha = 1 up
        # to (box/h)^2 and in-box proposals are all accepted.
        points = RngStream(66).uniform(50).reshape(-1, 1)
        log_mix = _log_mixture(points, points, 1e4)
        assert np.ptp(log_mix) < 1e-6  # alpha within 1e-6 of 1 across the box
        cfg = CmcConfig(target_log_density=lambda x: 0.0, h=1e4, n=50, steps=3, dim=1)
        result = cmc_run(cfg, Ensemble(points), RngStream(67))
        assert result.accept_trace[0] == 1.0

    def test_gaussian_target_moments(self):
        cfg = CmcConfig(
            target_log_density=lambda x: -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1),
            h=0.5, n=200, steps=600, burn_in=200, dim=1, vectorized=True,
        )
        e0 = Ensemble(RngStream(68).normal((200, 1)))
        result = cmc_run(cfg, e0, RngStream(69))
        assert abs(result.samples.mean()) < 0.1
        assert result.samples.var() == pytest.approx(1.0, rel=0.15)

    def test_single_particle_self_perturbation(self):
        cfg = CmcConfig(target_log_density=lambda x: -0.5 * float(np.sum(np.asarray(x) ** 2)),
                        h=0.5, n=1, steps=50, dim=1)
        result = cmc_run(cfg, Ensemble(np.array([0.3])), RngStream(70))
        assert np.all(np.isfinite(result.ensemble.states))

    def test_burn_in_must_leave_a_sweep(self):
        with pytest.raises(ValueError, match="burn_in < steps"):
            CmcConfig(target_log_density=lambda x: 0.0, h=0.5, n=3, steps=5, burn_in=5)
        CmcConfig(target_log_density=lambda x: 0.0, h=0.5, n=3, steps=5, burn_in=4)

    def test_bandwidth_below_the_least_raises(self):
        # 2 h^2 underflows to 0 below MIN_BANDWIDTH and the mixture divides 0/0
        with pytest.raises(ValueError, match="bandwidth"):
            CmcConfig(target_log_density=lambda x: 0.0, h=1e-300, n=3, steps=5)
        below = math.nextafter(MIN_BANDWIDTH, 0.0)
        assert 2.0 * below * below == 0.0 < 2.0 * MIN_BANDWIDTH * MIN_BANDWIDTH
        with pytest.raises(ValueError, match="bandwidth"):
            CmcConfig(target_log_density=lambda x: 0.0, h=below, n=3, steps=5)
        CmcConfig(target_log_density=lambda x: 0.0, h=MIN_BANDWIDTH, n=3, steps=5)

    def test_infinite_density_at_start_rejected(self):
        cfg = CmcConfig(target_log_density=lambda x: -np.inf, h=0.5, n=3, steps=5, dim=1)
        with pytest.raises(ValueError, match="finite"):
            cmc_run(cfg, Ensemble(np.zeros(3)), RngStream(71))

    def test_infinite_density_proposals_auto_reject(self):
        # target supported on x < 1: proposals beyond are never accepted
        def log_pi(x):
            return 0.0 if float(x[0]) < 1.0 else -np.inf

        cfg = CmcConfig(target_log_density=log_pi, h=0.5, n=50, steps=40, dim=1)
        result = cmc_run(cfg, Ensemble(RngStream(72).uniform(50)), RngStream(73))
        assert np.all(result.ensemble.states < 1.0)

    @pytest.mark.parametrize("target, vectorized, n, got", [
        (lambda x: 0.0, True, 50, "(1,)"),  # one value for the whole batch
        (lambda x: np.zeros(len(x) - 1), True, 50, "(49,)"),
        (lambda x: np.zeros(1), False, 20, "(20, 1)"),  # a shape-(1,) value per point
    ])
    def test_target_of_the_wrong_shape_raises(self, target, vectorized, n, got):
        cfg = CmcConfig(target_log_density=target, h=0.5, n=n, steps=3, dim=1, vectorized=vectorized)
        with pytest.raises(ValueError, match=rf"shape \({n},\); got shape {re.escape(got)}"):
            cmc_run(cfg, Ensemble(RngStream(86).normal((n, 1))), RngStream(87))

    def test_target_of_the_wrong_shape_at_the_proposals_raises(self):
        calls = []

        def target(x):  # right at the initial states, one value short after
            calls.append(len(x))
            return np.zeros(len(x) - (len(calls) > 2))

        cfg = CmcConfig(target_log_density=target, h=0.5, n=30, steps=5, dim=1, vectorized=True)
        with pytest.raises(ValueError, match=r"shape \(30,\); got shape \(29,\)"):
            cmc_run(cfg, Ensemble(RngStream(88).normal((30, 1))), RngStream(89))
        assert len(calls) == 3  # the initial states and two sweeps

    def test_shift_invariance_of_decisions(self):
        # adding a constant to the log target leaves every decision unchanged
        base = lambda x: -0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1)
        shifted = lambda x: base(x) + 7.25
        runs = []
        for target in (base, shifted):
            cfg = CmcConfig(target_log_density=target, h=0.5, n=100, steps=50,
                            dim=1, vectorized=True)
            e0 = Ensemble(RngStream(74).normal((100, 1)))
            runs.append(cmc_run(cfg, e0, RngStream(75)))
        assert np.array_equal(runs[0].accept_trace, runs[1].accept_trace)
        assert np.array_equal(runs[0].ensemble.states, runs[1].ensemble.states)

    def test_mixture_density_order_invariant(self):
        # the pre-sweep mixture ignores particle ordering
        rng = RngStream(76)
        points = rng.normal((40, 2))
        at = rng.normal((7, 2))
        perm = rng.gen.permutation(40)
        a = _log_mixture(points, at, 0.5)
        b = _log_mixture(points[perm], at, 0.5)
        assert np.allclose(a, b, rtol=1e-12)

    def test_mixture_density_value(self):
        # single support point: mixture is the gaussian density itself
        val = _log_mixture(np.array([[0.0]]), np.array([[0.7]]), 1.0)
        expected = -0.5 * 0.7**2 - 0.5 * math.log(2 * math.pi)
        assert val[0] == pytest.approx(expected)

    @pytest.mark.parametrize("n, m, d", MIXTURE_SHAPES)
    def test_blocked_mixture_equals_dense(self, n, m, d):
        rng = RngStream(79)
        points = rng.normal((n, d))
        at = rng.normal((m, d))
        # 2 h^2 = 0.18 is no power of 2, so a product by its reciprocal would differ
        assert np.array_equal(_log_mixture(points, at, 0.3), dense_log_mixture(points, at, 0.3))

    def test_blocked_mixture_far_points(self):
        # 40 bandwidths out every exp underflows unless the row max is shifted
        rng = RngStream(80)
        points = rng.normal((300, 2))
        at = 20.0 + rng.normal((150, 2))
        val = _log_mixture(points, at, 0.5)
        assert np.all(np.isfinite(val))
        assert np.array_equal(val, dense_log_mixture(points, at, 0.5))

    def test_blocked_mixture_empty_at(self):
        points = RngStream(81).normal((50, 3))
        val = _log_mixture(points, np.empty((0, 3)), 0.5)
        assert val.shape == (0,)
        assert np.array_equal(val, dense_log_mixture(points, np.empty((0, 3)), 0.5))

    def test_acceptance_trace_csv(self, tmp_path):
        cfg = CmcConfig(target_log_density=lambda x: 0.0, h=1.0, n=10, steps=5, dim=1)
        result = cmc_run(cfg, Ensemble(RngStream(77).normal((10, 1))), RngStream(78))
        path = tmp_path / "trace.csv"
        result.write_trace_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,accept_fraction"
        assert len(lines) == 6


@pytest.fixture(params=[1, 2, 3, 7])
def workers(request, monkeypatch):
    """Run the mixture as if the process had this many CPUs."""
    monkeypatch.setattr(jump, "_cpu_count", lambda: request.param)
    return request.param


class TestMixtureWorkers:
    # fewer query rows than workers, and no query rows at all
    @pytest.mark.parametrize("n, m, d", MIXTURE_SHAPES + BUFFER_SHAPES + [(1000, 2, 1), (50, 0, 3)])
    def test_equals_dense_at_any_worker_count(self, workers, monkeypatch, n, m, d):
        rng = RngStream(79)
        points = rng.normal((n, d))
        at = rng.normal((m, d))
        callers = []  # one call of the row loop per worker, each on its own thread
        rows_of = jump._mixture_rows

        def traced(*args):
            callers.append(threading.current_thread())
            return rows_of(*args)

        monkeypatch.setattr(jump, "_mixture_rows", traced)
        before = threading.active_count()
        val = _log_mixture(points, at, 0.3)
        assert threading.active_count() == before
        assert np.array_equal(val, dense_log_mixture(points, at, 0.3))
        rows = max(1, min(jump._BLOCK_FLOATS // (n * d), m))
        assert len(set(callers)) == len(callers) == max(1, min(workers, m // rows))

    def test_cmc_run_is_the_same_on_one_and_two_workers(self, monkeypatch):
        # N = 300 gives 218-row blocks, so the 600 mixture rows of a sweep are 2 full blocks
        cfg = CmcConfig(target_log_density=lambda x: -0.5 * np.sum(x ** 2, axis=1),
                        h=0.5, n=300, steps=20, burn_in=5, dim=1, vectorized=True)
        e0 = Ensemble(RngStream(82).normal((300, 1)))
        runs = []
        for count in (1, 2):
            monkeypatch.setattr(jump, "_cpu_count", lambda: count)
            before = threading.active_count()
            runs.append(cmc_run(cfg, e0, RngStream(83)))
            assert threading.active_count() == before
        assert np.array_equal(runs[0].ensemble.states, runs[1].ensemble.states)
        assert np.array_equal(runs[0].accept_trace, runs[1].accept_trace)
        assert np.array_equal(runs[0].samples, runs[1].samples)

    @pytest.mark.parametrize("count", [1, 2])
    def test_helpers_keep_the_errstate_and_raise_in_the_caller(self, monkeypatch, count):
        # an infinite query row has every log term -inf, and its max shift
        # computes -inf - -inf; 65-row blocks put the last of 200 rows in
        # the second worker's range
        monkeypatch.setattr(jump, "_cpu_count", lambda: count)
        rng = RngStream(84)
        points = rng.normal((1000, 1))
        at = rng.normal((200, 1))
        at[-1] = np.inf
        before = threading.active_count()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _log_mixture(points, at, 0.5)
        assert threading.active_count() == before
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            val = _log_mixture(points, at, 0.5)
        assert np.isnan(val[-1]) and np.all(np.isfinite(val[:-1]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMixtureBuffer:
    @pytest.mark.parametrize("n, bufsize", [(1000, 1008), (8000, 8000), (9000, 8192), (1, 16)])
    def test_each_range_runs_with_a_one_row_buffer(self, workers, monkeypatch, n, bufsize):
        sizes = []  # the buffer size in effect at each exp of a block
        exp = np.exp

        def traced(*args, **kwargs):
            sizes.append(np.getbufsize())
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", traced)
        rng = RngStream(90)
        _log_mixture(rng.normal((n, 1)), rng.normal((200, 1)), 0.3)
        assert sizes and set(sizes) == {bufsize}
        sizes.clear()
        with np.errstate():  # a buffer the caller made smaller than one row stays
            np.setbufsize(16)
            _log_mixture(rng.normal((n, 1)), rng.normal((200, 1)), 0.3)
        assert sizes and set(sizes) == {16}

    def test_buffer_size_and_errstate_come_back(self, workers):
        rng = RngStream(91)
        points = rng.normal((1000, 1))
        at = rng.normal((200, 1))
        before = (np.getbufsize(), np.geterr())
        _log_mixture(points, at, 0.5)
        _log_mixture(points, at, 0.5, own_from=100)
        assert (np.getbufsize(), np.geterr()) == before
        at[-1] = np.inf  # its max shift computes -inf - -inf
        with np.errstate(invalid="raise", under="warn"):
            np.setbufsize(4096)
            inside = (np.getbufsize(), np.geterr())
            with pytest.raises(FloatingPointError):
                _log_mixture(points, at, 0.5)
            assert (np.getbufsize(), np.geterr()) == inside
        assert (np.getbufsize(), np.geterr()) == before

    @pytest.mark.parametrize("n, m, d", MIXTURE_SHAPES + BUFFER_SHAPES)
    def test_values_do_not_depend_on_the_callers_buffer(self, workers, n, m, d):
        rng = RngStream(92)
        points = rng.normal((n, d))
        at = rng.normal((m, d))
        val = _log_mixture(points, at, 0.3)
        with np.errstate():
            np.setbufsize(16)
            assert same_bits(_log_mixture(points, at, 0.3), val)

    # 65-, 43- and 24-row blocks: the own rows start inside a block
    @pytest.mark.parametrize("n, m, d", [(1000, 100, 1), (500, 60, 3), (300, 50, 9), (40, 7, 2)])
    def test_own_rows_equal_the_general_path(self, workers, n, m, d):
        rng = RngStream(93)
        points = np.round(rng.normal((n, d)), 1)  # duplicate points tie at -0.0
        points[:3] = points[3]
        points[4] = -0.0
        points[5] = 0.0
        at = np.concatenate([rng.normal((m, d)), points])
        own = _log_mixture(points, at, 0.3, own_from=m)
        assert same_bits(own, _log_mixture(points, at, 0.3))
        assert same_bits(own, dense_log_mixture(points, at, 0.3))
        # every block is own rows, and the blocks of a far-out row set
        assert same_bits(_log_mixture(points, points, 0.3, own_from=0), dense_log_mixture(points, points, 0.3))
        far = points + 40.0
        assert same_bits(_log_mixture(far, far, 0.01, own_from=0), dense_log_mixture(far, far, 0.01))

    def test_own_rows_with_a_non_finite_point(self):
        # the self term of an infinite point is inf - inf on either path
        points = RngStream(94).normal((100, 1))
        points[7] = np.inf
        for own_from in (0, None):
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                _log_mixture(points, points, 0.3, own_from=own_from)
        with np.errstate(invalid="ignore"):
            own = _log_mixture(points, points, 0.3, own_from=0)
            general = _log_mixture(points, points, 0.3)
        assert np.isnan(own[7]) and np.isnan(general[7])
        assert same_bits(np.delete(own, 7), np.delete(general, 7))
