import math
import re
import warnings

import numpy as np
import pytest

from meanfield import core, jump
from meanfield.core import Ensemble, RngStream, empirical_mean
from meanfield.errors import BoundViolation, StepError
from meanfield.jump import MAX_BANDWIDTH, MIN_BANDWIDTH, CmcConfig, JumpModel, cmc_run, simulate_jump, _log_mixture

# rows of 65, 32, 43 and 24 leave a partial last block; N * d above the
# block leaves one row per block
MIXTURE_SHAPES = [(1000, 2000, 1), (1000, 2000, 2), (500, 777, 3), (300, 601, 9), (8000, 5, 9), (70000, 3, 1)]
# coordinate axes of 100 and 4000 against a one-row ufunc buffer of 16
# floats, and N just above numpy's default 8192-float buffer
BUFFER_SHAPES = [(10, 40, 100), (16, 7, 4000), (9000, 3, 1)]


def dense_log_mixture(points, at, h):
    """The N x N(x d) broadcast formula that the blocked mixture reproduces:
    the log of each row's exp-sum, and the row max shifted form for a row
    whose exp-sum is below jump._LEAST_SUM."""
    d = points.shape[1]
    log_terms = ((at[:, None, :] - points[None, :, :]) ** 2).sum(axis=2) * (-1.0 / (2.0 * h * h))
    total = np.exp(log_terms).sum(axis=1)
    low = total < jump._LEAST_SUM
    with np.errstate(divide="ignore"):
        lse = np.log(total)
    m = log_terms[low].max(axis=1, keepdims=True)
    lse[low] = m[:, 0] + np.log(np.exp(log_terms[low] - m).sum(axis=1))
    norm = math.log(points.shape[0]) + d * math.log(h) + 0.5 * d * math.log(2.0 * math.pi)
    return lse - norm


def longdouble_log_mixture(points, at, h):
    """The row max shifted dense formula in np.longdouble, 50 rows at a time."""
    n, d = points.shape
    x = points.astype(np.longdouble)
    h = np.longdouble(h)
    lse = np.empty(len(at), dtype=np.longdouble)
    for lo in range(0, len(at), 50):
        q = at[lo:lo + 50].astype(np.longdouble)
        log_terms = -((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / (2 * h * h)
        m = log_terms.max(axis=1, keepdims=True)
        lse[lo:lo + 50] = m[:, 0] + np.log(np.exp(log_terms - m).sum(axis=1))
    return lse - (np.log(np.longdouble(n)) + d * np.log(h) + d * np.log(2 * np.longdouble(np.pi)) / 2)


class TestSimulateJump:
    def test_zero_rate_identity(self):
        model = JumpModel(rate=lambda x, points: 0.0, rate_bound=5.0,
                          jump_law=lambda x, points, rng: np.zeros_like(x))
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        result = simulate_jump(model, e0, 10.0, RngStream(60))
        assert np.array_equal(result.ensemble.states, e0.states)
        assert result.jumps == 0

    def test_poisson_survival_fraction(self):
        # unit rate, jump to 0: P(no jump by T=3) = e^-3
        n = 2000
        model = JumpModel(rate=lambda x, points: 1.0, rate_bound=2.5,
                          jump_law=lambda x, points, rng: np.zeros(1))
        result = simulate_jump(model, Ensemble(np.ones(n)), 3.0, RngStream(61))
        survived = float((result.ensemble.states == 1.0).mean())
        p = math.exp(-3)
        assert abs(survived - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_identity_jump_law_keeps_states(self):
        model = JumpModel(rate=lambda x, points: 2.0, rate_bound=2.0,
                          jump_law=lambda x, points, rng: x)
        e0 = Ensemble(np.array([4.0, -1.0]))
        result = simulate_jump(model, e0, 2.0, RngStream(62))
        assert np.array_equal(result.ensemble.states, e0.states)
        assert result.jumps > 0

    @pytest.mark.parametrize("bound", [1.5, 4.0])
    def test_thinning_invariant_under_bound(self, bound):
        # jump count has mean r N T regardless of the bound used to thin
        n, t, r = 400, 2.0, 1.0
        model = JumpModel(rate=lambda x, points: r, rate_bound=bound,
                          jump_law=lambda x, points, rng: x + 1.0)
        result = simulate_jump(model, Ensemble(np.zeros(n)), t, RngStream(63))
        mean = r * n * t
        assert abs(result.jumps - mean) <= 3 * math.sqrt(mean)

    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream):
        # acceptance is strict: u = 0.0 never accepts a zero-rate ring
        model = JumpModel(rate=lambda x, points: 0.0, rate_bound=5.0,
                          jump_law=lambda x, points, rng: np.zeros_like(x))
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        result = simulate_jump(model, e0, 10.0, zero_uniform_stream(60))
        assert result.rings > 0 and result.jumps == 0
        assert np.array_equal(result.ensemble.states, e0.states)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_a_horizon_that_is_not_finite_and_positive_is_refused(self, T):
        model = JumpModel(rate=lambda x, points: 1.0, rate_bound=1.0, jump_law=lambda x, points, rng: x)
        with pytest.raises(ValueError, match=f"^T must be finite and positive, got {T!r}$"):
            simulate_jump(model, Ensemble(np.zeros(4)), T, RngStream(66))

    def test_an_infinite_ring_count_is_refused(self, no_draw_stream):
        # N rate_bound overflows at N = 10, before any draw
        model = JumpModel(rate=lambda x, points: 1.0, rate_bound=1e308, jump_law=lambda x, points, rng: x)
        with pytest.raises(ValueError, match=r"^the expected ring count N rate_bound T is inf$"):
            simulate_jump(model, Ensemble(np.zeros(10)), 1.0, no_draw_stream(67))

    def test_rate_above_bound_aborts(self):
        model = JumpModel(rate=lambda x, points: 3.0, rate_bound=1.0,
                          jump_law=lambda x, points, rng: x)
        with pytest.raises(BoundViolation):
            simulate_jump(model, Ensemble(np.zeros(10)), 5.0, RngStream(64))

    @pytest.mark.parametrize("rate", [math.nan, -1.0], ids=["nan", "negative"])
    def test_a_nan_or_negative_rate_aborts(self, rate):
        model = JumpModel(rate=lambda x, points: rate, rate_bound=1.0, jump_law=lambda x, points, rng: x)
        with pytest.raises(BoundViolation, match=f"^rate {rate:g} is not a rate"):
            simulate_jump(model, Ensemble(np.zeros(10)), 5.0, RngStream(64))

    def test_rate_sees_current_measure(self):
        # rate depends on the mean: after enough jumps push the mean above
        # the gate, jumping stops; exercises measure refresh at every ring
        model = JumpModel(rate=lambda x, points: 1.0 if empirical_mean(points)[0] < 0.5 else 0.0,
                          rate_bound=1.0, jump_law=lambda x, points, rng: np.ones(1))
        result = simulate_jump(model, Ensemble(np.zeros(100)), 50.0, RngStream(65))
        assert 0.45 <= result.ensemble.states.mean() <= 0.6

    def test_non_finite_post_jump_state_names_particle_and_ring_time(self):
        # particle 2 is the only one whose jump law gives nan
        model = JumpModel(rate=lambda x, points: 1.0, rate_bound=1.0,
                          jump_law=lambda x, points, rng: np.full_like(x, np.nan if x[0] == 2.0 else 0.0))
        with pytest.raises(StepError, match="non-finite post-jump state") as err:
            simulate_jump(model, Ensemble(np.array([0.0, 1.0, 2.0, 3.0])), 50.0, RngStream(71))
        assert err.value.particle == 2 and 0.0 < err.value.time <= 50.0
        assert err.value.step is None and f"particle=2 | time={err.value.time:g}" in str(err.value)

    def test_rings_go_to_uniform_particles(self):
        # every ring jumps x -> x + 1, so each state counts its particle's rings: iid Poisson(rate T = 3)
        n, mean = 2000, 3.0
        model = JumpModel(rate=lambda x, points: 1.5, rate_bound=1.5, jump_law=lambda x, points, rng: x + 1.0)
        result = simulate_jump(model, Ensemble(np.zeros(n)), 2.0, RngStream(67))
        counts = result.ensemble.states[:, 0]
        assert result.rings == result.jumps == counts.sum()
        assert abs(counts.mean() - mean) <= 4 * math.sqrt(mean / n)
        # the sample variance of n Poisson counts has variance about (mean + 2 mean^2) / n
        assert abs(counts.var(ddof=1) - mean) <= 4 * math.sqrt((mean + 2 * mean ** 2) / n)

    def test_block_size_changes_nothing(self, monkeypatch):
        # block size 1 draws the rings one at a time
        model = JumpModel(rate=lambda x, points: 0.5 + 0.5 * math.tanh(x[0] - empirical_mean(points)[0]),
                          rate_bound=1.0, jump_law=lambda x, points, rng: x + rng.normal(1))
        outs = []
        for block in (1, 7, core._BLOCK):
            monkeypatch.setattr(core, "_BLOCK", block)
            result = simulate_jump(model, Ensemble(np.zeros(50)), 3.0, RngStream(68))
            outs.append((result.ensemble.states.tobytes(), result.jumps, result.rings))
        assert 0 < outs[0][1] < outs[0][2]
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestTwoStateLimit:
    """0 -> 1 at rate a + b m and 1 -> 0 at rate c, where m is the fraction in state 1: as N grows,
    m follows the mean-field ODE dm/dt = (1 - m)(a + b m) - c m."""

    a, b, c = 0.2, 1.0, 0.6

    def drift(self, m: float) -> float:
        return (1.0 - m) * (self.a + self.b * m) - self.c * m

    def limit(self, T: float, h: float = 1e-3) -> float:
        """m(T) from m(0) = 0, by RK4 at step h."""
        m = 0.0
        for _ in range(round(T / h)):
            k1 = self.drift(m)
            k2 = self.drift(m + h / 2 * k1)
            k3 = self.drift(m + h / 2 * k2)
            m += h / 6 * (k1 + 2 * k2 + 2 * k3 + self.drift(m + h * k3))
        return m

    def test_fraction_follows_the_mean_field_ode(self):
        # m(5) = 0.54388; at N = 4000 the fraction's sd over seeds 10000-10049 is 0.0100, so the
        # bound is 3.5 sd. A frozen engine (m = 0), or one whose rates read the initial measure (the
        # b = 0 limit, 0.245), is far outside it
        model = JumpModel(rate=lambda x, pts: self.a + self.b * empirical_mean(pts)[0] if x[0] == 0.0 else self.c,
                          rate_bound=max(self.a + self.b, self.c), jump_law=lambda x, points, rng: 1.0 - x)
        result = simulate_jump(model, Ensemble(np.zeros(4000)), 5.0, RngStream(72))
        assert self.limit(5.0) == pytest.approx(0.54388, abs=1e-5)
        assert abs(result.ensemble.states.mean() - self.limit(5.0)) <= 0.035


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
        # the mixture's factor -1 / (2 h^2) is -inf below MIN_BANDWIDTH, and a
        # query on a point would give 0 * -inf = nan
        with pytest.raises(ValueError, match="bandwidth"):
            CmcConfig(target_log_density=lambda x: 0.0, h=1e-300, n=3, steps=5)
        below = math.nextafter(MIN_BANDWIDTH, 0.0)
        assert -1.0 / (2.0 * below * below) == -math.inf < -1.0 / (2.0 * MIN_BANDWIDTH * MIN_BANDWIDTH)
        with pytest.raises(ValueError, match="bandwidth"):
            CmcConfig(target_log_density=lambda x: 0.0, h=below, n=3, steps=5)
        CmcConfig(target_log_density=lambda x: 0.0, h=MIN_BANDWIDTH, n=3, steps=5)
        points = np.array([[0.0], [1e-160]])
        assert np.all(np.isfinite(_log_mixture(points, points, MIN_BANDWIDTH)))

    def test_bandwidth_above_the_greatest_raises(self):
        # 2 h^2 overflows above MAX_BANDWIDTH, so the factor -1 / (2 h^2) is -0.0 and
        # the mixture loses its kernel term: -355.517 against the density's -356.017 at 1e154
        above = math.nextafter(MAX_BANDWIDTH, math.inf)
        assert 2.0 * above * above == math.inf > 2.0 * MAX_BANDWIDTH * MAX_BANDWIDTH
        for h in (above, 1e154):
            with pytest.raises(ValueError, match="bandwidth"):
                CmcConfig(target_log_density=lambda x: 0.0, h=h, n=3, steps=5)
        CmcConfig(target_log_density=lambda x: 0.0, h=MAX_BANDWIDTH, n=3, steps=5)
        x = 1e154
        density = -0.5 * (x / MAX_BANDWIDTH) ** 2 - math.log(MAX_BANDWIDTH) - 0.5 * math.log(2.0 * math.pi)
        assert _log_mixture(np.array([[0.0]]), np.array([[x]]), MAX_BANDWIDTH)[0] == pytest.approx(density, rel=1e-12)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_bandwidth_must_be_finite(self, h):
        # an infinite h used to build, and cmc_run then rejected every proposal
        with pytest.raises(ValueError, match=r"bandwidth h must be finite"):
            CmcConfig(target_log_density=lambda x: 0.0, h=h, n=3, steps=5)

    def test_needs_a_particle(self):
        with pytest.raises(ValueError, match=r"need n >= 1 particles; got 0"):
            CmcConfig(target_log_density=lambda x: 0.0, h=0.5, n=0, steps=5)

    def test_needs_a_dimension(self):
        with pytest.raises(ValueError, match=r"need dim >= 1; got 0"):
            CmcConfig(target_log_density=lambda x: 0.0, h=0.5, n=3, steps=5, dim=0)

    def test_infinite_density_at_start_rejected(self):
        cfg = CmcConfig(target_log_density=lambda x: -np.inf, h=0.5, n=3, steps=5, dim=1)
        with pytest.raises(ValueError, match="finite"):
            cmc_run(cfg, Ensemble(np.zeros(3)), RngStream(71))

    def test_non_finite_initial_density_names_the_first_particle_and_its_value(self):
        cfg = CmcConfig(target_log_density=lambda x: -np.inf if x[0] > 1.0 else 0.0, h=0.5, n=4, steps=5, dim=1)
        with pytest.raises(ValueError, match=r"^target log density must be finite at every initial state: "
                                             r"particle 2 gives -inf$"):
            cmc_run(cfg, Ensemble(np.array([0.0, 0.5, 2.0, 3.0])), RngStream(72))

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
        # -1 / (2 h^2) = -1 / 0.18 is rounded, and the dense formula multiplies by the same factor
        assert np.array_equal(_log_mixture(points, at, 0.3), dense_log_mixture(points, at, 0.3))

    def test_blocked_mixture_far_points(self):
        # 40 bandwidths out every exp underflows unless the row max is shifted
        rng = RngStream(80)
        points = rng.normal((300, 2))
        at = 20.0 + rng.normal((150, 2))
        val = _log_mixture(points, at, 0.5)
        assert np.all(np.isfinite(val))
        assert np.array_equal(val, dense_log_mixture(points, at, 0.5))

    def test_mixture_is_accurate(self):
        # against np.longdouble: the shapes of the blocked tests, rows 40
        # bandwidths out, and one block of both underflowing and ordinary rows
        rng = RngStream(95)
        cases = [(rng.normal((n, d)), rng.normal((m, d)), 0.3) for n, m, d in MIXTURE_SHAPES]
        points = rng.normal((300, 2))
        cases.append((points, 20.0 + rng.normal((150, 2)), 0.5))
        at = rng.normal((60, 2))
        at[::3] += 20.0
        cases.append((points, at, 0.5))
        for points, at, h in cases:
            val = _log_mixture(points, at, h)
            ref = longdouble_log_mixture(points, at, h)
            assert np.all(np.abs(val - ref) <= 1e-13 * np.abs(ref))

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
def block_share(request, monkeypatch):
    """Run the mixture with 1/share of its block floats: rows are blocked
    another way, and no value may change."""
    monkeypatch.setattr(jump, "_BLOCK_FLOATS", jump._BLOCK_FLOATS // request.param)
    return request.param


class TestMixtureWorkers:
    # fewer query rows than a block, and no query rows at all
    @pytest.mark.parametrize("n, m, d", MIXTURE_SHAPES + BUFFER_SHAPES + [(1000, 2, 1), (50, 0, 3)])
    def test_equals_dense_at_any_worker_count(self, block_share, monkeypatch, n, m, d):
        rng = RngStream(79)
        points = rng.normal((n, d))
        at = rng.normal((m, d))
        sizes = []  # the rows of each block, and of each block's far rows
        log_terms = jump._log_terms

        def traced(points, block, *args):
            sizes.append(len(block))
            return log_terms(points, block, *args)

        monkeypatch.setattr(jump, "_log_terms", traced)
        val = _log_mixture(points, at, 0.3)
        assert np.array_equal(val, dense_log_mixture(points, at, 0.3))
        rows = max(1, jump._BLOCK_FLOATS // (n * d))
        assert max(sizes, default=0) == min(rows, m)

    @pytest.mark.parametrize("share", [1, 2])
    def test_runs_under_the_callers_errstate(self, monkeypatch, share):
        # an infinite query row has every log term -inf, so its exp-sum is 0
        # and its max shift computes -inf - -inf; 65- or 32-row blocks put
        # the last of 200 rows in a last block of 5 or 8 rows
        monkeypatch.setattr(jump, "_BLOCK_FLOATS", jump._BLOCK_FLOATS // share)
        rng = RngStream(84)
        points = rng.normal((1000, 1))
        at = rng.normal((200, 1))
        at[-1] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _log_mixture(points, at, 0.5)
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            val = _log_mixture(points, at, 0.5)
        assert np.isnan(val[-1]) and np.all(np.isfinite(val[:-1]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMixtureBuffer:
    @pytest.mark.parametrize("n, bufsize", [(1000, 1008), (8000, 8000), (9000, 8192), (1, 16)])
    def test_each_range_runs_with_a_one_row_buffer(self, block_share, monkeypatch, n, bufsize):
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

    def test_buffer_size_and_errstate_come_back(self, block_share):
        rng = RngStream(91)
        points = rng.normal((1000, 1))
        at = rng.normal((200, 1))
        before = (np.getbufsize(), np.geterr())
        _log_mixture(points, at, 0.5)
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
    def test_values_do_not_depend_on_the_callers_buffer(self, block_share, n, m, d):
        rng = RngStream(92)
        points = rng.normal((n, d))
        at = rng.normal((m, d))
        val = _log_mixture(points, at, 0.3)
        with np.errstate():
            np.setbufsize(16)
            assert same_bits(_log_mixture(points, at, 0.3), val)

    # 65-, 43- and 24-row blocks: the own rows start inside a block
    @pytest.mark.parametrize("n, m, d", [(1000, 100, 1), (500, 60, 3), (300, 50, 9), (40, 7, 2)])
    def test_own_rows_equal_the_general_path(self, block_share, n, m, d):
        # a sweep queries its proposals, then the points themselves; the own
        # rows take the pass of every other row, with a self term exp(0) = 1
        rng = RngStream(93)
        points = np.round(rng.normal((n, d)), 1)  # duplicate points tie at -0.0
        points[:3] = points[3]
        points[4] = -0.0
        points[5] = 0.0
        at = np.concatenate([rng.normal((m, d)), points])
        val = _log_mixture(points, at, 0.3)
        assert same_bits(val, dense_log_mixture(points, at, 0.3))
        assert same_bits(val[m:], _log_mixture(points, points, 0.3))
        # distinct points lie 10 bandwidths or more apart here, and no row falls back
        far = points + 40.0
        assert same_bits(_log_mixture(far, far, 0.01), dense_log_mixture(far, far, 0.01))

    def test_own_rows_with_a_non_finite_point(self):
        # the self term of an infinite point is inf - inf; every other row
        # has a zero term for it
        points = RngStream(94).normal((100, 1))
        points[7] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _log_mixture(points, points, 0.3)
        with np.errstate(invalid="ignore"):
            own = _log_mixture(points, points, 0.3)
            finite = _log_mixture(np.delete(points, 7, axis=0), np.delete(points, 7, axis=0), 0.3)
        assert np.isnan(own[7])
        assert np.allclose(np.delete(own, 7), finite - math.log(100 / 99), rtol=1e-13, atol=0.0)
