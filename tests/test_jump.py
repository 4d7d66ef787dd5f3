import math

import numpy as np
import pytest

from meanfield.core import Ensemble, RngStream
from meanfield.errors import BoundViolation
from meanfield.jump import CmcConfig, JumpModel, cmc_run, simulate_jump, _log_mixture


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

    def test_acceptance_trace_csv(self, tmp_path):
        cfg = CmcConfig(target_log_density=lambda x: 0.0, h=1.0, n=10, steps=5, dim=1)
        result = cmc_run(cfg, Ensemble(RngStream(77).normal((10, 1))), RngStream(78))
        path = tmp_path / "trace.csv"
        result.write_trace_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sweep,accept_fraction"
        assert len(lines) == 6
