import math

import numpy as np
import pytest

from meanfield.core import Ensemble, RngStream
from meanfield.errors import StepError
from meanfield.mckean import _batch_width
from meanfield.optimizer import (
    CboConfig,
    EksConfig,
    cbo_minimize,
    eks_drift,
    eks_sample,
    matrix_sqrt_psd,
    posterior_gaussian_oracle,
    spd_matrix,
)


def quadratic(target):
    target = np.asarray(target, dtype=float)
    return lambda x: np.sum((x - target) ** 2, axis=-1)


class TestCbo:
    def test_flat_objective_contracts_to_initial_mean(self):
        # G = 0: v is the plain mean; with sigma = 0 the swarm contracts
        # exponentially onto it and the mean itself never moves
        init = RngStream(80).normal((50, 2))
        cfg = CboConfig(objective=lambda x: np.zeros(x.shape[:-1]),
                        alpha=1.0, lambda_drift=1.0, sigma_noise=0.0,
                        dt=0.01, steps=800, n=50, dim=2, init=init)
        res = cbo_minimize(cfg, [RngStream(81)])[0]
        assert np.allclose(res.consensus, init.mean(axis=0), atol=1e-9)
        assert np.allclose(res.consensus_trajectory[0], init.mean(axis=0))
        gap0 = np.abs(init - init.mean(axis=0)).max()
        assert np.abs(res.best_particle - res.consensus).max() < gap0 * 2 * math.exp(-8) + 1e-12

    def test_single_particle_is_a_fixed_point(self):
        cfg = CboConfig(objective=quadratic([0.0]), alpha=10.0, lambda_drift=1.0,
                        sigma_noise=0.7, dt=0.01, steps=100, n=1, dim=1,
                        init=np.array([[5.0]]))
        res = cbo_minimize(cfg, [RngStream(82)])[0]
        # v equals the particle; drift and multiplicative noise both vanish
        assert res.consensus[0] == pytest.approx(5.0)
        assert res.best_particle[0] == pytest.approx(5.0)

    def test_objective_shift_invariance(self):
        shared = dict(alpha=30.0, lambda_drift=1.0, sigma_noise=0.7, dt=0.01,
                      steps=200, n=64, dim=1,
                      init=lambda n, d, rng: 6 * rng.uniform((n, d)))
        runs = []
        for shift in (0.0, 11.5):
            cfg = CboConfig(objective=lambda x, s=shift: quadratic([3.0])(x) + s, **shared)
            runs.append(cbo_minimize(cfg, [RngStream(83)])[0])
        assert np.allclose(runs[0].consensus_trajectory, runs[1].consensus_trajectory,
                           rtol=1e-12, atol=1e-12)

    def test_quadratic_consensus_without_gate(self):
        # ungated dynamics (the eps = 0 default) carry a consensus
        # fluctuation floor ~1/sqrt(2 alpha N) ~ 1.3e-2, so 5e-2 is the
        # honest tolerance here; the gated run below reaches 1e-2
        cfg = CboConfig(objective=quadratic([3.0]), alpha=30.0, lambda_drift=1.0,
                        sigma_noise=0.7, dt=0.01, steps=1000, n=100, dim=1,
                        init=lambda n, d, rng: 6 * rng.uniform((n, d)))
        results = cbo_minimize(cfg, [RngStream(84, k) for k in range(20)])
        hits = sum(abs(res.consensus[0] - 3.0) <= 5e-2 for res in results)
        assert hits >= 18

    def test_quadratic_consensus_with_gate_at_tight_tolerance(self):
        # alpha = 30, lambda = 1, sigma = 0.7, N = 100, T = 10: with a
        # sharply smoothed objective gate the final consensus lands within
        # 1e-2 of the minimizer in at least 18 of 20 seeds
        cfg = CboConfig(objective=quadratic([3.0]), alpha=30.0, lambda_drift=1.0,
                        sigma_noise=0.7, dt=0.01, steps=1000, n=100, dim=1,
                        eps_heaviside=1e-5,
                        init=lambda n, d, rng: 6 * rng.uniform((n, d)))
        results = cbo_minimize(cfg, [RngStream(84, k) for k in range(20)])
        hits = sum(abs(res.consensus[0] - 3.0) <= 1e-2 for res in results)
        assert hits >= 18

    def test_non_finite_objective_aborts_with_step(self):
        def partial(x):
            return np.where(np.abs(x[..., 0]) < 10.0, x[..., 0] ** 2, np.nan)

        cfg = CboConfig(objective=partial, alpha=1.0, lambda_drift=1.0, sigma_noise=5.0,
                        dt=0.5, steps=500, n=8, dim=1,
                        init=np.linspace(-9.0, 9.0, 8).reshape(-1, 1))
        with pytest.raises(StepError):
            cbo_minimize(cfg, [RngStream(85)])

    def test_streams_equal_lone_runs_across_a_group_boundary(self):
        # 2048 particles in R^2: two swarms per group, so five streams make three groups
        assert _batch_width(2048, 2) == 2
        cfg = CboConfig(objective=quadratic([1.0, -0.5]), alpha=30.0, lambda_drift=1.0,
                        sigma_noise=0.8, dt=0.01, steps=12, n=2048, dim=2, eps_heaviside=1e-3,
                        init=lambda n, d, rng: 3.0 * rng.uniform((n, d)))
        batch = cbo_minimize(cfg, [RngStream(89, k) for k in range(5)])
        for k, res in enumerate(batch):
            lone = cbo_minimize(cfg, [RngStream(89, k)])[0]
            assert np.array_equal(res.consensus_trajectory, lone.consensus_trajectory)
            assert np.array_equal(res.best_particle, lone.best_particle)
            assert res.objective_at_consensus == lone.objective_at_consensus

    def test_non_finite_objective_names_replica_particle_and_step(self):
        # the swarms of seed 91 first leave the objective's domain in replica 1
        # at step 3; replicas 0 and 2 leave it later, replica 3 never does
        def partial(x):
            return np.where(np.abs(x[..., 0]) < 10.0, x[..., 0] ** 2, np.nan)

        cfg = CboConfig(objective=partial, alpha=1.0, lambda_drift=1.0, sigma_noise=1.0,
                        dt=0.5, steps=200, n=8, dim=1,
                        init=lambda n, d, rng: -4.0 + 8.0 * rng.uniform((n, d)))
        lone = {}
        for k in range(4):
            try:
                cbo_minimize(cfg, [RngStream(91, k)])
            except StepError as err:
                lone[k] = (err.step, err.particle)
        assert sorted(lone) == [0, 1, 2] and min(lone, key=lone.get) == 1
        with pytest.raises(StepError, match="non-finite objective") as info:
            cbo_minimize(cfg, [RngStream(91, k) for k in range(4)])
        assert (info.value.replica, info.value.step, info.value.particle) == (1, *lone[1])

    def test_diffusion_overflow_raises_instead_of_a_nan_consensus(self):
        # sigma = 1e300 keeps the first step finite, near 1e300; the second
        # step's sqrt(2) sigma |x - v| overflows, which the flat objective hides
        cfg = CboConfig(objective=lambda x: np.zeros(x.shape[:-1]), alpha=1.0, lambda_drift=1.0,
                        sigma_noise=1e300, dt=1.0, steps=5, n=4, dim=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepError, match="non-finite diffusion") as batch:
                cbo_minimize(cfg, [RngStream(92, k) for k in range(2)])
            with pytest.raises(StepError, match="non-finite diffusion") as lone:
                cbo_minimize(cfg, [RngStream(92, 0)])
        assert (batch.value.replica, batch.value.step) == (0, 1)
        assert lone.value.step == batch.value.step

    @pytest.mark.parametrize("eps, calls_per_step", [(0.0, 1), (1e-3, 2)])
    def test_objective_calls(self, eps, calls_per_step):
        # once at the start and after each step, once at the final consensus,
        # and once at v in each step when the gate is on
        calls = []
        objective = quadratic([0.5])
        cfg = CboConfig(objective=lambda x: calls.append(x.shape) or objective(x), alpha=5.0,
                        lambda_drift=1.0, sigma_noise=0.5, dt=0.1, steps=7, n=10, dim=1,
                        eps_heaviside=eps)
        cbo_minimize(cfg, [RngStream(90, k) for k in range(3)])
        assert len(calls) == calls_per_step * 7 + 2
        assert set(calls) == ({(3, 10, 1), (3, 1, 1)})

    @pytest.mark.parametrize("field, value", [("n", 0), ("dim", 0), ("steps", -1)])
    def test_config_rejects_an_empty_swarm_or_negative_steps(self, field, value):
        # the group width divides by n * dim, and steps = -1 leaves no trajectory
        shared = dict(objective=quadratic([0.0]), alpha=1.0, lambda_drift=1.0, sigma_noise=0.1,
                      dt=0.1, steps=3, n=5, dim=1)
        with pytest.raises(ValueError, match=field):
            CboConfig(**{**shared, field: value})

    def test_config_rejects_a_run_longer_than_the_largest_float(self):
        # simulate runs over TimeGrid(0, steps * dt, dt), which needs a finite end
        shared = dict(objective=quadratic([0.0]), alpha=1.0, lambda_drift=1.0, sigma_noise=0.1,
                      steps=5, n=5, dim=1)
        for dt in (1e308, math.nan):
            with pytest.raises(ValueError, match=r"steps \* dt finite"):
                CboConfig(dt=dt, **shared)

    def test_requires_finite_objective_at_start(self):
        cfg = CboConfig(objective=lambda x: np.full(x.shape[:-1], np.nan),
                        alpha=1.0, lambda_drift=1.0, sigma_noise=0.1, dt=0.1, steps=10,
                        n=4, dim=1)
        with pytest.raises(ValueError, match="finite"):
            cbo_minimize(cfg, [RngStream(86)])

    def test_non_finite_objective_at_start_names_its_replica_and_particle(self):
        # stream k starts particle i at k * i, so only particle 3 of stream 1 sits at 3
        cfg = CboConfig(objective=lambda x: np.where(x[..., 0] == 3.0, np.nan, x[..., 0] ** 2),
                        alpha=1.0, lambda_drift=1.0, sigma_noise=0.1, dt=0.1, steps=10, n=4, dim=1,
                        init=lambda n, d, rng: rng.stream_id * np.arange(float(n * d)))
        with pytest.raises(ValueError, match=r"finite at every initial particle \| replica=1 \| particle=3$"):
            cbo_minimize(cfg, [RngStream(86, k) for k in range(3)])

    def test_heaviside_gate_freezes_better_particles(self):
        # sharp gate: a particle strictly better than the consensus gets no
        # drift; with sigma = 0 it must not move in one step
        init = np.array([[0.0], [4.0], [4.2]])
        cfg = CboConfig(objective=quadratic([0.0]), alpha=0.1, lambda_drift=1.0,
                        sigma_noise=0.0, dt=0.1, steps=1, n=3, dim=1,
                        eps_heaviside=1e-9, init=init)
        res = cbo_minimize(cfg, [RngStream(87)])[0]
        # run again reading the swarm: re-simulate manually for the state
        cfg2 = CboConfig(objective=quadratic([0.0]), alpha=0.1, lambda_drift=1.0,
                         sigma_noise=0.0, dt=0.1, steps=0, n=3, dim=1,
                         eps_heaviside=1e-9, init=init)
        v0 = cbo_minimize(cfg2, [RngStream(87)])[0].consensus[0]
        assert 0.0 < v0 < 4.0  # particle 0 is better than v, others worse
        assert res.consensus_trajectory.shape == (2, 1)

    def test_trajectory_csv(self, tmp_path):
        cfg = CboConfig(objective=quadratic([1.0]), alpha=5.0, lambda_drift=1.0,
                        sigma_noise=0.3, dt=0.1, steps=4, n=10, dim=1)
        res = cbo_minimize(cfg, [RngStream(88)])[0]
        path = tmp_path / "traj.csv"
        res.write_trajectory_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,v0"
        assert len(lines) == 6


class TestEks:
    def setup_method(self):
        rng = RngStream(314)
        self.G = rng.substream(0).normal((2, 2))
        self.y = np.array([1.0, -0.5])

    def _config(self, **kw):
        base = dict(forward=self.G, Gamma=np.eye(2), Gamma0=np.eye(2), y=self.y,
                    n=400, dt=0.02, steps=400)
        base.update(kw)
        return EksConfig(**base)

    @pytest.mark.parametrize("fields, name", [
        ({"forward": np.ones((1, 2)), "y": [1.0, 2.0, 3.0], "Gamma": [[1.0]]}, "y"),
        ({"forward": np.ones((1, 2)), "y": [1.0], "Gamma": [[1.0]], "Gamma0": [[1.0]]}, "Gamma0"),
        ({"Gamma": [[1.0]]}, "Gamma"),
        ({"forward": np.ones((1, 2, 2))}, "forward"),
        ({"forward": np.ones(2)}, "forward"),
        ({"y": np.zeros((1, 2))}, "y"),
        ({"forward": lambda x: x, "y": [1.0, 2.0, 3.0]}, "Gamma"),
    ], ids=["y-length", "Gamma0-shape", "Gamma-shape", "forward-3d", "forward-1d", "y-matrix",
            "callable-y-against-Gamma"])
    def test_shapes_are_refused_by_name(self, fields, name):
        # each of these was accepted, and the matrix ones failed in matmul at the first drift
        with pytest.raises(ValueError, match=f"^{name} must"):
            self._config(**fields)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["forward", "y", "Gamma", "Gamma0"])
    def test_non_finite_fields_are_refused_by_name(self, name, bad):
        # an infinite Gamma ran to the end; NaN in forward raised a StepError at the first step
        value = np.eye(2) if name != "y" else np.array(self.y)
        value.flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must hold finite numbers only$"):
            self._config(**{name: value})
        if name.startswith("Gamma"):
            with pytest.raises(ValueError, match=f"^{name} must hold finite numbers only$"):
                spd_matrix(name, value)

    def test_zero_forward_map_recovers_prior(self):
        gamma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        cfg = EksConfig(forward=np.zeros((2, 2)), Gamma=np.eye(2), Gamma0=gamma0,
                        y=np.zeros(2), n=1000, dt=0.02, steps=500)
        e0 = Ensemble(RngStream(90).normal((1000, 2)))
        final = eks_sample(cfg, e0, RngStream(91))
        centered = final.states - final.states.mean(axis=0)
        cov = centered.T @ centered / 1000
        assert np.linalg.norm(cov - gamma0) / np.linalg.norm(gamma0) <= 0.2

    def test_linear_matches_posterior_oracle(self):
        cfg = self._config(n=1000, steps=500)
        e0 = Ensemble(RngStream(92).normal((1000, 2)))
        final = eks_sample(cfg, e0, RngStream(93))
        mean_o, cov_o = posterior_gaussian_oracle(self.G, np.eye(2), np.eye(2), self.y)
        m = final.states.mean(axis=0)
        c = (final.states - m).T @ (final.states - m) / 1000
        assert np.linalg.norm(m - mean_o) <= 0.1 * math.sqrt(np.max(np.diag(cov_o)))
        assert np.linalg.norm(c - cov_o) / np.linalg.norm(cov_o) <= 0.2

    def test_derivative_free_identical_for_linear_forward(self):
        e0 = Ensemble(RngStream(94).normal((400, 2)))
        grad = eks_sample(self._config(), e0, RngStream(95))
        free = eks_sample(self._config(derivative_free=True), e0, RngStream(95))
        assert np.max(np.abs(grad.states - free.states)) <= 1e-8

    def test_posterior_is_stationary_for_the_drift(self):
        # ensemble centered exactly at the posterior mean: ensemble-averaged
        # drift vanishes (the posterior is the fixed point of the flow)
        mean_o, cov_o = posterior_gaussian_oracle(self.G, np.eye(2), np.eye(2), self.y)
        rng = RngStream(96)
        states = rng.normal((500, 2)) @ np.linalg.cholesky(cov_o).T
        states = states - states.mean(axis=0) + mean_o
        drift = eks_drift(self._config(n=500), states)
        assert np.abs(drift.mean(axis=0)).max() <= 1e-8

    def test_covariances_are_inverted_once_per_config(self, monkeypatch):
        cfg = self._config(n=50, steps=20)
        e0 = Ensemble(RngStream(108).normal((50, 2)))
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: (inverted.append(None), inv(a))[1])
        eks_sample(cfg, e0, RngStream(109))
        assert inverted == []

    @pytest.mark.parametrize("derivative_free", [False, True])
    def test_the_forward_map_is_applied_once_per_drift(self, derivative_free):
        calls = []

        def forward(x):
            calls.append(len(x))
            return x @ self.G.T

        cfg = self._config(forward=forward, forward_jacobian=lambda x: self.G, derivative_free=derivative_free,
                           n=50, steps=7)
        eks_sample(cfg, Ensemble(RngStream(110).normal((50, 2))), RngStream(111))
        assert calls == [50] * 7

    def test_identical_particles_frozen(self):
        cfg = self._config(n=50, steps=3)
        e0 = Ensemble(np.tile([1.0, 2.0], (50, 1)))
        with pytest.warns(UserWarning, match="frozen"):
            final = eks_sample(cfg, e0, RngStream(97))
        assert np.allclose(final.states, e0.states)

    def test_rank_deficiency_warning(self):
        cfg = self._config(n=2)
        with pytest.warns(UserWarning, match="rank deficient"):
            eks_sample(cfg, Ensemble(RngStream(98).normal((2, 2))), RngStream(99))

    def test_callable_forward_needs_jacobian_in_gradient_mode(self):
        cfg = self._config(forward=lambda x: x @ self.G.T)
        with pytest.raises(ValueError, match="jacobian"):
            eks_sample(cfg, Ensemble(RngStream(100).normal((400, 2))), RngStream(101))

    def test_callable_forward_with_jacobian_follows_the_matrix_run(self):
        e0 = Ensemble(RngStream(104).normal((400, 2)))
        matrix = eks_sample(self._config(steps=50), e0, RngStream(105))
        cfg = self._config(forward=lambda x: x @ self.G.T, forward_jacobian=lambda x: self.G, steps=50)
        mapped = eks_sample(cfg, e0, RngStream(105))
        assert np.allclose(mapped.states, matrix.states)

    def test_nonlinear_forward_runs_in_derivative_free_mode(self):
        cfg = self._config(forward=lambda x: np.tanh(np.atleast_2d(x)), derivative_free=True,
                           steps=50)
        final = eks_sample(cfg, Ensemble(RngStream(102).normal((400, 2))), RngStream(103))
        assert np.all(np.isfinite(final.states))

    def test_non_finite_forward_map_names_the_step(self):
        cfg = self._config(forward=lambda x: np.full(x.shape, np.inf), derivative_free=True, steps=3)
        with np.errstate(invalid="ignore"), pytest.raises(StepError, match="non-finite drift") as err:
            eks_sample(cfg, Ensemble(RngStream(106).normal((400, 2))), RngStream(107))
        assert (err.value.step, err.value.particle) == (0, 0)

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("steps", 0), ("dt", 0.0), ("dt", -0.1), ("dt", np.nan), ("dt", np.inf),
    ])
    def test_config_rejects_a_bad_field(self, field, value):
        with pytest.raises(ValueError, match=rf"need n >= 1, steps >= 1 and a finite dt > 0; .*{field}={value}"):
            self._config(**{field: value})

    def test_covariance_validation(self):
        with pytest.raises(ValueError, match="positive definite"):
            self._config(Gamma=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            self._config(Gamma0=np.array([[1.0, 0.3], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            self._config(Gamma=np.ones((2, 3)))


class TestMatrixSqrt:
    def test_square_recovers_matrix(self):
        rng = RngStream(104)
        for _ in range(10):
            a = rng.normal((4, 4))
            spd = a @ a.T + 0.1 * np.eye(4)
            root = matrix_sqrt_psd(2.0 * spd)
            assert np.linalg.norm(root @ root - 2.0 * spd) / np.linalg.norm(2.0 * spd) <= 1e-8

    def test_negative_eigenvalues_clipped(self):
        indefinite = np.diag([1.0, -0.5])
        root = matrix_sqrt_psd(indefinite)
        assert np.allclose(root, np.diag([1.0, 0.0]))


class TestPosteriorOracle:
    def test_zero_forward_map(self):
        gamma0 = np.array([[3.0, 1.0], [1.0, 2.0]])
        mean, cov = posterior_gaussian_oracle(np.zeros((2, 2)), np.eye(2), gamma0, np.zeros(2))
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, gamma0)

    def test_scalar_case(self):
        # d = k = 1, G = 1, Gamma = Gamma0 = 1, y = 2: cov = 1/2, mean = 1
        mean, cov = posterior_gaussian_oracle([[1.0]], [[1.0]], [[1.0]], [2.0])
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(0.5)

    def test_zero_observation_zero_mean(self):
        rng = RngStream(105)
        G = rng.normal((3, 2))
        mean, _ = posterior_gaussian_oracle(G, np.eye(3), np.eye(2), np.zeros(3))
        assert np.allclose(mean, 0.0)

    def test_singular_prior_raises(self):
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            posterior_gaussian_oracle(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.zeros(2))
