import math

import numpy as np
import pytest

from meanfield import core
from meanfield.core import RngStream
from meanfield.errors import StepError
from meanfield.jump import MIN_BANDWIDTH
from meanfield.metrics import fit_rate
from meanfield.schemes1d import (
    CdfScheme,
    StepCdf,
    _kernel_mean,
    bossy_talay_run,
    burgers_scheme,
    heaviside,
    l1_cdf_error,
    smoothed_density,
    write_cdf_checkpoints_csv,
)


def normal_cdf(scale):
    return lambda x: 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x, dtype=float) / (scale * math.sqrt(2))))


class TestStepCdf:
    def test_step_function_shape(self):
        cdf = StepCdf([0.0])
        assert cdf.evaluate(-1e-9) == 0.0
        assert cdf.evaluate(0.0) == 1.0  # right continuous with H(0) = 1

    def test_monotone_with_lattice_values(self):
        samples = RngStream(110).normal(17)
        cdf = StepCdf(samples)
        grid = np.linspace(-4, 4, 200)
        vals = cdf.evaluate(grid)
        assert np.all(np.diff(vals) >= 0)
        assert set(np.round(vals * 17).astype(int)) <= set(range(18))


class TestBossyTalayRun:
    def test_frozen_kernels(self):
        scheme = CdfScheme(k1=0.0, k2=0.0, n=5, dt=0.1, T=1.0,
                           initial=lambda n, rng: np.arange(float(n)))
        out = bossy_talay_run(scheme, [RngStream(111)], checkpoints=[0.0, 0.5, 1.0])[0]
        assert len(out) == 3
        for cdf in out:
            assert np.array_equal(cdf.samples, np.arange(5.0))

    def test_unit_diffusion_gaussian_spread(self):
        # K1 = 0, K2 = 1: a standard gaussian walk; variance T at the end
        scheme = CdfScheme(k1=0.0, k2=1.0, n=4000, dt=0.01, T=1.0,
                           initial=lambda n, rng: np.zeros(n))
        cdf = bossy_talay_run(scheme, [RngStream(112)])[0][-1]
        assert cdf.samples.var() == pytest.approx(1.0, rel=0.1)

    def test_callable_and_constant_kernels_agree(self):
        const = CdfScheme(k1=0.3, k2=0.7, n=50, dt=0.05, T=0.5,
                          initial=lambda n, rng: rng.normal(n))
        called = CdfScheme(k1=lambda x, y: np.full(np.broadcast(x, y).shape, 0.3),
                           k2=lambda x, y: np.full(np.broadcast(x, y).shape, 0.7),
                           n=50, dt=0.05, T=0.5, initial=lambda n, rng: rng.normal(n))
        a = bossy_talay_run(const, [RngStream(113)])[0][-1]
        b = bossy_talay_run(called, [RngStream(113)])[0][-1]
        assert np.allclose(a.samples, b.samples)

    def test_non_finite_kernel_reports_step(self):
        scheme = CdfScheme(k1=lambda x, y: x * np.inf, k2=0.0, n=3, dt=0.1, T=0.5,
                           initial=lambda n, rng: np.ones(n))
        with pytest.raises(StepError, match="non-finite drift") as err:
            bossy_talay_run(scheme, [RngStream(114)])
        assert (err.value.step, err.value.particle) == (0, 0)

    def test_a_non_finite_initial_state_names_its_replica_and_particle(self):
        # a lone run once raised Ensemble's ValueError here; the batch raises StepError
        scheme = CdfScheme(k1=0.0, k2=1.0, n=3, dt=0.1, T=0.5,
                           initial=lambda n, rng: np.array([0.0, np.nan, 1.0]) if rng.seed == 2 else np.zeros(n))
        with pytest.raises(StepError, match="non-finite initial state") as err:
            bossy_talay_run(scheme, [RngStream(1), RngStream(2)])
        assert (err.value.replica, err.value.particle, err.value.step) == (1, 1, 0)

    def test_one_cdf_per_checkpoint_in_the_order_given(self):
        # dt = 0.009 makes one step to T = 0.01, so both T/2 and T snap to it
        scheme = CdfScheme(k1=0.0, k2=1.0, n=4, dt=0.009, T=0.01, initial=lambda n, rng: np.zeros(n))
        (halves,) = bossy_talay_run(scheme, [RngStream(123)], checkpoints=[0.005, 0.01])
        assert [cdf.time for cdf in halves] == [0.01, 0.01]
        assert np.array_equal(halves[0].samples, halves[1].samples)
        (backwards,) = bossy_talay_run(scheme, [RngStream(123)], checkpoints=[0.01, 0.0])
        assert [cdf.time for cdf in backwards] == [0.01, 0.0]
        assert np.array_equal(backwards[0].samples, halves[0].samples)
        assert np.array_equal(backwards[1].samples, np.zeros(4))

    def test_batch_rows_equal_lone_runs_across_a_group_boundary(self):
        # a callable kernel, with initial points drawn from each stream; 700
        # particles give 11 replicas per group, so 13 streams span two
        scheme = burgers_scheme(0.5, initial=lambda n, rng: rng.normal(n), n=700, dt=0.05, T=0.1)
        streams = lambda: [RngStream(124, r) for r in range(13)]
        batch = bossy_talay_run(scheme, streams(), checkpoints=[0.1, 0.05])
        assert len(batch) == 13
        for r, stream in enumerate(streams()):
            (lone,) = bossy_talay_run(scheme, [stream], checkpoints=[0.1, 0.05])
            for a, b in zip(batch[r], lone):
                assert a.time == b.time and np.array_equal(a.samples, b.samples), r

    def test_dt_above_t_rejected(self):
        with pytest.raises(ValueError, match=r"0 < dt <= T"):
            CdfScheme(k1=0.0, k2=1.0, n=3, dt=0.5, T=0.1, initial=lambda n, rng: np.zeros(n))

    def test_heat_kernel_l1_rate(self):
        # independent oracle: the scheme with constant kernels is an exact
        # gaussian walk, so V_exact(T, x) = Phi(x / (sigma sqrt(T)))
        sigma, t_end, dt = 1.0, 0.01, 1e-4
        grid = np.linspace(-6 * sigma * math.sqrt(t_end), 6 * sigma * math.sqrt(t_end), 1501)
        exact = normal_cdf(sigma * math.sqrt(t_end))
        errors = {}
        for idx, n in enumerate((100, 400, 1600)):
            scheme = CdfScheme(k1=0.0, k2=sigma, n=n, dt=dt, T=t_end,
                               initial=lambda m, rng: np.zeros(m))
            runs = bossy_talay_run(scheme, [RngStream(115, idx * 100 + r) for r in range(16)])
            errs = [l1_cdf_error(cdfs[-1], exact, grid) for cdfs in runs]
            errors[n] = float(np.mean(errs))
        fit = fit_rate(errors)
        assert -0.7 <= fit.slope <= -0.3


class TestBurgersScheme:
    def test_heaviside_convention(self):
        assert heaviside(0.0) == 1.0
        assert heaviside(-1e-12) == 0.0
        assert heaviside(2.0) == 1.0

    def test_two_particle_drifts(self):
        # right particle: (H(1) + H(0))/2 = 1; left: (H(0) + H(-1))/2 = 1/2
        scheme = burgers_scheme(0.0, initial=lambda n, rng: np.array([0.0, 1.0]),
                                n=2, dt=0.1, T=0.1)
        cdf = bossy_talay_run(scheme, [RngStream(116)])[0][-1]
        assert np.allclose(np.sort(cdf.samples), [0.05, 1.1])

    def test_point_mass_initial_cdf(self):
        scheme = burgers_scheme(1.0, initial=lambda n, rng: np.zeros(n), n=30, dt=0.1, T=1.0)
        cdf0 = bossy_talay_run(scheme, [RngStream(117)], checkpoints=[0.0])[0][0]
        assert cdf0.evaluate(-0.001) == 0.0 and cdf0.evaluate(0.0) == 1.0

    def test_single_particle_unit_speed(self):
        # N = 1, sigma = 0: self interaction H(0) drives drift 1
        scheme = burgers_scheme(0.0, initial=lambda n, rng: np.zeros(n), n=1, dt=0.01, T=2.0)
        cdf = bossy_talay_run(scheme, [RngStream(118)])[0][-1]
        assert cdf.samples[0] == pytest.approx(2.0)

    def test_single_particle_lands_on_t_when_dt_does_not_divide_it(self):
        # steps of 0.3, 0.3 and 0.4: three steps of 0.3 would stop at 0.9
        scheme = burgers_scheme(0.0, initial=lambda n, rng: np.zeros(n), n=1, dt=0.3, T=1.0)
        cdf = bossy_talay_run(scheme, [RngStream(118)])[0][-1]
        assert cdf.samples[0] == pytest.approx(1.0)
        assert cdf.time == pytest.approx(1.0)

    def test_drift_monotone_in_rank(self):
        # for distinct sorted positions the Heaviside drift at rank i
        # (1-based) equals i/N exactly
        ys = np.sort(RngStream(119).normal(20))
        drift = np.asarray([(heaviside(y - ys)).mean() for y in ys])
        assert np.allclose(drift, np.arange(1, 21) / 20.0)
        assert np.all(np.diff(drift) >= 0)


    def test_blocked_kernel_mean_equals_the_dense_formula(self):
        # rounded positions tie often, so H(0) = 1 is exercised; 1001 rows
        # run in several row blocks, the last one partial
        ys = np.round(RngStream(120).normal(1001), 1)
        rows = core._PAIR_FLOATS // ys.size
        assert 1 < rows < ys.size and ys.size % rows
        k1 = burgers_scheme(0.0, initial=None, n=1, dt=0.1, T=0.1).k1
        dense = np.asarray(k1(ys[:, None], ys[None, :]), dtype=float).mean(axis=1)
        assert np.array_equal(_kernel_mean(k1, ys[:, None], ys[:, None])[:, 0], dense)


class TestSmoothedDensity:
    def test_gaussian_peak_value(self):
        density = smoothed_density([0.0], eps=1.0)
        assert density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_total_mass(self):
        rng = RngStream(120)
        density = smoothed_density(rng.normal(40), eps=0.5)
        grid = np.linspace(-10, 10, 4001)
        assert np.trapezoid(density(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_two_separated_bumps(self):
        density = smoothed_density([-5.0, 5.0], eps=0.1)
        left = np.linspace(-8, 0, 2001)
        mass_left = np.trapezoid(density(left), left)
        assert mass_left == pytest.approx(0.5, abs=1e-6)

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            smoothed_density([0.0], eps=0.0)

    @pytest.mark.parametrize("eps", [-1.0, 1e-300, np.nan, np.inf])
    def test_requires_a_finite_eps_of_at_least_the_least_bandwidth(self, eps):
        # a NaN eps gave NaN everywhere, an infinite one 0, and 1e-300 divided by 2 eps^2 = 0
        with pytest.raises(ValueError, match="eps must be finite and at least"):
            smoothed_density([0.0], eps=eps)

    def test_requires_a_sample(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            smoothed_density([], eps=0.5)

    def test_names_the_first_non_finite_sample(self):
        with pytest.raises(ValueError, match="sample 2 is not finite: nan"):
            smoothed_density([0.0, 1.0, np.nan, np.inf], eps=0.5)
        with pytest.raises(ValueError, match="sample 1 is not finite: -inf"):
            smoothed_density([0.0, -np.inf], eps=0.5)

    def test_far_points_give_zero_not_nan(self):
        # every log term of a far point is -inf; a log-sum-exp shifted by the
        # row max took -inf - -inf = nan there. Runs under -W error: the
        # intended overflow to -inf must not warn.
        density = smoothed_density([0.0, 1.0], eps=0.5)
        assert np.array_equal(density(np.array([np.inf, -np.inf, 1e160])), np.zeros(3))
        narrow = smoothed_density([0.0, 1.0], eps=MIN_BANDWIDTH)
        assert narrow(0.5) == 0.0
        assert math.isfinite(narrow(1.0)) and narrow(1.0) > 0.0

    def test_evaluates_an_empty_query_to_an_empty_array(self):
        assert smoothed_density([0.0], eps=0.5)(np.empty((0, 3))).shape == (0, 3)

    def test_matches_the_dense_formula(self):
        # the kernel mean of core.pair_mean's row blocks against the dense N x M sum
        samples = RngStream(122).normal(300)
        x = np.linspace(-4, 4, 801)
        dense = np.exp(-(x[:, None] - samples) ** 2 / 0.5).sum(axis=1) / (math.sqrt(2 * math.pi) * 0.5 * 300)
        assert np.allclose(smoothed_density(samples, eps=0.5)(x), dense, rtol=1e-13, atol=0.0)


class TestL1CdfError:
    def test_self_distance_zero(self):
        cdf = StepCdf(RngStream(121).normal(10))
        grid = np.linspace(-6, 6, 1001)
        assert l1_cdf_error(cdf, cdf.evaluate, grid) == 0.0

    def test_separated_unit_steps(self):
        cdf = StepCdf([0.0])
        exact = StepCdf([1.0])
        grid = np.linspace(-3, 4, 7001)
        assert l1_cdf_error(cdf, exact.evaluate, grid) == pytest.approx(1.0, abs=1e-3)

    def test_step_vs_standard_normal(self):
        # quadrature oracle computed here: integral of |H(x) - Phi(x)|
        grid = np.linspace(-9, 9, 20001)
        exact = normal_cdf(1.0)
        oracle = np.trapezoid(np.abs(heaviside(grid) - exact(grid)), grid)
        assert oracle == pytest.approx(math.sqrt(2 / math.pi), abs=1e-3)
        measured = l1_cdf_error(StepCdf([0.0]), exact, grid)
        assert measured == pytest.approx(oracle, rel=1e-10)
        assert measured == pytest.approx(0.7979, abs=1e-3)

    def test_exact_values_on_the_grid_equal_the_exact_callable(self):
        cdf = StepCdf(RngStream(122).normal(10))
        grid = np.linspace(-6, 6, 1001)
        exact = normal_cdf(1.0)
        assert l1_cdf_error(cdf, exact(grid), grid) == l1_cdf_error(cdf, exact, grid)

    def test_narrow_grid_warns(self):
        cdf = StepCdf([0.0])
        with pytest.warns(UserWarning, match="narrow"):
            l1_cdf_error(cdf, normal_cdf(1.0), np.linspace(-1, 1, 101))


class TestCheckpointCsv:
    def test_rows_are_sorted_samples(self, tmp_path):
        scheme = CdfScheme(k1=0.0, k2=1.0, n=4, dt=0.1, T=0.4,
                           initial=lambda n, rng: rng.normal(n))
        cdfs = bossy_talay_run(scheme, [RngStream(122)], checkpoints=[0.2, 0.4])[0]
        path = tmp_path / "cdf.csv"
        write_cdf_checkpoints_csv(cdfs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,sorted_sample_0,sorted_sample_1,sorted_sample_2,sorted_sample_3"
        assert len(lines) == 3
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == pytest.approx(0.2)
        assert row[1:] == sorted(row[1:])

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_cdf_checkpoints_csv([], tmp_path / "x.csv")
