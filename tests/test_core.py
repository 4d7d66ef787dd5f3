import math

import numpy as np
import pytest

from meanfield.core import (
    EmpiricalMeasure,
    Ensemble,
    RngStream,
    TimeGrid,
    empirical_moments,
    kernel_convolve,
    make_rng,
    weighted_mean,
)
from meanfield.errors import DegenerateWeights


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = make_rng(42, 0).normal(100)
        b = make_rng(42, 0).normal(100)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_decorrelated(self):
        x = make_rng(42, 0).normal(1000)
        y = make_rng(42, 1).normal(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.1

    def test_gaussian_mean(self):
        # CLT bound 3/sqrt(1e5) ~ 0.0095, relaxed x2 by the contract
        draws = make_rng(0, 0).normal(100_000)
        assert np.all(np.isfinite(draws))
        assert abs(draws.mean()) < 0.02

    def test_substreams_replayable_and_decorrelated(self):
        root = make_rng(7, 3)
        a = root.substream(5).normal(500)
        b = make_rng(7, 3).substream(5).normal(500)
        assert np.array_equal(a, b)
        c = make_rng(7, 3).substream(6).normal(500)
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.15

    def test_substream_creation_order_irrelevant(self):
        r1 = make_rng(1, 0)
        s5_first = r1.substream(5).normal(10)
        r2 = make_rng(1, 0)
        r2.substream(2).normal(1000)  # consume another child first
        assert np.array_equal(s5_first, r2.substream(5).normal(10))


class TestEnsemble:
    def test_one_dimensional_input_reshaped(self):
        e = Ensemble(np.array([1.0, 2.0, 3.0]))
        assert e.states.shape == (3, 1)
        assert e.n == 3 and e.dim == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Ensemble(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ensemble(np.empty((0, 2)))

    def test_measure_mass_is_uniform(self):
        mu = Ensemble(np.arange(6.0).reshape(3, 2)).measure()
        assert mu.n == 3
        assert np.allclose(mu.mean(), [2.0, 3.0])

    def test_batch_measure_reduces_per_replica(self):
        states = np.arange(12.0).reshape(2, 3, 2)
        mu = EmpiricalMeasure(states)
        assert mu.n == 3
        assert mu.mean().shape == (2, 1, 2)
        for r in range(2):
            assert np.array_equal(mu.mean()[r, 0], Ensemble(states[r]).measure().mean())


class TestKernelConvolve:
    def test_zero_kernel(self):
        mu = Ensemble(np.array([1.0, 2.0])).measure()
        out = kernel_convolve(mu, lambda x, ys: np.zeros((ys.shape[0], 3)), np.array([0.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_identity_kernel_gives_mean(self):
        mu = Ensemble(np.array([1.0, 3.0])).measure()
        out = kernel_convolve(mu, lambda x, ys: ys, np.array([0.0]))
        assert out == pytest.approx(2.0)

    def test_difference_kernel(self):
        # brute-force oracle: mean over j of (0 - y_j) = -(1 + 2 + 3)/3
        mu = Ensemble(np.array([1.0, 2.0, 3.0])).measure()
        out = kernel_convolve(mu, lambda x, ys: x - ys, np.array([0.0]))
        expected = np.mean([0.0 - y for y in (1.0, 2.0, 3.0)])
        assert out == pytest.approx(expected) and expected == -2.0

    def test_mass_normalization_exact(self):
        rng = make_rng(3)
        mu = Ensemble(rng.normal((37, 2))).measure()
        out = kernel_convolve(mu, lambda x, ys: np.ones(ys.shape[0]), np.zeros(2))
        assert float(out) == 1.0

    def test_non_finite_kernel_names_offender(self):
        mu = Ensemble(np.array([1.0, 2.0, 3.0])).measure()

        def bad(x, ys):
            vals = np.ones(ys.shape[0])
            vals[1] = np.inf
            return vals

        with pytest.raises(ValueError, match="index 1"):
            kernel_convolve(mu, bad, np.array([0.0]))


class TestWeightedMean:
    def test_uniform_weights_plain_mean(self):
        e = Ensemble(np.array([0.0, 2.0]))
        assert weighted_mean(e, w=lambda p: np.ones(p.shape[0])) == pytest.approx(1.0)

    def test_exponential_concentration(self):
        # explicit weights: exp(-100*0)=1 vs exp(-100*100)=e^-10000 -> mean ~ 0
        e = Ensemble(np.array([0.0, 10.0]))
        v = weighted_mean(e, log_w=lambda p: -100.0 * np.sum(p**2, axis=1))
        assert abs(float(v[0])) < 1e-6

    def test_single_particle(self):
        e = Ensemble(np.array([5.0]))
        assert weighted_mean(e, w=lambda p: np.ones(1)) == pytest.approx(5.0)

    def test_degenerate_weights_raise(self):
        e = Ensemble(np.array([1.0, 2.0]))
        with pytest.raises(DegenerateWeights):
            weighted_mean(e, w=lambda p: np.zeros(p.shape[0]))
        with pytest.raises(DegenerateWeights):
            weighted_mean(e, log_w=lambda p: np.full(p.shape[0], -np.inf))

    def test_plus_inf_log_weight_named(self):
        e = Ensemble(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateWeights, match=r"\+inf at particle 1"):
            weighted_mean(e, log_w=lambda p: np.array([0.0, np.inf, -1.0]))
        with pytest.raises(DegenerateWeights, match="-inf or nan"):
            weighted_mean(e, log_w=lambda p: np.array([np.nan, -np.inf, np.nan]))

    def test_scale_invariance(self):
        rng = make_rng(11)
        e = Ensemble(rng.normal((50, 3)))
        raw = lambda p: np.exp(-np.sum(p**2, axis=1))
        v1 = weighted_mean(e, w=raw)
        v2 = weighted_mean(e, w=lambda p: 7.3e5 * raw(p))
        assert np.allclose(v1, v2, rtol=1e-12)

    def test_log_and_plain_agree(self):
        rng = make_rng(12)
        e = Ensemble(rng.normal((40, 2)))
        score = lambda p: -0.5 * np.sum(p**2, axis=1)
        v1 = weighted_mean(e, w=lambda p: np.exp(score(p)))
        v2 = weighted_mean(e, log_w=score)
        assert np.allclose(v1, v2, rtol=1e-12)


class TestEmpiricalMoments:
    def test_second_moment(self):
        assert empirical_moments(Ensemble(np.array([-1.0, 1.0])), 2) == pytest.approx(1.0)

    def test_first_moment(self):
        assert empirical_moments(Ensemble(np.array([-1.0, 1.0])), 1) == pytest.approx(0.0)

    def test_third_moment(self):
        # (1 + 8 + 27)/3 = 12
        assert empirical_moments(Ensemble(np.array([1.0, 2.0, 3.0])), 3) == pytest.approx(12.0)

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            empirical_moments(Ensemble(np.array([1.0])), 0)


class TestTimeGrid:
    def test_exact_division(self):
        g = TimeGrid(0.0, 1.0, 0.1)
        assert g.steps == 10
        assert g.step_durations().sum() == pytest.approx(1.0)
        assert g.times()[0] == 0.0 and g.times()[-1] == pytest.approx(1.0)

    def test_partial_final_step(self):
        g = TimeGrid(0.0, 1.0, 0.3)
        durations = g.step_durations()
        assert durations.sum() == pytest.approx(1.0)
        assert np.all(durations > 0)
        assert abs(durations[-1] - g.dt) <= g.dt  # leftover stays within one dt

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, -0.1)
