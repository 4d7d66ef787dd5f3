import math

import numpy as np
import pytest

from meanfield import core
from meanfield.core import (
    MAX_STEPS,
    Ensemble,
    RngStream,
    TimeGrid,
    empirical_mean,
    empirical_moments,
    pair_mean,
    weighted_mean,
)
from meanfield.errors import DegenerateWeights


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(42, 0).normal(100)
        b = RngStream(42, 0).normal(100)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_decorrelated(self):
        x = RngStream(42, 0).normal(1000)
        y = RngStream(42, 1).normal(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.1

    def test_gaussian_mean(self):
        # CLT bound 3/sqrt(1e5) ~ 0.0095, relaxed x2 by the contract
        draws = RngStream(0, 0).normal(100_000)
        assert np.all(np.isfinite(draws))
        assert abs(draws.mean()) < 0.02

    def test_substreams_replayable_and_decorrelated(self):
        root = RngStream(7, 3)
        a = root.substream(5).normal(500)
        b = RngStream(7, 3).substream(5).normal(500)
        assert np.array_equal(a, b)
        c = RngStream(7, 3).substream(6).normal(500)
        assert abs(np.corrcoef(a, c)[0, 1]) < 0.15

    def test_substream_creation_order_irrelevant(self):
        r1 = RngStream(1, 0)
        s5_first = r1.substream(5).normal(10)
        r2 = RngStream(1, 0)
        r2.substream(2).normal(1000)  # consume another child first
        assert np.array_equal(s5_first, r2.substream(5).normal(10))

    @pytest.mark.parametrize("used", ["fresh", "odd-integers", "normal"])
    def test_rekey_draws_the_bits_of_a_fresh_stream(self, used):
        # three 32-bit integer draws leave a buffered half word that a re-key must drop
        stream = RngStream(7, 3)
        if used == "odd-integers":
            stream.integers(1000, size=3)
            assert stream.gen.bit_generator.state["has_uint32"] == 1
        elif used == "normal":
            stream.normal(5)
        assert stream.rekey(11) is stream and stream.stream_id == 11 and stream.seed == 7
        fresh = RngStream(7, 11)
        np.testing.assert_equal(stream.gen.bit_generator.state, fresh.gen.bit_generator.state)
        for draw in (lambda s: s.integers(1999000, size=5), lambda s: s.uniform((4, 3)),
                     lambda s: s.normal(9), lambda s: s.integers(10, size=3), lambda s: s.uniform(2)):
            assert draw(stream).tobytes() == draw(fresh).tobytes()
        np.testing.assert_equal(stream.gen.bit_generator.state, fresh.gen.bit_generator.state)


    @pytest.mark.parametrize("size", [None, 1, 7, (3, 4)])
    def test_uniform_is_the_generator_uniform(self, size):
        # Generator.uniform() is 0 + 1 * random(): same values, same words consumed
        a, b = RngStream(31, 2), RngStream(31, 2)
        for _ in range(3):
            x, y = a.uniform(size), b.gen.uniform(size=size)
            assert type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        np.testing.assert_equal(a.gen.bit_generator.state, b.gen.bit_generator.state)


class TestEnsemble:
    def test_one_dimensional_input_reshaped(self):
        e = Ensemble(np.array([1.0, 2.0, 3.0]))
        assert e.states.shape == (3, 1)
        assert e.n == 3 and e.dim == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Ensemble(np.array([1.0, np.nan]))

    def test_non_finite_states_name_the_first_particle_and_its_value(self):
        states = np.zeros((5, 2))
        states[3, 1], states[4, 0] = np.inf, np.nan
        with pytest.raises(ValueError, match=r"^ensemble states must be finite: particle 3 is \[0\.0, inf\]$"):
            Ensemble(states)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ensemble(np.empty((0, 2)))

    def test_measure_mass_is_uniform(self):
        states = Ensemble(np.arange(6.0).reshape(3, 2)).states
        assert np.array_equal(empirical_mean(states), [2.0, 3.0])
        # the bits of np.mean, whose pairwise sum is a plain one below 8 terms
        points = RngStream(14).normal((7, 3))
        assert empirical_mean(points).tobytes() == np.mean(points, axis=0).tobytes()

    def test_batch_measure_reduces_per_replica(self):
        states = np.arange(12.0).reshape(2, 3, 2)
        assert empirical_mean(states).shape == (2, 1, 2)
        for r in range(2):
            assert np.array_equal(empirical_mean(states)[r, 0], empirical_mean(states[r]))


class TestPairMean:
    @pytest.mark.parametrize("x_shape, m", [
        ((1001, 2), 1001),   # one ensemble against its own points
        ((3, 251, 2), 400),  # a batch against a larger measure per replica
        ((2, 40, 3), 4000),  # one row alone is over the budget
        ((5, 7, 1), 9),      # everything fits one block
    ])
    def test_blocks_stay_within_the_float_budget(self, x_shape, m):
        rng = RngStream(41)
        x = rng.normal(x_shape)
        y = rng.normal((*x_shape[:-2], m, x_shape[-1]))
        blocks = []

        def fn(a, b):
            blocks.append(np.broadcast_shapes(a.shape, b.shape))
            return np.sin(a - b)

        out = pair_mean(fn, x, y)
        n, per_row = x_shape[-2], math.prod(x_shape[:-2]) * m * x_shape[-1]
        assert [b[:-3] + b[-2:] for b in blocks] == [(*x_shape[:-2], m, x_shape[-1])] * len(blocks)
        assert sum(b[-3] for b in blocks) == n
        # a block over the budget has one row; the first one is as large as
        # the budget allows, so the reducer makes no more calls than needed
        assert all(math.prod(b) <= core._PAIR_FLOATS or b[-3] == 1 for b in blocks)
        assert blocks[0][-3] == n or math.prod(blocks[0]) + per_row > core._PAIR_FLOATS
        assert np.array_equal(out, np.sin(x[..., :, None, :] - y[..., None, :, :]).mean(axis=-2))

    @pytest.mark.parametrize("x_shape, y_shape, fn, want", [
        ((0, 1), (3, 1), lambda a, b: a - b, (0, 1)),        # one ensemble of no rows
        ((2, 0, 2), (2, 3, 2), lambda a, b: a - b, (2, 0, 2)),  # a batch of replicas with no rows
        ((0, 2), (3, 2), lambda a, b: np.sum(a * b, axis=-1, keepdims=True), (0, 1)),  # fn's last axis
    ])
    def test_no_rows_give_an_empty_result_of_fn_shape(self, x_shape, y_shape, fn, want):
        out = pair_mean(fn, np.empty(x_shape), np.ones(y_shape))
        assert out.shape == want and out.dtype == float

    def test_an_empty_measure_is_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            pair_mean(lambda a, b: a - b, np.ones((3, 1)), np.empty((0, 1)))


class TestWeightedMean:
    def test_uniform_weights_plain_mean(self):
        pts = np.array([[0.0], [2.0]])
        assert weighted_mean(pts, w=lambda p: np.ones(p.shape[0])) == pytest.approx(1.0)

    def test_exponential_concentration(self):
        # explicit weights: exp(-100*0)=1 vs exp(-100*100)=e^-10000 -> mean ~ 0
        pts = np.array([[0.0], [10.0]])
        v = weighted_mean(pts, log_w=lambda p: -100.0 * np.sum(p**2, axis=1))
        assert abs(float(v[0])) < 1e-6

    def test_single_particle(self):
        pts = np.array([[5.0]])
        assert weighted_mean(pts, w=lambda p: np.ones(1)) == pytest.approx(5.0)

    def test_degenerate_weights_raise(self):
        pts = np.array([[1.0], [2.0]])
        with pytest.raises(DegenerateWeights):
            weighted_mean(pts, w=lambda p: np.zeros(p.shape[0]))
        with pytest.raises(DegenerateWeights):
            weighted_mean(pts, log_w=lambda p: np.full(p.shape[0], -np.inf))

    def test_plus_inf_log_weight_named(self):
        pts = np.array([[1.0], [2.0], [3.0]])
        with pytest.raises(DegenerateWeights, match=r"\+inf at particle 1"):
            weighted_mean(pts, log_w=lambda p: np.array([0.0, np.inf, -1.0]))
        with pytest.raises(DegenerateWeights, match="-inf or nan"):
            weighted_mean(pts, log_w=lambda p: np.array([np.nan, -np.inf, np.nan]))

    def test_scale_invariance(self):
        rng = RngStream(11)
        pts = rng.normal((50, 3))
        raw = lambda p: np.exp(-np.sum(p**2, axis=1))
        v1 = weighted_mean(pts, w=raw)
        v2 = weighted_mean(pts, w=lambda p: 7.3e5 * raw(p))
        assert np.allclose(v1, v2, rtol=1e-12)

    def test_log_and_plain_agree(self):
        rng = RngStream(12)
        pts = rng.normal((40, 2))
        score = lambda p: -0.5 * np.sum(p**2, axis=1)
        v1 = weighted_mean(pts, w=lambda p: np.exp(score(p)))
        v2 = weighted_mean(pts, log_w=score)
        assert np.allclose(v1, v2, rtol=1e-12)


    @pytest.mark.parametrize("form", ["w", "log_w"])
    def test_batch_equals_per_replica_calls(self, form):
        states = RngStream(13).normal((6, 37, 3))
        score = lambda p: -2.0 * np.sum(p ** 2, axis=-1)
        fn = {form: (lambda p: np.exp(score(p))) if form == "w" else score}
        batch = weighted_mean(states, **fn)
        assert batch.shape == (6, 3)
        for r in range(6):
            assert np.array_equal(batch[r], weighted_mean(states[r], **fn))

    def test_degenerate_weights_name_the_replica(self):
        states = np.ones((3, 4, 2))
        log_w = np.zeros((3, 4))
        log_w[1, 2] = np.inf
        with pytest.raises(DegenerateWeights, match=r"\+inf at particle 2 \(replica 1\)"):
            weighted_mean(states, log_w=lambda p: log_w)
        log_w[1, 2], log_w[2] = 0.0, -np.inf
        with pytest.raises(DegenerateWeights, match=r"-inf or nan \(replica 2\)"):
            weighted_mean(states, log_w=lambda p: log_w)
        w = np.ones((3, 4))
        w[0] = 0.0
        with pytest.raises(DegenerateWeights, match=r"sum to zero \(replica 0\)"):
            weighted_mean(states, w=lambda p: w)

class TestEmpiricalMoments:
    def test_second_moment(self):
        assert empirical_moments(np.array([[-1.0], [1.0]]), 2) == pytest.approx(1.0)

    def test_first_moment(self):
        assert empirical_moments(np.array([[-1.0], [1.0]]), 1) == pytest.approx(0.0)

    def test_third_moment(self):
        # (1 + 8 + 27)/3 = 12
        assert empirical_moments(np.array([[1.0], [2.0], [3.0]]), 3) == pytest.approx(12.0)

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            empirical_moments(np.array([[1.0]]), 0)

    def test_a_batch_gives_each_replica_its_lone_moments(self):
        states = RngStream(12).normal((3, 129, 2))
        batch = empirical_moments(states, 3)
        assert batch.shape == (3, 2)
        for r in range(3):
            assert np.array_equal(batch[r], empirical_moments(states[r], 3))


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

    @pytest.mark.parametrize("t0, t_end, dt", [(0.0, math.inf, 0.1), (0.0, 1.0, 1e-320),
                                               (-math.inf, 0.0, 1.0), (0.0, math.inf, math.inf)])
    def test_a_step_count_that_is_not_finite_is_refused(self, t0, t_end, dt):
        # round() of an infinite or NaN (t_end - t0) / dt raised OverflowError or ValueError
        with pytest.raises(ValueError, match="finite step count"):
            TimeGrid(t0, t_end, dt)

    @pytest.mark.parametrize("t_end, count, size", [(1e300, "1e\\+300", "1.6e\\+295 MB"),
                                                    (1e10, "1e\\+10", "1.6e\\+05 MB"),
                                                    (MAX_STEPS + 1.0, "1e\\+07", "160 MB")])
    def test_a_step_count_above_the_maximum_is_refused_by_its_size(self, t_end, count, size):
        # numpy refused to build the grid of 1e300 steps; 1e10 steps would have allocated 160 GB
        with pytest.raises(ValueError, match=f"step count {count} .* above the maximum {MAX_STEPS}: .* {size}"):
            TimeGrid(0.0, t_end, 1.0)

    def test_the_maximum_step_count_is_allowed(self):
        assert TimeGrid(0.0, float(MAX_STEPS), 1.0).steps == MAX_STEPS
