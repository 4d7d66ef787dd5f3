import dataclasses
import math

import numpy as np
import pytest

from meanfield import core
from meanfield.core import Ensemble, RngStream, TimeGrid, empirical_mean
from meanfield.errors import ModelSpecError, StepError, UnsupportedReference
from meanfield.mckean import (
    GaussianReference,
    McKeanModel,
    MomentTracker,
    SnapshotWriter,
    SurrogateReference,
    _NOISE_FLOATS,
    _batch_width,
    _noise_steps,
    coupling_mse_rows,
    coupling_replica_mse,
    cucker_smale_model,
    gradient_system_model,
    kuramoto_model,
    mean_field_ou_model,
    ou_reference,
    regularized_coulomb_model,
    simulate,
    simulate_synchronous_coupling,
    step_em,
)


def _still(dim=1):
    return McKeanModel(drift=lambda s, points: np.zeros_like(s), diffusion=lambda s, points: 0.0, dim=dim)


def _nan_from_call(first_bad):
    """A drift that is zero on its first ``first_bad - 1`` calls and nan from then on."""
    calls = []

    def drift(states, points):
        calls.append(None)
        return np.full_like(states, np.nan) if len(calls) >= first_bad else np.zeros_like(states)

    return drift


class TestStepEm:
    def test_null_dynamics_only_advances_time(self):
        e0 = Ensemble(np.array([1.0, -2.0]), time=0.5)
        e1 = step_em(_still(), e0, 0.25, RngStream(0))
        assert np.array_equal(e1.states, e0.states)
        assert e1.time == pytest.approx(0.75)

    def test_explicit_euler_on_linear_ode(self):
        model = McKeanModel(drift=lambda s, points: -s, diffusion=lambda s, points: 0.0, dim=1)
        e1 = step_em(model, Ensemble(np.array([1.0])), 0.1, RngStream(0))
        assert e1.states[0, 0] == pytest.approx(0.9)

    def test_mean_field_drift_uses_shared_measure(self):
        # brute force: mean = 1, each particle moves dt*(1 - x)
        model = McKeanModel(drift=lambda s, points: empirical_mean(points) - s,
                            diffusion=lambda s, points: 0.0, dim=1)
        e1 = step_em(model, Ensemble(np.array([0.0, 2.0])), 0.5, RngStream(0))
        assert np.allclose(e1.states.ravel(), [0.5, 1.5])

    def test_all_particles_see_pre_step_measure(self):
        seen = []

        def recording_drift(states, points):
            seen.append(points.copy())
            return -states

        model = McKeanModel(drift=recording_drift, diffusion=lambda s, points: 0.0, dim=1)
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        step_em(model, e0, 0.1, RngStream(0))
        assert len(seen) == 1  # one evaluation against one frozen measure
        assert np.array_equal(seen[0], e0.states)

    def test_non_finite_drift_raises_step_error(self):
        def bad(states, points):
            out = -states.copy()
            out[1] = np.nan
            return out

        model = McKeanModel(drift=bad, diffusion=lambda s, points: 0.0, dim=1)
        with pytest.raises(StepError) as err:
            step_em(model, Ensemble(np.array([1.0, 2.0])), 0.1, RngStream(0))
        assert err.value.particle == 1

    def test_diffusion_shapes(self):
        rng = RngStream(1)
        e0 = Ensemble(rng.normal((5, 2)))
        for sigma in (
            lambda s, points: 0.5,
            lambda s, points: np.full(5, 0.5),
            lambda s, points: np.full((5, 2), 0.5),
            lambda s, points: np.tile(0.5 * np.eye(2), (5, 1, 1)),
        ):
            model = McKeanModel(drift=lambda s, points: np.zeros_like(s), diffusion=sigma, dim=2)
            out = step_em(model, e0, 0.01, RngStream(2))
            assert out.states.shape == (5, 2)
        results = [
            step_em(McKeanModel(drift=lambda s, points: np.zeros_like(s), diffusion=sig, dim=2),
                    e0, 0.01, RngStream(2)).states
            for sig in (lambda s, points: 0.5, lambda s, points: np.tile(0.5 * np.eye(2), (5, 1, 1)))
        ]
        assert np.allclose(results[0], results[1])  # scalar and matrix forms agree


class TestSimulate:
    def test_ou_decay_matches_exact_solution(self):
        model = McKeanModel(drift=lambda s, points: -s, diffusion=lambda s, points: 0.0, dim=1)
        final = simulate(model, Ensemble(np.array([1.0])), TimeGrid(0, 1, 1e-4), RngStream(0))
        assert abs(final.states[0, 0] - math.exp(-1)) < 1e-3

    def test_pure_diffusion_variance(self):
        model = McKeanModel(drift=lambda s, points: np.zeros_like(s), diffusion=lambda s, points: 1.0, dim=1)
        final = simulate(model, Ensemble(np.zeros(10_000)), TimeGrid(0, 1, 0.01), RngStream(3))
        assert final.states.var() == pytest.approx(1.0, rel=0.1)

    def test_moment_tracker_rejects_order_below_one_at_construction(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            MomentTracker(p=0)

    def test_observers_and_step_error_index(self, tmp_path):
        tracker = MomentTracker(p=2)
        writer = SnapshotWriter(tmp_path / "snap.csv", replica=2, every=2)
        model = _still()
        grid = TimeGrid(0, 1, 0.25)
        simulate(model, Ensemble(np.array([1.0, -1.0])), grid, RngStream(0), observers=[tracker, writer])
        writer.close()
        assert len(tracker.times) == grid.steps + 1
        assert tracker.values[0] == pytest.approx(1.0)
        lines = (tmp_path / "snap.csv").read_text().splitlines()
        assert lines[0] == "time,replica,particle,coord0"
        # steps 0, 2, 4 recorded, two particles each
        assert len(lines) == 1 + 3 * 2

        # one drift call per step: the 4th is step 3's
        bad = McKeanModel(drift=_nan_from_call(4), diffusion=lambda s, points: 0.0, dim=1)
        with pytest.raises(StepError) as err:
            simulate(bad, Ensemble(np.array([0.0])), grid, RngStream(0))
        assert err.value.step == 3

    def test_snapshot_writer_closes_when_simulate_raises(self, tmp_path):
        # the drift is nan from step 3 on, at t = 0.75
        bad = McKeanModel(drift=_nan_from_call(4), diffusion=lambda s, points: 0.0, dim=1)
        path = tmp_path / "snap.csv"
        with pytest.raises(StepError):
            with SnapshotWriter(path) as writer:
                simulate(bad, Ensemble(np.array([0.0, 1.0])), TimeGrid(0, 1, 0.25), RngStream(0),
                         observers=[writer])
        assert writer._file.closed
        # the header and the rows observed before the failure reached the file
        lines = path.read_text().splitlines()
        assert lines[0] == "time,replica,particle,coord0"
        assert lines[1:] == [f"{t},0,{i},{x}" for t in (0.0, 0.25, 0.5, 0.75) for i, x in enumerate((0.0, 1.0))]


    def test_one_ensemble_without_observers_builds_no_ensemble_per_step(self, monkeypatch):
        # each step's drift sees a view of the bare states; only the result is an Ensemble
        e0 = Ensemble(RngStream(3).normal((20, 1)))
        built = []
        post_init = Ensemble.__post_init__
        monkeypatch.setattr(Ensemble, "__post_init__", lambda self: (built.append(None), post_init(self)))
        seen = []
        model = mean_field_ou_model(1.0, 1.0)
        model.drift = lambda states, points, drift=model.drift: (seen.append(points is states),
                                                                 drift(states, points))[1]
        final = simulate(model, e0, TimeGrid(0, 1, 0.1), RngStream(4))
        assert seen == [True] * 10
        assert len(built) == 1 and isinstance(final, Ensemble)

    def test_observers_see_the_bare_states_and_no_ensemble_is_built(self, monkeypatch, tmp_path):
        # a lone run builds only its result; a batch builds no Ensemble at all
        built = []
        post_init = Ensemble.__post_init__
        e0 = Ensemble(RngStream(5).normal((20, 1)))
        monkeypatch.setattr(Ensemble, "__post_init__", lambda self: (built.append(None), post_init(self)))
        seen = []
        calls = []
        model = mean_field_ou_model(1.0, 1.0)
        model.drift = lambda states, points, drift=model.drift: (seen.append(states), drift(states, points))[1]
        observe = lambda states, t, step, first: calls.append((states, t, step, first))
        grid = TimeGrid(0, 1, 0.1)
        with SnapshotWriter(tmp_path / "snap.csv") as writer:
            final = simulate(model, e0, grid, RngStream(6), observers=[MomentTracker(), writer, observe])
        assert len(built) == 1 and isinstance(final, Ensemble)
        # the observer at step k sees the states whose drift the k-th update reads
        assert [c[2:] for c in calls] == [(k, 0) for k in range(grid.steps + 1)]
        assert all(c[0] is x for c, x in zip(calls, seen)) and calls[-1][0] is final.states
        assert calls[0][0] is e0.states and [c[1] for c in calls] == pytest.approx(grid.times())
        built.clear()
        simulate(model, np.stack([e0.states] * 3), grid, [RngStream(6, r) for r in range(3)],
                 observers=[MomentTracker(), observe])
        assert built == []


class TestSimulateBatch:
    """simulate on an (R, n, d) batch advances ``_batch_width`` replicas at a
    time; each row must equal a lone run of its replica on its own stream."""

    @staticmethod
    def _rows_equal_lone_runs(model, states, grid, stream):
        # stream(r) builds a fresh stream for replica r, so the lone run of a
        # replica draws the same increments as its row of the batch
        final = simulate(model, states, grid, [stream(r) for r in range(len(states))])
        assert final.shape == states.shape
        for r in range(len(states)):
            lone = simulate(model, Ensemble(states[r]), grid, stream(r))
            assert np.array_equal(final[r], lone.states), r

    def test_kuramoto_rows_equal_lone_runs_across_a_batch_boundary(self):
        # n = 700: 11 replicas per batch, so 15 replicas span two batches
        assert _batch_width(700, 1) == 11
        root = RngStream(31)
        states = np.stack([root.substream(r).uniform((700, 1)) * 2.0 * math.pi for r in range(15)])
        self._rows_equal_lone_runs(kuramoto_model(1.5), states, TimeGrid(0, 0.2, 0.01),
                                   lambda r: root.substream(100 + r))

    def test_pairwise_rows_equal_lone_runs_across_a_batch_boundary(self):
        # 300 particles in R^2: 13 replicas per batch, so 15 span two batches
        model = cucker_smale_model(1.0, 0.5, d=1)
        assert _batch_width(300, model.dim) == 13
        root = RngStream(32)
        self._rows_equal_lone_runs(model, root.substream(0).normal((15, 300, 2)), TimeGrid(0, 0.1, 0.01),
                                   lambda r: root.substream(1 + r))

    def test_non_finite_drift_in_the_second_batch_names_replica_particle_and_step(self):
        # every particle moves up by 0.25 per step; only particle 4 of replica
        # 13 starts at 0.3 and passes 1 at step 3, where the drift is nan.
        # With 11 replicas per batch, replica 13 sits in the second batch.
        states = np.zeros((15, 700, 1))
        states[13, 4] = 0.3
        model = McKeanModel(drift=lambda s, points: np.where(s > 1.0, np.nan, 1.0),
                            diffusion=lambda s, points: 0.0, dim=1)
        streams = [RngStream(33, r) for r in range(15)]
        with pytest.raises(StepError, match="non-finite drift") as err:
            simulate(model, states, TimeGrid(0, 1, 0.25), streams)
        assert (err.value.replica, err.value.particle, err.value.step) == (13, 4, 3)
        assert "replica=13 | particle=4 | step=3" in str(err.value)

    def test_observers_of_a_batch_equal_their_lone_runs_across_a_group_boundary(self, tmp_path):
        # 11 replicas per group: replica 13 sits in the second group, which the
        # observers see as a (4, 700, 1) array whose first replica is 11
        assert _batch_width(700, 1) == 11
        root = RngStream(37)
        states = np.stack([root.substream(r).uniform((700, 1)) * 2.0 * math.pi for r in range(15)])
        model, grid = kuramoto_model(1.5), TimeGrid(0, 0.2, 0.05)
        tracker, groups = MomentTracker(p=2), []
        with SnapshotWriter(tmp_path / "batch.csv", replica=13, every=2) as writer:
            final = simulate(model, states, grid, [root.substream(100 + r) for r in range(15)],
                             observers=[tracker, writer, lambda x, t, step, first: groups.append((first, len(x)))])
        assert sorted(set(groups)) == [(0, 11), (11, 4)]
        assert len(tracker.values) == grid.steps + 1
        assert all(v.shape == (15, 1) for v in tracker.values)
        for r in range(15):
            lone_tracker = MomentTracker(p=2)
            lone = simulate(model, Ensemble(states[r]), grid, root.substream(100 + r), observers=[lone_tracker])
            assert np.array_equal(final[r], lone.states), r
            assert lone_tracker.times == tracker.times
            assert all(np.array_equal(v[r], w) for v, w in zip(tracker.values, lone_tracker.values)), r
        with SnapshotWriter(tmp_path / "lone.csv", replica=13, every=2) as writer:
            simulate(model, Ensemble(states[13]), grid, root.substream(113), observers=[writer])
        lines = (tmp_path / "batch.csv").read_text()
        assert lines == (tmp_path / "lone.csv").read_text()
        assert len(lines.splitlines()) == 1 + 3 * 700  # steps 0, 2 and 4

    def test_a_non_finite_initial_state_names_its_replica_and_particle(self):
        states = np.zeros((3, 4, 1))
        states[2, 1] = np.inf
        with pytest.raises(StepError, match="non-finite initial state") as err:
            simulate(_still(), states, TimeGrid(0, 1, 0.5), [RngStream(38, r) for r in range(3)])
        assert (err.value.replica, err.value.particle, err.value.step) == (2, 1, 0)

    def test_step_em_equals_the_one_step_simulate(self):
        model = mean_field_ou_model(1.0, 2.0)
        e0 = Ensemble(RngStream(34).normal((50, 1)), time=0.7)
        for dt in (0.01, 0.37):
            one = step_em(model, e0, dt, RngStream(35))
            ref = simulate(model, e0, TimeGrid(0.0, dt, dt), RngStream(35))
            # the explicit update with unit diffusion, written out
            drift = model.drift(e0.states, e0.states)
            by_hand = e0.states + drift * dt + RngStream(35).normal((50, 1)) * math.sqrt(dt)
            assert np.array_equal(one.states, ref.states)
            assert np.array_equal(one.states, by_hand)
            assert one.time == ref.time == 0.7 + dt

    def test_a_batch_needs_one_stream_per_replica(self):
        states = np.zeros((3, 5, 1))
        with pytest.raises(ValueError, match="one stream per replica"):
            simulate(_still(), states, TimeGrid(0, 1, 0.5), [RngStream(36)])

    def test_a_batch_of_empty_ensembles_is_rejected_by_shape(self):
        # the batch width divides by n * d, so n = 0 must be caught first
        with pytest.raises(ValueError, match=r"n >= 1.*\(2, 0, 1\)"):
            simulate(_still(), np.zeros((2, 0, 1)), TimeGrid(0, 1, 0.5), [RngStream(36, r) for r in range(2)])


class TestOuReference:
    def test_mean_decay(self):
        ref = ou_reference(1.0, 0.5, m0=1.0, v0=0.2)
        assert ref.mean(1.0) == pytest.approx(math.exp(-1))

    def test_variance_fixed_point(self):
        # v' = -2v + 1 has fixed point 1/2
        ref = ou_reference(0.0, 1.0, m0=0.0, v0=0.0)
        assert ref.variance(50.0) == pytest.approx(0.5)

    def test_pure_brownian_variance(self):
        ref = ou_reference(0.0, 0.0, m0=0.0, v0=0.0)
        assert ref.variance(2.0) == pytest.approx(2.0)

    def test_rejects_foreign_model(self):
        ref = ou_reference(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(UnsupportedReference):
            ref.check_model(kuramoto_model(1.0))
        with pytest.raises(UnsupportedReference):
            ref.check_model(mean_field_ou_model(1.0, 2.0))  # mismatched kappa

    def test_accepts_the_same_law_from_another_builder(self):
        # -grad V - grad W * mu with V = lam x^2 / 2, W = kappa z^2 / 2 and unit
        # noise is the mean-field OU model, in closed form or as a pairwise sum
        ref = ou_reference(0.5, 2.0, 0.0, 1.0)
        ref.check_model(mean_field_ou_model(0.5, 2.0))
        ref.check_model(gradient_system_model(lambda x: 0.5 * x, lambda z: 2.0 * z, 1.0))
        ref.check_model(gradient_system_model(
            lambda x: 0.5 * x, lambda z: 2.0 * z, 1.0,
            grad_W_conv=lambda s, pts: 2.0 * (s - pts.mean(axis=-2, keepdims=True))))
        # here the pairwise mean differs from the closed form in its last bits
        model = gradient_system_model(lambda x: 0.1 * x, lambda z: 1.3 * z, 1.0)
        ou_reference(0.1, 1.3, 0.0, 1.0).check_model(model)
        with pytest.raises(UnsupportedReference, match="drift"):
            ou_reference(0.1, 1.3 * (1 + 1e-9), 0.0, 1.0).check_model(model)

    @pytest.mark.parametrize("model, match", [
        (kuramoto_model(1.0), "drift"),
        (gradient_system_model(lambda x: 0.5 * x, lambda z: 3.0 * z, 1.0), "drift"),  # another kappa
        (gradient_system_model(lambda x: x, lambda z: 2.0 * z, 1.0), "drift"),  # another lam
        (gradient_system_model(lambda x: 0.5 * x, lambda z: 2.0 * z, math.sqrt(2)), "unit diffusion"),
        (gradient_system_model(lambda x: 0.5 * x, lambda z: 2.0 * z, 1.0, dim=2), "1-D model"),
        (McKeanModel(drift=lambda s, points: np.full_like(s, np.nan), diffusion=lambda s, points: 1.0, dim=1),
         "drift"),
        (McKeanModel(drift=lambda s, points: (-0.5 * s - 2.0 * (s - empirical_mean(points)))[:, 0],  # (n,), not (n, 1)
                     diffusion=lambda s, points: 1.0, dim=1), "drift"),
    ])
    def test_refuses_other_dynamics(self, model, match):
        with pytest.raises(UnsupportedReference, match=match):
            ou_reference(0.5, 2.0, 0.0, 1.0).check_model(model)

    def test_an_overflowing_drift_is_left_to_the_run(self):
        # lam = 1e308 overflows the probe's drift and the closed form alike:
        # the model is the reference's, and the run reports the overflow
        model, ref = mean_field_ou_model(1e308, 1.0), ou_reference(1e308, 1.0, 0.0, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            ref.check_model(model)
            with pytest.raises(StepError, match="non-finite drift"):
                simulate_synchronous_coupling(model, ref, 4, TimeGrid(0, 0.2, 0.1), RngStream(6))

    def test_refuses_a_model_reading_its_states_not_its_measure(self):
        # the probe's measure has another mean than the probe states
        model = McKeanModel(drift=lambda s, points: -0.5 * s - 2.0 * (s - s.mean(axis=-2)),
                            diffusion=lambda s, points: 1.0, dim=1)
        with pytest.raises(UnsupportedReference, match="drift"):
            ou_reference(0.5, 2.0, 0.0, 1.0).check_model(model)

    def test_the_coupling_harness_checks_an_exact_reference(self):
        with pytest.raises(UnsupportedReference):
            simulate_synchronous_coupling(kuramoto_model(1.0), ou_reference(1.0, 1.0, 0.0, 1.0), 4,
                                          TimeGrid(0, 0.2, 0.1), RngStream(3))


class TestModelContract:
    def test_a_model_is_its_drift_diffusion_and_dimension(self):
        assert [f.name for f in dataclasses.fields(McKeanModel)] == ["drift", "diffusion", "dim"]
        assert [f.name for f in dataclasses.fields(SurrogateReference)] == ["initial", "factor"]

    @pytest.mark.parametrize("factor", [0, -1, 2.5, "4"])
    def test_surrogate_factor_must_be_a_positive_integer(self, factor):
        with pytest.raises(ValueError, match="factor"):
            SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=factor)

    def test_a_numpy_integer_factor_is_accepted(self):
        assert SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=np.int64(3)).factor == 3

    @pytest.mark.parametrize("dim, sample_shape", [(1, lambda n: (n, 2)), (2, lambda n: (2 * n, 1)),
                                                    (1, lambda n: (n,))])
    def test_the_engine_refuses_draws_without_dim_coordinates(self, dim, sample_shape):
        model = McKeanModel(drift=lambda s, points: -s, diffusion=lambda s, points: 1.0, dim=dim)
        ref = SurrogateReference(lambda n, rng: rng.normal(sample_shape(n)), factor=2)
        with pytest.raises(ValueError, match=rf"shape \(8, {dim}\)"):
            coupling_mse_rows(model, ref, 8, TimeGrid(0, 0.2, 0.1), [RngStream(4, r) for r in range(2)])

    def test_the_engine_refuses_the_1d_exact_reference_for_a_2d_model(self):
        model = McKeanModel(drift=lambda s, points: -s, diffusion=lambda s, points: 1.0, dim=2)
        with pytest.raises(ValueError, match=r"shape \(8, 2\)"):
            coupling_mse_rows(model, ou_reference(1.0, 1.0, 0.0, 1.0), 8, TimeGrid(0, 0.2, 0.1), [RngStream(5)])


class TestSynchronousCoupling:
    def test_measure_independent_drift_gives_zero_mse(self):
        # kappa = 0: the interacting and nonlinear drifts are the same map
        model = mean_field_ou_model(1.0, 0.0)
        ref = ou_reference(1.0, 0.0, m0=0.5, v0=1.0)
        report = simulate_synchronous_coupling(model, ref, n=16, grid=TimeGrid(0, 1, 0.05),
                                               rng=RngStream(5), replicas=2)
        assert report.sup_mse <= 1e-20

    def test_initial_mse_is_zero(self):
        model = mean_field_ou_model(1.0, 1.0)
        ref = ou_reference(1.0, 1.0, m0=1.0, v0=1.0)
        report = simulate_synchronous_coupling(model, ref, n=32, grid=TimeGrid(0, 0.5, 0.05),
                                               rng=RngStream(6), replicas=3)
        assert report.mse[0] == 0.0
        assert np.all(report.mse >= 0)

    def test_rate_between_n100_and_n400(self):
        # 1/N convergence: quadrupling N shrinks sup mse by ~4, bracket [2, 8]
        model = mean_field_ou_model(1.0, 1.0)
        ref = ou_reference(1.0, 1.0, m0=1.0, v0=1.0)
        grid = TimeGrid(0, 1, 5e-3)
        sup = {}
        for n in (100, 400):
            rep = simulate_synchronous_coupling(model, ref, n, grid, RngStream(7, n), replicas=48)
            sup[n] = rep.sup_mse
        ratio = sup[100] / sup[400]
        assert 2.0 <= ratio <= 8.0

    def test_noise_sharing_bitwise_with_zero_diffusion(self):
        model = McKeanModel(drift=lambda s, points: -s, diffusion=lambda s, points: 0.0, dim=1)
        ref = SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=4)
        report = simulate_synchronous_coupling(model, ref, n=8, grid=TimeGrid(0, 1, 0.1),
                                               rng=RngStream(8), replicas=2)
        assert np.all(report.mse == 0.0)

    def test_report_csv(self, tmp_path):
        model = mean_field_ou_model(1.0, 1.0)
        ref = ou_reference(1.0, 1.0, 1.0, 1.0)
        report = simulate_synchronous_coupling(model, ref, 8, TimeGrid(0, 0.2, 0.1), RngStream(9))
        path = tmp_path / "coupling.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,n,replicas,mse"
        assert len(lines) == 1 + len(report.times)


class TestReplicaBatching:
    """The coupling engine advances replicas together as (R, n, d) arrays;
    every replica must still see only its own measure and its own noise."""

    @staticmethod
    def _prefix_rows_match(model, ref, n, grid, total, k):
        streams = [RngStream(21).substream(r) for r in range(total)]
        full = coupling_mse_rows(model, ref, n, grid, streams)
        assert full.shape == (total, grid.steps + 1)
        assert np.array_equal(coupling_mse_rows(model, ref, n, grid, streams[:k]), full[:k])
        # a lone replica from a later batch equals its row in the full run
        assert np.array_equal(coupling_replica_mse(model, ref, n, grid, streams[-1]), full[-1])
        assert np.all(full[:, 1:] > 0)

    def test_zero_particles_are_rejected_by_shape(self):
        model, ref = mean_field_ou_model(1.0, 1.0), ou_reference(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"n >= 1.*\(2, 0, 1\)"):
            coupling_mse_rows(model, ref, 0, TimeGrid(0, 1, 0.5), [RngStream(21, r) for r in range(2)])

    def test_gaussian_reference_rows_do_not_depend_on_the_batch(self):
        # n = 300: 27 replicas per batch, so 30 streams span two batches
        model = mean_field_ou_model(1.0, 1.0)
        ref = ou_reference(1.0, 1.0, m0=1.0, v0=1.0)
        self._prefix_rows_match(model, ref, 300, TimeGrid(0, 0.2, 0.02), total=30, k=5)

    def test_surrogate_reference_rows_do_not_depend_on_the_batch(self):
        # 4 * 64 surrogate particles: 32 replicas per batch, 34 streams span two
        model = mean_field_ou_model(1.0, 1.0)
        ref = SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=4)
        self._prefix_rows_match(model, ref, 64, TimeGrid(0, 0.2, 0.02), total=34, k=3)

    def test_factory_drifts_act_per_replica(self):
        rng = RngStream(22)
        cases = [
            (mean_field_ou_model(1.0, 2.0), rng.normal((3, 7, 1))),
            (gradient_system_model(lambda x: x, lambda z: z ** 3, 1.0), rng.normal((3, 7, 1))),
            (gradient_system_model(lambda x: x, lambda z: z, 1.0,
                                   grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True)),
             rng.normal((3, 7, 1))),
            (kuramoto_model(1.5), rng.normal((3, 7, 1))),
            (cucker_smale_model(1.0, 0.5, d=2), rng.normal((3, 7, 4))),
            (regularized_coulomb_model(1.0, 0.1, 0.5, d=2), rng.normal((3, 7, 2))),
        ]
        for case, (model, states) in enumerate(cases):
            drift = model.drift(states, states)
            sigma = np.broadcast_to(model.diffusion(states, states), states.shape)
            for r in range(states.shape[0]):
                one = states[r]
                assert np.array_equal(drift[r], model.drift(one, one)), case
                assert np.array_equal(sigma[r], np.broadcast_to(model.diffusion(one, one), one.shape))

    def test_non_finite_drift_names_replica_and_particle(self):
        # only particle 3 of replica 6 starts at 1; the drift is nan there.
        # 4 * 512 surrogate particles give 4 replicas per batch, so replica 6
        # sits at position 2 of the second batch.
        root = RngStream(23)
        marked = root.substream(6).substream(0).stream_id

        def sampler(n, rng):
            x = np.zeros((n, 1))
            if rng.stream_id == marked:
                x[3] = 1.0
            return x

        model = McKeanModel(drift=lambda s, points: np.where(s > 0.5, np.nan, -s),
                            diffusion=lambda s, points: 0.0, dim=1)
        ref = SurrogateReference(sampler, factor=4)
        with pytest.raises(StepError, match="non-finite drift") as err:
            simulate_synchronous_coupling(model, ref, n=512, grid=TimeGrid(0, 0.3, 0.1),
                                          rng=root, replicas=8)
        assert (err.value.replica, err.value.particle, err.value.step) == (6, 3, 0)
        assert "replica=6" in str(err.value)

    def test_non_finite_nonlinear_copy_names_replica_particle_and_step(self):
        # x_bar reads the surrogate's measure and grows by 5% a step from 1 at
        # particle 3 of replica 1; its drift is nan once it passes 1.5, at step
        # 9 (t = 0.45). 4096 particles give noise blocks of 8 steps, so step 9
        # is the second of the second block.
        root = RngStream(25)
        marked = root.substream(1).substream(0).stream_id

        def sampler(n, rng):
            x = np.zeros((n, 1))
            if rng.stream_id == marked:
                x[3] = 1.0
            return x

        def drift(s, points):
            if points.shape[-2] == s.shape[-2]:  # x and the surrogate read their own measure
                return -s
            return np.where(s > 1.5, np.nan, s)

        model = McKeanModel(drift=drift, diffusion=lambda s, points: 0.0, dim=1)
        ref = SurrogateReference(sampler, factor=2)
        with pytest.raises(StepError, match="non-finite nonlinear copy state") as err:
            simulate_synchronous_coupling(model, ref, n=4096, grid=TimeGrid(0, 1.0, 0.05), rng=root, replicas=2)
        assert (err.value.replica, err.value.particle, err.value.step) == (1, 3, 9)
        assert err.value.time == pytest.approx(0.45)

    def test_non_finite_state_is_reported_at_its_step(self):
        # drift and diffusion stay finite, but every state overflows in step 1;
        # the surrogate is advanced first, so it is the one reported
        model = McKeanModel(drift=lambda s, points: 1e308 * np.sign(s), diffusion=lambda s, points: 0.0, dim=1)
        ref = SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=2)
        with np.errstate(over="ignore"), pytest.raises(StepError, match="non-finite surrogate state") as err:
            simulate_synchronous_coupling(model, ref, n=4, grid=TimeGrid(0, 4, 1.0),
                                          rng=RngStream(24), replicas=3)
        assert (err.value.replica, err.value.particle, err.value.step) == (0, 0, 1)


def _diffuse_by_hand(sigma, xi):
    # the general form: the coefficient as an array, broadcast against the
    # increments; the tests use scalars and (..., n, d) arrays only
    return np.asarray(sigma, dtype=float) * xi


def _coupling_rows_by_hand(model, ref, n, grid, streams):
    """The coupled step loop written out: one replica at a time, one draw per
    step, numpy float durations and times, and each step's MSE on its own."""
    rows = []
    for s in streams:
        x = ref.initial(n, s.substream(0))
        x_bar, noise, t, row = x.copy(), s.substream(1), grid.t0, [0.0]
        if not ref.exact:
            surrogate, surrogate_noise = ref.initial(ref.factor * n, s.substream(2)), s.substream(3)
        for h in grid.step_durations():
            xi = noise.normal(x.shape)
            if ref.exact:
                b_bar, sig_bar = ref.drift(x_bar, t), ref.diffusion(x_bar, t)
            else:
                b_bar, sig_bar = model.drift(x_bar, surrogate), model.diffusion(x_bar, surrogate)
                surrogate = (surrogate + model.drift(surrogate, surrogate) * h
                             + _diffuse_by_hand(model.diffusion(surrogate, surrogate),
                                                surrogate_noise.normal(surrogate.shape)) * math.sqrt(h))
            x = x + model.drift(x, x) * h + _diffuse_by_hand(model.diffusion(x, x), xi) * math.sqrt(h)
            x_bar = x_bar + b_bar * h + _diffuse_by_hand(sig_bar, xi) * math.sqrt(h)
            t += h
            row.append(np.mean(np.sum((x - x_bar) ** 2, axis=1)))
        rows.append(row)
    return np.array(rows)


def _pulled_to_mean(diffusion, d):
    """A surrogate-coupled model with drift -(x - m(mu)) and the given diffusion."""
    model = McKeanModel(drift=lambda s, points: -(s - empirical_mean(points)), diffusion=diffusion, dim=d)
    return model, SurrogateReference(lambda n, rng: rng.normal((n, d)), factor=2)


class TestStepBits:
    """The coupled step applies a float diffusion without array conversion,
    shares one noise term between x and x_bar when their diffusions are the
    same float, and reduces the MSE once per noise block; every value stays
    the one of the step written out by hand."""

    # 160 steps, the last of 0.0075: at four 12-particle replicas in R^9, a
    # noise block holds 75 steps, so the run spans three blocks, the last partial.
    # One replica of 720 / d particles in R^d, whose noise block is the stream's
    # draw itself, spans four blocks of 45 steps, the last of 25.
    GRID = TimeGrid(0.0, 1.5975, 0.01)

    def _rows_equal_by_hand(self, model, ref, n, streams):
        rows = coupling_mse_rows(model, ref, n, self.GRID, streams)
        assert np.array_equal(rows, _coupling_rows_by_hand(model, ref, n, self.GRID, streams))
        return rows

    def test_the_grid_spans_noise_blocks_and_ends_in_a_partial_step(self):
        assert _NOISE_FLOATS // (4 * 12 * 9) == 75 and self.GRID.steps == 160
        assert _NOISE_FLOATS // 720 == 45
        assert 0.0 < self.GRID.step_durations()[-1] < self.GRID.dt

    def test_the_exact_reference_equals_the_step_by_hand(self):
        # 400 particles of three replicas: 27 steps per noise block, six blocks
        model, ref = mean_field_ou_model(1.0, 2.0), ou_reference(1.0, 2.0, m0=1.0, v0=1.0)
        for n, streams in ((400, [RngStream(41, r) for r in range(3)]), (720, [RngStream(47)])):
            rows = self._rows_equal_by_hand(model, ref, n, streams)
            assert np.all(rows[:, 1:] > 0)

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_a_float_diffusion_shares_its_noise_term(self, d):
        model, ref = _pulled_to_mean(lambda s, points: 0.7, d)
        for n, streams in ((12, [RngStream(42, r) for r in range(4)]), (720 // d, [RngStream(48)])):
            rows = self._rows_equal_by_hand(model, ref, n, streams)
            assert np.all(rows[:, 1:] > 0)

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_an_array_diffusion_keeps_its_own_noise_term(self, d):
        model, ref = _pulled_to_mean(lambda s, points: 0.7 + 0.1 * np.tanh(s), d)
        for n, streams in ((12, [RngStream(43, r) for r in range(4)]), (720 // d, [RngStream(49)])):
            rows = self._rows_equal_by_hand(model, ref, n, streams)
            assert np.all(rows[:, 1:] > 0)

    def test_one_stream_yields_its_draws_as_views(self):
        draws = []

        class Recorded(RngStream):
            def normal(self, size=None):
                draws.append(super().normal(size))
                return draws[-1]

        # 400 particles: 81 steps per block, then 19
        blocks = list(_noise_steps([Recorded(50)], (400, 1), 100))
        fresh = RngStream(50)
        assert [k0 for k0, _ in blocks] == [0, 81] and len(draws) == 2
        for (_, block), draw in zip(blocks, draws):
            assert block.shape == (len(draw), 1, 400, 1) and np.shares_memory(block, draw)
            assert block.tobytes() == np.stack([fresh.normal(draw.shape)], axis=1).tobytes()

    def test_zero_and_negative_zero_diffusions_keep_their_own_terms(self):
        # x sees diffusion 0.0 and x_bar -0.0, from states of -0.0 and a drift
        # of -0.0: after step 0 each particle of x holds the sign of its
        # increment as a zero, and x_bar the opposite sign. The drift then
        # moves the positive zeros by h, so only separate terms give MSE h^2.
        def drift(s, points):
            return np.where(np.signbit(s), -0.0, 1.0)

        model = McKeanModel(drift=drift, diffusion=lambda s, points: 0.0 if points is s else -0.0, dim=1)
        ref = SurrogateReference(lambda n, rng: np.full((n, 1), -0.0), factor=2)
        grid = TimeGrid(0.0, 0.2, 0.1)
        rows = coupling_mse_rows(model, ref, 5, grid, [RngStream(44)])
        assert np.array_equal(rows, _coupling_rows_by_hand(model, ref, 5, grid, [RngStream(44)]))
        assert rows[0, 2] == 0.1 ** 2

    def test_an_overflowing_exact_mean_raises_a_step_error(self):
        # m(t) = exp(1000 t) overflows a double past t = 0.7098, so step 71 from t = 0.71 cannot be taken
        model, ref = mean_field_ou_model(-1000.0, 1.0), ou_reference(-1000.0, 1.0, m0=1.0, v0=1.0)
        with np.errstate(over="ignore"), pytest.raises(StepError, match="reference drift: GaussianReference") as err:
            coupling_mse_rows(model, ref, 5, TimeGrid(0.0, 1.0, 0.01), [RngStream(1, r) for r in range(2)])
        assert (err.value.replica, err.value.particle, err.value.step) == (None, None, 71)
        assert err.value.time == pytest.approx(0.71)

    def test_simulate_with_unit_diffusion_equals_the_step_by_hand(self):
        model, grid = kuramoto_model(1.5), TimeGrid(0.0, 0.0975, 0.01)
        states = RngStream(45).normal((3, 40, 1))
        final = simulate(model, states, grid, [RngStream(46, r) for r in range(3)])
        lone = simulate(model, Ensemble(states[1]), grid, RngStream(46, 1))
        for r in range(3):
            x, noise = states[r], RngStream(46, r)
            for h in grid.step_durations():
                xi = noise.normal(x.shape)
                x = x + model.drift(x, x) * h + _diffuse_by_hand(1.0, xi) * math.sqrt(h)
            assert np.array_equal(final[r], x), r
        t = 0.0
        for h in grid.step_durations():
            t += h
        assert np.array_equal(lone.states, final[1])
        assert lone.time == t


# the (..., n, m, d) formulas the blocked pairwise drifts must reproduce
def _dense_gradient(states, pts):
    diffs = states[..., :, None, :] - pts[..., None, :, :]
    return -(0.5 * states) - (diffs ** 3 - diffs).mean(axis=-2)


def _dense_cucker_smale(states, pts, gamma=0.8, d=2):
    pos, vel = states[..., :d], states[..., d:]
    mpos, mvel = pts[..., :d], pts[..., d:]
    r2 = np.sum((mpos[..., None, :, :] - pos[..., :, None, :]) ** 2, axis=-1)
    k = (1.0 + r2) ** (-gamma / 2.0)
    dv = (k[..., None] * (mvel[..., None, :, :] - vel[..., :, None, :])).mean(axis=-2)
    return np.concatenate([vel, dv], axis=-1)


def _dense_coulomb(states, pts, xi=1.5, eps=0.05, d=2):
    diffs = states[..., :, None, :] - pts[..., None, :, :]
    return (xi * diffs / np.maximum(np.linalg.norm(diffs, axis=-1), eps)[..., None] ** d).mean(axis=-2)


class TestPairwiseDrifts:
    """Each pairwise factory reduces through core.pair_mean in row blocks;
    its drift must equal the dense (..., n, m, d) formula bit for bit."""

    CASES = {
        "gradient": (gradient_system_model(lambda x: 0.5 * x, lambda z: z ** 3 - z, 1.0, dim=2),
                     _dense_gradient),
        "cucker-smale": (cucker_smale_model(0.8, 0.5, d=2), _dense_cucker_smale),
        "coulomb": (regularized_coulomb_model(1.5, 0.05, 0.5, d=2), _dense_coulomb),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_blocked_drift_equals_the_dense_formula(self, name):
        model, dense = self.CASES[name]
        root = RngStream(42)
        # one ensemble against its own measure, and a batch against a larger
        # measure per replica; both run in several blocks, the last partial
        single = root.substream(0).normal((1001, model.dim))
        batch, pts = root.substream(1).normal((3, 251, model.dim)), root.substream(2).normal((3, 400, model.dim))
        for states, m in ((single, 1001), (batch, 400)):
            n = states.shape[-2]
            rows = core._PAIR_FLOATS // (states.size // n * m)
            assert 1 < rows < n and n % rows
        assert np.array_equal(model.drift(single, single), dense(single, single))
        assert np.array_equal(model.drift(batch, pts), dense(batch, pts))


class TestGradientSystem:
    def test_confinement_only(self):
        model = gradient_system_model(grad_V=lambda x: x, grad_W=lambda z: np.zeros_like(z),
                                      sigma_const=0.0)
        e = Ensemble(np.array([2.0, -1.0]))
        assert np.allclose(model.drift(e.states, e.states), -e.states)

    def test_interaction_only(self):
        # states {0, 2}, at x = 0: -mean(grad W(0 - y)) = -mean(-y) = +1
        model = gradient_system_model(grad_V=lambda x: np.zeros_like(x), grad_W=lambda z: z,
                                      sigma_const=0.0)
        e = Ensemble(np.array([0.0, 2.0]))
        drift = model.drift(e.states, e.states)
        assert drift[0, 0] == pytest.approx(1.0)

    def test_quartic_gradient_is_odd(self):
        model = gradient_system_model(grad_V=lambda x: np.zeros_like(x),
                                      grad_W=lambda z: 4.0 * z**3, sigma_const=1.0)
        # states {0, 1}: -mean(4 (x - y)^3) is +2 at x = 0 and -2 at x = 1
        e = Ensemble(np.array([0.0, 1.0]))
        assert np.array_equal(model.drift(e.states, e.states), [[2.0], [-2.0]])

    def test_even_gradient_rejected(self):
        with pytest.raises(ModelSpecError, match="odd"):
            gradient_system_model(grad_V=lambda x: x, grad_W=lambda z: np.abs(z), sigma_const=1.0)

    def test_closed_form_convolution_matches_pairwise(self):
        pairwise = gradient_system_model(lambda x: x, lambda z: z, 1.0)
        fast = gradient_system_model(lambda x: x, lambda z: z, 1.0,
                                     grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True))
        e = Ensemble(RngStream(10).normal((20, 1)))
        assert np.allclose(pairwise.drift(e.states, e.states), fast.drift(e.states, e.states))

    def test_uniform_in_time_plateau(self):
        # quadratic V and W: the coupling error reaches a level flat in time
        sig = math.sqrt(2)
        model = gradient_system_model(lambda x: x, lambda z: z, sig, dim=1,
                                      grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True))
        ref = SurrogateReference(lambda n, rng: rng.normal((n, 1)), factor=16)
        report = simulate_synchronous_coupling(model, ref, n=100, grid=TimeGrid(0, 10, 0.02),
                                               rng=RngStream(11), replicas=16)
        m5, m10 = report.mse_at(5.0), report.mse_at(10.0)
        assert 0.5 <= m5 / m10 <= 2.0


class TestKuramoto:
    def test_no_coupling_no_disorder_zero_drift(self):
        model = kuramoto_model(0.0)
        e = Ensemble(RngStream(12).uniform(10) * 2 * math.pi)
        assert np.allclose(model.drift(e.states, e.states), 0.0)

    def test_two_particle_alignment_drift(self):
        # -(K/N) sum_j sin(theta1 - theta_j) = -(1/2) sin(-pi/2) = +1/2
        model = kuramoto_model(1.0)
        e = Ensemble(np.array([0.0, math.pi / 2]))
        drift = model.drift(e.states, e.states)
        assert drift[0, 0] == pytest.approx(0.5)
        assert drift[1, 0] == pytest.approx(-0.5)

    def test_synchronized_phases_no_drift(self):
        model = kuramoto_model(3.0)
        e = Ensemble(np.full(20, 1.1))
        assert np.allclose(model.drift(e.states, e.states), 0.0, atol=1e-14)

    def test_own_measure_drift_equals_a_copied_measure(self):
        # the drift reuses the states' phases when the points are the states array itself
        model = kuramoto_model(1.3)
        states = RngStream(14).normal((4, 50, 1))
        assert np.array_equal(model.drift(states, states), model.drift(states, states.copy()))

    def test_quenched_disorder_frozen_at_construction(self):
        model = kuramoto_model(1.0, n=6, disorder_sampler=lambda n, rng: rng.normal(n),
                               rng=RngStream(13))
        e = Ensemble(np.zeros(6))
        d1 = model.drift(e.states, e.states)
        d2 = model.drift(e.states, e.states)
        assert np.array_equal(d1, d2)  # same draw on every evaluation
        with pytest.raises(ModelSpecError):
            kuramoto_model(1.0, disorder_sampler=lambda n, rng: rng.normal(n))

    def test_unit_diffusion(self):
        model = kuramoto_model(1.0)
        e = Ensemble(np.zeros(4))
        assert model.diffusion(e.states, e.states) == 1.0

    @pytest.mark.parametrize("shape", [(7, 1), (3, 7, 1)])
    def test_drift_reads_the_measure_it_is_given(self, shape):
        # a nonlinear copy sees a surrogate's measure, of another size, not its own states
        rng = RngStream(15)
        states = rng.substream(0).normal(shape)
        points = rng.substream(1).normal((*shape[:-2], 11, 1))
        model = kuramoto_model(1.5)
        drift = model.drift(states, points)
        dense = -1.5 * np.mean(np.sin(states[..., :, None, 0] - points[..., None, :, 0]), axis=-1)
        assert drift.shape == shape
        assert np.allclose(drift[..., 0], dense)
        assert not np.allclose(drift, model.drift(states, states))


class TestCuckerSmale:
    def test_equal_velocities_no_alignment(self):
        model = cucker_smale_model(gamma=2.0, sigma_const=0.0, d=2)
        states = np.concatenate([RngStream(14).normal((8, 2)), np.tile([1.0, -1.0], (8, 1))], axis=1)
        e = Ensemble(states)
        drift = model.drift(e.states, e.states)
        assert np.allclose(drift[:, 2:], 0.0)
        assert np.allclose(drift[:, :2], states[:, 2:])  # dx = v

    def test_two_particle_velocity_pull(self):
        # same position (K = 1), v1 = 0, v2 = 2: dv1 = (1/2)(2 - 0) = 1
        model = cucker_smale_model(gamma=2.0, sigma_const=0.0, d=1)
        e = Ensemble(np.array([[0.0, 0.0], [0.0, 2.0]]))
        drift = model.drift(e.states, e.states)
        assert drift[0, 1] == pytest.approx(1.0)
        assert drift[1, 1] == pytest.approx(-1.0)

    def test_momentum_conserved_without_noise(self):
        model = cucker_smale_model(gamma=1.0, sigma_const=0.0, d=2)
        rng = RngStream(15)
        e0 = Ensemble(np.concatenate([rng.normal((30, 2)), rng.normal((30, 2))], axis=1))
        p0 = e0.states[:, 2:].mean(axis=0)
        final = simulate(model, e0, TimeGrid(0, 10, 0.01), rng.substream(1))
        p1 = final.states[:, 2:].mean(axis=0)
        assert np.abs(p1 - p0).max() / np.abs(p0).max() < 1e-10

    def test_noise_only_on_velocity(self):
        model = cucker_smale_model(gamma=1.0, sigma_const=1.0, d=1)
        e = Ensemble(np.zeros((6, 2)))
        sig = model.diffusion(e.states, e.states)
        assert np.all(sig[:, 0] == 0.0) and np.all(sig[:, 1] == 1.0)


class TestRegularizedCoulomb:
    def test_pair_force_magnitude(self):
        # d = 2, xi = 1, distance r > eps: |F| = 1/r; drift carries the 1/N factor
        model = regularized_coulomb_model(1.0, eps=0.1, sigma_const=0.0, d=2)
        e = Ensemble(np.array([[0.0, 0.0], [3.0, 0.0]]))
        drift = model.drift(e.states, e.states)
        assert np.linalg.norm(drift[0]) * e.n == pytest.approx(1.0 / 3.0)

    def test_coincident_particles_finite(self):
        model = regularized_coulomb_model(1.0, eps=0.5, sigma_const=0.0, d=2)
        e = Ensemble(np.zeros((3, 2)))
        drift = model.drift(e.states, e.states)
        assert np.all(np.isfinite(drift))
        assert np.allclose(drift, 0.0)

    def test_zero_strength(self):
        model = regularized_coulomb_model(0.0, eps=0.1, sigma_const=0.0, d=2)
        e = Ensemble(RngStream(16).normal((5, 2)))
        assert np.allclose(model.drift(e.states, e.states), 0.0)

    def test_requires_positive_cutoff(self):
        with pytest.raises(ModelSpecError):
            regularized_coulomb_model(1.0, eps=0.0, sigma_const=0.0, d=2)

    def test_close_pair_force_clamped(self):
        # distance below eps: denominator clamps at eps^d
        model = regularized_coulomb_model(1.0, eps=0.5, sigma_const=0.0, d=2)
        e = Ensemble(np.array([[0.0, 0.0], [0.1, 0.0]]))
        drift = model.drift(e.states, e.states)
        assert np.linalg.norm(drift[0]) * e.n == pytest.approx(0.1 / 0.25)
