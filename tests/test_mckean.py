import math

import numpy as np
import pytest

from meanfield import core
from meanfield.core import EmpiricalMeasure, Ensemble, RngStream, TimeGrid
from meanfield.errors import ModelSpecError, StepError, UnsupportedReference
from meanfield.mckean import (
    GaussianReference,
    McKeanModel,
    MomentTracker,
    SnapshotWriter,
    SurrogateReference,
    _batch_width,
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
    return McKeanModel(drift=lambda s, mu: np.zeros_like(s), diffusion=lambda s, mu: 0.0, dim=dim)


class TestStepEm:
    def test_null_dynamics_only_advances_time(self):
        e0 = Ensemble(np.array([1.0, -2.0]), time=0.5)
        e1 = step_em(_still(), e0, 0.25, RngStream(0))
        assert np.array_equal(e1.states, e0.states)
        assert e1.time == pytest.approx(0.75)

    def test_explicit_euler_on_linear_ode(self):
        model = McKeanModel(drift=lambda s, mu: -s, diffusion=lambda s, mu: 0.0, dim=1)
        e1 = step_em(model, Ensemble(np.array([1.0])), 0.1, RngStream(0))
        assert e1.states[0, 0] == pytest.approx(0.9)

    def test_mean_field_drift_uses_shared_measure(self):
        # brute force: mean = 1, each particle moves dt*(1 - x)
        model = McKeanModel(drift=lambda s, mu: mu.mean() - s, diffusion=lambda s, mu: 0.0, dim=1)
        e1 = step_em(model, Ensemble(np.array([0.0, 2.0])), 0.5, RngStream(0))
        assert np.allclose(e1.states.ravel(), [0.5, 1.5])

    def test_all_particles_see_pre_step_measure(self):
        seen = []

        def recording_drift(states, mu):
            seen.append(mu.points.copy())
            return -states

        model = McKeanModel(drift=recording_drift, diffusion=lambda s, mu: 0.0, dim=1)
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        step_em(model, e0, 0.1, RngStream(0))
        assert len(seen) == 1  # one evaluation against one frozen measure
        assert np.array_equal(seen[0], e0.states)

    def test_non_finite_drift_raises_step_error(self):
        def bad(states, mu):
            out = -states.copy()
            out[1] = np.nan
            return out

        model = McKeanModel(drift=bad, diffusion=lambda s, mu: 0.0, dim=1)
        with pytest.raises(StepError) as err:
            step_em(model, Ensemble(np.array([1.0, 2.0])), 0.1, RngStream(0))
        assert err.value.particle == 1

    def test_diffusion_shapes(self):
        rng = RngStream(1)
        e0 = Ensemble(rng.normal((5, 2)))
        for sigma in (
            lambda s, mu: 0.5,
            lambda s, mu: np.full(5, 0.5),
            lambda s, mu: np.full((5, 2), 0.5),
            lambda s, mu: np.tile(0.5 * np.eye(2), (5, 1, 1)),
        ):
            model = McKeanModel(drift=lambda s, mu: np.zeros_like(s), diffusion=sigma, dim=2)
            out = step_em(model, e0, 0.01, RngStream(2))
            assert out.states.shape == (5, 2)
        results = [
            step_em(McKeanModel(drift=lambda s, mu: np.zeros_like(s), diffusion=sig, dim=2),
                    e0, 0.01, RngStream(2)).states
            for sig in (lambda s, mu: 0.5, lambda s, mu: np.tile(0.5 * np.eye(2), (5, 1, 1)))
        ]
        assert np.allclose(results[0], results[1])  # scalar and matrix forms agree


class TestSimulate:
    def test_ou_decay_matches_exact_solution(self):
        model = McKeanModel(drift=lambda s, mu: -s, diffusion=lambda s, mu: 0.0, dim=1)
        final = simulate(model, Ensemble(np.array([1.0])), TimeGrid(0, 1, 1e-4), RngStream(0))
        assert abs(final.states[0, 0] - math.exp(-1)) < 1e-3

    def test_pure_diffusion_variance(self):
        model = McKeanModel(drift=lambda s, mu: np.zeros_like(s), diffusion=lambda s, mu: 1.0, dim=1)
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

        def explodes_at_step_3(states, mu):
            return np.full_like(states, np.nan) if mu.ensemble.time > 0.5 else np.zeros_like(states)

        bad = McKeanModel(drift=explodes_at_step_3, diffusion=lambda s, mu: 0.0, dim=1)
        with pytest.raises(StepError) as err:
            simulate(bad, Ensemble(np.array([0.0])), grid, RngStream(0))
        assert err.value.step == 3

    def test_snapshot_writer_closes_when_simulate_raises(self, tmp_path):
        def explodes_after_half(states, mu):
            return np.full_like(states, np.nan) if mu.ensemble.time > 0.5 else np.zeros_like(states)

        bad = McKeanModel(drift=explodes_after_half, diffusion=lambda s, mu: 0.0, dim=1)
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
        model = McKeanModel(drift=lambda s, mu: np.where(s > 1.0, np.nan, 1.0),
                            diffusion=lambda s, mu: 0.0, dim=1)
        streams = [RngStream(33, r) for r in range(15)]
        with pytest.raises(StepError, match="non-finite drift") as err:
            simulate(model, states, TimeGrid(0, 1, 0.25), streams)
        assert (err.value.replica, err.value.particle, err.value.step) == (13, 4, 3)
        assert "replica=13 | particle=4 | step=3" in str(err.value)

    def test_step_em_equals_the_one_step_simulate(self):
        model = mean_field_ou_model(1.0, 2.0)
        e0 = Ensemble(RngStream(34).normal((50, 1)), time=0.7)
        for dt in (0.01, 0.37):
            one = step_em(model, e0, dt, RngStream(35))
            ref = simulate(model, e0, TimeGrid(0.0, dt, dt), RngStream(35))
            # the explicit update with unit diffusion, written out
            drift = model.drift(e0.states, e0.measure())
            by_hand = e0.states + drift * dt + RngStream(35).normal((50, 1)) * math.sqrt(dt)
            assert np.array_equal(one.states, ref.states)
            assert np.array_equal(one.states, by_hand)
            assert one.time == ref.time == 0.7 + dt

    def test_a_batch_needs_one_stream_per_replica(self):
        states = np.zeros((3, 5, 1))
        with pytest.raises(ValueError, match="one stream per replica"):
            simulate(_still(), states, TimeGrid(0, 1, 0.5), [RngStream(36)])


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
        model = McKeanModel(drift=lambda s, mu: -s, diffusion=lambda s, mu: 0.0, dim=1)
        ref = SurrogateReference(model, initial_sampler=lambda n, rng: rng.normal((n, 1)), factor=4)
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

    def test_gaussian_reference_rows_do_not_depend_on_the_batch(self):
        # n = 300: 27 replicas per batch, so 30 streams span two batches
        model = mean_field_ou_model(1.0, 1.0)
        ref = ou_reference(1.0, 1.0, m0=1.0, v0=1.0)
        self._prefix_rows_match(model, ref, 300, TimeGrid(0, 0.2, 0.02), total=30, k=5)

    def test_surrogate_reference_rows_do_not_depend_on_the_batch(self):
        # 4 * 64 surrogate particles: 32 replicas per batch, 34 streams span two
        model = mean_field_ou_model(1.0, 1.0)
        ref = SurrogateReference(model, initial_sampler=lambda n, rng: rng.normal((n, 1)), factor=4)
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
        for model, states in cases:
            batch = EmpiricalMeasure(states)
            drift = model.drift(states, batch)
            sigma = np.broadcast_to(model.diffusion(states, batch), states.shape)
            for r in range(states.shape[0]):
                mu = Ensemble(states[r]).measure()
                assert np.array_equal(drift[r], model.drift(states[r], mu)), model.family
                assert np.array_equal(sigma[r], np.broadcast_to(model.diffusion(states[r], mu),
                                                                states[r].shape))

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

        model = McKeanModel(drift=lambda s, mu: np.where(s > 0.5, np.nan, -s),
                            diffusion=lambda s, mu: 0.0, dim=1)
        ref = SurrogateReference(model, initial_sampler=sampler, factor=4)
        with pytest.raises(StepError, match="non-finite drift") as err:
            simulate_synchronous_coupling(model, ref, n=512, grid=TimeGrid(0, 0.3, 0.1),
                                          rng=root, replicas=8)
        assert (err.value.replica, err.value.particle, err.value.step) == (6, 3, 0)
        assert "replica=6" in str(err.value)

    def test_non_finite_state_is_reported_at_its_step(self):
        # drift and diffusion stay finite, but every state overflows in step 1;
        # the surrogate is advanced first, so it is the one reported
        model = McKeanModel(drift=lambda s, mu: 1e308 * np.sign(s), diffusion=lambda s, mu: 0.0, dim=1)
        ref = SurrogateReference(model, initial_sampler=lambda n, rng: rng.normal((n, 1)), factor=2)
        with np.errstate(over="ignore"), pytest.raises(StepError, match="non-finite surrogate state") as err:
            simulate_synchronous_coupling(model, ref, n=4, grid=TimeGrid(0, 4, 1.0),
                                          rng=RngStream(24), replicas=3)
        assert (err.value.replica, err.value.particle, err.value.step) == (0, 0, 1)


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
        assert np.array_equal(model.drift(single, Ensemble(single).measure()), dense(single, single))
        assert np.array_equal(model.drift(batch, EmpiricalMeasure(pts)), dense(batch, pts))


class TestGradientSystem:
    def test_confinement_only(self):
        model = gradient_system_model(grad_V=lambda x: x, grad_W=lambda z: np.zeros_like(z),
                                      sigma_const=0.0)
        e = Ensemble(np.array([2.0, -1.0]))
        assert np.allclose(model.drift(e.states, e.measure()), -e.states)

    def test_interaction_only(self):
        # states {0, 2}, at x = 0: -mean(grad W(0 - y)) = -mean(-y) = +1
        model = gradient_system_model(grad_V=lambda x: np.zeros_like(x), grad_W=lambda z: z,
                                      sigma_const=0.0)
        e = Ensemble(np.array([0.0, 2.0]))
        drift = model.drift(e.states, e.measure())
        assert drift[0, 0] == pytest.approx(1.0)

    def test_quartic_gradient_is_odd(self):
        model = gradient_system_model(grad_V=lambda x: np.zeros_like(x),
                                      grad_W=lambda z: 4.0 * z**3, sigma_const=1.0)
        assert model.family == "gradient-system"

    def test_even_gradient_rejected(self):
        with pytest.raises(ModelSpecError, match="odd"):
            gradient_system_model(grad_V=lambda x: x, grad_W=lambda z: np.abs(z), sigma_const=1.0)

    def test_closed_form_convolution_matches_pairwise(self):
        pairwise = gradient_system_model(lambda x: x, lambda z: z, 1.0)
        fast = gradient_system_model(lambda x: x, lambda z: z, 1.0,
                                     grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True))
        e = Ensemble(RngStream(10).normal((20, 1)))
        assert np.allclose(pairwise.drift(e.states, e.measure()), fast.drift(e.states, e.measure()))

    def test_uniform_in_time_plateau(self):
        # quadratic V and W: the coupling error reaches a level flat in time
        sig = math.sqrt(2)
        model = gradient_system_model(lambda x: x, lambda z: z, sig, dim=1,
                                      grad_W_conv=lambda s, pts: s - pts.mean(axis=-2, keepdims=True))
        ref = SurrogateReference(model, initial_sampler=lambda n, rng: rng.normal((n, 1)), factor=16)
        report = simulate_synchronous_coupling(model, ref, n=100, grid=TimeGrid(0, 10, 0.02),
                                               rng=RngStream(11), replicas=16)
        m5, m10 = report.mse_at(5.0), report.mse_at(10.0)
        assert 0.5 <= m5 / m10 <= 2.0


class TestKuramoto:
    def test_no_coupling_no_disorder_zero_drift(self):
        model = kuramoto_model(0.0)
        e = Ensemble(RngStream(12).uniform(10) * 2 * math.pi)
        assert np.allclose(model.drift(e.states, e.measure()), 0.0)

    def test_two_particle_alignment_drift(self):
        # -(K/N) sum_j sin(theta1 - theta_j) = -(1/2) sin(-pi/2) = +1/2
        model = kuramoto_model(1.0)
        e = Ensemble(np.array([0.0, math.pi / 2]))
        drift = model.drift(e.states, e.measure())
        assert drift[0, 0] == pytest.approx(0.5)
        assert drift[1, 0] == pytest.approx(-0.5)

    def test_synchronized_phases_no_drift(self):
        model = kuramoto_model(3.0)
        e = Ensemble(np.full(20, 1.1))
        assert np.allclose(model.drift(e.states, e.measure()), 0.0, atol=1e-14)

    def test_own_measure_drift_equals_a_copied_measure(self):
        # the drift reuses the states' phases when mu is their own measure
        model = kuramoto_model(1.3)
        states = RngStream(14).normal((4, 50, 1))
        assert np.array_equal(model.drift(states, EmpiricalMeasure(states)),
                              model.drift(states, EmpiricalMeasure(states.copy())))

    def test_quenched_disorder_frozen_at_construction(self):
        model = kuramoto_model(1.0, n=6, disorder_sampler=lambda n, rng: rng.normal(n),
                               rng=RngStream(13))
        e = Ensemble(np.zeros(6))
        d1 = model.drift(e.states, e.measure())
        d2 = model.drift(e.states, e.measure())
        assert np.array_equal(d1, d2)  # same draw on every evaluation
        with pytest.raises(ModelSpecError):
            kuramoto_model(1.0, disorder_sampler=lambda n, rng: rng.normal(n))

    def test_unit_diffusion(self):
        model = kuramoto_model(1.0)
        e = Ensemble(np.zeros(4))
        assert model.diffusion(e.states, e.measure()) == 1.0

    @pytest.mark.parametrize("shape", [(7, 1), (3, 7, 1)])
    def test_drift_reads_the_measure_it_is_given(self, shape):
        # a nonlinear copy sees a surrogate's measure, of another size, not its own states
        rng = RngStream(15)
        states = rng.substream(0).normal(shape)
        points = rng.substream(1).normal((*shape[:-2], 11, 1))
        model = kuramoto_model(1.5)
        drift = model.drift(states, EmpiricalMeasure(points))
        dense = -1.5 * np.mean(np.sin(states[..., :, None, 0] - points[..., None, :, 0]), axis=-1)
        assert drift.shape == shape
        assert np.allclose(drift[..., 0], dense)
        assert not np.allclose(drift, model.drift(states, EmpiricalMeasure(states)))


class TestCuckerSmale:
    def test_equal_velocities_no_alignment(self):
        model = cucker_smale_model(gamma=2.0, sigma_const=0.0, d=2)
        states = np.concatenate([RngStream(14).normal((8, 2)), np.tile([1.0, -1.0], (8, 1))], axis=1)
        e = Ensemble(states)
        drift = model.drift(e.states, e.measure())
        assert np.allclose(drift[:, 2:], 0.0)
        assert np.allclose(drift[:, :2], states[:, 2:])  # dx = v

    def test_two_particle_velocity_pull(self):
        # same position (K = 1), v1 = 0, v2 = 2: dv1 = (1/2)(2 - 0) = 1
        model = cucker_smale_model(gamma=2.0, sigma_const=0.0, d=1)
        e = Ensemble(np.array([[0.0, 0.0], [0.0, 2.0]]))
        drift = model.drift(e.states, e.measure())
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
        sig = model.diffusion(e.states, e.measure())
        assert np.all(sig[:, 0] == 0.0) and np.all(sig[:, 1] == 1.0)


class TestRegularizedCoulomb:
    def test_pair_force_magnitude(self):
        # d = 2, xi = 1, distance r > eps: |F| = 1/r; drift carries the 1/N factor
        model = regularized_coulomb_model(1.0, eps=0.1, sigma_const=0.0, d=2)
        e = Ensemble(np.array([[0.0, 0.0], [3.0, 0.0]]))
        drift = model.drift(e.states, e.measure())
        assert np.linalg.norm(drift[0]) * e.n == pytest.approx(1.0 / 3.0)

    def test_coincident_particles_finite(self):
        model = regularized_coulomb_model(1.0, eps=0.5, sigma_const=0.0, d=2)
        e = Ensemble(np.zeros((3, 2)))
        drift = model.drift(e.states, e.measure())
        assert np.all(np.isfinite(drift))
        assert np.allclose(drift, 0.0)

    def test_zero_strength(self):
        model = regularized_coulomb_model(0.0, eps=0.1, sigma_const=0.0, d=2)
        e = Ensemble(RngStream(16).normal((5, 2)))
        assert np.allclose(model.drift(e.states, e.measure()), 0.0)

    def test_requires_positive_cutoff(self):
        with pytest.raises(ModelSpecError):
            regularized_coulomb_model(1.0, eps=0.0, sigma_const=0.0, d=2)

    def test_close_pair_force_clamped(self):
        # distance below eps: denominator clamps at eps^d
        model = regularized_coulomb_model(1.0, eps=0.5, sigma_const=0.0, d=2)
        e = Ensemble(np.array([[0.0, 0.0], [0.1, 0.0]]))
        drift = model.drift(e.states, e.measure())
        assert np.linalg.norm(drift[0]) * e.n == pytest.approx(0.1 / 0.25)
