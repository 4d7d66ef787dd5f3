import math
import warnings

import numpy as np
import pytest

from meanfield import boltzmann
from meanfield.core import Ensemble, RngStream, TimeGrid
from meanfield.errors import BoundViolation
from meanfield.boltzmann import (
    CellGrid,
    CollisionModel,
    bird_simulate,
    conservation_report,
    exact_simulate,
    hard_sphere_model,
    maxwell_cutoff_model,
    nanbu_simulate,
    probe_model_symmetry,
    wealth_model,
)
from meanfield.metrics import wasserstein_1d


def uniform_deflection(total=1.0):
    return lambda th: np.full_like(np.asarray(th, dtype=float), total / math.pi)


def zero_rate_counting_model():
    """Lambda = 1 proposes events, lam = 0 must reject every one of them;
    an accepted collision would add 1 to both states."""
    return CollisionModel(lam=lambda a, b: 0.0, Lambda=1.0,
                          psi_pair=lambda a, b, t: (a + 1.0, b + 1.0),
                          theta_sampler=lambda rng: None)


def transport_only_model():
    """Kinetic states (x, v) in 1+1 dimensions with zero collision rate."""
    def flow(states, dt):
        out = states.copy()
        out[:, 0] += out[:, 1] * dt
        return out

    return CollisionModel(lam=lambda a, b: 0.0, Lambda=0.0,
                          psi_pair=lambda a, b, t: (a, b),
                          theta_sampler=lambda rng: None, free_flow=flow)


class TestMaxwellModel:
    def test_identical_velocities_are_fixed(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        v = np.array([1.0, 2.0])
        z1, z2 = model.psi_pair(v, v.copy(), (1.0, np.array([1.0])))
        assert np.array_equal(z1, v) and np.array_equal(z2, v)

    def test_right_angle_deflection(self):
        # v = (1,0), v* = (-1,0), sigma = (0,1): v' = (0,1), v*' = (0,-1)
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        z1, z2 = model.psi_pair(np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                (math.pi / 2, np.array([1.0])))
        assert np.allclose(z1, [0.0, 1.0], atol=1e-12)
        assert np.allclose(z2, [0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_collision_invariants_random(self, d):
        model = maxwell_cutoff_model(uniform_deflection(), d=d)
        rng = RngStream(21, d)
        for _ in range(1000 if d == 3 else 100):
            a, b = rng.normal(d), rng.normal(d)
            theta = model.theta_sampler(rng)
            p1, p2 = model.psi_pair(a, b, theta)
            e_in = a @ a + b @ b
            assert abs((p1 @ p1 + p2 @ p2) - e_in) <= 1e-12 * e_in
            assert np.abs((p1 + p2) - (a + b)).max() <= 1e-12 * (1 + np.abs(a + b).max())

    def test_deflection_angle_distribution(self):
        # theta must follow the normalized density; quadratic ramp as a probe
        model = maxwell_cutoff_model(lambda th: th**2, d=2)
        rng = RngStream(22)
        draws = np.array([model.theta_sampler(rng)[0] for _ in range(4000)])
        # inverse-CDF oracle: P(theta <= pi/2) = (1/2)^3
        assert np.mean(draws <= math.pi / 2) == pytest.approx(0.125, abs=0.02)

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="d >= 2"):
            maxwell_cutoff_model(uniform_deflection(), d=1)

    def test_lambda_vanishes_on_diagonal(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        z = np.array([0.3, -0.4])
        assert model.lam(z, z) == 0.0
        assert model.lam(z, z + 1.0) == pytest.approx(1.0)

    def test_symmetry_probe(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=3)
        rng = RngStream(23)
        report = probe_model_symmetry(model, lambda r: r.normal(3), rng, pairs=6, draws=800)
        assert report["lambda_symmetry_gap"] == 0.0
        assert report["lambda_diagonal_max"] == 0.0
        assert report["rate_bound_excess"] <= 0.0
        assert report["post_collision_ks"] < 0.12


class TestHardSphereModel:
    def test_zero_relative_speed_never_collides(self):
        model = hard_sphere_model(10.0, d=2)
        z = np.array([1.0, 1.0])
        assert model.lam(z, z.copy()) == 0.0

    def test_acceptance_factor(self):
        model = hard_sphere_model(10.0, d=2)
        a, b = np.array([3.0, 0.0]), np.array([0.0, 0.0])
        assert model.accept_ratio(a, b, np.array([0.0, 1.0])) == pytest.approx(0.3)

    def test_rate_clipped_at_cap(self):
        model = hard_sphere_model(1.0, d=2)
        assert model.lam(np.array([5.0, 0.0]), np.zeros(2)) == 1.0

    def test_elastic_invariants(self):
        model = hard_sphere_model(5.0, d=3)
        rng = RngStream(24)
        for _ in range(200):
            a, b = rng.normal(3), rng.normal(3)
            p1, p2 = model.psi_pair(a, b, model.theta_sampler(rng))
            assert abs((p1 @ p1 + p2 @ p2) - (a @ a + b @ b)) < 1e-12 * (a @ a + b @ b + 1)


class TestExactSimulate:
    def test_zero_rate_is_pure_free_flow(self):
        model = transport_only_model()
        e0 = Ensemble(np.array([[0.0, 1.0], [1.0, -2.0]]))
        final, log = exact_simulate(model, e0, 3.0, RngStream(25))
        assert log.proposed == 0
        assert np.allclose(final.states[:, 0], [3.0, -5.0])
        assert final.time == pytest.approx(3.0)

    def test_accepted_count_poisson(self):
        # constant lam = Lambda, q = q0: every candidate accepted, mean
        # count Lambda (N-1)/2 over unit time
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        n = 100
        e0 = Ensemble(RngStream(26).normal((n, 2)))
        _, log = exact_simulate(model, e0, 1.0, RngStream(27))
        mean = (n - 1) / 2
        assert abs(log.accepted - mean) <= 3 * math.sqrt(mean)
        assert log.accepted == log.proposed

    def test_conservation_over_run(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=3)
        rng = RngStream(28)
        e0 = Ensemble(rng.normal((500, 3)))
        final, log = exact_simulate(model, e0, 2.0, rng.substream(1))
        report = conservation_report([(0.0, e0.states), (2.0, final.states)])
        assert report.momentum_drift <= 1e-8
        assert report.energy_drift <= 1e-8

    def test_interevent_times_exponential_ks(self):
        # Kolmogorov-Smirnov against Exp(Lambda M (N-1)/2) at level 0.01
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        n = 100
        rate = (n - 1) / 2
        horizon = 10_500 / rate
        e0 = Ensemble(RngStream(29).normal((n, 2)))
        _, log = exact_simulate(model, e0, horizon, RngStream(30))
        times = np.array([e.time for e in log.events])
        gaps = np.diff(np.concatenate([[0.0], times]))[:10_000]
        assert gaps.size == 10_000
        sorted_gaps = np.sort(gaps)
        cdf = 1.0 - np.exp(-rate * sorted_gaps)
        empirical_hi = np.arange(1, gaps.size + 1) / gaps.size
        empirical_lo = np.arange(0, gaps.size) / gaps.size
        d_stat = max(np.abs(empirical_hi - cdf).max(), np.abs(empirical_lo - cdf).max())
        assert d_stat <= 1.628 / math.sqrt(gaps.size)

    def test_bound_violation_detected(self):
        lying = CollisionModel(lam=lambda a, b: 2.0, Lambda=1.0,
                               psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: None)
        with pytest.raises(BoundViolation):
            exact_simulate(lying, Ensemble(np.zeros((4, 1))), 5.0, RngStream(31))

    def test_needs_two_particles(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError):
            exact_simulate(model, Ensemble(np.zeros((1, 2))), 1.0, RngStream(32))

    def test_event_log_cap_downgrades_to_counters(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(33).normal((50, 2)))
        _, log = exact_simulate(model, e0, 5.0, RngStream(34), event_cap=10)
        assert log.truncated
        assert len(log.events) == 10
        assert log.proposed > 10

    def test_event_log_csv(self, tmp_path):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(35).normal((20, 2)))
        _, log = exact_simulate(model, e0, 1.0, RngStream(36))
        path = tmp_path / "events.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,i,j,accepted,dE,dP0,dP1"
        assert len(lines) == 1 + len(log.events)
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == sorted(times)


    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream):
        e0 = Ensemble(np.array([[0.0], [1.0], [2.0]]))
        final, log = exact_simulate(zero_rate_counting_model(), e0, 2.0, zero_uniform_stream(39))
        assert log.proposed > 0 and log.accepted == 0
        assert np.array_equal(final.states, e0.states)

    def test_free_flow_runs_between_proposals(self):
        # lam = 0 rejects every proposal; the uniform translation still runs between them
        model = CollisionModel(lam=lambda a, b: 0.0, Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: None, free_flow=lambda s, dt: s + dt)
        e0 = Ensemble(RngStream(40).normal((5, 2)))
        final, log = exact_simulate(model, e0, 3.0, RngStream(41))
        assert log.proposed > 0 and log.accepted == 0
        assert np.allclose(final.states, e0.states + 3.0)
        assert final.time == pytest.approx(3.0)

    def test_collisions_on_velocities_with_transport_of_positions(self):
        # states (x, v) in R^2 x R^2: Maxwell collisions act on v, the flow moves x by v dt
        maxwell = maxwell_cutoff_model(uniform_deflection(), d=2)

        def psi_pair(z1, z2, theta):
            v1, v2 = maxwell.psi_pair(z1[2:], z2[2:], theta)
            return np.concatenate([z1[:2], v1]), np.concatenate([z2[:2], v2])

        def flow(states, dt):
            out = states.copy()
            out[:, :2] += states[:, 2:] * dt
            return out

        model = CollisionModel(lam=lambda a, b: maxwell.lam(a[2:], b[2:]), Lambda=maxwell.Lambda,
                               psi_pair=psi_pair, theta_sampler=maxwell.theta_sampler, free_flow=flow)
        rng = RngStream(42)
        e0 = Ensemble(rng.normal((50, 4)))
        final, log = exact_simulate(model, e0, 1.0, rng.substream(1))
        assert log.accepted > 0
        report = conservation_report([(0.0, e0.states), (1.0, final.states)],
                                     velocity=lambda s: s[:, 2:])
        assert report.max_drift() <= 1e-8
        assert not np.allclose(final.states[:, :2], e0.states[:, :2])
        assert not np.allclose(final.states[:, 2:], e0.states[:, 2:])


class TestBirdSimulate:
    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream, monkeypatch):
        # an accepted zero-rate event would divide by lam = 0 in the counter
        monkeypatch.setattr(boltzmann, "_REJECTION_STALL_FACTOR", 20)
        e0 = Ensemble(np.array([[0.0], [1.0], [2.0]]))
        with pytest.warns(UserWarning, match="consecutive fictitious"):
            final, log = bird_simulate(zero_rate_counting_model(), CellGrid.single_cell(), e0,
                                       TimeGrid(0, 1, 0.5), zero_uniform_stream(40))
        assert log.proposed == 40 and log.accepted == 0
        assert np.array_equal(final.states, e0.states)

    def test_zero_rate_pure_transport(self):
        model = transport_only_model()
        e0 = Ensemble(np.array([[0.0, 1.0], [2.0, 0.5]]))
        final, log = bird_simulate(model, CellGrid.single_cell(), e0,
                                   TimeGrid(0, 2, 0.5), RngStream(37))
        assert log.proposed == 0
        assert np.allclose(final.states[:, 0], [2.0, 3.0])

    def test_two_particle_counter_rate(self):
        # N_G = 2, lam = 1, N = 2, delta = 1, one step of length 10:
        # counter rate is 1/2 per unit time, so about 5 accepted events
        flat = CollisionModel(lam=lambda a, b: 1.0, Lambda=1.0,
                              psi_pair=lambda a, b, t: (a, b),
                              theta_sampler=lambda rng: None)
        e0 = Ensemble(np.array([[0.0], [1.0]]))
        _, log = bird_simulate(flat, CellGrid.single_cell(), e0, TimeGrid(0, 10, 10), RngStream(38))
        assert abs(log.accepted - 5) <= 3 * math.sqrt(5)

    def test_single_cell_matches_exact_in_distribution(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        n = 500
        cross, self_dist = [], []
        for k in range(3):
            s = RngStream(39, k)
            init = s.substream(0).normal((n, 2))
            exact_a, _ = exact_simulate(model, Ensemble(init), 1.0, s.substream(1))
            bird_b, _ = bird_simulate(model, CellGrid.single_cell(), Ensemble(init),
                                      TimeGrid(0, 1, 0.1), s.substream(2))
            exact_c, _ = exact_simulate(model, Ensemble(init), 1.0, s.substream(3))
            exact_d, _ = exact_simulate(model, Ensemble(init), 1.0, s.substream(4))
            cross.append(wasserstein_1d(exact_a.states[:, 0], bird_b.states[:, 0]))
            self_dist.append(wasserstein_1d(exact_c.states[:, 0], exact_d.states[:, 0]))
        assert np.mean(cross) <= 3.0 * np.mean(self_dist)

    def test_particles_collide_only_within_cells(self):
        # two spatial clusters in separate cells must never mix
        def flow(states, dt):
            return states  # static positions

        def psi1(a, b, t):
            out = a.copy()
            out[1] += 1.0  # velocity marker counts collisions
            return out

        def psi2(a, b, t):
            out = b.copy()
            out[1] += 1.0
            return out

        model = CollisionModel(lam=lambda a, b: 1.0, Lambda=1.0,
                               psi_pair=lambda a, b, t: (psi1(a, b, t), psi2(a, b, t)),
                               theta_sampler=lambda rng: None, free_flow=flow)
        grid = CellGrid(lo=np.array([0.0]), hi=np.array([2.0]), delta=1.0,
                        position=lambda states: states[:, :1])
        states = np.array([[0.2, 0.0], [0.4, 0.0], [1.6, 0.0], [1.8, 0.0]])
        _, log = bird_simulate(model, grid, Ensemble(states), TimeGrid(0, 4, 1.0), RngStream(40))
        left, right = {0, 1}, {2, 3}
        for event in log.events:
            assert {event.i, event.j} <= left or {event.i, event.j} <= right

    def test_single_particle_cell_skipped(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(41).normal((1, 2)) + 10.0)
        # single cell but only one particle: no events, no error
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), RngStream(42))
        assert log.proposed == 0

    def test_event_log_csv_times_parse(self, tmp_path):
        # Bird's event times come off the numpy time grid; the CSV must
        # still hold plain numbers, not np.float64(...)
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(43).normal((20, 2)))
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 0.3, 0.1), RngStream(44))
        path = tmp_path / "events.csv"
        log.write_csv(path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == len(log.events) > 0
        assert [float(row.split(",")[0]) for row in rows] == [e.time for e in log.events]


class TestNanbu:
    def test_zero_rate_identity(self):
        model = CollisionModel(lam=lambda a, b: 0.0, Lambda=0.0,
                               psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: None)
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        final = nanbu_simulate(model, e0, 0.1, 10, RngStream(43))
        assert np.array_equal(final.states, e0.states)

    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream):
        # a zero uniform also makes every particle a collision candidate
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        final = nanbu_simulate(zero_rate_counting_model(), e0, 0.1, 10, zero_uniform_stream(43))
        assert np.array_equal(final.states, e0.states)

    def test_collision_rate_per_particle(self):
        # psi_pair's first state increments a counter coordinate: after T = 1
        # at unit rate the mean count per particle approaches Lambda = 1
        # (Bernoulli -> Poisson)
        model = CollisionModel(lam=lambda a, b: 1.0, Lambda=1.0,
                               psi_pair=lambda a, b, t: (a + 1.0, b),
                               theta_sampler=lambda rng: None)
        n = 2000
        final = nanbu_simulate(model, Ensemble(np.zeros(n)), 0.01, 100, RngStream(44))
        mean_events = final.states.mean()
        assert abs(mean_events - 1.0) <= 3.0 / math.sqrt(n)

    def test_momentum_preserved_in_expectation(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        drifts = []
        for k in range(50):
            rng = RngStream(45, k)
            e0 = Ensemble(rng.substream(0).normal((100, 2)))
            final = nanbu_simulate(model, e0, 0.02, 50, rng.substream(1))
            drifts.append(final.states.mean(axis=0) - e0.states.mean(axis=0))
        drifts = np.asarray(drifts)
        sem = drifts.std(axis=0) / math.sqrt(len(drifts))
        assert np.all(np.abs(drifts.mean(axis=0)) <= 4 * sem + 1e-12)

    def test_probability_clipping_warns(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(46).normal((10, 2)))
        with pytest.warns(UserWarning, match="clipped"):
            nanbu_simulate(model, e0, 1.5, 1, RngStream(47))


class TestSemiParametric:
    def test_accept_ratio_applies_q_over_m_q0(self):
        model = CollisionModel(lam=lambda a, b: 0.5, Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: 0.25,
                               q=lambda a, b, t: 4.0 * t, q0=lambda t: 0.8, M=1.25)
        # 0.5 * (4 * 0.25) / (1.25 * 0.8) = 0.5
        assert model.accept_ratio(np.zeros(1), np.ones(1), 0.25) == pytest.approx(0.5)
        assert model.accept_ratio(np.zeros(1), np.ones(1), 0.125) == pytest.approx(0.25)

    def test_accept_ratio_without_q_divides_by_m(self):
        model = CollisionModel(lam=lambda a, b: 0.6, Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: None, M=2.0)
        assert model.accept_ratio(np.zeros(1), np.ones(1), None) == pytest.approx(0.3)

    @pytest.mark.parametrize("simulate", [
        lambda m, e0, rng: exact_simulate(m, e0, 5.0, rng),
        lambda m, e0, rng: bird_simulate(m, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), rng),
        lambda m, e0, rng: nanbu_simulate(m, e0, 0.5, 2, rng),
    ], ids=["exact", "bird", "nanbu"])
    def test_q_above_m_q0_is_a_bound_violation(self, simulate):
        # q = 3 > M q0 = 2: the acceptance ratio is 1.5
        model = CollisionModel(lam=lambda a, b: 1.0, Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng: None,
                               q=lambda a, b, t: 3.0, q0=lambda t: 1.0, M=2.0)
        with pytest.raises(BoundViolation, match="does not bound"):
            simulate(model, Ensemble(np.arange(4.0)), RngStream(53))


class TestProposalStep:
    def counting_model(self):
        calls = []

        def lam(a, b):
            calls.append(1)
            return 0.5

        model = CollisionModel(lam=lam, Lambda=1.0, psi_pair=lambda a, b, t: (a + 1.0, b + 1.0),
                               theta_sampler=lambda rng: None)
        return model, calls

    def test_one_rate_evaluation_per_proposal(self):
        e0 = Ensemble(np.arange(6.0))
        model, calls = self.counting_model()
        _, log = exact_simulate(model, e0, 2.0, RngStream(54))
        assert len(calls) == log.proposed > 0
        model, calls = self.counting_model()
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), RngStream(55))
        assert len(calls) == log.proposed > log.accepted > 0

    def test_nanbu_needs_two_particles(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError, match="need at least two particles"):
            nanbu_simulate(model, Ensemble(np.zeros((1, 2))), 0.5, 1, RngStream(56))


class TestWealthModel:
    def test_deterministic_half_split(self):
        model = wealth_model(lambda rng: (0.5, 0.5, 0.5, 0.5))
        theta = (0.5, 0.5, 0.5, 0.5)
        z1, z2 = model.psi_pair(np.array([1.0]), np.array([3.0]), theta)
        assert z1[0] == pytest.approx(2.0) and z2[0] == pytest.approx(2.0)

    def test_equal_wealth_preserved_when_shares_sum_to_one(self):
        model = wealth_model(lambda rng: (0.3, 0.7, 0.6, 0.4))
        z1, z2 = model.psi_pair(np.array([5.0]), np.array([5.0]), (0.3, 0.7, 0.6, 0.4))
        assert z1[0] == pytest.approx(5.0) and z2[0] == pytest.approx(5.0)

    def test_mean_wealth_conserved_in_expectation(self):
        def sampler(rng):
            u, v = rng.uniform(), rng.uniform()
            return (u, 1 - u, v, 1 - v)

        drifts = []
        for k in range(100):
            rng = RngStream(48, k)
            model = wealth_model(sampler)
            e0 = Ensemble(np.abs(rng.substream(0).normal(50)) + 1.0)
            final, _ = exact_simulate(model, e0, 5.0, rng.substream(1))
            drifts.append(final.states.mean() - e0.states.mean())
        drifts = np.asarray(drifts)
        sem = drifts.std() / math.sqrt(len(drifts))
        assert abs(drifts.mean()) <= 4 * sem

    def test_negative_coefficient_voids_trade(self):
        model = wealth_model(lambda rng: (-0.1, 1.1, 0.5, 0.5))
        e0 = Ensemble(np.array([1.0, 3.0]))
        with pytest.warns(UserWarning, match="event filter"):
            final, log = exact_simulate(model, e0, 5.0, RngStream(49))
        assert log.accepted == 0
        assert np.array_equal(np.sort(final.states.ravel()), [1.0, 3.0])


class TestConservationReport:
    def test_zero_event_run_has_zero_drift(self):
        states = RngStream(50).normal((10, 2))
        report = conservation_report([(0.0, states), (1.0, states.copy())])
        assert report.momentum_drift == 0.0
        assert report.energy_drift == 0.0

    def test_nanbu_energy_drift_reported(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        rng = RngStream(51)
        e0 = Ensemble(rng.substream(0).normal((200, 2)))
        final = nanbu_simulate(model, e0, 0.02, 50, rng.substream(1))
        report = conservation_report([(0.0, e0.states), (1.0, final.states)])
        assert math.isfinite(report.energy_drift)  # reported, not asserted small

    def test_velocity_extractor(self):
        states = np.array([[5.0, 1.0], [7.0, -1.0]])
        moved = states.copy()
        moved[:, 0] += 10.0  # positions change, velocities conserved
        report = conservation_report([(0.0, states), (1.0, moved)],
                                     velocity=lambda s: s[:, 1:])
        assert report.momentum_drift == 0.0


class TestMaxwellEquilibrium:
    def test_long_time_velocity_marginal_near_gaussian(self):
        # relaxation toward the gaussian equilibrium: excess kurtosis of a
        # 1-D marginal close to 0 after ~30 collisions per particle
        model = maxwell_cutoff_model(uniform_deflection(total=3.0), d=3)
        rng = RngStream(52)
        v0 = rng.substream(0).uniform((5000, 3)) * 2.0 - 1.0
        final, _ = exact_simulate(model, Ensemble(v0), 10.0, rng.substream(1))
        x = final.states[:, 0]
        excess = float(np.mean((x - x.mean()) ** 4) / np.var(x) ** 2 - 3.0)
        assert abs(excess) <= 0.15


class TestCellGrid:
    def test_positions_map_to_unique_cells(self):
        grid = CellGrid(lo=np.zeros(2), hi=np.array([2.0, 2.0]), delta=1.0,
                        position=lambda s: s)
        cells = grid.assign(np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]]))
        assert len(np.unique(cells)) == 4
        assert grid.cell_volume() == pytest.approx(1.0)

    def test_out_of_box_clips_to_boundary(self):
        grid = CellGrid(lo=np.zeros(1), hi=np.array([1.0]), delta=0.5,
                        position=lambda s: s)
        cells = grid.assign(np.array([[-5.0], [5.0]]))
        assert cells[0] == 0 and cells[1] == 1

    def test_single_cell(self):
        grid = CellGrid.single_cell()
        assert np.all(grid.assign(np.ones((7, 3))) == 0)
        assert grid.cell_volume() == 1.0


# ---------------------------------------------------------------------------
# The dense formulas the collision geometry was first written as. The kernels
# do the same floating-point operations with fewer temporaries and calls, so
# seeded runs depend on them matching bit for bit.


def dense_scattering_direction(rel_velocity, deflection, azimuth):
    d = rel_velocity.shape[0]
    norm = np.linalg.norm(rel_velocity)
    axis = rel_velocity / norm if norm > 0 else np.eye(d)[0]
    pole = np.empty(d)
    pole[0] = math.cos(deflection)
    pole[1:] = math.sin(deflection) * azimuth
    u = np.zeros(d)
    u[0] = 1.0
    u -= axis
    nrm2 = u @ u
    if nrm2 < 1e-24:
        return pole
    return pole - (2.0 * (u @ pole) / nrm2) * u


def dense_elastic_pair(v, v_star, sigma_dir):
    mid = (v + v_star) / 2.0
    half = np.linalg.norm(v - v_star) / 2.0
    return mid + half * sigma_dir, mid - half * sigma_dir


def dense_maxwell_psi_pair(z1, z2, theta):
    if np.array_equal(z1, z2):
        return z1.copy(), z2.copy()
    return dense_elastic_pair(z1, z2, dense_scattering_direction(z1 - z2, *theta))


def same_bits(a, b):
    """Equal dtype, shape and bit pattern; unlike np.array_equal, 0.0 and
    -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def edge_pairs(d, rng, count=300):
    """Random pairs, then equal states (with both zero signs), a relative
    velocity along the pole, a zero relative-velocity component, and
    differences near 1e-170, whose squares underflow to zero."""
    pairs = [(rng.normal(d), rng.normal(d)) for _ in range(count)]
    z = rng.normal(d)
    along = np.zeros(d)
    along[0] = 1.5
    zero_last = rng.normal(d)
    zero_last[-1] = 0.0
    pairs += [(z, z.copy()), (np.zeros(d), -np.zeros(d)), (z + along, z), (z - along, z),
              (zero_last, np.zeros(d)), (np.zeros(d), zero_last),
              (np.full(d, 3e-170), np.full(d, 1e-170)), (np.full(d, 1e-170), np.zeros(d))]
    return pairs


def fixed_thetas(d):
    """Deflections 0, pi/2 and pi, with azimuths holding a negative and a
    zero component."""
    azimuths = [np.array([-1.0])] if d == 2 else [np.array([0.6, -0.8]), np.array([0.0, 1.0])]
    return [(deflection, az) for deflection in (0.0, math.pi / 2, math.pi) for az in azimuths]


class FixedUniforms:
    """Stands in for an RngStream: ``uniform()`` returns the given values in
    turn and ``normal(k)`` a fixed vector."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self):
        return next(self.values)

    def normal(self, k):
        return np.ones(k)


def deflection_cdf(density):
    """The trapezoid CDF table that maxwell_cutoff_model inverts."""
    angles = np.linspace(0.0, math.pi, 4096)
    dens = np.broadcast_to(np.asarray(density(angles), dtype=float), angles.shape)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(angles))])
    return cdf / cdf[-1], angles


class TestGeometryMatchesDenseFormulas:
    @pytest.mark.parametrize("d", [2, 3])
    def test_maxwell_lam_and_psi_pair(self, d):
        model = maxwell_cutoff_model(uniform_deflection(2.0), d=d)
        rng = RngStream(91, d)
        for z1, z2 in edge_pairs(d, rng):
            assert same_bits(model.lam(z1, z2), 0.0 if np.array_equal(z1, z2) else model.Lambda)
            for theta in [model.theta_sampler(rng), *fixed_thetas(d)]:
                for got, want in zip(model.psi_pair(z1, z2, theta), dense_maxwell_psi_pair(z1, z2, theta)):
                    assert same_bits(got, want), (z1, z2, theta)
                assert same_bits(boltzmann.scattering_direction(z1 - z2, *theta),
                                 dense_scattering_direction(z1 - z2, *theta))

    @pytest.mark.parametrize("density", [
        uniform_deflection(),
        lambda th: np.where((th > 1.0) & (th < 2.0), 0.0, 1.0),
        lambda th: np.exp(-50.0 * (th - 1.0) ** 2),
    ], ids=["flat", "zero-interval", "peaked"])
    def test_maxwell_deflection_is_np_interp(self, density):
        # the sampler inverts the CDF on Python floats; np.interp is its dense formula
        model = maxwell_cutoff_model(density, d=3)
        cdf, angles = deflection_cdf(density)
        us = np.concatenate([RngStream(96).uniform(100_000), cdf, [0.0, np.nextafter(1.0, 0.0)]])
        got = [model.theta_sampler(rng)[0] for rng in map(FixedUniforms, zip(us.tolist()))]
        assert same_bits(np.array(got), np.interp(us, cdf, angles))

    def test_hard_sphere_lam_and_psi_pair(self):
        model = hard_sphere_model(2.0, d=3)
        rng = RngStream(92)
        for z1, z2 in edge_pairs(3, rng):
            assert same_bits(model.lam(z1, z2), min(float(np.linalg.norm(z1 - z2)), 2.0))
            sigma = model.theta_sampler(rng)
            for got, want in zip(model.psi_pair(z1, z2, sigma), dense_elastic_pair(z1, z2, sigma)):
                assert same_bits(got, want)

    def test_wealth_lam_and_psi_pair(self):
        model = wealth_model(lambda rng: rng.uniform(4))
        rng = RngStream(93)
        for z1, z2 in edge_pairs(1, rng):
            assert same_bits(model.lam(z1, z2), 0.0 if np.array_equal(z1, z2) else 1.0)
            L, R, Lt, Rt = theta = model.theta_sampler(rng)
            for got, want in zip(model.psi_pair(z1, z2, theta), (L * z1 + R * z2, Lt * z2 + Rt * z1)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("k", [2, 3])
    def test_uniform_direction(self, k):
        for seed in range(50):
            g = RngStream(94, seed).normal(k)
            assert same_bits(boltzmann._uniform_direction(k, RngStream(94, seed)), g / np.linalg.norm(g))

    def test_collide_deltas(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        rng = RngStream(95)
        states = rng.normal((40, 2))
        for _ in range(300):
            i, j = boltzmann._draw_pair(rng, 40)
            z1, z2 = states[i].copy(), states[j].copy()
            event = boltzmann._collide(model, states, i, j, model.theta_sampler(rng), True, 0.0)
            z1p, z2p = states[i], states[j]
            assert same_bits(event.de, float(z1p @ z1p + z2p @ z2p - z1 @ z1 - z2 @ z2))
            assert same_bits(event.dp, (z1p + z2p) - (z1 + z2))
