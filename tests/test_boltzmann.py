import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanfield import boltzmann, core
from meanfield.core import Ensemble, RngStream, TimeGrid
from meanfield.errors import BoundViolation
from meanfield.boltzmann import (
    CellGrid,
    CollisionModel,
    bird_simulate,
    conservation_report,
    exact_batch,
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


def no_theta(rng, k):
    """theta_sampler of a model without collision parameters: (k, 0) rows."""
    return np.empty((k, 0))


def constant_rate(value):
    return lambda a, b: np.full(len(a), value)


# a NaN or negative lam gives no acceptance probability: every engine must refuse it by name
IMPROPER_RATES = pytest.mark.parametrize("rate", [math.nan, -1.0], ids=["nan", "negative"])


def improper_rate_model(rate):
    return CollisionModel(lam=constant_rate(rate), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                          theta_sampler=no_theta)


def zero_rate_counting_model():
    """Lambda = 1 proposes events, lam = 0 must reject every one of them;
    an accepted collision would add 1 to both states."""
    return CollisionModel(lam=constant_rate(0.0), Lambda=1.0,
                          psi_pair=lambda a, b, t: (a + 1.0, b + 1.0), theta_sampler=no_theta)


def transport_only_model():
    """Kinetic states (x, v) in 1+1 dimensions with zero collision rate."""
    def flow(states, dt):
        out = states.copy()
        out[:, 0] += out[:, 1] * dt
        return out

    return CollisionModel(lam=constant_rate(0.0), Lambda=0.0, psi_pair=lambda a, b, t: (a, b),
                          theta_sampler=no_theta, free_flow=flow)


def kinetic_maxwell_model():
    """States (x, v) in R^2 x R^2: Maxwell collisions act on v, the flow moves x by v dt."""
    maxwell = maxwell_cutoff_model(uniform_deflection(), d=2)

    def psi_pair(z1, z2, theta):
        v1, v2 = maxwell.psi_pair(z1[:, 2:], z2[:, 2:], theta)
        return np.concatenate([z1[:, :2], v1], axis=1), np.concatenate([z2[:, :2], v2], axis=1)

    def flow(states, dt):
        out = states.copy()
        out[:, :2] += states[:, 2:] * dt
        return out

    return CollisionModel(lam=lambda a, b: maxwell.lam(a[:, 2:], b[:, 2:]), Lambda=maxwell.Lambda,
                          psi_pair=psi_pair, theta_sampler=maxwell.theta_sampler, free_flow=flow)


class TestCollisionModel:
    @pytest.mark.parametrize("field, value", [(field, value) for field in ("Lambda", "M")
                                              for value in (math.nan, math.inf, -1.0)] + [("M", 0.0)])
    def test_rate_bounds_must_be_finite_and_in_range(self, field, value):
        # Lambda = 0 is a model that never collides; M = 0 would divide the acceptance ratio by zero
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            CollisionModel(lam=constant_rate(1.0), psi_pair=lambda a, b, t: (a, b), theta_sampler=no_theta,
                           **{"Lambda": 1.0, field: value})

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -1.0, 0.0])
    def test_hard_sphere_cap_must_be_finite_and_positive(self, cap):
        with pytest.raises(ValueError, match="Lambda_cap must be finite and positive"):
            hard_sphere_model(cap)


class TestMaxwellModel:
    def test_identical_velocities_are_fixed(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        v = np.array([[1.0, 2.0]])
        z1, z2 = model.psi_pair(v, v.copy(), np.array([[1.0, 1.0]]))
        assert np.array_equal(z1, v) and np.array_equal(z2, v)

    def test_right_angle_deflection(self):
        # v = (1,0), v* = (-1,0), sigma = (0,1): v' = (0,1), v*' = (0,-1)
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        z1, z2 = model.psi_pair(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]),
                                np.array([[math.pi / 2, 1.0]]))
        assert np.allclose(z1, [[0.0, 1.0]], atol=1e-12)
        assert np.allclose(z2, [[0.0, -1.0]], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_collision_invariants_random(self, d):
        model = maxwell_cutoff_model(uniform_deflection(), d=d)
        rng = RngStream(21, d)
        k = 1000 if d == 3 else 100
        a, b = rng.normal((k, d)), rng.normal((k, d))
        p1, p2 = model.psi_pair(a, b, model.theta_sampler(rng, k))
        e_in = (a * a + b * b).sum(axis=1)
        assert np.all(np.abs((p1 * p1 + p2 * p2).sum(axis=1) - e_in) <= 1e-12 * e_in)
        scale = 1 + np.abs(a + b).max(axis=1)
        assert np.all(np.abs((p1 + p2) - (a + b)).max(axis=1) <= 1e-12 * scale)

    def test_deflection_angle_distribution(self):
        # theta must follow the normalized density; quadratic ramp as a probe
        model = maxwell_cutoff_model(lambda th: th**2, d=2)
        draws = model.theta_sampler(RngStream(22), 4000)[:, 0]
        # inverse-CDF oracle: P(theta <= pi/2) = (1/2)^3
        assert np.mean(draws <= math.pi / 2) == pytest.approx(0.125, abs=0.02)

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="d >= 2"):
            maxwell_cutoff_model(uniform_deflection(), d=1)

    def test_lambda_vanishes_on_diagonal(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        z = np.array([[0.3, -0.4]])
        assert model.lam(z, z).tolist() == [0.0]
        assert model.lam(z, z + 1.0) == pytest.approx([1.0])

    def test_symmetry_probe(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=3)
        rng = RngStream(23)
        report = probe_model_symmetry(model, lambda r, k: r.normal((k, 3)), rng, pairs=6, draws=800)
        assert report["lambda_symmetry_gap"] == 0.0
        assert report["lambda_diagonal_max"] == 0.0
        assert report["rate_bound_excess"] <= 0.0
        assert report["post_collision_ks"] < 0.12


class TestHardSphereModel:
    def test_zero_relative_speed_never_collides(self):
        model = hard_sphere_model(10.0, d=2)
        z = np.array([[1.0, 1.0]])
        assert model.lam(z, z.copy()).tolist() == [0.0]

    def test_acceptance_factor(self):
        model = hard_sphere_model(10.0, d=2)
        a, b = np.array([[3.0, 0.0]]), np.array([[0.0, 0.0]])
        assert model.accept_ratio(a, b, np.array([[0.0, 1.0]])) == pytest.approx([0.3])

    def test_rate_clipped_at_cap(self):
        model = hard_sphere_model(1.0, d=2)
        assert model.lam(np.array([[5.0, 0.0]]), np.zeros((1, 2))).tolist() == [1.0]

    def test_elastic_invariants(self):
        model = hard_sphere_model(5.0, d=3)
        rng = RngStream(24)
        a, b = rng.normal((200, 3)), rng.normal((200, 3))
        p1, p2 = model.psi_pair(a, b, model.theta_sampler(rng, 200))
        e_in = (a * a + b * b).sum(axis=1)
        assert np.all(np.abs((p1 * p1 + p2 * p2).sum(axis=1) - e_in) < 1e-12 * (e_in + 1))


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
        lying = CollisionModel(lam=constant_rate(2.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta)
        with pytest.raises(BoundViolation):
            exact_simulate(lying, Ensemble(np.zeros((4, 1))), 5.0, RngStream(31))

    @IMPROPER_RATES
    def test_a_nan_or_negative_rate_is_a_bound_violation(self, rate):
        with pytest.raises(BoundViolation, match=f"^acceptance ratio {rate:g} is not a probability"):
            exact_simulate(improper_rate_model(rate), Ensemble(np.zeros((20, 1))), 1.0, RngStream(31))

    def test_bound_violation_names_the_first_breaking_proposal(self, monkeypatch):
        # accepted collisions raise the states and lam grows with them, so only some rows break
        # the bound, at several levels of a block; the error must name the first row in proposal
        # order, as taking the proposals one at a time does
        model = CollisionModel(lam=lambda a, b: 0.5 + 0.05 * (a + b)[:, 0], Lambda=1.0,
                               psi_pair=lambda a, b, t: (a + b + 1.0, a + b + 1.0), theta_sampler=no_theta)
        e0 = Ensemble(RngStream(70).uniform(50))
        messages = []
        for block in (core._BLOCK, 1):
            monkeypatch.setattr(core, "_BLOCK", block)
            with pytest.raises(BoundViolation) as caught:
                exact_simulate(model, e0, 3.0, RngStream(70))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_needs_two_particles(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError):
            exact_simulate(model, Ensemble(np.zeros((1, 2))), 1.0, RngStream(32))

    @pytest.mark.parametrize("make, d", [
        (lambda: hard_sphere_model(1.5, d=3), 3),
        (lambda: maxwell_cutoff_model(uniform_deflection(), d=4), 4),
    ], ids=["hard-sphere-3", "maxwell-4"])
    @pytest.mark.parametrize("engine", ["exact", "nanbu"])
    def test_a_draw_of_no_rows(self, make, d, engine):
        # two particles expect 0.0075 exact rings over T = 0.01, and Nanbu hits at most 1.5% of them
        # per step, so the engines draw thetas for no rows: directions on a sphere of dimension 3 or
        # more must come as (0, d)
        e0 = Ensemble(RngStream(33).normal((2, d)))
        if engine == "exact":
            final, log = exact_simulate(make(), e0, 0.01, RngStream(34))
            assert log.proposed == 0 and same_bits(final.states, e0.states)
        else:
            assert nanbu_simulate(make(), e0, 0.01, 3, RngStream(34)).time == pytest.approx(0.03)

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
        assert lines[0] == "time,i,j,accepted"
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
        model = CollisionModel(lam=constant_rate(0.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta, free_flow=lambda s, dt: s + dt)
        e0 = Ensemble(RngStream(40).normal((5, 2)))
        final, log = exact_simulate(model, e0, 3.0, RngStream(41))
        assert log.proposed > 0 and log.accepted == 0
        assert np.allclose(final.states, e0.states + 3.0)
        assert final.time == pytest.approx(3.0)

    def test_collisions_on_velocities_with_transport_of_positions(self):
        model = kinetic_maxwell_model()
        rng = RngStream(42)
        e0 = Ensemble(rng.normal((50, 4)))
        final, log = exact_simulate(model, e0, 1.0, rng.substream(1))
        assert log.accepted > 0
        report = conservation_report([(0.0, e0.states), (1.0, final.states)],
                                     velocity=lambda s: s[:, 2:])
        assert report.max_drift() <= 1e-8
        assert not np.allclose(final.states[:, :2], e0.states[:, :2])
        assert not np.allclose(final.states[:, 2:], e0.states[:, 2:])


def assert_expected_count(accepted, expected, cells):
    """Bird's accepted count within the Poisson band of its expectation, plus the one collision
    that each cell keeps or drops at the end of the run."""
    assert abs(accepted - expected) <= 3.0 * math.sqrt(expected) + cells, (accepted, expected)


class TestBirdSimulate:
    def test_an_infinite_proposal_count_is_refused(self, no_draw_stream):
        # the one cell of N = 10 particles expects Lambda (N - 1) / 2 (t_end - t0) proposals: inf, before any draw
        model = CollisionModel(lam=constant_rate(1e308), Lambda=1e308, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta)
        with pytest.raises(ValueError, match=r"^the expected proposal count Lambda M \(N - 1\) / 2 / cell volume "
                                             r"\* \(t_end - t0\) is inf$"):
            bird_simulate(model, CellGrid.single_cell(), Ensemble(np.zeros((10, 1))), TimeGrid(0, 1, 0.5),
                          no_draw_stream(89))

    @IMPROPER_RATES
    def test_a_nan_or_negative_rate_is_a_bound_violation(self, rate):
        # refused before the cell could stall on rejections
        with pytest.raises(BoundViolation, match=f"^acceptance ratio {rate:g} is not a probability"):
            bird_simulate(improper_rate_model(rate), CellGrid.single_cell(), Ensemble(np.zeros((20, 1))),
                          TimeGrid(0, 1, 0.5), RngStream(39))

    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream, monkeypatch):
        # an accepted zero-rate event would divide by lam = 0 in the counter
        monkeypatch.setattr(boltzmann, "_REJECTION_STALL_FACTOR", 20)
        e0 = Ensemble(np.array([[0.0], [1.0], [2.0]]))
        with pytest.warns(UserWarning, match="consecutive fictitious"):
            final, log = bird_simulate(zero_rate_counting_model(), CellGrid.single_cell(), e0,
                                       TimeGrid(0, 1, 0.5), zero_uniform_stream(40))
        # one cell without a free flow runs its two steps as one counter run, which stalls once
        assert log.proposed == 20 and log.accepted == 0
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
        flat = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                              theta_sampler=no_theta)
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
        def psi_pair(a, b, t):
            a, b = a.copy(), b.copy()
            a[:, 1] += 1.0  # velocity markers count collisions
            b[:, 1] += 1.0
            return a, b

        model = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=psi_pair,
                               theta_sampler=no_theta, free_flow=lambda states, dt: states)
        grid = CellGrid(lo=np.array([0.0]), hi=np.array([2.0]), delta=1.0,
                        position=lambda states: states[:, :1])
        states = np.array([[0.2, 0.0], [0.4, 0.0], [1.6, 0.0], [1.8, 0.0]])
        _, log = bird_simulate(model, grid, Ensemble(states), TimeGrid(0, 4, 1.0), RngStream(40))
        left, right = {0, 1}, {2, 3}
        for event in log.events:
            assert {event.i, event.j} <= left or {event.i, event.j} <= right

    @pytest.mark.parametrize("dt", [0.1, 0.02, 0.005])
    @pytest.mark.parametrize("n", [20, 50, 400])
    def test_one_cell_collides_at_the_expected_rate_at_every_step(self, n, dt):
        # Maxwell molecules accept every proposal, so the counter moves by 2 / (N - 1) per collision
        # and one run over [0, 1] applies floor(E) or floor(E) + 1 of the E = (N - 1) / 2 collisions
        # expected; a counter restarted at each step would apply about E dt + 1 per step instead
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(47, n).normal((n, 2)))
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0.0, 1.0, dt), RngStream(48))
        assert_expected_count(log.accepted, model.Lambda * (n - 1) / 2.0, cells=1)

    @pytest.mark.parametrize("n", [20, 50])
    def test_the_mean_count_of_one_cell_is_its_expectation(self, n):
        # the collision that takes the counter past the end is kept with probability 1/2 here, so the
        # count is floor(E) + Bernoulli(1/2) with mean E = (N - 1) / 2; applying it always reads E + 1/2
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(47, n).normal((n, 2)))
        counts = np.array([bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0.0, 1.0, 0.1),
                                         RngStream(51, seed))[1].accepted for seed in range(400)])
        expected = (n - 1) / 2.0
        assert abs(counts.mean() - expected) <= 3.0 * counts.std(ddof=1) / math.sqrt(len(counts)), counts.mean()

    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_a_grid_of_cells_collides_at_the_expected_rate_at_every_step(self, dt):
        # 2000 particles in 100 cells of side 0.01 at unit rate, none moving: each cell expects
        # N_G (N_G - 1) / (2 N delta) collisions over T = 1, about 10, whatever the step
        model = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta)
        grid = CellGrid(lo=np.array([0.0]), hi=np.array([1.0]), delta=0.01, position=lambda s: s[:, :1])
        e0 = Ensemble(RngStream(49).uniform((2000, 1)))
        counts = np.bincount(grid.assign(e0.states))
        expected = float((counts * (counts - 1)).sum()) / (2.0 * e0.n * grid.cell_volume())
        _, log = bird_simulate(model, grid, e0, TimeGrid(0.0, 1.0, dt), RngStream(50))
        assert_expected_count(log.accepted, expected, cells=np.count_nonzero(counts >= 2))

    def test_ensemble_time_must_be_the_grid_start(self):
        # a run from an ensemble at 5.0 on a grid from 0 used to end at 1.0, its log starting at 0
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(45).normal((20, 2)), time=5.0)
        with pytest.raises(ValueError, match=r"ensemble is at time 5\.0 but the time grid starts at 0\.0"):
            bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0.0, 1.0, 0.5), RngStream(46))
        final, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(5.0, 6.0, 0.5), RngStream(46))
        times = log.columns()[0]
        assert final.time == 6.0 and 5.0 <= times.min() <= times.max() <= 6.0 and log.accepted > 0

    def test_single_particle_cell_skipped(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(41).normal((1, 2)) + 10.0)
        # single cell but only one particle: no events, no error
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), RngStream(42))
        assert log.proposed == 0

    def test_event_log_csv_times_parse(self, tmp_path):
        # the CSV must hold plain numbers, not np.float64(...)
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
        model = CollisionModel(lam=constant_rate(0.0), Lambda=0.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta)
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        final = nanbu_simulate(model, e0, 0.1, 10, RngStream(43))
        assert np.array_equal(final.states, e0.states)

    @IMPROPER_RATES
    def test_a_nan_or_negative_rate_is_a_bound_violation(self, rate):
        with pytest.raises(BoundViolation, match=f"^acceptance ratio {rate:g} is not a probability"):
            nanbu_simulate(improper_rate_model(rate), Ensemble(np.zeros((20, 1))), 0.5, 2, RngStream(42))

    def test_zero_rate_rejects_a_zero_uniform(self, zero_uniform_stream):
        # a zero uniform also makes every particle a collision candidate
        e0 = Ensemble(np.array([1.0, 2.0, 3.0]))
        final = nanbu_simulate(zero_rate_counting_model(), e0, 0.1, 10, zero_uniform_stream(43))
        assert np.array_equal(final.states, e0.states)

    def test_collision_rate_per_particle(self):
        # psi_pair's first state increments a counter coordinate: after T = 1
        # at unit rate the mean count per particle approaches Lambda = 1
        # (Bernoulli -> Poisson)
        model = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=lambda a, b, t: (a + 1.0, b),
                               theta_sampler=no_theta)
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
        model = CollisionModel(lam=constant_rate(0.5), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng, k: np.full((k, 1), 0.25),
                               q=lambda a, b, t: 4.0 * t[:, 0], q0=lambda t: np.full(len(t), 0.8), M=1.25)
        # 0.5 * (4 * 0.25) / (1.25 * 0.8) = 0.5
        z1, z2 = np.zeros((2, 1)), np.ones((2, 1))
        assert model.accept_ratio(z1, z2, np.array([[0.25], [0.125]])) == pytest.approx([0.5, 0.25])

    def test_accept_ratio_without_q_divides_by_m(self):
        model = CollisionModel(lam=constant_rate(0.6), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta, M=2.0)
        assert model.accept_ratio(np.zeros((1, 1)), np.ones((1, 1)), no_theta(None, 1)) == pytest.approx([0.3])

    @pytest.mark.parametrize("simulate", [
        lambda m, e0, rng: exact_simulate(m, e0, 5.0, rng),
        lambda m, e0, rng: bird_simulate(m, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), rng),
        lambda m, e0, rng: nanbu_simulate(m, e0, 0.5, 2, rng),
    ], ids=["exact", "bird", "nanbu"])
    def test_q_above_m_q0_is_a_bound_violation(self, simulate):
        # q = 3 > M q0 = 2: the acceptance ratio is 1.5
        model = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta, q=lambda a, b, t: np.full(len(a), 3.0),
                               q0=lambda t: np.ones(len(t)), M=2.0)
        with pytest.raises(BoundViolation, match="does not bound"):
            simulate(model, Ensemble(np.arange(4.0)), RngStream(53))


    @pytest.mark.parametrize("scale", [2.0, 3.0])
    def test_symmetry_probe_reports_the_density_excess(self, scale):
        # q = scale theta with theta uniform on [0, 1), against M q0 = 2: no excess at scale 2, and
        # at scale 3 the largest of the probe's thetas above 2/3 gives 3 theta - 2
        model = CollisionModel(lam=constant_rate(1.0), Lambda=1.0, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=lambda rng, k: rng.uniform((k, 1)),
                               q=lambda a, b, t: scale * t[:, 0], q0=lambda t: np.ones(len(t)), M=2.0)
        report = probe_model_symmetry(model, lambda r, k: r.normal((k, 1)), RngStream(54), pairs=16, draws=10)
        replay = RngStream(54)
        replay.normal((32, 1))  # the probe's two state draws, then its thetas
        excess = max(0.0, float(np.max(scale * replay.uniform((16, 1))[:, 0] - 2.0)))
        assert report["density_bound_excess"] == excess
        assert (excess > 0) == (scale > 2)


class TestProposalStep:
    def counting_model(self):
        rows = []

        def lam(a, b):
            rows.append(len(a))
            return np.full(len(a), 0.5)

        model = CollisionModel(lam=lam, Lambda=1.0, psi_pair=lambda a, b, t: (a + 1.0, b + 1.0),
                               theta_sampler=no_theta)
        return model, rows

    def test_one_rate_evaluation_per_proposal(self, monkeypatch):
        # exact: lam sees each proposal once, level by level, so its rows add up to the proposals
        e0 = Ensemble(np.arange(60.0))
        model, rows = self.counting_model()
        _, log = exact_simulate(model, e0, 2.0, RngStream(54))
        assert sum(rows) == log.proposed > len(rows) > 0
        # one call per dependency level of the block (one block at this size), in level order
        _, i, j = log.columns()[:3]
        assert rows == np.bincount(boltzmann._levels(np.stack([i, j], axis=1), 60)).tolist()
        # Bird evaluates a block whole, level by level, and cuts it after the proposal that passes
        # the step's end, so per step lam also sees the rest of one block: fewer than 60 / 2 rows
        model, rows = self.counting_model()
        blocks, levels = [], boltzmann._levels
        monkeypatch.setattr(boltzmann, "_levels", lambda *args: blocks.append(levels(*args)) or blocks[-1])
        _, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 1, 0.5), RngStream(55))
        assert log.proposed <= sum(rows) < log.proposed + 2 * 30
        assert log.proposed > log.accepted > 0 and len(rows) < log.proposed
        assert rows == [count for level in blocks for count in np.bincount(level).tolist()]

    def test_bird_counter_stops_at_the_step_end_when_q_exceeds_m_q0(self):
        # q = 2 M q0 and lam = 0.4 Lambda give ratio 0.8, so no BoundViolation, yet a proposal
        # accepted at u > 0.4 has lam < u Lambda; the counter must still stop at the first
        # proposal that takes it past the step's end
        model = CollisionModel(lam=constant_rate(0.4), Lambda=1.0, psi_pair=lambda a, b, t: (a + 1.0, b - 1.0),
                               theta_sampler=no_theta, q=lambda a, b, t: np.full(len(a), 2.0),
                               q0=lambda t: np.ones(len(t)))
        n = 400
        _, log = bird_simulate(model, CellGrid.single_cell(), Ensemble(np.arange(float(n))),
                               TimeGrid(0, 1, 1), RngStream(68))
        time, _, _, accepted = log.columns()
        increment = 1.0 / (n * (n - 1) / 2.0 / n * 0.4)  # 1 / (scale lam) in a single cell
        assert log.accepted > 50
        assert time.max() <= 1.0 and accepted[-1] and time[-1] + increment > 1.0

    def test_nanbu_needs_two_particles(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError, match="need at least two particles"):
            nanbu_simulate(model, Ensemble(np.zeros((1, 2))), 0.5, 1, RngStream(56))

    @pytest.mark.parametrize("dt, steps, match", [
        (math.nan, 1, "^dt must be finite and positive, got nan"),
        (math.inf, 1, "^dt must be finite and positive, got inf"),
        (-0.5, 1, "^dt must be finite and positive, got -0.5"),
        (0.5, 0, "^need steps >= 1, got 0"),
    ], ids=["dt-nan", "dt-inf", "dt-negative", "no-steps"])
    def test_nanbu_refuses_a_bad_step_by_name(self, dt, steps, match):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError, match=match):
            nanbu_simulate(model, Ensemble(np.zeros((4, 2))), dt, steps, RngStream(57))


class TestWealthModel:
    def test_deterministic_half_split(self):
        model = wealth_model(lambda rng, k: np.full((k, 4), 0.5))
        z1, z2 = model.psi_pair(np.array([[1.0]]), np.array([[3.0]]), np.full((1, 4), 0.5))
        assert z1[0, 0] == pytest.approx(2.0) and z2[0, 0] == pytest.approx(2.0)

    def test_equal_wealth_preserved_when_shares_sum_to_one(self):
        model = wealth_model(lambda rng, k: np.tile([0.3, 0.7, 0.6, 0.4], (k, 1)))
        z1, z2 = model.psi_pair(np.array([[5.0]]), np.array([[5.0]]), np.array([[0.3, 0.7, 0.6, 0.4]]))
        assert z1[0, 0] == pytest.approx(5.0) and z2[0, 0] == pytest.approx(5.0)

    def test_mean_wealth_conserved_in_expectation(self):
        def sampler(rng, k):
            u = rng.uniform((k, 2))
            return np.column_stack([u[:, 0], 1 - u[:, 0], u[:, 1], 1 - u[:, 1]])

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
        model = wealth_model(lambda rng, k: np.tile([-0.1, 1.1, 0.5, 0.5], (k, 1)))
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
    @pytest.mark.parametrize("field, value", [("lo", None), ("hi", None), ("lo", [0.0, math.nan]),
                                              ("hi", [[1.0, 1.0]]), ("hi", [1.0]), ("delta", math.nan),
                                              ("delta", math.inf), ("delta", 0.0)])
    def test_bad_bounds_are_refused_by_name(self, field, value):
        bounds = {"lo": np.zeros(2), "hi": np.ones(2), "delta": 0.5, field: value}
        with pytest.raises(ValueError, match=rf"^(lo and hi|cell side {field}|{field}) "):
            CellGrid(position=lambda s: s, **bounds)

    # delta^2 underflows to 0; on a box of side 1e-300 the grid is one cell
    @pytest.mark.parametrize("side", [1.0, 1e-300])
    def test_a_cell_volume_of_zero_is_refused_naming_delta(self, side):
        with pytest.raises(ValueError, match=r"^cell side delta = 1e-200 gives a cell volume delta\^2 of 0$"):
            CellGrid(lo=np.zeros(2), hi=np.full(2, side), delta=1e-200, position=lambda s: s)

    # 1e20 cells along one axis, or 1e10 along each of two; hi - lo overflows to inf
    @pytest.mark.parametrize("lo, hi, delta", [([0.0], [1e10], 1e-10), ([0.0, 0.0], [1.0, 1.0], 1e-10),
                                               ([-1e308, 0.0], [1e308, 1.0], 1.0)])
    def test_a_cell_count_beyond_the_integers_is_refused_naming_delta(self, lo, hi, delta):
        with pytest.raises(ValueError, match=r"^cell side delta = \S+ gives (1e\+20|inf) cells, more than an index holds$"):
            CellGrid(lo=lo, hi=hi, delta=delta, position=lambda s: s)

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
# Row-wise dense formulas of the batched kernels: the same elementwise
# floating-point operations, written one pair at a time. A batched kernel
# must give every row the bits of its row formula, whatever the other rows.


def row_dot(a, b):
    s = a[0] * b[0]
    for c in range(1, len(a)):
        s = s + a[c] * b[c]
    return s


def dense_directions(u, dim):
    if dim == 1:
        return np.array([1.0 if u[0] < 0.5 else -1.0])
    if dim == 2:
        angle = 2.0 * math.pi * u[0]
        return np.array([np.cos(angle), np.sin(angle)])
    g = []
    for p in range(len(u) // 2):
        radius = np.sqrt(-2.0 * np.log1p(-u[2 * p]))
        angle = 2.0 * math.pi * u[2 * p + 1]
        g += [radius * np.cos(angle), radius * np.sin(angle)]
    g = np.array(g[:dim])
    norm = np.sqrt(row_dot(g, g))
    return g / norm if norm > 0 else np.eye(1, dim)[0]


def dense_scattering_direction(rel, deflection, azimuth, speed):
    pole = np.concatenate([[np.cos(deflection)], np.sin(deflection) * azimuth])
    u = rel / -(speed if speed > 0 else 1.0)
    u[0] += 1.0
    nrm2 = row_dot(u, u)
    coef = 2.0 * row_dot(u, pole) / nrm2 if speed > 0 and nrm2 >= 1e-24 else 0.0
    return pole - coef * u


def dense_elastic_pair(v, v_star, sigma_dir, speed):
    mid = (v + v_star) / 2.0
    step = speed / 2.0 * sigma_dir
    return mid + step, mid - step


def dense_maxwell_psi_pair(z1, z2, theta):
    if np.array_equal(z1, z2):
        return z1.copy(), z2.copy()
    rel = z1 - z2
    speed = np.sqrt(row_dot(rel, rel))
    return dense_elastic_pair(z1, z2, dense_scattering_direction(rel, theta[0], theta[1:], speed), speed)


def same_bits(a, b):
    """Equal dtype, shape and bit pattern; unlike np.array_equal, 0.0 and
    -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def edge_pairs(d, rng, count=300):
    """Random pairs, then equal states (with both zero signs), a relative
    velocity along the pole, a zero relative-velocity component, and
    differences near 1e-170, whose squares underflow to zero; as two (k, d)
    arrays."""
    z1, z2 = list(rng.normal((count, d))), list(rng.normal((count, d)))
    z = rng.normal(d)
    along = np.zeros(d)
    along[0] = 1.5
    zero_last = rng.normal(d)
    zero_last[-1] = 0.0
    edges = [(z, z.copy()), (np.zeros(d), -np.zeros(d)), (z + along, z), (z - along, z),
             (zero_last, np.zeros(d)), (np.zeros(d), zero_last),
             (np.full(d, 3e-170), np.full(d, 1e-170)), (np.full(d, 1e-170), np.zeros(d))]
    return np.array(z1 + [a for a, _ in edges]), np.array(z2 + [b for _, b in edges])


def fixed_thetas(d):
    """Deflections 0, pi/2 and pi, with azimuths holding a negative and a
    zero component, as (d,) theta rows."""
    azimuths = [[-1.0]] if d == 2 else [[0.6, -0.8], [0.0, 1.0]]
    return [np.array([deflection, *az]) for deflection in (0.0, math.pi / 2, math.pi) for az in azimuths]


class FixedUniforms:
    """Stands in for an RngStream: ``uniform(shape)`` returns the given array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def uniform(self, size):
        assert self.values.shape == size
        return self.values


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
        z1, z2 = edge_pairs(d, rng)
        k = len(z1)
        lam = model.lam(z1, z2)
        for z1_row, z2_row, got in zip(z1, z2, lam):
            assert same_bits(got, 0.0 if np.array_equal(z1_row, z2_row) else model.Lambda)
        # every pair with a drawn theta, then with each fixed theta
        thetas = [model.theta_sampler(rng, k)] + [np.tile(t, (k, 1)) for t in fixed_thetas(d)]
        for theta in thetas:
            got1, got2 = model.psi_pair(z1, z2, theta)
            for row in range(k):
                want1, want2 = dense_maxwell_psi_pair(z1[row], z2[row], theta[row])
                assert same_bits(got1[row], want1) and same_bits(got2[row], want2), (z1[row], z2[row], theta[row])
            sigma = boltzmann.scattering_direction(z1 - z2, theta[:, 0], theta[:, 1:])
            for row in range(k):
                rel = z1[row] - z2[row]
                want = dense_scattering_direction(rel, theta[row, 0], theta[row, 1:], np.sqrt(row_dot(rel, rel)))
                assert same_bits(sigma[row], want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maxwell_psi_pair_on_rows_of_zero_or_nan_speed(self, d):
        # a difference whose square underflows (speed 0, z1 != z2), equal rows of opposite zero
        # signs, and an equal row holding an infinity (speed NaN): the last two are returned as given
        model = maxwell_cutoff_model(uniform_deflection(), d=d)
        infinite = np.full(d, 2.0)
        infinite[0] = np.inf
        z1 = np.array([np.full(d, 1e-170), np.zeros(d), infinite])
        z2 = np.array([np.zeros(d), -np.zeros(d), infinite.copy()])
        for theta in fixed_thetas(d):
            with np.errstate(invalid="ignore"):  # inf - inf
                got1, got2 = model.psi_pair(z1, z2, np.tile(theta, (3, 1)))
            for row in range(3):
                want1, want2 = dense_maxwell_psi_pair(z1[row], z2[row], theta)
                assert same_bits(got1[row], want1) and same_bits(got2[row], want2)
            assert same_bits(got1[1:], z1[1:]) and same_bits(got2[1:], z2[1:])
            assert same_bits(got1[0], np.full(d, 5e-171)) and same_bits(got2[0], got1[0])

    @pytest.mark.parametrize("density", [
        uniform_deflection(),
        lambda th: np.where((th > 1.0) & (th < 2.0), 0.0, 1.0),
        lambda th: np.exp(-50.0 * (th - 1.0) ** 2),
    ], ids=["flat", "zero-interval", "peaked"])
    def test_maxwell_deflection_is_np_interp(self, density):
        # a theta row is the deflection np.interp(u0, cdf, angles), then the
        # azimuth direction of the row's other uniforms
        model = maxwell_cutoff_model(density, d=3)
        cdf, angles = deflection_cdf(density)
        us = np.concatenate([RngStream(96).uniform(20_000), cdf, [0.0, np.nextafter(1.0, 0.0)]])
        # the sampler looks the uniforms up in ascending order: a block that repeats uniforms and
        # holds the cdf knots in random order must give each row its own lookup too
        shuffled = RngStream(95).gen.permutation(np.concatenate([us[:500], us[:500], cdf]))
        for u0 in (us, shuffled):
            u = np.column_stack([u0, RngStream(97).uniform(u0.size)])
            given = u.copy()
            theta = model.theta_sampler(FixedUniforms(u), u0.size)
            assert same_bits(u, given)  # the uniforms handed over are left as they were
            assert same_bits(theta[:, 0], np.interp(u0, cdf, angles))
            for row in range(0, u0.size, 97):
                assert same_bits(theta[row, 1:], dense_directions(u[row, 1:], 2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_rows_is_the_all_equal_test(self, d):
        # equal rows, both zero signs, and a NaN or an infinity of either sign in one coordinate
        z1, z2 = edge_pairs(d, RngStream(94, d))
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        rows1, rows2 = [], []
        for a in special:
            for b in special:
                for col in range(d):
                    row1, row2 = z1[-1].copy(), z1[-1].copy()
                    row1[col], row2[col] = a, b
                    rows1.append(row1)
                    rows2.append(row2)
        z1, z2 = np.concatenate([z1, rows1]), np.concatenate([z2, rows2])
        same = boltzmann._same_rows(z1, z2)
        assert same.dtype == bool and same_bits(same, (z1 == z2).all(axis=1))
        assert same.any() and not same.all()
        assert same_bits(boltzmann._same_rows(z1[:0], z2[:0]), np.zeros(0, dtype=bool))

    @pytest.mark.parametrize("m", [200, 60_000, 70_000], ids=["8-bit", "16-bit", "32-bit"])
    def test_level_order_is_the_stable_argsort(self, m):
        # levels below m with many ties, the highest level m - 1 included
        level = RngStream(93, m).integers(m, size=m)
        level[:m // 2] %= 5
        level[-1] = m - 1
        order = boltzmann._level_order(level)
        assert order.dtype == np.intp and same_bits(order, np.argsort(level, kind="stable"))

    def test_hard_sphere_lam_and_psi_pair(self):
        model = hard_sphere_model(2.0, d=3)
        rng = RngStream(92)
        z1, z2 = edge_pairs(3, rng)
        sigma = model.theta_sampler(rng, len(z1))
        lam = model.lam(z1, z2)
        got1, got2 = model.psi_pair(z1, z2, sigma)
        for row in range(len(z1)):
            rel = z1[row] - z2[row]
            speed = np.sqrt(row_dot(rel, rel))
            assert same_bits(lam[row], np.minimum(speed, 2.0))
            want1, want2 = dense_elastic_pair(z1[row], z2[row], sigma[row], speed)
            assert same_bits(got1[row], want1) and same_bits(got2[row], want2)

    def test_wealth_lam_and_psi_pair(self):
        model = wealth_model(lambda rng, k: rng.uniform((k, 4)))
        rng = RngStream(93)
        z1, z2 = edge_pairs(1, rng)
        theta = model.theta_sampler(rng, len(z1))
        lam = model.lam(z1, z2)
        got1, got2 = model.psi_pair(z1, z2, theta)
        for row in range(len(z1)):
            assert same_bits(lam[row], 0.0 if np.array_equal(z1[row], z2[row]) else 1.0)
            L, R, Lt, Rt = theta[row]
            assert same_bits(got1[row], L * z1[row] + R * z2[row])
            assert same_bits(got2[row], Lt * z2[row] + Rt * z1[row])

    @pytest.mark.parametrize("k", [2, 3, 1, 4, 5])
    def test_uniform_direction(self, k):
        columns = boltzmann._direction_columns(k)
        u = RngStream(94, k).uniform((500, columns))
        u[:3] = 0.0  # zero radii: for k > 2 the first row falls back to e_1
        got = boltzmann._directions(u, k)
        for row in range(len(u)):
            assert same_bits(got[row], dense_directions(u[row], k))
        assert np.allclose(np.sqrt((got * got).sum(axis=1)), 1.0, rtol=0, atol=1e-15)

    def test_collide_writes_the_accepted_pairs(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        rng = RngStream(95)
        states = rng.normal((40, 2))
        before = states.copy()
        pairs = np.arange(40).reshape(20, 2)
        theta = model.theta_sampler(rng, 20)
        accepted = rng.uniform(20) < 0.7
        boltzmann._collide(model, states, pairs, before[pairs[:, 0]], before[pairs[:, 1]], theta, accepted)
        for (i, j), theta_row, acc in zip(pairs, theta, accepted):
            z1, z2 = before[i], before[j]
            z1p, z2p = dense_maxwell_psi_pair(z1, z2, theta_row) if acc else (z1, z2)
            assert same_bits(states[i], z1p) and same_bits(states[j], z2p)

    @pytest.mark.parametrize("model", [
        maxwell_cutoff_model(uniform_deflection(), d=2),
        maxwell_cutoff_model(uniform_deflection(), d=3),
        maxwell_cutoff_model(lambda th: th ** 2, d=4),
        hard_sphere_model(3.0, d=1),
        hard_sphere_model(3.0, d=2),
        hard_sphere_model(3.0, d=3),
    ], ids=["maxwell-2", "maxwell-3", "maxwell-4", "hard-sphere-1", "hard-sphere-2", "hard-sphere-3"])
    def test_kernels_conserve_each_pair(self, model):
        rng = RngStream(98)
        d = model.theta_sampler(rng, 1).shape[1]  # both families draw d-column thetas
        z1, z2 = edge_pairs(d, rng)
        p1, p2 = model.psi_pair(z1, z2, model.theta_sampler(rng, len(z1)))
        e_in = (z1 * z1 + z2 * z2).sum(axis=1)
        p_in = np.abs(z1).max(axis=1) + np.abs(z2).max(axis=1)
        assert np.all(np.abs((p1 * p1 + p2 * p2).sum(axis=1) - e_in) <= 1e-12 * e_in)
        assert np.all(np.abs((p1 + p2) - (z1 + z2)).max(axis=1) <= 1e-12 * p_in)


# ---------------------------------------------------------------------------
# The run-vectorized engine


class TestBatchedEngine:
    @pytest.mark.parametrize("make, d", [
        (lambda: hard_sphere_model(1.5, d=2), 2),
        (lambda: wealth_model(lambda rng, k: rng.uniform((k, 4)) - 0.05), 1),
        (kinetic_maxwell_model, 4),
    ], ids=["hard-sphere", "wealth-with-vetoes", "free-flow"])
    @pytest.mark.parametrize("engine", ["exact", "bird"])  # Nanbu draws per step, with no block
    def test_block_size_changes_nothing(self, monkeypatch, make, d, engine):
        # block size 1 takes the proposals one at a time
        model = make()
        e0 = Ensemble(RngStream(60).normal((200, d)))
        grid = CellGrid(lo=np.array([-1.0]), hi=np.array([1.0]), delta=0.5, position=lambda s: s[:, :1])
        outs = []
        for block in (1, 7, core._BLOCK):
            monkeypatch.setattr(core, "_BLOCK", block)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the wealth model's vetoes
                if engine == "exact":
                    final, log = exact_simulate(model, e0, 0.75, RngStream(61))
                else:
                    final, log = bird_simulate(model, grid, e0, TimeGrid(0, 2, 0.25), RngStream(61))
            outs.append((final.states, log.columns()))
        (states, cols), others = outs[0], outs[1:]
        assert cols[0].size > 50 and np.count_nonzero(cols[3]) > 0
        for other_states, other_cols in others:
            assert same_bits(other_states, states)
            assert all(same_bits(a, b) for a, b in zip(other_cols, cols))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)), max_size=60),
        st.permutations(range(3 * n)))))
    def test_levels_are_one_above_the_latest_sharing_row(self, case):
        n, draws, labels = case
        rows = [(i, j + (j >= i)) for i, j in draws]  # distinct particles, in either order
        pairs = np.array(rows, dtype=int).reshape(-1, 2)
        level = boltzmann._levels(pairs, n).tolist()
        for k, row in enumerate(rows):
            sharing = [level[e] for e in range(k) if set(rows[e]) & set(row)]
            assert level[k] == 1 + max(sharing, default=-1)
        for value in set(level):
            touched = [p for k, row in enumerate(rows) if level[k] == value for p in row]
            assert len(set(touched)) == len(touched)
        # Bird levels a cell's rows in the cell's own indices: relabelling them one to one, as
        # ``members`` maps them into the ensemble, keeps every level
        relabelled = np.array(labels[:n], dtype=int)[pairs]
        assert boltzmann._levels(relabelled, 3 * n).tolist() == level

    def test_pairs_are_uniform_distinct_and_ordered(self):
        pairs = boltzmann._draw_pairs(RngStream(63), 4, 60_000)
        assert np.all(pairs[:, 0] < pairs[:, 1]) and pairs.min() >= 0 and pairs.max() == 3
        counts = np.unique(pairs[:, 0] * 4 + pairs[:, 1], return_counts=True)[1]
        assert counts.size == 6 and np.all(np.abs(counts - 10_000) <= 4 * math.sqrt(10_000))

    def test_bird_abandons_a_cell_at_the_50000th_consecutive_rejection(self):
        e0 = Ensemble(RngStream(64).normal(2000))
        with pytest.warns(UserWarning, match="50000 consecutive fictitious") as caught:
            final, log = bird_simulate(zero_rate_counting_model(), CellGrid.single_cell(), e0,
                                       TimeGrid(0, 1, 1), RngStream(65))
        assert len(caught) == 1
        assert log.proposed == 50_000 and log.accepted == 0
        assert np.array_equal(final.states, e0.states)

    def test_bird_undoes_the_rows_past_the_cut(self, monkeypatch, zero_uniform_stream):
        # every proposal is accepted, and the first one takes the counter 1 / (scale lam) = 2 / 7
        # past the step's end at 0.01, so the log keeps one row of a 16-proposal block; the rate
        # doubles on a particle that has collided, a ratio of 2 that only rows past the cut read.
        # The free flow, which moves nothing, makes the call run its cell step through _bird_cell
        model = CollisionModel(lam=lambda a, b: np.where((a > 0.5) | (b > 0.5), 2.0, 1.0)[:, 0], Lambda=1.0,
                               psi_pair=lambda a, b, t: (a + 1.0, b + 1.0), theta_sampler=no_theta,
                               free_flow=lambda states, dt: states)
        e0 = Ensemble(np.zeros((8, 1)))
        blocks, levels = [], boltzmann._levels
        monkeypatch.setattr(boltzmann, "_levels", lambda *args: blocks.append(levels(*args)) or blocks[-1])
        outs = []
        for block in (core._BLOCK, 1):
            monkeypatch.setattr(core, "_BLOCK", block)
            final, log = bird_simulate(model, CellGrid.single_cell(), e0, TimeGrid(0, 0.01, 0.01),
                                       zero_uniform_stream(69))
            assert log.proposed == log.accepted == 1
            outs.append(final.states)
        level = blocks[0]
        # a row past the cut shares level 0 with the kept row, and the block has higher levels
        assert len(level) == 16 and np.count_nonzero(level == 0) > 1 and level.max() > 1
        assert same_bits(outs[0], outs[1])
        _, i, j = log.columns()[:3]
        assert sorted(np.flatnonzero(outs[0][:, 0]).tolist()) == [i[0], j[0]] and outs[0].max() == 1.0

    def test_bird_evaluates_only_the_kept_rows_of_a_maxwell_call(self, monkeypatch):
        # the dsmc workload's Bird call is one counter run over [0, 2] that expects 1999 collisions:
        # one block of int(1.1 E) + 16 = 2214 proposals, cut at the 2000th, which takes the counter
        # past 2 from about 2 - 5e-14 and so is kept with probability about 5e-11; it is dropped with
        # the rows past it, and only the 1999 rows kept are checked and logged
        model = maxwell_cutoff_model(lambda th: np.ones_like(th) / math.pi, d=2)
        apply_levels, check, blocks, checked = boltzmann._apply_levels, boltzmann._check, [], []
        monkeypatch.setattr(boltzmann, "_apply_levels",
                            lambda *args: blocks.append(len(args[2])) or apply_levels(*args))
        monkeypatch.setattr(boltzmann, "_check",
                            lambda ratio, *args, **kw: checked.append(len(ratio)) or check(ratio, *args, **kw))
        init = RngStream(99).normal((2000, 2))
        for key in (2, 3):
            blocks.clear()
            checked.clear()
            _, log = bird_simulate(model, CellGrid.single_cell(), Ensemble(init), TimeGrid(0.0, 2.0, 0.1),
                                   RngStream(99, key))
            assert log.accepted == log.proposed == 1999 and blocks == [2214] and checked == [1999]

    def test_hard_sphere_bird_draws_no_more_blocks_than_before(self, monkeypatch):
        # hard spheres reject some proposals, so blocks of 1.1 E + 16 proposals need no more draws
        # than blocks of int(E) + 2, which would finish a cell step that accepts every proposal
        model = hard_sphere_model(1.5, d=2)
        e0 = Ensemble(RngStream(70).normal((300, 2)))
        grid = CellGrid(lo=np.array([-1.0]), hi=np.array([1.0]), delta=0.5, position=lambda s: s[:, :1])
        blocks, levels = [], boltzmann._levels
        monkeypatch.setattr(boltzmann, "_levels", lambda *args: blocks.append(levels(*args)) or blocks[-1])
        outs, counts = [], []
        for rule in (boltzmann._block_size, lambda expected: min(core._BLOCK, int(expected) + 2)):
            monkeypatch.setattr(boltzmann, "_block_size", rule)
            blocks.clear()
            final, log = bird_simulate(model, grid, e0, TimeGrid(0, 1, 0.1), RngStream(71))
            outs.append((final.states, log.columns()))
            counts.append(len(blocks))
        assert 0 < counts[0] <= counts[1]
        assert 0 < np.count_nonzero(outs[0][1][3]) < len(outs[0][1][3])
        assert same_bits(outs[0][0], outs[1][0]) and all(same_bits(a, b) for a, b in zip(outs[0][1], outs[1][1]))

    def test_events_are_built_from_the_columns(self):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        e0 = Ensemble(RngStream(66).normal((30, 2)))
        _, log = exact_simulate(model, e0, 1.0, RngStream(67))
        time, i, j, accepted = log.columns()
        events = log.events
        assert len(events) == log.proposed == len(time)
        for k in (0, len(events) // 2, len(events) - 1):
            e = events[k]
            assert (e.time, e.i, e.j, e.accepted) == (time[k], i[k], j[k], accepted[k])
            assert type(e.time) is float and type(e.i) is int


# ---------------------------------------------------------------------------
# Replicas of the exact engine as one joint system


def reference_exact(model, states, T, rng, event_cap=10_000_000):
    """One replica of the exact engine as its own loop, block after block: what exact_batch runs for
    each replica, and what each of its replicas must reproduce bit for bit. Returns (finals, log)."""
    n, t, horizon = len(states), 0.0, T
    total_rate = model.Lambda * model.M * (n - 1) / 2.0
    log = boltzmann.EventLog(cap=event_cap)
    clock, pair_stream, theta_stream, accept_stream = (rng.substream(k) for k in range(4))
    while total_rate > 0:
        size = boltzmann._block_size(total_rate * (horizon - t))
        taus = clock.exponential(1.0 / total_rate, size)
        times = np.cumsum(np.concatenate([[t], taus]))[1:]
        m = int(np.searchsorted(times, horizon, side="right"))
        pairs = boltzmann._draw_pairs(pair_stream, n, m)
        theta, u = model.theta_sampler(theta_stream, m), accept_stream.uniform(m)
        level = boltzmann._levels(pairs, n) if model.free_flow is None else np.arange(m)
        states, (accepted, _, ratio, vetoed), _ = boltzmann._apply_levels(
            model, states.copy(), pairs, level, theta, u, taus)
        boltzmann._check(ratio, vetoed, stacklevel=2)
        log.record(times[:m], pairs[:, 0], pairs[:, 1], accepted)
        t = times[m - 1] if m else t
        if m < size:
            break
    return boltzmann._apply_free_flow(model, states, horizon - t), log


def lone_exact_runs(model, states, T, streams, event_cap=10_000_000):
    """``reference_exact`` of each replica of ``states``, as (finals, logs) like exact_batch."""
    runs = [reference_exact(model, z, T, rng, event_cap) for z, rng in zip(states, streams)]
    return np.stack([final for final, _ in runs]), [log for _, log in runs]


def same_logs(a, b):
    return ((a.proposed, a.accepted, a.truncated) == (b.proposed, b.accepted, b.truncated)
            and all(same_bits(x, y) for x, y in zip(a.columns(), b.columns())))


@pytest.fixture
def exact_groups(monkeypatch):
    """The number of replicas of each group that exact_batch runs."""
    widths, group = [], boltzmann._exact_group
    monkeypatch.setattr(boltzmann, "_exact_group", lambda *args: widths.append(len(args[6])) or group(*args))
    return widths


class TestExactBatch:
    def check(self, model, states, T, seed, groups=None, **kw):
        """exact_batch of ``states``, and exact_simulate of its first replica, give each replica the
        bits of its ``reference_exact`` run; returns the batch's logs.
        ``groups``, the exact_groups fixture, is left holding the batch's groups only."""
        streams = [RngStream(seed, r) for r in range(len(states))]
        want_finals, want_logs = lone_exact_runs(model, states, T, streams, **kw)
        final, log = exact_simulate(model, Ensemble(states[0]), T, streams[0], **kw)  # the batch of one
        assert same_bits(final.states, want_finals[0]) and same_logs(log, want_logs[0])
        if groups is not None:
            groups.clear()
        finals, logs = exact_batch(model, states, T, streams, **kw)
        assert same_bits(finals, want_finals)
        assert len(logs) == len(states) and all(same_logs(a, b) for a, b in zip(logs, want_logs))
        return logs

    def test_an_infinite_proposal_count_is_refused(self, no_draw_stream):
        # Lambda (N - 1) / 2 overflows at N = 10, before any draw
        model = CollisionModel(lam=constant_rate(1e308), Lambda=1e308, psi_pair=lambda a, b, t: (a, b),
                               theta_sampler=no_theta)
        with pytest.raises(ValueError, match=r"^the expected proposal count Lambda M \(N - 1\) / 2 \* T is inf$"):
            exact_batch(model, np.zeros((2, 10, 1)), 1.0, [no_draw_stream(88, r) for r in range(2)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_maxwell_replicas_are_their_lone_runs(self, exact_groups, d):
        logs = self.check(maxwell_cutoff_model(uniform_deflection(), d=d), RngStream(90, d).normal((5, 300, d)),
                          1.0, 91, exact_groups)
        assert exact_groups == [5] and all(log.accepted == log.proposed > 100 for log in logs)

    def test_hard_sphere_replicas_reject_as_their_lone_runs(self, exact_groups):
        logs = self.check(hard_sphere_model(1.5, d=2), RngStream(92).normal((4, 200, 2)), 1.0, 93,
                          exact_groups)
        assert exact_groups == [4] and all(0 < log.accepted < log.proposed for log in logs)

    def test_vetoes_still_warn(self):
        model = wealth_model(lambda rng, k: rng.uniform((k, 4)) - 0.05)
        with pytest.warns(UserWarning, match="event filter"):
            logs = self.check(model, np.abs(RngStream(94).normal((3, 100, 1))) + 1.0, 1.0, 95)
        assert all(0 < log.accepted < log.proposed for log in logs)

    def test_free_flow_replicas_run_alone(self, exact_groups):
        logs = self.check(kinetic_maxwell_model(), RngStream(96).normal((3, 50, 4)), 1.0, 97, exact_groups)
        assert exact_groups == [1, 1, 1] and all(log.accepted > 0 for log in logs)

    def test_a_replica_past_its_block_runs_on_alone(self, monkeypatch, exact_groups):
        # N = 20 over T = 4 expects 38 proposals: at _BLOCK = 38 some replicas run out of their block
        # before the horizon and draw another, while the others are done
        monkeypatch.setattr(core, "_BLOCK", 38)
        logs = self.check(maxwell_cutoff_model(uniform_deflection(), d=2), RngStream(98).normal((6, 20, 2)), 4.0, 99,
                          exact_groups)
        assert exact_groups == [6]
        assert min(log.proposed for log in logs) < 38 < max(log.proposed for log in logs)

    def test_event_cap_truncates_only_the_replicas_past_it(self):
        logs = self.check(maxwell_cutoff_model(uniform_deflection(), d=2), RngStream(100).normal((6, 40, 2)),
                          1.0, 101, event_cap=20)
        assert {log.truncated for log in logs} == {True, False}
        assert all(len(log.columns()[0]) == min(log.proposed, 20) for log in logs)

    def test_groups_hold_at_most_the_row_bound(self, monkeypatch, exact_groups):
        # N = 100 over T = 1 draws a first block of int(1.1 * 49.5) + 16 = 70 proposals per replica
        monkeypatch.setattr(boltzmann, "_GROUP_ROWS", 150)
        self.check(maxwell_cutoff_model(uniform_deflection(), d=2), RngStream(102).normal((5, 100, 2)), 1.0, 103,
                   exact_groups)
        assert exact_groups == [2, 2, 1]

    def test_a_zero_rate_batch_only_flows(self):
        model = transport_only_model()
        finals, logs = exact_batch(model, np.array([[[0.0, 1.0], [1.0, -2.0]]] * 2), 3.0,
                                   [RngStream(104), RngStream(105)], t0=1.0)
        assert np.allclose(finals[:, :, 0], [3.0, -5.0]) and all(log.proposed == 0 for log in logs)

    @pytest.mark.parametrize("states, streams, match, horizon", [
        (np.zeros((4, 2)), 4, "an \\(R, n, d\\) array", {}),
        (np.zeros((2, 1, 2)), 2, "two particles", {}),
        (np.zeros((2, 3, 2)), 3, "one stream per replica", {}),
        (np.array([[[0.0], [1.0]], [[np.inf], [0.0]]]), 2, "replica 1, particle 0", {}),
        (np.zeros((2, 3, 2)), 2, "^T must be finite and positive, got nan", {"T": math.nan}),
        (np.zeros((2, 3, 2)), 2, "^T must be finite and positive, got inf", {"T": math.inf}),
        (np.zeros((2, 3, 2)), 2, "^T must be finite and positive, got 0.0", {"T": 0.0}),
        (np.zeros((2, 3, 2)), 2, "^t0 must be finite, got nan", {"t0": math.nan}),
        (np.zeros((2, 3, 2)), 2, "^t0 must be finite, got -inf", {"t0": -math.inf}),
        (np.zeros((2, 3, 0)), 2, "an \\(R, n, d\\) array, got shape \\(2, 3, 0\\)", {}),
    ], ids=["2-d", "one-particle", "streams", "infinite", "T-nan", "T-inf", "T-zero", "t0-nan", "t0-inf",
            "zero-width"])
    def test_bad_batches_are_refused(self, states, streams, match, horizon):
        model = maxwell_cutoff_model(uniform_deflection(), d=2)
        with pytest.raises(ValueError, match=match):
            exact_batch(model, states, streams=[RngStream(106, r) for r in range(streams)], **{"T": 1.0, **horizon})

    def test_a_bound_violation_in_one_replica_stops_the_batch(self):
        lying = CollisionModel(lam=lambda a, b: np.where(a[:, 0] > 10, 2.0, 1.0), Lambda=1.0,
                               psi_pair=lambda a, b, t: (a, b), theta_sampler=no_theta)
        states = np.zeros((3, 4, 1))
        states[1, 0] = 20.0
        with pytest.raises(BoundViolation):
            exact_batch(lying, states, 5.0, [RngStream(107, r) for r in range(3)])
        exact_batch(lying, states[[0, 2]], 5.0, [RngStream(107, r) for r in (0, 2)])


class TestExactOracle:
    """Maxwell molecules in d = 2 with a uniform deflection turn a pair's relative velocity to a
    uniform direction, so each collision takes, in mean, the fraction 1/(N - 1) off the centered
    anisotropy B = mean(v_x^2 - v_y^2) - (P_x^2 - P_y^2), P the mean velocity, whatever the pair.
    After K collisions, B_T - B_0 (1 - 1/(N - 1))^K has mean 0."""

    @staticmethod
    def anisotropy(v):
        p = v.mean(axis=1)
        return (v[..., 0] ** 2 - v[..., 1] ** 2).mean(axis=1) - (p[:, 0] ** 2 - p[:, 1] ** 2)

    def test_anisotropy_decays_by_the_collision_count(self):
        # every proposal is accepted, so K is Poisson((N - 1) T / 2). A frozen engine fails the K
        # check; an N(0, diag(1.5, 0.5)) start, not centered, has B_0 near 1
        n, count, T = 50, 1024, 1.0
        rng = RngStream(108)
        v0 = rng.normal((count, n, 2)) * np.sqrt([1.5, 0.5])
        finals, logs = exact_batch(maxwell_cutoff_model(uniform_deflection(), d=2), v0, T,
                                   [rng.substream(r) for r in range(count)])
        k = np.array([log.accepted for log in logs])
        expected = (n - 1) * T / 2
        assert abs(k.mean() - expected) <= 4 * math.sqrt(expected / count)
        residual = self.anisotropy(finals) - self.anisotropy(v0) * (1 - 1 / (n - 1)) ** k
        assert abs(residual.mean()) <= 4 * residual.std(ddof=1) / math.sqrt(count)
