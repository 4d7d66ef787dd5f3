import math

import numpy as np
import pytest

from meanfield.core import RngStream
from meanfield.metrics import (
    RateFit,
    fit_rate,
    kuramoto_order_parameter,
    pair_covariance,
    pair_covariance_pooled,
    quantile_resample,
    wasserstein_1d,
)


class TestWasserstein1d:
    def test_point_masses(self):
        assert wasserstein_1d([0.0], [1.0], p=1) == pytest.approx(1.0)

    def test_identical_samples(self):
        x = RngStream(1).normal(64)
        assert wasserstein_1d(x, x.copy()) == 0.0

    def test_sorted_pairing(self):
        # pairs (0,0) and (0,2): mean gap 1
        assert wasserstein_1d([0.0, 0.0], [0.0, 2.0], p=1) == pytest.approx(1.0)

    def test_symmetry_exact(self):
        rng = RngStream(2)
        a, b = rng.normal(100), rng.normal(100)
        assert wasserstein_1d(a, b) == wasserstein_1d(b, a)

    def test_triangle_inequality(self):
        rng = RngStream(3)
        for _ in range(20):
            a, b, c = rng.normal(50), 2 * rng.normal(50), rng.normal(50) + 1
            for p in (1, 2):
                dab = wasserstein_1d(a, b, p)
                dbc = wasserstein_1d(b, c, p)
                dac = wasserstein_1d(a, c, p)
                assert dac <= dab + dbc + 1e-12

    def test_translation_covariance(self):
        rng = RngStream(4)
        a = rng.normal(80)
        for c in (0.5, -3.0, 1e4):
            assert wasserstein_1d(a, a + c) == pytest.approx(abs(c), rel=1e-12)

    def test_size_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="resample"):
            wasserstein_1d([0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="empty"):
            wasserstein_1d([], [])

    def test_quantile_resample_enables_comparison(self):
        rng = RngStream(5)
        a, b = rng.normal(1000), rng.normal(773)
        d = wasserstein_1d(quantile_resample(a, 500), quantile_resample(b, 500))
        assert d < 0.2


class TestPairCovariance:
    def test_independent_constants(self):
        a = np.ones((200, 1))
        b = np.full((200, 1), 3.0)
        assert pair_covariance(a, b, lambda x: x[..., 0]) == pytest.approx(0.0)

    def test_perfectly_coupled(self):
        x = RngStream(6).normal((400, 1))
        c = pair_covariance(x, x, lambda z: z[..., 0])
        assert abs(c - 1.0) < 3 / math.sqrt(400)

    def test_constant_phi_exactly_zero(self):
        rng = RngStream(7)
        assert pair_covariance(rng.normal((150, 1)), rng.normal((150, 1)), lambda x: np.full(x.shape[:-1], 2.5)) == 0.0

    def test_a_row_by_row_phi_is_refused(self):
        # phi takes the whole (..., d) array: a row-wise phi would read the first row as the first state
        states = RngStream(9).normal((50, 4, 1))
        with pytest.raises(ValueError, match=r"phi must map \(\.\.\., d\) states to \(\.\.\.\) values"):
            pair_covariance_pooled(states, lambda z: float(z[0, 0, 0]))
        with pytest.raises(ValueError, match=r"got \(50, 1\)"):
            pair_covariance(states[:, 0], states[:, 1], lambda z: z[:, :1])

    def test_pooled_matches_tagged_pair_estimand(self):
        # exchangeable synthetic model: x_i = shared + noise_i, so every
        # pair has covariance Var(shared) = 0.25
        rng = RngStream(8)
        reps = []
        for _ in range(400):
            shared = 0.5 * rng.normal()
            reps.append(shared + 0.3 * rng.normal((10, 1)))
        states = np.asarray(reps)
        pooled = pair_covariance_pooled(states, lambda z: z[..., 0])
        tagged = pair_covariance(states[:, 0], states[:, 1], lambda z: z[..., 0])
        assert pooled == pytest.approx(0.25, abs=0.05)
        assert tagged == pytest.approx(pooled, abs=0.05)


class TestOrderParameter:
    def test_full_sync(self):
        assert kuramoto_order_parameter(np.full(50, 1.3)) == pytest.approx(1.0)

    def test_antipodal(self):
        assert kuramoto_order_parameter([0.0, math.pi]) == pytest.approx(0.0, abs=1e-15)

    def test_right_angle(self):
        # |(1 + i)/2| = sqrt(2)/2
        assert kuramoto_order_parameter([0.0, math.pi / 2]) == pytest.approx(math.sqrt(2) / 2)


class TestFitRate:
    def test_exact_power_law(self):
        fit = fit_rate({10: 1.0, 100: 0.1, 1000: 0.01})
        assert fit.slope == pytest.approx(-1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_half_slope(self):
        errors = {n: 3.7 / math.sqrt(n) for n in (16, 64, 256, 1024)}
        assert fit_rate(errors).slope == pytest.approx(-0.5)

    def test_noisy_power_law(self):
        rng = RngStream(9)
        errors = {n: (2.0 / n) * (1 + 0.05 * float(rng.normal())) for n in (10, 30, 100, 300, 1000)}
        assert fit_rate(errors).slope == pytest.approx(-1.0, abs=0.1)

    def test_rescale_invariance(self):
        errors = {n: 1.0 / n**0.8 for n in (8, 32, 128, 512)}
        s1 = fit_rate(errors).slope
        s2 = fit_rate({n: 1e6 * e for n, e in errors.items()}).slope
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_rate({10: 1.0, 100: 0.1})
        with pytest.raises(ValueError):
            fit_rate({10: 1.0, 100: 0.0, 1000: 0.01})

    def test_json_round_trip(self):
        import json

        fit = fit_rate({10: 1.0, 100: 0.1, 1000: 0.01})
        payload = json.loads(fit.to_json())
        assert set(payload) == {"slope", "intercept", "r2", "points"}
        assert len(payload["points"]) == 3
