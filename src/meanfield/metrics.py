"""Chaos diagnostics: 1-D Wasserstein distances, pairwise-covariance decay,
the synchronization order parameter, and log-log rate fitting."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def wasserstein_1d(a, b, p: int = 1) -> float:
    """Wasserstein-p distance between two equal-size 1-D samples.

    Computed exactly from order statistics: ((1/N) sum |a_(i) - b_(i)|^p)^(1/p).
    Use ``quantile_resample`` first when the sample counts differ.
    """
    a = np.sort(np.asarray(a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(b, dtype=float).reshape(-1))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a.size != b.size:
        raise ValueError(f"sample sizes differ ({a.size} vs {b.size}); resample to a common size first")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    gaps = np.abs(a - b)
    return float(np.mean(gaps ** p) ** (1.0 / p))


def quantile_resample(samples, m: int) -> np.ndarray:
    """Resample a 1-D sample to m points at the empirical quantiles
    (i + 1/2)/m. Deterministic helper for comparing unequal-size samples."""
    samples = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    q = (np.arange(m) + 0.5) / m
    return np.quantile(samples, q)


def _phi_values(phi, states) -> np.ndarray:
    """phi of a (..., d) state array: one call, one value per row, as a (...) array."""
    vals = np.asarray(phi(states), dtype=float)
    if vals.shape != states.shape[:-1]:
        raise ValueError(f"phi must map (..., d) states to (...) values: got {vals.shape} "
                         f"for states of shape {states.shape}")
    return vals


def pair_covariance(a, b, phi) -> float:
    """Sample covariance across replicas of (phi(X^1), phi(X^2)).

    ``a`` and ``b`` hold the states of two tagged particles at a fixed time,
    one (replicas, d) array each; ``phi`` is a bounded test function that
    maps a (..., d) state array to its (...) values in one call. A usable
    estimate needs at least ~100 replicas.
    """
    fa = _phi_values(phi, np.asarray(a, dtype=float))
    fb = _phi_values(phi, np.asarray(b, dtype=float))
    if fa.size != fb.size:
        raise ValueError("replica counts differ")
    return float(np.mean((fa - fa.mean()) * (fb - fb.mean())) * fa.size / (fa.size - 1))


def pair_covariance_pooled(states, phi) -> float:
    """Two-particle covariance estimated from all ordered pairs of an
    exchangeable system, averaged over replicas.

    ``states`` has shape (replicas, n, d), and ``phi`` maps it to its
    (replicas, n) values in one call. By exchangeability every pair
    (i, j), i != j, has the same joint law as the tagged pair (1, 2), so
    the all-pairs U-statistic estimates the same covariance as
    ``pair_covariance`` with a variance smaller by roughly a factor n^2.
    The mean E[phi] is pooled over replicas and particles.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim == 2:
        states = states[:, :, None]
    replicas, n, _ = states.shape
    if n < 2:
        raise ValueError("need at least two particles per replica")
    vals = _phi_values(phi, states)
    m = vals.mean()
    s = vals.sum(axis=1)
    q = (vals ** 2).sum(axis=1)
    cross = (s ** 2 - q) / (n * (n - 1))  # per-replica mean of phi_i phi_j over i != j
    return float(cross.mean() - m ** 2)


def kuramoto_order_parameter(phases) -> float:
    """Magnitude of the complex mean of e^{i theta}: 0 is disorder, 1 is
    full synchronization."""
    phases = np.asarray(phases, dtype=float).reshape(-1)
    return float(np.abs(np.mean(np.exp(1j * phases))))


@dataclass
class RateFit:
    """Least-squares power-law fit error ~ C * N^slope on log-log axes."""

    slope: float
    intercept: float
    r2: float
    points: list

    def to_json(self) -> str:
        return json.dumps(
            {"slope": self.slope, "intercept": self.intercept, "r2": self.r2, "points": self.points},
            sort_keys=True,
        )


def fit_rate(errors: dict) -> RateFit:
    """Fit log(error) against log(N) for a map N -> error.

    Requires at least 3 distinct N and strictly positive errors.
    """
    if len(errors) < 3:
        raise ValueError("need at least 3 distinct N to fit a rate")
    ns = np.asarray(sorted(errors), dtype=float)
    errs = np.asarray([errors[n] for n in sorted(errors)], dtype=float)
    if np.any(errs <= 0) or not np.all(np.isfinite(errs)):
        raise ValueError("errors must be positive and finite")
    x, y = np.log(ns), np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid ** 2) / ss_tot
    points = [[float(a), float(b)] for a, b in zip(x, y)]
    return RateFit(slope=float(slope), intercept=float(intercept), r2=float(r2), points=points)
