"""Consensus-based optimization and ensemble Kalman sampling, with an exact
gaussian posterior oracle for the linear-inverse-problem regime."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, TimeGrid, weighted_mean, write_csv
from .mckean import McKeanModel, _batch_width, _noise_steps, _raise_non_finite, simulate


@dataclass
class CboConfig:
    """Consensus-based optimization run description.

    The swarm contracts toward the exp(-alpha G)-weighted mean of the
    positions while an isotropic multiplicative noise keeps exploring;
    ``eps_heaviside`` = 0 (the default) drops the gating factor entirely,
    so the drift is always on; a positive value uses a logistic smoothing
    of width eps of the unit step.
    """

    objective: callable  # maps (..., n, d) points to (..., n) values
    alpha: float
    lambda_drift: float
    sigma_noise: float
    dt: float
    steps: int
    n: int
    dim: int
    eps_heaviside: float = 0.0
    init: object = None  # (n, dim) array, or callable (n, dim, rng) -> array; default N(0, I)

    def __post_init__(self):
        if self.alpha <= 0 or self.lambda_drift <= 0 or self.dt <= 0:
            raise ValueError("alpha, lambda_drift and dt must be positive")
        if self.sigma_noise < 0 or self.eps_heaviside < 0:
            raise ValueError("sigma_noise and eps_heaviside must be nonnegative")
        if self.n < 1 or self.dim < 1 or self.steps < 0:
            raise ValueError("need n >= 1, dim >= 1 and steps >= 0")


@dataclass
class CboResult:
    consensus: np.ndarray
    best_particle: np.ndarray
    objective_at_consensus: float
    consensus_trajectory: np.ndarray  # (steps + 1, dim)

    def write_trajectory_csv(self, path):
        dim = self.consensus_trajectory.shape[1]
        cols = ",".join(f"v{k}" for k in range(dim))
        write_csv(path, f"step,{cols}", ((k, *row) for k, row in enumerate(self.consensus_trajectory)))


def _cbo_init(cfg: CboConfig, rng: RngStream) -> np.ndarray:
    if cfg.init is None:
        return rng.normal((cfg.n, cfg.dim))
    if callable(cfg.init):
        return np.asarray(cfg.init(cfg.n, cfg.dim, rng), dtype=float).reshape(cfg.n, cfg.dim)
    return np.array(cfg.init, dtype=float).reshape(cfg.n, cfg.dim)


def cbo_minimize(cfg: CboConfig, streams: list[RngStream]) -> list[CboResult]:
    """Minimize an objective with the consensus-based particle dynamics
    dX = -lambda (X - v) H(G(X) - G(v)) dt + sqrt(2) sigma |X - v| dB,
    one swarm per stream; returns one result per stream.

    The consensus point v is the exp(-alpha G)-weighted position mean,
    computed in the log domain so large alpha never underflows. A result
    holds the final consensus point, the best particle of the final swarm
    and the consensus trajectory. The swarms advance as (R, n, d) arrays in
    the groups of ``mckean.simulate``, swarm r drawing from ``streams[r]``
    only. The objective is evaluated once per step, plus once at v when the
    gate is on; a non-finite value raises a StepError naming its replica.
    """
    results = []
    width = _batch_width(cfg.n, cfg.dim)
    sqrt_2dt = math.sqrt(2.0 * cfg.dt)
    for first in range(0, len(streams), width):
        group = streams[first:first + width]
        states = np.stack([_cbo_init(cfg, s) for s in group])
        g_vals = np.asarray(cfg.objective(states), dtype=float)
        if not np.all(np.isfinite(g_vals)):
            replica, particle = np.argwhere(~np.isfinite(g_vals))[0].tolist()
            raise ValueError("objective must be finite at every initial particle"
                             f" | replica={first + replica} | particle={particle}")
        noise = _noise_steps(group, (cfg.n, cfg.dim), cfg.steps)
        trajectory = np.empty((len(group), cfg.steps + 1, cfg.dim))
        for k in range(cfg.steps + 1):
            trajectory[:, k] = weighted_mean(states, log_w=lambda _: -cfg.alpha * g_vals)
            if k == cfg.steps:
                break
            v = trajectory[:, k, None]
            gap = states - v
            if cfg.eps_heaviside > 0.0:
                g_v = np.asarray(cfg.objective(v), dtype=float)
                # logistic smoothing of the unit step, in overflow-safe form
                gate = 0.5 * (1.0 + np.tanh((g_vals - g_v) / (2.0 * cfg.eps_heaviside)))[..., None]
            else:
                gate = 1.0
            drift = -cfg.lambda_drift * gap * gate
            radius = np.linalg.norm(gap, axis=-1, keepdims=True)
            states = states + drift * cfg.dt + sqrt_2dt * cfg.sigma_noise * radius * next(noise)
            g_vals = np.asarray(cfg.objective(states), dtype=float)
            if not np.all(np.isfinite(g_vals)):
                _raise_non_finite("objective", g_vals, True, first, k, k * cfg.dt)

        best = states[np.arange(len(group)), np.argmin(g_vals, axis=-1)]
        g_cons = np.asarray(cfg.objective(trajectory[:, -1, None]), dtype=float)
        results += [CboResult(consensus=trajectory[r, -1], best_particle=best[r],
                              objective_at_consensus=float(g_cons[r, 0]), consensus_trajectory=trajectory[r])
                    for r in range(len(group))]
    return results


def spd_matrix(name: str, mat) -> np.ndarray:
    """``mat`` as a 2-D float array. Raises ValueError naming ``name`` unless
    it is a numeric, symmetric, positive definite (Cholesky) matrix."""
    try:
        arr = np.atleast_2d(np.asarray(mat, dtype=float))
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be a numeric matrix: {err}") from err
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.allclose(arr, arr.T):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} must be positive definite") from err
    return arr


@dataclass
class EksConfig:
    """Ensemble Kalman sampler configuration for y = G(x) + noise.

    ``forward`` is a (k, d) matrix or a callable acting on rows;
    ``forward_jacobian(x)``, needed only in gradient mode with a callable
    forward map, returns the (k, d) Jacobian at x. Noise and prior
    covariances must pass a Cholesky factorization.
    """

    forward: object
    Gamma: np.ndarray
    Gamma0: np.ndarray
    y: np.ndarray
    n: int
    dt: float
    steps: int
    derivative_free: bool = False
    forward_jacobian: callable | None = None

    def __post_init__(self):
        if not (self.n >= 1 and self.steps >= 1 and 0 < self.dt < math.inf):
            raise ValueError(f"need n >= 1, steps >= 1 and a finite dt > 0; got n={self.n}, "
                             f"steps={self.steps} and dt={self.dt}")
        self.Gamma = spd_matrix("Gamma", self.Gamma)
        self.Gamma0 = spd_matrix("Gamma0", self.Gamma0)
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))

    def apply_forward(self, states: np.ndarray) -> np.ndarray:
        if callable(self.forward):
            out = np.asarray(self.forward(states), dtype=float)
        else:
            out = states @ np.asarray(self.forward, dtype=float).T
        return out.reshape(states.shape[0], -1)


def matrix_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, negative eigenvalues
    clipped at zero (ensemble covariances can be rank deficient)."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def eks_drift(cfg: EksConfig, states: np.ndarray) -> np.ndarray:
    """Per-particle drift of the Kalman sampler dynamics at the given
    states, using the configured mode. Exposed so the stationarity of the
    exact posterior can be checked directly."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    mean = states.mean(axis=0)
    centered = states - mean
    cov = centered.T @ centered / n
    gamma_inv = np.linalg.inv(cfg.Gamma)
    gamma0_inv = np.linalg.inv(cfg.Gamma0)
    misfit = (cfg.apply_forward(states) - cfg.y) @ gamma_inv.T
    if cfg.derivative_free:
        g_vals = cfg.apply_forward(states)
        cross = centered.T @ (g_vals - g_vals.mean(axis=0)) / n
        return -misfit @ cross.T - states @ (cov @ gamma0_inv.T).T
    if not callable(cfg.forward):
        jac = np.atleast_2d(np.asarray(cfg.forward, dtype=float))
        grad_data = misfit @ jac
    elif cfg.forward_jacobian is not None:
        grad_data = np.stack([cfg.forward_jacobian(x).T @ m for x, m in zip(states, misfit)])
    else:
        raise ValueError("gradient mode with a callable forward map needs forward_jacobian")
    return -(grad_data + states @ gamma0_inv.T) @ cov.T


def eks_sample(cfg: EksConfig, e0: Ensemble, rng: RngStream) -> Ensemble:
    """Euler-Maruyama on the ensemble Kalman sampler dynamics, through ``mckean.simulate``.

    Gradient mode evolves dX = -Cov grad PhiR(X) dt + sqrt(2 Cov) dB with
    grad PhiR(x) = J(x)^T Gamma^-1 (G(x) - y) + Gamma0^-1 x. The
    derivative-free mode replaces Cov * J^T by the cross-covariance
    Cov[mu, G] in the data-misfit term while keeping Cov on the prior term,
    which coincides with gradient mode exactly when G is linear. The two
    modes consume identical noise, so runs with a shared stream can be
    compared trajectory-wise. A non-finite drift or diffusion raises a
    StepError naming its step and particle.
    """
    n, d = e0.states.shape
    if n != cfg.n:
        raise ValueError(f"ensemble has {n} particles but the config says {cfg.n}")
    if n < d + 1:
        warnings.warn(f"n = {n} <= dim = {d}: ensemble covariance is rank deficient")
    warned = False

    def diffusion(states, mu):
        nonlocal warned
        centered = states - states.mean(axis=0)
        cov = centered.T @ centered / n  # measure-functional normalization, 1/N
        if not warned and np.all(np.abs(cov) < 1e-300):
            warnings.warn("ensemble collapsed to a point: dynamics are frozen")
            warned = True
        # one sqrt(2 Cov) shared by every particle, as (n, d, d) full matrices
        return np.broadcast_to(matrix_sqrt_psd(2.0 * cov), (n, d, d))

    model = McKeanModel(drift=lambda states, mu: eks_drift(cfg, states), diffusion=diffusion, dim=d,
                        family="eks")
    return simulate(model, e0, TimeGrid(0.0, cfg.steps * cfg.dt, cfg.dt), rng)


def posterior_gaussian_oracle(G, Gamma, Gamma0, y):
    """Exact posterior moments for the linear-gaussian inverse problem.

    cov = (Gamma0^-1 + G^T Gamma^-1 G)^-1 and mean = cov G^T Gamma^-1 y,
    both obtained through factorized solves rather than explicit inverses
    of the assembled sums.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    Gamma0 = np.atleast_2d(np.asarray(Gamma0, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = G.shape[1]
    gi_g = np.linalg.solve(Gamma, G)
    gi_y = np.linalg.solve(Gamma, y)
    precision = np.linalg.solve(Gamma0, np.eye(d)) + G.T @ gi_g
    try:
        cov = np.linalg.solve(precision, np.eye(d))
        mean = np.linalg.solve(precision, G.T @ gi_y)
    except np.linalg.LinAlgError as err:
        raise ValueError("posterior normal matrix is singular") from err
    return mean, cov
