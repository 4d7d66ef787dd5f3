"""Consensus-based optimization and ensemble Kalman sampling, with an exact
gaussian posterior oracle for the linear-inverse-problem regime."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Ensemble, RngStream, TimeGrid, weighted_mean, write_csv
from .mckean import McKeanModel, _raise_non_finite, simulate


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
        if self.alpha <= 0 or self.lambda_drift <= 0 or not 0 < self.dt * max(1, self.steps) < math.inf:
            raise ValueError("alpha, lambda_drift and dt must be positive, and steps * dt finite")
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
    and the consensus trajectory. The swarms are one McKean model run by
    ``mckean.simulate``, swarm r drawing its initial points, then its
    increments, from ``streams[r]`` only. G is evaluated once per state
    array, at v in each step when the gate is on, and at the final v; a
    non-finite G or coefficient raises a StepError.
    """
    trajectory = np.empty((len(streams), cfg.steps + 1, cfg.dim))
    best = np.empty((len(streams), cfg.dim))
    seen = {}  # x - v, |x - v| and the gate of the states the observer saw last

    def observe(states, t, step, first):
        g_vals = np.asarray(cfg.objective(states), dtype=float)
        if not np.all(np.isfinite(g_vals)):
            if step == 0:
                replica, particle = np.argwhere(~np.isfinite(g_vals))[0].tolist()
                raise ValueError("objective must be finite at every initial particle"
                                 f" | replica={first + replica} | particle={particle}")
            _raise_non_finite("objective", g_vals, True, first, step - 1, (step - 1) * cfg.dt)
        rows = slice(first, first + len(states))
        v = trajectory[rows, step] = weighted_mean(states, log_w=lambda _: -cfg.alpha * g_vals)
        if step == cfg.steps:
            best[rows] = states[np.arange(len(states)), np.argmin(g_vals, axis=-1)]
            return
        v, gate = v[:, None], 1.0
        if cfg.eps_heaviside > 0.0:
            g_v = np.asarray(cfg.objective(v), dtype=float)
            # logistic smoothing of the unit step, in overflow-safe form
            gate = 0.5 * (1.0 + np.tanh((g_vals - g_v) / (2.0 * cfg.eps_heaviside)))[..., None]
        gap = states - v
        seen.update(gap=gap, gate=gate, radius=np.linalg.norm(gap, axis=-1, keepdims=True))

    # _em_loop observes every state array before stepping it, so seen holds that array's x - v and gate
    model = McKeanModel(drift=lambda x, points: -cfg.lambda_drift * seen["gap"] * seen["gate"], dim=cfg.dim,
                        diffusion=lambda x, points: math.sqrt(2.0) * cfg.sigma_noise * seen["radius"])
    x0 = np.array([_cbo_init(cfg, s) for s in streams]).reshape(-1, cfg.n, cfg.dim)
    if cfg.steps == 0:
        observe(x0, 0.0, 0, 0)
    else:
        simulate(model, x0, TimeGrid(0.0, cfg.steps * cfg.dt, cfg.dt), streams, observers=[observe])
    g_cons = np.asarray(cfg.objective(trajectory[:, -1, None]), dtype=float)
    return [CboResult(consensus=trajectory[r, -1], best_particle=best[r], objective_at_consensus=float(g_cons[r, 0]),
                      consensus_trajectory=trajectory[r]) for r in range(len(streams))]


def spd_matrix(name: str, mat) -> np.ndarray:
    """``mat`` as a 2-D float array. Raises ValueError naming ``name`` unless
    it is a numeric, finite, symmetric, positive definite (Cholesky) matrix."""
    try:
        arr = np.atleast_2d(np.asarray(mat, dtype=float))
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be a numeric matrix: {err}") from err
    _check_finite(name, arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.allclose(arr, arr.T):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} must be positive definite") from err
    return arr


def _check_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must hold finite numbers only")


@dataclass
class EksConfig:
    """Ensemble Kalman sampler configuration for y = G(x) + noise.

    ``forward`` is a finite (k, d) matrix or a callable acting on rows;
    ``forward_jacobian(x)``, needed only in gradient mode with a callable
    forward map, returns the (k, d) Jacobian at x. ``y`` holds k finite
    numbers (a callable forward takes k from y), the noise covariance
    ``Gamma`` is (k, k) and, for a matrix forward, the prior covariance
    ``Gamma0`` is (d, d); both must pass a Cholesky factorization. A field
    that breaks this raises ValueError naming it.
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
        _check_finite("y", self.y)
        if self.y.ndim != 1:
            raise ValueError(f"y must be a vector, got shape {self.y.shape}")
        k = len(self.y)
        if not callable(self.forward):
            self.forward = np.asarray(self.forward, dtype=float)
            _check_finite("forward", self.forward)
            if self.forward.ndim != 2:
                raise ValueError(f"forward must be a (k, d) matrix, got shape {self.forward.shape}")
            if self.forward.shape[0] != k:
                raise ValueError(f"y must hold k = {self.forward.shape[0]} numbers, one per row of forward, "
                                 f"got {k}")
            d = self.forward.shape[1]
            if self.Gamma0.shape != (d, d):
                raise ValueError(f"Gamma0 must be (d, d) = ({d}, {d}) for a forward of d = {d} columns, "
                                 f"got {self.Gamma0.shape}")
        if self.Gamma.shape != (k, k):
            raise ValueError(f"Gamma must be (k, k) = ({k}, {k}) for y of k = {k} numbers, got {self.Gamma.shape}")
        # inverted once here, not on every drift evaluation
        self._gamma_inv, self._gamma0_inv = np.linalg.inv(self.Gamma), np.linalg.inv(self.Gamma0)

    def apply_forward(self, states: np.ndarray) -> np.ndarray:
        if callable(self.forward):
            out = np.asarray(self.forward(states), dtype=float)
        else:
            out = states @ self.forward.T
        return out.reshape(states.shape[0], -1)


def matrix_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, negative eigenvalues
    clipped at zero (ensemble covariances can be rank deficient)."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@np.errstate(over="ignore", invalid="ignore")
def eks_drift(cfg: EksConfig, states: np.ndarray) -> np.ndarray:
    """Per-particle drift of the Kalman sampler dynamics at the given
    states, using the configured mode. Exposed so the stationarity of the
    exact posterior can be checked directly. An overflow gives non-finite
    rows without a numpy warning, so that ``mckean.simulate``'s check names
    the step and particle, whatever the warning filter."""
    states = np.asarray(states, dtype=float)
    n = states.shape[0]
    mean = states.mean(axis=0)
    centered = states - mean
    cov = centered.T @ centered / n
    g_vals = cfg.apply_forward(states)
    misfit = (g_vals - cfg.y) @ cfg._gamma_inv.T
    if cfg.derivative_free:
        cross = centered.T @ (g_vals - g_vals.mean(axis=0)) / n
        return -misfit @ cross.T - states @ (cov @ cfg._gamma0_inv.T).T
    if not callable(cfg.forward):
        grad_data = misfit @ cfg.forward
    elif cfg.forward_jacobian is not None:
        grad_data = np.stack([cfg.forward_jacobian(x).T @ m for x, m in zip(states, misfit)])
    else:
        raise ValueError("gradient mode with a callable forward map needs forward_jacobian")
    return -(grad_data + states @ cfg._gamma0_inv.T) @ cov.T


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

    def diffusion(states, points):
        nonlocal warned
        centered = states - states.mean(axis=0)
        cov = centered.T @ centered / n  # measure-functional normalization, 1/N
        if not warned and np.all(np.abs(cov) < 1e-300):
            warnings.warn("ensemble collapsed to a point: dynamics are frozen")
            warned = True
        # one sqrt(2 Cov) shared by every particle, as (n, d, d) full matrices
        return np.broadcast_to(matrix_sqrt_psd(2.0 * cov), (n, d, d))

    model = McKeanModel(drift=lambda states, points: eks_drift(cfg, states), diffusion=diffusion, dim=d)
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
