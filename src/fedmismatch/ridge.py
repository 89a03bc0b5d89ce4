"""Ridge regression on completed data, federated averaging, local baseline.

The one-shot estimator solves (sigma_hat + lambda I) theta = gamma_hat with
sigma_hat, gamma_hat the raw moments of the completed data. lambda = 0 falls
back to the minimum-norm solution through the cutoff pseudoinverse.

``fedavg_ridge`` minimizes the same objective,

    (1/2n) sum_i (y_i - theta . x_i)^2 + (lambda/2) ||theta||^2,

by rounds of local full-batch gradient steps followed by sample-weighted
averaging. With one local step per round the averaged update is exactly
centralized gradient descent for any sharding, so the iterates converge to
the closed-form solution; with more local steps the fixed point can drift by
the usual client heterogeneity bias, which is why local_steps defaults to 1.

``local_learning`` is the no-sharing baseline: each client ridge-regresses
on its own observed block with penalty lambda / rho_k, from its observed
sums (``Dataset.local_moments``), and clients that drew no samples predict
zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import pinv_solve, spectral_radius
from .impute import ImputationMap, ImputedDataset
from .model import ClientwisePredictor, Dataset, crop_matrix, crop_vector
from .moments import gram_fold, imputed_data_moments

__all__ = [
    "ridge_closed_form",
    "FedAvgResult",
    "fedavg_ridge",
    "truncate",
    "estimate_m",
    "itr_predictor",
    "local_learning",
]


def ridge_closed_form(data: ImputedDataset, lam: float) -> np.ndarray:
    """One-shot ridge coefficients from completed-data moments.

    lambda = 0 returns the minimum-norm least-squares solution.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    sigma, gamma = imputed_data_moments(data)
    if lam == 0:
        return pinv_solve(sigma, gamma)
    return np.linalg.solve(sigma + lam * np.eye(data.d), gamma)


def local_gradient_steps(
    theta: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    steps: int,
    step_size: float,
) -> np.ndarray:
    """Full-batch gradient steps on one shard's normalized ridge objective."""
    theta = theta.copy()
    n_k = len(y)
    for _ in range(steps):
        grad = x.T @ (x @ theta - y) / n_k + lam * theta
        theta = theta - step_size * grad
    return theta


@dataclass(frozen=True)
class FedAvgResult:
    theta: np.ndarray
    objective_trace: tuple[float, ...]
    diverged: bool
    rounds_run: int


def fedavg_ridge(
    shards: list[tuple[np.ndarray, np.ndarray]],
    lam: float,
    rounds: int,
    local_steps: int = 1,
    stop_tol: float | None = None,
) -> FedAvgResult:
    """Federated averaging on the global ridge objective.

    The step size 1 / (lambda_max(sigma_hat) + lambda) guarantees a
    non-increasing objective for single local steps. Ten consecutive
    objective increases abort the run with ``diverged`` set. ``stop_tol``
    optionally stops once the server iterate moves less than that in L2.
    Shards are visited and averaged in the given order.
    """
    if rounds < 0 or local_steps < 1:
        raise ValueError("need rounds >= 0 and local_steps >= 1")
    if not shards:
        raise ValueError("no shards")
    d = shards[0][0].shape[1]
    n = sum(len(y) for _, y in shards)
    if any(len(y) == 0 for _, y in shards):
        raise ValueError("empty shards are not allowed; drop them before calling")
    weights = np.array([len(y) / n for _, y in shards])
    sigma = gram_fold(shards, d)[0] / n
    step_size = 1.0 / (spectral_radius(sigma) + lam)

    def objective(theta: np.ndarray) -> float:
        val = 0.0
        for xk, yk in shards:
            r = yk - xk @ theta
            val += float(r @ r)
        return val / (2 * n) + lam / 2 * float(theta @ theta)

    theta = np.zeros(d)
    trace = [objective(theta)]
    increases = 0
    diverged = False
    run = 0
    for t in range(1, rounds + 1):
        locals_ = [
            local_gradient_steps(theta, xk, yk, lam, local_steps, step_size) for xk, yk in shards
        ]
        new_theta = np.zeros(d)
        for w, th in zip(weights, locals_):
            new_theta += w * th
        moved = float(np.linalg.norm(new_theta - theta))
        theta = new_theta
        run = t
        obj = objective(theta)
        increases = increases + 1 if obj > trace[-1] else 0
        trace.append(obj)
        if increases >= 10:
            diverged = True
            break
        if stop_tol is not None and moved <= stop_tol:
            break
    return FedAvgResult(theta=theta, objective_trace=tuple(trace), diverged=diverged, rounds_run=run)


def truncate(values, m: float):
    """Clip predictions to [-m, m]; m = 0 collapses everything to zero."""
    if m < 0:
        raise ValueError(f"truncation level must be >= 0, got {m}")
    return np.clip(values, -m, m)


def estimate_m(data) -> float:
    """Data-driven truncation level: the largest observed |y|."""
    y = np.asarray(data.y if hasattr(data, "y") else data, dtype=np.float64)
    if y.size == 0:
        raise ValueError("cannot estimate a truncation level from no responses")
    return float(np.max(np.abs(y)))


def itr_predictor(imputer: ImputationMap, theta: np.ndarray, trunc_m: float | None = None) -> ClientwisePredictor:
    """Compose impute-then-regress into per-client effective coefficients.

    Predicting theta . complete(x_obs) equals (theta_obs + S_k^T theta_mis)
    . x_obs, so each client gets that folded vector; truncation happens at
    prediction time. Patterns absent from the imputer cannot be predicted.
    """
    theta = np.asarray(theta, dtype=np.float64)
    thetas: dict[int, np.ndarray] = {}
    for cid, pattern in imputer.patterns.items():
        if theta.shape != (pattern.d,):
            raise ValueError(f"theta must be ({pattern.d},), got {theta.shape}")
        obs = list(pattern.observed)
        mis = list(pattern.missing)
        eff = theta[obs] if obs else np.zeros(0)
        if mis:
            eff = eff + imputer.maps[cid].T @ theta[mis]
        thetas[cid] = eff
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m)


def local_learning(
    data: Dataset,
    lam: float,
    rho_source: str = "true",
    trunc_m: float | None = None,
) -> ClientwisePredictor:
    """Per-client ridge on own samples only, penalty scaled by 1 / share.

    ``rho_source`` picks the share estimate: "true" uses the declared
    client shares, "empirical" uses n_k / n. Clients with no samples (or lambda_k
    effectively infinite) predict zero. lambda = 0 uses the minimum-norm
    solution per client.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if rho_source not in ("true", "empirical"):
        raise ValueError(f"rho_source must be 'true' or 'empirical', got {rho_source!r}")
    thetas: dict[int, np.ndarray] = {}
    for c in data.clients:
        lm = data.local_moments[c.id]
        if lm.count == 0:
            thetas[c.id] = np.zeros(c.pattern.size)
            continue
        sigma_k = crop_matrix(lm.sigma, c.pattern, c.pattern)
        gamma_k = crop_vector(lm.gamma, c.pattern)
        rho = c.rho if rho_source == "true" else lm.count / data.n
        lam_k = lam / rho
        if lam_k == 0:
            thetas[c.id] = pinv_solve(sigma_k, gamma_k)
        else:
            thetas[c.id] = np.linalg.solve(sigma_k + lam_k * np.eye(c.pattern.size), gamma_k)
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m)
