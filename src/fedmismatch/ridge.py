"""Ridge regression on completed data, federated averaging, local baseline.

Every completed-data fit reads the clients' completed sums
(``moments.completed_sums``); no completed row is built. The one-shot
estimator solves (sigma_hat + lambda I) theta = gamma_hat with sigma_hat,
gamma_hat the raw moments of the completed data. lambda = 0 falls back to
the minimum-norm solution through the cutoff pseudoinverse.

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

``estimate_m`` gives the truncation level max |y|; predictors clip to it
through ``ClientwisePredictor.trunc_m``, the only truncation step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import ridge_solve, spectral_radius
from .impute import ImputationMap, ImputedDataset
from .model import ClientwisePredictor, Dataset, crop_matrix, crop_vector
from .moments import completed_sums, imputed_data_moments

__all__ = [
    "ridge_closed_form",
    "FedAvgResult",
    "fedavg_ridge",
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
    return ridge_solve(*imputed_data_moments(data), lam)


@dataclass(frozen=True)
class FedAvgResult:
    theta: np.ndarray
    objective_trace: tuple[float, ...]
    diverged: bool
    rounds_run: int


def fedavg_ridge(
    data: ImputedDataset,
    lam: float,
    rounds: int,
    local_steps: int = 1,
    stop_tol: float | None = None,
) -> FedAvgResult:
    """Federated averaging on the global ridge objective over the clients
    that own rows.

    The step size eta = 1 / (lambda_max(sigma_hat) + lambda) guarantees a
    non-increasing objective for single local steps. Ten consecutive
    objective increases abort the run with ``diverged`` set. ``stop_tol``
    optionally stops once the server iterate moves less than that in L2.

    Client k's local step is theta -> M_k theta + eta g_k / n_k with
    M_k = I - eta (G_k / n_k + lambda I), where G_k and g_k are its
    ``completed_sums``; its s local steps are the affine map A_k = M_k^s,
    b_k = sum_{j<s} M_k^j eta g_k / n_k, and a round is their n_k / n
    weighted average, computed once. The objective needs only the pooled
    sums: (theta^T sigma theta - 2 gamma^T theta + y^T y) / (2n) + lambda/2 ||theta||^2.
    """
    if rounds < 0 or local_steps < 1:
        raise ValueError("need rounds >= 0 and local_steps >= 1")
    sigma, gamma = imputed_data_moments(data)
    d, n = data.d, data.n
    step_size = 1.0 / (spectral_radius(sigma) + lam)
    eye = np.eye(d)
    a_bar = np.zeros((d, d))
    b_bar = np.zeros(d)
    for n_k, gram, cross in completed_sums(data):
        if n_k == 0:
            continue
        m_k = eye - step_size * (gram / n_k + lam * eye)
        a_k, b_k = eye, np.zeros(d)
        for _ in range(local_steps):
            a_k, b_k = m_k @ a_k, m_k @ b_k + step_size * cross / n_k
        a_bar += n_k / n * a_k
        b_bar += n_k / n * b_k
    yy = float(data.y @ data.y) / n

    def objective(theta: np.ndarray) -> float:
        return (float(theta @ sigma @ theta) - 2 * float(gamma @ theta) + yy) / 2 + lam / 2 * float(theta @ theta)

    theta = np.zeros(d)
    trace = [objective(theta)]
    increases = 0
    diverged = False
    run = 0
    for t in range(1, rounds + 1):
        new_theta = a_bar @ theta + b_bar
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


def local_learning(data: Dataset, lam: float, trunc_m: float | None = None) -> ClientwisePredictor:
    """Per-client ridge on own samples only, penalty lambda / rho_k with the
    declared share rho_k.

    Clients with no samples predict zero. lambda = 0 uses the minimum-norm
    solution per client.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    thetas: dict[int, np.ndarray] = {}
    for c in data.clients:
        lm = data.local_moments[c.id]
        if lm.count == 0:
            thetas[c.id] = np.zeros(c.pattern.size)
            continue
        sigma_k = crop_matrix(lm.sigma, c.pattern, c.pattern)
        gamma_k = crop_vector(lm.gamma, c.pattern)
        thetas[c.id] = ridge_solve(sigma_k, gamma_k, lam / c.rho)
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m)
