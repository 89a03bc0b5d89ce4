"""Ridge regression on completed data, federated averaging, local baseline.

Every completed-data fit takes the masked ``Dataset`` and an
``ImputationMap`` side by side and reads the clients' completed sums
(``moments.completed_sums``); no completed row is built. The one-shot
estimator solves (sigma_hat + lambda I) theta = gamma_hat with sigma_hat,
gamma_hat the raw moments of the completed data, through one ``eigh`` of
sigma_hat for every lambda (``_linalg.SymEig``); lambda = 0 gives the
minimum-norm solution, cutting eigenvalues with |w| <= 1e-10 max|w|.

``fedavg_ridge`` minimizes the same objective,

    (1/2n) sum_i (y_i - theta . x_i)^2 + (lambda/2) ||theta||^2,

by rounds of local full-batch gradient steps followed by sample-weighted
averaging. With one local step per round the averaged update is exactly
centralized gradient descent for any sharding, so the iterates converge to
the closed-form solution; with more local steps the fixed point can drift by
the usual client heterogeneity bias, which is why local_steps defaults to 1.
It runs every requested round unless the objective rises ten rounds in a
row, which it reports as divergence.

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

from ._linalg import SymEig
from .impute import ImputationMap
from .model import ClientwisePredictor, Dataset, crop_matrix, crop_vector
from .moments import aggregate_zero_imputed, completed_sums, imputed_data_moments

__all__ = [
    "ridge_closed_form",
    "FedAvgResult",
    "fedavg_ridge",
    "estimate_m",
    "itr_predictor",
    "local_learning",
]


def ridge_closed_form(data: Dataset, imputer: ImputationMap, lam: float) -> np.ndarray:
    """One-shot ridge coefficients from the moments of ``data`` completed by
    ``imputer``.

    lambda = 0 returns the minimum-norm least-squares solution.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    pair = imputed_data_moments(data, imputer)
    return SymEig(pair.sigma).solve(pair.gamma, lam)


@dataclass(frozen=True)
class FedAvgResult:
    theta: np.ndarray
    objective_trace: tuple[float, ...]
    diverged: bool
    rounds_run: int


def fedavg_ridge(
    data: Dataset,
    imputer: ImputationMap,
    lam: float,
    rounds: int,
    local_steps: int = 1,
) -> FedAvgResult:
    """Federated averaging on the global ridge objective over the clients
    that own rows.

    The step size eta = 1 / (lambda_max(sigma_hat) + lambda) guarantees a
    non-increasing objective for single local steps; when that sum is 0
    (lambda = 0 and no client observes anything) the objective is constant
    and eta = 0 keeps theta at 0. Ten consecutive objective increases abort
    the run with ``diverged`` set.

    Client k's local step is theta -> M_k theta + eta g_k / n_k with
    M_k = I - eta (G_k / n_k + lambda I), where G_k and g_k are its
    ``completed_sums``; its s local steps are the affine map A_k = M_k^s,
    b_k = sum_{j<s} M_k^j eta g_k / n_k, and a round is their n_k / n
    weighted average, computed once. The objective needs only the pooled
    sums: (theta^T sigma theta - 2 gamma^T theta + y^T y) / (2n) + lambda/2 ||theta||^2.
    """
    if rounds < 0 or local_steps < 1:
        raise ValueError("need rounds >= 0 and local_steps >= 1")
    sums = list(completed_sums(data, imputer))
    pair = aggregate_zero_imputed(sums)
    sigma, gamma = pair.sigma, pair.gamma
    d, n = data.d, data.n
    curvature = SymEig(sigma).radius() + lam
    step_size = 1.0 / curvature if curvature > 0 else 0.0
    eye = np.eye(d)
    a_bar = np.zeros((d, d))
    b_bar = np.zeros(d)
    for lm in sums:
        n_k = lm.count
        if n_k == 0:
            continue
        m_k = eye - step_size * (lm.sigma_sum / n_k + lam * eye)
        a_k, b_k = eye, np.zeros(d)
        for _ in range(local_steps):
            a_k, b_k = m_k @ a_k, m_k @ b_k + step_size * lm.gamma_sum / n_k
        a_bar += n_k / n * a_k
        b_bar += n_k / n * b_k
    yy = float(data.y @ data.y) / n

    def objective(theta: np.ndarray) -> float:
        return (float(theta @ sigma @ theta) - 2 * float(gamma @ theta) + yy) / 2 + lam / 2 * float(theta @ theta)

    theta = np.zeros(d)
    trace = [objective(theta)]
    increases = 0
    for _ in range(rounds):
        theta = a_bar @ theta + b_bar
        trace.append(objective(theta))
        increases = increases + 1 if trace[-1] > trace[-2] else 0
        if increases >= 10:
            break
    return FedAvgResult(theta=theta, objective_trace=tuple(trace), diverged=increases >= 10, rounds_run=len(trace) - 1)


def estimate_m(data) -> float:
    """Data-driven truncation level: the largest observed |y|."""
    y = np.asarray(data.y if hasattr(data, "y") else data, dtype=np.float64)
    if y.size == 0:
        raise ValueError("cannot estimate a truncation level from no responses")
    return float(np.max(np.abs(y)))


def itr_predictor(imputer: ImputationMap, theta: np.ndarray, clients,
                  trunc_m: float | None = None) -> ClientwisePredictor:
    """Compose impute-then-regress into effective coefficients for each of
    ``clients``.

    Predicting theta . complete(x_obs) equals (theta_obs + S^T theta_mis)
    . x_obs, S the map of the client's pattern, so each client gets that
    folded vector; truncation happens at prediction time. A client whose
    pattern has no map raises ``KeyError``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    thetas: dict[int, np.ndarray] = {}
    for c in clients:
        pattern, s = c.pattern, imputer.maps[c.pattern]
        if theta.shape != (pattern.d,):
            raise ValueError(f"theta must be ({pattern.d},), got {theta.shape}")
        obs = list(pattern.observed)
        mis = list(pattern.missing)
        eff = theta[obs] if obs else np.zeros(0)
        if mis:
            eff = eff + s.T @ theta[mis]
        thetas[c.id] = eff
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
        thetas[c.id] = SymEig(sigma_k).solve(gamma_k, lam / c.rho)
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m)
