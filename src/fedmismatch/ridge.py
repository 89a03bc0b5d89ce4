"""Ridge regression on completed data, federated averaging, local baseline.

Every completed-data fit runs on the server and reads only what the
senders sent: their observed sums (``uploads``, sender id to
``LocalMoments``) and an ``ImputationMap``, folded into completed sums
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
row or stops being finite, which it reports as divergence. Its trace
leaves out the constant y^T y / 2n, which no message carries and no
stopping decision depends on.

``local_learning`` is the no-sharing baseline: each client ridge-regresses
on its own observed block with penalty lambda / rho_k, from its observed
sums (its entry of ``uploads``), and clients that drew no samples predict
zero.

``estimate_m`` gives the truncation level max |y|; predictors clip to it
through ``ClientwisePredictor.trunc_m``, the only truncation step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import SymEig
from .impute import ImputationMap
from .model import ClientwisePredictor, Dataset, LocalMoments
from .moments import aggregate_zero_imputed, completed_sums, imputed_data_moments

__all__ = [
    "ridge_closed_form",
    "FedAvgResult",
    "fedavg_ridge",
    "estimate_m",
    "itr_predictor",
    "local_learning",
]


def ridge_closed_form(uploads: Mapping[int, LocalMoments], imputer: ImputationMap, lam: float) -> np.ndarray:
    """One-shot ridge coefficients from the senders' ``uploads`` completed by
    ``imputer``.

    lambda = 0 returns the minimum-norm least-squares solution.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    pair = imputed_data_moments(uploads, imputer)
    return SymEig(pair.sigma).solve(pair.gamma, lam)


@dataclass(frozen=True)
class FedAvgResult:
    theta: np.ndarray
    objective_trace: tuple[float, ...]
    diverged: bool
    rounds_run: int


def fedavg_ridge(uploads: Mapping[int, LocalMoments], imputer: ImputationMap, lam: float, rounds: int,
                 local_steps: int = 1) -> FedAvgResult:
    """Federated averaging on the global ridge objective over the senders
    of ``uploads``.

    The step size eta = 1 / (lambda_max(sigma_hat) + lambda) guarantees a
    non-increasing objective for single local steps; when that sum is 0
    (lambda = 0 and no client observes anything) the objective is constant
    and eta = 0 keeps theta at 0. Ten consecutive objective increases, or an
    objective that overflows to inf or NaN, abort the run with ``diverged``
    set.

    Client k's completed sums (``completed_sums``) are B_k G_k B_k^T and
    B_k g_k, where (n_k, G_k, g_k) are its observed-block sums and
    B_k = [I; S_k] is its completion map placed in d coordinates
    (d x |O_k|; S_k = 0 under the zero map). Its local step is
    theta -> M_k theta + eta B_k g_k / n_k with
    M_k = I - eta (B_k G_k B_k^T / n_k + lambda I); its s local steps are
    the affine map A_k = M_k^s, b_k = sum_{j<s} M_k^j eta B_k g_k / n_k
    (``_local_steps``), and a round is their n_k / n weighted average,
    computed once. The trace is the objective less its constant y^T y / 2n,
    so it needs only the pooled sums:
    theta^T sigma theta / 2 - gamma^T theta + lambda/2 ||theta||^2.

    A round sees a client only through its observed block. With
    a = 1 - eta lambda, phi = B_k^T theta and C_k = B_k^T B_k,

        A_k theta + b_k = a^s theta - eta B_k v_s,
        v_0 = 0,  v_{j+1} = a v_j + (G_k (a^j phi - eta C_k v_j) - g_k) / n_k,

    so v_s is an |O_k|-vector that the client computes from phi, C_k and
    its own sums. A round can therefore broadcast theta, which a client
    holding its map turns into phi, or send each client its phi, whichever
    totals fewer (``fedsim``); it takes back v_s, |O_k| floats, and the
    server applies the shrinkage a^s itself. A move of theta by delta with
    B_k^T delta = 0 moves the client's result by a^s delta.
    """
    if rounds < 0 or local_steps < 1:
        raise ValueError("need rounds >= 0 and local_steps >= 1")
    sums = list(completed_sums(uploads, imputer))
    pooled = aggregate_zero_imputed(sums)
    sigma, gamma, d, n = pooled.sigma, pooled.gamma, pooled.d, pooled.count
    curvature = SymEig(sigma).radius() + lam
    step_size = 1.0 / curvature if curvature > 0 else 0.0
    a_bar = np.zeros((d, d))
    b_bar = np.zeros(d)
    for lm in sums:
        if lm.count:
            a_k, b_k = _local_steps(lm, step_size, lam, local_steps)
            a_bar += lm.count / n * a_k
            b_bar += lm.count / n * b_k

    def objective(theta: np.ndarray) -> float:
        return float(theta @ sigma @ theta) / 2 - float(gamma @ theta) + lam / 2 * float(theta @ theta)

    theta = np.zeros(d)
    trace = [objective(theta)]
    increases, diverged = 0, False
    for _ in range(rounds):
        theta = a_bar @ theta + b_bar
        trace.append(objective(theta))
        increases = increases + 1 if trace[-1] > trace[-2] else 0
        diverged = increases >= 10 or not np.isfinite(trace[-1])
        if diverged:
            break
    return FedAvgResult(theta=theta, objective_trace=tuple(trace), diverged=diverged, rounds_run=len(trace) - 1)


def _local_steps(lm, step_size: float, lam: float, local_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One client's ``local_steps`` gradient steps from its completed sums
    ``lm`` (n_k >= 1) as the affine map theta -> A_k theta + b_k."""
    n_k, eye = lm.count, np.eye(len(lm.gamma_sum))
    m_k = eye - step_size * (lm.sigma_sum / n_k + lam * eye)
    a_k, b_k = eye, np.zeros(len(eye))
    for _ in range(local_steps):
        a_k, b_k = m_k @ a_k, m_k @ b_k + step_size * lm.gamma_sum / n_k
    return a_k, b_k


def estimate_m(data: Dataset) -> float:
    """Data-driven truncation level: the largest |y| of ``data``."""
    if data.y.size == 0:
        raise ValueError("cannot estimate a truncation level from no responses")
    return float(np.max(np.abs(data.y)))


def itr_predictor(imputer: ImputationMap, theta: np.ndarray, clients,
                  trunc_m: float | None = None) -> ClientwisePredictor:
    """Compose impute-then-regress into effective coefficients for each of
    ``clients``.

    Predicting theta . complete(x_obs) equals (theta_obs + S^T theta_mis) .
    x_obs, S the map of the client's pattern: one vector per distinct pattern,
    shared by its clients (theta's shape is checked there too); truncation
    happens at prediction time.
    """
    theta = np.asarray(theta, dtype=np.float64)
    clients = tuple(clients)
    folded = {}
    for p in dict.fromkeys(c.pattern for c in clients):
        s = imputer.maps[p]
        if theta.shape != (p.d,):
            raise ValueError(f"theta must be ({p.d},), got {theta.shape}")
        eff = theta[list(p.observed)]
        folded[p] = eff + s.T @ theta[list(p.missing)] if p.missing else eff
    return ClientwisePredictor(thetas={c.id: folded[c.pattern] for c in clients}, trunc_m=trunc_m)


def local_learning(clients, uploads: Mapping[int, LocalMoments], lam: float,
                   trunc_m: float | None = None) -> ClientwisePredictor:
    """Ridge of each of ``clients`` on its own upload alone (``uploads``: sender
    id to ``LocalMoments``), penalty lambda / rho_k with the declared share
    rho_k. A client without an upload predicts zero; lambda = 0 uses the
    minimum-norm solution per client."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    thetas: dict[int, np.ndarray] = {}
    for c in clients:
        lm = uploads.get(c.id)
        thetas[c.id] = np.zeros(c.pattern.size) if lm is None else SymEig(lm.sigma).solve(lm.gamma, lam / c.rho)
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m)
