"""Shared test fixtures and independent numeric oracles.

The oracles here deliberately avoid the package's own linear algebra
helpers: quadratic minimization is done by plain gradient descent, traces by
dense solves, risks by direct formula evaluation. Agreement between package
closed forms and these slower paths is what the oracle tests certify.
"""
from __future__ import annotations

import numpy as np

from fedmismatch import ClientSpec, FeaturePattern, PopulationSpec, validate_federation


def random_psd(rng: np.random.Generator, d: int, ridge: float = 0.3) -> np.ndarray:
    a = rng.standard_normal((d, d))
    s = a @ a.T / d + ridge * np.eye(d)
    return (s + s.T) / 2.0


def random_pattern(rng: np.random.Generator, d: int, nonempty: bool = True) -> FeaturePattern:
    while True:
        mask = rng.random(d) < 0.6
        if mask.any() or not nonempty:
            return FeaturePattern(tuple(np.flatnonzero(mask).tolist()), d)


def random_clients(rng: np.random.Generator, d: int, k: int, nonempty: bool = True) -> tuple[ClientSpec, ...]:
    w = rng.random(k) + 0.2
    rho = w / w.sum()
    clients = tuple(
        ClientSpec(id=i + 1, pattern=random_pattern(rng, d, nonempty), rho=float(r))
        for i, r in enumerate(rho)
    )
    return validate_federation(clients)


def random_population(rng: np.random.Generator, d: int, ridge: float = 0.3) -> PopulationSpec:
    return PopulationSpec.gaussian(
        random_psd(rng, d, ridge), rng.standard_normal(d), sigma2=float(rng.random() + 0.1)
    )


def gd_quadratic_min(a: np.ndarray, b: np.ndarray, iters: int = 2000) -> np.ndarray:
    """Minimize t . A t - 2 b . t by gradient descent from zero.

    For PSD A with b in range(A) the iterates stay in range(A) and converge
    to the minimum-norm minimizer, which is the independent check for the
    package's pseudoinverse solves.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return np.zeros(0)
    lmax = float(np.max(np.abs(np.linalg.eigvalsh((a + a.T) / 2.0))))
    step = 1.0 / lmax if lmax > 0 else 1.0
    t = np.zeros(len(b))
    for _ in range(iters):
        t = t - step * (a @ t - b)
    return t


def gd_ridge_fit(x: np.ndarray, y: np.ndarray, lam: float, iters: int = 4000) -> np.ndarray:
    """Minimize (1/2n)||y - X t||^2 + (lam/2)||t||^2 by gradient descent."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    sigma = x.T @ x / n
    lmax = float(np.max(np.abs(np.linalg.eigvalsh(sigma)))) + lam
    step = 1.0 / lmax
    t = np.zeros(d)
    for _ in range(iters):
        grad = x.T @ (x @ t - y) / n + lam * t
        t = t - step * grad
    return t


def gd_penalized_distance(sigma: np.ndarray, ref: np.ndarray, lam: float, iters: int = 4000) -> float:
    """Numeric value of inf_t ||t - ref||_sigma^2 + lam ||t||^2."""
    sigma = np.asarray(sigma, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    lmax = float(np.max(np.abs(np.linalg.eigvalsh(sigma)))) + lam
    step = 1.0 / lmax
    t = ref.copy()
    for _ in range(iters):
        grad = sigma @ (t - ref) + lam * t
        t = t - step * grad
    diff = t - ref
    return float(diff @ sigma @ diff + lam * t @ t)


def block_risk(pop: PopulationSpec, pattern: FeaturePattern, theta: np.ndarray) -> float:
    """Population risk of predicting theta . x_obs: direct formula."""
    obs = list(pattern.observed)
    gamma = pop.sigma @ pop.theta_star
    s_oo = pop.sigma[np.ix_(obs, obs)]
    g_o = gamma[obs]
    return float(pop.e_y2 - 2.0 * theta @ g_o + theta @ s_oo @ theta)


def brute_schur(sigma: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """Conditional covariance by dense solve, no pseudoinverse shortcuts."""
    obs = list(pattern.observed)
    mis = list(pattern.missing)
    if not mis:
        return np.zeros((0, 0))
    s_mm = sigma[np.ix_(mis, mis)]
    if not obs:
        return s_mm
    s_mo = sigma[np.ix_(mis, obs)]
    s_oo = sigma[np.ix_(obs, obs)]
    return s_mm - s_mo @ np.linalg.solve(s_oo, s_mo.T)


def brute_effective_dimension(sigma: np.ndarray, lam: float) -> float:
    d = sigma.shape[0]
    if lam == 0:
        return float(np.linalg.matrix_rank(sigma, tol=None))
    return float(np.trace(np.linalg.solve(sigma + lam * np.eye(d), sigma)))


def completion_matrix(sigma: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """T with x_imputed = T x: identity on observed rows, regression on missing."""
    d = pattern.d
    obs = list(pattern.observed)
    mis = list(pattern.missing)
    t = np.zeros((d, d))
    for j in obs:
        t[j, j] = 1.0
    if mis and obs:
        s = sigma[np.ix_(mis, obs)] @ np.linalg.solve(sigma[np.ix_(obs, obs)], np.eye(len(obs)))
        t[np.ix_(mis, obs)] = s
    return t


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def reference_ice(data, rounds: int, init=None, early_stop_rms: float | None = None):
    """Federated ICE over materialized completed rows: every round folds
    X_k^T X_k of each client's completed block in ascending id order,
    refreshes every map, and rewrites the missing columns, measuring the RMS
    change over imputed entries directly.

    Returns (sigma_trace, final maps, rounds_run, stopped_early).
    """
    from fedmismatch.impute import optimal_block_map

    d = data.d
    clients = sorted(data.clients, key=lambda c: c.id)
    blocks = {}
    for c in clients:
        x_k = np.zeros((len(data.rows_of(c.id)), d))
        x_k[:, list(c.pattern.observed)] = data.x_obs_of(c.id)
        if init is not None:
            x_k[:, list(c.pattern.missing)] = data.x_obs_of(c.id) @ init.maps[c.id].T
        blocks[c.id] = x_k
    n_missing = sum(len(c.pattern.missing) * len(blocks[c.id]) for c in clients)
    trace, maps, stopped = [], {}, False
    for _ in range(rounds):
        sigma = sum((blocks[c.id].T @ blocks[c.id] for c in clients), np.zeros((d, d))) / data.n
        trace.append(sigma)
        maps = {c.id: optimal_block_map(sigma, c.pattern) for c in clients}
        change = 0.0
        for c in clients:
            obs, mis = list(c.pattern.observed), list(c.pattern.missing)
            new = blocks[c.id][:, obs] @ maps[c.id].T
            change += float(np.sum((new - blocks[c.id][:, mis]) ** 2))
            blocks[c.id][:, mis] = new
        if early_stop_rms is not None and (np.sqrt(change / n_missing) if n_missing else 0.0) < early_stop_rms:
            stopped = True
            break
    return trace, maps, len(trace), stopped
