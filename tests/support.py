"""Shared test fixtures and independent numeric oracles.

The oracles here deliberately avoid the package's own linear algebra
helpers: quadratic minimization is done by plain gradient descent, traces by
dense solves, risks by direct formula evaluation. Agreement between package
closed forms and these slower paths is what the oracle tests certify.
"""
from __future__ import annotations

import itertools
import time

import numpy as np

from fedmismatch.model import ClientSpec, Dataset, FeaturePattern, LocalMoments, validate_federation
from fedmismatch.popgen import PopulationSpec, population_gamma, sample_dataset
from fedmismatch.moments import co_observation
from fedmismatch.impute import ImputationMap
from fedmismatch.ridge import fedavg_ridge, ridge_closed_form
from fedmismatch.fedsim import run_protocol
from fedmismatch import popgen


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


def repeating_clients(rng: np.random.Generator, d: int) -> tuple[ClientSpec, ...]:
    """Eight clients on d coordinates, two per pattern, interleaved: the full
    pattern, the empty one and two random ones (which may repeat those)."""
    patterns = [FeaturePattern.full(d), FeaturePattern.empty(d),
                random_pattern(rng, d, nonempty=False), random_pattern(rng, d)]
    w = rng.random(8) + 0.2
    return validate_federation(
        ClientSpec(id=i + 1, pattern=patterns[i % 4], rho=float(r)) for i, r in enumerate(w / w.sum())
    )


def mixed_federation(seed, n=240):
    """Six clients on random d: one full, one observing nothing, one that
    drew no rows, three random patterns (one of them possibly empty)."""
    rng = seeded(seed)
    d = int(rng.integers(3, 7))
    pop = random_population(rng, d)
    patterns = [FeaturePattern.full(d), FeaturePattern.empty(d), random_pattern(rng, d)]
    patterns += [random_pattern(rng, d, nonempty=False) for _ in range(3)]
    clients = tuple(ClientSpec(id=10 - i, pattern=p, rho=1 / 6) for i, p in enumerate(patterns))
    return rng, without_rows(sample_dataset(pop, clients, n, rng), 8)


def without_rows(data, client_id) -> Dataset:
    """``data`` with the rows of one client dropped, as if it drew none."""
    kept = [c.id for c in data.clients if c.id != client_id]
    return Dataset(data.clients, {k: data.x_obs_of(k) for k in kept}, np.concatenate([data.y_of(k) for k in kept]))


def from_filled(clients, client_ids, x_filled, y) -> Dataset:
    """The client-major dataset of the rows of an (n, d) matrix: row i
    belongs to client ``client_ids[i]`` and keeps the coordinates that client
    observes. Each client keeps its rows in their order here, and the
    clients follow ``clients`` order, as the dataset's ``y`` does."""
    clients = validate_federation(clients)
    ids = np.asarray(client_ids, dtype=np.int64)
    x = np.asarray(x_filled, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (len(ids), clients[0].pattern.d) or y.shape != ids.shape:
        raise ValueError(f"shapes disagree: client_ids {ids.shape}, x_filled {x.shape}, y {y.shape}")
    rows = [np.flatnonzero(ids == c.id) for c in clients]
    if sum(map(len, rows)) != len(ids):
        raise ValueError(f"rows reference unknown client ids {sorted(set(ids.tolist()) - {c.id for c in clients})}")
    x_obs = {c.id: x[np.ix_(r, c.pattern.observed)] for c, r in zip(clients, rows)}
    return Dataset(clients, x_obs, y[np.concatenate(rows)])


def x_filled(data) -> np.ndarray:
    """The (n, d) matrix of ``data``'s rows in its client-major order, with
    each row's observed coordinates and zeros elsewhere."""
    x = np.zeros((data.n, data.d))
    for c in data.clients:
        if c.pattern.observed:
            x[np.ix_(data.rows_of(c.id), c.pattern.observed)] = data.x_obs_of(c.id)
    return x


def sample_counts(data) -> np.ndarray:
    """N = ``co_observation`` with each client's row count n_k as its weight."""
    return co_observation([c.pattern for c in data.clients], [len(data.rows_of(c.id)) for c in data.clients])


def reference_padded_sums(data) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Each client's (sigma_sum, gamma_sum, n_k) zero-padded to d
    coordinates, in ascending id order: the symmetrized observed Gram and the
    cross-moments written into d x d and d zeros, the zero-padded uploads the
    server's scatter-add must reproduce bit for bit."""
    out = []
    for c in sorted(data.clients, key=lambda c: c.id):
        x, y, idx = data.x_obs_of(c.id), data.y_of(c.id), list(c.pattern.observed)
        sigma, gamma = np.zeros((data.d, data.d)), np.zeros(data.d)
        block = x.T @ x
        sigma[np.ix_(idx, idx)] = (block + block.T) / 2.0
        gamma[idx] = x.T @ y
        out.append((sigma, gamma, len(y)))
    return out


def reference_completed_sums(data, imputer) -> list[LocalMoments]:
    """``reference_complete_moments`` of each client's zero-padded sums, the
    d x d completion B^T G B, as d-coordinate ``LocalMoments`` in ascending
    id order."""
    full = FeaturePattern.full(data.d)
    patterns = [c.pattern for c in sorted(data.clients, key=lambda c: c.id)]
    return [LocalMoments(*reference_complete_moments(imputer, p, sigma, gamma), n, full)
            for p, (sigma, gamma, n) in zip(patterns, reference_padded_sums(data))]


def ridge_on(data, imputer, lam):
    """``ridge_closed_form`` on the uploads of ``data``."""
    return ridge_closed_form(data.uploads, imputer, lam)


def fedavg_on(data, imputer, *args, **kwargs):
    """``fedavg_ridge`` on the uploads of ``data``."""
    return fedavg_ridge(data.uploads, imputer, *args, **kwargs)


def run_on(spec, data, imputer=None, session=()):
    """``run_protocol`` on the uploads of ``data``."""
    return run_protocol(spec, data.uploads, imputer, session)


def reference_fold(sums) -> tuple[np.ndarray, np.ndarray]:
    """The pooled averages of zero-padded (sigma_sum, gamma_sum, n_k) sums:
    whole d x d arrays added in the given order, divided once by n, and
    symmetrized as ``MomentPair`` does."""
    sums = list(sums)
    d = len(sums[0][1])
    sigma, gamma = np.zeros((d, d)), np.zeros(d)
    for s, g, _ in sums:
        sigma += s
        gamma += g
    n = sum(k for _, _, k in sums)
    sigma = sigma / n
    return (sigma + sigma.T) / 2.0, gamma / n


def completed_rows(data, imputer) -> np.ndarray:
    """The (n, d) design of ``data`` completed by ``imputer``, in its
    client-major row order: the rows the fits stand for, built only to check
    them."""
    x = np.empty((data.n, data.d))
    for c in data.clients:
        x[data.rows_of(c.id)] = imputer.complete(c.pattern, data.x_obs_of(c.id))
    return x


def sharded(x, y, bounds):
    """(data, zero imputer) in which rows bounds[i]:bounds[i + 1] belong to one
    full-pattern client, with ids 1, 2, ... in shard order, so the completed
    rows are ``x`` itself."""
    x = np.asarray(x, dtype=np.float64)
    k = len(bounds) - 1
    clients = tuple(ClientSpec(id=i + 1, pattern=FeaturePattern.full(x.shape[1]), rho=1 / k) for i in range(k))
    data = Dataset(clients, {i + 1: x[bounds[i]:bounds[i + 1]] for i in range(k)}, y)
    return data, ImputationMap()


def blow_up_federation():
    """(data, zero imputer) on which FedAvg diverges: d = 2, client 1 holds
    the single row 30 e1 and client 2 holds 200 rows near e2, y = x . (1, 1).
    At lambda = 0 the step 1 / lambda_max of the pooled Gram is about 201
    times too long for client 1's curvature 900, so each of its local steps
    multiplies theta's e1 part by about -200. Over 50 rounds, 3 local steps
    raise the objective ten rounds in a row; 10 overflow it at round 8."""
    x = np.vstack([[30.0, 0.0], [0.0, 1.0] + 0.01 * np.random.default_rng(0).standard_normal((200, 2))])
    return sharded(x, x @ np.ones(2), [0, 1, 201])


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


def reference_complete_moments(imputer, pattern: FeaturePattern, sigma: np.ndarray,
                               gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sym(B^T sigma B), B^T gamma) with B completed from the identity the
    way a block of rows is: I[:, obs] at the observed columns and
    I[:, obs] S^T at the missing ones, built anew on every call."""
    d, obs, mis = pattern.d, list(pattern.observed), list(pattern.missing)
    unit = np.eye(d)[:, obs]
    b = np.zeros((d, d))
    b[:, obs] = unit
    b[:, mis] = unit @ imputer.maps[pattern].T
    block = b.T @ sigma @ b
    return (block + block.T) / 2.0, b.T @ gamma


def reference_itr_coefficients(imputer, theta: np.ndarray, clients) -> dict[int, np.ndarray]:
    """Each client's folded impute-then-regress coefficients
    theta_O + S^T theta_M, computed client by client."""
    out = {}
    for c in clients:
        obs, mis = list(c.pattern.observed), list(c.pattern.missing)
        eff = theta[obs] if obs else np.zeros(0)
        out[c.id] = eff + imputer.maps[c.pattern].T @ theta[mis] if mis else eff
    return out


def reference_imputed_population(pop: PopulationSpec, clients, imputer) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_I, gamma_I) of the vector completed by ``imputer``, assembled block by block.

    The rho-weighted mixture of [sigma_oo, sigma_oo S^T; S sigma_oo,
    S sigma_oo S^T] and of [gamma_o; S gamma_o], S the client's map, each
    block written into place by index. Under a zero map this is
    (Pi . sigma, diag(Pi) . gamma) with Pi = sum_k rho_k m_k m_k^T, and
    under the population-optimal map S sigma_oo = sigma_mo.
    """
    d = pop.d
    gamma = population_gamma(pop)
    sigma_i, gamma_i = np.zeros((d, d)), np.zeros(d)
    for c in clients:
        obs, mis = list(c.pattern.observed), list(c.pattern.missing)
        s, s_oo = imputer.maps[c.pattern], pop.sigma[np.ix_(obs, obs)]
        block, g = np.zeros((d, d)), np.zeros(d)
        block[np.ix_(obs, obs)] = s_oo
        g[obs] = gamma[obs]
        if obs and mis:
            block[np.ix_(mis, obs)] = s @ s_oo
            block[np.ix_(obs, mis)] = (s @ s_oo).T
            block[np.ix_(mis, mis)] = s @ s_oo @ s.T
            g[mis] = s @ gamma[obs]
        sigma_i += c.rho * block
        gamma_i += c.rho * g
    return (sigma_i + sigma_i.T) / 2.0, gamma_i


def assert_rel_close(got, want, rel=1e-12):
    """max |got - want| <= rel * max |want|; an all-zero ``want`` needs ``got`` zero."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def fail_second_block(monkeypatch, delay: float = 0.0) -> list:
    """Make ``popgen._transform_block`` raise "block transform failed" on its
    second call, the others first sleeping ``delay`` s; returns a list that
    holds one entry per call still running."""
    transform = popgen._transform_block
    calls = itertools.count()
    running: list = []

    def failing(*args):
        running.append(1)
        try:
            if next(calls) == 1:
                raise RuntimeError("block transform failed")
            time.sleep(delay)
            transform(*args)
        finally:
            running.pop()

    monkeypatch.setattr(popgen, "_transform_block", failing)
    return running


def reference_draw_rows(pop: PopulationSpec, clients, positions: np.ndarray, rng: np.random.Generator) -> Dataset:
    """The one-shot sampler the blocked ``popgen._draw_rows`` must reproduce
    bytewise: all covariates in one call (a sphere design scales each row of
    the product by sqrt(d) / ||z||), then all noise, the response, then each
    row's observed coordinates kept from the (n, d) matrix, client-major."""
    n = len(positions)
    z = rng.standard_normal((n, pop.d))
    x = z @ pop.sqrt_sigma
    if pop.design == "sphere":
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        norms[norms == 0] = 1.0
        x *= (np.sqrt(pop.d) / norms)[:, None]
    if pop.noise == "uniform":
        eps = rng.uniform(-pop.noise_halfwidth, pop.noise_halfwidth, size=n)
    else:
        eps = np.sqrt(pop.sigma2) * rng.standard_normal(n)
    y = x @ pop.theta_star + eps
    ids = np.array([c.id for c in clients], dtype=np.int64)
    return from_filled(clients, ids[positions], x, y)


def reference_ice(data, rounds: int):
    """Federated ICE over materialized completed rows: starting from zero
    fills, every round folds X_k^T X_k of each client's completed block in
    ascending id order, refreshes every map, and rewrites the missing columns.

    Returns (per-round sigma estimates, final maps).
    """
    from fedmismatch.impute import optimal_block_map

    d = data.d
    clients = sorted(data.clients, key=lambda c: c.id)
    blocks = {}
    for c in clients:
        x_k = np.zeros((len(data.rows_of(c.id)), d))
        x_k[:, list(c.pattern.observed)] = data.x_obs_of(c.id)
        blocks[c.id] = x_k
    trace, maps = [], {}
    for _ in range(rounds):
        sigma = sum((blocks[c.id].T @ blocks[c.id] for c in clients), np.zeros((d, d))) / data.n
        trace.append(sigma)
        maps = {c.id: optimal_block_map(sigma, c.pattern) for c in clients}
        for c in clients:
            blocks[c.id][:, list(c.pattern.missing)] = blocks[c.id][:, list(c.pattern.observed)] @ maps[c.id].T
    return trace, maps


def reference_fedavg(data, imputer, lam: float, rounds: int, local_steps: int = 1):
    """Federated averaging over materialized completed rows: every round each
    client that owns rows takes ``local_steps`` full-batch gradient steps on
    its own completed block from the server iterate, the server averages
    them with weights n_k / n in ascending id order, and the objective sums
    every client's squared residuals less y_k^T y_k, the constant
    ``ridge.fedavg_ridge`` leaves out of its trace. Step size and divergence
    rule are those of ``ridge.fedavg_ridge``.

    Returns (theta, objective_trace, diverged, rounds_run).
    """
    x = completed_rows(data, imputer)
    ranges = [data.rows_of(c.id) for c in sorted(data.clients, key=lambda c: c.id)]
    shards = [(x[rows], data.y[rows]) for rows in ranges if len(rows)]
    n, d = data.n, data.d
    sigma = sum((xk.T @ xk for xk, _ in shards), np.zeros((d, d))) / n
    step = 1.0 / (float(np.max(np.abs(np.linalg.eigvalsh((sigma + sigma.T) / 2.0)))) + lam)

    def objective(theta):
        fitted = sum(float(np.sum((xk @ theta) ** 2)) - 2 * float(yk @ (xk @ theta)) for xk, yk in shards)
        return fitted / (2 * n) + lam / 2 * float(theta @ theta)

    theta = np.zeros(d)
    trace = [objective(theta)]
    increases, diverged, run = 0, False, 0
    for t in range(1, rounds + 1):
        new = np.zeros(d)
        for xk, yk in shards:
            local = theta
            for _ in range(local_steps):
                local = local - step * (xk.T @ (xk @ local - yk) / len(yk) + lam * local)
            new += len(yk) / n * local
        theta, run = new, t
        trace.append(objective(theta))
        increases = increases + 1 if trace[-1] > trace[-2] else 0
        if increases >= 10 or not np.isfinite(trace[-1]):
            diverged = True
            break
    return theta, trace, diverged, run
