"""Closed-form risks, bound assembly, and Monte Carlo evaluation.

Everything here works at the population level: given the exact law of
(X, Y, H), compute best attainable risks, the ridge bias and effective
dimension that drive excess-risk bounds, and the population moments of
imputed features. ``monte_carlo_risk`` is the bridge to finite-sample
evaluation of fitted predictors. The imputed-population moments are the
rho-weighted fold of ``ImputationMap.complete_moments`` over the population
moments cropped to each pattern under the ``ImputationMap`` the method itself
fitted, as the fits apply it to client sums. A client's oracle depends on it
only through its pattern, so the closed forms of each distinct pattern are
computed once (``_local_oracle``).

Key facts used throughout (all checkable against brute force, and checked in
the test suite):

* best coefficients over an observed block O: sigma[O,O]^+ gamma[O];
* attainable risk for that block: the risk of those coefficients placed on
  O (zeros elsewhere), sigma2 + r . sigma r with r = theta_star - theta;
* ridge bias inf_t ||t - ref||_sigma^2 + lam ||t||^2 has value
  lam * ref . sigma (sigma + lam I)^{-1} ref;
* zero-imputed population moments are (Pi . sigma, diag(Pi) . gamma);
* optimal-linear imputation reproduces sigma on observed blocks, with
  covariance dominated by sigma, and theta_star solves sigma_I t = gamma_I.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._linalg import SymEig
from .impute import ImputationMap
from .model import FeaturePattern, validate_federation, ClientwisePredictor, crop_matrix, crop_vector
from .popgen import PopulationSpec, _draw_rows, population_gamma

__all__ = [
    "best_local_coefficients",
    "oracle_local_risk",
    "oracle_global_risk",
    "effective_dimension",
    "ridge_bias",
    "ImputedPopulation",
    "imputed_population_covariance",
    "imputed_oracle_risk",
    "BoundReport",
    "itr_bound",
    "LocalLearningBounds",
    "local_bound_terms",
    "typical_case_lambda_prime",
    "PerClientRisk",
    "MCRisk",
    "monte_carlo_risk",
]


def best_local_coefficients(pop: PopulationSpec, pattern: FeaturePattern) -> np.ndarray:
    """Population-optimal linear coefficients over one observed block:
    sigma[O,O]^+ gamma[O] from one ``eigh`` of sigma[O,O]."""
    return _local_oracle(pop, pattern)[0]


def oracle_local_risk(pop: PopulationSpec, pattern: FeaturePattern) -> float:
    """Best attainable squared-error risk when only this block is seen."""
    return _local_oracle(pop, pattern)[1]


def _local_oracle(pop: PopulationSpec, pattern: FeaturePattern) -> tuple[np.ndarray, float, SymEig]:
    """(``best_local_coefficients``, ``oracle_local_risk``, ``SymEig`` of
    sigma[O,O]) of one pattern, the only place its closed forms are computed.

    The risk is that of the coefficients themselves: sigma2 + r . sigma r,
    with r = theta_star - theta and theta placed on O, zeros elsewhere.
    """
    obs = list(pattern.observed)
    factor = SymEig(pop.sigma[np.ix_(obs, obs)])
    theta = factor.solve(population_gamma(pop)[obs])
    r = pop.theta_star.copy()
    r[obs] -= theta
    return theta, float(pop.sigma2 + r @ pop.sigma @ r), factor


def oracle_global_risk(pop: PopulationSpec, clients) -> float:
    """Share-weighted best attainable risk across the federation, with one
    ``oracle_local_risk`` per distinct pattern folded in client order."""
    clients = validate_federation(clients)
    risks = {p: _local_oracle(pop, p)[1] for p in dict.fromkeys(c.pattern for c in clients)}
    return float(sum(c.rho * risks[c.pattern] for c in clients))


def effective_dimension(sigma: np.ndarray | SymEig, lam: float) -> float:
    """trace(sigma (sigma + lam I)^{-1}) from the clipped eigenvalues of the
    symmetrized ``sigma`` or of its ``SymEig`` factor; at lam = 0 the rank,
    the count of eigenvalues above 1e-12 times the largest."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    w = np.clip(SymEig.of(sigma).w, 0.0, None)
    if lam == 0:
        return float(np.count_nonzero(w > 1e-12 * np.max(w, initial=0.0)))
    return float(np.sum(w / (w + lam)))


def ridge_bias(sigma: np.ndarray | SymEig, theta_ref: np.ndarray, lam: float) -> float:
    """Value of inf_t { ||t - theta_ref||_sigma^2 + lam ||t||^2 }.

    Closed form lam * ref . sigma (sigma + lam I)^{-1} ref, read from the
    ``SymEig`` factor of ``sigma`` (or that factor); exactly 0.0 at lam = 0.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0:
        return 0.0
    factor = SymEig.of(sigma)
    w = np.clip(factor.w, 0.0, None)
    c = factor.q.T @ np.asarray(theta_ref, dtype=np.float64)
    return float(np.sum(lam * w / (w + lam) * c * c))


@dataclass(frozen=True)
class ImputedPopulation:
    """Population moments of imputed features, the one ``SymEig`` of sigma,
    and theta_prime read from it: the minimum-norm solution of sigma t =
    gamma, which minimizes the risk over predictors linear in the features."""

    sigma: np.ndarray
    gamma: np.ndarray
    factor: SymEig
    theta_prime: np.ndarray


def imputed_population_covariance(pop: PopulationSpec, clients, imputer: ImputationMap) -> ImputedPopulation:
    """Exact moments of the imputed feature vector under ``imputer``, the map
    a method fitted.

    sigma_I and gamma_I are the rho-weighted fold, in the given client order,
    of ``imputer.complete_moments`` on (pop.sigma, gamma) cropped to each
    distinct pattern of ``clients``. Under the zero map this equals
    (Pi . sigma, diag(Pi) . gamma); under the population-optimal map
    (``ImputationMap(pop.sigma)``) theta_star also solves sigma_I t = gamma_I.
    """
    clients = validate_federation(clients)
    gamma = population_gamma(pop)
    sigma_i = np.zeros((pop.d, pop.d))
    gamma_i = np.zeros(pop.d)
    completed = {p: imputer.complete_moments(p, crop_matrix(pop.sigma, p, p), crop_vector(gamma, p))
                 for p in dict.fromkeys(c.pattern for c in clients)}
    for c in clients:
        gram, cross = completed[c.pattern]
        sigma_i += c.rho * gram
        gamma_i += c.rho * cross
    factor = SymEig(sigma_i)
    return ImputedPopulation(sigma_i, gamma_i, factor, factor.solve(gamma_i))


def imputed_oracle_risk(pop: PopulationSpec, ip: ImputedPopulation) -> float:
    """Best risk attainable by predictors linear in the imputed features:
    E[Y^2] - theta_prime . sigma_I theta_prime."""
    return float(pop.e_y2 - ip.theta_prime @ ip.sigma @ ip.theta_prime)


@dataclass(frozen=True)
class BoundReport:
    """Assembled excess-risk certificate for an impute-then-regress fit.

    ``bound_value`` = r_star_reference + b_lambda + (8 m^2 / n) d_lambda.
    """

    r_star_reference: float
    b_lambda: float
    d_lambda: float
    bound_value: float


def itr_bound(
    pop: PopulationSpec,
    clients,
    imputer: ImputationMap,
    lam: float,
    n: int,
    m: float,
) -> BoundReport:
    """Risk certificate for truncated ridge on data completed by ``imputer``.

    The certified claim: expected risk of the fitted predictor is at most
    r_star_reference + b_lambda + (8 m^2 / n) d_lambda, where the reference
    is the best risk attainable with these imputed features. It holds only
    for a map that does not depend on the sample: ``cli`` passes the zero
    and population-optimal maps. All three terms read one factor of sigma_I.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    ip = imputed_population_covariance(pop, clients, imputer)
    r_ref = imputed_oracle_risk(pop, ip)
    b = ridge_bias(ip.factor, ip.theta_prime, lam)
    d_eff = effective_dimension(ip.factor, lam)
    return BoundReport(
        r_star_reference=r_ref,
        b_lambda=b,
        d_lambda=d_eff,
        bound_value=float(r_ref + b + 8.0 * m * m / n * d_eff),
    )


@dataclass(frozen=True)
class LocalLearningBounds:
    """Floor and ceiling for the risk of the no-sharing baseline.

    ``e0`` is the floor: clients that draw no samples predict zero and pay
    the full second moment of the response. ``upper_bound`` adds the
    estimation and approximation terms of the share-weighted local ridge
    fits.
    """

    e0: float
    sum_local_dims: float
    weighted_local_floor: float
    upper_bound: float
    per_client: Mapping[int, tuple[float, float, float, float]]


def local_bound_terms(pop: PopulationSpec, clients, lam: float, n: int, m: float) -> LocalLearningBounds:
    """Assemble the local-learning risk floor and ceiling.

    Per client: attainable risk, ridge bias and effective dimension of the
    observed block at penalty lam / rho_k, read from ``_local_oracle`` and its
    ``eigh`` of sigma[O, O], computed once per distinct pattern. The map in
    ``per_client`` stores (r_star_k, b_k, d_k, lam_k).

    ``weighted_local_floor`` is sum_k rho_k (r_star_k + b_k), the optimum of
    local learning in which client k fits alone at penalty lam / rho_k. That
    charges lam once per client observing a feature, so the penalized
    zero-imputed optimum bounds the floor only at penalty c_max * lam, where
    c_max is the largest number of clients observing one feature.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    clients = validate_federation(clients)
    e0 = float(sum(c.rho * (1.0 - c.rho) ** n for c in clients) * pop.e_y2)
    per_client: dict[int, tuple[float, float, float, float]] = {}
    sum_d = 0.0
    floor = 0.0
    oracles = {p: _local_oracle(pop, p) for p in dict.fromkeys(c.pattern for c in clients)}
    for c in clients:
        lam_k = lam / c.rho
        theta_k, r_k, s_oo = oracles[c.pattern]
        b_k = ridge_bias(s_oo, theta_k, lam_k)
        d_k = effective_dimension(s_oo, lam_k)
        per_client[c.id] = (r_k, b_k, d_k, lam_k)
        sum_d += d_k
        floor += c.rho * (r_k + b_k)
    upper = e0 + 16.0 * m * m / n * sum_d + floor
    return LocalLearningBounds(
        e0=e0,
        sum_local_dims=sum_d,
        weighted_local_floor=floor,
        upper_bound=upper,
        per_client=per_client,
    )


def typical_case_lambda_prime(lam: float, tau: float) -> float:
    """Penalty inflation under Bernoulli(tau) patterns: lam / tau^2 + (1 - tau) / tau,
    a ValueError when that is not a finite float (a tiny tau)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    tau2 = tau * tau  # underflows to 0 below tau ~ 1e-162
    inflation = 0.0 if lam == 0 else (lam / tau2 if tau2 else math.inf)
    value = inflation + (1.0 - tau) / tau
    if not math.isfinite(value):
        raise ValueError(f"lambda' is not finite at lambda={lam}, tau={tau}")
    return float(value)


@dataclass(frozen=True)
class PerClientRisk:
    risk: float
    stderr: float
    draws: int


@dataclass(frozen=True)
class MCRisk:
    """Monte Carlo risk estimate, stratified by client.

    ``risk`` is exactly the share-weighted average of the per-client
    conditional risks computed from the same draws. ``stderr`` is the pooled
    sample standard deviation of squared residuals divided by sqrt(n).
    """

    risk: float
    stderr: float
    per_client: Mapping[int, PerClientRisk]
    draws: int


def _apportion(n: int, weights: list[float]) -> list[int]:
    """Largest-remainder allocation of n draws, at least one per stratum."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    ideal = n * w
    counts = np.floor(ideal).astype(int)
    short = n - counts.sum()
    order = np.argsort(-(ideal - counts), kind="stable")
    for i in order[:short]:
        counts[i] += 1
    while (counts == 0).any():
        i = int(np.argmin(counts))
        j = int(np.argmax(counts))
        if counts[j] <= 1:
            raise ValueError(f"cannot allocate {n} draws over {len(w)} strata")
        counts[i] += 1
        counts[j] -= 1
    return counts.tolist()


def monte_carlo_risk(
    predictors: Sequence[ClientwisePredictor],
    pop: PopulationSpec,
    clients,
    n_mc: int,
    rng: np.random.Generator,
) -> list[MCRisk]:
    """Estimate the deployment risk of clientwise predictors by simulation.

    One test sample of n_mc draws is stratified over clients in ascending id
    order with largest-remainder counts proportional to rho, drawn at once
    (all covariates, then all noise), and every predictor is scored on it:
    the result holds one ``MCRisk`` per predictor, in order, and each equals
    what scoring that predictor alone at the same seed gives. Each
    global estimate decomposes exactly as sum_k rho_k * conditional risk_k
    over the same draws. Evaluating a single pattern (a would-be new client)
    is the special case of one client with rho = 1.
    """
    clients = tuple(sorted(validate_federation(clients), key=lambda c: c.id))
    if n_mc < 2:
        raise ValueError(f"need n_mc >= 2, got {n_mc}")
    counts = _apportion(n_mc, [c.rho for c in clients])
    sample = _draw_rows(pop, clients, np.repeat(np.arange(len(clients)), counts), rng)
    strata = [(c, sample.x_obs_of(c.id), sample.y_of(c.id)) for c in clients]
    return [_score(predictor, strata, n_mc) for predictor in predictors]


def _score(predictor: ClientwisePredictor, strata, n_mc: int) -> MCRisk:
    """Squared-error risk of one predictor over (client, observed block, response) strata."""
    per_client: dict[int, PerClientRisk] = {}
    risk = 0.0
    pooled = []
    for c, x_obs, y in strata:
        m_k = len(y)
        sq = (y - predictor.predict_many(c.id, x_obs)) ** 2
        mean_k = float(sq.mean())
        stderr_k = float(np.std(sq, ddof=1) / np.sqrt(m_k)) if m_k > 1 else float("nan")
        per_client[c.id] = PerClientRisk(risk=mean_k, stderr=stderr_k, draws=m_k)
        risk += c.rho * mean_k
        pooled.append(sq)
    allsq = np.concatenate(pooled)
    stderr = float(np.std(allsq, ddof=1) / np.sqrt(n_mc))
    return MCRisk(risk=float(risk), stderr=stderr, per_client=per_client, draws=n_mc)
