"""Moment estimators computable from masked data, and their wire format.

Each client uploads its observed block's moment sums
(``local_zero_imputed_moments``), and one fold, ``aggregate_zero_imputed``,
pools any such uploads into one ``LocalMoments`` of sums over the full
pattern: observed sums into the zero-imputed sums, completed sums
(``completed_sums``) into the completed-data sums
(``imputed_data_moments``); both read the uploads alone (sender id to
``LocalMoments``), never a sample. Sums stay sums on the server: only
``LocalMoments.sigma`` and ``.gamma`` divide them by the count. The pattern
bitmasks m_k go through one other fold, ``co_observation``: sum_k w_k m_k
m_k^T, the population co-observation matrix Pi with w_k = rho_k and the
count matrix N with w_k = n_k.

Three estimators of (E[X X^T], E[X Y]) from blockwise-masked samples:

* zero-imputed: plain averages of (m . x)(m . x)^T and (m . x) y. Biased;
  its expectation is (Pi . sigma, diag(Pi) . gamma) with Pi the
  co-observation matrix.
* debiased: entrywise division of the zero-imputed moments by the known Pi
  (inverse-propensity weighting). Unbiased where Pi > 0.
* component-wise: entrywise division of the zero-imputed sums by the count
  matrix N; each entry is the average over the samples that observe both
  coordinates. Unbiased given the counts, but NOT guaranteed PSD.

Entries whose (empirical or population) co-observation weight is zero are
left at 0.0 and marked uncovered in the coverage mask.

Wire format (version 3): each client uploads sums, not averages, so
aggregation is exact and associative. Payload slots, in order: ``[n_k]
[packed upper triangle of the observed Gram, row-major] [observed
cross-moments]``, which is (|O_k|+1)(|O_k|+2)/2 floats. The pattern bitmask
is sent once at registration, accounted as d bits separately from float
counts, and tells the server where each upload's block goes.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from .model import FeaturePattern, LocalMoments, MomentPair

__all__ = [
    "local_zero_imputed_moments",
    "aggregate_zero_imputed",
    "co_observation",
    "debias_moments",
    "cw_moments",
    "completed_sums",
    "imputed_data_moments",
]


def local_zero_imputed_moments(x_obs: np.ndarray, y: np.ndarray, pattern: FeaturePattern) -> LocalMoments:
    """Moment sums of one client's samples over its observed block.

    ``x_obs`` is (n_k, |obs|) over the pattern's observed columns. Unobserved
    coordinates are the structural zeros of zero imputation, which
    ``aggregate_zero_imputed`` restores.
    """
    x_obs = np.asarray(x_obs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x_obs.ndim != 2 or x_obs.shape[1] != pattern.size:
        raise ValueError(f"x_obs must be (n_k, {pattern.size}), got {x_obs.shape}")
    if y.shape != (x_obs.shape[0],):
        raise ValueError(f"y must be ({x_obs.shape[0]},), got {y.shape}")
    # Symmetrized at the source, so the packed upper-triangle wire format
    # loses nothing.
    block = x_obs.T @ x_obs
    return LocalMoments((block + block.T) / 2.0, x_obs.T @ y, x_obs.shape[0], pattern)


def aggregate_zero_imputed(locals_: Iterable[LocalMoments]) -> LocalMoments:
    """Pool moment sums, scatter-added in the given order into one d x d
    accumulator, into the sums (G, g, n) over the full pattern. It starts at
    +0.0, so never holds -0.0, and adding a padded block's zeros would change
    no bit; an entry and its mirror take the same adds, so G stays symmetric.

    The averages, the result's ``sigma`` and ``gamma``, divide once by the
    total count, so they do not depend on how the samples were sharded. This
    is the one server-side fold, of observed and of completed sums
    (``imputed_data_moments``).
    """
    items = list(locals_)
    if not items:
        raise ValueError("nothing to aggregate")
    d = items[0].d
    sigma_sum = np.zeros(d * d)
    gamma_sum = np.zeros(d)
    n = 0
    for lm in items:
        if lm.d != d:
            raise ValueError("local moments disagree on dimension")
        vec, mat = lm.pattern.scatter_index
        sigma_sum[mat] += lm.sigma_sum.ravel()
        gamma_sum[vec] += lm.gamma_sum
        n += lm.count
    if n == 0:
        raise ValueError("no rows: the total sample count is zero")
    return LocalMoments(sigma_sum.reshape(d, d), gamma_sum, n, FeaturePattern.full(d))


def co_observation(patterns: Iterable[FeaturePattern], weights: Iterable[float]) -> np.ndarray:
    """sum_k w_k m_k m_k^T over the patterns' bitmasks m_k, in float64, folded
    in the given order.

    With w_k = rho_k this is the population co-observation matrix Pi; with
    w_k = n_k it is the count matrix N of samples observing both coordinates
    (exact while the counts stay below 2^53); with w_k = 1 it counts the
    patterns. Only patterns and weights are read, never covariate values.
    """
    patterns = list(patterns)
    if not patterns:
        raise ValueError("co_observation: no pattern was given")
    d = patterns[0].d
    pi = np.zeros((d, d))
    for p, w in zip(patterns, weights, strict=True):
        m = p.mask().astype(np.float64)
        pi += w * np.outer(m, m)
    return pi


def debias_moments(zero: LocalMoments, pi: np.ndarray) -> MomentPair:
    """Divide the zero-imputed moments, the averages of the pooled sums
    ``zero``, entrywise by the co-observation matrix.

    Entries with Pi[l, j] = 0 are unidentifiable; they stay 0.0 and the
    coverage mask marks them. Requires population (or otherwise known) Pi.
    """
    return _divide_covered(zero.sigma, zero.gamma, pi, "pi")


def cw_moments(pooled: LocalMoments, counts: np.ndarray) -> MomentPair:
    """Component-wise estimator: each entry averaged over co-observing rows.

    ``pooled`` holds the zero-imputed sums and ``counts`` is N
    (``co_observation`` with n_k weights): each per-pair sum is divided by
    its per-pair count. Uncovered pairs (N = 0) stay 0.0. The result need
    not be PSD.
    """
    return _divide_covered(pooled.sigma_sum, pooled.gamma_sum, counts, "counts")


def _divide_covered(sigma: np.ndarray, gamma: np.ndarray, weights: np.ndarray, name: str) -> MomentPair:
    """sigma / weights and gamma / diag(weights) entrywise where the weight is
    positive, 0.0 elsewhere; the positive entries of ``weights`` (called
    ``name`` in the shape error) are the coverage."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != sigma.shape:
        raise ValueError(f"{name} shape {weights.shape} != sigma shape {sigma.shape}")
    covered = weights > 0
    diag = np.diag(weights)
    diag_ok = diag > 0
    return MomentPair(np.where(covered, sigma, 0.0) / np.where(covered, weights, 1.0),
                      np.where(diag_ok, gamma, 0.0) / np.where(diag_ok, diag, 1.0), coverage=covered)


def completed_sums(uploads: Mapping[int, LocalMoments], imputer) -> Iterator[LocalMoments]:
    """The completed-data sums (d x d, d, n_k) of the senders' observed sums
    ``uploads`` (sender id to ``LocalMoments``) under an ``ImputationMap``,
    in the given order: ``ImputationMap.complete_moments`` of each upload's
    block as it is. The population oracle folds the same maps over the
    population moments.
    """
    full = None
    for lm in uploads.values():
        full = full or FeaturePattern.full(lm.d)
        yield LocalMoments(*imputer.complete_moments(lm.pattern, lm.sigma_sum, lm.gamma_sum), lm.count, full)


def imputed_data_moments(uploads: Mapping[int, LocalMoments], imputer) -> LocalMoments:
    """The pooled sums (X^T X, X^T y, n) of the senders' data completed by
    ``imputer``, whose ``sigma`` and ``gamma`` are the averages: its
    ``completed_sums`` pooled by ``aggregate_zero_imputed``, as a server
    folds uploads."""
    return aggregate_zero_imputed(completed_sums(uploads, imputer))
