"""Moment estimators computable from masked data, and their wire format.

Each client uploads its observed block's moment sums
(``local_zero_imputed_moments``), and one fold, ``aggregate_zero_imputed``,
pools any such uploads: observed sums into the zero-imputed estimator,
completed sums (``completed_sums``) into the completed-data moments
(``imputed_data_moments``); both read the uploads alone (sender id to
``LocalMoments``), never a sample. The pattern bitmasks m_k go through one
other fold, ``co_observation``: sum_k w_k m_k m_k^T, the population
co-observation matrix Pi with w_k = rho_k and the count matrix N with
w_k = n_k.

Three estimators of (E[X X^T], E[X Y]) from blockwise-masked samples:

* zero-imputed: plain averages of (m . x)(m . x)^T and (m . x) y. Biased;
  its expectation is (Pi . sigma, diag(Pi) . gamma) with Pi the
  co-observation matrix.
* debiased: entrywise division of the zero-imputed moments by the known Pi
  (inverse-propensity weighting). Unbiased where Pi > 0.
* component-wise: entrywise division by the empirical co-observation
  frequencies; equivalently, each entry is the average over the samples that
  observe both coordinates. Unbiased given the counts, but NOT guaranteed
  PSD.

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


def aggregate_zero_imputed(locals_: Iterable[LocalMoments]) -> MomentPair:
    """Pool moment sums, scatter-added in the given order into one d x d
    accumulator, into their averages. It starts at +0.0, so never holds
    -0.0, and adding a padded block's zeros would change no bit.

    Sums are divided once by the total count, so the result is independent
    of how the samples were sharded. This is the one server-side fold: it
    pools observed sums into the zero-imputed estimator and completed sums
    into the completed-data moments (``imputed_data_moments``).
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
    return MomentPair(sigma_sum.reshape(d, d) / n, gamma_sum / n)


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


def debias_moments(zero: MomentPair, pi: np.ndarray) -> MomentPair:
    """Divide zero-imputed moments entrywise by the co-observation matrix.

    Entries with Pi[l, j] = 0 are unidentifiable; they stay 0.0 and the
    coverage mask marks them. Requires population (or otherwise known) Pi.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != zero.sigma.shape:
        raise ValueError(f"pi shape {pi.shape} != sigma shape {zero.sigma.shape}")
    return _divide_covered(zero.sigma, zero.gamma, pi)


def cw_moments(zero: MomentPair, counts: np.ndarray, n: int) -> MomentPair:
    """Component-wise estimator: each entry averaged over co-observing rows.

    ``counts`` is N (``co_observation`` with n_k weights) and ``n`` the total
    row count. Computed as (n * zero-imputed entry) / N[l, j], which is the
    per-pair sum divided by the per-pair count. Uncovered pairs (N = 0) stay
    0.0. The result need not be PSD.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != zero.sigma.shape:
        raise ValueError(f"counts shape {counts.shape} != sigma shape {zero.sigma.shape}")
    return _divide_covered(n * zero.sigma, n * zero.gamma, counts)


def _divide_covered(sigma: np.ndarray, gamma: np.ndarray, weights: np.ndarray) -> MomentPair:
    """sigma / weights and gamma / diag(weights) entrywise where the weight is
    positive, 0.0 elsewhere; the positive entries of ``weights`` are the coverage."""
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


def imputed_data_moments(uploads: Mapping[int, LocalMoments], imputer) -> MomentPair:
    """Averages (X^T X / n, X^T y / n) of the senders' data completed by
    ``imputer``: its ``completed_sums`` pooled by ``aggregate_zero_imputed``,
    as a server folds uploads."""
    return aggregate_zero_imputed(completed_sums(uploads, imputer))
