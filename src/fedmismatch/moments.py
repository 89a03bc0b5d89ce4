"""Moment estimators computable from masked data, and their wire format.

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

Wire format (version 2): each client uploads sums, not averages, so
aggregation is exact and associative. Payload slots, in order:
``[n_k] [upper-tri sigma sums, row-major] [gamma sums]``, which is
d(d+1)/2 + d + 1 floats. The pattern bitmask itself is sent once at
registration and accounted as d bits, separately from float counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .model import Dataset, FeaturePattern, LocalMoments, MomentPair

__all__ = [
    "LocalMoments",
    "CoObservationCounts",
    "local_zero_imputed_moments",
    "aggregate_zero_imputed",
    "coobservation_counts",
    "empirical_coobservation",
    "debias_moments",
    "cw_moments",
    "gram_fold",
    "completed_sums",
    "imputed_data_moments",
]


def local_zero_imputed_moments(x_obs: np.ndarray, y: np.ndarray, pattern: FeaturePattern) -> LocalMoments:
    """Moment sums of one client's samples, embedded into d x d coordinates.

    ``x_obs`` is (n_k, |obs|) over the pattern's observed columns. Unobserved
    coordinates contribute structural zeros, which is exactly the
    zero-imputation convention.
    """
    x_obs = np.asarray(x_obs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x_obs.ndim != 2 or x_obs.shape[1] != pattern.size:
        raise ValueError(f"x_obs must be (n_k, {pattern.size}), got {x_obs.shape}")
    if y.shape != (x_obs.shape[0],):
        raise ValueError(f"y must be ({x_obs.shape[0]},), got {y.shape}")
    d = pattern.d
    sigma_sum = np.zeros((d, d))
    gamma_sum = np.zeros(d)
    if x_obs.shape[0] and pattern.observed:
        idx = list(pattern.observed)
        # gram_fold symmetrizes at the source, so the packed upper-triangle
        # wire format loses nothing.
        sigma_sum[np.ix_(idx, idx)], gamma_sum[idx] = gram_fold([(x_obs, y)], pattern.size)
    return LocalMoments(sigma_sum=sigma_sum, gamma_sum=gamma_sum, count=x_obs.shape[0])


def aggregate_zero_imputed(locals_: list[LocalMoments] | dict[int, LocalMoments]) -> MomentPair:
    """Pool local moment sums into the zero-imputed estimator.

    Sums are folded in the given order (dicts: ascending key order), then
    divided once by the total count, so the result is independent of how the
    samples were sharded.
    """
    if isinstance(locals_, dict):
        items = [locals_[k] for k in sorted(locals_)]
    else:
        items = list(locals_)
    if not items:
        raise ValueError("nothing to aggregate")
    d = items[0].d
    sigma_sum = np.zeros((d, d))
    gamma_sum = np.zeros(d)
    n = 0
    for lm in items:
        if lm.d != d:
            raise ValueError("local moments disagree on dimension")
        sigma_sum += lm.sigma_sum
        gamma_sum += lm.gamma_sum
        n += lm.count
    if n == 0:
        raise ValueError("total sample count is zero")
    return MomentPair(sigma_sum / n, gamma_sum / n)


@dataclass(frozen=True)
class CoObservationCounts:
    """N[l, j] = number of samples observing both l and j; n = total rows."""

    counts: np.ndarray
    n: int

    @property
    def d(self) -> int:
        return self.counts.shape[0]


def coobservation_counts(clients, sizes: Mapping[int, int]) -> CoObservationCounts:
    """N = sum_k n_k m_k m_k^T from patterns and per-client sample counts.

    ``sizes`` maps client id to n_k; absent ids count as zero rows.
    """
    clients = tuple(clients)
    d = clients[0].pattern.d
    counts = np.zeros((d, d), dtype=np.int64)
    n = 0
    for c in clients:
        n_k = int(sizes.get(c.id, 0))
        if n_k:
            m = c.pattern.mask().astype(np.int64)
            counts += n_k * np.outer(m, m)
            n += n_k
    return CoObservationCounts(counts=counts, n=n)


def empirical_coobservation(data: Dataset) -> tuple[np.ndarray, CoObservationCounts]:
    """Empirical co-observation frequencies Pi_hat = N / n and the counts.

    Computable from patterns and per-client sample counts alone; no
    covariate values are touched.
    """
    if data.n == 0:
        raise ValueError("empty dataset has no co-observation frequencies")
    sizes = {cid: len(rows) for cid, rows in data.shard_rows.items()}
    counts = coobservation_counts(data.clients, sizes)
    return counts.counts / counts.n, counts


def debias_moments(zero: MomentPair, pi: np.ndarray) -> MomentPair:
    """Divide zero-imputed moments entrywise by the co-observation matrix.

    Entries with Pi[l, j] = 0 are unidentifiable; they stay 0.0 and the
    coverage mask marks them. Requires population (or otherwise known) Pi.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != zero.sigma.shape:
        raise ValueError(f"pi shape {pi.shape} != sigma shape {zero.sigma.shape}")
    return _divide_covered(zero.sigma, zero.gamma, pi)


def cw_moments(zero: MomentPair, counts: CoObservationCounts) -> MomentPair:
    """Component-wise estimator: each entry averaged over co-observing rows.

    Computed as (n * zero-imputed entry) / N[l, j], which is the per-pair
    sum divided by the per-pair count. Uncovered pairs (N = 0) stay 0.0.
    The result need not be PSD.
    """
    n_mat = np.asarray(counts.counts, dtype=np.float64)
    if n_mat.shape != zero.sigma.shape:
        raise ValueError(f"counts shape {n_mat.shape} != sigma shape {zero.sigma.shape}")
    return _divide_covered(counts.n * zero.sigma, counts.n * zero.gamma, n_mat)


def _divide_covered(sigma: np.ndarray, gamma: np.ndarray, weights: np.ndarray) -> MomentPair:
    """sigma / weights and gamma / diag(weights) entrywise where the weight is
    positive, 0.0 elsewhere; the positive entries of ``weights`` are the coverage."""
    covered = weights > 0
    diag = np.diag(weights)
    diag_ok = diag > 0
    return MomentPair(np.where(covered, sigma, 0.0) / np.where(covered, weights, 1.0),
                      np.where(diag_ok, gamma, 0.0) / np.where(diag_ok, diag, 1.0), coverage=covered)


def gram_fold(shards: Iterable[tuple[np.ndarray, np.ndarray | None]], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of X_k^T X_k and X_k^T y_k over (x_k, y_k) shards, in the given order.

    Each Gram block is symmetrized before it is added, so the sum is exactly
    symmetric; a shard whose y_k is None adds nothing to the second sum.
    """
    sigma_sum = np.zeros((d, d))
    gamma_sum = np.zeros(d)
    for xk, yk in shards:
        block = xk.T @ xk
        sigma_sum += (block + block.T) / 2.0
        if yk is not None:
            gamma_sum += xk.T @ yk
    return sigma_sum, gamma_sum


def completed_sums(data) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Each client's completed-data sums (n_k, B_k^T G_k B_k, B_k^T g_k) of an
    ``ImputedDataset``, in ascending id order, clients without rows included
    (as zero sums). A row completed by S_k is x_obs B_k, so these are
    ``ImputationMap.complete_moments`` of the client's observed sums, O(d^3)
    whatever n_k; each Gram block is symmetrized, as in ``gram_fold``. The
    population oracle folds the same map over the population moments.
    """
    for cid, lm in data.data.local_moments.items():
        yield (lm.count, *data.imputer.complete_moments(cid, lm.sigma_sum, lm.gamma_sum))


def imputed_data_moments(data) -> tuple[np.ndarray, np.ndarray]:
    """Averages (X^T X / n, X^T y / n) of an ``ImputedDataset``: its
    ``completed_sums`` folded in ascending id order, as a server folds
    uploads."""
    if data.n == 0:
        raise ValueError("no rows")
    sigma_sum = np.zeros((data.d, data.d))
    gamma_sum = np.zeros(data.d)
    for _, gram, cross in completed_sums(data):
        sigma_sum += gram
        gamma_sum += cross
    return sigma_sum / data.n, gamma_sum / data.n
