"""Linear per-pattern imputation maps and the iterated federated variant.

An imputation map assigns each observation pattern a matrix S of shape
(|mis|, |obs|); the completed vector keeps observed coordinates verbatim and
fills missing ones with S x_obs. Every map fitted here is
S = sigma[mis, obs] sigma[obs, obs]^+ for one pattern
(``optimal_block_map``), with sigma = 0 for the zero map, so clients that
share a pattern share a map and each distinct pattern's map is formed once.

A completed row is (x_obs, S x_obs) in observed-then-missing order, so
``ImputationMap.complete_moments`` completes moments (G, g) over a
pattern's observed block in block form, from S alone: on a client's sums
G_k = x_obs^T x_obs and g_k = x_obs^T y (``Dataset.local_moments``) it gives
the completed-data sums every fit (closed-form ridge, FedAvg, ICE) reads
(``moments.completed_sums``), and on the population moments cropped to the
pattern the imputed-population moments ``oracle`` reads for the map a method
fitted. No fit builds a completed row, and no d x d array is stored per pattern.

``federated_ice`` starts from zero imputation and, for a fixed number of
rounds, alternates between re-estimating the full second-moment matrix of
the currently completed data and refreshing every pattern's map from it.
Raw (uncentered) second moments are used throughout, matching the
zero-imputation start. Each round every client's G_k is completed under its
pattern's current map and the server folds them in client-id order; G_k is
fixed, so one upload per client serves every round. ``fedsim.run_protocol``
runs this same function and logs that one round trip.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import SymEig, pinv
from .model import Dataset, FeaturePattern, validate_federation
from .moments import imputed_data_moments

__all__ = [
    "ImputationMap",
    "fit_zero_imputer",
    "fit_optimal_imputer",
    "optimal_block_map",
    "federated_ice",
]


class _ByPattern(dict):
    """A dict keyed by pattern whose missing pattern raises a ``KeyError`` naming it."""

    def __missing__(self, pattern: FeaturePattern):
        raise KeyError(f"no imputation map for pattern {pattern.one_based()} of d={pattern.d}")


@dataclass(frozen=True)
class ImputationMap:
    """Linear completion maps keyed by pattern; ``maps[p]`` is a read-only (|mis(p)|, |obs(p)|) copy."""

    maps: Mapping[FeaturePattern, np.ndarray]

    def __post_init__(self) -> None:
        maps = _ByPattern()
        for p, s in self.maps.items():
            s = np.array(s, dtype=np.float64)
            want = (len(p.missing), p.size)
            if s.shape != want:
                raise ValueError(f"pattern {p.one_based()}: map shape {s.shape}, expected {want}")
            s.flags.writeable = False
            maps[p] = s
        object.__setattr__(self, "maps", maps)

    def complete(self, pattern: FeaturePattern, x_obs: np.ndarray) -> np.ndarray:
        """Fill one observed vector, or each row of an (m, |obs|) block, out to
        all d coordinates: observed ones are copied, missing ones are x_obs S^T."""
        x_obs = np.asarray(x_obs, dtype=np.float64)
        return np.concatenate((x_obs, x_obs @ self.maps[pattern].T), axis=-1)[..., pattern.block_position]

    def complete_moments(self, pattern: FeaturePattern, gram: np.ndarray,
                         cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Completed (d x d, d) moments from symmetric G (|obs| x |obs|) and g
        over the pattern's observed block, reading its S alone: the blocks
        G, S G, (S G)^T, sym(S G S^T) and (g, S g) in observed-then-missing
        order, put back in place by the pattern's ``block_position``. A zero
        S completes by a scatter of (G, g) into zeros alone."""
        s, o, d = self.maps[pattern], pattern.size, pattern.d
        if np.shape(gram) != (o, o) or np.shape(cross) != (o,):
            raise ValueError(f"pattern {pattern.one_based()}: moments {np.shape(gram)}, {np.shape(cross)}, "
                             f"not ({o}, {o}), ({o},)")
        if not s.any():
            vec, mat = pattern.scatter_index
            sigma, gamma = np.zeros(d * d), np.zeros(d)
            sigma[mat], gamma[vec] = np.ravel(gram), cross
            return sigma.reshape(d, d), gamma
        s_gram = s @ gram
        missing = s_gram @ s.T
        ordered = np.empty((d, d))
        ordered[:o, :o] = gram
        ordered[o:, :o] = s_gram
        ordered[:o, o:] = s_gram.T
        ordered[o:, o:] = (missing + missing.T) / 2.0
        back = pattern.block_position
        return ordered[back[:, None], back], self.complete(pattern, cross)


def fit_zero_imputer(clients) -> ImputationMap:
    """Imputation by zeros: S = 0 for each distinct pattern among ``clients``,
    in first-seen order."""
    patterns = dict.fromkeys(c.pattern for c in validate_federation(clients))
    return ImputationMap({p: np.zeros((len(p.missing), p.size)) for p in patterns})


def optimal_block_map(sigma: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """S = sigma[mis, obs] sigma[obs, obs]^+ for one pattern."""
    if not pattern.missing or not pattern.observed:
        return np.zeros((len(pattern.missing), pattern.size))
    return _factor_and_block_map(sigma, pattern)[1]


def _factor_and_block_map(sigma: np.ndarray, pattern: FeaturePattern) -> tuple[SymEig, np.ndarray]:
    """(the ``SymEig`` factor of sigma[obs, obs], S from its pseudo-inverse);
    the only place S is formed."""
    sigma = np.asarray(sigma, dtype=np.float64)
    obs = list(pattern.observed)
    factor = SymEig(sigma[np.ix_(obs, obs)])
    return factor, sigma[np.ix_(list(pattern.missing), obs)] @ pinv(factor)


def fit_optimal_imputer(sigma: np.ndarray, clients) -> ImputationMap:
    """Best linear completion maps from a full covariance estimate, one per
    distinct pattern among ``clients``, in first-seen order.

    ``sigma`` may be the population covariance or any estimate of it (a
    component-wise estimate is used as produced, never PSD-projected).
    Patterns observing nothing get a zero map.
    """
    patterns = dict.fromkeys(c.pattern for c in validate_federation(clients))
    return ImputationMap({p: optimal_block_map(sigma, p) for p in patterns})


def federated_ice(data: Dataset, rounds: int) -> ImputationMap:
    """Iterated conditional-expectation completion over a federation.

    Iteration starts from zero maps and runs exactly ``rounds`` rounds. Each
    round the clients' Grams G_k, completed under their current maps, are
    folded in ascending id order into the raw second-moment estimate, which
    refreshes every pattern's optimal block map; no row is completed.
    Clients without rows add zero sums. ``rounds`` = 0 returns the zero maps.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if data.n == 0:
        raise ValueError("no samples across the federation")
    imputer = fit_zero_imputer(data.clients)
    for _ in range(rounds):
        imputer = fit_optimal_imputer(imputed_data_moments(data, imputer).sigma, data.clients)
    return imputer
