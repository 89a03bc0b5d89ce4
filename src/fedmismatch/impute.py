"""Linear per-pattern imputation maps and the iterated federated variant.

An imputation map assigns each observation pattern a matrix S of shape
(|mis|, |obs|); the completed vector keeps observed coordinates verbatim and
fills missing ones with S x_obs. Every map fitted here is
S = sigma[mis, obs] sigma[obs, obs]^+ for one pattern
(``optimal_block_map``), with sigma = 0 for the zero map, so clients that
share a pattern share a map and each distinct pattern's map is formed once.

A completed row is x_obs B, with B = [I | S^T] placed into d columns.
``ImputationMap.complete_moments`` maps any (sigma, gamma) to (B^T sigma B,
B^T gamma): on a client's observed sums G_k = x_obs^T x_obs and
g_k = x_obs^T y (``Dataset.local_moments``) it gives the completed-data sums
every fit (closed-form ridge, FedAvg, ICE) reads (``moments.completed_sums``,
which takes the masked ``Dataset`` and the map side by side), and on
population moments the oracle's imputed-population moments. No fit builds a
completed row.

``federated_ice`` starts from zero imputation and, for a fixed number of
rounds, alternates between re-estimating the full second-moment matrix of
the currently completed data and refreshing every pattern's map from it.
Raw (uncentered) second moments are used throughout, matching the
zero-imputation start. Each round every client reports B_k^T G_k B_k for its
pattern's current map and the server folds them in client-id order; no
client re-reads its rows. ``fedsim.run_protocol`` runs this same function
and logs the messages it implies.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import SymEig, pinv
from .model import Dataset, FeaturePattern, validate_federation
from .moments import imputed_data_moments

__all__ = [
    "ImputerKind",
    "ImputationMap",
    "fit_zero_imputer",
    "fit_optimal_imputer",
    "optimal_block_map",
    "federated_ice",
]


class ImputerKind(enum.Enum):
    """The population-fitted maps the oracle evaluates (``oracle.itr_bound``)."""

    ZERO = "zero"
    OPTIMAL_LINEAR = "optimal_linear"


@dataclass(frozen=True)
class ImputationMap:
    """Linear completion maps keyed by pattern; ``maps[p]`` is (|mis(p)|, |obs(p)|)."""

    maps: Mapping[FeaturePattern, np.ndarray]

    def __post_init__(self) -> None:
        maps = {p: np.asarray(s, dtype=np.float64) for p, s in self.maps.items()}
        for p, s in maps.items():
            want = (len(p.missing), p.size)
            if s.shape != want:
                raise ValueError(f"pattern {p.one_based()}: map shape {s.shape}, expected {want}")
        object.__setattr__(self, "maps", maps)

    def complete(self, pattern: FeaturePattern, x_obs: np.ndarray) -> np.ndarray:
        """Fill one observed vector, or each row of an (m, |obs|) block, out to
        all d coordinates."""
        if pattern not in self.maps:
            raise KeyError(f"no imputation map for pattern {pattern.one_based()} of d={pattern.d}")
        x_obs = np.asarray(x_obs, dtype=np.float64)
        out = np.zeros(x_obs.shape[:-1] + (pattern.d,))
        if pattern.observed:
            out[..., list(pattern.observed)] = x_obs
        if pattern.missing:
            out[..., list(pattern.missing)] = x_obs @ self.maps[pattern].T
        return out

    def complete_moments(self, pattern: FeaturePattern, sigma: np.ndarray,
                         gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sym(B^T sigma B), B^T gamma), B the pattern's completion in d
        coordinates: row j completes e_j, and rows at missing j are zero, so
        only the observed blocks of ``sigma`` and ``gamma`` are read."""
        b = self.complete(pattern, np.eye(pattern.d)[:, list(pattern.observed)])
        block = b.T @ sigma @ b
        return (block + block.T) / 2.0, b.T @ gamma


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
    round the clients' completed Gram sums B_k^T G_k B_k under their current
    maps, computed from their observed Grams G_k, are folded in ascending id
    order into the raw second-moment estimate, and every pattern's optimal
    block map is refreshed from it; no completed row is built. Clients
    without rows add zero sums. ``rounds`` = 0 returns the zero maps.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if data.n == 0:
        raise ValueError("no samples across the federation")
    imputer = fit_zero_imputer(data.clients)
    for _ in range(rounds):
        imputer = fit_optimal_imputer(imputed_data_moments(data, imputer).sigma, data.clients)
    return imputer
