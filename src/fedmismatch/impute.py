"""Linear per-pattern imputation maps and the iterated federated variant.

An imputation map is one covariance estimate sigma, or none for the zero
map (``ImputationMap``). It completes a pattern's vector by keeping the
observed coordinates and filling the missing ones with S x_obs, where
S = sigma[mis, obs] sigma[obs, obs]^+ (``optimal_block_map``; zeros under
the zero map) is formed when the pattern is first read and then kept: any
pattern of the map's d has one, formed once and shared by its clients.

A completed row is (x_obs, S x_obs) in observed-then-missing order, so
``ImputationMap.complete_moments`` completes moments (G, g) over a
pattern's observed block in block form, from S alone: on a sender's
uploaded sums G_k = x_obs^T x_obs and g_k = x_obs^T y it gives the
completed-data sums every server-side fit reads (``moments.completed_sums``),
and on the population moments cropped to the pattern the imputed-population
moments ``oracle`` reads. No fit builds a completed row, and no d x d array
is stored per pattern.

``federated_ice`` reads the senders' Grams alone. It starts from the zero
map and, for a fixed number of rounds, takes the raw (uncentered) Gram sum
of the currently completed data as the next map: S's pseudo-inverse cuts
eigenvalues relative to the largest, so S does not depend on sigma's scale
and no count is read. Each round every G_k is completed under the current
map and the server folds them in sender-id order. G_k is fixed, so one
upload per sender serves every round; ``fedsim.run_protocol`` runs this
same function and logs that round trip.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import pinv
from .model import FeaturePattern, LocalMoments
from .moments import imputed_data_moments

__all__ = ["ImputationMap", "optimal_block_map", "federated_ice"]


class _Blocks(dict):
    """S by pattern, each formed from ``sigma`` (zeros when it is None) on first read and kept read-only."""

    def __init__(self, sigma: np.ndarray | None) -> None:
        super().__init__()
        self.sigma = sigma

    def __missing__(self, pattern: FeaturePattern) -> np.ndarray:
        if self.sigma is None:
            s = np.zeros((len(pattern.missing), pattern.size))
        elif pattern.d != len(self.sigma):
            raise ValueError(f"pattern {pattern.one_based()} has d={pattern.d}, not the map's d={len(self.sigma)}")
        else:
            s = optimal_block_map(self.sigma, pattern)
        s.flags.writeable = False
        self[pattern] = s
        return s


@dataclass(frozen=True)
class ImputationMap:
    """The completion maps of one covariance estimate, held as a read-only
    square copy ``sigma`` (None: the zero map): the population covariance
    or any estimate at any scale (ICE's is a Gram sum), used as given (a
    component-wise one is never PSD-projected). ``maps[p]`` is pattern p's
    read-only (|mis(p)|, |obs(p)|) S, formed on first read; a pattern whose
    d is not sigma's raises ``ValueError``."""

    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sigma is not None:
            sigma = np.array(self.sigma, dtype=np.float64)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise ValueError(f"sigma must be a square matrix, got shape {sigma.shape}")
            sigma.flags.writeable = False
            object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "maps", _Blocks(self.sigma))

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


def optimal_block_map(sigma: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """S = sigma[mis, obs] sigma[obs, obs]^+ for one pattern, from the cutoff
    pseudo-inverse of sigma[obs, obs]; the only place S is formed."""
    if not pattern.missing or not pattern.observed:
        return np.zeros((len(pattern.missing), pattern.size))
    sigma = np.asarray(sigma, dtype=np.float64)
    obs = list(pattern.observed)
    return sigma[np.ix_(list(pattern.missing), obs)] @ pinv(sigma[np.ix_(obs, obs)])


def federated_ice(uploads: Mapping[int, LocalMoments], rounds: int) -> ImputationMap:
    """Iterated conditional-expectation completion from the senders'
    observed Grams ``uploads`` (sender id to ``LocalMoments``, in ascending
    id order).

    Iteration starts from the zero map and runs exactly ``rounds`` rounds.
    Each round the senders' Grams G_k, completed under the current map, are
    folded in the given order into the raw Gram sum, which is the next map;
    no row is completed and no n_k is read. ``rounds`` = 0 returns the zero map.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    imputer = ImputationMap()
    for _ in range(rounds):
        imputer = ImputationMap(imputed_data_moments(uploads, imputer).sigma_sum)
    return imputer
