"""Linear per-client imputation maps and the iterated federated variant.

An imputation map assigns each client a matrix S_k of shape (|mis|, |obs|);
the completed vector keeps observed coordinates verbatim and fills missing
ones with S_k x_obs. The optimal linear choice is the population regression
of missing on observed coordinates, S_k = sigma[mis, obs] sigma[obs, obs]^+
(``optimal_block_map``), from any full covariance estimate.

A completed row is x_obs B_k, with B_k = [I | S_k^T] placed into d columns.
``ImputationMap.complete_moments`` maps any (sigma, gamma) to (B_k^T sigma
B_k, B_k^T gamma): on a client's observed sums G_k = x_obs^T x_obs and
g_k = x_obs^T y (``Dataset.local_moments``) it gives the completed-data sums
every fit (closed-form ridge, FedAvg, ICE) reads (``moments.completed_sums``),
and on population moments the oracle's imputed-population moments. An
``ImputedDataset`` is the masked data plus its map; completed rows are built
only for inspection.

``federated_ice`` alternates between re-estimating the full second-moment
matrix of the currently completed data and refreshing every client's map
from it. Raw (uncentered) second moments are used throughout, matching the
zero-imputation initial round. Each round every client reports B_k^T G_k B_k
for its current map and the server folds them in client-id order; no client
re-reads its rows. ``fedsim.run_protocol`` runs this same function and logs
the messages it implies.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ._linalg import pinv
from .model import Dataset, FeaturePattern, validate_federation
from .moments import imputed_data_moments

__all__ = [
    "ImputerKind",
    "ImputationMap",
    "ImputedDataset",
    "fit_zero_imputer",
    "fit_optimal_imputer",
    "optimal_block_map",
    "apply_imputer",
    "federated_ice",
    "IceResult",
]


class ImputerKind(enum.Enum):
    ZERO = "zero"
    OPTIMAL_LINEAR = "optimal_linear"
    ICE = "ice"


@dataclass(frozen=True)
class ImputationMap:
    """Per-client linear completion maps.

    ``maps[k]`` is (|mis(k)|, |obs(k)|). ``round`` tags iterated fits, and
    ``zero_filled`` lists clients that observe nothing and therefore fall
    back to zero imputation.
    """

    kind: ImputerKind
    maps: Mapping[int, np.ndarray]
    patterns: Mapping[int, FeaturePattern]
    round: int | None = None
    zero_filled: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        maps = {int(k): np.asarray(v, dtype=np.float64) for k, v in self.maps.items()}
        pats = dict(self.patterns)
        if set(maps) != set(pats):
            raise ValueError("maps and patterns must cover the same client ids")
        for k, s in maps.items():
            p = pats[k]
            want = (len(p.missing), p.size)
            if s.shape != want:
                raise ValueError(f"client {k}: map shape {s.shape}, expected {want}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "patterns", pats)
        object.__setattr__(self, "zero_filled", frozenset(self.zero_filled))

    def complete(self, client_id: int, x_obs: np.ndarray) -> np.ndarray:
        """Fill one observed vector, or each row of an (m, |obs|) block, out to
        all d coordinates."""
        if client_id not in self.maps:
            raise KeyError(f"no imputation map for client {client_id}")
        p = self.patterns[client_id]
        x_obs = np.asarray(x_obs, dtype=np.float64)
        out = np.zeros(x_obs.shape[:-1] + (p.d,))
        if p.observed:
            out[..., list(p.observed)] = x_obs
        if p.missing:
            out[..., list(p.missing)] = x_obs @ self.maps[client_id].T
        return out

    def complete_moments(self, client_id: int, sigma: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sym(B^T sigma B), B^T gamma), B the client's completion in d coordinates:
        row j completes e_j, and rows at missing j are zero, so only the observed
        blocks of ``sigma`` and ``gamma`` are read."""
        d = self.patterns[client_id].d
        b = self.complete(client_id, np.eye(d)[:, list(self.patterns[client_id].observed)])
        block = b.T @ sigma @ b
        return (block + block.T) / 2.0, b.T @ gamma


def fit_zero_imputer(clients) -> ImputationMap:
    """Imputation by zeros: S_k = 0 for every client."""
    clients = validate_federation(clients)
    maps = {c.id: np.zeros((len(c.pattern.missing), c.pattern.size)) for c in clients}
    return ImputationMap(
        kind=ImputerKind.ZERO,
        maps=maps,
        patterns={c.id: c.pattern for c in clients},
    )


def optimal_block_map(sigma: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """S = sigma[mis, obs] sigma[obs, obs]^+ for one pattern."""
    if not pattern.missing or not pattern.observed:
        return np.zeros((len(pattern.missing), pattern.size))
    return _pinv_and_block_map(sigma, pattern)[1]


def _pinv_and_block_map(sigma: np.ndarray, pattern: FeaturePattern) -> tuple[np.ndarray, np.ndarray]:
    """(sigma[obs, obs]^+, S) from one pseudo-inverse, none for an empty block;
    the only place S is formed."""
    sigma = np.asarray(sigma, dtype=np.float64)
    obs = list(pattern.observed)
    p_oo = pinv(sigma[np.ix_(obs, obs)]) if obs else np.zeros((0, 0))
    return p_oo, sigma[np.ix_(list(pattern.missing), obs)] @ p_oo


def fit_optimal_imputer(sigma: np.ndarray, clients) -> ImputationMap:
    """Best linear completion maps from a full covariance estimate.

    ``sigma`` may be the population covariance or any estimate of it (a
    component-wise estimate is used as produced, never PSD-projected).
    Clients observing nothing get a zero map and are flagged.
    """
    clients = validate_federation(clients)
    maps: dict[int, np.ndarray] = {}
    flagged: set[int] = set()
    for c in clients:
        maps[c.id] = optimal_block_map(sigma, c.pattern)
        if c.pattern.is_empty and c.pattern.missing:
            flagged.add(c.id)
    return ImputationMap(
        kind=ImputerKind.OPTIMAL_LINEAR,
        maps=maps,
        patterns={c.id: c.pattern for c in clients},
        zero_filled=frozenset(flagged),
    )


@dataclass(frozen=True)
class ImputedDataset:
    """A masked ``Dataset`` plus a linear ``ImputationMap`` fitted for every
    client's pattern. Fits read the clients' observed sums; only the
    completed matrix ``x`` builds completed rows, on each access, for tests
    and inspection."""

    data: Dataset
    imputer: ImputationMap

    def __post_init__(self) -> None:
        for c in self.data.clients:
            if c.id not in self.imputer.maps:
                raise KeyError(f"imputer lacks a map for client {c.id}")
            if self.imputer.patterns[c.id] != c.pattern:
                raise ValueError(f"client {c.id}: imputer fitted for a different pattern")

    @property
    def y(self) -> np.ndarray:
        return self.data.y

    @property
    def shard_rows(self) -> dict[int, np.ndarray]:
        return self.data.shard_rows

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def x(self) -> np.ndarray:
        """The completed (n, d) design, in row order, built on each access."""
        x = np.empty((self.n, self.d))
        for cid, rows in self.shard_rows.items():
            x[rows] = self.imputer.complete(cid, self.data.x_obs_of(cid))
        return x


def apply_imputer(imputer: ImputationMap, data: Dataset) -> ImputedDataset:
    """Complete a masked dataset: observed coordinates stay bitwise, each
    client's missing block is x_obs @ S_k^T. Nothing is copied."""
    return ImputedDataset(data, imputer)


@dataclass(frozen=True)
class IceResult:
    """Final completed data and the per-round moment estimates."""

    imputed: ImputedDataset
    sigma_trace: tuple[np.ndarray, ...]
    rounds_run: int
    stopped_early: bool


def federated_ice(
    data: Dataset,
    rounds: int,
    init: ImputationMap | None = None,
    early_stop_rms: float | None = None,
) -> IceResult:
    """Iterated conditional-expectation completion over a federation.

    Iteration starts from ``init`` (zero maps when absent). Each round the
    clients' completed Gram sums B_k^T G_k B_k under their current maps,
    computed from their observed Grams G_k, are folded in ascending id order
    into the raw second-moment estimate, and every client's optimal block map
    is refreshed from it; no completed row is built. Clients without rows add
    zero sums. ``rounds`` = 0 returns the initial completion. When
    ``early_stop_rms`` is set, iteration stops once the RMS change over
    imputed entries, sqrt(sum_k tr(dS_k G_k dS_k^T) / #entries) for map
    changes dS_k, falls below it, and the result records the stop.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if data.n == 0:
        raise ValueError("no samples across the federation")
    clients = sorted(data.clients, key=lambda c: c.id)
    current = ImputedDataset(data, init if init is not None else fit_zero_imputer(data.clients))
    local = data.local_moments
    n_missing = sum(len(c.pattern.missing) * local[c.id].count for c in clients)
    trace: list[np.ndarray] = []
    stopped = False
    for t in range(1, rounds + 1):
        sigma_t = imputed_data_moments(current)[0]
        trace.append(sigma_t)
        imputer = replace(fit_optimal_imputer(sigma_t, clients), kind=ImputerKind.ICE, round=t)
        if early_stop_rms is not None:
            change = 0.0
            for c in clients:
                delta = imputer.maps[c.id] - current.imputer.maps[c.id]
                obs = list(c.pattern.observed)
                change += float(np.sum((delta @ local[c.id].sigma_sum[np.ix_(obs, obs)]) * delta))
            # tr(dS G dS^T) >= 0; rounding can push an exact zero slightly below it
            stopped = (float(np.sqrt(max(change, 0.0) / n_missing)) if n_missing else 0.0) < early_stop_rms
        current = ImputedDataset(data, imputer)
        if stopped:
            break
    return IceResult(imputed=current, sigma_trace=tuple(trace), rounds_run=len(trace), stopped_early=stopped)
