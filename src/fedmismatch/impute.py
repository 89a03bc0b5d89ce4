"""Linear per-client imputation maps and the iterated federated variant.

An imputation map assigns each client a matrix S_k of shape (|mis|, |obs|);
the completed vector keeps observed coordinates verbatim and fills missing
ones with S_k x_obs. The optimal linear choice is the population regression
of missing on observed coordinates, S_k = sigma[mis, obs] sigma[obs, obs]^+,
computable from any full covariance estimate (exact or component-wise).

``federated_ice`` alternates between re-estimating the full second-moment
matrix of the currently completed data and refreshing every client's map
from it. Raw (uncentered) second moments are used throughout, matching the
zero-imputation initial round. It is written over per-client shards, the way
the federated protocol runs: each client completes its own rows and reports
second-moment sums, the server folds them in client-id order and returns the
pooled estimate. ``fedsim.run_protocol`` runs this same function and logs
the messages it implies.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from ._linalg import pinv
from .model import ClientSpec, Dataset, FeaturePattern, group_rows, validate_federation
from .moments import gram_fold

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

    ``maps[k]`` is (|mis(k)|, |obs(k)|). ``source`` names where the
    covariance came from ("population", "cw", ...), ``round`` tags iterated
    fits, and ``zero_filled`` lists clients that observe nothing and
    therefore fall back to zero imputation.
    """

    kind: ImputerKind
    maps: Mapping[int, np.ndarray]
    patterns: Mapping[int, FeaturePattern]
    source: str | None = None
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
        """Fill one observed vector out to all d coordinates."""
        if client_id not in self.maps:
            raise KeyError(f"no imputation map for client {client_id}")
        p = self.patterns[client_id]
        x_obs = np.asarray(x_obs, dtype=np.float64)
        out = np.zeros(p.d)
        if p.observed:
            out[list(p.observed)] = x_obs
        if p.missing:
            out[list(p.missing)] = self.maps[client_id] @ x_obs
        return out


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
    sigma = np.asarray(sigma, dtype=np.float64)
    obs = list(pattern.observed)
    mis = list(pattern.missing)
    if not mis:
        return np.zeros((0, len(obs)))
    if not obs:
        return np.zeros((len(mis), 0))
    s_oo = sigma[np.ix_(obs, obs)]
    s_mo = sigma[np.ix_(mis, obs)]
    return s_mo @ pinv(s_oo)


def fit_optimal_imputer(
    sigma: np.ndarray,
    clients,
    source: str = "population",
) -> ImputationMap:
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
        source=source,
        zero_filled=frozenset(flagged),
    )


@dataclass(frozen=True)
class ImputedDataset:
    """Completed design matrix plus the untouched responses and ownership,
    grouped by client once, on construction (``shard_rows``, as ``Dataset``)."""

    clients: tuple[ClientSpec, ...]
    client_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    imputer: ImputationMap | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", validate_federation(self.clients))
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        ids = np.asarray(self.client_ids, dtype=np.int64)
        if x.shape[0] != len(y) or len(ids) != len(y):
            raise ValueError("row counts disagree")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "shard_rows", group_rows(ids))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def shards(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(x_k, y_k) copies of each non-empty shard, in ascending client-id
        order, made one at a time as the caller advances."""
        for rows in self.shard_rows.values():
            yield self.x[rows], self.y[rows]


def _checked_map(imputer: ImputationMap, client: ClientSpec) -> np.ndarray:
    if client.id not in imputer.maps:
        raise KeyError(f"imputer lacks a map for client {client.id}")
    if imputer.patterns[client.id] != client.pattern:
        raise ValueError(f"client {client.id}: imputer fitted for a different pattern")
    return imputer.maps[client.id]


def apply_imputer(imputer: ImputationMap, data: Dataset) -> ImputedDataset:
    """Complete every row of a masked dataset.

    Observed coordinates are copied bitwise; each client's missing block is
    x_obs @ S_k^T. Row order is preserved, and the operation commutes with
    row permutation for that reason.
    """
    x = data.x_filled.copy()
    for c in data.clients:
        s = _checked_map(imputer, c)
        mis = list(c.pattern.missing)
        if not mis:
            continue
        rows = data.rows_of(c.id)
        x_obs = data.x_obs_of(c.id)
        x[np.ix_(rows, mis)] = x_obs @ s.T
    return ImputedDataset(clients=data.clients, client_ids=data.client_ids, x=x, y=data.y, imputer=imputer)


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

    Every client builds its completed block once, completed by ``init``
    (zeros when absent); its observed columns stay verbatim in that block.
    Each round the clients' symmetrized Gram sums are folded in ascending id
    order (``moments.gram_fold``) into the raw second-moment estimate, every
    client's optimal block map is refreshed from it, and each client
    overwrites its missing columns with x_obs @ S_k^T. Clients without rows
    add zero sums. ``rounds`` = 0 returns the initial completion
    unchanged. When ``early_stop_rms`` is set, iteration stops once the RMS
    change over imputed entries falls below it, and the result records the
    stop.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if data.n == 0:
        raise ValueError("no samples across the federation")
    d = data.d
    clients = sorted(data.clients, key=lambda c: c.id)
    shards = []  # (client, rows, completed block); observed columns are read back from it
    for c in clients:
        rows = data.rows_of(c.id)
        x_obs = data.x_obs_of(c.id)
        x_k = np.zeros((len(rows), d))
        if c.pattern.observed:
            x_k[:, list(c.pattern.observed)] = x_obs
        if init is not None:
            s = _checked_map(init, c)
            if c.pattern.missing and len(rows):
                x_k[:, list(c.pattern.missing)] = x_obs @ s.T
        del x_obs
        shards.append((c, rows, x_k))
    n_missing = sum(len(c.pattern.missing) * len(rows) for c, rows, _ in shards)
    trace: list[np.ndarray] = []
    maps: dict[int, np.ndarray] = {}
    stopped = False
    run = 0
    for t in range(1, rounds + 1):
        sigma_sum, _ = gram_fold(((x_k, None) for _, _, x_k in shards), d)
        sigma_t = sigma_sum / data.n
        trace.append(sigma_t)
        maps = {c.id: optimal_block_map(sigma_t, c.pattern) for c in clients}
        squared_change = 0.0
        for c, rows, x_k in shards:
            mis = list(c.pattern.missing)
            if not mis or not len(rows):
                continue
            new = x_k[:, list(c.pattern.observed)] @ maps[c.id].T
            if early_stop_rms is not None:
                delta = new - x_k[:, mis]
                squared_change += float(np.sum(delta * delta))
            x_k[:, mis] = new
            del new  # one refresh temporary alive at a time keeps peak memory down
        run = t
        if early_stop_rms is not None:
            rms = float(np.sqrt(squared_change / n_missing)) if n_missing else 0.0
            if rms < early_stop_rms:
                stopped = True
                break
    if run:
        imputer = ImputationMap(
            kind=ImputerKind.ICE,
            maps=maps,
            patterns={c.id: c.pattern for c in clients},
            source="ice",
            round=run,
            zero_filled=frozenset(c.id for c in clients if c.pattern.is_empty and c.pattern.missing),
        )
    else:
        imputer = init if init is not None else fit_zero_imputer(data.clients)
    x = np.zeros((data.n, d))
    for i, (_, rows, x_k) in enumerate(shards):
        x[rows] = x_k
        shards[i] = None  # release each shard once it is in the output
    final = ImputedDataset(clients=data.clients, client_ids=data.client_ids, x=x, y=data.y, imputer=imputer)
    return IceResult(imputed=final, sigma_trace=tuple(trace), rounds_run=run, stopped_early=stopped)
