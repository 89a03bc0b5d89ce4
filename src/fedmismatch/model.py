"""Core domain types shared by every other module.

Conventions used throughout the package:

* Feature indices are 0-based in memory. External formats (config files,
  printed reports) use 1-based indices; :meth:`FeaturePattern.from_one_based`
  and :meth:`FeaturePattern.one_based` are the single conversion boundary.
* Client ids are opaque integer keys (presets number them 1..K).
* All types are treated as immutable after construction. ``CommLog`` is the
  one append-only builder; a finished log should not be mutated further.
* A ``Dataset`` is stored in the federated layout: one contiguous array of
  observed coordinates per client, never an (n, d) matrix of the sample.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from ._parallel import BLOCK_ROWS, map_ordered

__all__ = [
    "FeaturePattern",
    "ClientSpec",
    "Dataset",
    "LocalMoments",
    "Provenance",
    "MomentPair",
    "ClientwisePredictor",
    "CommEvent",
    "CommLog",
    "group_rows",
    "crop_vector",
    "crop_matrix",
    "validate_federation",
]


@dataclass(frozen=True)
class FeaturePattern:
    """Sorted subset of observed feature indices out of ``d`` coordinates.

    ``observed`` holds 0-based indices; the bitmask and the complement are
    derived, never stored independently.
    """

    observed: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"pattern dimension must be >= 1, got d={self.d}")
        obs = tuple(int(i) for i in self.observed)
        object.__setattr__(self, "observed", obs)
        if any(i < 0 or i >= self.d for i in obs):
            raise ValueError(f"observed indices {obs} outside [0, {self.d})")
        if any(b <= a for a, b in zip(obs, obs[1:])):
            raise ValueError(f"observed indices must be strictly increasing, got {obs}")

    @classmethod
    def from_one_based(cls, indices, d: int) -> "FeaturePattern":
        """Build a pattern from 1-based external indices, which any error
        names as given."""
        seen: set[int] = set()
        for i in map(int, indices):
            if not 1 <= i <= d:
                raise ValueError(f"index {i} outside [1, {d}]")
            if i in seen:
                raise ValueError(f"index {i} listed twice")
            seen.add(i)
        return cls(tuple(sorted(i - 1 for i in seen)), d)

    @classmethod
    def full(cls, d: int) -> "FeaturePattern":
        return cls(tuple(range(d)), d)

    @classmethod
    def empty(cls, d: int) -> "FeaturePattern":
        return cls((), d)

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.observed)

    @cached_property
    def missing(self) -> tuple[int, ...]:
        obs = set(self.observed)
        return tuple(i for i in range(self.d) if i not in obs)

    @property
    def size(self) -> int:
        return len(self.observed)

    @property
    def is_full(self) -> bool:
        return len(self.observed) == self.d

    @property
    def is_empty(self) -> bool:
        return not self.observed

    def mask(self) -> np.ndarray:
        """Boolean bitmask of length d, True at observed coordinates."""
        m = np.zeros(self.d, dtype=bool)
        if self.observed:
            m[list(self.observed)] = True
        return m


def crop_vector(v: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """Restrict a length-d vector to the pattern's observed coordinates."""
    v = np.asarray(v)
    if v.shape != (pattern.d,):
        raise ValueError(f"expected shape ({pattern.d},), got {v.shape}")
    return v[list(pattern.observed)] if pattern.observed else v[:0]


def crop_matrix(a: np.ndarray, rows: FeaturePattern, cols: FeaturePattern) -> np.ndarray:
    """Restrict a (d, d) matrix to rows.observed x cols.observed."""
    a = np.asarray(a)
    if a.shape != (rows.d, cols.d):
        raise ValueError(f"expected shape ({rows.d}, {cols.d}), got {a.shape}")
    return a[np.ix_(list(rows.observed), list(cols.observed))]


@dataclass(frozen=True)
class ClientSpec:
    """One federation participant: id, observed pattern, population share."""

    id: int
    pattern: FeaturePattern
    rho: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"client {self.id}: rho must lie in (0, 1], got {self.rho}")


def validate_federation(clients) -> tuple[ClientSpec, ...]:
    """Check ids unique, dimensions equal, and shares summing to one.

    Returns the clients as a tuple so callers can freeze the order.
    """
    clients = tuple(clients)
    if not clients:
        raise ValueError("federation needs at least one client")
    ids = [c.id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate client ids: {ids}")
    dims = {c.pattern.d for c in clients}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on dimension: {sorted(dims)}")
    total = float(sum(c.rho for c in clients))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"client shares must sum to 1 within 1e-12, got {total!r}")
    return clients


def group_rows(client_ids: np.ndarray) -> dict[int, np.ndarray]:
    """Rows owned by each present client id, from one stable argsort.

    Keys are the distinct ids in ascending order; each value holds that id's
    row indices in ascending order, the same array ``np.flatnonzero`` would
    give. The row arrays are read-only views of one shared sort order.
    """
    ids = np.asarray(client_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    order.flags.writeable = False
    keys, starts = np.unique(ids[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, starts[1:])))


@dataclass(frozen=True)
class LocalMoments:
    """One client's contribution: moment *sums* plus the sample count.

    Sums (not averages) are what travels in the simulated wire format;
    ``sigma`` / ``gamma`` expose the local averages, with the n_k = 0
    convention of all-zero moments.
    """

    sigma_sum: np.ndarray
    gamma_sum: np.ndarray
    count: int

    @property
    def d(self) -> int:
        return self.sigma_sum.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return self.sigma_sum / self.count if self.count else np.zeros_like(self.sigma_sum)

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma_sum / self.count if self.count else np.zeros_like(self.gamma_sum)


_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


@dataclass(frozen=True)
class Dataset:
    """A federated sample, stored as each client's observed rows.

    ``x_obs`` maps every client id to that client's (n_k, |obs|) float64
    array: the observed coordinates of its rows, in ascending row order, one
    read-only C-contiguous array per client. ``client_ids`` and ``y`` stay in
    sample row order. No (n, d) matrix is held: ``x_filled`` builds the
    zero-filled one on access, and ``from_filled`` builds a dataset from one.

    Rows are grouped by client once, on construction: ``shard_rows`` maps
    each id that owns rows, in ascending id order, to its ascending row
    indices (read-only arrays), and every per-client accessor reads it.
    Fits that need only second moments read ``local_moments`` instead.
    """

    clients: tuple[ClientSpec, ...]
    client_ids: np.ndarray
    x_obs: Mapping[int, np.ndarray]
    y: np.ndarray

    def __post_init__(self) -> None:
        clients = validate_federation(self.clients)
        object.__setattr__(self, "clients", clients)
        ids = np.asarray(self.client_ids, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1 or ids.ndim != 1:
            raise ValueError("client_ids and y must be 1-d")
        if len(ids) != len(y):
            raise ValueError("row counts disagree across client_ids and y")
        by_id = {c.id: c for c in clients}
        shard_rows = group_rows(ids)
        if not shard_rows.keys() <= by_id.keys():
            raise ValueError(f"rows reference unknown client ids {sorted(shard_rows.keys() - by_id.keys())}")
        if not self.x_obs.keys() <= by_id.keys():
            raise ValueError(f"x_obs has blocks for unknown client ids {sorted(self.x_obs.keys() - by_id.keys())}")
        blocks = {}
        for c in clients:
            want = (len(shard_rows.get(c.id, _NO_ROWS)), c.pattern.size)
            block = self.x_obs.get(c.id, np.empty(want) if not want[0] else None)
            block = np.ascontiguousarray(block, dtype=np.float64).view()
            if block.shape != want:
                raise ValueError(f"client {c.id}: observed block must be {want}, got {block.shape}")
            block.flags.writeable = False
            blocks[c.id] = block
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "x_obs", blocks)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "shard_rows", shard_rows)
        object.__setattr__(self, "_by_id", by_id)

    @classmethod
    def from_filled(cls, clients, client_ids, x_filled, y) -> "Dataset":
        """The dataset whose rows are those of an (n, d) matrix: each row keeps
        the coordinates its client observes, and the rest are ignored."""
        clients = validate_federation(clients)
        x = np.asarray(x_filled, dtype=np.float64)
        ids = np.asarray(client_ids, dtype=np.int64)
        d = clients[0].pattern.d
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"x_filled must be (n, {d}), got {x.shape}")
        if ids.shape != (x.shape[0],):
            raise ValueError("row counts disagree across client_ids and x_filled")
        shard_rows = group_rows(ids)
        x_obs = {c.id: x[np.ix_(rows, list(c.pattern.observed))]
                 for c in clients if (rows := shard_rows.get(c.id)) is not None}
        return cls(clients=clients, client_ids=ids, x_obs=x_obs, y=y)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.clients[0].pattern.d

    def client_by_id(self, client_id: int) -> ClientSpec:
        try:
            return self._by_id[client_id]
        except KeyError:
            raise KeyError(f"no client with id {client_id}") from None

    def rows_of(self, client_id: int) -> np.ndarray:
        self.client_by_id(client_id)
        return self.shard_rows.get(client_id, _NO_ROWS)

    def x_obs_of(self, client_id: int) -> np.ndarray:
        """(n_k, |obs|) observed block of one client's rows, as stored."""
        self.client_by_id(client_id)
        return self.x_obs[client_id]

    def y_of(self, client_id: int) -> np.ndarray:
        return self.y[self.rows_of(client_id)]

    @property
    def x_filled(self) -> np.ndarray:
        """The (n, d) matrix with each row's observed coordinates and zeros
        elsewhere, built on each access."""
        x = np.zeros((self.n, self.d))
        for c in self.clients:
            if c.pattern.observed:
                x[np.ix_(self.rows_of(c.id), list(c.pattern.observed))] = self.x_obs[c.id]
        return x

    @cached_property
    def local_moments(self) -> dict[int, LocalMoments]:
        """Each client's observed sums (n_k, G_k = x_obs^T x_obs, g_k = x_obs^T y)
        in d coordinates, in ascending id order: one fold per client, on first
        use, spread over the ``_parallel.workers`` pool if one is current and
        the sample holds more than ``BLOCK_ROWS`` rows; the arrays are
        read-only and shared."""
        from .moments import local_zero_imputed_moments  # moments imports this module

        def fold(c: ClientSpec) -> LocalMoments:
            lm = local_zero_imputed_moments(self.x_obs_of(c.id), self.y_of(c.id), c.pattern)
            lm.sigma_sum.flags.writeable = lm.gamma_sum.flags.writeable = False
            return lm

        clients = sorted(self.clients, key=lambda c: c.id)
        folds = map_ordered(fold, clients) if self.n > BLOCK_ROWS else [fold(c) for c in clients]
        return dict(zip([c.id for c in clients], folds))


class Provenance(enum.Enum):
    """How a moment pair was produced; downstream code branches on this."""

    ZERO_IMPUTED = "zero_imputed"
    DEBIASED = "debiased"
    COMPONENT_WISE = "component_wise"
    IMPUTED_DATA = "imputed_data"
    POPULATION = "population"


@dataclass(frozen=True)
class MomentPair:
    """Second-moment matrix and cross-moment vector, plus provenance.

    ``sigma`` is symmetrized to (A + A.T) / 2 on construction. ``coverage``
    is an optional boolean (d, d) mask marking entries actually identified by
    the producing estimator; ``None`` means full coverage. Uncovered entries
    are stored as 0.0, not NaN, so downstream linear algebra stays finite.
    """

    sigma: np.ndarray
    gamma: np.ndarray
    provenance: Provenance
    coverage: np.ndarray | None = None

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=np.float64)
        g = np.asarray(self.gamma, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"sigma must be square, got {s.shape}")
        if g.shape != (s.shape[0],):
            raise ValueError(f"gamma shape {g.shape} incompatible with sigma {s.shape}")
        s = (s + s.T) / 2.0
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "gamma", g)
        if self.coverage is not None:
            cov = np.asarray(self.coverage, dtype=bool)
            if cov.shape != s.shape:
                raise ValueError(f"coverage shape {cov.shape} != sigma shape {s.shape}")
            cov = cov & cov.T
            object.__setattr__(self, "coverage", cov)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    def covers(self, pattern: FeaturePattern) -> bool:
        """True when every pair inside the pattern is identified."""
        if self.coverage is None:
            return True
        if pattern.is_empty:
            return True
        idx = list(pattern.observed)
        return bool(self.coverage[np.ix_(idx, idx)].all())


@dataclass(frozen=True)
class ClientwisePredictor:
    """Per-client linear coefficients over each client's observed block.

    ``thetas[k]`` has length |obs(k)|. When ``trunc_m`` is set, predictions
    are clipped to [-trunc_m, trunc_m]. Clients listed in ``unidentifiable``
    have no coefficients and refuse to predict.
    """

    thetas: Mapping[int, np.ndarray]
    trunc_m: float | None = None
    unidentifiable: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        thetas = {int(k): np.asarray(v, dtype=np.float64) for k, v in self.thetas.items()}
        object.__setattr__(self, "thetas", thetas)
        if self.trunc_m is not None and self.trunc_m < 0:
            raise ValueError(f"truncation level must be >= 0, got {self.trunc_m}")
        object.__setattr__(self, "unidentifiable", frozenset(self.unidentifiable))

    def client_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.thetas))

    def predict(self, client_id: int, x_obs: np.ndarray) -> float:
        return float(self.predict_many(client_id, np.asarray(x_obs)[None, :])[0])

    def predict_many(self, client_id: int, x_obs: np.ndarray) -> np.ndarray:
        """Predict rows of a (m, |obs(k)|) observed block for one client."""
        if client_id in self.unidentifiable:
            raise ValueError(f"client {client_id} is unidentifiable under these moments")
        if client_id not in self.thetas:
            raise KeyError(f"no coefficients for client {client_id}")
        theta = self.thetas[client_id]
        x = np.asarray(x_obs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(theta):
            raise ValueError(
                f"client {client_id}: expected (m, {len(theta)}) block, got {x.shape}"
            )
        out = x @ theta
        if self.trunc_m is not None:
            out = np.clip(out, -self.trunc_m, self.trunc_m)
        return out


@dataclass(frozen=True)
class CommEvent:
    """One logged transfer. ``floats`` counts float64 payload slots; pattern
    registration is bit-counted instead and carries floats=0."""

    round: int
    direction: str
    floats: int
    description: str
    bits: int = 0

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.floats < 0 or self.bits < 0:
            raise ValueError("floats and bits must be nonnegative")


@dataclass
class CommLog:
    """Append-only list of CommEvents with exact totals."""

    events: list[CommEvent] = field(default_factory=list)

    def record(self, round: int, direction: str, floats: int, description: str, bits: int = 0) -> None:
        self.events.append(CommEvent(round, direction, int(floats), description, int(bits)))

    def total_floats(self, direction: str | None = None) -> int:
        return sum(e.floats for e in self.events if direction is None or e.direction == direction)

    def total_bits(self, direction: str | None = None) -> int:
        return sum(e.bits for e in self.events if direction is None or e.direction == direction)

    def __len__(self) -> int:
        return len(self.events)

    def to_rows(self) -> list[tuple[int, str, int, int, str]]:
        """(round, direction, floats, bits, description) tuples for CSV dumps."""
        return [(e.round, e.direction, e.floats, e.bits, e.description) for e in self.events]
