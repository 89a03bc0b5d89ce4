"""Core domain types shared by every other module.

Conventions used throughout the package:

* Feature indices are 0-based in memory. External formats (config files,
  printed reports) use 1-based indices; :meth:`FeaturePattern.from_one_based`
  and :meth:`FeaturePattern.one_based` are the single conversion boundary.
* Client ids are opaque integer keys (presets number them 1..K).
* All types are treated as immutable after construction. ``CommLog`` is the
  one append-only builder; a finished log should not be mutated further.
* A ``Dataset`` is stored client-major, in the federated layout: one
  contiguous array of observed coordinates per client and one response
  vector in the same order, never an (n, d) matrix of the sample.
* Values carry no tags of how they were made: a ``MomentPair`` is its
  moments and coverage, whichever estimator produced it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._parallel import map_ordered, pooled

__all__ = [
    "FeaturePattern",
    "ClientSpec",
    "Dataset",
    "LocalMoments",
    "MomentPair",
    "ClientwisePredictor",
    "CommEvent",
    "CommLog",
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
    def scatter_index(self) -> tuple[np.ndarray | slice, np.ndarray | slice]:
        """Positions of the observed coordinates in a length-d vector and of
        the observed block in a raveled d x d matrix, rebuilt on each read so
        no pattern keeps |obs|^2 indices; a full pattern's select everything,
        so its scatter is a plain copy or add."""
        if self.size == self.d:
            return slice(None), slice(None)
        obs = np.array(self.observed, dtype=np.intp)
        return obs, (obs[:, None] * self.d + obs).ravel()

    @cached_property
    def block_position(self) -> np.ndarray:
        """Each coordinate's place in the observed-then-missing order (its inverse permutation), built once."""
        return np.argsort(np.array(self.observed + self.missing, dtype=np.intp))

    @property
    def size(self) -> int:
        return len(self.observed)

    def mask(self) -> np.ndarray:
        """Boolean bitmask of length d, True at observed coordinates."""
        m = np.zeros(self.d, dtype=bool)
        m[list(self.observed)] = True
        return m


def crop_vector(v: np.ndarray, pattern: FeaturePattern) -> np.ndarray:
    """Restrict a length-d vector to the pattern's observed coordinates."""
    v = np.asarray(v)
    if v.shape != (pattern.d,):
        raise ValueError(f"expected shape ({pattern.d},), got {v.shape}")
    return v[list(pattern.observed)]


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


@dataclass(frozen=True)
class LocalMoments:
    """Moment *sums* over ``pattern``'s observed coordinates, (|obs|, |obs|)
    and (|obs|,), plus the sample count: one client's upload, or the server's
    fold of many over the full pattern (``moments.aggregate_zero_imputed``).

    Sums (not averages) travel and are pooled; ``sigma`` / ``gamma`` are the
    one place a server average is formed, with all-zero moments at count 0.
    """

    sigma_sum: np.ndarray
    gamma_sum: np.ndarray
    count: int
    pattern: FeaturePattern

    @property
    def d(self) -> int:
        return self.pattern.d

    @property
    def sigma(self) -> np.ndarray:
        return self.sigma_sum / self.count if self.count else np.zeros_like(self.sigma_sum)

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma_sum / self.count if self.count else np.zeros_like(self.gamma_sum)


@dataclass(frozen=True)
class Dataset:
    """A federated sample, stored client-major.

    ``x_obs`` maps every client id to one read-only C-contiguous (n_k, |obs|)
    float64 array: the observed coordinates of that client's n_k rows. A
    client given no block drew no rows and gets a (0, |obs|) one. ``y`` holds
    the responses client by client, in ``clients`` order, each client's rows
    in its block's order; it is read-only too. So ``rows_of`` is one
    contiguous range and ``y_of`` a view of ``y``. Rows have no order across
    clients, and no (n, d) matrix is held. Fits that need only second
    moments read ``uploads`` instead.
    """

    clients: tuple[ClientSpec, ...]
    x_obs: Mapping[int, np.ndarray]
    y: np.ndarray

    def __post_init__(self) -> None:
        clients = validate_federation(self.clients)
        object.__setattr__(self, "clients", clients)
        by_id = {c.id: c for c in clients}
        if not self.x_obs.keys() <= by_id.keys():
            raise ValueError(f"x_obs has blocks for unknown client ids {sorted(self.x_obs.keys() - by_id.keys())}")
        blocks, rows, n = {}, {}, 0
        for c in clients:
            block = self.x_obs.get(c.id, np.empty((0, c.pattern.size)))
            block = np.ascontiguousarray(block, dtype=np.float64).view()
            if block.ndim != 2 or block.shape[1] != c.pattern.size:
                raise ValueError(f"client {c.id}: observed block must be (n_k, {c.pattern.size}), got {block.shape}")
            block.flags.writeable = False
            blocks[c.id] = block
            rows[c.id] = range(n, n + len(block))
            n += len(block)
        y = np.asarray(self.y, dtype=np.float64).view()
        if y.shape != (n,):
            raise ValueError(f"y must hold the {n} responses of the blocks, got shape {y.shape}")
        y.flags.writeable = False
        object.__setattr__(self, "x_obs", blocks)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_by_id", by_id)

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

    def rows_of(self, client_id: int) -> range:
        """The contiguous range of one client's rows in ``y``."""
        self.client_by_id(client_id)
        return self._rows[client_id]

    def x_obs_of(self, client_id: int) -> np.ndarray:
        """(n_k, |obs|) observed block of one client's rows, as stored."""
        self.client_by_id(client_id)
        return self.x_obs[client_id]

    def y_of(self, client_id: int) -> np.ndarray:
        """One client's responses, a view of ``y``."""
        rows = self.rows_of(client_id)
        return self.y[rows.start:rows.stop]

    @cached_property
    def uploads(self) -> dict[int, LocalMoments]:
        """What the senders, the clients that drew rows, send: sender id to its observed
        sums (n_k, G_k = x_obs^T x_obs, g_k = x_obs^T y), in ascending id order. One
        fold per sender, on first use, spread over the ``_parallel.workers`` pool if
        one is current and the sample has two or more blocks (``_parallel.pooled``);
        the arrays are read-only and shared."""
        from .moments import local_zero_imputed_moments  # moments imports this module

        def fold(c: ClientSpec) -> LocalMoments:
            lm = local_zero_imputed_moments(self.x_obs_of(c.id), self.y_of(c.id), c.pattern)
            lm.sigma_sum.flags.writeable = lm.gamma_sum.flags.writeable = False
            return lm

        senders = sorted((c for c in self.clients if self._rows[c.id]), key=lambda c: c.id)
        folds = map_ordered(fold, senders) if pooled(self.n, self.d) else [fold(c) for c in senders]
        return dict(zip([c.id for c in senders], folds))


@dataclass(frozen=True)
class MomentPair:
    """Second-moment matrix and cross-moment vector.

    ``sigma`` is symmetrized to (A + A.T) / 2 on construction. ``coverage``
    is an optional boolean (d, d) mask marking entries actually identified by
    the producing estimator; ``None`` means full coverage. Uncovered entries
    are stored as 0.0, not NaN, so downstream linear algebra stays finite.
    """

    sigma: np.ndarray
    gamma: np.ndarray
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
    bits: int = 0

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.floats < 0 or self.bits < 0:
            raise ValueError("floats and bits must be nonnegative")


@dataclass
class CommLog:
    """Append-only log with exact totals. A record is one round, one
    direction, a tuple of per-message float counts and the bits each message
    carries, so a FedAvg log grows with rounds plus senders. ``events`` lists
    one ``CommEvent`` per message, in logged order."""

    records: list[tuple[int, str, tuple[int, ...], int]] = field(default_factory=list)

    def record(self, round: int, direction: str, floats: Sequence[int], bits: int = 0) -> None:
        """One message per entry of ``floats``; validated once per batch."""
        floats = tuple(floats)
        CommEvent(round, direction, min(floats, default=0), bits)
        if floats:
            self.records.append((round, direction, floats, int(bits)))

    @property
    def events(self) -> list[CommEvent]:
        return [CommEvent(t, d, m, b) for t, d, sizes, b in self.records for m in sizes]

    def total_floats(self, direction: str | None = None) -> int:
        return sum(sum(sizes) for _, d, sizes, _ in self.records if direction in (None, d))

    def total_bits(self, direction: str | None = None) -> int:
        return sum(b * len(sizes) for _, d, sizes, b in self.records if direction in (None, d))

    def __len__(self) -> int:
        return sum(len(sizes) for _, _, sizes, _ in self.records)
