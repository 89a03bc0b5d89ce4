"""Federated protocol runs with exact communication accounting.

Each protocol is one library algorithm, already written over per-client
sums; ``run_protocol`` calls it on a masked ``Dataset`` and logs every
message it implies:

* one_shot_moments: ``Dataset.local_moments`` folded by
  ``aggregate_zero_imputed`` and the registered bitmasks by
  ``co_observation`` with n_k weights; the pooled zero-imputed
  MomentPair, the co-observation count matrix and n out.
* one_shot_ridge: ``ridge.ridge_closed_form``; with an ``ImputationMap``,
  whose completion each client applies to upload B_k^T G_k B_k and
  B_k^T g_k, closed-form ridge coefficients out.
* federated_ice: ``impute.federated_ice``; the iterated
  ``ImputationMap`` out; each of its ``ice_rounds`` rounds uploads
  B_k^T G_k B_k.
* fedavg_ridge: ``ridge.fedavg_ridge``; with an ``ImputationMap``, whose
  clients run local steps from their completed sums B_k^T G_k B_k and
  B_k^T g_k, iteratively averaged coefficients out.

Every message carries only aggregates whose size depends on d (and rounds),
never on the local sample count. Each transfer is logged with its exact
float64 slot count; pattern bitmasks sent at registration are counted in
bits, separately from floats. ``replay_comm_schedule`` predicts the totals
in closed form and the logged totals must match it exactly, which the test
suite enforces.

Uplink payload layout for one_shot_moments (wire format v2, shared with the
moments module): [n_k][upper-tri sigma sums][gamma sums], d(d+1)/2 + d + 1
floats per client. Aggregated-moment and coefficient broadcasts are counted
once (a broadcast channel); fedavg coefficient exchanges are counted per
client in both directions. Masked-data protocols log every client of the
federation, including those that drew no rows; completed-data protocols log
only the clients that drew rows, those whose observed block is not empty.
Shard sizes, client ids, and round indices are session metadata, not counted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .impute import ImputationMap, federated_ice
from .model import CommLog, Dataset, MomentPair
from .moments import aggregate_zero_imputed, co_observation
from .ridge import fedavg_ridge, ridge_closed_form

__all__ = [
    "PROTOCOL_KINDS",
    "MASKED_PROTOCOLS",
    "ProtocolSpec",
    "ProtocolResult",
    "OneShotMomentsArtifact",
    "SchedulePrediction",
    "replay_comm_schedule",
    "run_protocol",
]

PROTOCOL_KINDS = ("one_shot_moments", "one_shot_ridge", "federated_ice", "fedavg_ridge")
# The protocols that register patterns and read no imputer; the rest complete
# the data with one and log only the clients that drew rows.
MASKED_PROTOCOLS = ("one_shot_moments", "federated_ice")


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run and its knobs; a kind ignores the knobs it does
    not use."""

    kind: str
    lam: float = 0.0
    ice_rounds: int = 0
    rounds: int = 0
    local_steps: int = 1

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol {self.kind!r}, expected one of {PROTOCOL_KINDS}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.ice_rounds < 0 or self.rounds < 0 or self.local_steps < 1:
            raise ValueError("ice_rounds/rounds must be >= 0 and local_steps >= 1")


@dataclass(frozen=True)
class OneShotMomentsArtifact:
    """The pooled zero-imputed pair, the count matrix N[l, j] of rows
    observing both l and j, and the total row count n."""

    pair: MomentPair
    counts: np.ndarray
    n: int


@dataclass(frozen=True)
class ProtocolResult:
    artifact: object
    comm: CommLog


@dataclass(frozen=True)
class SchedulePrediction:
    """Closed-form transfer totals for one protocol run."""

    up_floats: int
    down_floats: int
    registration_bits: int


def replay_comm_schedule(spec: ProtocolSpec, k: int, d: int) -> SchedulePrediction:
    """Predict exact float/bit totals without running anything.

    ``k`` is the federation size for masked-data protocols
    (one_shot_moments, federated_ice) and the number of clients that drew
    rows for completed-data protocols (one_shot_ridge, fedavg_ridge):
    ``_senders``, the count ``run_protocol`` logs.
    """
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    tri = d * (d + 1) // 2
    if spec.kind == "one_shot_moments":
        return SchedulePrediction(k * (tri + d + 1), tri + d, k * d)
    if spec.kind == "one_shot_ridge":
        return SchedulePrediction(k * (tri + d + 1), d, 0)
    if spec.kind == "federated_ice":
        t = spec.ice_rounds
        return SchedulePrediction(k * t * tri, t * tri, k * d)
    t = spec.rounds
    return SchedulePrediction(t * k * d, t * k * d, 0)


def _senders(kind: str, data: Dataset) -> int:
    """How many clients a run of protocol ``kind`` on ``data`` logs: the
    whole federation for masked-data protocols, else the clients whose
    observed block is not empty."""
    if kind in MASKED_PROTOCOLS:
        return len(data.clients)
    return sum(1 for block in data.x_obs.values() if len(block))


def _one_shot_moments(data: Dataset, comm: CommLog) -> OneShotMomentsArtifact:
    d = data.d
    tri = d * (d + 1) // 2
    locals_ = data.local_moments
    pair = aggregate_zero_imputed(locals_.values())
    counts = co_observation([c.pattern for c in data.clients], [locals_[c.id].count for c in data.clients])
    for _ in data.clients:
        comm.record(1, "up", 1 + tri + d)
    comm.record(1, "down", tri + d)
    return OneShotMomentsArtifact(pair=pair, counts=counts, n=data.n)


def _federated_ice(data: Dataset, spec: ProtocolSpec, comm: CommLog) -> ImputationMap:
    tri = data.d * (data.d + 1) // 2
    imputer = federated_ice(data, spec.ice_rounds)
    for t in range(1, spec.ice_rounds + 1):
        for _ in data.clients:
            comm.record(t, "up", tri)
        comm.record(t, "down", tri)
    return imputer


def _one_shot_ridge(data: Dataset, imputer: ImputationMap, spec: ProtocolSpec, comm: CommLog):
    d = data.d
    theta = ridge_closed_form(data, imputer, spec.lam)
    for _ in range(_senders(spec.kind, data)):
        comm.record(1, "up", 1 + d * (d + 1) // 2 + d)
    comm.record(1, "down", d)
    return theta


def _fedavg_ridge(data: Dataset, imputer: ImputationMap, spec: ProtocolSpec, comm: CommLog):
    res = fedavg_ridge(data, imputer, spec.lam, spec.rounds, spec.local_steps)
    floats = _senders(spec.kind, data) * data.d
    for t in range(1, res.rounds_run + 1):
        comm.record(t, "down", floats)
        comm.record(t, "up", floats)
    return res.theta


def run_protocol(spec: ProtocolSpec, data: Dataset, imputer: ImputationMap | None = None) -> ProtocolResult:
    """Run one protocol's library algorithm on a masked ``Dataset`` and log
    every transfer.

    one_shot_moments and federated_ice start with one pattern registration
    per client and ignore ``imputer``; one_shot_ridge and fedavg_ridge
    complete the data with ``imputer`` and raise ``TypeError`` without one.
    The artifact is exactly what the library function returns.
    """
    comm = CommLog()
    if spec.kind in MASKED_PROTOCOLS:
        for _ in data.clients:
            comm.record(0, "up", 0, bits=data.d)
    elif imputer is None:
        raise TypeError(f"{spec.kind} needs an ImputationMap")
    if spec.kind == "one_shot_moments":
        artifact = _one_shot_moments(data, comm)
    elif spec.kind == "federated_ice":
        artifact = _federated_ice(data, spec, comm)
    elif spec.kind == "one_shot_ridge":
        artifact = _one_shot_ridge(data, imputer, spec, comm)
    else:
        artifact = _fedavg_ridge(data, imputer, spec, comm)
    return ProtocolResult(artifact=artifact, comm=comm)
