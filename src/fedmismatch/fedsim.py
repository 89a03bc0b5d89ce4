"""Federated protocol runs with exact communication accounting.

Each protocol is one library algorithm, already written over per-client
sums; ``run_protocol`` calls it and logs every message it implies:

* one_shot_moments: ``Dataset.local_moments`` folded by
  ``aggregate_zero_imputed``; masked shards in, the pooled zero-imputed
  MomentPair and the co-observation counts out.
* one_shot_ridge: ``ridge.ridge_closed_form``; a completed dataset in,
  whose clients upload B_k^T G_k B_k and B_k^T g_k, closed-form ridge
  coefficients out.
* federated_ice: ``impute.federated_ice``; masked shards in, iteratively
  completed dataset out; each round's upload is B_k^T G_k B_k.
* fedavg_ridge: ``ridge.fedavg_ridge``; a completed dataset in, whose
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
only the clients that own rows. Shard sizes, client ids, and round indices are
session metadata, not counted.
"""
from __future__ import annotations

from dataclasses import dataclass

from .impute import ImputedDataset, federated_ice
from .model import CommLog, Dataset, MomentPair
from .moments import CoObservationCounts, aggregate_zero_imputed, coobservation_counts
from .ridge import fedavg_ridge, ridge_closed_form

__all__ = [
    "PROTOCOL_KINDS",
    "ProtocolSpec",
    "ProtocolResult",
    "OneShotMomentsArtifact",
    "SchedulePrediction",
    "replay_comm_schedule",
    "run_protocol",
]

PROTOCOL_KINDS = ("one_shot_moments", "one_shot_ridge", "federated_ice", "fedavg_ridge")


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run and its knobs; irrelevant knobs must stay at
    their defaults."""

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
    pair: MomentPair
    counts: CoObservationCounts


@dataclass(frozen=True)
class ProtocolResult:
    kind: str
    artifact: object
    comm: CommLog


@dataclass(frozen=True)
class SchedulePrediction:
    """Closed-form transfer totals for one protocol run."""

    kind: str
    up_floats: int
    down_floats: int
    registration_bits: int


def replay_comm_schedule(spec: ProtocolSpec, k: int, d: int) -> SchedulePrediction:
    """Predict exact float/bit totals without running anything.

    ``k`` is the federation size for masked-data protocols
    (one_shot_moments, federated_ice) and the number of clients that own rows for
    completed-data protocols (one_shot_ridge, fedavg_ridge), matching what
    ``run_protocol`` logs.
    """
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    tri = d * (d + 1) // 2
    if spec.kind == "one_shot_moments":
        return SchedulePrediction(spec.kind, k * (tri + d + 1), tri + d, k * d)
    if spec.kind == "one_shot_ridge":
        return SchedulePrediction(spec.kind, k * (tri + d + 1), d, 0)
    if spec.kind == "federated_ice":
        t = spec.ice_rounds
        return SchedulePrediction(spec.kind, k * t * tri, t * tri, k * d)
    t = spec.rounds
    return SchedulePrediction(spec.kind, t * k * d, t * k * d, 0)


def _one_shot_moments(data: Dataset, comm: CommLog, ids: list[int]) -> OneShotMomentsArtifact:
    d = data.d
    tri = d * (d + 1) // 2
    locals_ = data.local_moments
    pair = aggregate_zero_imputed(locals_)
    counts = coobservation_counts(data.clients, {cid: lm.count for cid, lm in locals_.items()})
    for cid in ids:
        comm.record(1, "up", 1 + tri + d, f"zero-imputed moment sums from client {cid}")
    comm.record(1, "down", tri + d, "broadcast aggregated moment pair")
    return OneShotMomentsArtifact(pair=pair, counts=counts)


def _federated_ice(data: Dataset, spec: ProtocolSpec, comm: CommLog, ids: list[int]) -> ImputedDataset:
    tri = data.d * (data.d + 1) // 2
    res = federated_ice(data, spec.ice_rounds)
    for t in range(1, res.rounds_run + 1):
        for cid in ids:
            comm.record(t, "up", tri, f"completed second-moment sums from client {cid}")
        comm.record(t, "down", tri, "broadcast pooled second-moment estimate")
    return res.imputed


def _one_shot_ridge(data: ImputedDataset, spec: ProtocolSpec, comm: CommLog):
    d = data.d
    theta = ridge_closed_form(data, spec.lam)
    for cid in data.shard_rows:
        comm.record(1, "up", 1 + d * (d + 1) // 2 + d, f"completed-data moment sums from client {cid}")
    comm.record(1, "down", d, "broadcast ridge coefficients")
    return theta


def _fedavg_ridge(data: ImputedDataset, spec: ProtocolSpec, comm: CommLog):
    res = fedavg_ridge(data, spec.lam, spec.rounds, spec.local_steps)
    floats = len(data.shard_rows) * data.d
    for t in range(1, res.rounds_run + 1):
        comm.record(t, "down", floats, "server coefficients to each client")
        comm.record(t, "up", floats, "client coefficients after local steps")
    return res.theta


def run_protocol(spec: ProtocolSpec, data) -> ProtocolResult:
    """Run one protocol's library algorithm and log every transfer.

    one_shot_moments and federated_ice take a masked ``Dataset`` and start
    with one pattern registration per client; one_shot_ridge and
    fedavg_ridge take a completed ``ImputedDataset``. The artifact is
    exactly what the library function returns.
    """
    comm = CommLog()
    if spec.kind in ("one_shot_moments", "federated_ice"):
        if not isinstance(data, Dataset):
            raise TypeError(f"{spec.kind} needs a masked Dataset, got {type(data).__name__}")
        ids = sorted(c.id for c in data.clients)
        for cid in ids:
            comm.record(0, "up", 0, f"pattern registration from client {cid}", bits=data.d)
        if spec.kind == "one_shot_moments":
            artifact = _one_shot_moments(data, comm, ids)
        else:
            artifact = _federated_ice(data, spec, comm, ids)
    else:
        if not isinstance(data, ImputedDataset):
            raise TypeError(f"{spec.kind} needs an ImputedDataset, got {type(data).__name__}")
        if spec.kind == "one_shot_ridge":
            artifact = _one_shot_ridge(data, spec, comm)
        else:
            artifact = _fedavg_ridge(data, spec, comm)
    return ProtocolResult(kind=spec.kind, artifact=artifact, comm=comm)
