"""Federated protocol runs with exact communication accounting.

Each protocol is one library algorithm, written over the senders' uploads
(sender id to observed sums, ``Dataset.uploads``) and never over rows:
``run_protocol`` takes the uploads, calls the algorithm on them alone and
logs every message it implies:

* one_shot_moments: the uploads folded by ``aggregate_zero_imputed`` into
  the pooled zero-imputed sums (G, g, n), and their registered bitmasks by
  ``co_observation`` with n_k weights into the count matrix N.
* one_shot_ridge: ``ridge.ridge_closed_form``; each sender uploads its
  observed sums, which the server completes with the ``ImputationMap``
  (``ImputationMap.complete_moments``); closed-form ridge coefficients out.
* federated_ice: ``impute.federated_ice`` in one round trip; the iterated
  ``ImputationMap`` out. With ``ice_rounds`` >= 1 each sender uploads its
  observed Gram G_k once and the server runs every round from these
  uploads; 0 rounds upload none. No round reads an n_k.
* fedavg_ridge: ``ridge.fedavg_ridge``; with an ``ImputationMap``, whose
  senders run local steps from their completed sums, its ``FedAvgResult``
  out, whose ``rounds_run`` are the rounds logged. A round sees sender k
  only through its observed block (``fedavg_ridge``'s docstring): sender k,
  which holds the map (the zero map in every ``cli`` run), forms
  phi_k = B_k^T theta and returns the |O_k|-vector v_k, and the server
  applies the shrinkage from its pattern, registered at 0 rounds too.

Every artifact stays on the server. The fitted predictor reaches the
clients once per method (``serve_predictor``), and theta each FedAvg round,
in the smaller of two exact encodings (``_smaller_encoding``): one broadcast
of the shared model (``_shared_floats``; theta's d floats in a round), or
each client's own |O_k| floats, its coefficients or its phi_k.

No message size depends on the local sample count. Each transfer is logged
with its float64 slot count; pattern bitmasks sent at registration are
counted in bits, separately from floats. ``replay_comm_schedule`` and
``replay_serve`` predict the totals in closed form from the senders'
patterns and the served coefficient counts. ``run_protocol`` and
``replay_comm_schedule`` size an upload by the same ``_upload_floats``, so
matching them checks the registration bits and FedAvg's rounds and their
encoding, not the upload sizes; the tests check those against hand-written totals.

A fitting method is one server session: the server keeps each sender's
pattern, n_k, G_k and g_k once received, and a later protocol of the same
method (passed the earlier specs as ``session``) registers and uploads
only what it still lacks. So itr_ice's ridge after ICE rounds sends
[n_k][g_k], and itr_cw's ridge after the moments sends nothing up. A
standalone run is a session of one.

A moment upload (wire format v3, shared with the moments module) is
[n_k][packed upper triangle of the observed Gram][observed cross-moments];
an ICE upload is the packed triangle alone, and an upload within a session
drops the parts the server holds. The server places each upload by the
sender's registered pattern. A broadcast is counted once; each fedavg
round logs one record per direction, and a sender that observes nothing
exchanges nothing. The senders of every protocol are the clients that drew
rows; a client without rows sends nothing and no fit reads it. Shard
sizes, client ids and round indices are uncounted metadata.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .impute import ImputationMap, federated_ice
from .model import ClientwisePredictor, CommLog, LocalMoments
from .moments import aggregate_zero_imputed, co_observation
from .ridge import fedavg_ridge, ridge_closed_form

__all__ = [
    "PROTOCOL_KINDS",
    "ProtocolSpec",
    "ProtocolResult",
    "OneShotMomentsArtifact",
    "SchedulePrediction",
    "replay_comm_schedule",
    "replay_serve",
    "run_protocol",
    "serve_predictor",
]

PROTOCOL_KINDS = ("one_shot_moments", "one_shot_ridge", "federated_ice", "fedavg_ridge")


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
    """The pooled zero-imputed sums, whose count is the total row count n,
    and the count matrix N[l, j] of rows observing both l and j."""

    pooled: LocalMoments
    counts: np.ndarray


@dataclass(frozen=True)
class ProtocolResult:
    artifact: object
    comm: CommLog
    spec: ProtocolSpec


@dataclass(frozen=True)
class SchedulePrediction:
    """Closed-form transfer totals for one protocol run."""

    up_floats: int
    down_floats: int
    registration_bits: int


def replay_comm_schedule(spec: ProtocolSpec, patterns, session=()) -> SchedulePrediction:
    """Predict exact float/bit totals without running anything.

    ``patterns`` are the senders', the clients that drew rows
    (``Dataset.uploads``). ``session`` holds the specs of the protocols the
    same method ran before, in order; what they sent is not sent again.
    FedAvg's R rounds send R sum|O_k| floats up and R min(d, sum|O_k|) down.
    Raises ``ValueError`` when there is no sender or the patterns disagree on d.
    """
    patterns = list(patterns)
    if not patterns:
        raise ValueError("no senders: need at least one pattern")
    d = patterns[0].d
    if any(p.d != d for p in patterns):
        raise ValueError(f"sender patterns disagree on d: {sorted({p.d for p in patterns})}")
    missing = _missing(spec, session)
    k, up = len(patterns), sum(_upload_floats(missing, p.size) for p in patterns)
    bits = k * d if "pattern" in missing else 0
    if spec.kind != "fedavg_ridge":
        return SchedulePrediction(up, 0, bits)
    observed = sum(p.size for p in patterns)
    return SchedulePrediction(spec.rounds * observed, spec.rounds * min(d, observed), bits)


def replay_serve(session, d: int, sizes, unregistered: int) -> SchedulePrediction:
    """Closed form of ``serve_predictor``: min(shared, sum of ``sizes``)
    floats down. ``sizes`` are the |O_k| of the served clients that have
    coefficients; the per-client encoding adds d bits for each of the
    ``unregistered`` served clients.
    """
    unicast, shared = sum(sizes), _shared_floats(session, d)
    return SchedulePrediction(0, min(unicast, shared), unregistered * d if unicast < shared else 0)


def _smaller_encoding(sizes, shared: int) -> tuple[int, ...]:
    """One delivery's messages: ``shared`` floats once, or each nonzero entry of ``sizes`` if they total fewer."""
    return (shared,) if sum(sizes) >= shared else tuple(m for m in sizes if m)


def _shared_floats(session, d: int) -> int:
    """Slots of the one broadcast from which every client derives its own
    coefficients after a method that ran ``session``: a d-vector (the ridge
    or FedAvg theta, or the plug-ins' gamma), after the packed covariance
    estimate when the server fitted one (the moments run, or ICE with T >=
    1). The clients hold the zero map and the population map already."""
    fitted = any(s.kind == "one_shot_moments" or (s.kind == "federated_ice" and s.ice_rounds) for s in session)
    return d + fitted * _tri(d)


def _reads(spec: ProtocolSpec) -> frozenset:
    """The statistics a protocol reads of each sender: its registered pattern
    and the parts of its upload, the count n_k, the Gram G_k and the
    cross-moments g_k. FedAvg reads the pattern alone, at any number of
    rounds as ICE does at 0: the server sizes each round's exchange and
    applies the shrinkage from it."""
    if spec.kind == "fedavg_ridge":
        return frozenset(("pattern",))
    if spec.kind == "federated_ice":
        return frozenset(("pattern", "gram") if spec.ice_rounds else ("pattern",))
    return frozenset(("pattern", "n", "gram", "cross"))


def _missing(spec: ProtocolSpec, session) -> frozenset:
    """What ``spec`` reads of each sender that no earlier protocol of the
    session sent. The server keeps every statistic it receives during a
    method, so only the rest goes up."""
    return _reads(spec).difference(*map(_reads, session))


def _upload_floats(missing: frozenset, m: int) -> int:
    """Slots of one [n_k][packed G_k][g_k] upload cut to the ``missing`` parts."""
    return ("n" in missing) + ("gram" in missing) * _tri(m) + ("cross" in missing) * m


def _tri(m: int) -> int:
    """Slots of the packed upper triangle of an m x m matrix."""
    return m * (m + 1) // 2


def _dim(uploads: Mapping[int, LocalMoments]) -> int:
    """d, read off the senders' patterns (0 without a sender)."""
    return next((lm.d for lm in uploads.values()), 0)


def run_protocol(spec: ProtocolSpec, uploads: Mapping[int, LocalMoments], imputer: ImputationMap | None = None,
                 session=()) -> ProtocolResult:
    """Run one protocol's library algorithm on the senders' ``uploads``
    (sender id to observed sums, ``Dataset.uploads``) and log every transfer.

    one_shot_moments and federated_ice ignore ``imputer``; one_shot_ridge
    and fedavg_ridge complete the data with ``imputer`` and raise
    ``TypeError`` without one.
    ``session`` holds the specs of the protocols the same method ran before
    on these senders, in order (empty for a standalone run): a sender
    registers its pattern and uploads each statistic once per session, so
    this run logs only what the server still lacks. The artifact is exactly
    what the library function returns; it stays on the server, and
    ``serve_predictor`` logs what reaches the clients.
    """
    if spec.kind in ("one_shot_ridge", "fedavg_ridge") and imputer is None:
        raise TypeError(f"{spec.kind} needs an ImputationMap")
    comm, missing = CommLog(), _missing(spec, session)
    if "pattern" in missing:
        comm.record(0, "up", [0] * len(uploads), bits=_dim(uploads))
    if missing - {"pattern"}:
        comm.record(1, "up", [_upload_floats(missing, lm.pattern.size) for lm in uploads.values()])
    if spec.kind == "one_shot_moments":
        sums = uploads.values()
        counts = co_observation([lm.pattern for lm in sums], [lm.count for lm in sums])
        artifact = OneShotMomentsArtifact(aggregate_zero_imputed(sums), counts)
    elif spec.kind == "federated_ice":
        artifact = federated_ice(uploads, spec.ice_rounds)
    elif spec.kind == "one_shot_ridge":
        artifact = ridge_closed_form(uploads, imputer, spec.lam)
    else:
        artifact = fedavg_ridge(uploads, imputer, spec.lam, spec.rounds, spec.local_steps)
        sizes = tuple(lm.pattern.size for lm in uploads.values() if lm.pattern.size)
        down = _smaller_encoding(sizes, _dim(uploads))
        for t in range(1, artifact.rounds_run + 1):
            comm.record(t, "down", down)
            comm.record(t, "up", sizes)
    return ProtocolResult(artifact=artifact, comm=comm, spec=spec)


def serve_predictor(predictor: ClientwisePredictor, served, uploads: Mapping[int, LocalMoments], session) -> CommLog:
    """Log the delivery of ``predictor`` to each client of ``served``, after a
    method ran ``session`` (its protocol specs, in order) on the senders'
    ``uploads``.

    The server sends the smaller of two exact encodings
    (``_smaller_encoding``): one broadcast of the shared model
    (``_shared_floats``), or each served client's |O_k| coefficients when it
    has some (an unidentifiable client has none). For the latter the server
    needs every served client's pattern, so one that did not register while
    the method fitted (it drew no rows, or is new) registers first.
    Registrations are round 0, messages round 1.
    """
    served = tuple(served)
    sizes = [len(predictor.thetas[c.id]) for c in served
             if c.id in predictor.thetas and c.id not in predictor.unidentifiable]
    comm, d = CommLog(), _dim(uploads)
    shared = _shared_floats(session, d)
    down = _smaller_encoding(sizes, shared)
    if down != (shared,):  # the per-client encoding
        comm.record(0, "up", [0] * len({c.id for c in served} - uploads.keys()), bits=d)
    comm.record(1, "down", down)
    return comm
