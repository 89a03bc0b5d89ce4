"""Tests for the federation simulator: transparency and exact accounting."""
import numpy as np
import pytest

from fedmismatch.fedsim import (
    PROTOCOL_KINDS,
    ProtocolSpec,
    replay_comm_schedule,
    run_protocol,
)
from fedmismatch.impute import apply_imputer, fit_zero_imputer
from fedmismatch.impute import federated_ice as ice_in_memory
from fedmismatch.model import ClientSpec, Dataset, FeaturePattern
from fedmismatch.moments import aggregate_zero_imputed, empirical_coobservation
from fedmismatch.popgen import sample_dataset
from fedmismatch.ridge import fedavg_ridge, ridge_closed_form

from support import random_clients, random_population, seeded
from test_popgen import section3_clients


def _masked(seed, d=4, n=120, clients=None):
    rng = seeded(seed)
    pop = random_population(rng, d)
    clients = clients if clients is not None else section3_clients(d)
    return sample_dataset(pop, clients, n, rng)


def _completed(seed, d=4, n=120, clients=None):
    data = _masked(seed, d, n, clients)
    return apply_imputer(fit_zero_imputer(data.clients), data)


def _sparse_federation(seed, d=4):
    """Four clients: client 2 drew no rows and client 3 observes nothing."""
    rng = seeded(seed)
    pop = random_population(rng, d)
    clients = (
        ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 3], d), rho=0.25),
        ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 4], d), rho=0.25),
        ClientSpec(id=3, pattern=FeaturePattern.empty(d), rho=0.25),
        ClientSpec(id=4, pattern=FeaturePattern.from_one_based([2, 3, 4], d), rho=0.25),
    )
    drawn = sample_dataset(pop, clients, 90, rng)
    keep = drawn.client_ids != 2
    data = Dataset(
        clients=clients, client_ids=drawn.client_ids[keep], x_filled=drawn.x_filled[keep], y=drawn.y[keep]
    )
    assert len(data.rows_of(2)) == 0 and len(data.rows_of(3)) > 0
    return data


def _library_artifact(spec, data):
    """What the library function returns for the payload run_protocol gets."""
    if spec.kind == "one_shot_moments":
        return aggregate_zero_imputed(data.local_moments), empirical_coobservation(data)[1]
    if spec.kind == "federated_ice":
        return ice_in_memory(data, rounds=spec.ice_rounds).imputed
    if spec.kind == "one_shot_ridge":
        return ridge_closed_form(data, spec.lam)
    return fedavg_ridge(data, lam=spec.lam, rounds=spec.rounds).theta


class TestTransportTransparency:
    """The protocol artifacts equal the library computations bitwise:
    accounting never changes a single float."""

    def test_one_shot_moments(self):
        data = _masked(501)
        res = run_protocol(ProtocolSpec(kind="one_shot_moments"), data)
        want = aggregate_zero_imputed(data.local_moments)
        assert np.array_equal(res.artifact.pair.sigma, want.sigma)
        assert np.array_equal(res.artifact.pair.gamma, want.gamma)
        _, counts = empirical_coobservation(data)
        assert np.array_equal(res.artifact.counts.counts, counts.counts)
        assert res.artifact.counts.n == counts.n

    def test_one_shot_ridge(self):
        data = _completed(502)
        res = run_protocol(ProtocolSpec(kind="one_shot_ridge", lam=0.4), data)
        assert np.array_equal(res.artifact, ridge_closed_form(data, 0.4))

    def test_one_shot_ridge_min_norm(self):
        data = _completed(503)
        res = run_protocol(ProtocolSpec(kind="one_shot_ridge", lam=0.0), data)
        assert np.array_equal(res.artifact, ridge_closed_form(data, 0.0))

    def test_federated_ice(self):
        data = _masked(504)
        res = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        want = ice_in_memory(data, rounds=3)
        assert np.array_equal(res.artifact.x, want.imputed.x)
        assert np.array_equal(res.artifact.y, data.y)

    def test_fedavg(self):
        data = _completed(505)
        res = run_protocol(ProtocolSpec(kind="fedavg_ridge", lam=0.2, rounds=5), data)
        want = fedavg_ridge(data, lam=0.2, rounds=5)
        assert np.array_equal(res.artifact, want.theta)


    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_empty_and_unobserving_clients(self, kind):
        data = _sparse_federation(515)
        spec = ProtocolSpec(kind=kind, lam=0.3, ice_rounds=3, rounds=4)
        masked = kind in ("one_shot_moments", "federated_ice")
        payload = data if masked else apply_imputer(fit_zero_imputer(data.clients), data)
        res = run_protocol(spec, payload)
        want = _library_artifact(spec, payload)
        if kind == "one_shot_moments":
            pair, counts = want
            assert np.array_equal(res.artifact.pair.sigma, pair.sigma)
            assert np.array_equal(res.artifact.pair.gamma, pair.gamma)
            assert np.array_equal(res.artifact.counts.counts, counts.counts)
            assert res.artifact.counts.n == counts.n
        elif kind == "federated_ice":
            assert np.array_equal(res.artifact.x, want.x)
            assert res.artifact.imputer.maps.keys() == want.imputer.maps.keys()
            for cid, s in want.imputer.maps.items():
                assert np.array_equal(res.artifact.imputer.maps[cid], s)
        else:
            assert np.array_equal(res.artifact, want)
        # Masked-data protocols log all four clients; completed-data ones
        # log the three non-empty shards.
        pred = replay_comm_schedule(spec, 4 if masked else 3, data.d)
        assert res.comm.total_floats("up") == pred.up_floats
        assert res.comm.total_floats("down") == pred.down_floats
        assert res.comm.total_bits() == pred.registration_bits


class TestPayloadAudit:
    def test_schedules_independent_of_sample_counts(self):
        # Payload sizes scale with d and rounds only; shipping ten times the
        # rows moves identical float counts.
        clients = section3_clients()
        for kind, build in (
            ("one_shot_moments", _masked),
            ("federated_ice", _masked),
            ("one_shot_ridge", _completed),
            ("fedavg_ridge", _completed),
        ):
            spec = ProtocolSpec(kind=kind, lam=0.1, ice_rounds=2, rounds=2)
            small = run_protocol(spec, build(506, 4, 30, clients))
            large = run_protocol(spec, build(507, 4, 300, clients))
            assert [(e.round, e.direction, e.floats, e.bits) for e in small.comm.events] == [
                (e.round, e.direction, e.floats, e.bits) for e in large.comm.events
            ]

    def test_moment_upload_size(self):
        data = _masked(508, d=5)
        res = run_protocol(ProtocolSpec(kind="one_shot_moments"), data)
        tri = 5 * 6 // 2
        for e in res.comm.events:
            if e.direction == "up" and e.floats:
                assert e.floats == tri + 5 + 1

    def test_every_event_has_its_message_size(self):
        # Per message: registrations carry d bits and no floats, and every
        # float payload has the size its contents dictate.
        d, tri = 4, 4 * 5 // 2
        clients = section3_clients(d)
        k = len(clients)
        sizes = {
            "one_shot_moments": {(0, "up"): (0, d), (1, "up"): (tri + d + 1, 0), (1, "down"): (tri + d, 0)},
            "one_shot_ridge": {(1, "up"): (tri + d + 1, 0), (1, "down"): (d, 0)},
            "federated_ice": {(0, "up"): (0, d), **{(t, io): (tri, 0) for t in (1, 2) for io in ("up", "down")}},
            "fedavg_ridge": {(t, io): (k * d, 0) for t in (1, 2) for io in ("up", "down")},
        }
        for kind, want in sizes.items():
            build = _masked if kind in ("one_shot_moments", "federated_ice") else _completed
            payload = build(516, d, 60, clients)
            res = run_protocol(ProtocolSpec(kind=kind, lam=0.1, ice_rounds=2, rounds=2), payload)
            assert {(e.round, e.direction) for e in res.comm.events} == set(want), kind
            for e in res.comm.events:
                assert (e.floats, e.bits) == want[(e.round, e.direction)], (kind, e)


class TestReplayMatchesRun:
    def test_across_protocol_grid(self):
        rng = seeded(509)
        for d in (1, 2, 5):
            for k in (1, 3):
                pop = random_population(rng, d)
                clients = random_clients(rng, d, k)
                data = sample_dataset(pop, clients, 40, rng)
                completed = apply_imputer(fit_zero_imputer(clients), data)
                nonempty = sum(1 for c in clients if len(data.rows_of(c.id)))
                cases = [
                    (ProtocolSpec(kind="one_shot_moments"), data, k),
                    (ProtocolSpec(kind="federated_ice", ice_rounds=0), data, k),
                    (ProtocolSpec(kind="federated_ice", ice_rounds=3), data, k),
                    (ProtocolSpec(kind="one_shot_ridge", lam=0.1), completed, nonempty),
                    (ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=4), completed, nonempty),
                ]
                for spec, payload, k_replay in cases:
                    res = run_protocol(spec, payload)
                    pred = replay_comm_schedule(spec, k_replay, d)
                    assert res.comm.total_floats("up") == pred.up_floats, spec.kind
                    assert res.comm.total_floats("down") == pred.down_floats, spec.kind
                    assert res.comm.total_bits() == pred.registration_bits, spec.kind

    def test_replay_validation(self):
        with pytest.raises(ValueError):
            replay_comm_schedule(ProtocolSpec(kind="one_shot_moments"), 0, 3)
        with pytest.raises(ValueError):
            replay_comm_schedule(ProtocolSpec(kind="one_shot_moments"), 2, 0)


class TestPinnedTotals:
    def test_one_shot_moments_k3_d4(self):
        # 3 clients * (10 upper-tri + 4 gamma + count) = 45 up,
        # 10 + 4 = 14 down, 3 * 4 registration bits.
        clients = random_clients(seeded(510), 4, 3)
        data = _masked(510, 4, 90, clients)
        res = run_protocol(ProtocolSpec(kind="one_shot_moments"), data)
        assert res.comm.total_floats("up") == 45
        assert res.comm.total_floats("down") == 14
        assert res.comm.total_bits("up") == 12

    def test_fedavg_k2_d5_seven_rounds(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(5), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(5), rho=0.5),
        )
        data = _completed(511, 5, 60, clients)
        res = run_protocol(ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=7), data)
        assert res.comm.total_floats("up") == 7 * 2 * 5
        assert res.comm.total_floats("down") == 7 * 2 * 5

    def test_fedavg_comm_per_round(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(3), rho=0.5),
        )
        data = apply_imputer(fit_zero_imputer(clients), Dataset(
            clients=clients,
            client_ids=np.array([1, 1, 1, 2, 2, 2]),
            x_filled=np.vstack([np.eye(3), np.eye(3)]),
            y=np.ones(6),
        ))
        res = run_protocol(ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=7), data)
        assert res.comm.total_floats("up") == 7 * 2 * 3
        assert res.comm.total_floats("down") == 7 * 2 * 3

    def test_ice_comm_totals(self):
        # Every client uploads its second-moment sums each round: K * T * tri
        # up, one T * tri broadcast down.
        rng = seeded(213)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 40, rng)
        res = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        tri = 4 * 5 // 2
        assert res.comm.total_floats("up") == 2 * 3 * tri
        assert res.comm.total_floats("down") == 3 * tri

    def test_ice_round_totals(self):
        data = _masked(512, 4, 50)
        res = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        tri = 4 * 5 // 2
        assert res.comm.total_floats("down") == 3 * tri
        assert res.comm.total_floats("up") == 2 * 3 * tri

    def test_ice_zero_rounds_only_registers(self):
        data = _masked(513, 4, 50)
        res = run_protocol(ProtocolSpec(kind="federated_ice", ice_rounds=0), data)
        assert res.comm.total_floats() == 0
        assert res.comm.total_bits() == 2 * 4
        assert np.array_equal(res.artifact.x, data.x_filled)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolSpec(kind="three_shot_moments")

    def test_bad_knobs(self):
        with pytest.raises(ValueError):
            ProtocolSpec(kind="one_shot_ridge", lam=-0.1)
        with pytest.raises(ValueError):
            ProtocolSpec(kind="federated_ice", ice_rounds=-1)
        with pytest.raises(ValueError):
            ProtocolSpec(kind="fedavg_ridge", local_steps=0)

    def test_kind_catalog(self):
        assert PROTOCOL_KINDS == (
            "one_shot_moments",
            "one_shot_ridge",
            "federated_ice",
            "fedavg_ridge",
        )

    def test_wrong_payload_type(self):
        masked = _masked(514)
        completed = _completed(514)
        with pytest.raises(TypeError):
            run_protocol(ProtocolSpec(kind="one_shot_moments"), completed)
        with pytest.raises(TypeError):
            run_protocol(ProtocolSpec(kind="one_shot_ridge"), masked)
