"""Tests for the federation simulator: transparency and exact accounting."""
import inspect
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmismatch import cli, fedsim, ridge

from fedmismatch.fedsim import (
    PROTOCOL_KINDS,
    ProtocolSpec,
    replay_comm_schedule,
    replay_serve,
    run_protocol,
    serve_predictor,
)
from fedmismatch.impute import ImputationMap, optimal_block_map
from fedmismatch.impute import federated_ice as ice_in_memory
from fedmismatch.model import ClientSpec, ClientwisePredictor, Dataset, FeaturePattern
from fedmismatch.moments import (aggregate_zero_imputed, completed_sums, imputed_data_moments,
                                 local_zero_imputed_moments)
from fedmismatch.popgen import sample_dataset
from fedmismatch.ridge import itr_predictor, ridge_closed_form

from support import (
    assert_rel_close,
    blow_up_federation,
    completed_rows,
    fedavg_on,
    from_filled,
    random_clients,
    random_pattern,
    random_population,
    random_psd,
    reference_completed_sums,
    reference_fold,
    reference_padded_sums,
    sample_counts,
    run_on,
    seeded,
    without_rows,
    x_filled,
)
from test_popgen import section3_clients


def _masked(seed, d=4, n=120, clients=None):
    rng = seeded(seed)
    pop = random_population(rng, d)
    clients = clients if clients is not None else section3_clients(d)
    return sample_dataset(pop, clients, n, rng)


def _completed(seed, d=4, n=120, clients=None):
    """(masked data, zero imputer): what every protocol kind accepts."""
    data = _masked(seed, d, n, clients)
    return data, ImputationMap()


def _sparse_federation(seed, d=4):
    """(population, data) of four clients: client 2 drew no rows and client 3 observes nothing."""
    rng = seeded(seed)
    pop = random_population(rng, d)
    clients = (
        ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 3], d), rho=0.25),
        ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 4], d), rho=0.25),
        ClientSpec(id=3, pattern=FeaturePattern.empty(d), rho=0.25),
        ClientSpec(id=4, pattern=FeaturePattern.from_one_based([2, 3, 4], d), rho=0.25),
    )
    data = without_rows(sample_dataset(pop, clients, 90, rng), 2)
    assert len(data.rows_of(2)) == 0 and len(data.rows_of(3)) > 0
    return pop, data


def _library_artifact(spec, data, imputer):
    """What the library function returns for the arguments run_protocol gets."""
    if spec.kind == "one_shot_moments":
        return aggregate_zero_imputed(data.uploads.values()), sample_counts(data)
    if spec.kind == "federated_ice":
        return ice_in_memory(data.uploads, rounds=spec.ice_rounds)
    if spec.kind == "one_shot_ridge":
        return ridge_closed_form(data.uploads, imputer, spec.lam)
    return fedavg_on(data, imputer, lam=spec.lam, rounds=spec.rounds)


class TestTransportTransparency:
    """The protocol artifacts equal the library computations bitwise:
    accounting never changes a single float."""

    def test_one_shot_moments(self):
        data = _masked(501)
        res = run_on(ProtocolSpec(kind="one_shot_moments"), data)
        want = aggregate_zero_imputed(data.uploads.values())
        assert np.array_equal(res.artifact.pair.sigma, want.sigma)
        assert np.array_equal(res.artifact.pair.gamma, want.gamma)
        assert np.array_equal(res.artifact.counts, sample_counts(data))
        assert res.artifact.n == data.n

    def test_one_shot_ridge(self):
        data, imputer = _completed(502)
        res = run_on(ProtocolSpec(kind="one_shot_ridge", lam=0.4), data, imputer)
        assert np.array_equal(res.artifact, ridge_closed_form(data.uploads, imputer, 0.4))

    def test_one_shot_ridge_min_norm(self):
        data, imputer = _completed(503)
        res = run_on(ProtocolSpec(kind="one_shot_ridge", lam=0.0), data, imputer)
        assert np.array_equal(res.artifact, ridge_closed_form(data.uploads, imputer, 0.0))

    def test_federated_ice(self):
        data = _masked(504)
        res = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        want = ice_in_memory(data.uploads, rounds=3)
        assert res.artifact.sigma.tobytes() == want.sigma.tobytes()
        assert np.array_equal(completed_rows(data, res.artifact), completed_rows(data, want))

    def test_fedavg(self):
        data = _completed(505)
        res = run_on(ProtocolSpec(kind="fedavg_ridge", lam=0.2, rounds=5), *data)
        want = fedavg_on(*data, lam=0.2, rounds=5)
        assert np.array_equal(res.artifact.theta, want.theta)
        assert (res.artifact.objective_trace, res.artifact.diverged, res.artifact.rounds_run) == (
            want.objective_trace, want.diverged, want.rounds_run)


    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_empty_and_unobserving_clients(self, kind):
        _, data = _sparse_federation(515)
        spec = ProtocolSpec(kind=kind, lam=0.3, ice_rounds=3, rounds=4)
        imputer = ImputationMap()
        res = run_on(spec, data, imputer)
        want = _library_artifact(spec, data, imputer)
        if kind == "one_shot_moments":
            pair, counts = want
            assert np.array_equal(res.artifact.pair.sigma, pair.sigma)
            assert np.array_equal(res.artifact.pair.gamma, pair.gamma)
            assert np.array_equal(res.artifact.counts, counts)
            assert res.artifact.n == data.n == sum(lm.count for lm in data.uploads.values())
            # N[l, j] counts the rows observing both l and j, row by row
            row_masks = np.array([c.pattern.mask() for c in data.clients for _ in data.rows_of(c.id)], dtype=np.int64)
            assert len(row_masks) == data.n
            assert np.array_equal(res.artifact.counts, row_masks.T @ row_masks)
        elif kind == "federated_ice":
            assert res.artifact.sigma.tobytes() == want.sigma.tobytes()
            assert np.array_equal(completed_rows(data, res.artifact), completed_rows(data, want))
            assert list(res.artifact.maps) == list(want.maps) == list(dict.fromkeys(c.pattern for c in data.clients))
            for p, s in want.maps.items():
                assert np.array_equal(res.artifact.maps[p], s)
        elif kind == "fedavg_ridge":
            assert np.array_equal(res.artifact.theta, want.theta)
            assert res.artifact.objective_trace == want.objective_trace
        else:
            assert np.array_equal(res.artifact, want)
        # Every protocol logs the three clients that drew rows; client 2
        # sends nothing. Patterns {1,3}, {} and {2,3,4} (m = 2, 0, 3 observed
        # features) upload (m+1)(m+2)/2 = 6, 1, 10 floats of moments, or
        # m(m+1)/2 = 3, 0, 6 once for all three ICE rounds. The one-shot
        # artifacts stay on the server, so nothing comes down. Each of
        # FedAvg's four rounds exchanges m = 2, 0, 3 floats each way, and all
        # three senders register.
        want = {
            "one_shot_moments": (6 + 1 + 10, 0, 3 * 4),
            "one_shot_ridge": (6 + 1 + 10, 0, 3 * 4),
            "federated_ice": (3 + 0 + 6, 0, 3 * 4),
            "fedavg_ridge": (4 * (2 + 0 + 3), 4 * (2 + 0 + 3), 3 * 4),
        }[kind]
        assert (res.comm.total_floats("up"), res.comm.total_floats("down"), res.comm.total_bits()) == want
        pred = replay_comm_schedule(spec, [c.pattern for c in data.clients if c.id != 2])
        assert (pred.up_floats, pred.down_floats, pred.registration_bits) == want


class TestPayloadAudit:
    def test_schedules_independent_of_sample_counts(self):
        # Payload sizes scale with d and rounds only; shipping ten times the
        # rows moves identical float counts.
        clients = section3_clients()
        for kind in PROTOCOL_KINDS:
            spec = ProtocolSpec(kind=kind, lam=0.1, ice_rounds=2, rounds=2)
            small = run_on(spec, *_completed(506, 4, 30, clients))
            large = run_on(spec, *_completed(507, 4, 300, clients))
            assert [(e.round, e.direction, e.floats, e.bits) for e in small.comm.events] == [
                (e.round, e.direction, e.floats, e.bits) for e in large.comm.events
            ]

    def test_moment_upload_size(self):
        # Each client uploads 1 + tri(m) + m floats for its m observed
        # features, whatever d: obs(1) = {1,3} gives 1 + 3 + 2 = 6 and
        # obs(2) = {2,3,4} gives 1 + 6 + 3 = 10, in client order.
        data = _masked(508, d=5)
        res = run_on(ProtocolSpec(kind="one_shot_moments"), data)
        assert [e.floats for e in res.comm.events if e.direction == "up" and e.floats] == [6, 10]

    def test_every_event_has_its_message_size(self):
        # Per message, in logged order: registrations carry d bits and no
        # floats, and every float payload has the size its contents dictate.
        # obs(1) = {1,3} and obs(2) = {2,3,4} upload 6 and 10 moment floats,
        # and 3 and 6 Gram floats once for both ICE rounds; no one-shot
        # protocol sends anything down. Each FedAvg round sends each sender
        # its 2 and 3 observed coefficients and hears back as many.
        d = 4
        clients = section3_clients(d)
        register = {(0, "up"): [(0, d), (0, d)]}
        sizes = {
            "one_shot_moments": {**register, (1, "up"): [(6, 0), (10, 0)]},
            "one_shot_ridge": {**register, (1, "up"): [(6, 0), (10, 0)]},
            "federated_ice": {**register, (1, "up"): [(3, 0), (6, 0)]},
            "fedavg_ridge": {**register, **{(t, io): [(2, 0), (3, 0)] for t in (1, 2) for io in ("up", "down")}},
        }
        for kind, want in sizes.items():
            res = run_on(ProtocolSpec(kind=kind, lam=0.1, ice_rounds=2, rounds=2), *_completed(516, d, 60, clients))
            got = {}
            for e in res.comm.events:
                got.setdefault((e.round, e.direction), []).append((e.floats, e.bits))
            assert got == want, kind


@st.composite
def _federations(draw):
    """A Dataset of 1-6 clients on d <= 8 coordinates with random patterns,
    empty ones included, and 0-5 rows each (at least one row in all)."""
    d = draw(st.integers(1, 8))
    masks = draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d), min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(0, 5), min_size=len(masks), max_size=len(masks)).filter(any))
    rng = seeded(draw(st.integers(0, 2**32 - 1)))
    patterns = [FeaturePattern(tuple(np.flatnonzero(m).tolist()), d) for m in masks]
    clients = tuple(ClientSpec(id=i + 1, pattern=p, rho=1 / len(masks)) for i, p in enumerate(patterns))
    blocks = {c.id: rng.standard_normal((n, c.pattern.size)) for c, n in zip(clients, rows)}
    return Dataset(clients, blocks, rng.standard_normal(sum(rows))), rng


def _bytes_equal(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestPatternSizedUploads:
    """Observed-block uploads, scattered and completed by the server, give
    the zero-padded fold's estimates: bit for bit for the observed moments
    and under the zero map, to rounding under a nonzero map (S G and
    sym(S G S^T) round differently from B^T G B). Each logged upload has the
    size of its sender's pattern."""

    @settings(max_examples=80, deadline=None)
    @given(_federations())
    def test_same_bits_as_zero_padded_fold(self, drawn):
        data, rng = drawn
        pair = aggregate_zero_imputed(data.uploads.values())
        assert _bytes_equal((pair.sigma, pair.gamma), reference_fold(reference_padded_sums(data)))
        zero, optimal = ImputationMap(), ImputationMap(random_psd(rng, data.d))
        for imputer, bitwise in ((zero, True), (optimal, False)):
            pair = imputed_data_moments(data.uploads, imputer)
            want = reference_fold((lm.sigma_sum, lm.gamma_sum, lm.count) for lm in reference_completed_sums(data, imputer))
            theta = fedavg_on(data, imputer, lam=0.1, rounds=3).theta
            with mock.patch.object(ridge, "completed_sums", lambda _, imp: reference_completed_sums(data, imp)):
                want_theta = fedavg_on(data, imputer, lam=0.1, rounds=3).theta
            if bitwise:
                assert _bytes_equal((pair.sigma, pair.gamma), want)
                assert _bytes_equal((theta,), (want_theta,))
            else:
                for got, ref in zip((pair.sigma, pair.gamma, theta), want + (want_theta,)):
                    assert_rel_close(got, ref)

    @settings(max_examples=40, deadline=None)
    @given(_federations())
    def test_every_upload_is_pattern_sized(self, drawn):
        data, _ = drawn
        sizes = [c.pattern.size for c in data.clients if len(data.rows_of(c.id))]
        # (uplink floats in logged order, pattern registrations)
        want = {
            "one_shot_moments": ([(m + 1) * (m + 2) // 2 for m in sizes], len(sizes)),
            "one_shot_ridge": ([(m + 1) * (m + 2) // 2 for m in sizes], len(sizes)),
            "federated_ice": ([m * (m + 1) // 2 for m in sizes], len(sizes)),
            "fedavg_ridge": ([m for m in sizes if m] * 2, len(sizes)),
        }
        for kind, (floats, senders) in want.items():
            res = run_on(ProtocolSpec(kind=kind, lam=0.1, ice_rounds=2, rounds=2), data, ImputationMap())
            assert [e.floats for e in res.comm.events if e.direction == "up" and e.round > 0] == floats, kind
            assert [e.bits for e in res.comm.events if e.round == 0] == [data.d] * senders, kind


def _client_message(phi, c_k, lm, eta, lam, steps):
    """The |O_k|-vector v_s a sender returns for phi = B_k^T theta, from C_k =
    B_k^T B_k and its own observed-block sums ``lm`` alone:
    v_{j+1} = a v_j + (G_k (a^j phi - eta C_k v_j) - g_k) / n_k, a = 1 - eta lam."""
    a, v = 1.0 - eta * lam, np.zeros(len(phi))
    for j in range(steps):
        v = a * v + (lm.sigma_sum @ (a**j * phi - eta * (c_k @ v)) - lm.gamma_sum) / lm.count
    return v


def _step_magnitude(theta, b_k, lm, eta, lam, steps):
    """The largest entry of the s-step recursion run on absolute values,
    mag <- (1 + eta lam) mag + eta (|B_k||G_k||B_k|^T mag + |B_k||g_k|) / n_k
    from |theta|: no term that either side of the identity sums is larger."""
    gram = np.abs(b_k) @ np.abs(lm.sigma_sum) @ np.abs(b_k).T
    mag = np.abs(theta)
    for _ in range(steps):
        mag = (1.0 + eta * lam) * mag + eta * (gram @ mag + np.abs(b_k) @ np.abs(lm.gamma_sum)) / lm.count
    return float(np.max(mag, initial=0.0))


def _max_abs(x):
    return float(np.max(np.abs(x), initial=0.0))


class TestFedAvgPatternMessages:
    """A FedAvg round sees each sender only through its observed block. With
    B_k = [I; S_k] in d coordinates and a = 1 - eta lambda, sender k's s
    local steps from any theta are a^s theta - eta B_k v_k, where v_k is the
    |O_k|-vector ``_client_message`` computes from phi_k = B_k^T theta, C_k
    and the sender's own (n_k, G_k, g_k). So a round sends phi_k down and v_k
    up, |O_k| floats each way, and a move of theta along the null space of
    B_k^T reaches the sender's result only as the shrinkage a^s.

    ``fedavg_ridge`` builds the d x d map M_k^s and the identity's side sums
    the same terms in another order, so the two agree to rounding only. Each
    output of a step sums at most d + 2 products, so either side is off by
    at most about s (d + 2) eps times ``_step_magnitude``; the tolerance is
    four times that (the largest error seen over 1,500 drawn cases was 1.4
    eps times the magnitude). The round check adds one term per sender."""

    @settings(max_examples=80, deadline=None)
    @given(_federations(), st.integers(1, 3), st.sampled_from([0.0, 0.05, 0.7, 4.0]))
    def test_local_steps_rebuilt_from_pattern_sized_messages(self, drawn, local_steps, lam):
        data, rng = drawn
        d, s, eps = data.d, local_steps, np.finfo(np.float64).eps
        senders = [lm for lm in data.uploads.values() if lm.count]
        imputers = (ImputationMap(), ImputationMap(random_psd(rng, d)),
                    ice_in_memory(data.uploads, rounds=2))
        for imputer in imputers:
            # Each sender's (eta, (A_k, b_k)) as fedavg_ridge forms them, in its fold order.
            calls, local_map = [], ridge._local_steps

            def spy(*args):
                calls.append((args[1], local_map(*args)))
                return calls[-1][1]

            with mock.patch.object(ridge, "_local_steps", spy):
                theta_1 = fedavg_on(data, imputer, lam, rounds=1, local_steps=s).theta
            assert len(calls) == len(senders)
            first_round, first_mag = np.zeros(d), 0.0
            for lm, (eta, (a_k, b_k)) in zip(senders, calls):
                p, shrink = lm.pattern, (1.0 - eta * lam) ** s
                b = imputer.complete(p, np.eye(p.size)).T
                theta, delta = rng.standard_normal(d), np.zeros(d)
                delta[list(p.missing)] = rng.standard_normal(len(p.missing))
                delta[list(p.observed)] = -imputer.maps[p].T @ delta[list(p.missing)]
                tol = 4 * s * (d + 2) * eps * _step_magnitude(np.abs(theta) + np.abs(delta), b, lm, eta, lam, s)
                got = a_k @ theta + b_k
                v = _client_message(b.T @ theta, b.T @ b, lm, eta, lam, s)
                assert _max_abs(got - (shrink * theta - eta * b @ v)) <= tol
                assert _max_abs(a_k @ (theta + delta) + b_k - got - shrink * delta) <= tol
                v_0 = _client_message(np.zeros(p.size), b.T @ b, lm, eta, lam, s)
                first_round -= lm.count / data.n * eta * b @ v_0
                first_mag += lm.count / data.n * _step_magnitude(np.zeros(d), b, lm, eta, lam, s)
            # From theta = 0, round one is the n_k / n weighted rebuild.
            assert _max_abs(theta_1 - first_round) <= 4 * s * (d + 2 + len(senders)) * eps * first_mag


class TestIceOneRoundTrip:
    """Federated ICE sends each client's observed Gram once, however many
    rounds the server runs, and keeps the final covariance estimate on the
    server."""

    @settings(max_examples=60, deadline=None)
    @given(_federations(), st.integers(0, 5))
    def test_one_upload_per_client_and_nothing_down(self, drawn, rounds):
        data, _ = drawn
        d, senders = data.d, [c.pattern for c in data.clients if len(data.rows_of(c.id))]
        spec = ProtocolSpec(kind="federated_ice", ice_rounds=rounds)
        res = run_on(spec, data)
        events = [(e.round, e.direction, e.floats, e.bits) for e in res.comm.events]
        register = [(0, "up", 0, d)] * len(senders)
        grams = [(1, "up", p.size * (p.size + 1) // 2, 0) for p in senders]
        if rounds:
            assert events == register + grams
            once = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=1), data)
            assert [e for e in once.comm.events if e.direction == "up"] == [
                e for e in res.comm.events if e.direction == "up"]
        else:
            assert events == register
            assert res.comm.total_floats() == 0
        pred = replay_comm_schedule(spec, senders)
        assert (res.comm.total_floats("up"), res.comm.total_floats("down"), res.comm.total_bits()) == (
            pred.up_floats, pred.down_floats, pred.registration_bits)
        want = ice_in_memory(data.uploads, rounds)
        assert (res.artifact.sigma is None) == (want.sigma is None) == (rounds == 0)
        if rounds:
            assert res.artifact.sigma.tobytes() == want.sigma.tobytes()
        for p in {c.pattern for c in data.clients}:
            assert res.artifact.maps[p].tobytes() == want.maps[p].tobytes()


class TestServerReadsOnlyUploads:
    """The server reads the senders' uploads (sender id to observed sums),
    never a ``Dataset``: every server-side fit, ``run_protocol``,
    ``serve_predictor`` and ``local_learning`` take them. Sums built by hand,
    with no ``Dataset`` anywhere, give what a sample holding the same blocks
    plus a client that drew no rows gives, bit for bit."""

    FITS = (completed_sums, imputed_data_moments, ridge_closed_form, ridge.fedavg_ridge, ice_in_memory,
            fedsim._one_shot_moments)

    def test_no_fit_takes_a_dataset(self):
        for fit in self.FITS:
            params = list(inspect.signature(fit).parameters.values())
            assert params[0].name == "uploads", fit.__name__
            assert not any("Dataset" in str(p.annotation) for p in params), fit.__name__

    def test_no_entry_point_takes_a_dataset(self):
        # fedsim's public functions and the local baseline take uploads, fedsim
        # imports no Dataset, and a work item's context holds none.
        public = [f for f in map(vars(fedsim).get, fedsim.__all__) if inspect.isfunction(f)]
        assert {run_protocol, serve_predictor} <= set(public)
        for f in public + [ridge.local_learning]:
            params = inspect.signature(f).parameters.values()
            assert not any("Dataset" in str(p.annotation) or p.name == "data" for p in params), f.__name__
        for f in (run_protocol, serve_predictor, ridge.local_learning):
            assert "uploads" in inspect.signature(f).parameters, f.__name__
        assert "Dataset" not in vars(fedsim)
        assert not any("Dataset" in str(f.type) for f in fields(cli._Context))

    @pytest.mark.parametrize("seed", [540, 541, 542])
    def test_hand_built_uploads_give_the_protocol_artifacts(self, seed):
        # Client 3 draws no rows and shares its pattern with no sender.
        rng, d, ids = seeded(seed), 5, (1, 2, 4, 5)
        lone, sent = FeaturePattern.from_one_based([2, 5], d), []
        while len(sent) < len(ids):
            p = random_pattern(rng, d, nonempty=False)
            sent += [p] if p != lone else []
        blocks = {k: rng.standard_normal((int(rng.integers(1, 9)), p.size)) for k, p in zip(ids, sent)}
        ys = {k: rng.standard_normal(len(x)) for k, x in blocks.items()}
        hand = {k: local_zero_imputed_moments(blocks[k], ys[k], p) for k, p in zip(ids, sent)}
        y = np.concatenate([ys[k] for k in ids])
        clients = [ClientSpec(id=k, pattern=p, rho=0.2) for k, p in zip(ids, sent)]
        clients.insert(2, ClientSpec(id=3, pattern=lone, rho=0.2))
        data = Dataset(tuple(clients), blocks, y)
        assert list(data.uploads) == list(hand) == list(ids)

        def same_run(got, want):
            assert got.comm.records == want.comm.records
            return got.artifact, want.artifact

        spec = ProtocolSpec(kind="one_shot_moments")
        got, moments = same_run(run_protocol(spec, hand), run_on(spec, data))
        assert _bytes_equal((got.pair.sigma, got.pair.gamma, got.counts),
                            (moments.pair.sigma, moments.pair.gamma, moments.counts))
        assert got.n == moments.n == data.n
        ices = []
        for t in range(4):
            spec = ProtocolSpec(kind="federated_ice", ice_rounds=t)
            got, want = same_run(run_protocol(spec, hand), run_on(spec, data))
            if t:
                assert got.sigma.tobytes() == want.sigma.tobytes()
            else:
                assert got.sigma is None and want.sigma is None
            ices.append(want)
        for t in range(1, 4):
            assert ice_in_memory(hand, t).sigma.tobytes() == ices[t].sigma.tobytes()
            assert imputed_data_moments(hand, ices[t - 1]).sigma.tobytes() == ices[t].sigma.tobytes()
        for imputer in (ImputationMap(), ImputationMap(random_psd(rng, d)), ices[3]):
            want = list(completed_sums(data.uploads, imputer))
            got = list(completed_sums(hand, imputer))
            assert [lm.count for lm in got] == [lm.count for lm in want]
            assert all(_bytes_equal((g.sigma_sum, g.gamma_sum), (w.sigma_sum, w.gamma_sum)) for g, w in zip(got, want))
            spec = ProtocolSpec(kind="one_shot_ridge", lam=0.3)
            got, ridge_fit = same_run(run_protocol(spec, hand, imputer), run_on(spec, data, imputer))
            assert got.tobytes() == ridge_closed_form(hand, imputer, 0.3).tobytes() == ridge_fit.tobytes()
            spec = ProtocolSpec(kind="fedavg_ridge", lam=0.3, rounds=6, local_steps=2)
            got, fedavg = same_run(run_protocol(spec, hand, imputer), run_on(spec, data, imputer))
            assert got.theta.tobytes() == fedavg.theta.tobytes()
            assert (got.objective_trace, got.diverged, got.rounds_run) == (
                fedavg.objective_trace, fedavg.diverged, fedavg.rounds_run)
        # The ICE map serves the client that sent nothing from its sigma.
        ice, theta = ices[3], rng.standard_normal(d)
        s = optimal_block_map(ice.sigma, lone)
        assert ice.maps[lone].tobytes() == s.tobytes()
        served = itr_predictor(ice, theta, clients).thetas[3]
        assert served.tobytes() == (theta[list(lone.observed)] + s.T @ theta[list(lone.missing)]).tobytes()
        # The local baseline fits each sender from its own upload and gives
        # client 3, which sent none, zeros; served alone, client 3 registers
        # first and receives its two coefficients, fewer than theta's five.
        local = ridge.local_learning(clients, hand, 0.3)
        want = ridge.local_learning(data.clients, data.uploads, 0.3)
        assert all(local.thetas[c.id].tobytes() == want.thetas[c.id].tobytes() for c in clients)
        assert local.thetas[3].tobytes() == np.zeros(2).tobytes()
        session = [ProtocolSpec(kind="one_shot_ridge")]
        log = serve_predictor(local, [clients[2]], hand, session)
        assert log.records == serve_predictor(want, [clients[2]], data.uploads, session).records
        assert [(e.round, e.direction, e.floats, e.bits) for e in log.events] == [(0, "up", 0, d), (1, "down", 2, 0)]

    def test_fedavg_is_a_function_of_its_uploads(self):
        # Client 2 holds a row that is zero in every observed column, so its
        # response enters no upload: two samples that differ only there send
        # the same sums, and FedAvg, trace included, must not tell them apart.
        rng, d = seeded(560), 5
        clients = random_clients(rng, d, 4)
        blocks = {c.id: rng.standard_normal((int(rng.integers(2, 9)), c.pattern.size)) for c in clients}
        blocks[2][0] = 0.0
        y = rng.standard_normal(sum(len(x) for x in blocks.values()))
        other = y.copy()
        other[sum(len(blocks[c.id]) for c in clients if c.id < 2)] += 3.0
        first, second = Dataset(clients, blocks, y), Dataset(clients, blocks, other)
        assert list(first.uploads) == list(second.uploads) == [1, 2, 3, 4]
        for a, b in zip(first.uploads.values(), second.uploads.values()):
            assert a.count == b.count and _bytes_equal((a.sigma_sum, a.gamma_sum), (b.sigma_sum, b.gamma_sum))
        spec = ProtocolSpec(kind="fedavg_ridge", lam=0.3, rounds=20)
        got, want = (run_on(spec, data, ImputationMap()) for data in (first, second))
        assert got.comm.records == want.comm.records
        assert got.artifact.theta.tobytes() == want.artifact.theta.tobytes()
        assert (got.artifact.objective_trace, got.artifact.diverged, got.artifact.rounds_run) == (
            want.artifact.objective_trace, want.artifact.diverged, want.artifact.rounds_run)


class TestReplayMatchesRun:
    def test_across_protocol_grid(self):
        rng = seeded(509)
        for d in (1, 2, 5):
            for k in (1, 3):
                pop = random_population(rng, d)
                clients = random_clients(rng, d, k)
                data = sample_dataset(pop, clients, 40, rng)
                imputer = ImputationMap()
                senders = [c.pattern for c in clients if len(data.rows_of(c.id))]
                specs = [
                    ProtocolSpec(kind="one_shot_moments"),
                    ProtocolSpec(kind="federated_ice", ice_rounds=0),
                    ProtocolSpec(kind="federated_ice", ice_rounds=3),
                    ProtocolSpec(kind="one_shot_ridge", lam=0.1),
                    ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=4),
                ]
                for spec in specs:
                    res = run_on(spec, data, imputer)
                    pred = replay_comm_schedule(spec, senders)
                    assert res.comm.total_floats("up") == pred.up_floats, spec.kind
                    assert res.comm.total_floats("down") == pred.down_floats, spec.kind
                    assert res.comm.total_bits() == pred.registration_bits, spec.kind

    def test_fedavg_that_stops_early_replays_the_rounds_it_ran(self):
        # FedAvg diverges on this federation and stops after 10 of its 50
        # rounds; the log holds those 10 rounds of 2 + 2 floats each way,
        # and the schedule of the rounds run predicts exactly that.
        data, imputer = blow_up_federation()
        spec = ProtocolSpec(kind="fedavg_ridge", rounds=50, local_steps=3)
        res = run_on(spec, data, imputer)
        assert res.artifact.diverged and res.artifact.rounds_run == 10
        ran = replay_comm_schedule(replace(spec, rounds=res.artifact.rounds_run), [c.pattern for c in data.clients])
        got = (res.comm.total_floats("up"), res.comm.total_floats("down"), res.comm.total_bits())
        assert got == (ran.up_floats, ran.down_floats, ran.registration_bits) == (40, 40, 4)

    def test_replay_validation(self):
        # No sender, or senders whose patterns disagree on d, have no schedule.
        for kind in PROTOCOL_KINDS:
            with pytest.raises(ValueError, match="no senders"):
                replay_comm_schedule(ProtocolSpec(kind=kind), [])
            with pytest.raises(ValueError, match="disagree on d"):
                replay_comm_schedule(ProtocolSpec(kind=kind), [FeaturePattern.full(3), FeaturePattern.full(4)])


# The protocols each fitting method runs, in order; its row sums their logs.
_METHOD_PROTOCOLS = {
    "local": (),
    "plugin_debias": ("one_shot_moments",),
    "plugin_cw": ("one_shot_moments",),
    "itr_zero": ("one_shot_ridge",),
    "itr_opt": ("one_shot_ridge",),
    "itr_cw": ("one_shot_moments", "one_shot_ridge"),
    "itr_ice": ("federated_ice", "one_shot_ridge"),
    "fedavg": ("fedavg_ridge",),
}


def _context(pop, data, served, lam, params):
    """The ``cli._Context`` a work item builds from its sample ``data``."""
    return cli._Context(pop, data.clients, served, data.uploads, data.n, ridge.estimate_m(data), lam, params)


def _sparse_context(ice_rounds):
    pop, data = _sparse_federation(515)
    params = {"ice_rounds": ice_rounds, "rounds": 4, "local_steps": 1}
    return _context(pop, data, data.clients, 0.3, params)


def _method_totals(method, ctx):
    """(up, down, bits) of one method's row: its protocols' logs and the
    serving of its predictor."""
    fit = cli._METHOD_FITS[method](ctx)
    logs = cli._comm_logs(fit, ctx)
    up, down = (sum(log.total_floats(way) for log in logs) for way in ("up", "down"))
    return fit, (up, down, sum(log.total_bits() for log in logs))


def _replayed_totals(fit, ctx):
    """(up, down, bits) that ``replay_comm_schedule`` predicts for a method's
    protocols, each run in the session of the ones before it, plus what
    ``replay_serve`` predicts for serving its predictor to ``ctx.served``."""
    session = [r.spec for r in fit.protocols]
    senders = [c for c in ctx.clients if c.id in ctx.uploads]
    preds = [replay_comm_schedule(spec, [c.pattern for c in senders], session[:i]) for i, spec in enumerate(session)]
    if session:
        sizes = [c.pattern.size for c in ctx.served if c.id in fit.predictor.thetas]
        unregistered = sum(c not in senders for c in ctx.served)
        preds.append(replay_serve(session, ctx.pop.d, sizes, unregistered))
    return tuple(sum(getattr(p, f) for p in preds) for f in ("up_floats", "down_floats", "registration_bits"))


class TestMethodSessions:
    """A method is one server session: each sender registers once and uploads
    each statistic once, however many protocols the method runs."""

    @pytest.mark.parametrize("ice_rounds", [0, 2])
    @pytest.mark.parametrize("method", sorted(_METHOD_PROTOCOLS))
    def test_totals_equal_the_closed_form(self, method, ice_rounds):
        # Patterns {1,3}, {2,4}, {} and {2,3,4} (m = 2, 2, 0, 3); client 2
        # drew no rows, so it sends nothing. A full moment upload of the
        # other three is (m+1)(m+2)/2 = 6, 1, 10 floats and an ICE upload
        # tri(m) = 3, 0, 6. After ICE's Gram uploads the ridge needs only
        # [n_k][g_k], 1 + m = 3, 1, 4; after the moments it needs nothing.
        # Each of FedAvg's four rounds exchanges m = 2, 0, 3 floats each way.
        # Serving costs min(shared, 2 + 2 + 0 + 3 = 7) floats: the shared
        # model is tri(4) + 4 = 14 after a covariance fit (moments, or ICE at
        # T >= 1) and theta's 4 otherwise. Served one by one, client 2
        # registers its 4 bits first.
        assert set(_METHOD_PROTOCOLS) == set(cli._METHOD_FITS)
        ctx = _sparse_context(ice_rounds)
        fit, got = _method_totals(method, ctx)
        assert tuple(r.spec.kind for r in fit.protocols) == _METHOD_PROTOCOLS[method]
        assert got == _replayed_totals(fit, ctx)
        pinned = {
            "local": (0, 0, 0),
            "plugin_debias": (17, 7, 12 + 4),
            "plugin_cw": (17, 7, 12 + 4),
            "itr_zero": (17, 4, 12),
            "itr_opt": (17, 4, 12),
            "itr_cw": (17, 7, 12 + 4),
            "itr_ice": (9 + 8, 7, 12 + 4) if ice_rounds else (17, 4, 12),
            "fedavg": (4 * (2 + 0 + 3), 4 * (2 + 0 + 3) + 4, 12),
        }[method]
        assert got == pinned

    def test_itr_cw_leaves_the_shared_moments_log_alone(self):
        # plugin_cw and itr_cw share the work item's one moments run; the
        # ridge's session reads that log and appends to its own.
        ctx = _sparse_context(2)
        before = list(ctx.moments.comm.events)
        fit = cli._METHOD_FITS["itr_cw"](ctx)
        assert fit.protocols[0] is ctx.moments
        assert ctx.moments.comm.events == before
        assert fit.protocols[1].comm.events == []
        assert _method_totals("plugin_cw", ctx)[1] == (17, 7, 16)

    def test_ridge_after_ice_sends_counts_and_cross_moments(self):
        _, data = _sparse_federation(516)
        ice = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=1), data)
        alone = run_on(ProtocolSpec(kind="one_shot_ridge", lam=0.2), data, ice.artifact)
        joined = run_on(ProtocolSpec(kind="one_shot_ridge", lam=0.2), data, ice.artifact, [ice.spec])
        assert np.array_equal(joined.artifact, alone.artifact)
        assert [(e.round, e.direction, e.floats, e.bits) for e in joined.comm.events] == [
            (1, "up", 3, 0), (1, "up", 1, 0), (1, "up", 4, 0)]
        assert alone.comm.total_floats("up") == 17 and alone.comm.total_bits() == 12

    def test_fedavg_sends_the_same_in_any_session(self):
        # FedAvg reads only each sender's pattern; after the moments the
        # server holds it, so the same rounds go without registration.
        data, imputer = _completed(517)
        spec = ProtocolSpec(kind="fedavg_ridge", lam=0.2, rounds=3)
        moments = ProtocolSpec(kind="one_shot_moments")
        alone = run_on(spec, data, imputer)
        register = [e for e in alone.comm.events if e.round == 0]
        assert [(e.direction, e.floats, e.bits) for e in register] == [("up", 0, 4)] * 2
        assert run_on(spec, data, imputer, [moments]).comm.events == alone.comm.events[len(register):]
        patterns = [c.pattern for c in data.clients]
        joined, pred = replay_comm_schedule(spec, patterns, [moments]), replay_comm_schedule(spec, patterns)
        assert (joined.up_floats, joined.down_floats, joined.registration_bits) == (3 * (2 + 3), 3 * (2 + 3), 0)
        assert (pred.up_floats, pred.down_floats, pred.registration_bits) == (3 * (2 + 3), 3 * (2 + 3), 2 * 4)

    def test_moments_after_the_ridge_send_nothing(self):
        # Both protocols hear from the same senders, so the moments run
        # after the ridge finds every statistic it reads on the server, and
        # its pair stays there.
        _, data = _sparse_federation(518)
        ridge_spec, spec = ProtocolSpec(kind="one_shot_ridge", lam=0.2), ProtocolSpec(kind="one_shot_moments")
        res = run_on(spec, data, session=[ridge_spec])
        alone = run_on(spec, data)
        assert res.comm.events == []
        assert np.array_equal(res.artifact.pair.sigma, alone.artifact.pair.sigma)
        assert np.array_equal(res.artifact.counts, alone.artifact.counts)
        pred = replay_comm_schedule(spec, [c.pattern for c in data.clients if c.id != 2], [ridge_spec])
        assert (pred.up_floats, pred.down_floats, pred.registration_bits) == (0, 0, 0)


# The fitting methods that read the moment triple of every sender once.
_MOMENT_METHODS = ("plugin_debias", "plugin_cw", "itr_zero", "itr_opt", "itr_cw", "itr_ice")


class TestMethodInvariant:
    """On any federation, empty clients and empty patterns included, a
    method's totals are the replayed schedule of its protocols, and every
    moment-based method uploads each sender's triple exactly once."""

    @settings(max_examples=30, deadline=None)
    @given(_federations())
    def test_every_method_on_any_federation(self, drawn):
        data, rng = drawn
        pop = random_population(rng, data.d)
        senders = [c.pattern for c in data.clients if len(data.rows_of(c.id))]
        triples = sum((p.size + 1) * (p.size + 2) // 2 for p in senders)
        for ice_rounds in (0, 2):
            params = {"ice_rounds": ice_rounds, "rounds": 3, "local_steps": 1}
            ctx = _context(pop, data, data.clients, 0.3, params)
            for method in cli._METHOD_FITS:
                fit, got = _method_totals(method, ctx)
                assert got == _replayed_totals(fit, ctx), (method, ice_rounds)
                if method in _MOMENT_METHODS:
                    assert got[0] == triples, (method, ice_rounds)


def _served_events(method, ctx):
    """The fitted predictor and the (round, direction, floats, bits) events of its serving."""
    fit = cli._METHOD_FITS[method](ctx)
    return fit, [(e.round, e.direction, e.floats, e.bits) for e in cli._comm_logs(fit, ctx)[-1].events]


class TestServedDownlinks:
    """A federated method's row ends with one delivery of its predictor, in
    the smaller of two exact encodings: one broadcast of the shared model,
    or each served client's own |O_k| coefficients (a tie goes to the
    broadcast). The protocols themselves send nothing down but FedAvg's
    rounds."""

    @settings(max_examples=30, deadline=None)
    @given(_federations())
    def test_each_row_adds_the_smaller_encoding(self, drawn):
        data, rng = drawn
        pop, d = random_population(rng, data.d), data.d
        tri = d * (d + 1) // 2
        senders = [c for c in data.clients if len(data.rows_of(c.id))]
        for ice_rounds in (0, 2):
            ctx = _context(pop, data, data.clients, 0.3, {"ice_rounds": ice_rounds, "rounds": 3, "local_steps": 1})
            ice = tri + d if ice_rounds else d
            # The shared model: (Sigma_hat, gamma_hat) or (Sigma_hat, theta)
            # after a covariance fit, theta alone under a map the clients hold.
            shared = {"plugin_debias": tri + d, "plugin_cw": tri + d, "itr_zero": d, "itr_opt": d,
                      "itr_cw": tri + d, "itr_ice": ice, "fedavg": d}
            # Broadcasting every one-shot protocol's artifact: the moments'
            # pair, ICE's covariance estimate and the ridge's theta.
            artifacts = {"local": 0, "plugin_debias": tri + d, "plugin_cw": tri + d, "itr_zero": d,
                         "itr_opt": d, "itr_cw": tri + 2 * d, "itr_ice": ice}
            for method in cli._METHOD_FITS:
                fit = cli._METHOD_FITS[method](ctx)
                logs = cli._comm_logs(fit, ctx)
                down = sum(log.total_floats("down") for log in logs)
                if method == "local":
                    assert logs == [] and down == 0
                    continue
                fitting = sum(r.comm.total_floats("down") for r in fit.protocols)
                coefs = [c for c in ctx.served if c.id in fit.predictor.thetas]
                assert all(len(fit.predictor.thetas[c.id]) == c.pattern.size for c in coefs)
                unicast = sum(c.pattern.size for c in coefs)
                assert down == fitting + min(shared[method], unicast), (method, ice_rounds)
                events = [(e.direction, e.floats, e.bits) for e in logs[-1].events]
                if unicast < shared[method]:
                    register = [("up", 0, d)] * sum(c not in senders for c in ctx.served)
                    assert events == register + [("down", len(fit.predictor.thetas[c.id]), 0)
                                                 for c in coefs if c.pattern.size], method
                else:
                    assert events == [("down", shared[method], 0)], method
                if method != "fedavg":
                    assert down <= artifacts[method], (method, ice_rounds)

    def test_plugin_cw_sends_each_client_its_coefficients(self):
        # obs {1,3} and {2,3,4} on d = 4 hold 2 + 3 = 5 coefficients, fewer
        # than the tri(4) + 4 = 14 floats of the shared (Sigma_hat, gamma_hat).
        rng = seeded(519)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(4), 120, rng)
        ctx = _context(pop, data, data.clients, 0.0, {})
        fit, events = _served_events("plugin_cw", ctx)
        assert events == [(1, "down", 2, 0), (1, "down", 3, 0)]
        assert _method_totals("plugin_cw", ctx)[1] == (6 + 10, 2 + 3, 2 * 4)

    @pytest.mark.parametrize("method", ["plugin_debias", "plugin_cw"])
    def test_new_client_registers_and_receives_its_coefficients(self, method):
        # A probe new to the federation registers its 4 bits and is sent its
        # |{3,4}| = 2 coefficients. No client observes features 1 and 2
        # together, so a probe on {1,2} is unidentifiable: it registers and
        # receives nothing.
        rng = seeded(520)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(4), 120, rng)
        for observed, want in (([3, 4], [(0, "up", 0, 4), (1, "down", 2, 0)]), ([1, 2], [(0, "up", 0, 4)])):
            probe = ClientSpec(id=3, pattern=FeaturePattern.from_one_based(observed, 4), rho=1.0)
            ctx = _context(pop, data, (probe,), 0.0, {})
            fit, events = _served_events(method, ctx)
            assert events == want
            assert (probe.id in fit.predictor.unidentifiable) == (observed == [1, 2])

    def test_ties_go_to_the_broadcast(self):
        # theta is d = 4 floats. Clients on {1,3} and {2,4} hold 2 + 2 = 4
        # coefficients, a tie, so theta is broadcast. Served with a new
        # client on {3}, client 1's 2 and the new client's 1 go one by one,
        # and the new client registers its 4 bits first.
        d = 4
        clients = (ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 3], d), rho=0.5),
                   ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 4], d), rho=0.5))
        probe = ClientSpec(id=3, pattern=FeaturePattern.from_one_based([3], d), rho=1.0)
        data = _masked(521, d, 60, clients)
        predictor = ClientwisePredictor({c.id: np.zeros(c.pattern.size) for c in clients + (probe,)})
        ridge = [ProtocolSpec(kind="one_shot_ridge")]
        cases = ((clients, [(1, "down", 4, 0)], [2, 2], 0),
                 ((clients[0], probe), [(0, "up", 0, 4), (1, "down", 2, 0), (1, "down", 1, 0)], [2, 1], 1))
        for served, want, sizes, unregistered in cases:
            log = serve_predictor(predictor, served, data.uploads, ridge)
            assert [(e.round, e.direction, e.floats, e.bits) for e in log.events] == want
            pred = replay_serve(ridge, d, sizes, unregistered)
            assert (pred.up_floats, pred.down_floats, pred.registration_bits) == (
                log.total_floats("up"), log.total_floats("down"), log.total_bits())


class TestPinnedTotals:
    def test_one_shot_moments_k3_d4(self):
        # Patterns with m = 4, 3, 2 observed features upload count + tri(m)
        # + m = 15, 10 and 6 floats: 31 up; nothing down, 3 * 4
        # registration bits.
        clients = random_clients(seeded(510), 4, 3)
        assert [c.pattern.one_based() for c in clients] == [(1, 2, 3, 4), (2, 3, 4), (3, 4)]
        data = _masked(510, 4, 90, clients)
        res = run_on(ProtocolSpec(kind="one_shot_moments"), data)
        assert res.comm.total_floats("up") == 31
        assert res.comm.total_floats("down") == 0
        assert res.comm.total_bits("up") == 12

    def test_fedavg_k2_d5_seven_rounds(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(5), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(5), rho=0.5),
        )
        data = _completed(511, 5, 60, clients)
        res = run_on(ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=7), *data)
        assert res.comm.total_floats("up") == 7 * 2 * 5
        assert res.comm.total_floats("down") == 7 * 2 * 5

    def test_fedavg_comm_per_round(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(3), rho=0.5),
        )
        data = from_filled(
            clients=clients,
            client_ids=np.array([1, 1, 1, 2, 2, 2]),
            x_filled=np.vstack([np.eye(3), np.eye(3)]),
            y=np.ones(6),
        )
        res = run_on(ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=7), data, ImputationMap())
        assert res.comm.total_floats("up") == 7 * 2 * 3
        assert res.comm.total_floats("down") == 7 * 2 * 3

    def test_ice_comm_totals(self):
        # Every client uploads its observed Gram once, tri(2) = 3 and
        # tri(3) = 6 floats for obs {1,3} and {2,3,4}: 3 + 6 up for all T
        # rounds, and nothing down.
        rng = seeded(213)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 40, rng)
        res = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        assert res.comm.total_floats("up") == 3 + 6
        assert res.comm.total_floats("down") == 0

    def test_ice_round_totals(self):
        # Three refinement rounds are one upload: registration in round 0,
        # the Gram uploads in round 1, and the estimate stays on the server.
        data = _masked(512, 4, 50)
        res = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=3), data)
        assert res.comm.total_floats("down") == 0
        assert res.comm.total_floats("up") == 3 + 6
        assert sorted({e.round for e in res.comm.events}) == [0, 1]

    def test_ice_zero_rounds_only_registers(self):
        data = _masked(513, 4, 50)
        res = run_on(ProtocolSpec(kind="federated_ice", ice_rounds=0), data)
        assert res.comm.total_floats() == 0
        assert res.comm.total_bits() == 2 * 4
        assert np.array_equal(completed_rows(data, res.artifact), x_filled(data))


class TestLogFootprint:
    K, R, D = 2000, 50, 4
    # c in the c * (R + K) bound on the log's retained and peak bytes: the
    # call peaks near 20 * (R + K), and a rebuild of the senders' K-entry
    # mapping inside it would take it past 50 * (R + K).
    BYTES_PER_UNIT = 32

    def test_fedavg_log_grows_with_rounds_plus_senders(self, monkeypatch):
        """One record per round and direction sharing the senders' sizes: a
        FedAvg log retains O(R + K) bytes, where one object per message would
        retain O(R * K). FedAvg is stubbed, so only the logging is traced."""
        rng = seeded(530)
        clients = random_clients(rng, self.D, self.K, nonempty=False)
        data = Dataset(clients, {c.id: rng.standard_normal((1, c.pattern.size)) for c in clients},
                       rng.standard_normal(self.K))
        stub = ridge.FedAvgResult(np.zeros(self.D), (), False, self.R)
        monkeypatch.setattr(fedsim, "fedavg_ridge", lambda *args, **kwargs: stub)
        spec, imputer = ProtocolSpec(kind="fedavg_ridge", rounds=self.R), ImputationMap()
        observing = sum(1 for c in clients if c.pattern.size)
        assert 0 < observing < self.K
        uploads = data.uploads  # the senders' sums exist before the run, which reads them
        assert len(uploads) == self.K
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = run_protocol(spec, uploads, imputer)
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert res.artifact is stub
        bound = self.BYTES_PER_UNIT * (self.R + self.K)
        assert retained < bound and peak < bound, (retained, peak, bound)
        assert len(res.comm) == self.K + 2 * self.R * observing
        assert res.comm.total_bits() == self.K * self.D
        assert res.comm.total_floats("up") == res.comm.total_floats("down") == self.R * sum(
            c.pattern.size for c in clients)


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
        # The completed-data protocols need an imputer beside the uploads.
        masked = _masked(514)
        for kind in ("one_shot_ridge", "fedavg_ridge"):
            with pytest.raises(TypeError, match="needs an ImputationMap"):
                run_on(ProtocolSpec(kind=kind), masked)
