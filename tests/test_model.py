import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedmismatch.model import (
    ClientSpec,
    ClientwisePredictor,
    CommLog,
    Dataset,
    FeaturePattern,
    MomentPair,
    crop_matrix,
    crop_vector,
    validate_federation,
)

from support import from_filled, x_filled


class TestFeaturePattern:
    def test_one_based_roundtrip(self):
        p = FeaturePattern.from_one_based([1, 3], 4)
        assert p.observed == (0, 2)
        assert p.one_based() == (1, 3)
        assert p.missing == (1, 3)
        assert p.size == 2

    def test_full_and_empty(self):
        assert not FeaturePattern.empty(3).observed
        assert FeaturePattern.full(3).missing == ()
        assert FeaturePattern.empty(3).missing == (0, 1, 2)

    def test_mask(self):
        m = FeaturePattern.from_one_based([2], 3).mask()
        assert m.dtype == bool
        assert m.tolist() == [False, True, False]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            FeaturePattern((0, 0), 3)
        with pytest.raises(ValueError):
            FeaturePattern((2, 1), 3)
        with pytest.raises(ValueError):
            FeaturePattern((3,), 3)
        with pytest.raises(ValueError):
            FeaturePattern((), 0)

    @given(st.integers(1, 10), st.data())
    def test_observed_and_missing_partition(self, d, data):
        obs = data.draw(st.sets(st.integers(0, d - 1)))
        p = FeaturePattern(tuple(sorted(obs)), d)
        assert sorted(p.observed + p.missing) == list(range(d))

    def test_missing_computed_once_and_not_compared(self):
        p, q = FeaturePattern((0, 2), 4), FeaturePattern((0, 2), 4)
        assert p.missing is p.missing == (1, 3)
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1


class TestCropOps:
    def test_crop_vector_examples(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(crop_vector(v, FeaturePattern.from_one_based([1, 3], 4)), [1.0, 3.0])
        np.testing.assert_array_equal(
            crop_vector(np.array([5.0, 6.0]), FeaturePattern.full(2)), [5.0, 6.0]
        )
        assert crop_vector(np.array([7.0, 8.0, 9.0]), FeaturePattern.empty(3)).shape == (0,)

    def test_crop_matrix_examples(self):
        p = FeaturePattern.from_one_based([1, 3], 4)
        np.testing.assert_array_equal(crop_matrix(np.eye(4), p, p), np.eye(2))
        a = np.eye(2)
        a[0, 1] = 0.5
        got = crop_matrix(a, FeaturePattern.from_one_based([1], 2), FeaturePattern.from_one_based([2], 2))
        np.testing.assert_array_equal(got, [[0.5]])
        empty = crop_matrix(np.eye(2), FeaturePattern.from_one_based([1], 2), FeaturePattern.empty(2))
        assert empty.shape == (1, 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            crop_vector(np.zeros(3), FeaturePattern.full(2))
        with pytest.raises(ValueError):
            crop_matrix(np.zeros((2, 3)), FeaturePattern.full(2), FeaturePattern.full(2))

    @given(st.integers(1, 8), st.data())
    def test_crop_embeds_back(self, d, data):
        obs = sorted(data.draw(st.sets(st.integers(0, d - 1), min_size=1)))
        p = FeaturePattern(tuple(obs), d)
        rng = np.random.default_rng(d)
        v = rng.standard_normal(d)
        a = rng.standard_normal((d, d))
        np.testing.assert_array_equal(crop_vector(v, p), v[obs])
        np.testing.assert_array_equal(crop_matrix(a, p, p), a[np.ix_(obs, obs)])


def _two_clients(d=4):
    return (
        ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 3], d), rho=0.5),
        ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 3, 4], d), rho=0.5),
    )


class TestFederation:
    def test_validate_returns_tuple(self):
        out = validate_federation(list(_two_clients()))
        assert isinstance(out, tuple) and len(out) == 2

    def test_duplicate_ids(self):
        c = _two_clients()
        with pytest.raises(ValueError, match="duplicate"):
            validate_federation((c[0], ClientSpec(id=1, pattern=c[1].pattern, rho=0.5)))

    def test_shares_must_sum_to_one(self):
        c1, c2 = _two_clients()
        with pytest.raises(ValueError, match="sum to 1"):
            validate_federation((c1, ClientSpec(id=2, pattern=c2.pattern, rho=0.4)))

    def test_rho_range(self):
        with pytest.raises(ValueError):
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.0)
        with pytest.raises(ValueError):
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.5)

    def test_dimension_agreement(self):
        a = ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.5)
        b = ClientSpec(id=2, pattern=FeaturePattern.full(3), rho=0.5)
        with pytest.raises(ValueError, match="dimension"):
            validate_federation((a, b))


class TestDataset:
    def _data(self):
        """Client 1 owns rows 0-1 and client 2 rows 2-3, in ``clients`` order."""
        return Dataset(
            clients=_two_clients(),
            x_obs={1: np.array([[1.0, 2.0], [9.0, 10.0]]), 2: np.array([[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])},
            y=np.array([0.1, 0.4, 0.2, 0.3]),
        )

    def test_accessors(self):
        ds = self._data()
        assert ds.n == 4 and ds.d == 4
        assert ds.rows_of(2) == range(2, 4)
        np.testing.assert_array_equal(ds.x_obs_of(1), [[1.0, 2.0], [9.0, 10.0]])
        np.testing.assert_array_equal(ds.y_of(2), [0.2, 0.3])

    def test_rows_tile_the_sample_in_clients_order(self):
        # clients declared out of id order, client 9 drew no rows
        clients = (
            ClientSpec(id=5, pattern=FeaturePattern.from_one_based([1, 3], 3), rho=0.4),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 3), rho=0.4),
            ClientSpec(id=9, pattern=FeaturePattern.full(3), rho=0.2),
        )
        rng = np.random.default_rng(0)
        ds = Dataset(clients, {5: rng.standard_normal((4, 2)), 2: rng.standard_normal((3, 1))}, rng.standard_normal(7))
        assert [ds.rows_of(c.id) for c in clients] == [range(0, 4), range(4, 7), range(7, 7)]
        assert list(ds.x_obs) == [5, 2, 9]
        for c in clients:
            rows, y_k = ds.rows_of(c.id), ds.y_of(c.id)
            assert len(ds.x_obs_of(c.id)) == len(rows)
            assert y_k.tobytes() == ds.y[rows].tobytes()
            assert np.shares_memory(y_k, ds.y) == bool(len(rows))
            assert not y_k.flags.writeable
        with pytest.raises(ValueError):
            ds.y[:] = 0
        for accessor in (ds.rows_of, ds.x_obs_of, ds.y_of, ds.client_by_id):
            with pytest.raises(KeyError):
                accessor(7)

    def test_index_matches_row_scan(self):
        # interleaved ids, clients declared out of id order, client 9 drew no rows
        clients = (
            ClientSpec(id=5, pattern=FeaturePattern.from_one_based([1, 3], 3), rho=0.4),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 3), rho=0.4),
            ClientSpec(id=9, pattern=FeaturePattern.full(3), rho=0.2),
        )
        ids = np.array([5, 2, 2, 5, 2, 5, 5])
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((7, 3)), rng.standard_normal(7)
        ds = from_filled(clients=clients, client_ids=ids, x_filled=x, y=y)
        filled = x_filled(ds)
        for c in clients:
            scan, rows = np.flatnonzero(ids == c.id), ds.rows_of(c.id)
            np.testing.assert_array_equal(ds.x_obs_of(c.id), x[np.ix_(scan, list(c.pattern.observed))])
            np.testing.assert_array_equal(ds.y_of(c.id), y[scan])
            np.testing.assert_array_equal(filled[rows][:, list(c.pattern.observed)], ds.x_obs_of(c.id))
            np.testing.assert_array_equal(filled[rows][:, list(c.pattern.missing)], 0.0)

    def test_unknown_client_rows_rejected(self):
        clients = _two_clients()
        with pytest.raises(ValueError, match="unknown client"):
            Dataset(clients=clients, x_obs={7: np.zeros((1, 1))}, y=np.zeros(1))
        with pytest.raises(ValueError, match="unknown client"):
            from_filled(clients=clients, client_ids=np.array([7]), x_filled=np.zeros((1, 4)), y=np.zeros(1))

    def test_row_count_mismatch(self):
        clients = _two_clients()
        block = {1: np.zeros((1, 2))}
        for n in (0, 2):
            with pytest.raises(ValueError, match="responses"):
                Dataset(clients=clients, x_obs=block, y=np.zeros(n))
        with pytest.raises(ValueError, match="responses"):
            Dataset(clients=clients, x_obs=block, y=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            from_filled(clients=clients, client_ids=np.array([1, 2]), x_filled=np.zeros((1, 4)), y=np.zeros(1))

    def test_stores_one_read_only_block_per_client(self):
        ds = self._data()
        assert list(ds.x_obs) == [1, 2]
        for c in ds.clients:
            block = ds.x_obs_of(c.id)
            assert block is ds.x_obs[c.id]
            assert block.flags.c_contiguous and not block.flags.writeable
        again = Dataset(clients=ds.clients, x_obs=ds.x_obs, y=ds.y)
        assert x_filled(again).tobytes() == x_filled(ds).tobytes()
        np.testing.assert_array_equal(x_filled(ds)[2], [0.0, 3.0, 4.0, 5.0])

    def test_blocks_checked_against_rows_and_patterns(self):
        clients = _two_clients()
        good = {1: np.zeros((1, 2)), 2: np.zeros((2, 3))}
        # a client without a block drew no rows and gets a (0, |O_k|) one
        empty = Dataset(clients=clients, x_obs={2: good[2]}, y=np.zeros(2)).x_obs_of(1)
        assert empty.shape == (0, 2) and not empty.flags.writeable
        assert Dataset(clients=clients, x_obs={}, y=np.zeros(0)).n == 0
        for blocks in ({**good, 2: np.zeros((2, 4))}, {**good, 1: np.zeros(2)}, {**good, 1: np.zeros((1, 1, 2))}):
            with pytest.raises(ValueError, match="observed block"):
                Dataset(clients=clients, x_obs=blocks, y=np.zeros(3))
        with pytest.raises(ValueError, match="unknown client"):
            Dataset(clients=clients, x_obs={**good, 7: np.zeros((0, 1))}, y=np.zeros(3))
        # y holds one response per block row
        with pytest.raises(ValueError, match="the 3 responses"):
            Dataset(clients=clients, x_obs=good, y=np.zeros(2))


class TestMomentPair:
    def test_symmetrizes(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        mp = MomentPair(a, np.zeros(2))
        np.testing.assert_array_equal(mp.sigma, mp.sigma.T)
        assert mp.sigma[0, 1] == 1.0

    def test_coverage_and_covers(self):
        cov = np.array([[True, False], [False, True]])
        mp = MomentPair(np.eye(2), np.zeros(2), coverage=cov)
        assert mp.covers(FeaturePattern.from_one_based([1], 2))
        assert not mp.covers(FeaturePattern.full(2))
        assert mp.covers(FeaturePattern.empty(2))

    def test_no_coverage_means_full(self):
        mp = MomentPair(np.eye(2), np.zeros(2))
        assert mp.covers(FeaturePattern.full(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            MomentPair(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            MomentPair(np.eye(2), np.zeros(3))


class TestClientwisePredictor:
    def test_predict_and_clip(self):
        pred = ClientwisePredictor(thetas={1: np.array([2.0])}, trunc_m=1.0)
        assert pred.predict_many(1, np.array([[0.3]])) == pytest.approx([0.6])
        assert pred.predict_many(1, np.array([[5.0]])).tolist() == [1.0]
        assert pred.predict_many(1, np.array([[-5.0]])).tolist() == [-1.0]

    def test_unknown_and_unidentifiable(self):
        pred = ClientwisePredictor(thetas={1: np.zeros(1)}, unidentifiable=frozenset({9}))
        with pytest.raises(KeyError):
            pred.predict_many(3, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="unidentifiable"):
            pred.predict_many(9, np.zeros((1, 1)))

    def test_block_shape_check(self):
        pred = ClientwisePredictor(thetas={1: np.zeros(2)})
        with pytest.raises(ValueError):
            pred.predict_many(1, np.zeros((3, 1)))


_BATCHES = st.lists(st.tuples(st.integers(0, 300), st.sampled_from(["up", "down"]),
                              st.lists(st.integers(0, 400), max_size=6), st.integers(0, 64)), max_size=8)


class TestCommLog:
    def test_totals_by_direction(self):
        log = CommLog()
        log.record(0, "up", [0], bits=4)
        log.record(1, "up", [10])
        log.record(1, "down", [7])
        assert log.total_floats("up") == 10
        assert log.total_floats("down") == 7
        assert log.total_floats() == 17
        assert log.total_bits() == 4
        assert len(log) == 3

    def test_direction_validated(self):
        log = CommLog()
        with pytest.raises(ValueError):
            log.record(0, "sideways", [1])

    @given(_BATCHES)
    def test_batches_read_as_their_messages(self, batches):
        """A batch logs one message per size, in order; every reading equals
        that of the per-message list."""
        log = CommLog()
        for round_, direction, sizes, bits in batches:
            log.record(round_, direction, sizes, bits=bits)
        want = [(t, d, m, b) for t, d, sizes, b in batches for m in sizes]
        assert [(e.round, e.direction, e.floats, e.bits) for e in log.events] == want
        assert len(log) == len(want)
        for direction in (None, "up", "down"):
            kept = [e for e in want if direction in (None, e[1])]
            assert log.total_floats(direction) == sum(e[2] for e in kept)
            assert log.total_bits(direction) == sum(e[3] for e in kept)

    @given(_BATCHES, st.lists(st.integers(0, 400), min_size=1, max_size=6), st.data())
    def test_a_bad_batch_raises_and_logs_nothing(self, batches, sizes, data):
        log = CommLog()
        for round_, direction, batch, bits in batches:
            log.record(round_, direction, batch, bits=bits)
        before = log.events
        sizes[data.draw(st.integers(0, len(sizes) - 1))] = data.draw(st.integers(-400, -1))
        with pytest.raises(ValueError):
            log.record(1, "up", sizes)
        with pytest.raises(ValueError):
            log.record(1, data.draw(st.sampled_from(["sideways", "UP", ""])), [])
        with pytest.raises(ValueError):
            log.record(1, "down", [], bits=-1)
        assert log.events == before
