import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmismatch.model import ClientSpec, FeaturePattern, LocalMoments
from fedmismatch.popgen import PopulationSpec, draw_bernoulli_patterns, sample_dataset
from fedmismatch.moments import (
    aggregate_zero_imputed,
    co_observation,
    cw_moments,
    debias_moments,
    imputed_data_moments,
    local_zero_imputed_moments,
)
from fedmismatch.impute import ImputationMap

from support import from_filled, sample_counts, seeded, x_filled
from test_popgen import section3_clients


class TestLocalMoments:
    def test_single_sample(self):
        lm = local_zero_imputed_moments(
            np.array([[2.0]]), np.array([3.0]), FeaturePattern.from_one_based([1], 2)
        )
        np.testing.assert_array_equal(lm.sigma, [[4.0]])
        np.testing.assert_array_equal(lm.gamma, [6.0])
        np.testing.assert_array_equal(lm.sigma_sum, [[4.0]])
        np.testing.assert_array_equal(lm.gamma_sum, [6.0])
        assert lm.pattern == FeaturePattern.from_one_based([1], 2)
        assert lm.count == 1

    def test_full_pattern_mc(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        ds = sample_dataset(pop, clients, 100_000, seeded(0))
        lm = local_zero_imputed_moments(ds.x_obs_of(1), ds.y_of(1), clients[0].pattern)
        assert np.max(np.abs(lm.sigma - np.eye(2))) <= 0.02

    def test_zero_samples(self):
        lm = local_zero_imputed_moments(np.zeros((0, 1)), np.zeros(0), FeaturePattern.from_one_based([2], 3))
        assert lm.count == 0
        assert np.all(lm.sigma == 0.0) and np.all(lm.gamma == 0.0)

    def test_symmetric_sums(self):
        rng = seeded(1)
        x = rng.standard_normal((40, 3))
        lm = local_zero_imputed_moments(x, rng.standard_normal(40), FeaturePattern.full(3))
        # symmetrized at the source: the array, not just its values, is symmetric
        assert np.array_equal(lm.sigma_sum, lm.sigma_sum.T)


class TestAggregate:
    def test_single_client_identity(self):
        lm = local_zero_imputed_moments(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]),
                                        FeaturePattern.from_one_based([1], 1))
        pair = aggregate_zero_imputed([lm])
        np.testing.assert_allclose(pair.sigma, lm.sigma)

    def test_equal_counts_average(self):
        p = FeaturePattern.full(1)
        a = local_zero_imputed_moments(np.array([[2.0]]), np.array([0.0]), p)
        b = local_zero_imputed_moments(np.array([[4.0]]), np.array([0.0]), p)
        pair = aggregate_zero_imputed([a, b])
        assert pair.sigma[0, 0] == pytest.approx((4.0 + 16.0) / 2)

    def test_sharding_invariance(self):
        # pooling is by summed sufficient statistics, so shard boundaries cannot matter
        rng = seeded(2)
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        p = FeaturePattern.full(2)
        whole = aggregate_zero_imputed([local_zero_imputed_moments(x, y, p)])
        split = aggregate_zero_imputed(
            [local_zero_imputed_moments(x[:11], y[:11], p), local_zero_imputed_moments(x[11:], y[11:], p)]
        )
        np.testing.assert_allclose(whole.sigma, split.sigma, atol=1e-15)
        np.testing.assert_allclose(whole.gamma, split.gamma, atol=1e-15)

    def test_folding_retains_no_memory_per_pattern(self):
        # Each scatter builds its pattern's flat |O|^2 index and drops it, so
        # after folding 30 distinct d = 256 patterns (tau 0.7, ~250 kB of
        # index each) the fold has retained less than one such index.
        rng = seeded(60)
        patterns = draw_bernoulli_patterns(30, 256, 0.7, rng)
        locals_ = [LocalMoments(np.eye(p.size), np.ones(p.size), 1, p) for p in patterns]
        one_index = min(p.size for p in patterns) ** 2 * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pair = aggregate_zero_imputed(locals_)
            del pair
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(set(patterns)) == 30
        assert retained < one_index

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_zero_imputed([])

    def test_unbiasedness_small_mc(self):
        # E[zero-imputed sigma] = Pi . sigma; 2000 replicates at 3 stderr
        pop = PopulationSpec.gaussian(np.array([[1.0, 0.3], [0.3, 1.0]]), np.array([1.0, -1.0]))
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 2], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 2), rho=0.5),
        )
        target = co_observation([c.pattern for c in clients], [c.rho for c in clients]) * pop.sigma
        rng = seeded(3)
        reps = 2000
        acc = np.zeros((2, 2))
        acc2 = np.zeros((2, 2))
        for _ in range(reps):
            ds = sample_dataset(pop, clients, 25, rng)
            s = aggregate_zero_imputed(ds.uploads.values()).sigma
            acc += s
            acc2 += s * s
        mean = acc / reps
        stderr = np.sqrt((acc2 / reps - mean**2) / reps)
        assert np.all(np.abs(mean - target) <= 3 * stderr + 1e-12)


class TestEmpiricalCoobservation:
    def test_all_full(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        ds = sample_dataset(pop, clients, 10, seeded(4))
        counts = sample_counts(ds)
        np.testing.assert_array_equal(counts, np.full((2, 2), 10.0))
        np.testing.assert_array_equal(counts / ds.n, np.ones((2, 2)))

    def test_section3_balanced_counts(self):
        # with n1 = n2 = 500 forced, Pi_hat[1,3] = 0.5 exactly
        clients = section3_clients()
        n = 1000
        ids = np.array([1] * 500 + [2] * 500)
        ds = from_filled(clients=clients, client_ids=ids, x_filled=np.zeros((n, 4)), y=np.zeros(n))
        counts = sample_counts(ds)
        assert counts.dtype == np.float64
        assert counts[0, 2] / ds.n == 0.5
        assert counts[0, 2] == 500
        # the same integers as the int64 sum of n_k m_k m_k^T
        masks = [c.pattern.mask().astype(np.int64) for c in clients]
        assert np.array_equal(counts, 500 * np.outer(masks[0], masks[0]) + 500 * np.outer(masks[1], masks[1]))

    def test_single_sample_single_feature(self):
        # client 2 observes both features but drew no rows: weight n_2 = 0
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([2], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        ds = from_filled(clients=clients, client_ids=np.array([1]), x_filled=np.zeros((1, 2)), y=np.zeros(1))
        np.testing.assert_array_equal(sample_counts(ds) / ds.n, [[0.0, 0.0], [0.0, 1.0]])


class TestDebias:
    def test_complete_data_identity(self):
        rng = seeded(5)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        pair = aggregate_zero_imputed([local_zero_imputed_moments(x, y, FeaturePattern.full(2))])
        out = debias_moments(pair, np.ones((2, 2)))
        np.testing.assert_array_equal(out.sigma, pair.sigma)
        np.testing.assert_array_equal(out.gamma, pair.gamma)

    def test_entry_division(self):
        from fedmismatch.model import MomentPair

        sigma = np.zeros((2, 2))
        sigma[0, 1] = sigma[1, 0] = 0.2
        pair = MomentPair(sigma, np.zeros(2))
        pi = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert debias_moments(pair, pi).sigma[0, 1] == pytest.approx(0.4)

    def test_uncovered_marked(self):
        from fedmismatch.model import MomentPair

        pair = MomentPair(np.eye(2), np.ones(2))
        pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = debias_moments(pair, pi)
        assert out.sigma[0, 1] == 0.0
        assert not out.coverage[0, 1]
        assert out.coverage[0, 0]

    def test_unbiased_toward_sigma_mc(self):
        pop = PopulationSpec.gaussian(np.array([[1.0, 0.4], [0.4, 1.0]]), np.array([0.5, 0.5]))
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.6),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([1], 2), rho=0.4),
        )
        pi = co_observation([c.pattern for c in clients], [c.rho for c in clients])
        rng = seeded(6)
        reps = 2000
        acc = np.zeros((2, 2))
        acc2 = np.zeros((2, 2))
        for _ in range(reps):
            ds = sample_dataset(pop, clients, 30, rng)
            s = debias_moments(aggregate_zero_imputed(ds.uploads.values()), pi).sigma
            acc += s
            acc2 += s * s
        mean = acc / reps
        stderr = np.sqrt((acc2 / reps - mean**2) / reps)
        assert np.all(np.abs(mean - pop.sigma) <= 3 * stderr + 1e-12)


class TestComponentWise:
    def test_complete_data_equals_plain_moments(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.ones(2))
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        ds = sample_dataset(pop, clients, 60, seeded(7))
        pair = aggregate_zero_imputed(ds.uploads.values())
        cw = cw_moments(pair, sample_counts(ds), ds.n)
        np.testing.assert_allclose(cw.sigma, pair.sigma, atol=1e-14)
        np.testing.assert_allclose(cw.gamma, pair.gamma, atol=1e-14)

    def test_zero_count_flagged(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 2), rho=0.5),
        )
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        ds = sample_dataset(pop, clients, 40, seeded(8))
        pair = aggregate_zero_imputed(ds.uploads.values())
        cw = cw_moments(pair, sample_counts(ds), ds.n)
        assert cw.sigma[0, 1] == 0.0
        assert not cw.coverage[0, 1]

    def test_entry_equals_direct_resummation(self):
        # each covered entry is the average over rows observing both features
        pop = PopulationSpec.gaussian(np.eye(3) * 1.0, np.ones(3))
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 2], 3), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 3], 3), rho=0.5),
        )
        ds = sample_dataset(pop, clients, 80, seeded(9))
        pair = aggregate_zero_imputed(ds.uploads.values())
        cw = cw_moments(pair, sample_counts(ds), ds.n)
        row_masks = [c.pattern.mask() for c in ds.clients for _ in ds.rows_of(c.id)]
        assert len(row_masks) == ds.n
        x = x_filled(ds)
        for l in range(3):
            for j in range(3):
                rows = [i for i in range(ds.n) if row_masks[i][l] and row_masks[i][j]]
                if not rows:
                    assert cw.sigma[l, j] == 0.0
                    continue
                direct = np.mean([x[i, l] * x[i, j] for i in rows])
                assert cw.sigma[l, j] == pytest.approx(direct, abs=1e-12)


class TestImputedDataMoments:
    def test_matches_plain_average(self):
        rng = seeded(10)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        ids = rng.integers(1, 4, size=40)
        clients = tuple(ClientSpec(id=k, pattern=FeaturePattern.full(3), rho=1 / 3) for k in (1, 2, 3))
        data = from_filled(clients=clients, client_ids=ids, x_filled=x, y=y)
        pair = imputed_data_moments(data.uploads, ImputationMap())
        np.testing.assert_allclose(pair.sigma, x.T @ x / 40, atol=1e-13)
        np.testing.assert_allclose(pair.gamma, x.T @ y / 40, atol=1e-13)

    def test_no_rows_rejected(self):
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        empty = from_filled(clients=clients, client_ids=np.zeros(0), x_filled=np.zeros((0, 2)), y=np.zeros(0))
        with pytest.raises(ValueError):
            imputed_data_moments(empty.uploads, ImputationMap())

