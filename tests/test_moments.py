import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedmismatch import (
    ClientSpec,
    FeaturePattern,
    PopulationSpec,
    aggregate_zero_imputed,
    co_observation_matrix,
    cw_moments,
    debias_moments,
    empirical_coobservation,
    local_zero_imputed_moments,
    sample_dataset,
)
from fedmismatch.model import Provenance
from fedmismatch.impute import apply_imputer, fit_zero_imputer
from fedmismatch.model import Dataset
from fedmismatch.moments import imputed_data_moments

from support import seeded
from test_popgen import section3_clients


class TestLocalMoments:
    def test_single_sample(self):
        lm = local_zero_imputed_moments(
            np.array([[2.0]]), np.array([3.0]), FeaturePattern.from_one_based([1], 2)
        )
        np.testing.assert_array_equal(lm.sigma, [[4.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(lm.gamma, [6.0, 0.0])
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
        assert pair.provenance is Provenance.ZERO_IMPUTED

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
        target = co_observation_matrix(clients) * pop.sigma
        rng = seeded(3)
        reps = 2000
        acc = np.zeros((2, 2))
        acc2 = np.zeros((2, 2))
        for _ in range(reps):
            ds = sample_dataset(pop, clients, 25, rng)
            s = aggregate_zero_imputed(ds.local_moments).sigma
            acc += s
            acc2 += s * s
        mean = acc / reps
        stderr = np.sqrt((acc2 / reps - mean**2) / reps)
        assert np.all(np.abs(mean - target) <= 3 * stderr + 1e-12)


class TestEmpiricalCoobservation:
    def test_all_full(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        pi_hat, counts = empirical_coobservation(sample_dataset(pop, clients, 10, seeded(4)))
        np.testing.assert_array_equal(pi_hat, np.ones((2, 2)))
        assert counts.n == 10

    def test_section3_balanced_counts(self):
        # with n1 = n2 = 500 forced, Pi_hat[1,3] = 0.5 exactly
        clients = section3_clients()
        n = 1000
        ids = np.array([1] * 500 + [2] * 500)
        from fedmismatch.model import Dataset

        ds = Dataset(clients=clients, client_ids=ids, x_filled=np.zeros((n, 4)), y=np.zeros(n))
        pi_hat, counts = empirical_coobservation(ds)
        assert pi_hat[0, 2] == 0.5
        assert counts.counts[0, 2] == 500

    def test_single_sample_single_feature(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([2], 2), rho=1.0),
        )
        from fedmismatch.model import Dataset

        ds = Dataset(clients=clients, client_ids=np.array([1]), x_filled=np.zeros((1, 2)), y=np.zeros(1))
        pi_hat, _ = empirical_coobservation(ds)
        np.testing.assert_array_equal(pi_hat, [[0.0, 0.0], [0.0, 1.0]])


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
        pair = MomentPair(sigma, np.zeros(2), Provenance.ZERO_IMPUTED)
        pi = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert debias_moments(pair, pi).sigma[0, 1] == pytest.approx(0.4)

    def test_uncovered_marked(self):
        from fedmismatch.model import MomentPair

        pair = MomentPair(np.eye(2), np.ones(2), Provenance.ZERO_IMPUTED)
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
        pi = co_observation_matrix(clients)
        rng = seeded(6)
        reps = 2000
        acc = np.zeros((2, 2))
        acc2 = np.zeros((2, 2))
        for _ in range(reps):
            ds = sample_dataset(pop, clients, 30, rng)
            s = debias_moments(aggregate_zero_imputed(ds.local_moments), pi).sigma
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
        pair = aggregate_zero_imputed(ds.local_moments)
        _, counts = empirical_coobservation(ds)
        cw = cw_moments(pair, counts)
        np.testing.assert_allclose(cw.sigma, pair.sigma, atol=1e-14)
        np.testing.assert_allclose(cw.gamma, pair.gamma, atol=1e-14)

    def test_zero_count_flagged(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 2), rho=0.5),
        )
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        ds = sample_dataset(pop, clients, 40, seeded(8))
        pair = aggregate_zero_imputed(ds.local_moments)
        _, counts = empirical_coobservation(ds)
        cw = cw_moments(pair, counts)
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
        pair = aggregate_zero_imputed(ds.local_moments)
        _, counts = empirical_coobservation(ds)
        cw = cw_moments(pair, counts)
        masks = {c.id: c.pattern.mask() for c in clients}
        for l in range(3):
            for j in range(3):
                rows = [
                    i
                    for i in range(ds.n)
                    if masks[int(ds.client_ids[i])][l] and masks[int(ds.client_ids[i])][j]
                ]
                if not rows:
                    assert cw.sigma[l, j] == 0.0
                    continue
                direct = np.mean([ds.x_filled[i, l] * ds.x_filled[i, j] for i in rows])
                assert cw.sigma[l, j] == pytest.approx(direct, abs=1e-12)


class TestImputedDataMoments:
    def test_matches_plain_average(self):
        rng = seeded(10)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        ids = rng.integers(1, 4, size=40)
        clients = tuple(ClientSpec(id=k, pattern=FeaturePattern.full(3), rho=1 / 3) for k in (1, 2, 3))
        sigma, gamma = imputed_data_moments(apply_imputer(fit_zero_imputer(clients), Dataset(clients=clients, client_ids=ids, x_filled=x, y=y)))
        np.testing.assert_allclose(sigma, x.T @ x / 40, atol=1e-13)
        np.testing.assert_allclose(gamma, x.T @ y / 40, atol=1e-13)

    def test_no_rows_rejected(self):
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        empty = apply_imputer(fit_zero_imputer(clients), Dataset(clients=clients, client_ids=np.zeros(0), x_filled=np.zeros((0, 2)), y=np.zeros(0)))
        with pytest.raises(ValueError):
            imputed_data_moments(empty)

