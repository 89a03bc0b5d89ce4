"""Tests for plug-in predictors built from shared moments."""
import numpy as np
import pytest

from fedmismatch.model import ClientSpec, FeaturePattern, MomentPair, Provenance
from fedmismatch.moments import (
    aggregate_zero_imputed,
    debias_moments,
    empirical_coobservation,
)
from fedmismatch.oracle import best_local_coefficients
from fedmismatch.plugin import build_clientwise_plugin, crop_predictor
from fedmismatch.popgen import population_moment_pair, sample_dataset

from support import random_clients, random_population, seeded
from test_popgen import section3_clients


def _pair(sigma, gamma, coverage=None):
    return MomentPair(
        sigma=np.asarray(sigma, dtype=float),
        gamma=np.asarray(gamma, dtype=float),
        provenance=Provenance.POPULATION,
        coverage=coverage,
    )


class TestCropPredictor:
    def test_identity_moments(self):
        # sigma = I2, gamma = (1, 2): cropping to {2} solves 1 * theta = 2.
        pair = _pair(np.eye(2), [1.0, 2.0])
        theta = crop_predictor(pair, FeaturePattern.from_one_based([2], 2))
        assert theta == pytest.approx([2.0])

    def test_correlated_moments(self):
        pair = _pair([[1.0, 0.5], [0.5, 1.0]], [1.5, 1.5])
        theta = crop_predictor(pair, FeaturePattern.from_one_based([1], 2))
        assert theta == pytest.approx([1.5])

    def test_full_pattern_solves_whole_system(self):
        rng = seeded(101)
        pop = random_population(rng, 4)
        pair = population_moment_pair(pop)
        theta = crop_predictor(pair, FeaturePattern.full(4))
        assert np.allclose(pair.sigma @ theta, pair.gamma, atol=1e-10)

    def test_empty_pattern(self):
        pair = _pair(np.eye(3), [1.0, 2.0, 3.0])
        theta = crop_predictor(pair, FeaturePattern.empty(3))
        assert theta.shape == (0,)

    def test_matches_oracle_on_population_moments(self):
        rng = seeded(102)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            pop = random_population(rng, d)
            pattern = random_clients(rng, d, 1)[0].pattern
            got = crop_predictor(population_moment_pair(pop), pattern)
            want = best_local_coefficients(pop, pattern)
            assert np.allclose(got, want, atol=1e-10)

    def test_pd_system_solves_exactly(self):
        pair = _pair([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert crop_predictor(pair, FeaturePattern.full(2)) == pytest.approx([1.0, 2.0])

    def test_negative_block_inverted_as_produced(self):
        # Component-wise moments need not be PSD: the cropped 1x1 block -0.5
        # is pseudo-inverted as it stands, giving 1 / -0.5.
        pair = _pair([[-0.5, 0.0], [0.0, 1.0]], [1.0, 1.0])
        theta = crop_predictor(pair, FeaturePattern.from_one_based([1], 2))
        assert theta == pytest.approx([-2.0])


class TestBuildClientwisePlugin:
    def test_coverage_gates_new_patterns(self):
        # Two training patterns {1,3} and {2,3,4} cover every pair except
        # (1,2) and (1,4). A new client on {3,4} is identifiable from the
        # shared moments; one on {1,2} is not.
        clients = section3_clients()
        pop = random_population(seeded(103), 4)
        data = sample_dataset(pop, clients, 600, seeded(104))
        agg = aggregate_zero_imputed(data.local_moments)
        pihat, _ = empirical_coobservation(data)
        moments = debias_moments(agg, pihat)
        probes = clients + (
            ClientSpec(id=3, pattern=FeaturePattern.from_one_based([3, 4], 4), rho=1.0),
            ClientSpec(id=4, pattern=FeaturePattern.from_one_based([1, 2], 4), rho=1.0),
        )
        pred = build_clientwise_plugin(moments, probes)
        assert 3 in pred.thetas
        assert 4 in pred.unidentifiable
        assert pred.thetas[3].shape == (2,)

    def test_full_coverage_moments_serve_everyone(self):
        rng = seeded(105)
        pop = random_population(rng, 3)
        clients = random_clients(rng, 3, 4)
        pred = build_clientwise_plugin(population_moment_pair(pop), clients)
        assert not pred.unidentifiable
        assert set(pred.thetas) == {c.id for c in clients}

    def test_single_full_client_matches_least_squares(self):
        rng = seeded(106)
        pop = random_population(rng, 3)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        data = sample_dataset(pop, clients, 400, rng)
        agg = aggregate_zero_imputed(data.local_moments)
        pred = build_clientwise_plugin(agg, clients)
        x, y = data.x_filled, data.y
        ols, *_ = np.linalg.lstsq(x.T @ x / 400, x.T @ y / 400, rcond=None)
        assert np.allclose(pred.thetas[1], ols, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        pair = _pair(np.eye(2), [1.0, 1.0])
        bad = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        with pytest.raises(ValueError, match="dimension"):
            build_clientwise_plugin(pair, bad)

    def test_trunc_m_passed_through(self):
        pair = _pair(np.eye(2), [1.0, 1.0])
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        pred = build_clientwise_plugin(pair, clients, trunc_m=2.5)
        assert pred.trunc_m == 2.5
