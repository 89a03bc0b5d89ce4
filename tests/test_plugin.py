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
from fedmismatch.plugin import (
    ConstrainedFit,
    PluginConfig,
    build_clientwise_plugin,
    constrained_crop_predictor,
    crop_predictor,
)
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

    def test_ridged_inversion_close_to_pinv_on_pd_system(self):
        pair = _pair([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        plain = crop_predictor(pair, FeaturePattern.full(2))
        ridged = crop_predictor(pair, FeaturePattern.full(2), PluginConfig(inversion="ridged", ridge_eps=1e-10))
        assert np.allclose(plain, ridged, atol=1e-8)
        assert plain == pytest.approx([1.0, 2.0])

    def test_psd_projection_repairs_negative_block(self):
        # The cropped 1x1 block is -0.5; clipping makes it 0 and the pinv of
        # 0 maps everything to the zero coefficient.
        pair = _pair([[-0.5, 0.0], [0.0, 1.0]], [1.0, 1.0])
        cfg = PluginConfig(psd_projection=True)
        theta = crop_predictor(pair, FeaturePattern.from_one_based([1], 2), cfg)
        assert theta == pytest.approx([0.0])


class TestPluginConfig:
    def test_rejects_unknown_inversion(self):
        with pytest.raises(ValueError):
            PluginConfig(inversion="cholesky")

    def test_rejects_nonpositive_ridge_eps(self):
        with pytest.raises(ValueError):
            PluginConfig(inversion="ridged", ridge_eps=0.0)

    def test_rejects_nonpositive_constraint(self):
        with pytest.raises(ValueError):
            PluginConfig(constraint_l=-1.0)


def _grid_search_disk(a, b, radius, steps=2001):
    """Dense minimizer of theta.A theta - 2 b.theta over a 2-d disk."""
    best_obj, best_theta = np.inf, None
    # Interior grid plus the boundary circle; the boundary matters when A is
    # indefinite because the minimum then sits at norm exactly radius.
    xs = np.linspace(-radius, radius, steps)
    for t1 in xs:
        rem = radius * radius - t1 * t1
        if rem < 0:
            continue
        for t2 in (-np.sqrt(rem), 0.0, np.sqrt(rem)):
            th = np.array([t1, t2])
            obj = th @ a @ th - 2 * b @ th
            if obj < best_obj:
                best_obj, best_theta = obj, th
    angles = np.linspace(0, 2 * np.pi, steps)
    for ang in angles:
        th = radius * np.array([np.cos(ang), np.sin(ang)])
        obj = th @ a @ th - 2 * b @ th
        if obj < best_obj:
            best_obj, best_theta = obj, th
    return best_obj, best_theta


class TestConstrainedFit:
    def test_interior_solution(self):
        pair = _pair([[1.0]], [2.0])
        fit = constrained_crop_predictor(pair, FeaturePattern.full(1), radius=10.0)
        assert isinstance(fit, ConstrainedFit)
        assert fit.converged
        assert fit.theta == pytest.approx([2.0], abs=1e-6)

    def test_active_constraint_projects(self):
        pair = _pair([[1.0]], [2.0])
        fit = constrained_crop_predictor(pair, FeaturePattern.full(1), radius=1.0)
        assert fit.theta == pytest.approx([1.0], abs=1e-6)
        assert fit.objective == pytest.approx(1.0 - 4.0, abs=1e-6)

    def test_indefinite_matrix_matches_grid_search(self):
        # Eigenvalues of A are 3 and -1, so the objective is unbounded below
        # without the ball and the constrained minimum lies on the boundary.
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        b = np.array([0.5, -0.5])
        pair = _pair(a, b)
        fit = constrained_crop_predictor(pair, FeaturePattern.full(2), radius=1.0)
        grid_obj, _ = _grid_search_disk(a, b, 1.0)
        assert float(np.linalg.norm(fit.theta)) <= 1.0 + 1e-9
        assert fit.objective <= grid_obj + 1e-3

    def test_rejects_nonpositive_radius(self):
        pair = _pair(np.eye(1), [1.0])
        with pytest.raises(ValueError):
            constrained_crop_predictor(pair, FeaturePattern.full(1), radius=0.0)

    def test_empty_pattern_trivial(self):
        pair = _pair(np.eye(2), [1.0, 1.0])
        fit = constrained_crop_predictor(pair, FeaturePattern.empty(2), radius=1.0)
        assert fit.theta.shape == (0,)
        assert fit.objective == 0.0


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

    def test_constraint_bounds_every_client(self):
        rng = seeded(107)
        pop = random_population(rng, 4)
        clients = random_clients(rng, 4, 3)
        cfg = PluginConfig(constraint_l=0.25)
        pred = build_clientwise_plugin(population_moment_pair(pop), clients, cfg)
        for theta in pred.thetas.values():
            assert float(np.linalg.norm(theta)) <= 0.25 + 1e-9

    def test_trunc_m_passed_through(self):
        pair = _pair(np.eye(2), [1.0, 1.0])
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        pred = build_clientwise_plugin(pair, clients, trunc_m=2.5)
        assert pred.trunc_m == 2.5
