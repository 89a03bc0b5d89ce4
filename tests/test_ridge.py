"""Tests for completed-data ridge, federated averaging, and the local baseline."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedmismatch.impute import apply_imputer, fit_optimal_imputer, fit_zero_imputer
from fedmismatch.model import ClientSpec, ClientwisePredictor, Dataset, FeaturePattern
from fedmismatch.moments import completed_sums
from fedmismatch.oracle import best_local_coefficients
from fedmismatch.popgen import PopulationSpec, sample_dataset
from fedmismatch.ridge import (
    estimate_m,
    fedavg_ridge,
    itr_predictor,
    local_learning,
    ridge_closed_form,
)

from support import (
    gd_ridge_fit,
    mixed_federation,
    random_clients,
    random_population,
    random_psd,
    reference_fedavg,
    seeded,
    sharded,
)
from test_popgen import section3_clients


def _completed(x, y, d=None):
    x = np.asarray(x, dtype=float)
    d = d if d is not None else x.shape[1]
    clients = (ClientSpec(id=1, pattern=FeaturePattern.full(d), rho=1.0),)
    data = Dataset.from_filled(clients=clients, client_ids=np.ones(len(y), dtype=int), x_filled=x, y=np.asarray(y, dtype=float))
    return apply_imputer(fit_zero_imputer(clients), data)


class TestRidgeClosedForm:
    def test_scalar_pins(self):
        # One sample x = 2, y = 4: sigma_hat = 4, gamma_hat = 8.
        data = _completed([[2.0]], [4.0])
        assert ridge_closed_form(data, 0.0) == pytest.approx([2.0])
        assert ridge_closed_form(data, 4.0) == pytest.approx([1.0])
        heavy = ridge_closed_form(data, 1e8)
        assert np.linalg.norm(heavy) <= 1e-6

    def test_matches_gradient_descent(self):
        rng = seeded(301)
        for lam in (0.05, 0.5, 2.0):
            x = rng.standard_normal((60, 4))
            y = rng.standard_normal(60)
            got = ridge_closed_form(_completed(x, y), lam)
            want = gd_ridge_fit(x, y, lam)
            assert np.allclose(got, want, atol=1e-7)

    def test_minimum_norm_at_zero(self):
        # Rank-deficient design: two identical columns. Any theta with
        # theta_1 + theta_2 = 2 fits perfectly; the smallest-norm one splits
        # the weight equally.
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        theta = ridge_closed_form(_completed(x, y), 0.0)
        assert theta == pytest.approx([1.0, 1.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_closed_form(_completed([[1.0]], [1.0]), -0.1)


class TestFedAvg:
    def test_single_shard_is_exact_gradient_descent(self):
        rng = seeded(302)
        x = rng.standard_normal((80, 3))
        y = rng.standard_normal(80)
        data = _completed(x, y)
        res = fedavg_ridge(data, lam=0.3, rounds=100_000, stop_tol=1e-14)
        assert not res.diverged
        assert np.allclose(res.theta, ridge_closed_form(data, 0.3), atol=1e-8)

    def test_sharding_invariant_fixed_point(self):
        # One local step per round makes the averaged update identical to
        # centralized gradient descent, so any sharding reaches the same
        # closed-form solution.
        rng = seeded(303)
        x = rng.standard_normal((90, 4))
        y = rng.standard_normal(90)
        want = ridge_closed_form(_completed(x, y), 0.1)
        for cuts in ([30, 60], [10, 25, 70], [45]):
            res = fedavg_ridge(sharded(x, y, [0, *cuts, 90]), lam=0.1, rounds=200_000, stop_tol=1e-14)
            assert np.allclose(res.theta, want, atol=1e-6)

    def test_objective_trace_non_increasing(self):
        rng = seeded(304)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        res = fedavg_ridge(sharded(x, y, [0, 25, 50]), lam=0.2, rounds=200)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_zero_rounds_returns_zeros(self):
        res = fedavg_ridge(sharded(np.eye(2), np.ones(2), [0, 2]), lam=0.1, rounds=0)
        assert res.theta == pytest.approx([0.0, 0.0])
        assert res.rounds_run == 0
        assert len(res.objective_trace) == 1

    def test_empty_clients_skipped_no_rows_rejected(self):
        x, y = np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0])
        with_empty = fedavg_ridge(sharded(x, y, [0, 0, 3, 3]), lam=0.1, rounds=5)
        alone = fedavg_ridge(sharded(x, y, [0, 3]), lam=0.1, rounds=5)
        assert np.array_equal(with_empty.theta, alone.theta)
        assert with_empty.objective_trace == alone.objective_trace
        with pytest.raises(ValueError, match="no rows"):
            fedavg_ridge(sharded(np.zeros((0, 2)), np.zeros(0), [0, 0]), lam=0.1, rounds=1)

    def test_split_by_client_skips_empty_and_sorts(self):
        clients = (
            ClientSpec(id=3, pattern=FeaturePattern.full(2), rho=0.5),
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.5),
        )
        data = apply_imputer(fit_zero_imputer(clients), Dataset.from_filled(
            clients=clients,
            client_ids=np.array([3, 3, 3]),
            x_filled=np.arange(6.0).reshape(3, 2),
            y=np.array([1.0, 2.0, 3.0]),
        ))
        (n_1, gram_1, _), (n_3, gram_3, _) = completed_sums(data)
        assert (n_1, n_3) == (0, 3)
        assert not gram_1.any()
        assert np.array_equal(gram_3, data.x.T @ data.x)

    @pytest.mark.parametrize("seed", [240, 241, 242, 243])
    def test_affine_map_matches_per_step_reference(self, seed):
        # Federations with a full client, an empty-pattern client and a
        # client without rows, under zero and regression imputation.
        rng, masked = mixed_federation(seed)
        imputers = [fit_zero_imputer(masked.clients), fit_optimal_imputer(random_psd(rng, masked.d), masked.clients)]
        stopped = 0
        for imputer in imputers:
            data = apply_imputer(imputer, masked)
            for local_steps in (1, 2, 5):
                for rounds in (0, 1, 7, 60):
                    for stop_tol in (None, 1e-3):
                        res = fedavg_ridge(data, 0.3, rounds, local_steps, stop_tol)
                        theta, trace, diverged, run = reference_fedavg(data, 0.3, rounds, local_steps, stop_tol)
                        assert (res.rounds_run, res.diverged) == (run, diverged)
                        stopped += run < rounds
                        _assert_rel_close(res.theta, theta)
                        _assert_rel_close(np.asarray(res.objective_trace), np.asarray(trace))
        assert stopped  # the stop_tol path was exercised

    @pytest.mark.parametrize("local_steps", [2, 5])
    def test_divergence_matches_per_step_reference(self, local_steps):
        # A small client with large rows: several local steps at the global
        # step size overshoot on it, and the run is flagged after ten
        # consecutive objective increases.
        rng = seeded(305)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        x[:3] *= 30.0
        data = sharded(x, y, [0, 3, 60])
        res = fedavg_ridge(data, 0.1, 200, local_steps)
        theta, trace, diverged, run = reference_fedavg(data, 0.1, 200, local_steps)
        assert res.diverged and diverged and res.rounds_run == run == 10
        _assert_rel_close(res.theta, theta)
        _assert_rel_close(np.asarray(res.objective_trace), np.asarray(trace))

    def test_long_converged_run_is_not_diverged(self):
        # Near the optimum the objective moves by rounding only and rises now
        # and then, but never ten rounds in a row.
        rng = seeded(306)
        clients = random_clients(rng, 8, 300, nonempty=False)
        masked = sample_dataset(random_population(rng, 8), clients, 3000, rng)
        data = apply_imputer(fit_optimal_imputer(random_psd(rng, 8), clients), masked)
        res = fedavg_ridge(data, lam=0.05, rounds=3000)
        assert not res.diverged and res.rounds_run == 3000
        assert np.any(np.diff(res.objective_trace) > 0)
        assert np.allclose(res.theta, ridge_closed_form(data, 0.05), atol=1e-10)


def _assert_rel_close(got, want, rel=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


class TestTruncate:
    """Truncation is the clip ``ClientwisePredictor.predict_many`` applies
    at ``trunc_m``."""

    @staticmethod
    def _clip(vals, m):
        # One client whose coefficient 1 passes each value through unclipped.
        pred = ClientwisePredictor(thetas={1: np.ones(1)}, trunc_m=m)
        return pred.predict_many(1, np.asarray(vals, dtype=np.float64).reshape(-1, 1))

    def test_pins(self):
        assert self._clip([2.0, -3.0, 0.5], 1.0) == pytest.approx([1.0, -1.0, 0.5])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="truncation level"):
            ClientwisePredictor(thetas={1: np.ones(1)}, trunc_m=-1.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10),
        st.floats(0.0, 1e3),
    )
    def test_bounded_and_idempotent(self, vals, m):
        out = self._clip(vals, m)
        assert np.all(np.abs(out) <= m)
        assert np.array_equal(self._clip(out, m), out)


class TestEstimateM:
    def test_largest_absolute_response(self):
        assert estimate_m(np.array([1.0, -4.0, 2.0])) == 4.0

    def test_accepts_dataset_like(self):
        data = _completed([[1.0], [1.0]], [3.0, -5.0])
        assert estimate_m(data) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_m(np.zeros(0))

    def test_bounded_population_respects_m(self):
        rng = seeded(305)
        base = random_population(rng, 4)
        pop = PopulationSpec.bounded(base.sigma, base.theta_star, noise_halfwidth=0.7)
        data = sample_dataset(pop, section3_clients(), 2000, rng)
        assert estimate_m(data) <= pop.m_bound + 1e-12


class TestItrPredictor:
    def test_zero_imputer_crops_theta(self):
        clients = section3_clients()
        imp = fit_zero_imputer(clients)
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        pred = itr_predictor(imp, theta)
        assert pred.thetas[1] == pytest.approx([1.0, 3.0])
        assert pred.thetas[2] == pytest.approx([2.0, 3.0, 4.0])

    def test_optimal_imputer_recovers_best_local(self):
        # Folding the population map into theta_star reproduces the oracle
        # per-pattern coefficients: imputing optimally then applying the
        # full-dimension optimum is the best observable predictor.
        rng = seeded(306)
        pop = random_population(rng, 4)
        clients = random_clients(rng, 4, 3)
        imp = fit_optimal_imputer(pop.sigma, clients)
        pred = itr_predictor(imp, pop.theta_star)
        for c in clients:
            want = best_local_coefficients(pop, c.pattern)
            assert np.allclose(pred.thetas[c.id], want, atol=1e-10)

    def test_zero_truncation_kills_predictions(self):
        clients = section3_clients()
        pred = itr_predictor(fit_zero_imputer(clients), np.ones(4), trunc_m=0.0)
        assert pred.predict(1, np.array([5.0, -2.0])) == 0.0

    def test_theta_shape_validated(self):
        clients = section3_clients()
        with pytest.raises(ValueError, match="theta"):
            itr_predictor(fit_zero_imputer(clients), np.ones(3))


class TestLocalLearning:
    def test_single_full_client_matches_closed_form(self):
        rng = seeded(307)
        pop = random_population(rng, 3)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        data = sample_dataset(pop, clients, 100, rng)
        pred = local_learning(data, lam=0.4)
        completed = apply_imputer(fit_zero_imputer(clients), data)
        assert np.allclose(pred.thetas[1], ridge_closed_form(completed, 0.4), atol=1e-12)

    def test_share_scales_penalty(self):
        # Client 1 holds half the population, so its effective penalty is
        # 2 * lambda; rebuilding that by hand must agree.
        rng = seeded(308)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 200, rng)
        pred = local_learning(data, lam=0.6)
        x = data.x_obs_of(1)
        y = data.y_of(1)
        n1 = len(y)
        want = np.linalg.solve(x.T @ x / n1 + (0.6 / 0.5) * np.eye(2), x.T @ y / n1)
        assert np.allclose(pred.thetas[1], want, atol=1e-12)

    def test_client_without_samples_predicts_zero(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
        )
        data = Dataset.from_filled(
            clients=clients,
            client_ids=np.array([1, 1, 1]),
            x_filled=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            y=np.array([1.0, 1.0, 2.0]),
        )
        pred = local_learning(data, lam=0.1)
        assert pred.thetas[2] == pytest.approx([0.0])

    def test_consistency_unpenalized(self):
        # Identity covariance, lots of data, lambda = 0: each client's fit
        # approaches its own population optimum.
        rng = seeded(310)
        d = 4
        pop = PopulationSpec.gaussian(np.eye(d), np.full(d, 0.5), sigma2=0.25)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 60_000, rng)
        pred = local_learning(data, lam=0.0)
        for c in clients:
            want = best_local_coefficients(pop, c.pattern)
            assert np.allclose(pred.thetas[c.id], want, atol=0.03)

    def test_negative_lambda_rejected(self):
        rng = seeded(311)
        pop = random_population(rng, 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        data = sample_dataset(pop, clients, 10, rng)
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            local_learning(data, lam=-1.0)
