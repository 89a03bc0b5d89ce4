"""Tests for completed-data ridge, federated averaging, and the local baseline."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedmismatch.impute import ImputationMap
from fedmismatch.model import ClientSpec, ClientwisePredictor, FeaturePattern, LocalMoments
from fedmismatch.moments import completed_sums
from fedmismatch.oracle import best_local_coefficients
from fedmismatch.popgen import PopulationSpec, sample_dataset
from fedmismatch.ridge import (
    estimate_m,
    fedavg_ridge,
    itr_predictor,
    local_learning,
)

from support import (
    blow_up_federation,
    completed_rows,
    fedavg_on,
    from_filled,
    gd_ridge_fit,
    mixed_federation,
    random_clients,
    random_population,
    random_psd,
    reference_fedavg,
    reference_itr_coefficients,
    repeating_clients,
    ridge_on,
    seeded,
    sharded,
)
from test_popgen import section3_clients


def _completed(x, y, d=None):
    x = np.asarray(x, dtype=float)
    d = d if d is not None else x.shape[1]
    clients = (ClientSpec(id=1, pattern=FeaturePattern.full(d), rho=1.0),)
    data = from_filled(clients=clients, client_ids=np.ones(len(y), dtype=int), x_filled=x, y=np.asarray(y, dtype=float))
    return data, ImputationMap()


class TestRidgeClosedForm:
    def test_scalar_pins(self):
        # One sample x = 2, y = 4: sigma_hat = 4, gamma_hat = 8.
        data = _completed([[2.0]], [4.0])
        assert ridge_on(*data, 0.0) == pytest.approx([2.0])
        assert ridge_on(*data, 4.0) == pytest.approx([1.0])
        heavy = ridge_on(*data, 1e8)
        assert np.linalg.norm(heavy) <= 1e-6

    def test_matches_gradient_descent(self):
        rng = seeded(301)
        for lam in (0.05, 0.5, 2.0):
            x = rng.standard_normal((60, 4))
            y = rng.standard_normal(60)
            got = ridge_on(*_completed(x, y), lam)
            want = gd_ridge_fit(x, y, lam)
            assert np.allclose(got, want, atol=1e-7)

    def test_minimum_norm_at_zero(self):
        # Rank-deficient design: two identical columns. Any theta with
        # theta_1 + theta_2 = 2 fits perfectly; the smallest-norm one splits
        # the weight equally.
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        theta = ridge_on(*_completed(x, y), 0.0)
        assert theta == pytest.approx([1.0, 1.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ridge_on(*_completed([[1.0]], [1.0]), -0.1)


class TestFedAvg:
    def test_single_shard_is_exact_gradient_descent(self):
        rng = seeded(302)
        x = rng.standard_normal((80, 3))
        y = rng.standard_normal(80)
        data = _completed(x, y)
        res = fedavg_on(*data, lam=0.3, rounds=1_000)
        assert not res.diverged
        assert np.allclose(res.theta, ridge_on(*data, 0.3), atol=1e-8)

    def test_sharding_invariant_fixed_point(self):
        # One local step per round makes the averaged update identical to
        # centralized gradient descent, so any sharding reaches the same
        # closed-form solution.
        rng = seeded(303)
        x = rng.standard_normal((90, 4))
        y = rng.standard_normal(90)
        want = ridge_on(*_completed(x, y), 0.1)
        for cuts in ([30, 60], [10, 25, 70], [45]):
            res = fedavg_on(*sharded(x, y, [0, *cuts, 90]), lam=0.1, rounds=1_000)
            assert np.allclose(res.theta, want, atol=1e-6)

    def test_objective_trace_non_increasing(self):
        rng = seeded(304)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        res = fedavg_on(*sharded(x, y, [0, 25, 50]), lam=0.2, rounds=200)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_zero_rounds_returns_zeros(self):
        res = fedavg_on(*sharded(np.eye(2), np.ones(2), [0, 2]), lam=0.1, rounds=0)
        assert res.theta == pytest.approx([0.0, 0.0])
        assert res.rounds_run == 0
        assert len(res.objective_trace) == 1

    def test_nothing_observed_at_zero_lambda_keeps_theta_at_zero(self):
        # sigma_hat = 0 and lambda = 0 make the objective constant, so the
        # step size is 0 rather than 1 / 0.
        clients = tuple(ClientSpec(id=i, pattern=FeaturePattern.empty(2), rho=0.5) for i in (1, 2))
        data = from_filled(clients=clients, client_ids=np.array([1, 2, 2]),
                           x_filled=np.ones((3, 2)), y=np.array([1.0, -2.0, 3.0]))
        res = fedavg_on(data, ImputationMap(), lam=0.0, rounds=4)
        assert np.array_equal(res.theta, np.zeros(2))
        assert not res.diverged and res.rounds_run == 4

    def test_empty_clients_skipped_no_rows_rejected(self):
        x, y = np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0])
        with_empty = fedavg_on(*sharded(x, y, [0, 0, 3, 3]), lam=0.1, rounds=5)
        alone = fedavg_on(*sharded(x, y, [0, 3]), lam=0.1, rounds=5)
        assert np.array_equal(with_empty.theta, alone.theta)
        assert with_empty.objective_trace == alone.objective_trace
        # With no rows there is no sender, so nothing to fold; sums of
        # clients without rows fold to no rows.
        empty, imputer = sharded(np.zeros((0, 2)), np.zeros(0), [0, 0])
        with pytest.raises(ValueError, match="nothing to aggregate"):
            fedavg_on(empty, imputer, lam=0.1, rounds=1)
        nothing = {1: LocalMoments(np.zeros((2, 2)), np.zeros(2), 0, FeaturePattern.full(2))}
        with pytest.raises(ValueError, match="no rows"):
            fedavg_ridge(nothing, imputer, 0.1, 1)

    def test_split_by_client_skips_empty_and_sorts(self):
        # Client 1 drew no rows, so it sends nothing; the senders 2 and 3 come in id order.
        clients = tuple(ClientSpec(id=k, pattern=FeaturePattern.full(2), rho=1 / 3) for k in (3, 1, 2))
        data = from_filled(
            clients=clients,
            client_ids=np.array([3, 3, 3, 2]),
            x_filled=np.arange(8.0).reshape(4, 2),
            y=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        imputer = ImputationMap()
        assert list(data.uploads) == [2, 3]
        second, third = completed_sums(data.uploads, imputer)
        assert (second.count, third.count) == (1, 3)
        x = completed_rows(data, imputer)
        assert np.array_equal(third.sigma_sum, x[:3].T @ x[:3])
        assert np.array_equal(second.sigma_sum, x[3:].T @ x[3:])

    @pytest.mark.parametrize("seed", [240, 241, 242, 243])
    def test_affine_map_matches_per_step_reference(self, seed):
        # Federations with a full client, an empty-pattern client and a
        # client without rows, under zero and regression imputation.
        rng, masked = mixed_federation(seed)
        imputers = [ImputationMap(), ImputationMap(random_psd(rng, masked.d))]
        for imputer in imputers:
            for local_steps in (1, 2, 5):
                for rounds in (0, 1, 7, 60):
                    res = fedavg_on(masked, imputer, 0.3, rounds, local_steps)
                    theta, trace, diverged, run = reference_fedavg(masked, imputer, 0.3, rounds, local_steps)
                    assert (res.rounds_run, res.diverged) == (run, diverged)
                    _assert_rel_close(res.theta, theta)
                    _assert_rel_close(np.asarray(res.objective_trace), np.asarray(trace))

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
        res = fedavg_on(*data, 0.1, 200, local_steps)
        theta, trace, diverged, run = reference_fedavg(*data, 0.1, 200, local_steps)
        assert res.diverged and diverged and res.rounds_run == run == 10
        _assert_rel_close(res.theta, theta)
        _assert_rel_close(np.asarray(res.objective_trace), np.asarray(trace))

    def test_overflow_is_divergence(self):
        # The objective overflows at round 8; the run stops there with
        # diverged set instead of carrying a non-finite theta to round 50.
        data = blow_up_federation()
        with pytest.warns(RuntimeWarning, match="overflow"):
            res = fedavg_on(*data, lam=0.0, rounds=50, local_steps=10)
        with pytest.warns(RuntimeWarning, match="overflow"):
            theta, trace, diverged, run = reference_fedavg(*data, 0.0, 50, 10)
        assert res.diverged and diverged and res.rounds_run == run == 8
        assert not np.isfinite(res.objective_trace[-1]) and np.isfinite(res.objective_trace[:-1]).all()
        assert np.isfinite(res.theta).all()
        _assert_rel_close(res.theta, theta)

    def test_long_converged_run_is_not_diverged(self):
        # Near the optimum the objective moves by rounding only and rises now
        # and then, but never ten rounds in a row.
        rng = seeded(306)
        clients = random_clients(rng, 8, 300, nonempty=False)
        masked = sample_dataset(random_population(rng, 8), clients, 3000, rng)
        imputer = ImputationMap(random_psd(rng, 8))
        res = fedavg_on(masked, imputer, lam=0.05, rounds=3000)
        assert not res.diverged and res.rounds_run == 3000
        assert np.any(np.diff(res.objective_trace) > 0)
        assert np.allclose(res.theta, ridge_on(masked, imputer, 0.05), atol=1e-10)


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
        data, _ = _completed([[1.0], [1.0], [1.0]], [1.0, -4.0, 2.0])
        assert estimate_m(data) == 4.0

    def test_accepts_dataset_like(self):
        data, _ = _completed([[1.0], [1.0]], [3.0, -5.0])
        assert estimate_m(data) == 5.0

    def test_empty_rejected(self):
        data, _ = _completed(np.zeros((0, 1)), [])
        with pytest.raises(ValueError, match="no responses"):
            estimate_m(data)

    def test_bounded_population_respects_m(self):
        rng = seeded(305)
        base = random_population(rng, 4)
        pop = PopulationSpec.bounded(base.sigma, base.theta_star, noise_halfwidth=0.7)
        data = sample_dataset(pop, section3_clients(), 2000, rng)
        assert estimate_m(data) <= pop.m_bound + 1e-12


class TestItrPredictor:
    def test_zero_imputer_crops_theta(self):
        clients = section3_clients()
        imp = ImputationMap()
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        pred = itr_predictor(imp, theta, clients)
        assert pred.thetas[1] == pytest.approx([1.0, 3.0])
        assert pred.thetas[2] == pytest.approx([2.0, 3.0, 4.0])

    def test_optimal_imputer_recovers_best_local(self):
        # Folding the population map into theta_star reproduces the oracle
        # per-pattern coefficients: imputing optimally then applying the
        # full-dimension optimum is the best observable predictor.
        rng = seeded(306)
        pop = random_population(rng, 4)
        clients = random_clients(rng, 4, 3)
        imp = ImputationMap(pop.sigma)
        pred = itr_predictor(imp, pop.theta_star, clients)
        for c in clients:
            want = best_local_coefficients(pop, c.pattern)
            assert np.allclose(pred.thetas[c.id], want, atol=1e-10)

    def test_folds_once_per_pattern_bitwise(self):
        # Clients that share a pattern share one folded array, with the
        # bytes of the per-client fold theta_O + S^T theta_M.
        rng = seeded(307)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            clients = repeating_clients(rng, d)
            theta = rng.standard_normal(d)
            for imp in (ImputationMap(), ImputationMap(random_psd(rng, d))):
                pred = itr_predictor(imp, theta, clients)
                want = reference_itr_coefficients(imp, theta, clients)
                first = {}
                for c in clients:
                    got = pred.thetas[c.id]
                    assert got.shape == want[c.id].shape and got.tobytes() == want[c.id].tobytes()
                    assert pred.thetas[c.id] is first.setdefault(c.pattern, pred.thetas[c.id])

    def test_zero_truncation_kills_predictions(self):
        clients = section3_clients()
        pred = itr_predictor(ImputationMap(), np.ones(4), clients, trunc_m=0.0)
        assert pred.predict_many(1, np.array([[5.0, -2.0]])).tolist() == [0.0]

    def test_theta_shape_validated(self):
        clients = section3_clients()
        with pytest.raises(ValueError, match="theta"):
            itr_predictor(ImputationMap(), np.ones(3), clients)

    def test_theta_shape_checked_for_every_pattern(self):
        # The check runs once per distinct pattern, against that pattern's d.
        narrow, wide = FeaturePattern.from_one_based([1], 3), FeaturePattern.from_one_based([1], 4)
        clients = (ClientSpec(id=1, pattern=narrow, rho=1.0), ClientSpec(id=2, pattern=wide, rho=1.0))
        with pytest.raises(ValueError, match=r"theta must be \(4,\)"):
            itr_predictor(ImputationMap(), np.ones(3), clients)

    def test_full_pattern_without_a_map_raises(self):
        # A map serves every pattern of its own d; a 4 x 4 sigma has no map
        # for a d = 3 pattern, and the error names it.
        full = FeaturePattern.full(3)
        clients = (ClientSpec(id=1, pattern=full, rho=1.0),)
        with pytest.raises(ValueError, match=r"pattern \(1, 2, 3\) has d=3"):
            itr_predictor(ImputationMap(np.eye(4)), np.ones(3), clients)


class TestLocalLearning:
    def test_single_full_client_matches_closed_form(self):
        rng = seeded(307)
        pop = random_population(rng, 3)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        data = sample_dataset(pop, clients, 100, rng)
        pred = local_learning(data.clients, data.uploads, lam=0.4)
        assert np.allclose(pred.thetas[1], ridge_on(data, ImputationMap(), 0.4), atol=1e-12)

    def test_share_scales_penalty(self):
        # Client 1 holds half the population, so its effective penalty is
        # 2 * lambda; rebuilding that by hand must agree.
        rng = seeded(308)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 200, rng)
        pred = local_learning(data.clients, data.uploads, lam=0.6)
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
        data = from_filled(
            clients=clients,
            client_ids=np.array([1, 1, 1]),
            x_filled=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            y=np.array([1.0, 1.0, 2.0]),
        )
        pred = local_learning(data.clients, data.uploads, lam=0.1)
        assert pred.thetas[2] == pytest.approx([0.0])

    def test_consistency_unpenalized(self):
        # Identity covariance, lots of data, lambda = 0: each client's fit
        # approaches its own population optimum.
        rng = seeded(310)
        d = 4
        pop = PopulationSpec.gaussian(np.eye(d), np.full(d, 0.5), sigma2=0.25)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 60_000, rng)
        pred = local_learning(data.clients, data.uploads, lam=0.0)
        for c in clients:
            want = best_local_coefficients(pop, c.pattern)
            assert np.allclose(pred.thetas[c.id], want, atol=0.03)

    def test_negative_lambda_rejected(self):
        rng = seeded(311)
        pop = random_population(rng, 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        data = sample_dataset(pop, clients, 10, rng)
        with pytest.raises(ValueError, match="lambda must be >= 0"):
            local_learning(data.clients, data.uploads, lam=-1.0)
