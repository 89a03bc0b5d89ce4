"""Tests for per-client linear completion and iterated federated fitting."""
import tracemalloc

import numpy as np
import pytest

from fedmismatch.impute import (
    ImputationMap,
    ImputerKind,
    apply_imputer,
    federated_ice,
    fit_optimal_imputer,
    fit_zero_imputer,
    optimal_block_map,
)
from fedmismatch.model import ClientSpec, Dataset, FeaturePattern
from fedmismatch.moments import gram_fold, imputed_data_moments
from fedmismatch.popgen import sample_dataset
from fedmismatch.ridge import ridge_closed_form

from support import random_clients, random_pattern, random_population, random_psd, reference_ice, seeded
from test_popgen import section3_clients


def _one_client(pattern, cid=1):
    return (ClientSpec(id=cid, pattern=pattern, rho=1.0),)


class TestZeroImputer:
    def test_maps_are_zero(self):
        clients = section3_clients()
        imp = fit_zero_imputer(clients)
        assert imp.kind is ImputerKind.ZERO
        for c in clients:
            s = imp.maps[c.id]
            assert s.shape == (len(c.pattern.missing), c.pattern.size)
            assert not s.any()

    def test_full_pattern_map_is_empty(self):
        imp = fit_zero_imputer(_one_client(FeaturePattern.full(3)))
        assert imp.maps[1].shape == (0, 3)

    def test_complete_pads_with_zeros(self):
        imp = fit_zero_imputer(_one_client(FeaturePattern.from_one_based([1], 3)))
        assert imp.complete(1, np.array([2.0])) == pytest.approx([2.0, 0.0, 0.0])

    def test_complete_unknown_client(self):
        imp = fit_zero_imputer(_one_client(FeaturePattern.full(2)))
        with pytest.raises(KeyError):
            imp.complete(9, np.zeros(2))


class TestOptimalImputer:
    def test_identity_covariance_gives_zero_maps(self):
        # Independent coordinates carry no information about each other.
        clients = random_clients(seeded(201), 5, 3)
        imp = fit_optimal_imputer(np.eye(5), clients)
        assert imp.kind is ImputerKind.OPTIMAL_LINEAR
        for s in imp.maps.values():
            assert not s.any()

    def test_correlated_pair(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        pattern = FeaturePattern.from_one_based([1], 2)
        s = optimal_block_map(sigma, pattern)
        assert s == pytest.approx(np.array([[0.5]]))
        imp = fit_optimal_imputer(sigma, _one_client(pattern))
        assert imp.complete(1, np.array([2.0])) == pytest.approx([2.0, 1.0])

    def test_empty_pattern_flagged_zero_filled(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.empty(2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        imp = fit_optimal_imputer(np.eye(2), clients)
        assert imp.zero_filled == {1}
        assert imp.complete(1, np.zeros(0)) == pytest.approx([0.0, 0.0])

    def test_residual_mean_is_zero_gaussian(self):
        # For jointly Gaussian X the fill s @ x_obs is the conditional mean,
        # so the residual on the missing block averages to zero.
        rng = seeded(202)
        pop = random_population(rng, 4)
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        s = optimal_block_map(pop.sigma, pattern)
        root = np.linalg.cholesky(pop.sigma)
        n = 200_000
        x = rng.standard_normal((n, 4)) @ root.T
        obs, mis = list(pattern.observed), list(pattern.missing)
        resid = x[:, mis] - x[:, obs] @ s.T
        stderr = resid.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(resid.mean(axis=0)) <= 3 * stderr + 1e-12)

    def test_map_shape_validation(self):
        pattern = FeaturePattern.from_one_based([1], 3)
        with pytest.raises(ValueError, match="map shape"):
            ImputationMap(kind=ImputerKind.ZERO, maps={1: np.zeros((1, 1))}, patterns={1: pattern})

    def test_maps_patterns_id_mismatch(self):
        with pytest.raises(ValueError, match="same client ids"):
            ImputationMap(kind=ImputerKind.ZERO, maps={1: np.zeros((0, 2))}, patterns={2: FeaturePattern.full(2)})


class TestApplyImputer:
    def test_zero_imputer_reproduces_x_filled(self):
        rng = seeded(203)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 50, rng)
        out = apply_imputer(fit_zero_imputer(data.clients), data)
        assert np.array_equal(out.x, data.x_filled)
        assert np.array_equal(out.y, data.y)
        assert out.imputer is not None and out.imputer.kind is ImputerKind.ZERO

    def test_observed_coordinates_bitwise_preserved(self):
        rng = seeded(204)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 80, rng)
        out = apply_imputer(fit_optimal_imputer(pop.sigma, clients), data)
        for c in clients:
            rows = data.rows_of(c.id)
            obs = list(c.pattern.observed)
            assert np.array_equal(out.x[np.ix_(rows, obs)], data.x_filled[np.ix_(rows, obs)])

    def test_full_pattern_identity(self):
        rng = seeded(205)
        pop = random_population(rng, 3)
        clients = _one_client(FeaturePattern.full(3))
        data = sample_dataset(pop, clients, 40, rng)
        out = apply_imputer(fit_optimal_imputer(pop.sigma, clients), data)
        assert np.array_equal(out.x, data.x_filled)

    def test_missing_block_matches_map(self):
        rng = seeded(206)
        pop = random_population(rng, 4)
        clients = _one_client(FeaturePattern.from_one_based([2, 4], 4))
        data = sample_dataset(pop, clients, 30, rng)
        imp = fit_optimal_imputer(pop.sigma, clients)
        out = apply_imputer(imp, data)
        x_obs = data.x_obs_of(1)
        assert np.allclose(out.x[:, [0, 2]], x_obs @ imp.maps[1].T)

    def test_pattern_mismatch_rejected(self):
        rng = seeded(207)
        pop = random_population(rng, 3)
        clients = _one_client(FeaturePattern.from_one_based([1, 2], 3))
        data = sample_dataset(pop, clients, 10, rng)
        other = fit_zero_imputer(_one_client(FeaturePattern.from_one_based([1, 3], 3)))
        with pytest.raises(ValueError, match="different pattern"):
            apply_imputer(other, data)

    def test_shard_splits_by_client(self):
        rng = seeded(208)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 60, rng)
        out = apply_imputer(fit_zero_imputer(data.clients), data)
        shards = list(out.shards())
        owners = [cid for cid in sorted(c.id for c in data.clients) if np.any(data.client_ids == cid)]
        assert len(shards) == len(owners)
        for cid, (xk, yk) in zip(owners, shards):
            rows = np.flatnonzero(data.client_ids == cid)
            assert np.array_equal(xk, out.x[rows])
            assert np.array_equal(yk, out.y[rows])


class TestFederatedIce:
    def test_zero_rounds_returns_initial_completion(self):
        rng = seeded(209)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 50, rng)
        res = federated_ice(data, rounds=0)
        assert res.rounds_run == 0
        assert res.sigma_trace == ()
        assert np.array_equal(res.imputed.x, data.x_filled)

    def test_full_pattern_trace_constant(self):
        # Nothing is missing, so every round re-estimates the same matrix
        # and the completion never changes.
        rng = seeded(210)
        pop = random_population(rng, 3)
        data = sample_dataset(pop, _one_client(FeaturePattern.full(3)), 60, rng)
        res = federated_ice(data, rounds=3)
        assert res.rounds_run == 3
        assert len(res.sigma_trace) == 3
        for t in range(1, 3):
            assert np.array_equal(res.sigma_trace[t], res.sigma_trace[0])
        assert np.array_equal(res.imputed.x, data.x_filled)

    def test_single_client_any_init_is_fixed_point(self):
        # With one client the refreshed map is S sigma_oo sigma_oo^+ = S:
        # the completed data's cross block is S sigma_oo by construction, so
        # whatever map produced the completion is already self-consistent.
        # Iteration only moves when several patterns feed the estimate.
        rng = seeded(211)
        pop = random_population(rng, 4)
        clients = _one_client(FeaturePattern.from_one_based([1, 3], 4))
        data = sample_dataset(pop, clients, 500, rng)
        init = fit_optimal_imputer(pop.sigma, clients)
        before = apply_imputer(init, data).x
        res = federated_ice(data, rounds=3, init=init)
        assert np.allclose(res.imputed.x, before, atol=1e-10)
        for t in range(1, 3):
            assert np.allclose(res.sigma_trace[t], res.sigma_trace[0], atol=1e-10)

    def test_converged_state_is_self_consistent(self):
        rng = seeded(216)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 300, rng)
        res = federated_ice(data, rounds=500, early_stop_rms=1e-12)
        assert res.stopped_early
        sigma, _ = imputed_data_moments(res.imputed)
        maps = {c.id: optimal_block_map(sigma, c.pattern) for c in clients}
        imp = ImputationMap(
            kind=ImputerKind.ICE, maps=maps, patterns={c.id: c.pattern for c in clients}
        )
        again = apply_imputer(imp, data).x
        assert np.allclose(again, res.imputed.x, atol=1e-9)

    def test_early_stop(self):
        rng = seeded(212)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 200, rng)
        res = federated_ice(data, rounds=50, early_stop_rms=1e-9)
        assert res.stopped_early
        assert res.rounds_run < 50
        loose = federated_ice(data, rounds=2, early_stop_rms=None)
        assert not loose.stopped_early

    def test_negative_rounds_rejected(self):
        rng = seeded(214)
        pop = random_population(rng, 3)
        data = sample_dataset(pop, _one_client(FeaturePattern.full(3)), 10, rng)
        with pytest.raises(ValueError, match="rounds"):
            federated_ice(data, rounds=-1)

    def test_final_imputer_tagged_with_round(self):
        rng = seeded(215)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 40, rng)
        res = federated_ice(data, rounds=2)
        assert res.imputed.imputer.kind is ImputerKind.ICE
        assert res.imputed.imputer.round == 2


def _mixed_federation(seed, n=240):
    """Six clients on random d: one full, one observing nothing, one that
    drew no rows, three random patterns (one of them possibly empty)."""
    rng = seeded(seed)
    d = int(rng.integers(3, 7))
    pop = random_population(rng, d)
    patterns = [FeaturePattern.full(d), FeaturePattern.empty(d), random_pattern(rng, d)]
    patterns += [random_pattern(rng, d, nonempty=False) for _ in range(3)]
    clients = tuple(ClientSpec(id=10 - i, pattern=p, rho=1 / 6) for i, p in enumerate(patterns))
    drawn = sample_dataset(pop, clients, n, rng)
    keep = drawn.client_ids != 8
    data = Dataset(clients=clients, client_ids=drawn.client_ids[keep], x_filled=drawn.x_filled[keep], y=drawn.y[keep])
    return rng, data


def _assert_rel_close(got, want, rel=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


class TestSufficientStatistics:
    """ITR and ICE read each client's observed sums; the completed rows they
    stand for are built here only to check them."""

    @pytest.mark.parametrize("seed", [230, 231, 232, 233])
    def test_moments_and_ice_match_materialized_rows(self, seed):
        rng, data = _mixed_federation(seed)
        assert len(data.rows_of(8)) == 0 and len(data.rows_of(9)) > 0
        inits = [None, fit_optimal_imputer(random_psd(rng, data.d), data.clients, source="test")]
        stops = 0
        for init in inits:
            for rounds in range(6):
                for early_stop_rms in (None, 1e-1, 1e-2):
                    res = federated_ice(data, rounds, init=init, early_stop_rms=early_stop_rms)
                    trace, maps, run, stopped = reference_ice(data, rounds, init, early_stop_rms)
                    assert (res.rounds_run, res.stopped_early) == (run, stopped)
                    stops += stopped
                    for got, want in zip(res.sigma_trace, trace, strict=True):
                        _assert_rel_close(got, want)
                    for cid, s in maps.items():
                        np.testing.assert_allclose(res.imputed.imputer.maps[cid], s, rtol=1e-9, atol=1e-12)
                    sigma, gamma = imputed_data_moments(res.imputed)
                    sigma_sum, gamma_sum = gram_fold(res.imputed.shards(), data.d)
                    _assert_rel_close(sigma, sigma_sum / data.n)
                    _assert_rel_close(gamma, gamma_sum / data.n)
        assert stops  # the early-stop path was exercised

    def test_ice_and_ridge_allocate_no_completed_matrix(self):
        n, d = 50_000, 32
        rng = seeded(234)
        clients = random_clients(rng, d, 4)
        data = sample_dataset(random_population(rng, d), clients, n, rng)
        tracemalloc.start()
        try:
            res = federated_ice(data, rounds=3)
            ridge_closed_form(res.imputed, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8, peak
