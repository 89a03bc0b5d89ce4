"""Tests for per-client linear completion and iterated federated fitting."""
import tracemalloc

import numpy as np
import pytest

import fedmismatch.impute as impute
from fedmismatch.impute import ImputationMap, federated_ice, optimal_block_map
from fedmismatch.model import ClientSpec, FeaturePattern, crop_matrix, crop_vector
from fedmismatch.moments import (
    aggregate_zero_imputed,
    completed_sums,
    imputed_data_moments,
    local_zero_imputed_moments,
)
from fedmismatch.popgen import sample_dataset
from fedmismatch.ridge import ridge_closed_form

from support import (
    assert_rel_close,
    completed_rows,
    mixed_federation,
    random_clients,
    random_population,
    random_psd,
    reference_complete_moments,
    reference_ice,
    repeating_clients,
    seeded,
    x_filled,
)
from test_popgen import section3_clients


def _one_client(pattern, cid=1):
    return (ClientSpec(id=cid, pattern=pattern, rho=1.0),)


class TestZeroImputer:
    def test_maps_are_zero(self):
        clients = section3_clients()
        imp = ImputationMap()
        for c in clients:
            s = imp.maps[c.pattern]
            assert s.shape == (len(c.pattern.missing), c.pattern.size)
            assert not s.any()

    def test_full_pattern_map_is_empty(self):
        imp = ImputationMap()
        assert imp.maps[FeaturePattern.full(3)].shape == (0, 3)

    def test_complete_pads_with_zeros(self):
        pattern = FeaturePattern.from_one_based([1], 3)
        imp = ImputationMap()
        assert imp.complete(pattern, np.array([2.0])) == pytest.approx([2.0, 0.0, 0.0])

    def test_complete_unknown_pattern(self):
        # A map is one covariance (none for the zero map), so it completes
        # any pattern, of any d under the zero map.
        imp = ImputationMap()
        assert imp.complete(FeaturePattern.from_one_based([2], 2), np.array([3.0])).tolist() == [0.0, 3.0]
        assert imp.complete(FeaturePattern.from_one_based([1, 3], 5), np.ones(2)).tolist() == [1, 0, 1, 0, 0]

    def test_complete_copies_observed_coordinates(self):
        # Observed coordinates are copied, not multiplied through the
        # completion matrix: a non-finite entry stays in its own coordinate
        # and -0.0 keeps its sign.
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        imp = ImputationMap(random_psd(seeded(215), 4))
        x = np.array([[np.inf, -0.0], [1.5, 2.0]])
        rows = imp.complete(pattern, x)
        assert rows[:, [0, 2]].tobytes() == x.tobytes()
        assert rows[1, [1, 3]].tobytes() == (x @ imp.maps[pattern].T)[1].tobytes()

    def test_maps_are_read_only_copies(self):
        # complete, complete_moments and itr_predictor all read S, formed
        # from the map's sigma; neither can be written, and neither is
        # reached through the caller's array.
        pattern = FeaturePattern.from_one_based([2], 3)
        sigma = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -1.0], [0.0, -1.0, 2.0]])
        imp = ImputationMap(sigma)
        sigma[0, 1] = 9.0
        assert imp.sigma[0, 1] == 0.5
        assert imp.maps[pattern].tolist() == [[0.5], [-1.0]]
        for array in (imp.sigma, imp.maps[pattern]):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 9.0
        _, cross = imp.complete_moments(pattern, np.eye(1), np.array([1.0]))
        assert cross.tolist() == [0.5, 1.0, -1.0]
        assert imp.complete(pattern, np.array([2.0])).tolist() == [1.0, 2.0, -2.0]


class TestStorage:
    def test_a_map_holds_only_its_blocks(self):
        # An ImputationMap holds one sigma and forms each pattern's S on its
        # first read. Once 30 patterns at d = 256 are read it holds their 30
        # S blocks and no d x d array per pattern, which would add ~15.7 MB.
        rng, d = seeded(216), 256
        patterns = {}
        while len(patterns) < 30:
            patterns[FeaturePattern(tuple(np.flatnonzero(rng.random(d) < 0.7)), d)] = None
        blocks = sum(8 * len(p.missing) * p.size for p in patterns)
        sigma = random_psd(rng, d)
        for imp in (ImputationMap(), ImputationMap(sigma)):
            assert len(imp.maps) == 0
            tracemalloc.start()
            try:
                for p in patterns:
                    imp.complete(p, np.ones(p.size))
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert list(imp.maps) == list(patterns) and held < 2 * blocks, (held, blocks)
            assert all(imp.maps[p].shape == (len(p.missing), p.size) for p in patterns)

    def test_ice_map_forms_no_block_until_read(self):
        # federated_ice's rounds read the senders' patterns of each round's
        # map; the map it returns has formed none of its own.
        rng, data = mixed_federation(240)
        for rounds in (0, 1, 3):
            imp = federated_ice(data.uploads, rounds)
            assert len(imp.maps) == 0
            imp.maps[data.client_by_id(8).pattern]
            assert list(imp.maps) == [data.client_by_id(8).pattern]


class TestOptimalImputer:
    def test_identity_covariance_gives_zero_maps(self):
        # Independent coordinates carry no information about each other.
        clients = random_clients(seeded(201), 5, 3)
        imp = ImputationMap(np.eye(5))
        for c in clients:
            assert not imp.maps[c.pattern].any()

    def test_correlated_pair(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        pattern = FeaturePattern.from_one_based([1], 2)
        s = optimal_block_map(sigma, pattern)
        assert s == pytest.approx(np.array([[0.5]]))
        imp = ImputationMap(sigma)
        assert imp.complete(pattern, np.array([2.0])) == pytest.approx([2.0, 1.0])

    def test_empty_pattern_gets_zero_map(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.empty(2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        imp = ImputationMap(np.array([[1.0, 0.5], [0.5, 1.0]]))
        empty = FeaturePattern.empty(2)
        assert imp.maps[empty].shape == (2, 0)
        assert imp.complete(empty, np.zeros(0)) == pytest.approx([0.0, 0.0])

    def test_shared_pattern_gets_one_map_from_one_pinv(self, monkeypatch):
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        clients = tuple(ClientSpec(id=i, pattern=pattern, rho=0.5) for i in (1, 2))
        calls, pinv = [], impute.pinv

        def counting(a):
            calls.append(a)
            return pinv(a)

        monkeypatch.setattr(impute, "pinv", counting)
        imp = ImputationMap(random_psd(seeded(217), 4))
        rows = [imp.complete(c.pattern, np.ones(2)) for c in clients]
        assert list(imp.maps) == [pattern] and rows[0].tobytes() == rows[1].tobytes()
        assert len(calls) == 1

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
        # A map's sigma is one square matrix.
        for sigma in (np.zeros((3, 2)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="sigma must be a square matrix"):
                ImputationMap(sigma)

    def test_pattern_of_another_dimension_rejected(self):
        # A 4 x 4 sigma has no map for a d = 3 client observing (1, 2):
        # cropped by that pattern's indices it would give a 1 x 2 S that
        # reads the wrong coordinates, without an error.
        sigma = np.array([[2.0, 0.5, 0.3, 0.1], [0.5, 1.0, 0.2, 0.4], [0.3, 0.2, 1.5, 0.0], [0.1, 0.4, 0.0, 1.0]])
        imp = ImputationMap(sigma)
        pattern = FeaturePattern.from_one_based([1, 2], 3)
        with pytest.raises(ValueError, match=r"pattern \(1, 2\) has d=3, not the map's d=4"):
            imp.maps[pattern]
        with pytest.raises(ValueError, match=r"pattern \(1, 2\)"):
            imp.complete(pattern, np.ones(2))
        assert len(imp.maps) == 0
        assert imp.maps[FeaturePattern.from_one_based([1, 2], 4)].shape == (2, 2)


class TestApplyImputer:
    def test_zero_imputer_reproduces_x_filled(self):
        rng = seeded(203)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 50, rng)
        assert np.array_equal(completed_rows(data, ImputationMap()), x_filled(data))

    def test_observed_coordinates_bitwise_preserved(self):
        rng = seeded(204)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 80, rng)
        x = completed_rows(data, ImputationMap(pop.sigma))
        for c in clients:
            rows = data.rows_of(c.id)
            obs = list(c.pattern.observed)
            assert np.array_equal(x[np.ix_(rows, obs)], x_filled(data)[np.ix_(rows, obs)])

    def test_full_pattern_identity(self):
        rng = seeded(205)
        pop = random_population(rng, 3)
        clients = _one_client(FeaturePattern.full(3))
        data = sample_dataset(pop, clients, 40, rng)
        assert np.array_equal(completed_rows(data, ImputationMap(pop.sigma)), x_filled(data))

    def test_missing_block_matches_map(self):
        rng = seeded(206)
        pop = random_population(rng, 4)
        pattern = FeaturePattern.from_one_based([2, 4], 4)
        clients = _one_client(pattern)
        data = sample_dataset(pop, clients, 30, rng)
        imp = ImputationMap(pop.sigma)
        x_obs = data.x_obs_of(1)
        assert np.allclose(completed_rows(data, imp)[:, [0, 2]], x_obs @ imp.maps[pattern].T)

    def test_pattern_mismatch_rejected(self):
        rng = seeded(207)
        pop = random_population(rng, 3)
        clients = _one_client(FeaturePattern.from_one_based([1, 2], 3))
        data = sample_dataset(pop, clients, 10, rng)
        # A map of another dimension has no S for this client's pattern.
        other = ImputationMap(random_psd(rng, 4))
        with pytest.raises(ValueError, match=r"pattern \(1, 2\) has d=3"):
            list(completed_sums(data.uploads, other))
        with pytest.raises(ValueError, match=r"pattern \(1, 2\) has d=3"):
            ridge_closed_form(data.uploads, other, 0.1)

    def test_shard_splits_by_client(self):
        rng = seeded(208)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 60, rng)
        imp = ImputationMap()
        sums = list(completed_sums(data.uploads, imp))
        x = completed_rows(data, imp)
        ids = sorted(c.id for c in data.clients if len(data.rows_of(c.id)))
        assert len(sums) == len(ids)
        for cid, lm in zip(ids, sums):
            rows = data.rows_of(cid)
            assert lm.count == len(rows)
            assert_rel_close(lm.sigma_sum, x[rows].T @ x[rows])
            assert_rel_close(lm.gamma_sum, x[rows].T @ data.y[rows])


class TestFederatedIce:
    def test_zero_rounds_returns_initial_completion(self):
        rng = seeded(209)
        pop = random_population(rng, 4)
        data = sample_dataset(pop, section3_clients(), 50, rng)
        assert np.array_equal(completed_rows(data, federated_ice(data.uploads, rounds=0)), x_filled(data))

    def test_full_pattern_trace_constant(self):
        # Nothing is missing, so every round re-estimates the same matrix
        # and the completion never changes.
        rng = seeded(210)
        pop = random_population(rng, 3)
        data = sample_dataset(pop, _one_client(FeaturePattern.full(3)), 60, rng)
        first = imputed_data_moments(data.uploads, federated_ice(data.uploads, rounds=0)).sigma
        for rounds in range(1, 4):
            res = federated_ice(data.uploads, rounds)
            assert np.array_equal(imputed_data_moments(data.uploads, res).sigma, first)
            assert np.array_equal(completed_rows(data, res), x_filled(data))

    def test_single_client_any_init_is_fixed_point(self):
        # With one client the refreshed map is S sigma_oo sigma_oo^+ = S:
        # the completed data's cross block is S sigma_oo by construction, so
        # whatever map produced the completion is already self-consistent,
        # and ICE, which starts from zero maps, keeps the zero completion.
        # Iteration only moves when several patterns feed the estimate.
        rng = seeded(211)
        pop = random_population(rng, 4)
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        clients = _one_client(pattern)
        data = sample_dataset(pop, clients, 500, rng)
        for init in (ImputationMap(pop.sigma), ImputationMap()):
            sigma = imputed_data_moments(data.uploads, init).sigma
            np.testing.assert_allclose(ImputationMap(sigma).maps[pattern], init.maps[pattern], atol=1e-10)
        assert np.allclose(completed_rows(data, federated_ice(data.uploads, rounds=3)), x_filled(data), atol=1e-10)

    def test_converged_state_is_self_consistent(self):
        rng = seeded(216)
        pop = random_population(rng, 4)
        clients = section3_clients()
        data = sample_dataset(pop, clients, 300, rng)
        res = federated_ice(data.uploads, rounds=500)
        imp = ImputationMap(imputed_data_moments(data.uploads, res).sigma)
        assert np.allclose(completed_rows(data, imp), completed_rows(data, res), atol=1e-9)

    def test_negative_rounds_rejected(self):
        rng = seeded(214)
        pop = random_population(rng, 3)
        data = sample_dataset(pop, _one_client(FeaturePattern.full(3)), 10, rng)
        with pytest.raises(ValueError, match="rounds"):
            federated_ice(data.uploads, rounds=-1)


class TestCompleteMoments:
    """``complete_moments`` is the one completion fold: the fits apply it to
    client sums and the population oracle to population moments."""

    def test_zero_map_restricts_to_observed_block_bitwise(self):
        rng = seeded(235)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            sigma, gamma = random_psd(rng, d), rng.standard_normal(d)
            imp = ImputationMap()
            clients = random_clients(rng, d, int(rng.integers(1, 5)), nonempty=False)
            for p in dict.fromkeys(c.pattern for c in clients):
                obs = list(p.observed)
                gram, cross = imp.complete_moments(p, sigma[np.ix_(obs, obs)], gamma[obs])
                want_gram, want_cross = np.zeros((d, d)), np.zeros(d)
                want_gram[np.ix_(obs, obs)] = sigma[np.ix_(obs, obs)]
                want_cross[obs] = gamma[obs]
                assert gram.shape == want_gram.shape and gram.tobytes() == want_gram.tobytes()
                assert cross.shape == want_cross.shape and cross.tobytes() == want_cross.tobytes()

    def test_zero_map_completes_by_scatter_alone(self):
        # No product with the zero S: an infinite Gram entry stays in its
        # cell and leaves every other cell +0.0 (0 * inf would be NaN).
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        gram = np.array([[np.inf, 1.0], [1.0, 2.0]])
        got, _ = ImputationMap().complete_moments(pattern, gram, np.ones(2))
        want = np.zeros((4, 4))
        want[np.ix_([0, 2], [0, 2])] = gram
        assert got.tobytes() == want.tobytes()

    def test_reads_the_map_built_completion_bitwise(self, monkeypatch):
        # complete_moments reads only S, in block form, and gives
        # B^T sigma B for a B built anew from the identity: its bytes under
        # the zero map, to rounding under a nonzero one.
        rng = seeded(239)
        cases = []
        for _ in range(20):
            d = int(rng.integers(1, 7))
            clients = repeating_clients(rng, d)
            sigma, gamma = random_psd(rng, d), rng.standard_normal(d)
            zero, optimal = ImputationMap(), ImputationMap(random_psd(rng, d))
            for imp, bitwise in ((zero, True), (optimal, False)):
                cases += [(imp, p, sigma, gamma, bitwise, reference_complete_moments(imp, p, sigma, gamma))
                          for p in dict.fromkeys(c.pattern for c in clients)]

        def forbidden(*args, **kwargs):
            raise AssertionError("complete_moments built an identity matrix")

        monkeypatch.setattr(np, "eye", forbidden)
        for imp, p, sigma, gamma, bitwise, (want_gram, want_cross) in cases:
            gram, cross = imp.complete_moments(p, crop_matrix(sigma, p, p), crop_vector(gamma, p))
            assert gram.shape == want_gram.shape and cross.shape == want_cross.shape
            if bitwise:
                assert gram.tobytes() == want_gram.tobytes() and cross.tobytes() == want_cross.tobytes()
            else:
                assert_rel_close(gram, want_gram)
                assert_rel_close(cross, want_cross)

    def test_moments_must_be_over_the_observed_block(self):
        pattern = FeaturePattern.from_one_based([1, 3], 4)
        imp = ImputationMap()
        for gram, cross in ((np.eye(4), np.zeros(4)), (np.eye(2), np.zeros(4)), (np.eye(3), np.zeros(2))):
            with pytest.raises(ValueError, match=r"pattern \(1, 3\): moments .*, not \(2, 2\), \(2,\)"):
                imp.complete_moments(pattern, gram, cross)

    @pytest.mark.parametrize("seed", [236, 237, 238])
    def test_equals_moments_of_completed_rows(self, seed):
        rng, data = mixed_federation(seed)
        assert len(data.rows_of(8)) == 0
        pop = random_population(rng, data.d)
        for imp in (ImputationMap(), ImputationMap(pop.sigma)):
            for cid, lm in data.uploads.items():
                p = data.client_by_id(cid).pattern
                rows = imp.complete(p, data.x_obs_of(cid))
                gram, cross = imp.complete_moments(p, lm.sigma_sum, lm.gamma_sum)
                assert_rel_close(gram, rows.T @ rows)
                assert_rel_close(cross, rows.T @ data.y_of(cid))


class TestSufficientStatistics:
    """ITR and ICE read each client's observed sums; the completed rows they
    stand for are built here only to check them."""

    @pytest.mark.parametrize("seed", [230, 231, 232, 233])
    def test_moments_and_ice_match_materialized_rows(self, seed):
        rng, data = mixed_federation(seed)
        assert len(data.rows_of(8)) == 0 and len(data.rows_of(9)) > 0
        trace, _ = reference_ice(data, 6)
        for rounds in range(6):
            res = federated_ice(data.uploads, rounds)
            _, maps = reference_ice(data, rounds)
            for cid, s in maps.items():
                np.testing.assert_allclose(res.maps[data.client_by_id(cid).pattern], s, rtol=1e-9, atol=1e-12)
            # The estimate of round rounds + 1 is the moment matrix of this completion.
            pair = imputed_data_moments(data.uploads, res)
            assert_rel_close(pair.sigma, trace[rounds])
            x, full = completed_rows(data, res), FeaturePattern.full(data.d)
            shards = [data.rows_of(c.id) for c in sorted(data.clients, key=lambda c: c.id)]
            rows_pair = aggregate_zero_imputed(
                local_zero_imputed_moments(x[rows], data.y[rows], full) for rows in shards if len(rows)
            )
            assert_rel_close(pair.sigma, rows_pair.sigma)
            assert_rel_close(pair.gamma, rows_pair.gamma)

    def test_ice_and_ridge_allocate_no_completed_matrix(self):
        n, d = 50_000, 32
        rng = seeded(234)
        clients = random_clients(rng, d, 4)
        data = sample_dataset(random_population(rng, d), clients, n, rng)
        tracemalloc.start()
        try:
            res = federated_ice(data.uploads, rounds=3)
            ridge_closed_form(data.uploads, res, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8, peak
