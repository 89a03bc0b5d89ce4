"""Tests for closed-form risks, bound assembly, and Monte Carlo evaluation."""
import numpy as np
import pytest

from fedmismatch.impute import ImputerKind
from fedmismatch.model import ClientSpec, ClientwisePredictor, FeaturePattern
from fedmismatch.oracle import (
    _apportion,
    best_local_coefficients,
    effective_dimension,
    imputed_oracle_risk,
    imputed_population_covariance,
    itr_bound,
    local_bound_terms,
    monte_carlo_risk,
    oracle_global_risk,
    oracle_local_risk,
    ridge_bias,
    schur_complement,
    typical_case_lambda_prime,
)
from fedmismatch.popgen import PopulationSpec

from support import (
    assert_rel_close,
    block_risk,
    brute_effective_dimension,
    brute_schur,
    completion_matrix,
    gd_penalized_distance,
    gd_quadratic_min,
    random_clients,
    random_population,
    reference_imputed_population,
    seeded,
)
from test_popgen import section3_clients

CORR2 = np.array([[1.0, 0.5], [0.5, 1.0]])


def _pop(sigma, theta, sigma2=1.0):
    return PopulationSpec.gaussian(np.asarray(sigma, dtype=float), np.asarray(theta, dtype=float), sigma2)


class TestBestLocalCoefficients:
    def test_independent_coordinates(self):
        # gamma = (1, 2); observing only coordinate 1 keeps gamma_1 / 1.
        pop = _pop(np.eye(2), [1.0, 2.0])
        assert best_local_coefficients(pop, FeaturePattern.from_one_based([1], 2)) == pytest.approx([1.0])

    def test_correlated_pair(self):
        # theta = (1, 1) under CORR2 gives gamma = (1.5, 1.5); the single
        # observed coordinate absorbs half the missing one's effect.
        pop = _pop(CORR2, [1.0, 1.0])
        assert best_local_coefficients(pop, FeaturePattern.from_one_based([1], 2)) == pytest.approx([1.5])

    def test_full_pattern_returns_theta_star(self):
        rng = seeded(401)
        pop = random_population(rng, 4)
        got = best_local_coefficients(pop, FeaturePattern.full(4))
        assert np.allclose(got, pop.theta_star, atol=1e-9)

    def test_empty_pattern(self):
        pop = _pop(np.eye(2), [1.0, 1.0])
        assert best_local_coefficients(pop, FeaturePattern.empty(2)).shape == (0,)

    def test_matches_gradient_descent(self):
        rng = seeded(402)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            pop = random_population(rng, d)
            pattern = random_clients(rng, d, 1)[0].pattern
            obs = list(pattern.observed)
            want = gd_quadratic_min(pop.sigma[np.ix_(obs, obs)], (pop.sigma @ pop.theta_star)[obs])
            got = best_local_coefficients(pop, pattern)
            assert np.allclose(got, want, atol=1e-7)


class TestSchurComplement:
    def test_identity(self):
        v = schur_complement(np.eye(2), FeaturePattern.from_one_based([1], 2))
        assert v == pytest.approx(np.array([[1.0]]))

    def test_correlated_pair(self):
        v = schur_complement(CORR2, FeaturePattern.from_one_based([1], 2))
        assert v == pytest.approx(np.array([[0.75]]))

    def test_full_pattern_empty_block(self):
        assert schur_complement(np.eye(3), FeaturePattern.full(3)).shape == (0, 0)

    def test_empty_pattern_returns_whole_matrix(self):
        sigma = random_population(seeded(403), 3).sigma
        assert np.array_equal(schur_complement(sigma, FeaturePattern.empty(3)), sigma)

    def test_matches_dense_solve(self):
        rng = seeded(404)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            pop = random_population(rng, d)
            pattern = random_clients(rng, d, 1)[0].pattern
            got = schur_complement(pop.sigma, pattern)
            want = brute_schur(pop.sigma, pattern)
            assert np.allclose(got, want, atol=1e-9)


class TestOracleRisks:
    def test_empty_pattern_pays_second_moment(self):
        pop = _pop(np.eye(2), [1.0, 2.0], sigma2=0.0)
        assert oracle_local_risk(pop, FeaturePattern.empty(2)) == pytest.approx(5.0)
        assert pop.e_y2 == pytest.approx(5.0)

    def test_full_pattern_pays_noise_only(self):
        pop = _pop(CORR2, [1.0, 1.0], sigma2=0.7)
        assert oracle_local_risk(pop, FeaturePattern.full(2)) == pytest.approx(0.7)

    def test_correlated_pair_value(self):
        pop = _pop(CORR2, [1.0, 1.0], sigma2=1.0)
        assert oracle_local_risk(pop, FeaturePattern.from_one_based([1], 2)) == pytest.approx(1.75)

    def test_weighted_mixture(self):
        pop = _pop(CORR2, [1.0, 1.0], sigma2=1.0)
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        assert oracle_global_risk(pop, clients) == pytest.approx(1.375)

    def test_equals_risk_at_best_coefficients(self):
        # The attainable risk must equal the risk formula evaluated at the
        # optimizing coefficients, and beat nearby perturbations.
        rng = seeded(405)
        for _ in range(15):
            d = int(rng.integers(1, 6))
            pop = random_population(rng, d)
            pattern = random_clients(rng, d, 1)[0].pattern
            theta = best_local_coefficients(pop, pattern)
            want = block_risk(pop, pattern, theta)
            got = oracle_local_risk(pop, pattern)
            assert got == pytest.approx(want, abs=1e-9)
            bumped = theta + 0.05
            assert block_risk(pop, pattern, bumped) >= got - 1e-12


class TestEffectiveDimension:
    def test_rank_at_zero(self):
        assert effective_dimension(np.eye(4), 0.0) == 4.0
        low = np.diag([3.0, 1.0, 0.0])
        assert effective_dimension(low, 0.0) == 2.0

    def test_identity_halves_at_unit_penalty(self):
        assert effective_dimension(np.eye(4), 1.0) == pytest.approx(2.0)

    def test_vanishes_for_huge_penalty(self):
        sigma = random_population(seeded(406), 5).sigma
        lam = 1e9 * float(np.max(np.linalg.eigvalsh(sigma)))
        assert effective_dimension(sigma, lam) <= 1e-6

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            effective_dimension(np.eye(2), -1.0)

    def test_nonsymmetric_input_is_symmetrized(self):
        # Read as its symmetric part [[2, .5], [.5, 2]] (eigenvalues 2.5 and
        # 1.5), as ridge_bias reads it; the lower triangle alone gives 4/3.
        sigma = np.array([[2.0, 1.0], [0.0, 2.0]])
        got = effective_dimension(sigma, 1.0)
        assert got == pytest.approx(2.5 / 3.5 + 1.5 / 2.5, abs=1e-12)
        assert got == pytest.approx(brute_effective_dimension((sigma + sigma.T) / 2.0, 1.0), abs=1e-12)

    def test_matches_dense_trace(self):
        rng = seeded(407)
        for lam in (0.03, 0.4, 2.0):
            sigma = random_population(rng, 6).sigma
            assert effective_dimension(sigma, lam) == pytest.approx(
                brute_effective_dimension(sigma, lam), abs=1e-9
            )


class TestRidgeBias:
    def test_zero_at_zero_penalty(self):
        sigma = random_population(seeded(408), 4).sigma
        assert ridge_bias(sigma, np.ones(4), 0.0) == 0.0

    def test_scalar_pin(self):
        # d = 1, sigma = 1, ref = 1, lam = 1: value lam w / (w + lam) = 1/2.
        assert ridge_bias(np.eye(1), np.ones(1), 1.0) == pytest.approx(0.5)

    def test_zero_reference(self):
        sigma = random_population(seeded(409), 3).sigma
        assert ridge_bias(sigma, np.zeros(3), 2.0) == pytest.approx(0.0)

    def test_matches_gradient_descent(self):
        rng = seeded(410)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            sigma = random_population(rng, d).sigma
            ref = rng.standard_normal(d)
            lam = float(rng.random() + 0.05)
            got = ridge_bias(sigma, ref, lam)
            want = gd_penalized_distance(sigma, ref, lam)
            assert got == pytest.approx(want, abs=1e-7)


class TestImputedPopulation:
    def test_zero_kind_full_pattern_is_identity_map(self):
        pop = random_population(seeded(411), 3)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        ip = imputed_population_covariance(pop, clients, ImputerKind.ZERO)
        assert np.allclose(ip.sigma, pop.sigma, atol=1e-12)
        assert np.allclose(ip.gamma, pop.sigma @ pop.theta_star, atol=1e-12)

    def test_zero_kind_masks_by_coobservation(self):
        pop = _pop(CORR2, [1.0, 1.0])
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        ip = imputed_population_covariance(pop, clients, ImputerKind.ZERO)
        # Pi = [[1, .5], [.5, .5]]: only client 2 ever sees coordinate 2.
        assert ip.sigma == pytest.approx(np.array([[1.0, 0.25], [0.25, 0.5]]))
        assert ip.gamma == pytest.approx(np.array([1.5, 0.75]))

    def test_optimal_kind_single_client_block(self):
        pop = _pop(CORR2, [1.0, 1.0])
        clients = (ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=1.0),)
        ip = imputed_population_covariance(pop, clients, ImputerKind.OPTIMAL_LINEAR)
        assert ip.sigma == pytest.approx(np.array([[1.0, 0.5], [0.5, 0.25]]))
        assert np.array_equal(ip.theta_prime, pop.theta_star)

    def test_optimal_kind_matches_completion_mixture(self):
        # Independent construction: sigma_I = sum_k rho_k T_k sigma T_k^T
        # with T_k the per-client completion matrix.
        rng = seeded(412)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            pop = random_population(rng, d)
            clients = random_clients(rng, d, int(rng.integers(1, 5)))
            ip = imputed_population_covariance(pop, clients, ImputerKind.OPTIMAL_LINEAR)
            want = np.zeros((d, d))
            for c in clients:
                t = completion_matrix(pop.sigma, c.pattern)
                want += c.rho * t @ pop.sigma @ t.T
            assert np.allclose(ip.sigma, want, atol=1e-9)

    def test_optimal_kind_dominated_by_sigma(self):
        rng = seeded(413)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            pop = random_population(rng, d)
            clients = random_clients(rng, d, int(rng.integers(1, 5)))
            ip = imputed_population_covariance(pop, clients, ImputerKind.OPTIMAL_LINEAR)
            gap = np.linalg.eigvalsh(pop.sigma - ip.sigma)
            assert gap.min() >= -1e-10

    @pytest.mark.parametrize("kind", [ImputerKind.ZERO, ImputerKind.OPTIMAL_LINEAR])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_fold_matches_hand_built_blocks(self, kind, rank_deficient):
        # The oracle folds ImputationMap.complete_moments; the reference is
        # the closed-form block formula it replaced.
        rng = seeded(421 + rank_deficient)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            pop = random_population(rng, d)
            if rank_deficient:
                a = rng.standard_normal((d, int(rng.integers(1, d))))
                pop = _pop(a @ a.T, rng.standard_normal(d))
            clients = random_clients(rng, d, int(rng.integers(1, 6)), nonempty=False)
            ip = imputed_population_covariance(pop, clients, kind)
            sigma, gamma = reference_imputed_population(pop, clients, kind)
            rel = 1e-9 if rank_deficient else 1e-12
            assert_rel_close(ip.sigma, sigma, rel)
            assert_rel_close(ip.gamma, gamma, rel)

    def test_unknown_kind_has_no_population_moments(self):
        pop = random_population(seeded(414), 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        with pytest.raises(ValueError, match="no population moments"):
            imputed_population_covariance(pop, clients, "ice")

    def test_optimal_risk_equals_attainable(self):
        # Optimal-linear imputation then global regression reaches exactly
        # the share-weighted per-pattern optimum.
        rng = seeded(415)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            pop = random_population(rng, d)
            clients = random_clients(rng, d, int(rng.integers(1, 5)))
            ip = imputed_population_covariance(pop, clients, ImputerKind.OPTIMAL_LINEAR)
            assert imputed_oracle_risk(pop, ip) == pytest.approx(
                oracle_global_risk(pop, clients), abs=1e-9
            )


class TestItrBound:
    def test_complete_data_pin(self):
        # Full pattern, identity covariance, lam = 0: the bound collapses to
        # sigma2 + 8 m^2 d / n.
        d, n, m = 3, 50, 2.0
        pop = _pop(np.eye(d), np.full(d, 0.5), sigma2=0.4)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(d), rho=1.0),)
        rep = itr_bound(pop, clients, ImputerKind.ZERO, lam=0.0, n=n, m=m)
        assert rep.bound_value == pytest.approx(0.4 + 8 * m * m * d / n)
        assert rep.b_lambda == 0.0
        assert rep.d_lambda == d

    def test_reference_risk_by_kind(self):
        pop = random_population(seeded(416), 4)
        clients = section3_clients()
        zero = itr_bound(pop, clients, ImputerKind.ZERO, lam=0.1, n=100, m=1.0)
        opt = itr_bound(pop, clients, ImputerKind.OPTIMAL_LINEAR, lam=0.1, n=100, m=1.0)
        assert opt.r_star_reference == pytest.approx(oracle_global_risk(pop, clients), abs=1e-9)
        assert zero.r_star_reference >= opt.r_star_reference - 1e-9

    def test_validation(self):
        pop = random_population(seeded(418), 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        with pytest.raises(ValueError):
            itr_bound(pop, clients, ImputerKind.ZERO, lam=0.1, n=0, m=1.0)
        with pytest.raises(ValueError):
            itr_bound(pop, clients, ImputerKind.ZERO, lam=0.1, n=10, m=-1.0)


class TestLocalBounds:
    def test_single_client_floor_is_zero(self):
        pop = random_population(seeded(419), 3)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        b = local_bound_terms(pop, clients, lam=0.2, n=10, m=1.0)
        assert b.e0 == 0.0

    def test_two_even_clients_n4(self):
        # Each client misses all four draws with probability (1/2)^4, so the
        # floor is e_y2 / 16.
        pop = _pop(np.eye(2), [1.0, 0.0], sigma2=1.0)
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.5),
        )
        b = local_bound_terms(pop, clients, lam=0.0, n=4, m=1.0)
        assert b.e0 == pytest.approx(0.0625 * pop.e_y2)

    def test_dims_sum_observed_sizes_at_zero_penalty(self):
        pop = _pop(np.eye(4), np.ones(4))
        clients = section3_clients()
        b = local_bound_terms(pop, clients, lam=0.0, n=10, m=1.0)
        assert b.sum_local_dims == pytest.approx(2 + 3)

    def test_assembly(self):
        rng = seeded(420)
        pop = random_population(rng, 4)
        clients = section3_clients()
        lam, n, m = 0.3, 25, 1.5
        b = local_bound_terms(pop, clients, lam=lam, n=n, m=m)
        floor = sum(
            c.rho * (b.per_client[c.id][0] + b.per_client[c.id][1]) for c in clients
        )
        assert b.weighted_local_floor == pytest.approx(floor)
        assert b.upper_bound == pytest.approx(b.e0 + 16 * m * m / n * b.sum_local_dims + floor)
        for c in clients:
            assert b.per_client[c.id][3] == pytest.approx(lam / c.rho)

    def test_overlapping_floor_exceeds_zero_imputed_optimum(self):
        # Two identical fully observed clients at rho = 1/2 each fit alone at
        # penalty 2*lam, so the floor is the pooled optimum at 2*lam and sits
        # strictly above the zero-imputed optimum at lam.
        pop = random_population(seeded(422), 3)
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.full(3), rho=0.5),
        )
        lam = 0.4
        b = local_bound_terms(pop, clients, lam=lam, n=10, m=1.0)
        ip0 = imputed_population_covariance(pop, clients, ImputerKind.ZERO)

        def at(penalty):
            return imputed_oracle_risk(pop, ip0) + ridge_bias(ip0.sigma, ip0.theta_prime, penalty)

        excess = b.weighted_local_floor - at(lam)
        assert excess == pytest.approx(
            ridge_bias(pop.sigma, pop.theta_star, 2 * lam) - ridge_bias(pop.sigma, pop.theta_star, lam)
        )
        assert excess > 0
        assert b.weighted_local_floor == pytest.approx(at(2 * lam))

    def test_n_validated(self):
        pop = random_population(seeded(421), 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        with pytest.raises(ValueError):
            local_bound_terms(pop, clients, lam=0.1, n=0, m=1.0)


class TestTypicalCaseLambdaPrime:
    def test_pins(self):
        assert typical_case_lambda_prime(0.7, 1.0) == pytest.approx(0.7)
        assert typical_case_lambda_prime(0.0, 0.5) == pytest.approx(1.0)
        assert typical_case_lambda_prime(1.0, 0.5) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            typical_case_lambda_prime(0.1, 0.0)
        with pytest.raises(ValueError):
            typical_case_lambda_prime(-0.1, 0.5)

    def test_non_finite_value_is_a_value_error(self):
        # tau^2 underflows to zero: this raised ZeroDivisionError
        with pytest.raises(ValueError, match="not finite"):
            typical_case_lambda_prime(0.1, 1e-300)
        # 1 / tau overflows
        with pytest.raises(ValueError, match="not finite"):
            typical_case_lambda_prime(0.0, 5e-324)
        # without a penalty the inflation term vanishes and the rest is finite
        assert typical_case_lambda_prime(0.0, 1e-300) == pytest.approx(1e300)


def _oracle_predictor(pop, clients):
    return ClientwisePredictor(
        thetas={c.id: best_local_coefficients(pop, c.pattern) for c in clients}
    )


class TestMonteCarloRisk:
    def test_zero_predictor_pays_second_moment(self):
        rng = seeded(422)
        pop = random_population(rng, 4)
        clients = section3_clients()
        zero = ClientwisePredictor(thetas={c.id: np.zeros(c.pattern.size) for c in clients})
        mc = monte_carlo_risk([zero], pop, clients, 40_000, rng)[0]
        assert abs(mc.risk - pop.e_y2) <= 4 * mc.stderr

    def test_oracle_predictor_attains_oracle_risk(self):
        rng = seeded(423)
        pop = random_population(rng, 4)
        clients = section3_clients()
        mc = monte_carlo_risk([_oracle_predictor(pop, clients)], pop, clients, 40_000, rng)[0]
        se = np.sqrt(sum(c.rho**2 * mc.per_client[c.id].stderr ** 2 for c in clients))
        assert abs(mc.risk - oracle_global_risk(pop, clients)) <= 4 * se

    def test_decomposes_exactly(self):
        rng = seeded(424)
        pop = random_population(rng, 4)
        clients = section3_clients()
        mc = monte_carlo_risk([_oracle_predictor(pop, clients)], pop, clients, 1001, rng)[0]
        recomposed = sum(c.rho * mc.per_client[c.id].risk for c in clients)
        assert mc.risk == pytest.approx(recomposed, abs=1e-15)
        assert sum(p.draws for p in mc.per_client.values()) == 1001
        assert mc.draws == 1001

    def test_apportionment_tracks_shares(self):
        rng = seeded(425)
        pop = random_population(rng, 3)
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=0.61),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([1], 3), rho=0.29),
            ClientSpec(id=3, pattern=FeaturePattern.from_one_based([2], 3), rho=0.10),
        )
        mc = monte_carlo_risk([_oracle_predictor(pop, clients)], pop, clients, 1000, rng)[0]
        for c in clients:
            assert abs(mc.per_client[c.id].draws - 1000 * c.rho) <= 1.0
            assert mc.per_client[c.id].draws >= 1

    def test_same_seed_bitwise(self):
        pop = random_population(seeded(426), 4)
        clients = section3_clients()
        pred = _oracle_predictor(pop, clients)
        a = monte_carlo_risk([pred], pop, clients, 500, seeded(99))[0]
        b = monte_carlo_risk([pred], pop, clients, 500, seeded(99))[0]
        assert a.risk == b.risk
        assert a.stderr == b.stderr

    def test_client_order_does_not_matter(self):
        pop = random_population(seeded(427), 4)
        clients = section3_clients()
        pred = _oracle_predictor(pop, clients)
        a = monte_carlo_risk([pred], pop, clients, 500, seeded(7))[0]
        b = monte_carlo_risk([pred], pop, tuple(reversed(clients)), 500, seeded(7))[0]
        assert a.risk == b.risk

    def test_shared_sample_scores_each_predictor_as_alone(self):
        rng = seeded(429)
        pop = random_population(rng, 5)
        clients = random_clients(rng, 5, 4)
        preds = [
            _oracle_predictor(pop, clients),
            ClientwisePredictor(thetas={c.id: np.zeros(c.pattern.size) for c in clients}),
            ClientwisePredictor(thetas={c.id: rng.standard_normal(c.pattern.size) for c in clients}, trunc_m=0.5),
        ]
        counts = _apportion(777, [c.rho for c in sorted(clients, key=lambda c: c.id)])

        def bits(mc):
            per = {k: (p.risk.hex(), p.stderr.hex(), p.draws) for k, p in mc.per_client.items()}
            return mc.risk.hex(), mc.stderr.hex(), mc.draws, per

        together = monte_carlo_risk(preds, pop, clients, 777, seeded(11))
        assert len(together) == len(preds)
        for pred, mc in zip(preds, together):
            assert bits(mc) == bits(monte_carlo_risk([pred], pop, clients, 777, seeded(11))[0])
            assert [mc.per_client[c.id].draws for c in sorted(clients, key=lambda c: c.id)] == counts
        assert len({mc.risk for mc in together}) == len(preds)

    def test_tiny_budget_rejected(self):
        pop = random_population(seeded(428), 2)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        with pytest.raises(ValueError):
            monte_carlo_risk([_oracle_predictor(pop, clients)], pop, clients, 1, seeded(1))[0]
