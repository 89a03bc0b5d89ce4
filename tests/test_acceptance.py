"""Desk-scale acceptance gate.

Twelve checks, one per test, each printing a single line

    [acceptance] C<nn> <name>: PASS|FAIL (<detail>)

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
pass. Every check is either an exact-agreement test against an independent
oracle, a statistical test with an explicit 3-standard-error budget and a
frozen seed, or a closed-form inequality with 1e-9 class slack. Wall-clock
ceilings are part of the criteria and asserted.
"""
import time
from pathlib import Path

import numpy as np

from fedmismatch.cli import _preset_paths, run_experiment
from fedmismatch.impute import ImputationMap
from fedmismatch.model import ClientSpec, FeaturePattern, crop_matrix, validate_federation
from fedmismatch.moments import (
    aggregate_zero_imputed,
    co_observation,
    cw_moments,
    debias_moments,
    local_zero_imputed_moments,
)
from fedmismatch import oracle
from fedmismatch.fedsim import ProtocolSpec, replay_comm_schedule
from fedmismatch.plugin import crop_predictor
from fedmismatch.popgen import (
    PopulationSpec,
    draw_bernoulli_patterns,
    sample_dataset,
)
from fedmismatch.ridge import (
    estimate_m,
    itr_predictor,
    local_learning,
    ridge_closed_form,
)

from support import (
    block_risk,
    brute_effective_dimension,
    brute_schur,
    completion_matrix,
    fedavg_on,
    from_filled,
    gd_penalized_distance,
    gd_quadratic_min,
    random_clients,
    random_population,
    run_on,
    sample_counts,
    seeded,
    sharded,
)

import json


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] C{num:02d} {name}: {status}{extra}")
    assert ok, f"C{num:02d} {name} failed: {detail}"


def _equicorrelated(d: int, c: float) -> np.ndarray:
    return (1 - c) * np.eye(d) + c * np.ones((d, d))


def _uniform_clients(patterns) -> tuple[ClientSpec, ...]:
    k = len(patterns)
    return validate_federation(
        tuple(ClientSpec(id=i + 1, pattern=p, rho=1.0 / k) for i, p in enumerate(patterns))
    )


def test_c01_closed_form_oracle_agreement():
    """Six closed forms match brute-force / gradient-descent oracles to 1e-8
    on 100 random instances with d <= 6."""
    t0 = time.perf_counter()
    rng = seeded(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        pop = random_population(rng, d)
        clients = random_clients(rng, d, int(rng.integers(1, 5)))
        pattern = clients[0].pattern
        obs = list(pattern.observed)
        gamma = pop.sigma @ pop.theta_star

        theta = oracle.best_local_coefficients(pop, pattern)
        theta_gd = gd_quadratic_min(pop.sigma[np.ix_(obs, obs)], gamma[obs])
        worst = max(worst, float(np.max(np.abs(theta - theta_gd))))

        r = oracle.oracle_local_risk(pop, pattern)
        t_mis = pop.theta_star[list(pattern.missing)]
        worst = max(worst, abs(r - (pop.sigma2 + t_mis @ brute_schur(pop.sigma, pattern) @ t_mis)))
        worst = max(worst, abs(r - block_risk(pop, pattern, theta_gd)))

        lam = float(rng.random() * 2 + 0.01)
        b = oracle.ridge_bias(pop.sigma, pop.theta_star, lam)
        worst = max(worst, abs(b - gd_penalized_distance(pop.sigma, pop.theta_star, lam)))

        eff = oracle.effective_dimension(pop.sigma, lam)
        worst = max(worst, abs(eff - brute_effective_dimension(pop.sigma, lam)))

        ip0 = oracle.imputed_population_covariance(pop, clients, ImputationMap())
        pi = np.zeros((d, d))
        for c in clients:
            m = c.pattern.mask().astype(float)
            for l in range(d):
                for j in range(d):
                    pi[l, j] += c.rho * m[l] * m[j]
        worst = max(worst, float(np.max(np.abs(ip0.sigma - pi * pop.sigma))))
        worst = max(worst, float(np.max(np.abs(ip0.gamma - np.diag(pi) * gamma))))
        ipo = oracle.imputed_population_covariance(pop, clients, ImputationMap(pop.sigma))
        mix = np.zeros((d, d))
        for c in clients:
            t = completion_matrix(pop.sigma, c.pattern)
            mix += c.rho * t @ pop.sigma @ t.T
        worst = max(worst, float(np.max(np.abs(ipo.sigma - mix))))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, "closed-form oracle agreement", ok, f"max err {worst:.2e}, {elapsed:.1f}s")


def test_c02_moment_estimator_unbiasedness():
    """Over 10^4 replicates the zero-imputed covariance averages to the
    co-observation-masked target and the rescaled one to the full target,
    entrywise within 3 standard errors."""
    t0 = time.perf_counter()
    d, n, reps = 4, 40, 10_000
    sigma = np.array(
        [
            [1.0, 0.0, 0.3, 0.0],
            [0.0, 1.0, 0.2, 0.25],
            [0.3, 0.2, 1.0, 0.15],
            [0.0, 0.25, 0.15, 1.0],
        ]
    )
    patterns = (
        FeaturePattern.from_one_based([1, 3], d),
        FeaturePattern.from_one_based([2, 3, 4], d),
    )
    clients = _uniform_clients(patterns)
    pi = co_observation(patterns, [c.rho for c in clients])
    chol = np.linalg.cholesky(sigma)
    rng = seeded(20260815)
    positions = rng.integers(0, 2, size=(reps, n))
    zed = rng.standard_normal((reps, n, d))
    y = np.zeros(n)
    obs_lists = [list(p.observed) for p in patterns]

    sum_i0 = np.zeros((d, d))
    sq_i0 = np.zeros((d, d))
    sum_db = np.zeros((d, d))
    sq_db = np.zeros((d, d))
    for r in range(reps):
        x = zed[r] @ chol.T
        locals_ = []
        for k, c in enumerate(clients):
            rows = positions[r] == k
            locals_.append(
                local_zero_imputed_moments(x[rows][:, obs_lists[k]], y[rows], c.pattern)
            )
        pair = aggregate_zero_imputed(locals_)
        deb = debias_moments(pair, pi)
        sum_i0 += pair.sigma
        sq_i0 += pair.sigma**2
        sum_db += deb.sigma
        sq_db += deb.sigma**2

    def _check(total, totalsq, target):
        mean = total / reps
        var = (totalsq - reps * mean**2) / (reps - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / reps)
        gap = np.abs(mean - target)
        return float(np.max(gap - 3.0 * stderr)), gap, stderr

    slack_i0, _, _ = _check(sum_i0, sq_i0, pi * sigma)
    slack_db, _, _ = _check(sum_db, sq_db, sigma)
    elapsed = time.perf_counter() - t0
    ok = slack_i0 <= 1e-12 and slack_db <= 1e-12 and elapsed < 30.0
    _report(
        2,
        "moment estimator unbiasedness",
        ok,
        f"worst 3-stderr slack {max(slack_i0, slack_db):.2e}, {elapsed:.1f}s",
    )


def test_c03_plugin_consistency_and_new_pattern():
    """Component-wise plug-in coefficients converge: median error strictly
    decreasing over n in {1e3, 1e4, 1e5} and <= 0.05 at the top, for every
    training client and for a pattern never seen in training."""
    t0 = time.perf_counter()
    d = 5
    pop = PopulationSpec.gaussian(_equicorrelated(d, 0.3), np.full(d, 0.8), sigma2=1.0)
    patterns = (
        FeaturePattern.from_one_based([1, 2, 4], d),
        FeaturePattern.from_one_based([2, 3, 5], d),
        FeaturePattern.from_one_based([1, 3, 4, 5], d),
    )
    clients = _uniform_clients(patterns)
    held_out = FeaturePattern.from_one_based([2, 5], d)
    eval_patterns = list(patterns) + [held_out]
    targets = [oracle.best_local_coefficients(pop, p) for p in eval_patterns]
    ns = (1_000, 10_000, 100_000)
    seeds = 20

    medians = np.zeros((len(eval_patterns), len(ns)))
    for j, n in enumerate(ns):
        errs = np.zeros((len(eval_patterns), seeds))
        for s in range(seeds):
            data = sample_dataset(pop, clients, n, seeded(3000 + 7 * s + j))
            pair0 = aggregate_zero_imputed(data.uploads.values())
            pair = cw_moments(pair0, sample_counts(data), data.n)
            for i, (p, tgt) in enumerate(zip(eval_patterns, targets)):
                errs[i, s] = float(np.linalg.norm(crop_predictor(pair, p) - tgt))
        medians[:, j] = np.median(errs, axis=1)

    decreasing = bool(np.all(medians[:, 0] > medians[:, 1]) and np.all(medians[:, 1] > medians[:, 2]))
    small_at_top = bool(np.all(medians[:, 2] <= 0.05))
    elapsed = time.perf_counter() - t0
    ok = decreasing and small_at_top and elapsed < 120.0
    _report(
        3,
        "plug-in consistency incl. unseen pattern",
        ok,
        f"top-n medians {np.array2string(medians[:, 2], precision=4)}, {elapsed:.1f}s",
    )


def test_c04_imputed_ridge_risk_certificates():
    """Fitted impute-then-regress risk stays below the assembled certificate
    (reference risk + ridge bias + 8 M^2 d_lam / n) plus 3 MC standard
    errors in every (imputer, lambda, n, seed) configuration."""
    t0 = time.perf_counter()
    d = 10
    sigma = 0.5 ** np.abs(np.arange(d)[:, None] - np.arange(d)[None, :])
    theta = 0.5 * np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    pop = PopulationSpec.bounded(sigma, theta, noise_halfwidth=0.8)
    patterns = (
        FeaturePattern.from_one_based([1, 2, 3, 4, 5, 6], d),
        FeaturePattern.from_one_based([4, 5, 6, 7, 8, 9, 10], d),
        FeaturePattern.from_one_based([1, 2, 7, 8, 9, 10], d),
    )
    clients = _uniform_clients(patterns)
    worst_margin = -np.inf
    checked = 0
    for lam in (0.1, 1.0):
        for n in (200, 2000):
            for zero, imputer in ((True, ImputationMap()), (False, ImputationMap(pop.sigma))):
                for s in range(10):
                    ss = np.random.SeedSequence(41, spawn_key=(int(lam * 10), n, zero, s))
                    data_rng, mc_rng = (np.random.default_rng(c) for c in ss.spawn(2))
                    data = sample_dataset(pop, clients, n, data_rng)
                    m_hat = estimate_m(data)
                    predictor = itr_predictor(imputer, ridge_closed_form(data.uploads, imputer, lam), clients, trunc_m=m_hat)
                    mc = oracle.monte_carlo_risk([predictor], pop, clients, 100_000, mc_rng)[0]
                    bound_value = oracle.itr_bound(pop, clients, imputer, lam, n, m_hat).bound_value
                    margin = bound_value + 3 * mc.stderr - mc.risk
                    worst_margin = max(worst_margin, -margin)
                    checked += 1
                    if not mc.risk <= bound_value + 3.0 * mc.stderr:
                        break
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= 0 and checked == 80 and elapsed < 180.0
    _report(
        4,
        "impute-then-regress risk certificates",
        ok,
        f"{checked} configs, worst overshoot {worst_margin:.2e}, {elapsed:.1f}s",
    )


def test_c05_optimal_imputation_attains_global_optimum():
    """Best risk over predictors linear in optimally imputed features equals
    the share-weighted per-pattern optimum to 1e-10 on 100 instances."""
    t0 = time.perf_counter()
    rng = seeded(51)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        pop = random_population(rng, d)
        clients = random_clients(rng, d, int(rng.integers(1, 6)))
        ip = oracle.imputed_population_covariance(pop, clients, ImputationMap(pop.sigma))
        lhs = oracle.imputed_oracle_risk(pop, ip)
        rhs = oracle.oracle_global_risk(pop, clients)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    _report(5, "optimal imputation attains global optimum", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_c06_comparison_inequalities():
    """Imputed-moment effective dimensions and biases are ordered against
    their complete-data and per-client counterparts on 100 instances.

    Five orderings are asserted, all theorems. The last two bound local
    learning by the penalized zero-imputed optimum. ``zero-floor`` bounds
    the share-weighted local floor, whose client k fits alone at penalty
    lam/rho_k: summed over clients that penalty charges lam once per client
    that observes a feature, so the zero-imputed optimum bounds it only at
    penalty c_max * lam, where c_max is the largest number of clients
    observing one feature (c_max = 1 when no feature is shared; equality for
    two identical fully observed clients). ``unscaled-floor`` bounds the
    floor with every client at penalty lam by the optimum at lam itself.
    """
    t0 = time.perf_counter()
    rng = seeded(61)
    slack = 1e-9
    names = ("opt-dim", "opt-bias", "zero-dim", "zero-floor", "unscaled-floor")
    worst = [-np.inf] * len(names)
    for i in range(100):
        d = int(rng.integers(2, 9))
        pop = random_population(rng, d)
        clients = random_clients(rng, d, int(rng.integers(1, 6)))
        lam = (0.01, 0.1, 1.0)[i % 3]
        ipo = oracle.imputed_population_covariance(pop, clients, ImputationMap(pop.sigma))
        ip0 = oracle.imputed_population_covariance(pop, clients, ImputationMap())
        local = oracle.local_bound_terms(pop, clients, lam, n=10, m=1.0)
        c_max = int(max(sum(c.pattern.mask() for c in clients)))
        zero_optimum = oracle.imputed_oracle_risk(pop, ip0)
        unscaled_floor = sum(
            c.rho
            * (
                oracle.oracle_local_risk(pop, c.pattern)
                + oracle.ridge_bias(
                    crop_matrix(pop.sigma, c.pattern, c.pattern),
                    oracle.best_local_coefficients(pop, c.pattern),
                    lam,
                )
            )
            for c in clients
        )

        gaps = [
            oracle.effective_dimension(ipo.sigma, lam) - oracle.effective_dimension(pop.sigma, lam),
            oracle.ridge_bias(ipo.sigma, ipo.theta_prime, lam)
            - oracle.ridge_bias(pop.sigma, pop.theta_star, lam),
            oracle.effective_dimension(ip0.sigma, lam) - local.sum_local_dims,
            local.weighted_local_floor
            - (zero_optimum + oracle.ridge_bias(ip0.sigma, ip0.theta_prime, c_max * lam)),
            unscaled_floor - (zero_optimum + oracle.ridge_bias(ip0.sigma, ip0.theta_prime, lam)),
        ]
        worst = [max(w, g) for w, g in zip(worst, gaps)]
    elapsed = time.perf_counter() - t0
    ok = max(worst) <= slack
    breakdown = ", ".join(f"{n} {w:+.2e}" for n, w in zip(names, worst))
    _report(6, "comparison inequalities", ok, f"worst gaps: {breakdown}, {elapsed:.1f}s")


def test_c07_typical_case_penalty_inflation():
    """Under Bernoulli(tau) patterns the mean zero-imputed reference risk
    plus bias is covered by the complete-data bias at the inflated penalty
    lam/tau^2 + (1-tau)/tau, within 3 standard errors over 500 draws."""
    t0 = time.perf_counter()
    d, k, draws = 10, 5, 500
    pop = PopulationSpec.gaussian(_equicorrelated(d, 0.2), np.full(d, 0.5), sigma2=1.0)
    rng = seeded(71)
    worst = -np.inf
    for tau in (0.3, 0.6, 0.9):
        pattern_sets = [draw_bernoulli_patterns(k, d, tau, rng) for _ in range(draws)]
        for lam in (0.0, 0.5):
            vals = np.zeros(draws)
            for i, pats in enumerate(pattern_sets):
                clients = _uniform_clients(pats)
                ip = oracle.imputed_population_covariance(pop, clients, ImputationMap())
                vals[i] = oracle.imputed_oracle_risk(pop, ip) + oracle.ridge_bias(
                    ip.sigma, ip.theta_prime, lam
                )
            lhs = float(vals.mean())
            stderr = float(vals.std(ddof=1) / np.sqrt(draws))
            lam_prime = oracle.typical_case_lambda_prime(lam, tau)
            rhs = pop.sigma2 + oracle.ridge_bias(pop.sigma, pop.theta_star, lam_prime)
            worst = max(worst, lhs - (rhs + 3 * stderr))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0 and elapsed < 60.0
    _report(7, "typical-case penalty inflation", ok, f"worst overshoot {worst:.2e}, {elapsed:.1f}s")


def test_c08_fedavg_reaches_closed_form():
    """Averaged gradient descent matches the one-shot ridge solution to 1e-6
    within 10^4 rounds for 20 random shardings, with a non-increasing
    training objective throughout."""
    t0 = time.perf_counter()
    rng = seeded(81)
    n, d, lam = 200, 6, 0.1
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n)
    clients = (ClientSpec(id=1, pattern=FeaturePattern.full(d), rho=1.0),)
    pooled = from_filled(clients=clients, client_ids=np.ones(n, dtype=int), x_filled=x, y=y)
    want = ridge_closed_form(pooled.uploads, ImputationMap(), lam)
    worst_err = 0.0
    worst_rounds = 0
    monotone = True
    diverged = False
    for _ in range(20):
        k = int(rng.integers(1, 7))
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else np.array([], dtype=int)
        bounds = [0, *cuts.tolist(), n]
        res = fedavg_on(*sharded(x, y, bounds), lam=lam, rounds=10_000)
        err = float(np.linalg.norm(res.theta - want))
        worst_err = max(worst_err, err)
        worst_rounds = max(worst_rounds, res.rounds_run)
        diverged |= res.diverged
        trace = np.asarray(res.objective_trace)
        if np.any(np.diff(trace) > 1e-12 * max(1.0, trace[0])):
            monotone = False
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-6 and worst_rounds <= 10_000 and monotone and not diverged
    _report(
        8,
        "federated averaging reaches closed form",
        ok,
        f"worst err {worst_err:.2e} in <= {worst_rounds} rounds, {elapsed:.1f}s",
    )


def _tuned_test_risk(method, pop, clients, data, lam_grid, valid_rng, test_rng, n_eval):
    m_hat = estimate_m(data)
    best = None
    for lam in lam_grid:
        if method == "itr_zero":
            imputer = ImputationMap()
            predictor = itr_predictor(imputer, ridge_closed_form(data.uploads, imputer, lam), clients, trunc_m=m_hat)
        else:
            predictor = local_learning(data.clients, data.uploads, lam, trunc_m=m_hat)
        score = oracle.monte_carlo_risk([predictor], pop, clients, n_eval, valid_rng)[0].risk
        if best is None or score < best[0]:
            best = (score, predictor)
    return oracle.monte_carlo_risk([best[1]], pop, clients, n_eval, test_rng)[0].risk


def test_c09_local_vs_federated_crossover():
    """Zero-imputed global ridge beats per-client fits by more than 3
    combined standard errors when clients are many and data is fragmented,
    and stops winning when two data-rich clients can each fit themselves."""
    t0 = time.perf_counter()
    lam_grid = (0.01, 0.1, 1.0)
    seeds = 10

    # Fragmented regime: many small shards over many coordinates.
    d, k, n, tau = 50, 20, 500, 0.5
    pop_a = PopulationSpec.gaussian(np.eye(d), np.full(d, 0.3), sigma2=1.0)
    risks_a = {"itr_zero": [], "local": []}
    for s in range(seeds):
        ss = np.random.SeedSequence(91, spawn_key=(s,))
        pat_rng, data_rng, valid_rng, test_rng = (np.random.default_rng(c) for c in ss.spawn(4))
        clients = _uniform_clients(draw_bernoulli_patterns(k, d, tau, pat_rng))
        data = sample_dataset(pop_a, clients, n, data_rng)
        for method in risks_a:
            risks_a[method].append(
                _tuned_test_risk(method, pop_a, clients, data, lam_grid, valid_rng, test_rng, 4000)
            )
    mean_itr = float(np.mean(risks_a["itr_zero"]))
    mean_loc = float(np.mean(risks_a["local"]))
    se = float(
        np.sqrt(np.var(risks_a["itr_zero"], ddof=1) / seeds + np.var(risks_a["local"], ddof=1) / seeds)
    )
    fragmented_ok = mean_loc - mean_itr > 3 * se
    margin_a = (mean_loc - mean_itr) / se if se else np.inf

    # Data-rich regime: two clients with 10^4 samples each; per-client fits
    # converge to their own optima while zero-filling keeps a fixed bias.
    d2 = 5
    pop_b = PopulationSpec.gaussian(_equicorrelated(d2, 0.5), np.full(d2, 0.8), sigma2=1.0)
    patterns_b = (
        FeaturePattern.from_one_based([1, 2, 3], d2),
        FeaturePattern.from_one_based([3, 4, 5], d2),
    )
    risks_b = {"itr_zero": [], "local": []}
    for s in range(seeds):
        ss = np.random.SeedSequence(92, spawn_key=(s,))
        data_rng, valid_rng, test_rng = (np.random.default_rng(c) for c in ss.spawn(3))
        clients = _uniform_clients(patterns_b)
        data = sample_dataset(pop_b, clients, 20_000, data_rng)
        for method in risks_b:
            risks_b[method].append(
                _tuned_test_risk(method, pop_b, clients, data, lam_grid, valid_rng, test_rng, 10_000)
            )
    mean_itr_b = float(np.mean(risks_b["itr_zero"]))
    mean_loc_b = float(np.mean(risks_b["local"]))
    se_b = float(
        np.sqrt(np.var(risks_b["itr_zero"], ddof=1) / seeds + np.var(risks_b["local"], ddof=1) / seeds)
    )
    rich_ok = mean_loc_b <= mean_itr_b + 3 * se_b

    elapsed = time.perf_counter() - t0
    ok = fragmented_ok and rich_ok and elapsed < 180.0
    _report(
        9,
        "local-vs-federated crossover",
        ok,
        f"fragmented gap {margin_a:.1f} se, data-rich local-minus-itr {mean_loc_b - mean_itr_b:+.4f}, {elapsed:.1f}s",
    )


def test_c10_empty_client_risk_floor():
    """With 10 clients and 15 draws the measured local-learning risk never
    dips below the empty-client floor minus 3 standard errors."""
    t0 = time.perf_counter()
    d, k, n = 3, 10, 15
    pop = PopulationSpec.gaussian(np.eye(d), np.array([1.0, 0.5, -0.5]), sigma2=1.0)
    clients = _uniform_clients(tuple(FeaturePattern.full(d) for _ in range(k)))
    floor = oracle.local_bound_terms(pop, clients, lam=0.5, n=n, m=1.0).e0
    risks = []
    for s in range(20):
        ss = np.random.SeedSequence(101, spawn_key=(s,))
        data_rng, mc_rng = (np.random.default_rng(c) for c in ss.spawn(2))
        data = sample_dataset(pop, clients, n, data_rng)
        predictor = local_learning(data.clients, data.uploads, 0.5, trunc_m=estimate_m(data))
        risks.append(oracle.monte_carlo_risk([predictor], pop, clients, 4000, mc_rng)[0].risk)
    mean_risk = float(np.mean(risks))
    stderr = float(np.std(risks, ddof=1) / np.sqrt(len(risks)))
    elapsed = time.perf_counter() - t0
    ok = mean_risk >= floor - 3 * stderr
    _report(
        10,
        "empty-client risk floor",
        ok,
        f"risk {mean_risk:.3f} vs floor {floor:.3f}, {elapsed:.1f}s",
    )


def test_c11_communication_audit():
    """Logged transfer totals equal the closed-form schedule for all four
    protocols across a (K, d, rounds) grid, and the one-shot moment uplink
    stays within a factor two of sum_k (|O_k| + 1)^2 floats."""
    t0 = time.perf_counter()
    rng = seeded(111)
    all_exact = True
    theta_scaling = True
    for d in (2, 4, 7):
        for k in (1, 3, 5):
            pop = random_population(rng, d)
            clients = random_clients(rng, d, k)
            data = sample_dataset(pop, clients, 30, rng)
            imputer = ImputationMap()
            senders = [c.pattern for c in clients if len(data.rows_of(c.id))]
            specs = [ProtocolSpec(kind="one_shot_moments"), ProtocolSpec(kind="one_shot_ridge", lam=0.1)]
            specs += [ProtocolSpec(kind="federated_ice", ice_rounds=t) for t in (0, 2, 5)]
            specs += [ProtocolSpec(kind="fedavg_ridge", lam=0.1, rounds=r) for r in (1, 5)]
            for spec in specs:
                res = run_on(spec, data, imputer)
                pred = replay_comm_schedule(spec, senders)
                if (
                    res.comm.total_floats("up") != pred.up_floats
                    or res.comm.total_floats("down") != pred.down_floats
                    or res.comm.total_bits() != pred.registration_bits
                ):
                    all_exact = False
                if spec.kind == "one_shot_moments":
                    up = res.comm.total_floats("up")
                    scale = sum((p.size + 1) ** 2 for p in senders)
                    if not (scale / 2 <= up <= 2 * scale):
                        theta_scaling = False
    elapsed = time.perf_counter() - t0
    ok = all_exact and theta_scaling
    _report(11, "communication audit", ok, f"grid exact={all_exact}, scaling={theta_scaling}, {elapsed:.1f}s")


def test_c12_preset_determinism(tmp_path):
    """Every shipped preset writes bitwise-identical result CSVs across two
    runs with the same root seed."""
    t0 = time.perf_counter()
    presets = _preset_paths()
    all_same = True
    names = []
    for p in presets:
        raw = json.loads(p.read_text(encoding="utf-8"))
        a, _ = run_experiment(raw, str(tmp_path / f"{p.name}-a"))
        b, _ = run_experiment(raw, str(tmp_path / f"{p.name}-b"))
        content = Path(a).read_bytes()
        same = content == Path(b).read_bytes() and content.count(b"\n") > 1
        all_same = all_same and same
        names.append(p.name)
    elapsed = time.perf_counter() - t0
    ok = all_same and len(presets) >= 6
    _report(12, "preset determinism", ok, f"{len(names)} presets, {elapsed:.1f}s")
