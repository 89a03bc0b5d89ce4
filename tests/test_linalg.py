"""Tests for the shared eigendecomposition and what is read from it.

Each routine is checked against a numpy reference computed without the
package: ``np.linalg.pinv`` (hermitian, same relative cutoff), dense
``np.linalg.solve`` and ``np.linalg.eigvalsh``. The count tests pin the
design: every decomposition in the package is one ``np.linalg.eigh``, and a
symmetric block that feeds several quantities is decomposed once.
"""
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedmismatch import cli, impute, oracle
from fedmismatch._linalg import SymEig, pinv
from fedmismatch.impute import ImputationMap
from fedmismatch.model import ClientSpec, FeaturePattern, MomentPair
from fedmismatch.plugin import build_clientwise_plugin
from fedmismatch.popgen import population_gamma

from support import random_clients, random_population, seeded

KINDS = ("psd", "singular", "indefinite", "empty")
POSITIVE = st.floats(1e-3, 1e3)


def _rotated(eigenvalues: list[float], seed: int) -> np.ndarray:
    """Q diag(eigenvalues) Q^T, symmetrized, with Q a random rotation."""
    d = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    a = (q * np.asarray(eigenvalues, dtype=np.float64)) @ q.T
    return (a + a.T) / 2.0


def symmetric(kind: str) -> st.SearchStrategy:
    """Symmetric matrices of one kind. Nonzero eigenvalues have modulus in
    [1e-3, 1e3], far above the 1e-10 relative cutoff; zero ones come out at
    rounding level, far below it. ``indefinite`` is what a component-wise
    moment estimate can be."""
    if kind == "empty":
        return st.just(np.zeros((0, 0)))
    spectra = {
        "psd": st.lists(POSITIVE, min_size=1, max_size=6),
        "singular": st.tuples(st.lists(POSITIVE, min_size=1, max_size=4), st.integers(1, 2)).map(
            lambda t: t[0] + [0.0] * t[1]),
        "indefinite": st.tuples(st.lists(POSITIVE, min_size=1, max_size=3),
                                st.lists(POSITIVE, min_size=1, max_size=3), st.integers(0, 1)).map(
            lambda t: t[0] + [-x for x in t[1]] + [0.0] * t[2]),
    }[kind]
    return st.builds(_rotated, spectra, st.integers(0, 2**32 - 1))


def _scale(a: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(a), initial=0.0)))


class TestPinv:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_matches_numpy_hermitian_pinv(self, kind, data):
        a = data.draw(symmetric(kind))
        want = np.linalg.pinv(a, rcond=1e-10, hermitian=True)
        got = pinv(a)
        assert got.shape == want.shape
        # Condition numbers reach 1e6, so any stable method may differ by ~1e6 eps.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * _scale(want))

    @given(symmetric("singular"))
    def test_factor_and_matrix_give_the_same_bytes(self, a):
        assert np.array_equal(pinv(SymEig(a)), pinv(a))

    def test_cutoff_is_relative_to_the_largest_modulus(self):
        # |w| = 1e-11 sits below 1e-10 * 1 and is cut; 1e-9 is kept.
        assert pinv(np.diag([-1.0, 1e-11])) == pytest.approx(np.diag([-1.0, 0.0]))
        assert pinv(np.diag([1.0, -1e-9])) == pytest.approx(np.diag([1.0, -1e9]))

    def test_zero_matrix_gives_zero(self):
        assert np.array_equal(pinv(np.zeros((3, 3))), np.zeros((3, 3)))


class TestSolve:
    @pytest.mark.parametrize("kind", ("psd", "singular", "empty"))
    @given(data=st.data(), lam=POSITIVE)
    def test_ridge_matches_dense_solve(self, kind, data, lam):
        a = data.draw(symmetric(kind))
        b = np.asarray(data.draw(st.lists(st.floats(-10, 10), min_size=len(a), max_size=len(a))))
        want = np.linalg.solve(a + lam * np.eye(len(a)), b)
        got = SymEig(a).solve(b, lam)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * _scale(want))

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_zero_penalty_is_the_pseudo_inverse(self, kind, data):
        a = data.draw(symmetric(kind))
        b = np.asarray(data.draw(st.lists(st.floats(-10, 10), min_size=len(a), max_size=len(a))))
        want = pinv(a) @ b
        np.testing.assert_allclose(SymEig(a).solve(b), want, rtol=0, atol=1e-9 * _scale(want))

    def test_minimum_norm_on_a_singular_block(self):
        # [[1, 1], [1, 1]] x = (2, 2): the minimum-norm solution is (1, 1).
        assert SymEig(np.ones((2, 2))).solve(np.array([2.0, 2.0])) == pytest.approx([1.0, 1.0])


class TestSpectrum:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_radius_is_largest_modulus(self, kind, data):
        a = data.draw(symmetric(kind))
        want = float(np.max(np.abs(np.linalg.eigvalsh(a)), initial=0.0))
        assert SymEig(a).radius() == pytest.approx(want, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_psd_check_follows_the_smallest_eigenvalue(self, kind, data):
        a = data.draw(symmetric(kind))
        w = np.linalg.eigvalsh(a)
        negative = bool(w.size) and w.min() < -1e-10 * max(1.0, float(np.max(np.abs(w))))
        assert negative == (kind == "indefinite")
        if negative:
            with pytest.raises(ValueError, match="not PSD"):
                SymEig(a).check_psd()
        else:
            SymEig(a).check_psd()

    def test_psd_check_tolerance(self):
        SymEig(np.diag([1.0, -1e-11])).check_psd()
        with pytest.raises(ValueError, match="sigma is not PSD: min eigenvalue -1.000e-09"):
            SymEig(np.diag([1.0, -1e-9])).check_psd("sigma")

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_sqrt_squares_to_the_clipped_spectrum(self, kind, data):
        # Squares are compared because sqrt magnifies rounding-level
        # eigenvalues near 0.
        a = data.draw(symmetric(kind))
        root = SymEig(a).sqrt()
        assert np.array_equal(root, root.T)
        want = np.clip(np.linalg.eigvalsh(a), 0.0, None)
        np.testing.assert_allclose(np.linalg.eigvalsh(root) ** 2, want, rtol=0, atol=1e-9 * _scale(a))
        if kind != "indefinite":
            np.testing.assert_allclose(root @ root, a, rtol=0, atol=1e-9 * _scale(a))


@pytest.fixture
def eigh_calls(monkeypatch):
    """Arguments of every ``np.linalg.eigh`` call; any other decomposition raises."""
    calls, eigh = [], np.linalg.eigh

    def counting(a):
        calls.append(np.array(a))
        return eigh(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("only np.linalg.eigh may decompose a matrix")

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for name in ("svd", "eigvalsh", "solve", "pinv", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    return calls


def _repeating_federation(rng):
    """Seven clients on d = 5 that share three patterns, in an interleaved
    order, with distinct random shares."""
    patterns = [c.pattern for c in random_clients(rng, 5, 3, nonempty=True)]
    patterns[2] = FeaturePattern.full(5)
    return tuple(ClientSpec(id=c.id, pattern=patterns[i % 3], rho=c.rho)
                 for i, c in enumerate(random_clients(rng, 5, 7)))


class TestOneFactorPerBlock:
    def test_local_bound_terms_factors_each_pattern_once(self, eigh_calls):
        rng = seeded(1601)
        pop = random_population(rng, 5)
        clients = _repeating_federation(rng)
        eigh_calls.clear()
        bounds = oracle.local_bound_terms(pop, clients, lam=0.4, n=50, m=1.0)
        assert len(eigh_calls) == len({c.pattern for c in clients}) < len(clients)
        assert bounds.sum_local_dims > 0 and bounds.weighted_local_floor > 0

    def test_oracle_global_risk_factors_each_pattern_once(self, eigh_calls):
        rng = seeded(1603)
        pop = random_population(rng, 5)
        clients = _repeating_federation(rng)
        eigh_calls.clear()
        risk = oracle.oracle_global_risk(pop, clients)
        assert len(eigh_calls) == len({c.pattern for c in clients}) < len(clients)
        # The per-client fold keeps its terms and their order.
        assert risk == float(sum(c.rho * oracle.oracle_local_risk(pop, c.pattern) for c in clients))

    def test_build_clientwise_plugin_factors_each_covered_pattern_once(self, eigh_calls):
        rng = seeded(1604)
        pop = random_population(rng, 5)
        observed = ([1, 3], [2, 3, 4], [1, 2, 3, 4, 5])
        clients = tuple(ClientSpec(id=c.id, pattern=FeaturePattern.from_one_based(observed[i % 3], 5), rho=c.rho)
                        for i, c in enumerate(random_clients(rng, 5, 7)))
        patterns = list(dict.fromkeys(c.pattern for c in clients))
        # Features 1 and 2 are never observed together, so the full pattern
        # is not identified and the other two are.
        coverage = np.ones((5, 5), dtype=bool)
        coverage[0, 1] = coverage[1, 0] = False
        moments = MomentPair(pop.sigma, population_gamma(pop), coverage)
        covered = [p for p in patterns if moments.covers(p)]
        eigh_calls.clear()
        predictor = build_clientwise_plugin(moments, clients)
        assert len(eigh_calls) == len(covered) == 2
        assert sorted(predictor.thetas) == [c.id for c in clients if c.pattern != patterns[2]]
        assert predictor.unidentifiable == {c.id for c in clients if c.pattern == patterns[2]}

    @pytest.mark.parametrize("optimal", [False, True], ids=["zero", "optimal"])
    def test_itr_bound_reads_bias_and_dimension_from_one_factor(self, eigh_calls, optimal):
        rng = seeded(1602)
        pop = random_population(rng, 5)
        clients = random_clients(rng, 5, 4)
        imputer = ImputationMap(pop.sigma) if optimal else ImputationMap()
        for c in clients:  # a fitted map has formed its clients' S, one eigh of sigma_OO each
            imputer.maps[c.pattern]
        eigh_calls.clear()
        report = oracle.itr_bound(pop, clients, imputer, lam=0.3, n=100, m=1.0)
        # theta_prime, the bias and the dimension all read one factor of sigma_I.
        assert len(eigh_calls) == 1
        ip = oracle.imputed_population_covariance(pop, clients, imputer)
        assert np.array_equal(eigh_calls[0], ip.sigma)
        assert report.r_star_reference == oracle.imputed_oracle_risk(pop, ip)
        assert report.b_lambda > 0 and report.d_lambda > 0

    def test_bound_verification_item_fits_and_factors_each_block_once(self, monkeypatch, tmp_path):
        # One work item of the preset: itr_opt's map is fitted once (one S
        # per pattern) and the oracle reads that map; each method factors
        # its ridge's sigma_hat and its sigma_I once.
        cfg = json.loads(resources.files("fedmismatch").joinpath("presets/bound_verification.json").read_text())
        cfg["grid"], cfg["seeds"]["replicates"] = {"n": [300], "lam": [0.1]}, 1
        d = cfg["population"]["d"]
        blocks, shapes = [], []
        optimal_block_map, eigh = impute.optimal_block_map, np.linalg.eigh

        def counting_map(sigma, pattern):
            blocks.append(pattern)
            return optimal_block_map(sigma, pattern)

        def counting_eigh(a):
            shapes.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(impute, "optimal_block_map", counting_map)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cli.run_experiment(cfg, str(tmp_path), seed=100)
        assert len(blocks) == len(set(blocks)) == 3
        # Four d x d factors, plus the population's own PSD check.
        assert shapes.count((d, d)) == 4 + 1
