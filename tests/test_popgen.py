import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fedmismatch.model import ClientSpec, Dataset, FeaturePattern
from fedmismatch.popgen import (
    PopulationSpec,
    draw_bernoulli_patterns,
    population_gamma,
    sample_dataset,
)
from fedmismatch.moments import co_observation
from fedmismatch import model, popgen
from fedmismatch import _parallel
from fedmismatch._parallel import block_rows, workers

from support import fail_second_block, random_clients, reference_draw_rows, seeded, x_filled


def section3_clients(d=4):
    """obs(1)={1,3}, obs(2)={2,3,4}, rho=(0.5, 0.5): the running small case."""
    return (
        ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 3], d), rho=0.5),
        ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2, 3, 4], d), rho=0.5),
    )


class TestPopulationSpec:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            PopulationSpec.gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_uniform_noise_consistency(self):
        with pytest.raises(ValueError, match="halfwidth"):
            PopulationSpec(d=1, sigma=np.eye(1), theta_star=np.ones(1), sigma2=1.0, noise="uniform",
                           noise_halfwidth=0.3)

    def test_bounded_fills_m(self):
        pop = PopulationSpec.bounded(np.eye(2), np.array([3.0, 4.0]), noise_halfwidth=1.0)
        # sqrt(2) * ||theta|| + 1 with identity covariance
        assert pop.m_bound == pytest.approx(np.sqrt(2) * 5.0 + 1.0)
        assert pop.sigma2 == pytest.approx(1.0 / 3.0)

    def test_response_bound_is_derived(self):
        # The bound follows from the design and the noise; it cannot be given.
        with pytest.raises(TypeError):
            PopulationSpec(d=2, sigma=np.eye(2), theta_star=np.ones(2), sigma2=1.0, m_bound=0.1)
        assert PopulationSpec(d=2, sigma=np.eye(2), theta_star=np.ones(2), sigma2=1.0).m_bound is None
        assert PopulationSpec(d=2, sigma=np.eye(2), theta_star=np.ones(2), sigma2=1.0, design="sphere").m_bound is None
        uniform = dict(sigma2=0.75, noise="uniform", noise_halfwidth=1.5)
        assert PopulationSpec(d=2, sigma=np.eye(2), theta_star=np.ones(2), **uniform).m_bound is None
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        theta = np.array([1.0, -3.0])
        built = PopulationSpec(d=2, sigma=sigma, theta_star=theta, design="sphere", **uniform)
        assert built.m_bound == PopulationSpec.bounded(sigma, theta, noise_halfwidth=1.5).m_bound
        assert built.m_bound == pytest.approx(np.sqrt(2) * np.linalg.norm(built.sqrt_sigma @ theta) + 1.5)

    def test_e_y2(self):
        pop = PopulationSpec.gaussian(2.0 * np.eye(2), np.array([1.0, 1.0]), sigma2=0.5)
        assert pop.e_y2 == pytest.approx(0.5 + 4.0)


class TestBernoulliPatterns:
    def test_tau_one_gives_full_patterns(self):
        pats = draw_bernoulli_patterns(3, 4, 1.0, seeded(0))
        assert all(not p.missing for p in pats)

    def test_inclusion_frequency(self):
        # binomial concentration: per-coordinate frequency within 3 stderr
        k, d, tau = 2000, 10, 0.5
        pats = draw_bernoulli_patterns(k, d, tau, seeded(1))
        freq = np.mean([p.mask() for p in pats], axis=0)
        assert np.all(np.abs(freq - tau) <= 3 * np.sqrt(tau * (1 - tau) / k))

    def test_single_coordinate_probability(self):
        hits = 0
        reps = 10_000
        rng = seeded(2)
        for _ in range(reps):
            (p,) = draw_bernoulli_patterns(1, 1, 0.5, rng)
            hits += not p.missing
        assert abs(hits / reps - 0.5) <= 3 * np.sqrt(0.25 / reps)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            draw_bernoulli_patterns(1, 2, 0.0, seeded(0))


class TestSampleDataset:
    def test_empty(self):
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        ds = sample_dataset(PopulationSpec.gaussian(np.eye(2), np.zeros(2)), clients, 0, seeded(0))
        assert ds.n == 0

    def test_null_model_second_moment(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2), sigma2=1.0)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=1.0),)
        ds = sample_dataset(pop, clients, 100_000, seeded(3))
        assert np.mean(ds.y**2) == pytest.approx(1.0, abs=0.03)

    def test_client_share(self):
        pop = PopulationSpec.gaussian(np.eye(2), np.zeros(2))
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.full(2), rho=0.3),
            ClientSpec(id=2, pattern=FeaturePattern.full(2), rho=0.7),
        )
        ds = sample_dataset(pop, clients, 100_000, seeded(4))
        share = len(ds.y_of(1)) / ds.n
        assert abs(share - 0.3) <= 0.005

    def test_masking_zeroes_unobserved(self):
        pop = PopulationSpec.gaussian(np.eye(4), np.ones(4))
        ds = sample_dataset(pop, section3_clients(), 200, seeded(5))
        rows1 = ds.rows_of(1)
        assert np.all(x_filled(ds)[np.ix_(rows1, [1, 3])] == 0.0)
        assert np.all(x_filled(ds)[np.ix_(rows1, [0, 2])] != 0.0)

    def test_deterministic_given_seed(self):
        pop = PopulationSpec.gaussian(np.eye(3), np.ones(3))
        clients = (ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1, 2], 3), rho=1.0),)
        a = sample_dataset(pop, clients, 50, seeded(6))
        b = sample_dataset(pop, clients, 50, seeded(6))
        np.testing.assert_array_equal(x_filled(a), x_filled(b))
        np.testing.assert_array_equal(a.y, b.y)

    def test_sphere_design_bounds_response(self):
        pop = PopulationSpec.bounded(np.eye(3) + 0.2, np.array([1.0, -2.0, 0.5]), noise_halfwidth=0.7)
        clients = (ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),)
        ds = sample_dataset(pop, clients, 20_000, seeded(7))
        assert np.max(np.abs(ds.y)) <= pop.m_bound
        # sphere normalization keeps E[X X^T] = sigma exactly; check by MC
        x = x_filled(ds)
        emp = x.T @ x / ds.n
        assert np.max(np.abs(emp - pop.sigma)) < 0.05


    @pytest.mark.parametrize("design", ["gaussian", "sphere"])
    def test_matches_out_of_place_expressions(self, design):
        """In-place sphere scaling and per-client blocks give the bytes of the plain expressions."""
        sigma = np.eye(5) + 0.3
        theta = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        if design == "sphere":
            pop = PopulationSpec.bounded(sigma, theta, noise_halfwidth=0.7)
        else:
            pop = PopulationSpec.gaussian(sigma, theta, sigma2=0.7)
        clients = random_clients(seeded(8), 5, 4)
        ds = sample_dataset(pop, clients, 3000, seeded(9))

        rng = seeded(9)
        rho = np.array([c.rho for c in clients])
        positions = rng.choice(len(clients), size=3000, p=rho / rho.sum())
        z = rng.standard_normal((3000, 5))
        x = z @ pop.sqrt_sigma
        if design == "sphere":
            x = x * (np.sqrt(5) / np.sqrt(np.einsum("ij,ij->i", z, z)))[:, None]
            eps = rng.uniform(-0.7, 0.7, size=3000)
        else:
            eps = np.sqrt(0.7) * rng.standard_normal(3000)
        y = x @ pop.theta_star + eps
        start = 0
        for k, c in enumerate(clients):
            rows = np.flatnonzero(positions == k)
            assert ds.rows_of(c.id) == range(start, start + len(rows))
            assert ds.x_obs_of(c.id).tobytes() == x[np.ix_(rows, list(c.pattern.observed))].tobytes()
            assert ds.y_of(c.id).tobytes() == y[rows].tobytes()
            start += len(rows)
        assert ds.n == start


@pytest.fixture
def short_switch():
    """Switch the GIL every 10 us, so pool threads interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestBlockedSampler:
    """Covariates come in blocks of ``block_rows(d)`` rows, each transformed
    and written into the clients' arrays on pool threads while the next block
    is drawn; the bytes are those of the one-shot draw. Five threads are more
    than the cores of a small machine."""

    @staticmethod
    def population(design):
        d = 16
        idx = np.arange(d)
        sigma = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        theta = np.linspace(-1.0, 1.0, d)
        if design == "sphere":
            return PopulationSpec.bounded(sigma, theta, noise_halfwidth=0.7)
        return PopulationSpec.gaussian(sigma, theta, sigma2=0.7)

    @staticmethod
    def federation(d):
        """Four random patterns, one client that observes nothing and one
        whose share is too small to draw a row at these sizes."""
        base = random_clients(seeded(10), d, 4)
        return (
            *(ClientSpec(id=c.id, pattern=c.pattern, rho=0.8 * c.rho) for c in base),
            ClientSpec(id=5, pattern=FeaturePattern.empty(d), rho=0.2 - 1e-9),
            ClientSpec(id=6, pattern=FeaturePattern.from_one_based([2, 5], d), rho=1e-9),
        )

    def test_a_block_is_a_fixed_number_of_cells(self):
        assert [block_rows(d) for d in (1, 8, 10, 64, 512, 4096, 5000, 10**6)] == [
            65536, 8192, 6544, 1024, 128, 16, 16, 16]
        assert popgen._row_blocks(2 * 1024 + 1023, 64) == [(0, 1024), (1024, 3071)]
        assert popgen._row_blocks(15, 10**6) == [(0, 15)]

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("design", ["gaussian", "sphere"])
    def test_matches_one_shot_draw(self, design, threads, monkeypatch, short_switch):
        pop = self.population(design)
        clients = self.federation(pop.d)
        transform = popgen._transform_block
        pooled = []

        def recording(*args):
            pooled.append(threading.current_thread() is not threading.main_thread())
            transform(*args)

        monkeypatch.setattr(popgen, "_transform_block", recording)
        rows = block_rows(pop.d)
        for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 5):
            pooled.clear()
            self.assert_one_shot(pop, clients, n, threads)
            assert len(pooled) == max(1, n // rows)
            assert any(pooled) == (threads > 1 and n >= 2 * rows)

    def test_sampling_and_folding_pool_by_one_rule(self, monkeypatch):
        """Drawing a sample and folding its uploads go to the pool at the
        same sizes: when the sample has two or more blocks."""
        pop = self.population("sphere")
        clients = self.federation(pop.d)
        rows = block_rows(pop.d)
        calls = []
        for module in (popgen, model):
            def counting(fn, items, name=module.__name__, original=module.map_ordered):
                calls.append(name)
                return original(fn, items)

            monkeypatch.setattr(module, "map_ordered", counting)
        for n in (rows, rows + 1, 2 * rows - 1, 2 * rows):
            calls.clear()
            with workers(2):
                assert sample_dataset(pop, clients, n, seeded(11)).uploads
            assert calls == (["fedmismatch.popgen", "fedmismatch.model"] if n >= 2 * rows else []), n

    @staticmethod
    def assert_one_shot(pop, clients, n, threads):
        """Sampling n rows with ``threads`` threads gives the bytes of the
        one-shot draw and leaves the generator where that draw does."""
        rho = np.array([c.rho for c in clients])
        got_rng = seeded(11)
        with workers(threads):
            got = sample_dataset(pop, clients, n, got_rng)
        rng = seeded(11)
        positions = rng.choice(len(clients), size=n, p=rho / rho.sum())
        want = reference_draw_rows(pop, clients, positions, rng)
        assert len(got.rows_of(6)) == 0
        for c in clients:
            block = got.x_obs_of(c.id)
            assert block.shape == (len(want.rows_of(c.id)), c.pattern.size)
            assert block.flags.c_contiguous and not block.flags.writeable
            assert block.tobytes() == want.x_obs_of(c.id).tobytes()
            assert got.rows_of(c.id) == want.rows_of(c.id)
            assert got.y_of(c.id).tobytes() == want.y_of(c.id).tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got_rng.standard_normal(4).tobytes() == rng.standard_normal(4).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize("cells, rows", [(2 * 16, 16), (37 * 16, 32), (2**16, 4096)])
    def test_bytes_do_not_depend_on_block_size(self, cells, rows, threads, monkeypatch, short_switch):
        """Room for 2, 37 and 4,096 rows at d = 16 makes blocks of 16, 32 and
        4,096 rows (a multiple of ROW_GROUP, at least one group), the last
        one taking the remainder; all give the one-shot draw."""
        monkeypatch.setattr(_parallel, "BLOCK_CELLS", cells)
        assert block_rows(16) == rows
        for design in ("gaussian", "sphere"):
            pop = self.population(design)
            self.assert_one_shot(pop, self.federation(pop.d), 2 * 4096 + 5, threads)

    def test_failed_block_surfaces_once_no_block_runs(self):
        for design in ("gaussian", "sphere"):
            pop = self.population(design)
            for threads in (1, 2):
                with pytest.MonkeyPatch.context() as mp, workers(threads):
                    running = fail_second_block(mp, delay=0.05)
                    with pytest.raises(RuntimeError, match="block transform failed"):
                        sample_dataset(pop, self.federation(pop.d), 6 * block_rows(pop.d), seeded(11))
                    assert not running

    def test_sampling_holds_no_n_by_d_matrix(self):
        """Sampling and folding the client sums trace less memory than the
        (n, d) matrix of the sample would take."""
        d, n = 64, 96 * block_rows(64)
        pop = PopulationSpec.gaussian(np.eye(d), np.ones(d), sigma2=1.0)
        clients = tuple(
            ClientSpec(id=k + 1, pattern=FeaturePattern(tuple(range(16 * k, 16 * k + 16)), d), rho=0.25)
            for k in range(4)
        )
        tracemalloc.start()
        try:
            data = sample_dataset(pop, clients, n, seeded(14))
            assert sorted(data.uploads) == [1, 2, 3, 4]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * n * d * 8

    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_sampling_memory_is_a_few_blocks(self, threads):
        """At d = 512, where the sample spans 192 blocks of 128 rows, sampling
        traces beyond the rows it keeps at most 3 * threads + 1 blocks in
        flight, plus three blocks' worth for the n-long labels and responses,
        the per-block bookkeeping and first-call caches."""
        d, n = 512, 3 * 8192
        pop = PopulationSpec.gaussian(np.eye(d), np.ones(d), sigma2=1.0)
        clients = tuple(
            ClientSpec(id=k + 1, pattern=FeaturePattern(tuple(range(8 * k, 8 * k + 8)), d), rho=1 / 64)
            for k in range(64)
        )
        with workers(threads):
            tracemalloc.start()
            try:
                data = sample_dataset(pop, clients, n, seeded(15))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        kept = data.y.nbytes + sum(block.nbytes for block in data.x_obs.values())
        assert peak - kept < (3 * threads + 4) * _parallel.BLOCK_CELLS * 8

    @pytest.mark.parametrize("threads", [2, 5])
    def test_uploads_pooled_equal_serial(self, threads, short_switch):
        pop = self.population("sphere")
        clients = random_clients(seeded(12), pop.d, 5)
        drawn = sample_dataset(pop, clients, 3 * block_rows(pop.d) + 5, seeded(13))

        def fresh():
            return Dataset(clients=clients, x_obs=drawn.x_obs, y=drawn.y)

        serial = fresh().uploads
        with workers(threads):
            pooled = fresh().uploads
        assert list(pooled) == list(serial) == sorted(c.id for c in clients)
        for cid, lm in serial.items():
            assert pooled[cid].count == lm.count
            assert pooled[cid].sigma_sum.tobytes() == lm.sigma_sum.tobytes()
            assert pooled[cid].gamma_sum.tobytes() == lm.gamma_sum.tobytes()


def _population_pi(clients):
    """Pi = co_observation with each client's share rho_k as its weight."""
    return co_observation([c.pattern for c in clients], [c.rho for c in clients])


class TestCoObservation:
    def test_section3_values(self):
        clients = section3_clients()
        pi = _population_pi(clients)
        np.testing.assert_allclose(np.diag(pi), [0.5, 0.5, 1.0, 0.5])
        assert pi[0, 2] == 0.5  # features 1 and 3, both seen by client 1
        assert pi[0, 1] == 0.0  # features 1 and 2 never co-observed
        assert pi[1, 3] == 0.5
        assert pi[2, 3] == 0.5
        # unit weights count the patterns observing each pair
        ones = co_observation([c.pattern for c in clients], [1, 1])
        assert ones.dtype == np.float64
        np.testing.assert_array_equal(ones, 2 * pi)

    def test_full_single_client(self):
        pi = _population_pi((ClientSpec(id=1, pattern=FeaturePattern.full(3), rho=1.0),))
        np.testing.assert_array_equal(pi, np.ones((3, 3)))

    def test_disjoint_patterns(self):
        clients = (
            ClientSpec(id=1, pattern=FeaturePattern.from_one_based([1], 2), rho=0.5),
            ClientSpec(id=2, pattern=FeaturePattern.from_one_based([2], 2), rho=0.5),
        )
        assert _population_pi(clients)[0, 1] == 0.0
        # an empty pattern adds nothing, whatever its weight
        patterns = [c.pattern for c in clients] + [FeaturePattern.empty(2)]
        np.testing.assert_array_equal(co_observation(patterns, [0.5, 0.3, 0.2]), np.diag([0.5, 0.3]))
        with pytest.raises(ValueError):
            co_observation(patterns, [0.5, 0.5])

    def test_no_pattern(self):
        # With no pattern there is no d to shape Pi by.
        with pytest.raises(ValueError, match="no pattern was given"):
            co_observation([], [])


class TestPopulationMoments:
    def test_gamma_examples(self):
        assert population_gamma(PopulationSpec.gaussian(np.eye(2), np.array([1.0, 2.0]))).tolist() == [1.0, 2.0]
        pop = PopulationSpec.gaussian(np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(population_gamma(pop), [1.5, 1.5])
        assert np.all(population_gamma(PopulationSpec.gaussian(np.eye(2), np.zeros(2))) == 0.0)

