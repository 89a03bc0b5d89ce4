"""Synthetic population and federation generators.

The data model: a full covariate vector X in R^d with E[X X^T] = sigma, a
response Y = theta_star . X + eps with E[eps] = 0, Var(eps) = sigma2, and a
client label H drawn independently of (X, Y) with P(H = k) = rho_k. Each
stored sample keeps only the coordinates observed by its client: a sample is
a client-major ``Dataset`` of per-client observed blocks and one response
vector in the same order, and no (n, d) matrix of it is ever held.

Determinism: every sampler takes a numpy Generator and touches it in a fixed
documented order, so equal seeds give bitwise-equal datasets. A sample is
drawn as labels (``sample_dataset`` only; a stratified Monte-Carlo sample
fixes them in advance), then the covariates, then all noise. Covariates are
drawn in row blocks of a fixed size, which consume the stream exactly as one
call for all of them would. Each block is transformed, gives its rows'
noise-free responses, and writes its rows' observed coordinates into the
clients' arrays at offsets fixed by the labels; pool threads may do this
while the next block is drawn, and since the writes are disjoint the result
does not depend on the thread count. Once the noise is added, one stable
sort of the labels puts the responses in the same client-major order. Replicate-level parallelism should
derive child seeds with ``numpy.random.SeedSequence(root, spawn_key=...)``,
which is stable across processes.

Only the law and the sampler live here: the population co-observation
matrix Pi is ``moments.co_observation`` of the clients' patterns with
weights rho_k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import SymEig
from ._parallel import block_rows, map_ordered, pooled
from .model import ClientSpec, FeaturePattern, Dataset, validate_federation

__all__ = [
    "PopulationSpec",
    "draw_bernoulli_patterns",
    "sample_dataset",
    "population_gamma",
]


@dataclass(frozen=True)
class PopulationSpec:
    """Joint law of (X, Y): covariance, coefficients, noise, design family.

    design "gaussian": X = sigma^{1/2} Z with Z standard normal.
    design "sphere":   X = sigma^{1/2} U with U uniform on the sphere of
    radius sqrt(d), so E[X X^T] = sigma exactly and |theta_star . X| is
    bounded by sqrt(d) * ||sigma^{1/2} theta_star||. ``m_bound`` is derived,
    never given: pairing "sphere" with uniform noise on [-a, a] gives the
    almost-sure response bound sqrt(d) * ||sigma^{1/2} theta_star|| + a, and
    every other design or noise leaves it None (Y is unbounded). The one
    ``SymEig`` of sigma, built for the PSD check, is kept as
    ``sigma_factor``, and ``sqrt_sigma`` is read from it.

    noise "gaussian" has variance sigma2; "uniform" is uniform on
    [-noise_halfwidth, noise_halfwidth] with sigma2 = halfwidth^2 / 3.
    """

    d: int
    sigma: np.ndarray
    theta_star: np.ndarray
    sigma2: float
    noise: str = "gaussian"
    design: str = "gaussian"
    noise_halfwidth: float | None = None
    m_bound: float | None = field(init=False)
    sqrt_sigma: np.ndarray = field(init=False, repr=False)
    sigma_factor: SymEig = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=np.float64)
        t = np.asarray(self.theta_star, dtype=np.float64)
        if s.shape != (self.d, self.d):
            raise ValueError(f"sigma must be ({self.d}, {self.d}), got {s.shape}")
        if t.shape != (self.d,):
            raise ValueError(f"theta_star must be ({self.d},), got {t.shape}")
        s = (s + s.T) / 2.0
        factor = SymEig(s)
        factor.check_psd("sigma")
        if self.noise not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.design not in ("gaussian", "sphere"):
            raise ValueError(f"unknown design kind {self.design!r}")
        if self.noise == "uniform":
            a = self.noise_halfwidth
            if a is None or a < 0:
                raise ValueError("uniform noise needs noise_halfwidth >= 0")
            if abs(self.sigma2 - a * a / 3.0) > 1e-12 * max(1.0, a * a):
                raise ValueError("sigma2 must equal noise_halfwidth^2 / 3 for uniform noise")
        if self.sigma2 < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.sigma2}")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "theta_star", t)
        root = factor.sqrt()
        object.__setattr__(self, "sqrt_sigma", root)
        object.__setattr__(self, "sigma_factor", factor)
        m = None
        if self.design == "sphere" and self.noise == "uniform":
            m = float(np.sqrt(self.d) * np.linalg.norm(root @ t) + self.noise_halfwidth)
        object.__setattr__(self, "m_bound", m)

    @classmethod
    def gaussian(cls, sigma: np.ndarray, theta_star: np.ndarray, sigma2: float = 1.0) -> "PopulationSpec":
        sigma = np.asarray(sigma, dtype=np.float64)
        return cls(d=sigma.shape[0], sigma=sigma, theta_star=theta_star, sigma2=float(sigma2))

    @classmethod
    def bounded(cls, sigma: np.ndarray, theta_star: np.ndarray, noise_halfwidth: float = 1.0) -> "PopulationSpec":
        """Sphere design with uniform noise, which has a response bound."""
        sigma = np.asarray(sigma, dtype=np.float64)
        a = float(noise_halfwidth)
        return cls(d=sigma.shape[0], sigma=sigma, theta_star=theta_star, sigma2=a * a / 3.0,
                   noise="uniform", design="sphere", noise_halfwidth=a)

    @property
    def e_y2(self) -> float:
        """Second moment of the response: sigma2 + theta_star . sigma theta_star."""
        return float(self.sigma2 + self.theta_star @ self.sigma @ self.theta_star)


def draw_bernoulli_patterns(k: int, d: int, tau: float, rng: np.random.Generator) -> list[FeaturePattern]:
    """Draw k patterns, each coordinate observed independently w.p. tau."""
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if k < 1:
        raise ValueError(f"need k >= 1 patterns, got {k}")
    hits = rng.random((k, d)) < tau
    return [FeaturePattern(tuple(np.flatnonzero(row).tolist()), d) for row in hits]


def _row_blocks(n: int, d: int) -> list[tuple[int, int]]:
    """(lo, hi) row ranges of the covariate blocks of an n-row, d-column sample.

    Blocks hold ``_parallel.block_rows(d)`` rows, about ``BLOCK_CELLS``
    floats, whatever the thread count, and the last one takes the
    remainder. So every block starts on a ``ROW_GROUP`` boundary, where
    each row's response rounds as in one product over all rows, and no
    block is a single row unless the sample is: a one-row product goes
    through a different BLAS routine. The sampler holds at most
    3 * threads + 1 blocks at once, so its working memory beyond the rows
    it stores does not grow with n.
    """
    rows = block_rows(d)
    cuts = list(range(rows, n - rows + 1, rows))
    return list(zip([0, *cuts], [*cuts, n]))


def _transform_block(pop: PopulationSpec, z: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the covariate rows made from standard-normal draws z:
    one product with sigma^{1/2}, which a sphere design then scales row by
    row by sqrt(d) / ||z||."""
    np.matmul(z, pop.sqrt_sigma, out=out)
    if pop.design == "sphere":
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        norms[norms == 0] = 1.0
        out *= (np.sqrt(pop.d) / norms)[:, None]


def _draw_noise(pop: PopulationSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if pop.noise == "uniform":
        return rng.uniform(-pop.noise_halfwidth, pop.noise_halfwidth, size=n)
    return np.sqrt(pop.sigma2) * rng.standard_normal(n)


def _draw_rows(pop: PopulationSpec, clients: tuple[ClientSpec, ...], positions: np.ndarray,
               rng: np.random.Generator) -> Dataset:
    """One row per entry of ``positions`` (an index into ``clients``),
    stored client-major: clients in ``clients`` order, each client's rows in
    draw order.

    The calling thread draws the covariates block by block (``_row_blocks``),
    then all noise, so the stream is consumed exactly as by one call for all
    covariates. The labels fix, before any covariate is drawn, how many rows
    of each block every client owns and where in that client's array they
    go. Each block is then transformed, its noise-free responses written,
    its rows stably sorted by client and each client's observed columns
    copied to that client's array; with a ``_parallel.workers`` pool and two
    or more blocks (``_parallel.pooled``), pool threads do this while the
    next block is drawn. The responses are computed in draw order, and after
    the noise is added one stable argsort of ``positions`` reorders them
    client-major.
    """
    if clients[0].pattern.d != pop.d:
        raise ValueError("clients and population disagree on dimension")
    n = len(positions)
    blocks = _row_blocks(n, pop.d)
    counts = np.stack([np.bincount(positions[lo:hi], minlength=len(clients)) for lo, hi in blocks])
    offsets = (np.cumsum(counts, axis=0) - counts).tolist()
    cols = [np.array(c.pattern.observed, dtype=np.intp) for c in clients]
    x_obs = [np.empty((total, len(col))) for total, col in zip(counts.sum(axis=0).tolist(), cols)]
    response = np.empty(n)

    # Every index below is in range; mode="clip" only spares ``take`` the
    # buffered copy of ``out`` that its default mode makes.
    def write(block) -> None:
        b, z = block
        lo, hi = blocks[b]
        x = np.empty_like(z)
        _transform_block(pop, z, x)
        np.matmul(x, pop.theta_star, out=response[lo:hi])
        x.take(np.argsort(positions[lo:hi], kind="stable"), axis=0, out=z, mode="clip")
        ends = np.cumsum(counts[b]).tolist()
        for k, (start, end) in enumerate(zip([0, *ends], ends)):
            if end > start and len(cols[k]):
                at = offsets[b][k]
                z[start:end].take(cols[k], axis=1, out=x_obs[k][at:at + end - start], mode="clip")

    draws = ((b, rng.standard_normal((hi - lo, pop.d))) for b, (lo, hi) in enumerate(blocks))
    if pooled(n, pop.d):
        map_ordered(write, draws)
    else:
        write(next(draws))
    response += _draw_noise(pop, n, rng)
    return Dataset(clients=clients, x_obs={c.id: block for c, block in zip(clients, x_obs)},
                   y=response[np.argsort(positions, kind="stable")])


def sample_dataset(
    pop: PopulationSpec,
    clients,
    n: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw n i.i.d. samples; only observed coordinates are stored.

    Draw order is fixed (labels, then covariates, then noise) so a given
    seed reproduces the dataset bitwise. Labels are categorical over the
    clients in the order given, with probabilities rho; the rest of the
    draw is ``_draw_rows``.
    """
    clients = validate_federation(clients)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rho = np.array([c.rho for c in clients], dtype=np.float64)
    positions = rng.choice(len(clients), size=n, p=rho / rho.sum())
    return _draw_rows(pop, clients, positions, rng)


def population_gamma(pop: PopulationSpec) -> np.ndarray:
    """Cross-moment E[X Y] = sigma theta_star."""
    return pop.sigma @ pop.theta_star
