"""Plug-in clientwise predictors built from a shared moment pair.

For a pattern O the plug-in coefficients are sigma[O, O]^+ gamma[O], the
population-optimal linear predictor over the observed block when the moments
are exact, and a consistent estimate when they converge entrywise. Because
only cropped moments enter, the same moments serve every pattern, including
ones never seen in training.

Component-wise moments need not be PSD, so inversion defaults to a cutoff
pseudoinverse and an explicit norm-constrained variant is provided: minimize
theta . A theta - 2 b . theta over the Euclidean ball of radius L by
projected gradient descent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import pinv_solve, psd_clip, ridge_solve, spectral_radius
from .model import ClientwisePredictor, FeaturePattern, MomentPair, crop_matrix, crop_vector

__all__ = [
    "PluginConfig",
    "ConstrainedFit",
    "crop_predictor",
    "constrained_crop_predictor",
    "build_clientwise_plugin",
]


@dataclass(frozen=True)
class PluginConfig:
    """Inversion policy for cropped moment systems.

    inversion "pinv": pseudoinverse with the relative cutoff DEFAULT_PINV_RTOL.
    inversion "ridged": solve (A + ridge_eps I) theta = b.
    ``psd_projection`` clips negative eigenvalues of the cropped matrix
    before inversion (off by default; estimators are used as produced).
    ``constraint_l``, when set, switches to the norm-constrained fit.
    """

    inversion: str = "pinv"
    ridge_eps: float = 1e-8
    psd_projection: bool = False
    constraint_l: float | None = None

    def __post_init__(self) -> None:
        if self.inversion not in ("pinv", "ridged"):
            raise ValueError(f"unknown inversion {self.inversion!r}")
        if self.inversion == "ridged" and self.ridge_eps <= 0:
            raise ValueError("ridged inversion needs ridge_eps > 0")
        if self.constraint_l is not None and self.constraint_l <= 0:
            raise ValueError("constraint_l must be > 0 when set")


def _cropped_system(moments: MomentPair, pattern: FeaturePattern, cfg: PluginConfig) -> tuple[np.ndarray, np.ndarray]:
    a = crop_matrix(moments.sigma, pattern, pattern)
    b = crop_vector(moments.gamma, pattern)
    if cfg.psd_projection and a.size:
        a = psd_clip(a)
    return a, b


def crop_predictor(
    moments: MomentPair,
    pattern: FeaturePattern,
    cfg: PluginConfig = PluginConfig(),
) -> np.ndarray:
    """Coefficients sigma[O, O]^+ gamma[O] for one observation pattern.

    Empty patterns get a length-0 vector (the constant-zero predictor).
    Works for any pattern over the same d coordinates, seen in training or
    not.
    """
    a, b = _cropped_system(moments, pattern, cfg)
    if pattern.is_empty:
        return np.zeros(0)
    return ridge_solve(a, b, cfg.ridge_eps if cfg.inversion == "ridged" else 0.0)


@dataclass(frozen=True)
class ConstrainedFit:
    """Result of the ball-constrained quadratic fit."""

    theta: np.ndarray
    converged: bool
    iterations: int
    objective: float


def _project_ball(theta: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def _pgd(a: np.ndarray, b: np.ndarray, radius: float, theta0: np.ndarray, step: float, max_iter: int, tol: float):
    theta = _project_ball(np.asarray(theta0, dtype=np.float64), radius)
    for it in range(1, max_iter + 1):
        grad = a @ theta - b
        nxt = _project_ball(theta - step * grad, radius)
        gap = np.linalg.norm(theta - nxt) / step
        theta = nxt
        if gap <= tol:
            return theta, True, it
    return theta, False, max_iter


def constrained_crop_predictor(
    moments: MomentPair,
    pattern: FeaturePattern,
    radius: float,
    max_iter: int = 10_000,
    tol: float = 1e-9,
    cfg: PluginConfig = PluginConfig(),
) -> ConstrainedFit:
    """Minimize theta . A theta - 2 b . theta over ||theta||_2 <= radius.

    Projected gradient descent with step 1 / lambda_max(|A|) on the scaled
    gradient A theta - b; convergence is declared when the gradient-mapping
    norm drops to ``tol``. A is allowed to be indefinite (component-wise
    moments), so a few deterministic starts are tried and the best final
    objective wins: the projected unconstrained solution, the scaled
    right-hand side, and, when A has a negative eigenvalue, both ends of its
    most negative eigendirection.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    a, b = _cropped_system(moments, pattern, cfg)
    if pattern.is_empty:
        return ConstrainedFit(np.zeros(0), True, 0, 0.0)
    lam_max = spectral_radius(a)
    step = 1.0 / lam_max if lam_max > 0 else 1.0
    starts = [_project_ball(pinv_solve(a, b), radius)]
    if np.linalg.norm(b) > 0:
        starts.append(b / np.linalg.norm(b) * radius)
    w, q = np.linalg.eigh((a + a.T) / 2.0)
    if w[0] < 0:
        starts.append(q[:, 0] * radius)
        starts.append(-q[:, 0] * radius)
    best = None
    for theta0 in starts:
        theta, converged, its = _pgd(a, b, radius, theta0, step, max_iter, tol)
        obj = float(theta @ a @ theta - 2.0 * b @ theta)
        if best is None or obj < best.objective:
            best = ConstrainedFit(theta, converged, its, obj)
    return best


def build_clientwise_plugin(
    moments: MomentPair,
    clients,
    cfg: PluginConfig = PluginConfig(),
    trunc_m: float | None = None,
) -> ClientwisePredictor:
    """Plug-in coefficients for every client from one shared moment pair.

    Clients whose pattern touches an uncovered moment entry are flagged
    unidentifiable instead of receiving coefficients. Adding a client later
    is just another call with the extended list; nothing is fitted jointly.
    """
    thetas: dict[int, np.ndarray] = {}
    bad: set[int] = set()
    for c in clients:
        if c.pattern.d != moments.d:
            raise ValueError(f"client {c.id} dimension {c.pattern.d} != moments {moments.d}")
        if not moments.covers(c.pattern):
            bad.add(c.id)
            continue
        if cfg.constraint_l is not None:
            thetas[c.id] = constrained_crop_predictor(moments, c.pattern, cfg.constraint_l, cfg=cfg).theta
        else:
            thetas[c.id] = crop_predictor(moments, c.pattern, cfg)
    return ClientwisePredictor(thetas=thetas, trunc_m=trunc_m, unidentifiable=frozenset(bad))
