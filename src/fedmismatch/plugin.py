"""Plug-in clientwise predictors built from a shared moment pair.

For a pattern O the plug-in coefficients are sigma[O, O]^+ gamma[O], the
population-optimal linear predictor over the observed block when the moments
are exact, and a consistent estimate when they converge entrywise. Because
only cropped moments enter, the same moments serve every pattern, including
ones never seen in training. Each solve reads one ``eigh`` of the cropped
block and cuts eigenvalues with |w| <= 1e-10 max|w|. Component-wise
moments need not be PSD; they are inverted as produced.
"""
from __future__ import annotations

import numpy as np

from ._linalg import SymEig
from .model import ClientwisePredictor, FeaturePattern, MomentPair, crop_matrix, crop_vector

__all__ = [
    "crop_predictor",
    "build_clientwise_plugin",
]


def crop_predictor(moments: MomentPair, pattern: FeaturePattern) -> np.ndarray:
    """Coefficients sigma[O, O]^+ gamma[O] for one observation pattern.

    Empty patterns get a length-0 vector (the constant-zero predictor).
    Works for any pattern over the same d coordinates, seen in training or
    not.
    """
    block = SymEig(crop_matrix(moments.sigma, pattern, pattern))
    return block.solve(crop_vector(moments.gamma, pattern))


def build_clientwise_plugin(moments: MomentPair, clients) -> ClientwisePredictor:
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
        if moments.covers(c.pattern):
            thetas[c.id] = crop_predictor(moments, c.pattern)
        else:
            bad.add(c.id)
    return ClientwisePredictor(thetas=thetas, unidentifiable=frozenset(bad))
