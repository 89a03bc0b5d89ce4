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

    Coverage and coefficients are computed once per distinct pattern, and
    its clients share that array. Clients whose pattern touches an uncovered
    moment entry are flagged unidentifiable instead. Adding a client later
    is just another call with the extended list; nothing is fitted jointly.
    """
    clients = tuple(clients)
    for c in clients:
        if c.pattern.d != moments.d:
            raise ValueError(f"client {c.id} dimension {c.pattern.d} != moments {moments.d}")
    patterns = dict.fromkeys(c.pattern for c in clients)
    solved = {p: crop_predictor(moments, p) for p in patterns if moments.covers(p)}
    thetas = {c.id: solved[c.pattern] for c in clients if c.pattern in solved}
    bad = frozenset(c.id for c in clients if c.pattern not in solved)
    return ClientwisePredictor(thetas=thetas, unidentifiable=bad)
