"""One ``np.linalg.eigh`` per symmetric block, the package's only matrix
decomposition. The pseudo-inverse, ridge solve, spectral radius, PSD check
and square root here, and the ridge bias and effective dimension in
``oracle``, all read that one factor. Inverses cut |w| <= 1e-10 max|w|: a
symmetric matrix has singular values |w|, so this is the SVD cutoff.
"""
from __future__ import annotations

import numpy as np


class SymEig:
    """Ascending eigenvalues ``w`` and orthonormal eigenvectors ``q`` of
    (a + a^T) / 2; a 0 x 0 matrix gives empty ones."""

    def __init__(self, a: np.ndarray) -> None:
        a = np.asarray(a, dtype=np.float64)
        self.w, self.q = np.linalg.eigh((a + a.T) / 2.0)

    @classmethod
    def of(cls, a: np.ndarray | SymEig) -> SymEig:
        """``a`` itself if it is already a factor, else the factor of ``a``."""
        return a if isinstance(a, cls) else cls(a)

    def radius(self) -> float:
        """Spectral radius max |w|, 0.0 for a 0 x 0 matrix."""
        return float(np.max(np.abs(self.w), initial=0.0))

    def inverse(self, lam: float = 0.0) -> np.ndarray:
        """Eigenvalues of (a + lam I)^{-1}: 1 / (w + lam), where lam = 0 maps
        |w| <= 1e-10 max|w| to 0 and lam > 0 cuts nothing."""
        if lam != 0:
            return 1.0 / (self.w + lam)
        keep = np.abs(self.w) > 1e-10 * self.radius()
        return np.where(keep, 1.0 / np.where(keep, self.w, 1.0), 0.0)

    def solve(self, b: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """(a + lam I)^{-1} b; at lam = 0 the minimum-norm solution a^+ b."""
        return self.q @ (self.inverse(lam) * (self.q.T @ np.asarray(b, dtype=np.float64)))

    def sqrt(self) -> np.ndarray:
        """Symmetric PSD square root Q sqrt(max(W, 0)) Q^T, symmetrized again."""
        out = (self.q * np.sqrt(np.clip(self.w, 0.0, None))) @ self.q.T
        return (out + out.T) / 2.0

    def check_psd(self, name: str = "matrix") -> None:
        """Raise unless min eigenvalue >= -1e-10 on a normalized scale."""
        if self.w.size and self.w[0] < -1e-10 * max(1.0, self.radius()):
            raise ValueError(f"{name} is not PSD: min eigenvalue {self.w[0]:.3e}")


def pinv(a: np.ndarray | SymEig) -> np.ndarray:
    """Cutoff pseudo-inverse Q diag(w^+) Q^T of a symmetric matrix or its factor."""
    f = SymEig.of(a)
    return (f.q * f.inverse()) @ f.q.T
