"""Small deterministic linear-algebra helpers used across modules."""
from __future__ import annotations

import numpy as np

DEFAULT_PINV_RTOL = 1e-10


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff.

    Singular values below DEFAULT_PINV_RTOL * sigma_max are treated as zero. The 0 x 0
    and empty cases return matching empty shapes.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return np.zeros(a.T.shape)
    u, s, vt = np.linalg.svd(a)
    cut = DEFAULT_PINV_RTOL * s[0] if s.size and s[0] > 0 else 0.0
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def pinv_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of a x = b via the cutoff pseudoinverse."""
    return pinv(a) @ np.asarray(b, dtype=np.float64)


def psd_clip(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by eigenvalue clipping."""
    a = np.asarray(a, dtype=np.float64)
    a = (a + a.T) / 2.0
    w, q = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    out = (q * w) @ q.T
    return (out + out.T) / 2.0


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped."""
    a = np.asarray(a, dtype=np.float64)
    a = (a + a.T) / 2.0
    w, q = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    out = (q * np.sqrt(w)) @ q.T
    return (out + out.T) / 2.0


def spectral_radius(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    w = np.linalg.eigvalsh((a + a.T) / 2.0)
    return float(np.max(np.abs(w)))


def check_psd(a: np.ndarray, name: str = "matrix") -> None:
    """Raise unless min eigenvalue >= -1e-10 on a normalized scale."""
    a = np.asarray(a, dtype=np.float64)
    w = np.linalg.eigvalsh((a + a.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and float(w.min()) < -1e-10 * scale:
        raise ValueError(f"{name} is not PSD: min eigenvalue {w.min():.3e}")
