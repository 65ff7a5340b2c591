"""Dense 64-bit linear algebra helpers used throughout the simulator.

Everything operates on 2-D float64 numpy arrays.  Decompositions are
numpy's LAPACK routines; like every matrix product in the simulator they
are deterministic for a given machine and numpy/BLAS build.
"""

from __future__ import annotations

import numpy as np

_STOCHASTIC_TOL = 1e-9


def check_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject NaN/Inf entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def frobenius_norm(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.sum(a * a)))


def orthonormal_complement(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the subspace orthogonal to the columns of ``m``.

    ``m`` must have orthonormal columns.  An n x 0 input yields the identity;
    a square orthonormal input yields an n x 0 result.  The complement is
    taken from the trailing left singular vectors of ``m`` so that
    ``[m | complement]`` is square orthogonal.
    """
    m = check_matrix(m, "basis")
    n, r = m.shape
    if r > n:
        raise ValueError(f"basis has more columns ({r}) than rows ({n})")
    if r == 0:
        return np.eye(n)
    gram = m.T @ m
    defect = float(np.max(np.abs(gram - np.eye(r))))
    if defect > 1e-8:
        raise ValueError(
            f"input columns are not orthonormal (Gram defect {defect:.3e})"
        )
    if r == n:
        return np.zeros((n, 0))
    u, _, _ = np.linalg.svd(m)
    return u[:, r:].copy()


def _check_doubly_stochastic(w: np.ndarray) -> None:
    row_res = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    if max(row_res, col_res) > _STOCHASTIC_TOL:
        raise ValueError(
            "matrix is not doubly stochastic "
            f"(row residual {row_res:.3e}, column residual {col_res:.3e})"
        )


def spectral_radius_nontrivial(w: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the disagreement operator of ``w``.

    For a doubly stochastic ``w`` this is the contraction factor on the
    subspace orthogonal to consensus, i.e. the spectral radius of
    ``(I - (1/N) 1 1^T) w``.  Directed topologies give complex eigenvalues,
    hence the general (non-symmetric) eigensolver.
    """
    w = check_matrix(w, "mixing matrix")
    n = w.shape[0]
    if w.shape[1] != n:
        raise ValueError(f"mixing matrix must be square, got {w.shape}")
    _check_doubly_stochastic(w)
    if n == 1:
        return 0.0
    b = (np.eye(n) - np.full((n, n), 1.0 / n)) @ w
    if frobenius_norm(b) < 1e-14:
        return 0.0
    radius = float(np.max(np.abs(np.linalg.eigvals(b))))
    # a doubly stochastic matrix cannot contract by less than 0 or expand;
    # trim eigensolver rounding that lands a hair outside [0, 1]
    return min(max(radius, 0.0), 1.0)
