"""Dense small-matrix analysis kernel.

Perron root, Z-sign-pattern and M-matrix tests, nonnegative-inverse solves,
and irreducibility of a nonzero pattern. All matrices here are small (the
models have at most a handful of compartments), so everything uses full
dense decompositions; robustness beats speed at these sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute threshold below which a matrix entry counts as structurally zero.
# Entries are model parameters, not noisy data, so this is generous.
ZERO_TOL = 1e-14

# 1-norm condition number above which a linear system is reported singular.
COND_LIMIT = 1e12


class NonSquareError(ValueError):
    """Matrix argument is not square."""


class SingularMatrixError(ValueError):
    """Linear solve rejected; carries the 1-norm condition number."""

    def __init__(self, cond: float):
        super().__init__(f"matrix numerically singular (condition number {cond:.3e})")
        self.cond = cond


@dataclass(frozen=True)
class SignPatternReport:
    """Sign-pattern and M-matrix summary of a square matrix.

    is_nonsingular_M implies is_Z_pattern and min_real_eig > 0; when the
    Z pattern holds, is_nonsingular_M is equivalent to inverse_nonneg.
    """
    is_Z_pattern: bool
    is_nonsingular_M: bool
    inverse_nonneg: bool
    min_real_eig: float


def _require_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {A.shape}")
    return A


def spectral_radius(A: np.ndarray) -> float:
    """Perron root of a nonnegative square matrix.

    For A >= 0 the spectral radius is itself an eigenvalue (the dominant
    nonnegative one), so we return the largest real part of the spectrum,
    clipped at zero to absorb roundoff on nilpotent patterns.
    """
    A = _require_square(A)
    if A.size and A.min() < -ZERO_TOL:
        raise ValueError("spectral_radius requires a nonnegative matrix")
    if A.size == 0:
        return 0.0
    eigs = np.linalg.eigvals(A)
    return max(float(np.max(eigs.real)), 0.0)


def z_pattern_check(A: np.ndarray) -> bool:
    """True iff every off-diagonal entry is <= 0 (up to ZERO_TOL)."""
    A = _require_square(A)
    off = A - np.diag(np.diag(A))
    return bool(np.all(off <= ZERO_TOL))


def m_matrix_report(A: np.ndarray) -> SignPatternReport:
    """Z-pattern flag, spectral abscissa from below, inverse nonnegativity.

    A nonsingular M-matrix is a Z-pattern matrix whose eigenvalues all have
    positive real part; equivalently its inverse is entrywise nonnegative.
    Both characterizations are computed so callers can cross-check them.
    """
    A = _require_square(A)
    is_z = z_pattern_check(A)
    eigs = np.linalg.eigvals(A)
    min_re = float(np.min(eigs.real)) if A.size else 0.0
    inverse_nonneg = False
    try:
        inv = np.linalg.inv(A)
        inverse_nonneg = bool(np.all(inv >= -1e-10 * (1.0 + np.max(np.abs(inv)))))
    except np.linalg.LinAlgError:
        pass
    is_m = is_z and min_re > ZERO_TOL
    return SignPatternReport(is_Z_pattern=is_z, is_nonsingular_M=is_m,
                             inverse_nonneg=inverse_nonneg, min_real_eig=min_re)


def _inverse_condition(A: np.ndarray):
    """(inv, cond): the inverse of A and its 1-norm condition number.

    cond is ||A||_1 ||A^{-1}||_1, exact rather than estimated; inv is None
    and cond inf when A cannot be inverted.
    """
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None, np.inf
    cond = float(np.linalg.norm(A, 1) * np.linalg.norm(inv, 1))
    return inv, (cond if np.isfinite(cond) else np.inf)


def condition_estimate(A: np.ndarray) -> float:
    """1-norm condition number ||A||_1 ||A^{-1}||_1 (inf if singular)."""
    return _inverse_condition(_require_square(A))[1]


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b, refusing near-singular systems.

    The residual is required to satisfy ||Ax - b||_inf <= 1e-9 (1 + ||b||_inf);
    one step of iterative refinement keeps that bound easy to meet. The
    condition number comes from the same inverse as the solve.
    """
    A = _require_square(A)
    b = np.asarray(b, dtype=float)
    inv, cond = _inverse_condition(A)
    if cond > COND_LIMIT:
        raise SingularMatrixError(cond)
    x = inv @ b
    x = x + inv @ (b - A @ x)
    resid = np.max(np.abs(A @ x - b)) if b.size else 0.0
    bound = 1e-9 * (1.0 + (np.max(np.abs(b)) if b.size else 0.0))
    if resid > bound:
        raise SingularMatrixError(cond)
    return x


def is_irreducible(pattern: np.ndarray) -> bool:
    """True iff the nonzero pattern is irreducible.

    Equivalent formulations: the digraph with an edge j -> i whenever
    pattern[i, j] is nonzero is strongly connected; no simultaneous row and
    column permutation brings the matrix to block-triangular form.
    """
    P = _require_square(np.asarray(pattern))
    # reach[i, j]: a path from j to i; squaring doubles the path lengths
    # covered, so it settles after about log2(n) products
    reach = ((np.abs(P.astype(float)) > ZERO_TOL)
             | np.eye(P.shape[0], dtype=bool))
    while True:
        longer = reach @ reach
        if np.array_equal(longer, reach):
            return bool(reach.all())
        reach = longer


def eigen_spectrum(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, as complex values."""
    A = _require_square(A)
    return np.linalg.eigvals(A)
