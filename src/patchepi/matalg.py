"""Dense small-matrix analysis kernel.

Perron root, Z-sign-pattern and M-matrix tests, nonnegative-inverse solves,
and irreducibility of a nonzero pattern. All matrices here are small (the
models have at most a handful of compartments), so everything uses full
dense decompositions; robustness beats speed at these sizes.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

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


def _require_square(A: np.ndarray, batch: bool = False) -> np.ndarray:
    """A as floats; square, or with batch a stack of squares A[..., n, n]."""
    A = np.asarray(A, dtype=float)
    if (A.ndim < 2 or (A.ndim != 2 and not batch)
            or A.shape[-1] != A.shape[-2]):
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


def is_nonsingular_M(A: np.ndarray) -> bool:
    """True iff A is a nonsingular M-matrix.

    That is a Z-pattern matrix whose eigenvalues all have positive real
    part (beyond ZERO_TOL); equivalently, a Z-pattern matrix whose inverse
    is entrywise nonnegative.
    """
    A = _require_square(A)
    return (A.size > 0 and z_pattern_check(A)
            and float(np.min(np.linalg.eigvals(A).real)) > ZERO_TOL)


def _inverse(A: np.ndarray) -> np.ndarray:
    """np.linalg.inv(A) of a float64 A[..., n, n], bit for bit, without its
    wrapper: a singular matrix gives a NaN block and the invalid-value
    flag, not LinAlgError, so it fails only itself."""
    return _umath_linalg.inv(A)


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, b[..., None])[..., 0] of float64 A[..., n, n] and
    b[..., n], bit for bit, with _inverse's NaN row for a singular A."""
    return _umath_linalg.solve(A, b[..., None])[..., 0]


def _inverse_condition(A: np.ndarray):
    """(inv, cond): the inverse of each matrix of A and its 1-norm condition.

    cond is ||A||_1 ||A^{-1}||_1, exact rather than estimated, and inf when
    a matrix cannot be inverted; its inverse is then NaN. Each matrix of a
    stack gets the bits it would get alone.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        inv = _inverse(A)
    cond = (np.linalg.norm(A, 1, axis=(-2, -1))
            * np.linalg.norm(inv, 1, axis=(-2, -1)))
    cond = np.where(np.isfinite(cond), cond, np.inf)
    return inv, (float(cond) if A.ndim == 2 else cond)


def condition_estimate(A: np.ndarray):
    """1-norm condition number ||A||_1 ||A^{-1}||_1 (inf if singular).

    A stack A[..., n, n] gives one condition number per matrix.
    """
    return _inverse_condition(_require_square(A, batch=True))[1]


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b, refusing near-singular systems.

    The residual is required to satisfy ||Ax - b||_inf <= 1e-9 (1 + ||b||_inf);
    one step of iterative refinement keeps that bound easy to meet. The
    condition number comes from the same inverse as the solve.

    A stack A[..., n, n], b[..., n] solves every system on its own, with the
    bits it would get alone: a refused system does not raise but comes back
    as a row of NaN, so it fails only itself.
    """
    A = _require_square(A, batch=True)
    b = np.asarray(b, dtype=float)
    inv, cond = _inverse_condition(A)
    if A.ndim == 2 and cond > COND_LIMIT:
        raise SingularMatrixError(cond)

    def times(M, v):           # one matrix-vector product per system
        return (M @ v[..., None])[..., 0]

    x = times(inv, b)
    x = x + times(inv, b - times(A, x))
    if b.shape[-1]:
        resid = np.max(np.abs(times(A, x) - b), axis=-1)
        bound = 1e-9 * (1.0 + np.max(np.abs(b), axis=-1))
    else:
        resid = bound = np.zeros(b.shape[:-1])
    refused = (cond > COND_LIMIT) | (resid > bound)
    if A.ndim == 2:
        if refused:
            raise SingularMatrixError(cond)
        return x
    x[refused] = np.nan
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
    """All eigenvalues of a square matrix, as complex values.

    A stack A[..., n, n] gives eigenvalues[..., n], one row per matrix.
    """
    A = _require_square(A, batch=True)
    return np.linalg.eigvals(A)
