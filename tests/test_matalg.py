import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchepi import matalg
from reference import m_matrix_characterizations


def test_spectral_radius_known_values():
    assert matalg.spectral_radius(np.array([[2.0, 1.0], [0.0, 3.0]])) == pytest.approx(3.0)
    # circulant shift: eigenvalues on the unit circle
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert matalg.spectral_radius(A) == pytest.approx(1.0)
    assert matalg.spectral_radius(np.zeros((4, 4))) == 0.0


def test_spectral_radius_rejects_negative_and_nonsquare():
    with pytest.raises(ValueError):
        matalg.spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(matalg.NonSquareError):
        matalg.spectral_radius(np.ones((2, 3)))


def test_z_pattern_check():
    assert matalg.z_pattern_check(np.array([[2.0, -1.0], [-3.0, 5.0]]))
    assert matalg.z_pattern_check(np.diag([1.0, -2.0]))  # diagonal is free
    assert not matalg.z_pattern_check(np.array([[2.0, 0.5], [-3.0, 5.0]]))


def test_is_nonsingular_M_known_cases():
    # strictly diagonally dominant Z-matrix: nonsingular M
    A = np.array([[3.0, -1.0], [-1.0, 3.0]])
    inverse_nonneg, min_real_eig = m_matrix_characterizations(A)
    assert (matalg.z_pattern_check(A) and matalg.is_nonsingular_M(A)
            and inverse_nonneg)
    assert min_real_eig == pytest.approx(2.0)
    # Z-pattern but eigenvalue crosses zero: not M, inverse has a negative entry
    A = np.array([[1.0, -2.0], [-2.0, 1.0]])
    inverse_nonneg, _ = m_matrix_characterizations(A)
    assert (matalg.z_pattern_check(A) and not matalg.is_nonsingular_M(A)
            and not inverse_nonneg)
    # not a Z pattern at all
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert not matalg.z_pattern_check(A) and not matalg.is_nonsingular_M(A)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**9), st.floats(0.3, 1.7))
def test_m_matrix_equivalence_property(size, seed, shift):
    """For A = c*rho(B)*I - B with B >= 0: nonsingular M <=> c > 1 <=> inverse >= 0."""
    if abs(shift - 1.0) < 0.05:
        return  # stay clear of the marginal fold
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.0, 1.0, size=(size, size))
    rho = matalg.spectral_radius(B)
    if rho < 1e-9:
        return
    A = shift * rho * np.eye(size) - B
    is_m = matalg.is_nonsingular_M(A)
    inverse_nonneg, min_real_eig = m_matrix_characterizations(A)
    assert matalg.z_pattern_check(A)
    assert is_m == (shift > 1.0)
    if abs(np.linalg.det(A)) > 1e-12:
        assert inverse_nonneg == is_m
    assert is_m == (min_real_eig > 0)


def test_solve_linear_residual_bound():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n = rng.integers(1, 12)
        A = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        b = rng.normal(size=n)
        x = matalg.solve_linear(A, b)
        res = np.max(np.abs(A @ x - b))
        assert res <= 1e-9 * (1.0 + np.max(np.abs(b)))


def test_solve_linear_rejects_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(matalg.SingularMatrixError):
        matalg.solve_linear(A, np.array([1.0, 1.0]))


def test_solve_linear_refines_ill_conditioned():
    # Hilbert 8: cond ~ 1e10, still under the limit; refinement keeps the
    # residual at the bound even though plain LU would lose digits
    n = 8
    A = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    b = np.ones(n)
    x = matalg.solve_linear(A, b)
    assert np.max(np.abs(A @ x - b)) <= 1e-9 * 2.0


def test_stacked_solves_match_single_solves_row_by_row():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(5, 6, 6)) + 4.0 * np.eye(6)
    A[1] = np.outer(np.arange(1.0, 7.0), np.ones(6))     # singular
    A[3] = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-14])      # past COND_LIMIT
    b = rng.normal(size=(5, 6))
    x = matalg.solve_linear(A, b)
    cond = matalg.condition_estimate(A)
    assert x.shape == (5, 6) and cond.shape == (5,)
    for i in range(5):
        assert cond[i] == matalg.condition_estimate(A[i])
        if i in (1, 3):
            # a refused system fails only itself: NaN here, a raise alone
            assert np.isnan(x[i]).all()
            with pytest.raises(matalg.SingularMatrixError):
                matalg.solve_linear(A[i], b[i])
        else:
            assert np.array_equal(x[i], matalg.solve_linear(A[i], b[i]))
    assert cond[1] == np.inf and cond[3] > matalg.COND_LIMIT
    # a stack of well-posed systems takes the batched inverse
    good = A[[0, 2, 4]]
    x = matalg.solve_linear(good, b[[0, 2, 4]])
    for xi, Ai, bi in zip(x, good, b[[0, 2, 4]]):
        assert np.array_equal(xi, matalg.solve_linear(Ai, bi))
    with pytest.raises(matalg.NonSquareError):
        matalg.solve_linear(np.zeros((2, 3, 4)), np.zeros((2, 3)))


def test_inverse_and_solve_give_a_singular_matrix_nan_alone():
    # numpy's inverse and solve bit for bit, without LinAlgError: a singular
    # matrix of the stack comes back as NaN and fails only itself
    rng = np.random.default_rng(28)
    A = rng.normal(size=(4, 5, 5)) * 10.0 ** rng.uniform(-6.0, 6.0, (4, 1, 1))
    A[2] = np.outer(np.arange(1.0, 6.0), np.ones(5))
    b = rng.normal(size=(4, 5))
    with np.errstate(invalid="ignore"):
        inv, x = matalg._inverse(A), matalg._solve(A, b)
    assert np.isnan(inv[2]).all() and np.isnan(x[2]).all()
    for i in (0, 1, 3):
        assert np.array_equal(inv[i], np.linalg.inv(A[i]))
        assert np.array_equal(x[i], np.linalg.solve(A[i], b[i]))
    good = A[[0, 1, 3]]
    assert np.array_equal(matalg._solve(good, b[[0, 1, 3]]),
                          np.linalg.solve(good, b[[0, 1, 3], :, None])[..., 0])


def test_condition_estimate_orders_of_magnitude():
    assert matalg.condition_estimate(np.eye(3)) == pytest.approx(1.0)
    A = np.diag([1.0, 1e-6])
    assert matalg.condition_estimate(A) == pytest.approx(1e6, rel=0.1)
    # the exact 1-norm condition number, not an estimate of it
    B = np.array([[4.0, -1.0, 0.5], [2.0, 3.0, -1.0], [0.0, 1e-3, 2.0]])
    want = np.abs(B).sum(axis=0).max() \
        * np.abs(np.linalg.inv(B)).sum(axis=0).max()
    assert matalg.condition_estimate(B) == pytest.approx(want, rel=1e-12)
    assert matalg.condition_estimate(np.ones((2, 2))) == np.inf


def test_is_irreducible():
    # 3-cycle is irreducible
    cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
    assert matalg.is_irreducible(cyc)
    # chain 1 -> 2 -> 3 is not
    chain = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
    assert not matalg.is_irreducible(chain)
    # trivial 1x1
    assert matalg.is_irreducible(np.array([[0.0]]))


def test_is_irreducible_matches_strong_components():
    import itertools
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    def strongly_connected(P):
        adj = (np.abs(P) > matalg.ZERO_TOL).astype(np.int8)
        np.fill_diagonal(adj, 0)
        return connected_components(csr_matrix(adj), directed=True,
                                    connection="strong")[0] == 1

    cases = [np.array(bits, dtype=float).reshape(3, 3)
             for bits in itertools.product([0, 1], repeat=9)]
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        cases.append(rng.normal(size=(n, n))
                     * (rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.6)))
    for P in cases:
        assert matalg.is_irreducible(P) == strongly_connected(P), P


def test_eigen_spectrum_matches_numpy():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 6))
    got = np.sort_complex(matalg.eigen_spectrum(A))
    want = np.sort_complex(np.linalg.eigvals(A))
    assert np.allclose(got, want)
