"""The LAPACK entry points of ``repro.spice.linalg``.

SciPy is a hard dependency, so the module has one kernel family
(``dgetrf``/``dgetrs`` and the fused ``dgesv``).  These tests pin (a)
the fused batched-solver kernels to the separate factor + backsolve
pair bit for bit, plus the plain LU properties the solvers rely on,
and (b) the singular-matrix contract: the scalar entry points raise,
the batched ones report the singular row instead.  The file and class
names date from the pure-NumPy Doolittle fallback these tests once
covered; they are kept so the test IDs stay stable.
"""

import numpy as np
import pytest

from repro.spice import linalg


def random_spd_system(rng, n):
    """A well-conditioned system: diagonally dominant + random rhs."""
    a = rng.normal(0.0, 1.0, size=(n, n))
    a += n * np.eye(n)
    b = rng.normal(0.0, 1.0, size=n)
    return a, b


def fused_solve(a, b):
    """Solve through the transposed fused kernel, as the batch does."""
    a_t = np.ascontiguousarray(a.T)
    x = np.array(b, dtype=float, copy=True)
    factors = linalg.solve_fresh_row_t(a_t, x)
    return factors, x


class TestDoolittleParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40])
    def test_matches_lapack_path(self, n):
        """The fused dgesv kernels return the separate dgetrf/dgetrs
        solution to the last bit, and their factors back-substitute
        to the same bits too."""
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            a, b = random_spd_system(rng, n)
            expected = linalg.lu_backsolve(linalg.lu_factorize(a), b)
            factors, x = fused_solve(a, b)
            assert x.tobytes() == expected.tobytes()
            again = np.array(b, copy=True)
            linalg.lu_backsolve_into(factors, again)
            assert again.tobytes() == expected.tobytes()
            stack = np.ascontiguousarray(np.stack([a.T, a.T]))
            rows = np.stack([b, b])
            assert linalg.solve_rows_t_into(stack, rows) == []
            assert rows.tobytes() == np.stack([expected,
                                               expected]).tobytes()

    def test_solves_permuted_system(self):
        # A zero leading diagonal forces an actual row swap.
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        b = np.array([4.0, 5.0])
        x = linalg.lu_solve_dense(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_multiple_rhs_columns(self):
        rng = np.random.default_rng(7)
        a, _ = random_spd_system(rng, 6)
        rhs = rng.normal(size=(6, 3))
        x = linalg.lu_backsolve(linalg.lu_factorize(a), rhs)
        np.testing.assert_allclose(a @ x, rhs, atol=1e-10)

    def test_input_matrix_not_mutated(self):
        rng = np.random.default_rng(8)
        a, _ = random_spd_system(rng, 5)
        snapshot = a.copy()
        linalg.lu_factorize(a)
        np.testing.assert_array_equal(a, snapshot)


class TestDoolittleSingularContract:
    def test_zero_pivot_raises_like_lapack(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular matrix"):
            linalg.lu_factorize(singular)

    def test_zero_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            linalg.lu_factorize(np.zeros((3, 3)))

    def test_batch_returns_none_for_singular_sample(self):
        rng = np.random.default_rng(9)
        good, b = random_spd_system(rng, 4)
        factors, _x = fused_solve(np.zeros((4, 4)), b)
        assert factors is None
        assert fused_solve(good, b)[0] is not None
        stack = np.ascontiguousarray(
            np.stack([good.T, np.zeros((4, 4)), good.T]))
        rows = np.stack([b, b, b])
        assert linalg.solve_rows_t_into(stack, rows) == [1]
