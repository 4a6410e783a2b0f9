import numpy as np
import pytest

from polyres.linalg import (
    PRIMES,
    EigenConvergenceError,
    SingularPivotError,
    eig,
    exact_rank,
    float_rref,
    modp_eliminate,
    modp_left_kernel,
    schur_complement,
)
from polyres.oracle import univariate_roots

P = PRIMES[0]


class TestExactRank:
    def test_identity(self):
        assert exact_rank(np.eye(3, dtype=np.int64), 2147483629) == 3

    def test_rank_one_outer(self):
        v = np.arange(1, 5, dtype=np.int64)
        assert exact_rank(np.outer(v, v), P) == 1

    def test_permutation_shuffle_oracle(self, rng):
        m = rng.integers(0, P, size=(10, 7))
        r = exact_rank(m, P)
        perm_rows = rng.permutation(10)
        perm_cols = rng.permutation(7)
        assert exact_rank(m[perm_rows][:, perm_cols], P) == r

    def test_transpose_invariant(self, rng):
        m = rng.integers(0, P, size=(6, 9))
        assert exact_rank(m, P) == exact_rank(m.T, P)

    def test_negative_entries_reduced(self):
        m = np.array([[-1, 1], [P - 1, P + 1]], dtype=np.int64)
        assert exact_rank(m, P) == 1


class TestGJEliminate:
    def test_invertible(self):
        rref, pivots = float_rref(np.array([[2.0, 4.0], [1.0, 3.0]]))
        assert np.allclose(rref, np.eye(2))
        assert pivots == [0, 1]

    def test_rank_deficient(self):
        rref, pivots = float_rref(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.allclose(rref, [[1.0, 2.0], [0.0, 0.0]])
        assert pivots == [0]

    def test_reconstruction(self, rng):
        m = rng.standard_normal((6, 9))
        rref, pivots = float_rref(m)
        assert len(pivots) == 6
        # RREF rows span the same row space: every original row reconstructs
        coeffs = m[:, pivots]
        assert np.allclose(coeffs @ rref[:6], m, atol=1e-10)

    def test_field_rref_rank_matches_exact_rank(self, rng):
        m = rng.integers(0, P, size=(8, 5))
        _, _, pivots = modp_eliminate(m, P, reduce=True)
        assert len(pivots) == exact_rank(m, P)


def _reference_rref(m, p):
    """Textbook Gauss-Jordan over F_p on Python ints, with row swaps."""
    a = [[int(x) % p for x in row] for row in m]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def _first_row_basis(m, p):
    """Rows that raise the rank of the rows before them."""
    ranks = [len(_reference_rref(m[: i + 1], p)[1]) for i in range(len(m))]
    return [i for i in range(len(m)) if ranks[i] > (ranks[i - 1] if i else 0)]


class TestModpEliminate:
    def test_interleaved_dependent_rows(self):
        r0 = np.array([0, 1, 2, 0, 5])
        r2 = np.array([3, 0, 0, 1, 1])
        r4 = np.array([0, 0, 0, 1, 4])
        # rows 1, 3 and 5 are dependent; row 3 sits ahead of independent row 4,
        # and column 0 pivots on row 2, after the unused row 0
        m = np.array([r0, 2 * r0, r2, r0 - r2, r4, 3 * r2 + r4]) % P
        a, rows, cols = modp_eliminate(m, P)
        assert sorted(rows) == _first_row_basis(m, P) == [0, 2, 4]
        assert cols == _reference_rref(m, P)[1] == [0, 1, 3]
        assert not a[[1, 3, 5]].any()

    @pytest.mark.parametrize("p", [7, P])
    def test_random_low_rank_matches_reference(self, rng, p):
        for _ in range(20):
            r, c = rng.integers(1, 9, size=2)
            k = int(rng.integers(1, min(r, c) + 1))
            m = rng.integers(0, p, size=(r, k)) @ rng.integers(0, p, size=(k, c)) % p
            m[rng.integers(0, r)] = 0
            _, rows, cols = modp_eliminate(m, p)
            assert sorted(rows) == _first_row_basis(m, p)
            assert cols == _reference_rref(m, p)[1]
            assert exact_rank(m, p) == len(cols)

    def test_reduce_reproduces_rref(self, rng):
        for _ in range(20):
            m = rng.integers(0, P, size=(6, 3)) @ rng.integers(0, P, size=(3, 8)) % P
            m = np.vstack([m[:2], m[:1] * 5 % P, m[2:]])
            ref, ref_pivots = _reference_rref(m, P)
            a, rows, cols = modp_eliminate(m, P, reduce=True)
            assert cols == ref_pivots
            assert a[rows].tolist() == ref
            assert rows == modp_eliminate(m, P)[1]


def _product_modp(a, b, p):
    """a @ b over F_p in exact integers."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64).reshape(len(a), b.shape[1])


class TestModpLeftKernel:
    @pytest.mark.parametrize("p", [7, P])
    def test_basis_of_the_left_kernel(self, rng, p):
        # random (k = min(r, c)), rank-deficient and zero matrices alike
        for _ in range(40):
            r, c = (int(x) for x in rng.integers(1, 9, size=2))
            k = int(rng.integers(0, min(r, c) + 1))
            m = _product_modp(rng.integers(0, p, size=(r, k)), rng.integers(0, p, size=(k, c)), p)
            ker = modp_left_kernel(m, p)
            assert ker.shape == (r - exact_rank(m, p), r)
            assert exact_rank(ker, p) == len(ker)
            assert not _product_modp(ker, m, p).any()

    def test_zero_kernel(self, rng):
        m = rng.integers(0, P, size=(4, 6))
        assert exact_rank(m, P) == 4
        assert modp_left_kernel(m, P).shape == (0, 4)
        assert modp_left_kernel(np.eye(5, dtype=np.int64), P).shape == (0, 5)

    def test_empty_shapes(self):
        assert modp_left_kernel(np.zeros((3, 0), dtype=np.int64), P).tolist() == np.eye(3).tolist()
        assert modp_left_kernel(np.zeros((0, 4), dtype=np.int64), P).shape == (0, 0)

    def test_dependent_row(self):
        # row 2 = 2 row 0 + 3 row 1: the one kernel vector is (-2, -3, 1)
        m = np.array([[1, 0, 4], [0, 1, 5], [2, 3, 23]])
        assert modp_left_kernel(m, 7).tolist() == [[5, 4, 1]]


class TestSchurComplement:
    def test_worked_univariate(self):
        m = np.array([[-2.0, 1.0], [0.0, 1.0]])
        assert np.allclose(schur_complement(m, (1, 1)), [[2.0]])

    def test_zero_a22_returns_a21(self, rng):
        a11 = rng.standard_normal((2, 3))
        a12 = rng.standard_normal((2, 2))
        a21 = rng.standard_normal((4, 3))
        m = np.block([[a11, a12], [a21, np.zeros((4, 2))]])
        assert np.allclose(schur_complement(m, (2, 3)), a21)

    def test_zero_pivot_raises(self):
        m = np.array([[1.0, 0.0], [2.0, 3.0]])
        with pytest.raises(SingularPivotError):
            schur_complement(m, (1, 1))

    def test_power_of_two_row_scaling_exact(self, rng):
        # rows of [A11 A12] scaled by 2^k, far past what an unscaled pivot
        # solve survives: the equilibration undoes the scaling exactly
        m = rng.standard_normal((7, 7))
        scaled = m.copy()
        scaled[:4] *= np.ldexp(1.0, rng.integers(-600, 600, size=4))[:, None]
        assert np.array_equal(schur_complement(scaled, (4, 3)), schur_complement(m, (4, 3)))

    def test_determinant_identity(self, rng):
        # det(M) = +/- det(A12) det(X); the sign is the parity of the block
        # column swap that moves the pivot block onto the diagonal
        for _ in range(10):
            c1 = int(rng.integers(1, 7))
            c2 = int(rng.integers(1, 7))
            m = rng.standard_normal((c1 + c2, c1 + c2))
            try:
                x = schur_complement(m, (c2, c1))
            except SingularPivotError:
                continue
            det_m = np.linalg.det(m)
            det_prod = np.linalg.det(m[:c2, c1:]) * np.linalg.det(x)
            sign = (-1.0) ** (c1 * c2)
            assert det_m == pytest.approx(sign * det_prod, rel=1e-6)


class TestEig:
    def test_diagonal(self):
        values, _ = eig(np.diag([2.0, 3.0]))
        assert sorted(values.real) == pytest.approx([2.0, 3.0])

    def test_companion_quadratic(self):
        values, _ = eig(np.array([[0.0, 1.0], [-6.0, 5.0]]))
        assert sorted(values.real) == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_rotation(self):
        values, _ = eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert sorted(values.imag) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_residual_invariant_random(self, rng):
        for _ in range(10):
            a = rng.standard_normal((12, 12))
            values, vectors = eig(a)
            fro = np.linalg.norm(a)
            for lam, v in zip(values, vectors.T):
                assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * fro
                assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_companion_matches_oracle(self, rng):
        from helpers import pair_max_dev

        for k in range(2, 9):
            coeffs = rng.standard_normal(k + 1)
            coeffs[-1] = 1.0
            comp = np.zeros((k, k))
            comp[1:, :-1] = np.eye(k - 1)
            comp[:, -1] = -coeffs[:-1]
            assert pair_max_dev(eig(comp)[0], univariate_roots(coeffs)) < 1e-8

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bound_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            eig(np.eye(2), tol=tol)

    def test_unmeetable_tol_names_index(self):
        # a non-normal matrix leaves a rounding-level residual that no
        # computed pair can push to zero, so tol = 0 must fail the postcondition;
        # at 1e200 times the matrix ||A||_F overflows unless it is taken scaled
        a = np.array([[1.0, 3.0], [-2.0, 0.5]])
        for m in (a, 1e200 * a):
            with pytest.raises(EigenConvergenceError, match="eigenpair [01] ") as exc:
                eig(m, tol=0.0)
            assert exc.value.index in (0, 1)
            assert exc.value.residual > 0.0
