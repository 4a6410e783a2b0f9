import numpy as np
import pytest

from polyres.linalg import (
    PRIMES,
    RCOND_MIN,
    EigenConvergenceError,
    SingularPivotError,
    eig,
    exact_rank,
    finite_scale,
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


def _float_gj_loop(m):
    """float_rref of one matrix as a plain row loop: the reference."""
    a = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64)
    rows, cols = a.shape
    tol = max(rows, cols) * np.finfo(np.float64).eps * max(np.abs(a).max(initial=0.0), 1.0)
    ok = True
    with np.errstate(all="ignore"):
        for c in range(rows):
            p = c + int(np.abs(a[c:, c]).argmax())
            ok = ok and not abs(a[p, c]) <= tol
            a[[c, p]] = a[[p, c]]
            a[c] = a[c] / a[c, c]
            for r in range(rows):
                if r != c and abs(a[r, c]) > 0:
                    a[r] = a[r] - a[r, c] * a[c]
    return a, ok


class TestGJEliminate:
    def test_invertible(self):
        rref, ok = float_rref(np.array([[2.0, 4.0], [1.0, 3.0]]))
        assert np.allclose(rref, np.eye(2))
        assert ok is True

    def test_rank_deficient(self):
        rref, ok = float_rref(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0]]))
        assert ok is False
        # a pivot at the tolerance max(rows, cols) * eps counts as zero
        tol = 3 * np.finfo(np.float64).eps
        assert float_rref(np.array([[tol, 0.0, 1.0], [0.0, 1.0, 1.0]]))[1] is False
        assert float_rref(np.array([[np.nextafter(tol, 1.0), 0.0, 1.0], [0.0, 1.0, 1.0]]))[1] is True

    def test_reconstruction(self, rng):
        m = rng.standard_normal((6, 9))
        rref, ok = float_rref(m)
        assert ok and np.allclose(rref[:, :6], np.eye(6), atol=1e-12)
        # [I | L^-1 R] spans the row space of m: L times it is m again
        assert np.allclose(m[:, :6] @ rref, m, atol=1e-10)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_plain_loop(self, rng, complex_):
        # bit for bit, signs of zeros included: a row is cleared only where
        # its entry in the pivot column is nonzero
        for _ in range(60):
            rows = int(rng.integers(1, 9))
            m = rng.integers(-2, 3, size=(rows, rows + int(rng.integers(0, 5)))).astype(np.float64)
            m[m == 0] = rng.choice([0.0, -0.0], size=int((m == 0).sum()))
            if complex_:
                m = m + 1j * rng.integers(-1, 2, size=m.shape)
            rref, ok = float_rref(m)
            want, want_ok = _float_gj_loop(m)
            assert _same_bits(rref, want) and ok == want_ok

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


def _schur_by_numpy(m, split):
    """schur_complement with its right-hand side from np.hstack and np.eye
    and its 1-norms from np.linalg.norm: the oracle of its one buffer and
    its own reductions."""
    top, left = split
    a = np.asarray(m)
    _, row_exp = np.frexp(np.max(np.abs(a[:top]), axis=1))
    upper = a[:top] * np.ldexp(1.0, -row_exp)[:, None]
    _, col_exp = np.frexp(np.max(np.abs(upper[:, left:]), axis=0))
    col_scale = np.ldexp(1.0, -col_exp)
    a12 = upper[:, left:] * col_scale
    try:
        sol = np.linalg.solve(a12, np.hstack([upper[:, :left], np.eye(top)]))
    except np.linalg.LinAlgError:
        return 0.0
    rcond = 1.0 / (np.linalg.norm(a12, 1) * np.linalg.norm(sol[:, left:], 1))
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        return float(rcond)
    return a[top:, :left] - (a[top:, left:] * col_scale) @ sol[:, :left]


class TestSchurSameBits:
    def test_matches_numpy_spelling(self, rng):
        # random blocks at scales 1e-150..1e150, a few near-singular pivots
        # and complex ones: the same X, or the same rcond verdict, bit for bit
        for trial in range(200):
            c1, c2 = (int(x) for x in rng.integers(1, 9, size=2))
            m = rng.standard_normal((c1 + c2, c1 + c2)) * 10.0 ** rng.uniform(-150, 150, size=(c1 + c2, 1))
            if trial % 5 == 0:
                m[:c2, c1] = m[:c2, -1] * (1.0 + 1e-15)
            if trial % 7 == 0:
                m = m + 1j * rng.standard_normal(m.shape)
            want = _schur_by_numpy(m, (c2, c1))
            try:
                got = schur_complement(m, (c2, c1))
            except SingularPivotError as e:
                assert isinstance(want, float) and (e.rcond == want or (np.isnan(want) and np.isnan(e.rcond)))
                continue
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStackedKernels:
    """A stack is eliminated, or Schur-reduced, member by member exactly as
    each member alone: same bytes, same flag, same failure."""

    @staticmethod
    def _mixed_stack(rng, shape, complex_=False):
        stack = rng.standard_normal((6, *shape))
        if complex_:
            stack = stack + 1j * rng.standard_normal(stack.shape)
        stack[1, :, 0] = 0.0  # a column the other members pivot
        stack[2, :, 2] = stack[2, :, 0] - 3.0 * stack[2, :, 1]  # a dependent column
        stack[3, 1] = 0.0  # a zero row
        stack[0] *= 1e8  # a tolerance far above the other members'
        stack[4] *= 1e-18  # every entry under the tolerance
        stack[5, :, 1] *= 1e-10  # a small column, above its own member's tolerance
        return stack

    @pytest.mark.parametrize("shape", [(6, 6), (2, 7), (4, 9), (27, 35)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_float_rref_members_match(self, rng, shape, complex_):
        stack = self._mixed_stack(rng, shape, complex_)
        rref, ok = float_rref(stack)
        assert ok.shape == (len(stack),)
        for k, member in enumerate(stack):
            want, want_ok = float_rref(member)
            assert _same_bits(rref[k], want)
            assert ok[k] == want_ok
        # the zero column and the member under its tolerance fail, the
        # 1e8-scaled member does not
        assert not ok[1] and not ok[4] and ok[0]

    def test_float_rref_sparse_members_match(self, rng):
        # exact zeros the row updates must leave alone, ties for the pivot
        # and singular left blocks
        stack = rng.integers(-2, 3, size=(40, 8, 12)).astype(np.float64)
        stack[::5, :, 4] = 0.0
        rref, ok = float_rref(stack)
        for k, member in enumerate(stack):
            want, want_ok = float_rref(member)
            assert _same_bits(rref[k], want) and ok[k] == want_ok
        assert 0 < ok.sum() <= len(stack) - 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float_rref_non_finite_member_fails(self, rng, bad):
        # a NaN or infinite entry fails its member's pivot test (a NaN
        # tolerance compares false), and the other members keep their bytes
        stack = rng.standard_normal((4, 3, 5))
        alone = [float_rref(member) for member in stack]
        stack[1, 0, 0] = bad
        stack[2, 2, 4] = bad
        rref, ok = float_rref(stack)
        assert ok.tolist() == [True, False, False, True]
        for k in (0, 3):
            assert _same_bits(rref[k], alone[k][0])
        assert float_rref(stack[1])[1] is False and float_rref(stack[2])[1] is False

    @pytest.mark.parametrize("shape", [(0, 4, 5), (3, 0, 5), (0, 0, 0), (1, 0, 0)])
    def test_float_rref_empty_stacks(self, shape):
        rref, ok = float_rref(np.zeros(shape))
        assert rref.shape == shape and ok.tolist() == [True] * shape[0]

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 0), (2, 6, 5)])
    def test_float_rref_tall_rejected(self, shape):
        with pytest.raises(ValueError, match="no square left block"):
            float_rref(np.ones(shape))

    def test_float_rref_single_matrix_is_a_stack_of_one(self, rng):
        for m in self._mixed_stack(rng, (7, 10))[[0, 2]]:
            rref, ok = float_rref(m)
            stacked, stacked_ok = float_rref(m[None])
            assert _same_bits(rref, stacked[0]) and type(ok) is bool and stacked_ok.tolist() == [ok]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_schur_members_match(self, rng, complex_):
        for c1, c2 in ((3, 4), (1, 1), (8, 5)):
            stack = rng.standard_normal((5, c1 + c2, c1 + c2)) * 10.0 ** rng.uniform(-100, 100, size=(5, c1 + c2, 1))
            if complex_:
                stack = stack + 1j * rng.standard_normal(stack.shape)
            got = schur_complement(stack, (c2, c1))
            for k, member in enumerate(stack):
                assert _same_bits(got[k], schur_complement(member, (c2, c1)))

    def test_schur_empty_pivot_block_stack(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        assert _same_bits(schur_complement(stack, (0, 4)), stack.copy())

    def _singular_at(self, rng, near, exact):
        stack = rng.standard_normal((6, 7, 7))
        for k in near:
            stack[k, :3, 5] = stack[k, :3, 4] * (1.0 + 1e-15)
        for k in exact:
            stack[k, :3, 4:] = 0.0
        return stack

    @pytest.mark.parametrize("near,exact,first", [((2,), (4,), 2), ((4,), (1,), 1), ((3, 5), (), 3)])
    def test_schur_names_first_failing_member(self, rng, near, exact, first):
        stack = self._singular_at(rng, near, exact)
        with pytest.raises(SingularPivotError) as stacked:
            schur_complement(stack, (3, 4))
        with pytest.raises(SingularPivotError) as alone:
            schur_complement(stack[first], (3, 4))
        assert stacked.value.member == first and alone.value.member is None
        assert stacked.value.rcond == alone.value.rcond
        assert f"in stack member {first}" in str(stacked.value)
        assert "member" not in str(alone.value)
        # the members before it pass the gate on their own
        for k in range(first):
            schur_complement(stack[k], (3, 4))

    def test_exactly_singular_fails_whatever_the_gate(self, rng, monkeypatch):
        monkeypatch.setattr("polyres.linalg.RCOND_MIN", 0.0)
        stack = self._singular_at(rng, (), (3,))
        with pytest.raises(SingularPivotError) as e:
            schur_complement(stack, (3, 4))
        assert e.value.member == 3 and e.value.rcond == 0.0


class TestStackedInstantiate:
    @pytest.mark.parametrize("literal,hidden", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.5 - 0.25j)])
    def test_array_slots_give_the_stack_of_instances(self, rng, three_quadrics_plan, literal, hidden):
        tm = three_quadrics_plan.layout.template
        slots = three_quadrics_plan.base_system.slots()
        draws = rng.standard_normal((9, len(slots)))
        draws[4] = 0.0
        stack = tm.instantiate({s: draws[:, i] for i, s in enumerate(slots)}, literal, hidden)
        assert stack.shape == (9, *tm.shape) and stack.flags.c_contiguous
        for k, row in enumerate(draws):
            alone = tm.instantiate(dict(zip(slots, row.tolist())), literal, hidden)
            assert _same_bits(stack[k], alone)

    def test_missing_slot_named(self, three_quadrics_plan):
        from polyres.plan import MissingSlotError

        slots = three_quadrics_plan.base_system.slots()
        coeffs = {s: np.ones(3) for s in slots[1:]}
        with pytest.raises(MissingSlotError):
            three_quadrics_plan.layout.template.instantiate(coeffs, 1.0, 0.0)


class TestFiniteScale:
    def test_unit_and_norm(self):
        a = np.array([[3.0, -4.0], [0.0, 1e-3]])
        # max |a| = 4 = 0.5 * 2^3
        assert finite_scale(a) == (0.125, np.linalg.norm(a * 0.125))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_is_none(self, bad):
        a = np.eye(3, dtype=type(bad))
        a[1, 2] = bad
        assert finite_scale(a) is None

    def test_overflowing_complex_magnitude_is_finite(self):
        # |1.5e308 + 1.5e308j| overflows, yet every entry is finite: the
        # unit stays 1, as an infinite max sets it
        a = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"):
            assert finite_scale(a)[0] == 1.0

    def test_norms_are_numpys(self, rng):
        # Frobenius norm of the scaled matrix, bit for bit, in any memory order
        for _ in range(50):
            a = rng.standard_normal((9, 9)) * 10.0 ** rng.uniform(-300, 300)
            for view in (a, a.T, a[::2, 1:], a + 1j * a.T):
                unit, norm = finite_scale(view)
                assert norm == np.linalg.norm(view * unit)
                assert 0.5 <= np.abs(view * unit).max() < 1.0

    def test_eig_trusts_a_given_scale(self, rng, monkeypatch):
        import polyres.linalg

        a = rng.standard_normal((8, 8))
        scale = finite_scale(a)
        want = eig(a, 1e-8, scale)
        monkeypatch.setattr(polyres.linalg, "finite_scale", None)
        got = eig(a, 1e-8, scale)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestEig:
    def test_diagonal(self):
        a = np.diag([2.0, 3.0])
        values, _ = eig(a, 1e-8, finite_scale(a))
        assert sorted(values.real) == pytest.approx([2.0, 3.0])

    def test_companion_quadratic(self):
        a = np.array([[0.0, 1.0], [-6.0, 5.0]])
        values, _ = eig(a, 1e-8, finite_scale(a))
        assert sorted(values.real) == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_rotation(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        values, _ = eig(a, 1e-8, finite_scale(a))
        assert sorted(values.imag) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_residual_invariant_random(self, rng):
        for _ in range(10):
            a = rng.standard_normal((12, 12))
            values, vectors = eig(a, 1e-8, finite_scale(a))
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
            assert pair_max_dev(eig(comp, 1e-8, finite_scale(comp))[0], univariate_roots(coeffs)) < 1e-8

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bound_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            eig(np.eye(2), tol, finite_scale(np.eye(2)))

    def test_unmeetable_tol_names_index(self):
        # a non-normal matrix leaves a rounding-level residual that no
        # computed pair can push to zero, so tol = 0 must fail the postcondition;
        # at 1e200 times the matrix ||A||_F overflows unless it is taken scaled
        a = np.array([[1.0, 3.0], [-2.0, 0.5]])
        for m in (a, 1e200 * a):
            with pytest.raises(EigenConvergenceError, match="eigenpair [01] ") as exc:
                eig(m, 0.0, finite_scale(m))
            assert exc.value.index in (0, 1)
            assert exc.value.residual > 0.0
