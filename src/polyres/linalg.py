"""Dense linear algebra in two regimes: exact prime-field and floating point.

One prime-field elimination backs the offline rank decisions; moduli
are kept below 2^31 so products of two reduced entries fit in int64 and
the numpy row operations stay exact.  The floating side provides RREF with partial
pivoting, an equilibrated Schur complement of the pivot block, and the
nonsymmetric eigensolver of the online stage: LAPACK through numpy, with
a residual postcondition on every returned pair.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# ~31-bit primes used for exact rank decisions; all below 2^31.
PRIMES = (2147483629, 2147483587, 2147483647, 2147483563, 2147483549, 2147483543)


class SingularPivotError(ValueError):
    def __init__(self, rcond: float):
        self.rcond = rcond
        super().__init__(f"pivot block numerically singular (rcond ~ {rcond:.3e})")


class EigenConvergenceError(RuntimeError):
    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"eigenpair {index} misses the residual bound (||Av - lambda v|| = {residual:.3e})"
        )


def modp_eliminate(
    m: np.ndarray, p: int, reduce: bool = False
) -> tuple[np.ndarray, list[int], list[int]]:
    """Gaussian elimination over F_p that never swaps rows.

    Column by column, the pivot is the first row, in row order, that has
    not been a pivot yet; it is scaled to 1 and cleared from the non-pivot
    rows below it in that column.  A row is therefore only ever reduced by
    pivot rows that precede it, so ``sorted(rows)`` is the first row basis
    in row order, ``cols`` the pivot columns and ``len(cols)`` the rank.
    With ``reduce`` the pivot is also cleared from the earlier pivot rows,
    and ``a[rows]`` is the reduced row echelon form.
    """
    # C order: rows are eliminated whole, and column selections arrive in F order
    a = np.remainder(m, p, dtype=np.int64, order="C")
    free = np.ones(a.shape[0], dtype=bool)
    rows: list[int] = []
    cols: list[int] = []
    for c in range(a.shape[1]):
        if len(rows) == a.shape[0]:
            break
        live = np.flatnonzero(free & (a[:, c] != 0))
        if live.size == 0:
            continue
        r = int(live[0])
        free[r] = False
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        hit = live[1:]
        if reduce:
            done = np.flatnonzero(~free & (a[:, c] != 0))
            hit = np.concatenate([hit, done[done != r]])
        if hit.size:
            a[hit] = (a[hit] - a[hit, c, None] * a[r]) % p
        rows.append(r)
        cols.append(c)
    return a, rows, cols


def exact_rank(m: np.ndarray, p: int) -> int:
    """Rank over F_p."""
    return len(modp_eliminate(m, p)[2])


def modp_left_kernel(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the left kernel {y : y m = 0} over F_p, one vector per row.

    Read off the reduced row echelon form of ``m.T``: each non-pivot column
    f of it gives the vector that is 1 at f, zero at the other non-pivot
    columns and minus column f of the echelon form at the pivot columns.
    It has ``m.shape[0] - rank(m)`` rows.
    """
    a, rows, cols = modp_eliminate(np.asarray(m).T, p, reduce=True)
    free = np.ones(a.shape[1], dtype=bool)
    free[cols] = False
    free = np.flatnonzero(free)
    k = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    k[np.arange(free.size), free] = 1
    k[:, cols] = -a[rows][:, free].T % p
    return k


def float_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """RREF with partial pivoting; pivots no larger than max(rows, cols) *
    eps * max(max |m|, 1) are treated as zero."""
    a = np.array(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64, copy=True)
    rows, cols = a.shape
    scale = np.max(np.abs(a)) if a.size else 0.0
    tol = max(rows, cols) * np.finfo(np.float64).eps * max(scale, 1.0)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[piv, c]) <= tol:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        others = np.abs(a[:, c]) > 0
        others[r] = False
        a[others] -= np.outer(a[others, c], a[r])
        pivots.append(c)
        r += 1
    return a, pivots


RCOND_MIN = 1e-12  # below this the pivot block counts as a solver failure


def schur_complement(m: np.ndarray, split: tuple[int, int]) -> np.ndarray:
    """Schur complement A21 - A22 A12^{-1} A11 of the upper-right pivot block.

    ``split = (top_rows, left_cols)`` places the pivot block A12 at
    m[:top_rows, left_cols:], which must be square and well conditioned.
    The rows of [A11 A12] and then the columns of A12 are scaled by powers
    of two (the equilibration of LAPACK xGEEQU), with the column scaling
    carried into A22; the scaling is exact, so it leaves the result
    unchanged and only the conditioning of the pivot solve improves.  One
    LU factorization of the scaled A12 solves for A11 and a cached identity
    block, written side by side into one right-hand side: it yields
    A12^{-1} A11 and the inverse whose exact 1-norm gives the reciprocal
    condition number that gates the solve.  The 1-norms are the reductions
    ``np.linalg.norm(., 1)`` runs, without its wrapper.
    """
    top, left = split
    a = np.asarray(m)
    a12 = a[:top, left:]
    if a12.shape[0] != a12.shape[1]:
        raise ValueError(f"pivot block is {a12.shape}, not square")
    if a12.size == 0:
        return a[top:, :left].copy()
    _, row_exp = np.frexp(np.abs(a[:top]).max(axis=1))
    upper = a[:top] * np.ldexp(1.0, -row_exp)[:, None]
    _, col_exp = np.frexp(np.abs(upper[:, left:]).max(axis=0))
    col_scale = np.ldexp(1.0, -col_exp)
    a12 = upper[:, left:] * col_scale
    rhs = np.empty((top, left + top), dtype=upper.dtype)
    rhs[:, :left] = upper[:, :left]
    rhs[:, left:] = _identity(top)
    try:
        sol = np.linalg.solve(a12, rhs)
    except np.linalg.LinAlgError:
        raise SingularPivotError(0.0) from None
    rcond = 1.0 / (_norm_1(a12) * _norm_1(sol[:, left:]))
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularPivotError(float(rcond))
    return a[top:, :left] - (a[top:, left:] * col_scale) @ sol[:, :left]


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only: one per pivot block size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _norm_1(a: np.ndarray):
    """``np.linalg.norm(a, 1)`` of a 2-D float array: its largest column sum
    of magnitudes."""
    return np.add.reduce(np.abs(a), axis=0).max(initial=0)


def finite_scale(a: np.ndarray) -> tuple[float, float] | None:
    """``(unit, norm)`` of a finite array, None when some entry is NaN or
    infinite.

    ``unit`` is a power of two that brings max |a| into [0.5, 1), capped so
    that it stays finite: multiplying by it is exact, and no norm of the
    product overflows.  ``norm`` is ||a * unit||_F.  The max that sets the
    unit is also the one scan for non-finite entries; only a complex entry
    whose magnitude overflows makes it look at the entries again.
    """
    top = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(top) and not np.isfinite(a).all():
        return None
    _, e = math.frexp(top)
    unit = math.ldexp(1.0, -max(e, -1021))
    # the Frobenius norm as np.linalg.norm takes it: dot products, real and
    # imaginary parts apart
    scaled = (a * unit).ravel(order="K")
    if np.iscomplexobj(scaled):
        return unit, np.sqrt(scaled.real.dot(scaled.real) + scaled.imag.dot(scaled.imag))
    return unit, np.sqrt(scaled.dot(scaled))


def eig(
    a: np.ndarray, tol: float = 1e-8, scale: tuple[float, float] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All complex eigenpairs of a square matrix (LAPACK xGEEV via numpy):
    ``(values, vectors)``, column k of ``vectors`` pairing with ``values[k]``.

    Each returned pair satisfies ||A v - lambda v|| <= tol * ||A||_F with
    ||v|| = 1; a pair that misses the bound raises EigenConvergenceError
    naming its index.  Residuals and bound are taken at the exact scale
    ``unit``, where no finite matrix overflows them.  tol must be finite
    and >= 0: a NaN bound would pass every pair unchecked.  A non-finite
    matrix raises ValueError.  ``scale`` is ``finite_scale(a)`` when the
    caller has computed it already; it is then trusted, and ``a`` is not
    scanned again.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if scale is None:
        scale = finite_scale(a)
        if scale is None:
            raise ValueError("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as e:
        raise EigenConvergenceError(0, float("inf")) from e
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)
    if not len(values):
        return values, vectors
    unit, norm = scale
    r = (a * unit) @ vectors - vectors * (values * unit)
    # the column norms of np.linalg.norm(r, axis=0)
    residuals = np.sqrt(np.add.reduce((r.conj() * r).real, axis=0))
    worst = int(residuals.argmax())
    if residuals[worst] > tol * norm:
        raise EigenConvergenceError(worst, float(residuals[worst] / unit))
    return values, vectors
