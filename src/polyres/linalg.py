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
from dataclasses import dataclass

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
    LU factorization of the scaled A12 yields both A12^{-1} A11 and the
    1-norm reciprocal condition number that gates it.
    """
    top, left = split
    a = np.asarray(m)
    a12 = a[:top, left:]
    if a12.shape[0] != a12.shape[1]:
        raise ValueError(f"pivot block is {a12.shape}, not square")
    if a12.size == 0:
        return a[top:, :left].copy()
    _, row_exp = np.frexp(np.max(np.abs(a[:top]), axis=1))
    upper = a[:top] * np.ldexp(1.0, -row_exp)[:, None]
    _, col_exp = np.frexp(np.max(np.abs(upper[:, left:]), axis=0))
    col_scale = np.ldexp(1.0, -col_exp)
    a12 = upper[:, left:] * col_scale
    try:
        sol = np.linalg.solve(a12, np.hstack([upper[:, :left], np.eye(top)]))
    except np.linalg.LinAlgError:
        raise SingularPivotError(0.0) from None
    rcond = 1.0 / (np.linalg.norm(a12, 1) * np.linalg.norm(sol[:, left:], 1))
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise SingularPivotError(float(rcond))
    return a[top:, :left] - (a[top:, left:] * col_scale) @ sol[:, :left]


@dataclass(frozen=True, slots=True)
class EigResult:
    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k], unit 2-norm


def eig(a: np.ndarray, tol: float = 1e-8) -> EigResult:
    """All complex eigenpairs of a square matrix (LAPACK xGEEV via numpy).

    Each returned pair satisfies ||A v - lambda v|| <= tol * ||A||_F with
    ||v|| = 1; a pair that misses the bound raises EigenConvergenceError
    naming its index.  tol must be finite and >= 0: a NaN bound would pass
    every pair unchecked.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as e:
        raise EigenConvergenceError(0, float("inf")) from e
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)
    if not len(values):
        return EigResult(values, vectors)
    residuals = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    worst = int(np.argmax(residuals))
    if residuals[worst] > tol * max(float(np.linalg.norm(a)), 1e-300):
        raise EigenConvergenceError(worst, float(residuals[worst]))
    return EigResult(values, vectors)
