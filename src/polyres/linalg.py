"""Dense linear algebra in two regimes: exact prime-field and floating point.

One prime-field elimination backs the offline rank decisions; moduli
are kept below 2^31 so products of two reduced entries fit in int64 and
the numpy row operations stay exact.  The floating side provides
Gauss-Jordan elimination of a matrix whose left block is square, with
partial pivoting and a flag for a pivot under tolerance, an equilibrated
Schur complement of the pivot block, and the nonsymmetric eigensolver of
the online stage: LAPACK through numpy, with a residual postcondition on
every returned pair, at the scale of the caller's finiteness scan.

``float_rref`` and ``schur_complement`` also take a stack of matrices,
one optional leading axis: they run one code path, a single matrix being
a stack of one, and every member of a stack comes out bit for bit as it
would alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# ~31-bit primes used for exact rank decisions; all below 2^31.
PRIMES = (2147483629, 2147483587, 2147483647, 2147483563, 2147483549, 2147483543)


class SingularPivotError(ValueError):
    """A pivot block below the rcond gate; ``member`` is its index in a
    stack, None for a single matrix."""

    def __init__(self, rcond: float, member: int | None = None):
        self.rcond = rcond
        self.member = member
        where = "" if member is None else f" in stack member {member}"
        super().__init__(f"pivot block numerically singular (rcond ~ {rcond:.3e}){where}")


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


def float_rref(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool]:
    """Gauss-Jordan elimination of ``m = [L | R]`` with L square, by partial
    pivoting on the columns of L: ``(a, ok)`` with ``a = [I | L^{-1} R]``.
    ``ok`` is False when a pivot is no larger than max(rows, cols) * eps *
    max(max |m|, 1), or is not a number (a NaN or infinite entry makes the
    tolerance so); ``a`` then means nothing.  A tall ``m`` raises
    ValueError.

    A stack ``(T, rows, cols)`` is eliminated in lockstep, one column at a
    time: each member has its own tolerance and pivot row (the first largest
    magnitude at or below the diagonal), and clears exactly the rows whose
    entry in the column is nonzero.  ``ok`` is then one flag per member, and
    every member equals the elimination of it alone.
    """
    a = np.array(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64, copy=True)
    stack = a if a.ndim == 3 else a[None]
    n, rows, cols = stack.shape
    if rows > cols:
        raise ValueError(f"a {rows} x {cols} matrix has no square left block")
    scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    tol = max(rows, cols) * np.finfo(np.float64).eps * np.maximum(scale, 1.0)
    members = np.arange(n)
    ok = np.ones(n, dtype=bool)
    update = np.empty_like(stack)
    # a failed member divides by its small or zero pivot
    with np.errstate(all="ignore"):
        for c in range(rows):
            piv = c + np.abs(stack[:, c:, c]).argmax(axis=1)
            prow = stack[members, piv]
            ok &= np.abs(prow[:, c]) > tol
            stack[members, piv] = stack[members, c]
            prow = prow / prow[:, c, None]
            stack[:, c] = prow
            others = np.abs(stack[:, :, c, None]) > 0
            others[:, c] = False
            np.multiply(stack[:, :, c, None], prow[:, None, :], out=update, where=others)
            np.subtract(stack, update, out=stack, where=others)
    return a, ok if a.ndim == 3 else bool(ok[0])


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
    block, side by side in one right-hand side (the scaled rows, their A12
    overwritten by the identity): it yields
    A12^{-1} A11 and the inverse whose exact 1-norm gives the reciprocal
    condition number that gates the solve.  The 1-norms are the reductions
    ``np.linalg.norm(., 1)`` runs, without its wrapper.

    A stack ``(T, rows, cols)`` runs as one stacked solve and one stacked
    product, with the rcond gate applied per member; SingularPivotError
    names the first member that fails it and that member's rcond.
    """
    top, left = split
    a = np.asarray(m)
    a12 = a[..., :top, left:]
    if a12.shape[-2] != a12.shape[-1]:
        raise ValueError(f"pivot block is {a12.shape[-2:]}, not square")
    if a12.size == 0:
        return a[..., top:, :left].copy()
    _, row_exp = np.frexp(np.abs(a[..., :top, :]).max(axis=-1))
    upper = a[..., :top, :] * np.ldexp(1.0, -row_exp)[..., None]
    _, col_exp = np.frexp(np.abs(upper[..., left:]).max(axis=-2))
    col_scale = np.ldexp(1.0, -col_exp)[..., None, :]
    a12 = upper[..., left:] * col_scale
    rhs = upper  # [A11 A12] becomes [A11 I] in place
    rhs[..., left:] = _identity(top)
    try:
        sol = np.linalg.solve(a12, rhs)
    except np.linalg.LinAlgError:
        raise _first_failure(a12, rhs, left) from None
    rcond = 1.0 / (_norm_1(a12) * _norm_1(sol[..., left:]))
    bad = ~np.isfinite(rcond) | (rcond < RCOND_MIN)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularPivotError(float(np.ravel(rcond)[k]), k if a.ndim > 2 else None)
    return a[..., top:, :left] - (a[..., top:, left:] * col_scale) @ sol[..., :left]


def _first_failure(a12: np.ndarray, rhs: np.ndarray, left: int) -> SingularPivotError:
    """The error of the first member of a stack whose pivot solve fails:
    exactly singular (rcond 0) or below the gate.  Some member is exactly
    singular, since the stacked solve refused."""
    stacked = a12.ndim > 2
    for k, i in enumerate(np.ndindex(a12.shape[:-2])):
        try:
            sol = np.linalg.solve(a12[i], rhs[i])
        except np.linalg.LinAlgError:
            return SingularPivotError(0.0, k if stacked else None)
        rcond = 1.0 / (_norm_1(a12[i]) * _norm_1(sol[:, left:]))
        if not np.isfinite(rcond) or rcond < RCOND_MIN:
            return SingularPivotError(float(rcond), k if stacked else None)
    raise AssertionError("the stacked pivot solve refused a nonsingular stack")


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only: one per pivot block size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _norm_1(a: np.ndarray):
    """``np.linalg.norm(a, 1)`` of each matrix of a float array: its largest
    column sum of magnitudes."""
    return np.add.reduce(np.abs(a), axis=-2).max(axis=-1, initial=0)


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


def eig(a: np.ndarray, tol: float, scale: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """All complex eigenpairs of a finite square matrix (LAPACK xGEEV via
    numpy): ``(values, vectors)``, column k of ``vectors`` pairing with
    ``values[k]``.

    Each returned pair satisfies ||A v - lambda v|| <= tol * ||A||_F with
    ||v|| = 1; a pair that misses the bound raises EigenConvergenceError
    naming its index.  ``scale`` is ``finite_scale(a)``: residuals and bound
    are taken at its exact scale ``unit``, where no finite matrix overflows
    them, and ``a`` is not scanned again.  tol must be finite and >= 0: a
    NaN bound would pass every pair unchecked.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
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
