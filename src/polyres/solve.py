"""Online stage, array in and array out: ``fill`` writes one instance into
the plan's matrix (its partition variant picks the cells), ``schur_matrix``
reduces it to the eigenproblem X, ``eig`` decomposes X, ``recover`` reads
the points off the eigenvectors and ``normalized_residual`` scores them.

Failures that count toward the benchmark failure rate (singular pivot
block, non-finite X, eigenpair failing its residual bound, every v2
eigenvalue culled, unrecoverable eigenvector, non-finite root or residual)
raise SolveFailure; caller bugs such as missing coefficient slots raise
their own exceptions and are never silently absorbed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .linalg import EigenConvergenceError, SingularPivotError, eig, scale_unit, schur_complement
from .plan import SolverPlan
from .poly import normalized_residual

REAL_COORD_TOL = 1e-6
FAILURE_RESIDUAL = 1e-3  # benchmark failure threshold on normalized residuals
_LOG_FLOOR = 1e-300


class SolveFailure(RuntimeError):
    """Numeric failure of one solve; carries the underlying cause."""


class UnrecoverableVariableError(SolveFailure):
    def __init__(self, var_name: str):
        self.var_name = var_name
        super().__init__(f"no monomial pair in B1 recovers variable {var_name}")


def fill(plan: SolverPlan, coeffs) -> np.ndarray:
    """The plan's matrix for one instance: every layout cell written from its
    (polynomial, term, multiplier) source.

    The lower rows multiply x_k - u0; v1 keeps their x_k cells (eigenvalue
    u0), v2 their u0 cells (eigenvalue -1/u0)."""
    literal, hidden = (1.0, 0.0) if plan.layout.variant == "v1" else (0.0, 1.0)
    return plan.layout.template.instantiate(coeffs, literal, hidden)


def schur_matrix(plan: SolverPlan, m: np.ndarray) -> np.ndarray:
    """The eigenproblem matrix X of a filled matrix ``m``: the Schur
    complement of its upper-right block."""
    lay = plan.layout
    return schur_complement(m, (lay.n_upper, lay.n_b1))


@dataclass(frozen=True, slots=True)
class Root:
    point: tuple[complex, ...]
    eigvalue: complex
    residual: float
    is_real: bool


@dataclass(frozen=True, slots=True)
class SolutionSet:
    roots: tuple[Root, ...]
    n_solutions_bound: int


def recover(eigvecs: np.ndarray, plan: SolverPlan, x_k_values) -> np.ndarray:
    """The (N, n_vars) points of an (n_b1, N) matrix whose columns are
    eigenvectors over the B1 monomials, with N hidden values ``x_k_values``.

    Every variable except x_k is read off as a least-squares ratio over the
    pairs (m, x_i * m) lying in B1; x_k comes from the eigenvalue, not the
    vector.  Recovery is invariant under rescaling of each eigenvector.
    """
    lay = plan.layout
    free, src, dst, starts = lay.ratio_pairs
    v = np.asarray(eigvecs, dtype=np.complex128)
    points = np.empty((v.shape[1], lay.template.system.n_vars), dtype=np.complex128)
    points[:, lay.hidden_var - 1] = x_k_values
    if free and v.shape[1]:
        names = lay.template.system.var_names
        if lay.unpaired:
            raise UnrecoverableVariableError(names[lay.unpaired[0]])
        vs = v[src]
        num = np.add.reduceat(vs.conj() * v[dst], starts, axis=0)
        den = np.add.reduceat(vs.real**2 + vs.imag**2, starts, axis=0)
        stuck = np.flatnonzero((den == 0.0).any(axis=1))
        if stuck.size:
            raise UnrecoverableVariableError(names[free[stuck[0]]])
        points[:, free] = (num / den).T
    return points


def solve(plan: SolverPlan, coeffs, m: np.ndarray, tol: float = 1e-8) -> SolutionSet:
    """All roots recoverable from the eigenproblem of ``m``, the plan filled
    with ``coeffs``, in ascending order of their eigenvalue (real part, then
    imaginary part), so the result does not depend on the order the
    eigensolver returns pairs in.  Residuals are recomputed from the
    original polynomial templates, never copied."""
    # no overflow warnings: a non-finite X, point or residual is a SolveFailure
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = schur_matrix(plan, m)
            if not np.isfinite(x).all():
                raise SolveFailure("the eigenproblem matrix is not finite")
            lam, vecs = eig(x, tol=tol)
        except (SingularPivotError, EigenConvergenceError) as e:
            raise SolveFailure(str(e)) from e
        v1 = plan.layout.variant == "v1"
        if not v1:
            # For the alternate partition a root coordinate u0 appears as -1/u0,
            # so lambda = 0 is never an affine root; zero eigenvalues are the
            # parasitic ones the relaxation introduces.  A defective zero block
            # of size m perturbs to magnitude (eps * scale)^(1/m); culling at the
            # cube root keeps headroom for blocks up to size three.
            eps = float(np.finfo(np.float64).eps)
            unit = scale_unit(x)
            keep = np.abs(lam) >= (eps * (1.0 + np.linalg.norm(x * unit) / unit)) ** (1.0 / 3.0)
            if not keep.any():
                raise SolveFailure("every eigenvalue lies below the v2 cull bound")
            lam, vecs = lam[keep], vecs[:, keep]
        order = np.lexsort((lam.imag, lam.real))
        lam, vecs = lam[order], vecs[:, order]
        points = recover(vecs, plan, lam if v1 else -1.0 / lam)
        resid = normalized_residual(plan.base_system, coeffs, points)
        if not (np.isfinite(points).all() and np.isfinite(resid).all()):
            raise SolveFailure("a recovered point or its residual is not finite")
        biggest = np.abs(points).max(axis=1, initial=0.0)
        is_real = np.all(np.abs(points.imag) <= REAL_COORD_TOL * (1.0 + biggest)[:, None], axis=1)
        pts = [tuple(p) for p in points.tolist()]
        # a v1 eigenvalue is the hidden coordinate itself: share the object
        lams = [p[plan.layout.hidden_var - 1] for p in pts] if v1 else lam.tolist()
        roots = tuple(map(Root, pts, lams, resid.tolist(), is_real.tolist()))
        return SolutionSet(roots, plan.n_solutions)


def solve_instance(plan: SolverPlan, coeffs, tol: float = 1e-8) -> SolutionSet:
    return solve(plan, coeffs, fill(plan, coeffs), tol)


@dataclass(frozen=True)
class BenchReport:
    trials: int
    mean_log10: float | None
    median_log10: float | None
    fail_pct: float
    n_solutions_histogram: dict[int, int]
    timing_us: dict[str, float] | None

    def to_json(self) -> str:
        doc = {
            "trials": self.trials,
            "mean_log10": self.mean_log10,
            "median_log10": self.median_log10,
            "fail_pct": self.fail_pct,
            "n_solutions_histogram": {str(k): v for k, v in sorted(self.n_solutions_histogram.items())},
            "timing_us": self.timing_us,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def benchmark(
    plan: SolverPlan,
    instance_generator,
    trials: int,
    seed: int = 0,
    record_timing: bool = False,
) -> BenchReport:
    """Random-instance stability run.

    A trial fails when the solve errors or any returned solution has a
    normalized residual above the failure threshold.  Timing is opt-in so
    that default reports are byte-reproducible under a fixed seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    logs: list[float] = []
    failures = 0
    histogram: dict[int, int] = {}
    times: list[float] = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        coeffs = instance_generator(rng)
        t0 = time.perf_counter()
        try:
            sols = solve_instance(plan, coeffs)
        except SolveFailure:
            failures += 1
            histogram[0] = histogram.get(0, 0) + 1
            times.append(time.perf_counter() - t0)
            continue
        times.append(time.perf_counter() - t0)
        histogram[len(sols.roots)] = histogram.get(len(sols.roots), 0) + 1
        for r in sols.roots:
            logs.append(float(np.log10(max(r.residual, _LOG_FLOOR))))
        if any(r.residual > FAILURE_RESIDUAL for r in sols.roots):
            failures += 1
    mean = float(np.mean(logs)) if logs else None
    median = float(np.median(logs)) if logs else None
    timing = None
    if record_timing:
        us = np.array(times) * 1e6
        timing = {"p50": float(np.percentile(us, 50)), "p95": float(np.percentile(us, 95))}
    return BenchReport(trials, mean, median, 100.0 * failures / trials, histogram, timing)
