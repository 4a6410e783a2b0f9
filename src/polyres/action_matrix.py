"""Elimination-template solvers and the bridge to the hidden-variable side.

An AmPlan holds a template whose Gauss-Jordan elimination exposes the
multiplication ("action") matrix of one variable on a monomial basis of the
quotient ring.  The bridge functions rewrite such a plan into an equivalent
hidden-variable plan and back, including the reciprocal-action construction
(adjoining x*lam - 1) that matches the alternate partition variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import float_rref, modp_eliminate
from .plan import (
    MatrixLayout,
    RankCheckConfig,
    SolverPlan,
    TemplateMatrix,
)
from .poly import (
    Mono,
    PolynomialTemplate,
    SystemTemplate,
    Term,
    augment,
    mono_div,
    mono_mul,
    sort_desc,
    unit_mono,
)


class NoTemplateError(RuntimeError):
    """No valid elimination template exists for the requested basis."""


class SingularTemplateError(RuntimeError):
    """Numeric elimination failed to pivot every non-basis column."""


class UnsupportedCaseError(RuntimeError):
    """Bridge precondition violated (N != r, or a root with x_k = 0)."""


@dataclass(frozen=True)
class AmPlan:
    """Template with columns grouped as [excess | reducible | basis]."""

    template: TemplateMatrix
    action_var: int  # 1-based; equals n_vars for the adjoined reciprocal variable
    n_excess: int
    n_reducible: int
    reciprocal: bool = False  # action variable is the adjoined lam with x_k*lam = 1

    @property
    def basis(self) -> tuple[Mono, ...]:
        return self.template.cols[self.n_excess + self.n_reducible :]

    @property
    def excess(self) -> tuple[Mono, ...]:
        return self.template.cols[: self.n_excess]

    @property
    def reducible(self) -> tuple[Mono, ...]:
        return self.template.cols[self.n_excess : self.n_excess + self.n_reducible]


def _row_basis_modp(m: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """First row basis in row order plus the (intrinsic) pivot column set."""
    _, rows, cols = modp_eliminate(m, p)
    return sorted(rows), cols


def build_template(
    system: SystemTemplate,
    basis: tuple[Mono, ...],
    action_var: int,
    multipliers,
) -> AmPlan:
    """Construct the elimination template for a given quotient-ring basis.

    Rows beyond an exact row basis are pruned and linearly dependent excess
    columns removed, both decided over the multi-prime protocol; a reducible
    column that cannot pivot, or a pivot landing among the basis columns,
    means no template exists for this basis.
    """
    n = system.n_vars
    if not (1 <= action_var <= n):
        raise ValueError("action variable index out of range")
    e_f = unit_mono(n, action_var - 1)
    rows = []
    for i, t_set in enumerate(multipliers):
        rows.extend((i, t) for t in sort_desc(t_set))
    mono_set: set[Mono] = set()
    for poly_idx, mult in rows:
        for term in system.polys[poly_idx].terms:
            mono_set.add(mono_mul(mult, term.exps))
    basis = tuple(basis)
    basis_set = frozenset(basis)
    if len(basis_set) != len(basis) or not basis:
        raise ValueError("basis monomials must be distinct and nonempty")
    if not basis_set <= mono_set:
        missing = sorted(basis_set - mono_set)[0]
        raise NoTemplateError(f"basis monomial {missing} does not appear in the extension")
    reducible = []
    for m in basis:
        fm = mono_mul(m, e_f)
        if fm in basis_set:
            continue
        if fm not in mono_set:
            raise NoTemplateError(
                f"action image {fm} of basis monomial {m} is outside the extension"
            )
        reducible.append(fm)
    excess = sort_desc(mono_set - basis_set - set(reducible))
    cols = tuple(excess) + tuple(reducible) + basis
    tm = TemplateMatrix(system, cols, tuple(rows))

    rank = RankCheckConfig()
    decision = None
    for p, t in rank.trials():
        mat = rank.instantiate(tm, p, t)
        kept, pivots = _row_basis_modp(mat, p)
        if decision is None:
            decision = (kept, pivots)
        elif decision != (kept, pivots):
            raise NoTemplateError("rank structure disagrees across prime trials")
    kept, pivots = decision
    n_e, n_r = len(excess), len(reducible)
    pivot_set = set(pivots)
    if any(c >= n_e + n_r for c in pivots):
        raise NoTemplateError("basis monomials are linearly dependent modulo the rows")
    missing_red = [c for c in range(n_e, n_e + n_r) if c not in pivot_set]
    if missing_red:
        raise NoTemplateError(
            f"reducible column {cols[missing_red[0]]} cannot pivot over any test prime"
        )
    removed = tuple(cols[c] for c in range(n_e) if c not in pivot_set)
    kept_cols = tuple(cols[c] for c in range(len(cols)) if c in pivot_set or c >= n_e + n_r)
    reduced = TemplateMatrix(
        system, kept_cols, tuple(tm.rows[i] for i in kept), project_missing=bool(removed)
    )
    return AmPlan(reduced, action_var, n_e - len(removed), n_r)


def extract_action_matrix(plan: AmPlan, coeffs) -> np.ndarray:
    """Fill the template, eliminate, and read the r x r action matrix on
    ``plan.basis`` off the reduced rows; unit rows appear where the action
    keeps a basis monomial inside the basis."""
    rref, pivots = float_rref(plan.template.instantiate(coeffs, 1.0, 0.0))
    n_left = plan.n_excess + plan.n_reducible
    if tuple(pivots) != tuple(range(n_left)):
        raise SingularTemplateError(
            f"elimination pivoted columns {pivots}, expected the first {n_left}"
        )
    e_f = unit_mono(plan.template.system.n_vars, plan.action_var - 1)
    basis = plan.basis
    basis_pos = {m: i for i, m in enumerate(basis)}
    red_pos = {m: i for i, m in enumerate(plan.reducible)}
    r = len(basis)
    mf = np.zeros((r, r))
    tail = rref[:, n_left:]
    for j, m in enumerate(basis):
        fm = mono_mul(m, e_f)
        if fm in basis_pos:
            mf[j, basis_pos[fm]] = 1.0
        else:
            mf[j, :] = -tail[plan.n_excess + red_pos[fm], :]
    return mf


def am_to_res(plan: AmPlan) -> SolverPlan:
    """Rewrite an action-matrix solver as a hidden-variable solver.

    The template becomes the upper block; the lower block multiplies the
    extra polynomial by every basis monomial, so the matrix is square by
    construction and no reduction pass is needed.
    """
    if plan.reciprocal:
        raise UnsupportedCaseError("reciprocal-action plans have no direct rewrite")
    base = plan.template.system
    k = plan.action_var
    aug = augment(base, k)
    b1 = plan.basis
    cols = b1 + plan.excess + plan.reducible
    rows = list(plan.template.rows)
    last = len(aug.polys) - 1
    rows.extend((last, t) for t in b1)
    tm = TemplateMatrix(aug, cols, tuple(rows), project_missing=plan.template.project_missing)
    layout = MatrixLayout(tm, k, "v1", len(b1), len(plan.template.rows))
    return SolverPlan(layout, 0, None, None, (), origin="am-bridge")


_RECIP_VAR = "lam"


def reciprocal_system(base: SystemTemplate, k: int) -> SystemTemplate:
    """Adjoin a variable lam with x_k * lam = 1, forcing x_k invertible."""
    name = _RECIP_VAR
    while name in base.var_names:
        name += "_"
    n = base.n_vars
    polys = []
    for f in base.polys:
        polys.append(
            PolynomialTemplate(tuple(Term(t.slot, t.exps + (0,), t.const) for t in f.terms))
        )
    prod = unit_mono(n, k - 1) + (1,)
    zero = (0,) * (n + 1)
    polys.append(PolynomialTemplate((Term(None, prod, 1.0), Term(None, zero, -1.0))))
    return SystemTemplate(n + 1, base.var_names + (name,), tuple(polys))


def res_to_am(plan: SolverPlan, root_count: int, probe_roots=None) -> AmPlan:
    """Rewrite a hidden-variable solver as an action-matrix solver.

    Requires the eigenproblem size to equal the root count.  For the
    alternate partition variant the action variable is the adjoined
    reciprocal lam, which additionally requires that no root has x_k = 0;
    ``probe_roots`` (solutions of any generic instance) witnesses that, and
    an empty probe witnesses nothing.
    """
    if plan.n_solutions != root_count:
        raise UnsupportedCaseError(
            f"eigenproblem size {plan.n_solutions} differs from root count {root_count}"
        )
    lay = plan.layout
    base = plan.base_system
    k = lay.hidden_var
    n = base.n_vars
    e_k = unit_mono(n, k - 1)
    upper_rows = lay.template.rows[: lay.n_upper]

    if lay.variant == "v1":
        b1 = lay.b1
        b1_set = frozenset(b1)
        red_set = frozenset(mono_mul(m, e_k) for m in b1) - b1_set
        excess = tuple(m for m in lay.b2 if m not in red_set)
        reducible = tuple(m for m in lay.b2 if m in red_set)
        cols = excess + reducible + b1
        tm = TemplateMatrix(base, cols, upper_rows, project_missing=lay.template.project_missing)
        return AmPlan(tm, k, len(excess), len(reducible))

    # Alternate variant: Rabinowitsch-style reciprocal action.
    if probe_roots is not None:
        if not probe_roots:
            raise UnsupportedCaseError(f"no probe root witnesses x_{k} != 0")
        worst = min(abs(complex(r[k - 1])) for r in probe_roots)
        if worst <= 1e-9:
            raise UnsupportedCaseError(
                f"a root has x_{k} = 0 (|x_k| = {worst:.2e}); the reciprocal action is undefined"
            )
    sys_a = reciprocal_system(base, k)
    ext = lambda m: tuple(m) + (0,)
    b1 = tuple(ext(m) for m in lay.b1)
    b2 = tuple(ext(m) for m in lay.b2)
    e_lam = unit_mono(n + 1, n)
    reducible = tuple(mono_mul(m, e_lam) for m in b1)
    cols = b2 + reducible + b1
    rows = [(p, ext(m)) for p, m in upper_rows]
    last = len(sys_a.polys) - 1
    for m in lay.b1:
        t = mono_div(m, e_k)
        rows.append((last, ext(t)))
    tm = TemplateMatrix(sys_a, cols, tuple(rows), project_missing=lay.template.project_missing)
    return AmPlan(tm, sys_a.n_vars, len(b2), len(reducible), reciprocal=True)


EQUIVALENCE_TOL = 1e-8  # a trial passes when max |M_f - sign * X| <= this * (1 + ||X||)


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    max_deviation: float
    size_match: bool
    trials: int
    sign: int  # +1 compares M_f with X, -1 with -X (reciprocal action)

    def __str__(self):
        word = "equivalent" if self.equivalent else "NOT equivalent"
        return (
            f"{word}: max |M_f - ({self.sign:+d})X| = {self.max_deviation:.3e} "
            f"over {self.trials} trials, template size match = {self.size_match}"
        )


def check_equivalence(
    amplan: AmPlan, resplan: SolverPlan, trials: int = 100, seed: int = 0
) -> EquivalenceVerdict:
    """Definition-of-equivalence check on random instances.

    Direct pairs must satisfy M_f = X with the template exactly the size of
    the upper block [A11 A12].  A reciprocal pair represents multiplication
    by 1/x_k, whose derivation yields M_f = -X and a template enlarged by
    one identity block per basis monomial; the check applies that
    construction's own size and sign contract.
    """
    # call-time lookup: perfbench/tracer.py patches polyres.solve.fill and schur_matrix after import
    from .solve import fill, schur_matrix

    if trials < 1:
        raise ValueError("need at least one trial")
    lay = resplan.layout
    n1 = lay.n_b1
    if amplan.reciprocal:
        expected_shape = (lay.n_upper + n1, lay.shape[1] + n1)
    else:
        expected_shape = (lay.n_upper, lay.shape[1])
    size_match = amplan.template.shape == expected_shape
    sign = -1 if amplan.reciprocal else 1

    strip = (lambda m: m[:-1]) if amplan.reciprocal else (lambda m: m)
    am_basis = [strip(m) for m in amplan.basis]
    if sorted(am_basis) != sorted(lay.b1):
        return EquivalenceVerdict(False, float("inf"), size_match, 0, sign)
    perm = [am_basis.index(m) for m in lay.b1]

    slots = resplan.base_system.slots()
    worst = 0.0
    ok = size_match
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        coeffs = {s: float(rng.standard_normal()) for s in slots}
        x = schur_matrix(resplan, fill(resplan, coeffs))
        try:
            mf = extract_action_matrix(amplan, coeffs)
        except SingularTemplateError:
            ok = False
            worst = float("inf")
            break
        mf_aligned = mf[np.ix_(perm, perm)]
        dev = float(np.max(np.abs(mf_aligned - sign * x)))
        worst = max(worst, dev)
        if dev > EQUIVALENCE_TOL * (1.0 + float(np.linalg.norm(x))):
            ok = False
    return EquivalenceVerdict(ok, worst, size_match, trials, sign)
