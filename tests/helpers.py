"""Small utilities shared across test modules."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from polyres.generate import SearchConfig
from polyres.linalg import PRIMES
from polyres.plan import RankCheckConfig, has_full_column_rank
from polyres.problems import rel_pose_field_instance

# the search configuration of the golden rel_pose plan
REL_POSE_CONFIG = SearchConfig(
    seed=1,
    delta_magnitudes=(Fraction(1, 10),),
    variants=("v2", "v1"),
    max_subset_size=2,
    rank=RankCheckConfig(primes=PRIMES[:3], assignments=2, seed=0, values_fn=rel_pose_field_instance),
)

# the search configurations of the golden plans
GOLDEN_CONFIGS = {
    "two_conics": SearchConfig(seed=1, variants=("v1",)),
    "three_quadrics": SearchConfig(seed=1, variants=("v1",)),
    "rel_pose_f_lambda_8pt": REL_POSE_CONFIG,
}

# finite two_conics coefficients, scaled so far apart that two of the roots
# the golden plan recovers overflow to NaN
NON_FINITE_CONICS = {"a": -1e65, "b": 1e-49, "c": -1e173, "d": -1e-153, "e": -1e-149}

# finite two_conics coefficients whose Schur complement on the golden plan
# overflows to inf
INFINITE_SCHUR_CONICS = {"a": 1e-243, "b": -1e-157, "c": 1e59, "d": -0.5, "e": -1e223}

# finite two_conics coefficients whose golden-plan solve overflows on the way
# (a norm of X), yet gives 4 roots of size 1e100 with residuals near 1e-16
HUGE_ROOT_CONICS = {"a": 1e-200, "b": -1e-200, "c": 1.0, "d": -1.0, "e": -1e200}

# finite two_conics coefficients whose nonzero eigenvalues on the seed-1 v2
# plan (|lambda| = 1.77e9) all lie below its cull bound, which grows with ||X||
ALL_CULLED_CONICS = {"a": -2e-164, "b": 8e73, "c": -4e199, "d": -2e172, "e": -8e225}


def witness_full_rank(tm, cfg, n_rows=None, first_col=0) -> bool:
    """Full column rank of the first ``n_rows`` rows of ``tm`` on its columns
    from ``first_col`` on, at the witness of the rank config ``cfg``: the
    whole matrix by default, A12 with ``(n_upper, n_b1)``."""
    p, trial = cfg.witness
    return has_full_column_rank(cfg.instantiate(tm, p, trial)[:n_rows, first_col:], p)


def translation_class(layout):
    """``(system, variant, rows, columns)`` of ``layout``, the rows and
    columns each shifted by the componentwise minimum of the columns: equal
    for a layout and its monomial translates."""
    tm = layout.template
    low = tuple(map(min, zip(*tm.cols)))
    rows = tuple((poly_idx, tuple(e - s for e, s in zip(mult, low))) for poly_idx, mult in tm.rows)
    cols = tuple(tuple(e - s for e, s in zip(m, low)) for m in tm.cols)
    return tm.system, layout.variant, rows, cols


def pair_max_dev(got, want) -> float:
    """Greedy minimum-distance pairing of two equal-size value multisets;
    returns the worst paired deviation (inf on size mismatch)."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return float("inf")
    worst = 0.0
    for g in got:
        j = int(np.argmin([abs(g - w) for w in want]))
        worst = max(worst, abs(g - want[j]))
        want.pop(j)
    return worst


def match_points(got, want) -> float:
    """Worst max-norm deviation after greedily pairing two point sets."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return float("inf")
    worst = 0.0
    for g in got:
        dists = [max(abs(a - b) for a, b in zip(g, w)) for w in want]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        want.pop(j)
    return worst


def contains_points(haystack, needles, tol: float) -> bool:
    """Every needle point appears in the haystack within coordinate tol."""
    for w in needles:
        if not any(max(abs(a - b) for a, b in zip(g, w)) <= tol for g in haystack):
            return False
    return True


def newton_polish(system, coeffs, point, steps: int = 4):
    """Refine an approximate root of a square system by Newton iteration
    with the exact polynomial Jacobian."""
    from polyres.poly import evaluate, term_value

    x = np.array(point, dtype=np.complex128)
    n = len(x)

    def jac_entry(f, j):
        total = 0j
        for t in f.terms:
            if t.exps[j] == 0:
                continue
            v = term_value(t, coeffs) * t.exps[j]
            for i, e in enumerate(t.exps):
                e_eff = e - 1 if i == j else e
                if e_eff:
                    v *= x[i] ** e_eff
            total += v
        return total

    for _ in range(steps):
        f_val = np.array([evaluate(f, coeffs, x) for f in system.polys[:n]])
        jac = np.array([[jac_entry(f, j) for j in range(n)] for f in system.polys[:n]])
        try:
            x = x - np.linalg.solve(jac, f_val)
        except np.linalg.LinAlgError:
            break
    return tuple(x)


def point_sets(lattice):
    """The lattice point set of each displacement of a ``LatticeBox``, from
    its masks; displacements with one offset row share one set object."""
    sets = [frozenset(map(tuple, lattice.points[m].tolist())) for m in lattice.inside]
    empty = frozenset()
    return [empty if r is None else sets[r] for r in lattice.row_of]
