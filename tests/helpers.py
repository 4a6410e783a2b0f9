"""Small utilities shared across test modules."""

from __future__ import annotations

import numpy as np

# finite two_conics coefficients, scaled so far apart that two of the roots
# the golden plan recovers overflow to NaN
NON_FINITE_CONICS = {"a": -1e65, "b": 1e-49, "c": -1e173, "d": -1e-153, "e": -1e-149}


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
