"""Brute-force roots for test provenance, independent of the solver path.

Univariate roots come from companion-matrix eigenvalues (LAPACK through
numpy); bivariate systems go through a Sylvester resultant whose
determinant is recovered by evaluation and interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .poly import PolynomialTemplate

NumPoly = Mapping[tuple[int, ...], complex]


@dataclass(frozen=True)
class OracleRoots:
    points: tuple[tuple[complex, ...], ...]
    residuals: tuple[float, ...]
    positive_dimensional: bool = False

    def __len__(self):
        return len(self.points)


def numeric_poly(f: PolynomialTemplate, coeffs) -> dict[tuple[int, ...], complex]:
    out: dict[tuple[int, ...], complex] = {}
    for t in f.terms:
        out[t.exps] = out.get(t.exps, 0.0) + (t.const if t.slot is None else t.const * coeffs[t.slot])
    return out


def univariate_roots(coeffs: Sequence[complex]) -> np.ndarray:
    """Roots of c0 + c1 x + ... + cd x^d via the companion matrix.

    A zero leading coefficient reduces the degree and recurses; the zero
    polynomial is rejected.
    """
    c = np.asarray(list(coeffs), dtype=np.complex128)
    if c.size == 0 or not c.any():
        raise ValueError("zero polynomial has no well-defined root set")
    if c[-1] == 0:
        return univariate_roots(c[:-1])
    d = c.size - 1
    if d == 0:
        return np.zeros(0, dtype=np.complex128)
    comp = np.zeros((d, d), dtype=np.complex128)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    return np.linalg.eigvals(comp)


def _plain_residual(p: NumPoly, point) -> float:
    num = 0j
    den = 1.0
    for exps, c in p.items():
        v = complex(c)
        for x, e in zip(point, exps):
            if e:
                v *= x**e
        num += v
        den += abs(v)
    return abs(num) / den


def _as_univariate(p: NumPoly, var: int, value: complex, deg: int) -> np.ndarray:
    """Ascending coefficients of bivariate p in variable ``var`` after
    substituting ``value`` for the other variable."""
    other = 1 - var
    out = np.zeros(deg + 1, dtype=np.complex128)
    for exps, c in p.items():
        v = complex(c)
        if exps[other]:
            v *= value ** exps[other]
        out[exps[var]] += v
    return out


def sylvester_bivariate(
    f: NumPoly,
    g: NumPoly,
    hide: int = 2,
    residual_tol: float = 1e-8,
) -> OracleRoots:
    """All isolated common roots of two numeric bivariate polynomials.

    Hides variable ``hide`` (1-based), eliminates the other through the
    Sylvester determinant (evaluation-interpolation), back-substitutes, and
    keeps points whose residual clears ``residual_tol`` on both inputs.
    An identically vanishing determinant yields a positive-dimensional
    warning and no roots.
    """
    if not f or not g or not any(f.values()) or not any(g.values()):
        raise ValueError("both polynomials must be nonzero")
    if hide not in (1, 2):
        raise ValueError("hide must be 1 or 2")
    h = hide - 1
    t = 1 - h
    deg_t_f = max((e[t] for e, c in f.items() if c != 0), default=0)
    deg_t_g = max((e[t] for e, c in g.items() if c != 0), default=0)
    deg_h_f = max((e[h] for e, c in f.items() if c != 0), default=0)
    deg_h_g = max((e[h] for e, c in g.items() if c != 0), default=0)
    if deg_t_f + deg_t_g == 0:
        raise ValueError("neither polynomial involves the eliminated variable")

    size = deg_t_f + deg_t_g
    det_bound = deg_t_g * deg_h_f + deg_t_f * deg_h_g

    def det_at(value: complex) -> complex:
        fc = _as_univariate(f, t, value, deg_t_f)
        gc = _as_univariate(g, t, value, deg_t_g)
        s = np.zeros((size, size), dtype=np.complex128)
        for i in range(deg_t_g):
            s[i, i : i + deg_t_f + 1] = fc[::-1]
        for i in range(deg_t_f):
            s[deg_t_g + i, i : i + deg_t_g + 1] = gc[::-1]
        return complex(np.linalg.det(s))

    if det_bound == 0:
        # determinant is a constant: either no roots or a degenerate pencil
        return OracleRoots((), (), positive_dimensional=False)

    n_pts = 2 * det_bound + 1
    # Chebyshev-extrema abscissae keep the Vandermonde fit well conditioned.
    xs = 1.7 * np.cos(np.pi * np.arange(n_pts) / (n_pts - 1))
    vals = np.array([det_at(x) for x in xs])
    coeff = np.polynomial.polynomial.polyfit(xs, vals.real, det_bound).astype(np.complex128)
    if np.iscomplexobj(vals) and np.abs(vals.imag).max() > 0:
        coeff = coeff + 1j * np.polynomial.polynomial.polyfit(xs, vals.imag, det_bound)
    top = np.abs(coeff).max()
    if top == 0.0 or top < 1e-10 * max(1.0, np.abs(vals).max()):
        warnings.warn("Sylvester determinant vanishes identically: positive-dimensional set")
        return OracleRoots((), (), positive_dimensional=True)
    coeff[np.abs(coeff) < 1e-12 * top] = 0.0

    points: list[tuple[complex, ...]] = []
    residuals: list[float] = []
    for hval in univariate_roots(coeff):
        fc = _as_univariate(f, t, hval, deg_t_f)
        gc = _as_univariate(g, t, hval, deg_t_g)
        cands: list[complex] = []
        for uc in (fc, gc):
            top_u = np.abs(uc).max()
            if top_u == 0 or np.abs(uc[1:]).max(initial=0.0) < 1e-12 * top_u:
                continue  # constant in t at this fibre
            for r in univariate_roots(uc):
                r = complex(r)
                # both inputs propose the common root: merge near-duplicates
                if all(abs(r - c) > 1e-6 * (1.0 + abs(r)) for c in cands):
                    cands.append(r)
        for tval in cands:
            point = (tval, hval) if h == 1 else (hval, tval)
            res = max(_plain_residual(f, point), _plain_residual(g, point))
            if res <= residual_tol:
                points.append(point)
                residuals.append(float(res))
    return OracleRoots(tuple(points), tuple(residuals))
