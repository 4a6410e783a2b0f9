"""Integer convex polytopes: hulls, Minkowski sums, shifted lattice points.

All geometry is exact: hull facets carry primitive integer normals with
rational offsets, and point-inclusion tests compare rationals.  Floating
point is never consulted, so displacement vectors that graze lattice
hyperplanes cannot flip membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _primitive(v: Iterable[int]) -> IntVec:
    v = tuple(v)
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return v if g in (0, 1) else tuple(x // g for x in v)


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a small integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _frac_rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rref, pivot columns).

    A pivot column is one the columns before it do not span, so when the
    columns are vectors the pivots pick the first basis in list order, and
    every other column holds its coordinates in that basis.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots


@dataclass(frozen=True)
class HalfSpace:
    """normal . x <= offset with a primitive integer normal."""

    normal: IntVec
    offset: Fraction


@dataclass(frozen=True)
class Hyperplane:
    """normal . x == offset; together these pin the polytope's affine hull."""

    normal: IntVec
    offset: Fraction


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple[IntVec, ...]
    facets: tuple[HalfSpace, ...]
    equations: tuple[Hyperplane, ...]

    @property
    def affine_dim(self) -> int:
        return self.dim - len(self.equations)

    def contains(self, point: Sequence[Fraction]) -> bool:
        for eq in self.equations:
            if _dot(eq.normal, point) != eq.offset:
                return False
        for hs in self.facets:
            if _dot(hs.normal, point) > hs.offset:
                return False
        return True


@dataclass(frozen=True)
class Displacement:
    """Shift vector whose entries are 0 or +/- one fixed magnitude."""

    delta: tuple[Fraction, ...]

    def __post_init__(self):
        mags = {abs(d) for d in self.delta if d != 0}
        if len(mags) > 1:
            raise ValueError(f"mixed displacement magnitudes {sorted(mags)}")


def displacement_grid(n: int, magnitude: Fraction) -> list[Displacement]:
    """All 3^n displacements with entries in {-magnitude, 0, +magnitude}."""
    vals = (-magnitude, Fraction(0), magnitude)
    return [Displacement(tuple(c)) for c in itertools.product(vals, repeat=n)]


def _simplex_facets(pts: list[IntVec], vert_ids: list[int], ref_sum: IntVec, k: int):
    """Facets of a full-dimensional simplex given by d+1 point ids."""
    facets = {}
    for omit in vert_ids:
        ids = frozenset(v for v in vert_ids if v != omit)
        facets[ids] = _make_facet(pts, ids, ref_sum, k)
    return facets


def _make_facet(pts: list[IntVec], ids: frozenset[int], ref_sum: IntVec, k: int):
    """Oriented supporting hyperplane through d affinely independent points.

    ref_sum is the coordinate sum of k strictly interior witness points; the
    normal is flipped so the witness centroid satisfies the inequality
    strictly.
    """
    members = sorted(ids)
    q0 = pts[members[0]]
    rows = [list(_sub(pts[i], q0)) for i in members[1:]]
    d = len(q0)
    normal = []
    for j in range(d):
        minor = [row[:j] + row[j + 1 :] for row in rows]
        normal.append((-1) ** j * _det_int(minor))
    normal = _primitive(normal)
    if all(x == 0 for x in normal):
        raise ValueError("degenerate facet: points are affinely dependent")
    offset = _dot(normal, q0)
    side = _dot(normal, ref_sum) - k * offset
    if side == 0:
        raise ValueError("interior witness lies on a candidate facet")
    if side > 0:
        normal = tuple(-x for x in normal)
        offset = -offset
    return normal, offset


def _hull_full_dim(pts: list[IntVec]) -> tuple[list[int], list[tuple[IntVec, int]]]:
    """Beneath-beyond hull of full-dimensional integer points.

    Returns (extreme point ids, deduplicated facet inequalities).  Visibility
    is strict, so every horizon ridge spans a proper hyperplane with the new
    point; coplanar insertions only create duplicate hyperplanes, which are
    merged afterwards.
    """
    d = len(pts[0])
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i][0])
        hi = max(range(len(pts)), key=lambda i: pts[i][0])
        facets = [((1,), pts[hi][0]), ((-1,), -pts[lo][0])]
        ids = [lo] if lo == hi else [lo, hi]
        return ids, facets

    # Greedy affinely independent seed simplex.
    _, picked = _frac_rref([[q[j] - pts[0][j] for q in pts[1:]] for j in range(d)])
    seed = [0] + [i + 1 for i in picked]
    if len(seed) != d + 1:
        raise ValueError("points are not full-dimensional")

    ref_sum = tuple(sum(pts[i][j] for i in seed) for j in range(d))
    k = d + 1
    facets = _simplex_facets(pts, seed, ref_sum, k)

    for i in sorted(set(range(len(pts))) - set(seed)):
        p = pts[i]
        visible = [ids for ids, (n, b) in facets.items() if _dot(n, p) > b]
        if not visible:
            continue
        ridge_count: dict[frozenset[int], int] = {}
        for ids in visible:
            for v in ids:
                ridge = ids - {v}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        for ids in visible:
            del facets[ids]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                new_ids = ridge | {i}
                facets[new_ids] = _make_facet(pts, new_ids, ref_sum, k)
        # Every ridge must separate exactly two facets, else the hull is torn.
        check: dict[frozenset[int], int] = {}
        for ids in facets:
            for v in ids:
                ridge = ids - {v}
                check[ridge] = check.get(ridge, 0) + 1
        if any(c != 2 for c in check.values()):
            raise AssertionError("hull surface is not ridge-2-regular")

    dedup: dict[tuple[IntVec, int], None] = {}
    for n, b in facets.values():
        dedup[(n, b)] = None
    ineqs = list(dedup.keys())

    candidates = sorted({v for ids in facets for v in ids})
    extreme = []
    for v in candidates:
        active = [list(n) for (n, b) in ineqs if _dot(n, pts[v]) == b]
        if len(_frac_rref(active)[1]) == d:
            extreme.append(v)
    return extreme, ineqs


def convex_hull(points: Iterable[IntVec]) -> LatticePolytope:
    """Exact hull of integer points: extreme vertices plus facet inequalities."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")

    # Affine frame: the first independent directions p - v0; the other
    # columns of the reduced frame hold each point's coordinates in it.
    v0 = pts[0]
    frame, picked = _frac_rref([[p[i] - v0[i] for p in pts[1:]] for i in range(n)])
    dirs = [_sub(pts[k + 1], v0) for k in picked]
    d = len(dirs)

    # Equations of the affine hull: integer basis of the normal space.
    equations = []
    if d < n:
        rows, pivots = _frac_rref(dirs)
        free = [c for c in range(n) if c not in pivots]
        for fc in free:
            vec = [Fraction(0)] * n
            vec[fc] = Fraction(1)
            for row_idx, pc in enumerate(pivots):
                vec[pc] = -rows[row_idx][fc]
            denom = 1
            for x in vec:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            ivec = _primitive(int(x * denom) for x in vec)
            equations.append(Hyperplane(ivec, Fraction(_dot(ivec, v0))))

    if d == 0:
        return LatticePolytope(n, (v0,), (), tuple(equations))

    # Subspace coordinates, scaled to integers per axis.
    coords = [[Fraction(0)] * d] + [[frame[j][k] for j in range(d)] for k in range(len(pts) - 1)]
    scales = []
    for j in range(d):
        s = 1
        for c in coords:
            s = s * c[j].denominator // gcd(s, c[j].denominator)
        scales.append(s)
    ipts = [tuple(int(c[j] * scales[j]) for j in range(d)) for c in coords]

    extreme_ids, ineqs = _hull_full_dim(ipts)
    vertices = tuple(sorted(pts[i] for i in extreme_ids))

    # Lift facet inequalities back to ambient coordinates: on the affine hull,
    # y_j = scales[j] * <P_j, x - v0> where P is a rational left inverse of
    # the direction matrix, P = G^-1 D with G the Gram matrix, read off
    # the reduced form of [G | D].
    gram_dirs = [[_dot(dirs[a], dirs[b]) for b in range(d)] + list(dirs[a]) for a in range(d)]
    inv, _ = _frac_rref(gram_dirs)
    facets = []
    for a_vec, b_off in ineqs:
        w = [Fraction(0)] * n
        for j in range(d):
            for i in range(n):
                w[i] += a_vec[j] * scales[j] * inv[j][d + i]
        denom = 1
        for x in w:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        iw = tuple(int(x * denom) for x in w)
        g = 0
        for x in iw:
            g = gcd(g, abs(x))
        g = g or 1
        iw = tuple(x // g for x in iw)
        offset = (Fraction(b_off) * denom / g) + Fraction(_dot(iw, v0))
        facets.append(HalfSpace(iw, offset))
    return LatticePolytope(n, vertices, tuple(facets), tuple(equations))


def minkowski_sum(polys: Sequence[LatticePolytope]) -> LatticePolytope:
    """Fold pairwise vertex sums; hull after each step keeps the sets small."""
    if not polys:
        raise ValueError("need at least one polytope")
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise ValueError("polytopes of mixed ambient dimension")
    acc = polys[0]
    for nxt in polys[1:]:
        sums = {tuple(a + b for a, b in zip(u, v)) for u in acc.vertices for v in nxt.vertices}
        acc = convex_hull(sums)
    return acc


def unit_simplex(n: int) -> LatticePolytope:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    pts = [tuple(0 for _ in range(n))]
    for i in range(n):
        pts.append(tuple(1 if j == i else 0 for j in range(n)))
    return convex_hull(pts)


def lattice_points(q: LatticePolytope, delta: Displacement | Sequence[Fraction]) -> set[IntVec]:
    """Integer z with z - delta inside or on q, by exact half-space tests."""
    dvec = delta.delta if isinstance(delta, Displacement) else tuple(Fraction(x) for x in delta)
    if len(dvec) != q.dim:
        raise ValueError("displacement dimension mismatch")
    eq_rhs = [(eq.normal, eq.offset + Fraction(_dot(eq.normal, dvec))) for eq in q.equations]
    hs_rhs = [(hs.normal, hs.offset + Fraction(_dot(hs.normal, dvec))) for hs in q.facets]

    ranges = []
    for i in range(q.dim):
        lo = min(v[i] for v in q.vertices) + dvec[i]
        hi = max(v[i] for v in q.vertices) + dvec[i]
        # exact ceil(lo) and floor(hi) on Fractions
        lo_i = -((-lo.numerator) // lo.denominator)
        hi_i = hi.numerator // hi.denominator
        if lo_i > hi_i:
            return set()
        ranges.append(range(lo_i, hi_i + 1))

    out = set()
    for z in itertools.product(*ranges):
        ok = all(_dot(n, z) == rhs for n, rhs in eq_rhs) and all(
            _dot(n, z) <= rhs for n, rhs in hs_rhs
        )
        if ok:
            out.add(z)
    return out
