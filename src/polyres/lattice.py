"""Integer convex polytopes: hulls, Minkowski sums, shifted lattice points.

All geometry is exact and integral: hull facets and affine-hull equations
carry primitive integer normals with integer offsets.  Rationals appear only
in displacement vectors.  One integer Gauss-Jordan kernel, ``_rref``, finds
facet normals and affine-hull equations as null vectors, picks a point set's
independent directions and tests extreme vertices.  Lattice-point tests run
in int64 over the whole box at once, behind a guard that raises rather than
let a dot product wrap.  Floating point is never consulted, so displacement
vectors that graze lattice hyperplanes cannot flip membership.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

IntVec = tuple[int, ...]


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _primitive(v: Iterable[int]) -> IntVec:
    v = tuple(v)
    g = math.gcd(*v)
    return v if g in (0, 1) else tuple(x // g for x in v)


def _rref(rows: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[int]]:
    """Integer Gauss-Jordan elimination; returns (reduced rows, pivot columns).

    Each pivot is cleared from every other row by cross-multiplying, and
    every row is kept primitive, so entries stay integers and small.  Pivot
    entries are positive.  A pivot column is one the columns before it do
    not span, so when the columns are vectors the pivots pick the first
    basis in list order.
    """
    work = [_primitive(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        row = work[piv] if work[piv][c] > 0 else tuple(-x for x in work[piv])
        work[piv] = work[r]
        work[r] = row
        a = row[c]
        for i, other in enumerate(work):
            f = other[c]
            if f and i != r:
                work[i] = _primitive(a * x - f * y for x, y in zip(other, row))
        pivots.append(c)
    return work, pivots


def _null_space(reduced: list[IntVec], pivots: list[int], ncols: int) -> list[IntVec]:
    """Integer basis of {x : rows . x = 0}, from ``_rref(rows)``: one
    primitive vector per free column, positive there and zero at the other
    free columns."""
    scale = math.lcm(*(row[c] for row, c in zip(reduced, pivots)))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(vec))
    return basis


@dataclass(frozen=True)
class HalfSpace:
    """normal . x <= offset with a primitive integer normal."""

    normal: IntVec
    offset: int


@dataclass(frozen=True)
class Hyperplane:
    """normal . x == offset; together these pin the polytope's affine hull."""

    normal: IntVec
    offset: int


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple[IntVec, ...]
    facets: tuple[HalfSpace, ...]
    equations: tuple[Hyperplane, ...]

    def contains(self, point: Sequence[Fraction]) -> bool:
        for eq in self.equations:
            if _dot(eq.normal, point) != eq.offset:
                return False
        for hs in self.facets:
            if _dot(hs.normal, point) > hs.offset:
                return False
        return True


def displacement_grid(n: int, magnitude: Fraction) -> list[tuple[Fraction, ...]]:
    """All 3^n displacements with entries in {-magnitude, 0, +magnitude}."""
    return list(itertools.product((-magnitude, Fraction(0), magnitude), repeat=n))


def _make_facet(pts: list[IntVec], ids: frozenset[int], ref_sum: IntVec, k: int):
    """Oriented supporting hyperplane through d affinely independent points.

    ref_sum is the coordinate sum of k strictly interior witness points; the
    normal is flipped so the witness centroid satisfies the inequality
    strictly.
    """
    members = sorted(ids)
    q0 = pts[members[0]]
    normals = _null_space(*_rref([_sub(pts[i], q0) for i in members[1:]]), len(q0))
    if len(normals) != 1:
        raise ValueError("degenerate facet: points are affinely dependent")
    normal = normals[0]
    offset = _dot(normal, q0)
    side = _dot(normal, ref_sum) - k * offset
    if side == 0:
        raise ValueError("interior witness lies on a candidate facet")
    if side > 0:
        normal = tuple(-x for x in normal)
        offset = -offset
    return normal, offset


def _hull_full_dim(pts: list[IntVec], seed: list[int]) -> tuple[list[int], list[tuple[IntVec, int]]]:
    """Beneath-beyond hull of full-dimensional integer points.

    seed holds the ids of d+1 affinely independent points.  Returns (extreme
    point ids, deduplicated facet inequalities).  Visibility is strict, so
    every horizon ridge spans a proper hyperplane with the new point;
    coplanar insertions only create duplicate hyperplanes, which are merged
    afterwards.
    """
    d = len(pts[0])
    ref_sum = tuple(sum(pts[i][j] for i in seed) for j in range(d))
    k = d + 1
    facets = {ids: _make_facet(pts, ids, ref_sum, k) for ids in (frozenset(seed) - {v} for v in seed)}

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

    ineqs = list(dict.fromkeys(facets.values()))

    candidates = sorted({v for ids in facets for v in ids})
    extreme = []
    for v in candidates:
        active = [n for (n, b) in ineqs if _dot(n, pts[v]) == b]
        if len(_rref(active)[1]) == d:
            extreme.append(v)
    return extreme, ineqs


def convex_hull(points: Iterable[IntVec]) -> LatticePolytope:
    """Exact hull of integer points: extreme vertices plus facet inequalities.

    The hull is taken in pivot coordinates, the pivot columns of the reduced
    direction matrix.  On the affine hull, dropping the other coordinates is
    an injective integer map into Z^d, so the projected points are integers,
    a facet's normal is its projected normal with zeros elsewhere, and its
    offset carries over unchanged.
    """
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")

    # The first independent directions p - v0 span the affine hull.
    v0 = pts[0]
    _, picked = _rref([[p[i] - v0[i] for p in pts[1:]] for i in range(n)])
    dirs = [_sub(pts[k + 1], v0) for k in picked]
    reduced, pivots = _rref(dirs)

    # Equations of the affine hull: integer basis of the normal space.
    equations = [Hyperplane(v, _dot(v, v0)) for v in _null_space(reduced, pivots, n)]

    if not dirs:
        return LatticePolytope(n, (v0,), (), tuple(equations))

    proj = [tuple(p[c] for c in pivots) for p in pts]
    extreme_ids, ineqs = _hull_full_dim(proj, [0] + [k + 1 for k in picked])
    facets = []
    for a_vec, b in ineqs:
        normal = [0] * n
        for c, a in zip(pivots, a_vec):
            normal[c] = a
        facets.append(HalfSpace(tuple(normal), b))
    vertices = tuple(sorted(pts[i] for i in extreme_ids))
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


def shifted_offsets(q: LatticePolytope, delta: Sequence[Fraction]) -> tuple[IntVec, IntVec] | None:
    """Right-hand sides of q + delta: (equation offsets, floored facet offsets).

    Normals and z are integral, so n.(z - delta) <= c holds exactly when
    n.z <= floor(c + n.delta), and n.(z - delta) == c needs c + n.delta to
    be an integer.  These ints therefore decide every lattice point of
    q + delta: displacements with equal offsets have equal point sets.
    None when some equation has no integer solution, so the set is empty.
    """
    if len(delta) != q.dim:
        raise ValueError("displacement dimension mismatch")
    denom = math.lcm(*(x.denominator for x in delta))
    num = [int(x * denom) for x in delta]
    eq_rhs = []
    for eq in q.equations:
        rhs, rem = divmod(eq.offset * denom + _dot(eq.normal, num), denom)
        if rem:
            return None
        eq_rhs.append(rhs)
    hs_rhs = tuple((hs.offset * denom + _dot(hs.normal, num)) // denom for hs in q.facets)
    return tuple(eq_rhs), hs_rhs


def lattice_points(q: LatticePolytope, delta: Sequence[Fraction]) -> set[IntVec]:
    """Integer z with z - delta inside or on q, by exact int64 tests.

    Every z of the bounding box is tested at once against the offsets of
    ``shifted_offsets``.  Raises OverflowError when a coordinate, an offset
    or a dot product over the box could leave int64.
    """
    offsets = shifted_offsets(q, delta)
    if offsets is None:
        return set()
    eq_rhs, hs_rhs = offsets
    lo = [math.ceil(min(v[i] for v in q.vertices) + delta[i]) for i in range(q.dim)]
    hi = [math.floor(max(v[i] for v in q.vertices) + delta[i]) for i in range(q.dim)]
    if any(a > b for a, b in zip(lo, hi)):
        return set()

    normals = [eq.normal for eq in q.equations] + [hs.normal for hs in q.facets]
    reach = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
    bound = max([*reach, *map(abs, eq_rhs + hs_rhs)] + [_dot(map(abs, n), reach) for n in normals])
    if bound >= 2**63:
        raise OverflowError("lattice box exceeds int64 range")

    box = np.indices([b - a + 1 for a, b in zip(lo, hi)]).reshape(q.dim, -1).T + np.array(lo)
    dots = box @ np.array(normals, dtype=np.int64).T
    n_eq = len(eq_rhs)
    inside = np.all(dots[:, :n_eq] == np.array(eq_rhs, dtype=np.int64), axis=1)
    inside &= np.all(dots[:, n_eq:] <= np.array(hs_rhs, dtype=np.int64), axis=1)
    return set(map(tuple, box[inside].tolist()))
