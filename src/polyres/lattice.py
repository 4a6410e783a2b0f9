"""Integer convex polytopes: hulls, Minkowski sums, shifted lattice points.

All geometry is exact and integral: hull facets and affine-hull equations
carry primitive integer normals with integer offsets.  Rationals appear only
in displacement vectors.  One integer Gauss-Jordan kernel, ``_rref``, finds
facet normals and affine-hull equations as null vectors, picks a point set's
independent directions and tests extreme vertices.  Lattice points of one
polytope under a whole list of displacements come from one pass: one box
covering every shift, tested in int64 behind a guard that raises rather
than let a dot product wrap.  Floating point is never consulted, so
displacement vectors that graze lattice hyperplanes cannot flip membership.
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


def lattice_points(q: LatticePolytope, deltas: Sequence[Sequence[Fraction]]) -> list[frozenset[IntVec]]:
    """For each delta of ``deltas``, the integer z with z - delta inside or on q.

    Normals and z are integral, so n.(z - delta) <= c holds exactly when
    n.z <= floor(c + n.delta), and n.(z - delta) == c needs c + n.delta to
    be an integer.  These floored offsets, exact from one matrix product
    (int64 when it cannot wrap, Python ints otherwise), therefore decide
    every lattice point of q + delta: displacements with equal offsets
    share one set.  One bounding box covers every shift; its int64 dot
    products with the normals are taken once, and each distinct offset row
    costs one comparison.  Raises OverflowError when a coordinate, an
    offset or a dot product over the box could leave int64.
    """
    if any(len(d) != q.dim for d in deltas):
        raise ValueError("displacement dimension mismatch")
    n_eq = len(q.equations)
    normals = [eq.normal for eq in q.equations] + [hs.normal for hs in q.facets]
    offsets = [eq.offset for eq in q.equations] + [hs.offset for hs in q.facets]
    denom = math.lcm(*(x.denominator for d in deltas for x in d))
    nums = [[x.numerator * (denom // x.denominator) for x in d] for d in deltas]
    # bounds every entry of the product below and of its factors
    wide = denom * max(map(abs, offsets)) + max([1] + [abs(x) for d in nums for x in d]) * max(
        sum(map(abs, n)) for n in normals)
    dtype = np.int64 if wide < 2**63 else object
    scaled = (np.array(nums, dtype=dtype).reshape(-1, q.dim) @ np.array(normals, dtype=dtype).T
              + np.array(offsets, dtype=dtype) * denom)
    rhs = scaled // denom
    solvable = (scaled[:, :n_eq] % denom == 0).all(axis=1)
    keys = [tuple(r) if ok else None for r, ok in zip(rhs.tolist(), solvable.tolist())]
    live = [d for d, k in zip(deltas, keys) if k is not None]
    rows = list(dict.fromkeys(k for k in keys if k is not None))
    sets: dict[IntVec | None, frozenset[IntVec]] = {None: frozenset()}
    if not rows:
        return [frozenset()] * len(keys)
    lo = [math.ceil(min(v[i] for v in q.vertices) + min(d[i] for d in live)) for i in range(q.dim)]
    hi = [math.floor(max(v[i] for v in q.vertices) + max(d[i] for d in live)) for i in range(q.dim)]
    if any(a > b for a, b in zip(lo, hi)):
        return [frozenset()] * len(keys)

    reach = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
    bound = max([*reach, *(abs(x) for r in rows for x in r)] + [_dot(map(abs, n), reach) for n in normals])
    if bound >= 2**63:
        raise OverflowError("lattice box exceeds int64 range")

    # an equation n.x == c is the two inequalities n.x <= c and -n.x <= -c
    box = np.indices([b - a + 1 for a, b in zip(lo, hi)]).reshape(q.dim, -1).T + np.array(lo)
    a = np.array(normals, dtype=np.int64)
    dots = box @ np.concatenate([a, -a[:n_eq]]).T
    b = np.array(rows, dtype=np.int64)
    for k, r in zip(rows, np.concatenate([b, -b[:, :n_eq]], axis=1)):
        sets[k] = frozenset(map(tuple, box[(dots <= r).all(axis=1)].tolist()))
    return [sets[k] for k in keys]
