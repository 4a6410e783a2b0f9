"""Integer convex polytopes: hulls, Minkowski sums, shifted lattice points.

All geometry is exact and integral: hull facets and affine-hull equations
carry primitive integer normals with integer offsets.  Rationals appear only
in displacement vectors.  Hulls grow beneath-beyond from a seed simplex,
farthest points first, and each insertion checks the ridges it touched, so
the surface stays closed after every step; a last exact product checks
that every point satisfies every facet.  One integer Gauss-Jordan kernel,
``_rref``, finds facet normals and affine-hull equations as null vectors,
picks a point set's independent directions and tests extreme vertices.
Lattice points of one polytope under a whole list of displacements come
from one pass: one box covering every shift, its dot products with the
normals in int64 behind a guard that raises rather than let one wrap, and
one row of floored offsets per distinct shift; point sets are masks on the
box, built as sets only on request.  Floating point is never consulted, so
displacement vectors that graze lattice hyperplanes cannot flip membership.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

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
    """Beneath-beyond hull of full-dimensional integer points, farthest first.

    seed holds the ids of d+1 affinely independent points.  The others are
    inserted by decreasing distance from the seed's centroid, compared in
    integers as |(d+1) p - sum of the seed|^2, ties by id: the far points
    build most of the hull early, so most near ones are inside when they
    come and cost one visibility test.  Returns (extreme point ids,
    deduplicated facet inequalities).  Visibility is strict, so every
    horizon ridge spans a proper hyperplane with the new point; coplanar
    insertions only create duplicate hyperplanes, which are merged
    afterwards.

    ``ridges`` counts the facets on each ridge of the surface.  An insertion
    updates it for the facets it deletes and creates, and every ridge it
    touched must then lie on exactly two facets or on none: the others kept
    their two, so the surface stays ridge-2-regular after every insertion.
    A reversed facet can keep the ridges two-regular and still cut points
    off, so at the end every input point is checked against every facet
    inequality in one exact integer product.
    """
    d = len(pts[0])
    ref_sum = tuple(sum(pts[i][j] for i in seed) for j in range(d))
    k = d + 1
    facets = {ids: _make_facet(pts, ids, ref_sum, k) for ids in (frozenset(seed) - {v} for v in seed)}
    ridges = {ids - {v}: 2 for ids in facets for v in ids}

    def nearness(i: int):
        return -sum((k * x - s) ** 2 for x, s in zip(pts[i], ref_sum)), i

    for i in sorted(set(range(len(pts))) - set(seed), key=nearness):
        p = pts[i]
        visible = [ids for ids, (n, b) in facets.items() if _dot(n, p) > b]
        if not visible:
            continue
        # ridges of the visible facets, by how many of them each one bounds
        step: dict[frozenset[int], int] = {}
        for ids in visible:
            del facets[ids]
            for v in ids:
                ridge = ids - {v}
                step[ridge] = step.get(ridge, 0) + 1
        touched = set(step)
        for ridge, cnt in step.items():
            ridges[ridge] -= cnt
            if cnt == 1:
                new_ids = ridge | {i}
                facets[new_ids] = _make_facet(pts, new_ids, ref_sum, k)
                ridges[ridge] += 1
                for v in ridge:
                    side = new_ids - {v}
                    ridges[side] = ridges.get(side, 0) + 1
                    touched.add(side)
        for ridge in touched:
            if ridges[ridge] == 0:
                del ridges[ridge]
            elif ridges[ridge] != 2:
                # a torn surface: some ridge no longer separates two facets
                raise AssertionError("hull surface is not ridge-2-regular")

    ineqs = list(dict.fromkeys(facets.values()))
    # int64 when no product can wrap, Python ints otherwise
    normals = [n for n, _ in ineqs]
    offsets = [b for _, b in ineqs]
    wide = max(max(map(abs, p)) for p in pts) * max(sum(map(abs, n)) for n in normals)
    dtype = np.int64 if max(wide, *map(abs, offsets)) < 2**63 else object
    if (np.array(pts, dtype=dtype) @ np.array(normals, dtype=dtype).T > np.array(offsets, dtype=dtype)).any():
        raise AssertionError("a hull facet cuts off an input point")

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


def below(dots: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(len(offsets), points) mask of ``dots[:, z] <= offsets[r]``, one
    comparison per normal: the normals are few, and a reduction over so
    short an axis is slow."""
    out = np.ones((len(offsets), dots.shape[1]), dtype=bool)
    for d, bounds in zip(dots, offsets.T):
        out &= d <= bounds[:, None]
    return out


class LatticeBox(NamedTuple):
    """The lattice points of q + delta for a list of displacements, as masks
    on one integer box.

    ``points`` is the box [lo, hi] in C order, which is lexicographic order,
    so a unit step along coordinate j is a step of ``strides[j]`` in its
    flat index.  ``normals`` holds q's facet normals and each equation's
    normal twice, once negated; ``dots[k]`` holds the products of normal k
    with every box point and ``rows`` the distinct floored offsets, so the
    lattice points of the displacement ``deltas[j]`` are the z of the box
    with ``dots[:, z] <= rows[row_of[j]]``, marked in ``inside[row_of[j]]``.
    ``row_of[j]`` is None when no integer point meets q's equations after
    that shift.  An empty box has no points.  No coordinate, offset or dot
    product exceeds ``bound`` in absolute value.
    """

    points: np.ndarray
    strides: tuple[int, ...]
    normals: np.ndarray
    dots: np.ndarray
    rows: np.ndarray
    row_of: tuple[int | None, ...]
    bound: int
    inside: np.ndarray


def lattice_points(q: LatticePolytope, deltas: Sequence[Sequence[Fraction]]) -> LatticeBox:
    """The integer z with z - delta inside or on q, for every delta of
    ``deltas``, as one ``LatticeBox``.

    Normals and z are integral, so n.(z - delta) <= c holds exactly when
    n.z <= floor(c + n.delta), and n.(z - delta) == c needs c + n.delta to
    be an integer.  These floored offsets, exact from one matrix product
    (int64 when it cannot wrap, Python ints otherwise), therefore decide
    every lattice point of q + delta: displacements with equal offsets
    share one row.  The displacements are scaled to integer numerators
    over their common denominator once, and the box that covers every
    shift is bounded from those integers; its int64 dot products with the
    normals are taken once.  Raises OverflowError when a coordinate, an
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
    index = {k: i for i, k in enumerate(dict.fromkeys(k for k in keys if k is not None))}
    row_of = tuple(None if k is None else index[k] for k in keys)
    rows = list(index)
    live = [d for d, k in zip(nums, keys) if k is not None]
    lo, hi = [0] * q.dim, [-1] * q.dim
    if live:
        for i in range(q.dim):
            coords = [v[i] for v in q.vertices]
            shifts = [d[i] for d in live]
            lo[i] = -((-min(coords) * denom - min(shifts)) // denom)
            hi[i] = (max(coords) * denom + max(shifts)) // denom
    if any(a > b for a, b in zip(lo, hi)):
        # no point to test: the offsets need not fit int64
        lo, hi = [0] * q.dim, [-1] * q.dim
        rows = [[0] * len(normals) for _ in rows]
        bound = 0
    else:
        reach = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
        bound = max([*reach, *(abs(x) for r in rows for x in r)] + [_dot(map(abs, n), reach) for n in normals])
        if bound >= 2**63:
            raise OverflowError("lattice box exceeds int64 range")

    # an equation n.x == c is the two inequalities n.x <= c and -n.x <= -c
    sizes = [b - a + 1 for a, b in zip(lo, hi)]
    box = np.indices(sizes, dtype=np.int64).reshape(q.dim, -1).T + np.array(lo, dtype=np.int64)
    strides = tuple(math.prod(sizes[i + 1:]) for i in range(q.dim))
    a = np.array(normals, dtype=np.int64).reshape(-1, q.dim)
    a = np.concatenate([a, -a[:n_eq]])
    b = np.array(rows, dtype=np.int64).reshape(-1, len(normals))
    b = np.concatenate([b, -b[:, :n_eq]], axis=1)
    dots = a @ box.T
    return LatticeBox(box, strides, a, dots, b, row_of, bound, below(dots, b))
