import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import point_sets
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyres.lattice
from polyres.lattice import (
    HalfSpace,
    _dot,
    _hull_full_dim,
    _null_space,
    _rref,
    convex_hull,
    displacement_grid,
    lattice_points,
    minkowski_sum,
    unit_simplex,
)
from polyres.linalg import modp_eliminate

A1 = [(3, 3), (2, 3), (3, 2), (2, 2), (0, 3), (2, 1), (0, 2), (1, 1), (2, 0), (0, 1)]
A2 = [(2, 0), (0, 1), (1, 0), (0, 0)]

EXAMPLE_B = {
    (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
    (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
}

TENTH = Fraction(1, 10)
MILLI = Fraction(1, 1000)


def frac_affine_membership(point, vertices):
    """Exact convex-combination test via Caratheodory subsets; independent of
    the facet machinery under test."""
    n = len(point)
    pts = [tuple(Fraction(x) for x in v) for v in vertices]
    target = tuple(Fraction(x) for x in point)
    for size in range(1, n + 2):
        for subset in itertools.combinations(pts, size):
            # solve sum l_i v_i = target, sum l_i = 1 by Gaussian elimination
            rows = [[subset[j][i] for j in range(size)] + [target[i]] for i in range(n)]
            rows.append([Fraction(1)] * size + [Fraction(1)])
            piv_rows = []
            r = 0
            for c in range(size):
                piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                inv = 1 / rows[r][c]
                rows[r] = [x * inv for x in rows[r]]
                for i in range(len(rows)):
                    if i != r and rows[i][c] != 0:
                        f = rows[i][c]
                        rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                piv_rows.append(c)
                r += 1
            inconsistent = any(
                all(row[c] == 0 for c in range(size)) and row[-1] != 0 for row in rows[r:]
            )
            if inconsistent:
                continue
            lam = [Fraction(0)] * size
            for i, c in enumerate(piv_rows):
                lam[c] = rows[i][-1]
            if sum(lam) == 1 and all(x >= 0 for x in lam):
                combo = tuple(sum(l * v[i] for l, v in zip(lam, subset)) for i in range(n))
                if combo == target:
                    return True
    return False


class TestConvexHull:
    def test_example_f2_support(self):
        hull = convex_hull(A2)
        assert set(hull.vertices) == {(0, 0), (2, 0), (0, 1)}

    def test_single_point(self):
        hull = convex_hull([(3, 3)])
        assert hull.vertices == ((3, 3),)
        assert hull.dim - len(hull.equations) == 0

    def test_collinear(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0)])
        assert set(hull.vertices) == {(0, 0), (2, 0)}
        assert hull.dim - len(hull.equations) == 1

    def test_extreme_points_match_oracle(self):
        pts = A1
        hull = convex_hull(pts)
        for p in pts:
            others = [q for q in pts if q != p]
            is_extreme = not frac_affine_membership(p, others)
            assert (p in hull.vertices) == is_extreme

    def test_every_input_point_inside(self):
        hull = convex_hull(A1)
        for p in A1:
            assert contains(hull, p)

    def test_3d_degenerate_slab(self):
        pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0)]
        hull = convex_hull(pts)
        assert hull.dim - len(hull.equations) == 2
        assert set(hull.vertices) == {(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)}


class TestMinkowskiSum:
    def test_origin_is_identity(self):
        p = convex_hull(A1)
        origin = convex_hull([(0, 0)])
        assert set(minkowski_sum([p, origin]).vertices) == set(p.vertices)

    def test_segments_to_square(self):
        sx = convex_hull([(0, 0), (1, 0)])
        sy = convex_hull([(0, 0), (0, 1)])
        sq = minkowski_sum([sx, sy])
        assert set(sq.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_commutative_associative(self):
        p1, p2 = convex_hull(A1), convex_hull(A2)
        np0 = unit_simplex(2)
        orders = [
            minkowski_sum([p1, p2, np0]),
            minkowski_sum([np0, p2, p1]),
            minkowski_sum([p2, np0, p1]),
        ]
        base = set(orders[0].vertices)
        assert all(set(q.vertices) == base for q in orders)


@st.composite
def edge_polytopes(draw):
    """(corner, offsets, magnitudes): a hull of small offsets from a corner
    whose coordinates lie near -2^62, 0 or 2^62, in 2-D or 3-D, and one or
    two displacement magnitudes.  Near 2^62, a normal with two unit entries
    puts a box's dot products at the edge of int64."""
    n = draw(st.sampled_from([2, 3]))
    corner = tuple(draw(st.sampled_from([-(2**62), 0, 2**62])) + draw(st.integers(-6, 6)) for _ in range(n))
    offsets = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4))
    mags = draw(st.lists(st.sampled_from([TENTH, MILLI, Fraction(1), Fraction(5, 2)]), min_size=1, max_size=2,
                         unique=True))
    return corner, offsets, tuple(mags)


class TestLatticePoints:
    def test_example_minkowski_interior(self):
        q = minkowski_sum([convex_hull(A1), convex_hull(A2)])
        pts = point_sets(lattice_points(q, [(-TENTH, -TENTH)]))[0]
        assert pts == EXAMPLE_B

    def test_unit_simplex_unshifted(self):
        pts = point_sets(lattice_points(unit_simplex(2), [(Fraction(0), Fraction(0))]))[0]
        assert pts == {(0, 0), (1, 0), (0, 1)}

    def test_unit_simplex_shifted(self):
        pts = point_sets(lattice_points(unit_simplex(2), [(-TENTH, -TENTH)]))[0]
        assert pts == {(0, 0)}

    def test_vertices_inside_unshifted(self):
        for poly in (convex_hull(A1), convex_hull(A2), unit_simplex(3)):
            zero = tuple(Fraction(0) for _ in range(poly.dim))
            assert set(poly.vertices) <= point_sets(lattice_points(poly, [zero]))[0]

    def test_lower_dimensional_polytope(self):
        seg = convex_hull([(0, 0), (3, 0)])
        zero = (Fraction(0), Fraction(0))
        assert point_sets(lattice_points(seg, [zero]))[0] == {(0, 0), (1, 0), (2, 0), (3, 0)}
        assert point_sets(lattice_points(seg, [(Fraction(0), -TENTH)]))[0] == set()

    def test_displacement_off_the_affine_hull(self):
        # the triangle x + y + z = 2 in 3-D; a shift along (1, -1, 0) stays in its plane
        tri = convex_hull([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert point_sets(lattice_points(tri, [(TENTH, TENTH, TENTH)]))[0] == set()
        assert point_sets(lattice_points(tri, [(TENTH, -TENTH, Fraction(0))]))[0] == {(1, 0, 1), (1, 1, 0), (2, 0, 0)}

    def test_equal_offsets_equal_points(self):
        # n.delta differs between the two grids, yet its floor often does not
        q = minkowski_sum([convex_hull(A1), convex_hull(A2), unit_simplex(2)])
        by_offsets: dict = {}
        for delta in displacement_grid(2, TENTH) + displacement_grid(2, MILLI):
            expected = brute_force_points(q, delta, (-1, -1), (7, 6))
            assert point_sets(lattice_points(q, [delta]))[0] == expected
            by_offsets.setdefault(shifted_offsets(q, delta), []).append(expected)
        assert len(by_offsets) < 17  # some distinct displacements share offsets
        for sets in by_offsets.values():
            assert all(s == sets[0] for s in sets)

    def test_int64_guard(self):
        big = 2**62
        zero = (Fraction(0), Fraction(0))
        # the diagonal's equation x - y = 0 bounds |x| + |y| by 2^63 + 2 only
        diagonal = convex_hull([(big, big), (big + 1, big + 1)])
        with pytest.raises(OverflowError):
            lattice_points(diagonal, [zero])
        with pytest.raises(OverflowError):
            lattice_points(diagonal, [zero, (MILLI, MILLI)])
        axis = convex_hull([(big, 0), (big + 1, 0)])
        assert point_sets(lattice_points(axis, [zero])) == [{(big, 0), (big + 1, 0)}]
        # the offsets scaled by 1000 leave int64; the offsets themselves do not
        got = point_sets(lattice_points(axis, [zero, (MILLI, Fraction(0))]))
        assert got == [{(big, 0), (big + 1, 0)}, {(big + 1, 0)}]

    @given(case=edge_polytopes())
    # at the edge: the boxes of the larger grid leave int64, those of the smaller do not
    @example(case=((2**62 - 2, 2**62 - 2), ((0, 0),), (TENTH, Fraction(1))))
    @example(case=((2**62 - 3, 0, 2**62 - 3), ((0, 0, 0),), (MILLI, Fraction(5, 2))))
    @settings(max_examples=60)
    def test_int64_guard_on_grid_lists(self, case):
        # the lists the search passes: one list raises exactly when one of its
        # displacements does, and otherwise gives the per-displacement sets
        corner, offsets, mags = case
        n = len(corner)
        q = minkowski_sum([unit_simplex(n), convex_hull([tuple(map(sum, zip(corner, o))) for o in offsets])])
        deltas = list(dict.fromkeys(d for mag in mags for d in displacement_grid(n, mag)))
        singles = []
        for delta in deltas:
            try:
                singles.append(point_sets(lattice_points(q, [delta]))[0])
            except OverflowError:
                singles.append(None)
        try:
            got = point_sets(lattice_points(q, deltas))
        except OverflowError:
            assert None in singles
        else:
            assert got == singles


class TestDisplacement:
    def test_grid_size(self):
        assert len(displacement_grid(2, TENTH)) == 9
        assert len(displacement_grid(3, TENTH)) == 27


point_sets_2d = st.sets(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4)), min_size=1, max_size=9
)


@st.composite
def point_sets_3d(draw):
    """Integer points p0 + sum c_i u_i over k = 1, 2 or 3 small directions:
    collinear, coplanar and full-dimensional sets, degenerate ones too."""
    k = draw(st.integers(1, 3))
    p0 = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    dirs = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=k, max_size=k))
    params = draw(st.sets(st.tuples(*[st.integers(0, 2)] * k), min_size=1, max_size=8))
    return {tuple(p0[i] + sum(c * u[i] for c, u in zip(cs, dirs)) for i in range(3)) for cs in params}


@st.composite
def point_sets_4d(draw):
    """The corners p0 + sum c_i u_i, c_i in {0, 2}, of k = 1 ... 4 small
    directions, less a drawn few: dependent directions and dropped corners
    give sets of every affine dimension, the doubled edges interior points."""
    k = 4 - draw(st.integers(0, 3))
    p0 = draw(st.tuples(*[st.integers(-2, 2)] * 4))
    dirs = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * 4), min_size=k, max_size=k))
    cube = list(itertools.product((0, 2), repeat=k))
    dropped = draw(st.sets(st.sampled_from(cube[1:]), max_size=len(cube) - 2))
    return {
        tuple(p0[i] + sum(c * u[i] for c, u in zip(cs, dirs)) for i in range(4))
        for cs in cube
        if cs not in dropped
    }


def contains(q, num, den=1):
    """Exact membership of the rational point num / den in q, num an integer
    vector, on its equations and facets."""
    return all(_dot(eq.normal, num) == eq.offset * den for eq in q.equations) and all(
        _dot(hs.normal, num) <= hs.offset * den for hs in q.facets
    )


def shifted_offsets(q, delta):
    """The right-hand sides that decide q + delta's lattice points, one
    displacement at a time in Python ints: (equation offsets, floored facet
    offsets), or None when some equation has no integer solution."""
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


def brute_force_points(q, delta, lo, hi):
    """Integer z of the box [lo, hi] with z - delta in q, by exact tests of
    every z on the common denominator of delta."""
    den = math.lcm(*(Fraction(d).denominator for d in delta))
    shift = [int(d * den) for d in delta]
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return {z for z in box if contains(q, [zi * den - s for zi, s in zip(z, shift)], den)}


class TestOracleEquivalence:
    @given(pts=point_sets_3d(), delta=st.sampled_from(displacement_grid(3, TENTH)))
    @settings(max_examples=60)
    def test_integral_geometry_3d(self, pts, delta):
        hull = convex_hull(pts)
        assert set(hull.vertices) == {p for p in pts if not frac_affine_membership(p, pts - {p})}
        for eq in hull.equations:
            assert type(eq.offset) is int and all(type(x) is int for x in eq.normal)
            assert all(_dot(eq.normal, v) == eq.offset for v in hull.vertices)
        for hs in hull.facets:
            assert type(hs.offset) is int and all(type(x) is int for x in hs.normal)
            assert all(_dot(hs.normal, v) <= hs.offset for v in hull.vertices)
            assert any(_dot(hs.normal, v) == hs.offset for v in hull.vertices)
        lo = [min(p[i] for p in pts) - 1 for i in range(3)]
        hi = [max(p[i] for p in pts) + 1 for i in range(3)]
        assert point_sets(lattice_points(hull, [delta]))[0] == brute_force_points(hull, delta, lo, hi)

    @given(
        pts=point_sets_4d(),
        delta=st.sampled_from(displacement_grid(4, TENTH) + displacement_grid(4, MILLI)),
    )
    @settings(max_examples=40)
    def test_int64_box_4d(self, pts, delta):
        hull = convex_hull(pts)
        lo = [min(p[i] for p in pts) - 1 for i in range(4)]
        hi = [max(p[i] for p in pts) + 1 for i in range(4)]
        assert point_sets(lattice_points(hull, [delta]))[0] == brute_force_points(hull, delta, lo, hi)

    @given(pts=point_sets_2d, di=st.integers(-1, 1), dj=st.integers(-1, 1))
    @settings(max_examples=40)
    def test_membership_against_caratheodory(self, pts, di, dj):
        hull = convex_hull(pts)
        delta = (di * TENTH, dj * TENTH)
        got = point_sets(lattice_points(hull, [delta]))[0]
        lo = [min(p[i] for p in pts) - 1 for i in range(2)]
        hi = [max(p[i] for p in pts) + 1 for i in range(2)]
        for z in itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
            shifted = tuple(Fraction(zi) - d for zi, d in zip(z, delta))
            expected = frac_affine_membership(shifted, hull.vertices)
            assert (z in got) == expected, (z, delta, sorted(pts))

    @given(pts1=point_sets_2d, pts2=point_sets_2d)
    @settings(max_examples=30)
    def test_sum_has_no_fewer_points(self, pts1, pts2):
        p, q = convex_hull(pts1), convex_hull(pts2)
        s = minkowski_sum([p, q])
        zero = (Fraction(0), Fraction(0))
        np_, nq, ns = (len(point_sets(lattice_points(x, [zero]))[0]) for x in (p, q, s))
        assert ns >= max(np_, nq)


def check_displacement_lists(pts):
    """One call per displacement list: the 1/10 grid, then both grids
    together (the zero vector twice).  Every entry is the Fraction oracle's
    set, and displacements with equal offsets get one set object."""
    hull = convex_hull(pts)
    n = hull.dim
    for deltas in (displacement_grid(n, TENTH), displacement_grid(n, TENTH) + displacement_grid(n, MILLI)):
        got = point_sets(lattice_points(hull, deltas))
        assert len(got) == len(deltas)
        shared: dict = {}
        for delta, points in zip(deltas, got):
            # every point of the shifted hull lies in the shifted box of pts
            lo = [math.ceil(min(p[i] for p in pts) + delta[i]) for i in range(n)]
            hi = [math.floor(max(p[i] for p in pts) + delta[i]) for i in range(n)]
            assert points == brute_force_points(hull, delta, lo, hi)
            assert shared.setdefault(shifted_offsets(hull, delta), points) is points


class TestBatchedKernel:
    @given(pts=point_sets_2d)
    @settings(max_examples=30)
    def test_displacement_lists_2d(self, pts):
        check_displacement_lists(pts)

    @given(pts=point_sets_3d())
    @settings(max_examples=30)
    def test_displacement_lists_3d(self, pts):
        check_displacement_lists(pts)

    @given(pts=point_sets_4d())
    @settings(max_examples=20)
    def test_displacement_lists_4d(self, pts):
        check_displacement_lists(pts)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


class TestRref:
    def test_rows_stay_primitive(self):
        # the rational form is [[1, 0, 11/2], [0, 1, -7]]
        rref, pivots = _rref([[2, 1, 4], [4, 3, 1]])
        assert rref == [(2, 0, 11), (0, 1, -7)]
        assert pivots == [0, 1]
        assert _null_space(rref, pivots, 3) == [(-11, 14, 2)]

    def test_pivots_pick_first_basis_of_columns(self):
        # vector 1 = 2 * vector 0 and vector 3 = vector 0 + vector 2
        vecs = [(1, 0, 1), (2, 0, 2), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
        rref, pivots = _rref([[v[i] for v in vecs] for i in range(3)])
        assert pivots == [0, 2, 4]
        assert [row[1] for row in rref] == [2, 0, 0]
        assert [row[3] for row in rref] == [1, 1, 0]

    def test_empty(self):
        assert _rref([]) == ([], [])
        assert _null_space([], [], 2) == [(1, 0), (0, 1)]

    @given(m=small_matrices())
    @settings(max_examples=200)
    def test_against_prime_field(self, m):
        # every minor is at most 5! * 3^5 in size, far below the prime
        rref, pivots = _rref(m)
        assert pivots == modp_eliminate(np.array(m), 2147483647)[2]
        n = len(m[0])
        basis = _null_space(rref, pivots, n)
        free = [c for c in range(n) if c not in pivots]
        assert len(basis) == n - len(pivots)
        for fc, vec in zip(free, basis):
            assert math.gcd(*vec) == 1 and vec[fc] > 0
            assert all(_dot(row, vec) == 0 for row in m)


def _sorted_hull(pts, seed):
    """``_hull_full_dim`` before farthest-first insertion, kept as its
    oracle: the other points are inserted in sorted order, and the ridge
    count of the whole surface is rebuilt and checked after every insertion.
    Facets come from ``polyres.lattice._make_facet`` at call time, so a
    patched one reaches this hull too."""
    d = len(pts[0])
    ref_sum = tuple(sum(pts[i][j] for i in seed) for j in range(d))
    k = d + 1

    def make(ids):
        return polyres.lattice._make_facet(pts, ids, ref_sum, k)

    facets = {ids: make(ids) for ids in (frozenset(seed) - {v} for v in seed)}
    for i in sorted(set(range(len(pts))) - set(seed)):
        p = pts[i]
        visible = [ids for ids, (n, b) in facets.items() if _dot(n, p) > b]
        if not visible:
            continue
        ridge_count = {}
        for ids in visible:
            for v in ids:
                ridge = ids - {v}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        for ids in visible:
            del facets[ids]
        for ridge, cnt in ridge_count.items():
            if cnt == 1:
                facets[ridge | {i}] = make(ridge | {i})
        check = {}
        for ids in facets:
            for v in ids:
                ridge = ids - {v}
                check[ridge] = check.get(ridge, 0) + 1
        if any(c != 2 for c in check.values()):
            raise AssertionError("hull surface is not ridge-2-regular")
    ineqs = list(dict.fromkeys(facets.values()))
    extreme = [
        v for v in sorted({v for ids in facets for v in ids})
        if len(_rref([n for (n, b) in ineqs if _dot(n, pts[v]) == b])[1]) == d
    ]
    return extreme, ineqs


hull_inputs = st.one_of(
    st.sets(st.tuples(st.integers(-4, 4)), min_size=1, max_size=6),
    point_sets_2d,
    point_sets_3d(),
    point_sets_4d(),
    # dense boxes: many points on every facet plane, most of them interior
    st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=40),
)


class TestHullOracle:
    @given(pts=hull_inputs)
    @settings(max_examples=300)
    def test_same_vertices_and_facets_as_sorted_insertion(self, pts):
        got = convex_hull(pts)
        with mock.patch.object(polyres.lattice, "_hull_full_dim", _sorted_hull):
            want = convex_hull(pts)
        assert got.vertices == want.vertices
        assert got.equations == want.equations
        assert len(got.facets) == len(set(got.facets))
        assert set(got.facets) == set(want.facets)

    @pytest.mark.parametrize(
        ("hull", "facet", "message"),
        [(_hull_full_dim, 8, "not ridge-2-regular"), (_sorted_hull, 8, "not ridge-2-regular")]
        + [(_hull_full_dim, n, "cuts off an input point") for n in (1, 5, 7, 10)],
        ids=["farthest_first", "sorted_oracle", *(f"farthest_first_facet_{n}" for n in (1, 5, 7, 10))],
    )
    def test_misoriented_facet_tears_the_surface(self, hull, facet, message, monkeypatch):
        # one facet gets its inequality reversed.  The eighth made tears the
        # ridges; the 1st, 5th, 7th and 10th of farthest-first insertion leave
        # every ridge on two facets, and the final containment check refuses
        # the hull instead
        real = polyres.lattice._make_facet
        made = itertools.count(1)

        def misoriented(*args):
            normal, offset = real(*args)
            return (tuple(-x for x in normal), -offset) if next(made) == facet else (normal, offset)

        monkeypatch.setattr(polyres.lattice, "_make_facet", misoriented)
        monkeypatch.setattr(polyres.lattice, "_hull_full_dim", hull)
        pts = {((7 * i) % 5, (3 * i) % 7, (i * i) % 6) for i in range(40)}
        assert len(pts) == 40
        with pytest.raises(AssertionError, match=message):
            convex_hull(pts)


    def test_containment_check_past_int64(self):
        # the facet x + y <= 2^63 + 2 takes its products past int64: the
        # containment check runs them in Python ints
        big = 2**62
        pts = [(big, big), (big + 2, big), (big, big + 2), (big + 1, big), (big + 1, big + 1)]
        hull = convex_hull(pts)
        assert hull.vertices == ((big, big), (big, big + 2), (big + 2, big))
        assert set(hull.facets) == {
            HalfSpace((-1, 0), -big), HalfSpace((0, -1), -big), HalfSpace((1, 1), 2 * big + 2)
        }


class TestUnitSimplex:
    def test_dimensions(self):
        assert set(unit_simplex(1).vertices) == {(0,), (1,)}
        assert set(unit_simplex(2).vertices) == {(0, 0), (1, 0), (0, 1)}
        assert len(unit_simplex(3).vertices) == 4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            unit_simplex(0)
