import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyres.lattice import (
    _dot,
    _null_space,
    _rref,
    convex_hull,
    displacement_grid,
    lattice_points,
    minkowski_sum,
    shifted_offsets,
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
            assert hull.contains(tuple(Fraction(x) for x in p))

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


class TestLatticePoints:
    def test_example_minkowski_interior(self):
        q = minkowski_sum([convex_hull(A1), convex_hull(A2)])
        pts = lattice_points(q, (-TENTH, -TENTH))
        assert pts == EXAMPLE_B

    def test_unit_simplex_unshifted(self):
        pts = lattice_points(unit_simplex(2), (Fraction(0), Fraction(0)))
        assert pts == {(0, 0), (1, 0), (0, 1)}

    def test_unit_simplex_shifted(self):
        pts = lattice_points(unit_simplex(2), (-TENTH, -TENTH))
        assert pts == {(0, 0)}

    def test_vertices_inside_unshifted(self):
        for poly in (convex_hull(A1), convex_hull(A2), unit_simplex(3)):
            zero = tuple(Fraction(0) for _ in range(poly.dim))
            assert set(poly.vertices) <= lattice_points(poly, zero)

    def test_lower_dimensional_polytope(self):
        seg = convex_hull([(0, 0), (3, 0)])
        zero = (Fraction(0), Fraction(0))
        assert lattice_points(seg, zero) == {(0, 0), (1, 0), (2, 0), (3, 0)}
        assert lattice_points(seg, (Fraction(0), -TENTH)) == set()

    def test_displacement_off_the_affine_hull(self):
        # the triangle x + y + z = 2 in 3-D; a shift along (1, -1, 0) stays in its plane
        tri = convex_hull([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert lattice_points(tri, (TENTH, TENTH, TENTH)) == set()
        assert lattice_points(tri, (TENTH, -TENTH, Fraction(0))) == {(1, 0, 1), (1, 1, 0), (2, 0, 0)}

    def test_equal_offsets_equal_points(self):
        # n.delta differs between the two grids, yet its floor often does not
        q = minkowski_sum([convex_hull(A1), convex_hull(A2), unit_simplex(2)])
        by_offsets: dict = {}
        for delta in displacement_grid(2, TENTH) + displacement_grid(2, MILLI):
            expected = brute_force_points(q, delta, (-1, -1), (7, 6))
            assert lattice_points(q, delta) == expected
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
            lattice_points(diagonal, zero)
        axis = convex_hull([(big, 0), (big + 1, 0)])
        assert lattice_points(axis, zero) == {(big, 0), (big + 1, 0)}


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


def brute_force_points(q, delta, lo, hi):
    """Integer z of the box [lo, hi] with z - delta in q, by Fraction tests."""
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return {z for z in box if q.contains(tuple(zi - d for zi, d in zip(z, delta)))}


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
        assert lattice_points(hull, delta) == brute_force_points(hull, delta, lo, hi)

    @given(
        pts=point_sets_4d(),
        delta=st.sampled_from(displacement_grid(4, TENTH) + displacement_grid(4, MILLI)),
    )
    @settings(max_examples=40)
    def test_int64_box_4d(self, pts, delta):
        hull = convex_hull(pts)
        lo = [min(p[i] for p in pts) - 1 for i in range(4)]
        hi = [max(p[i] for p in pts) + 1 for i in range(4)]
        assert lattice_points(hull, delta) == brute_force_points(hull, delta, lo, hi)

    @given(pts=point_sets_2d, di=st.integers(-1, 1), dj=st.integers(-1, 1))
    @settings(max_examples=40)
    def test_membership_against_caratheodory(self, pts, di, dj):
        hull = convex_hull(pts)
        delta = (di * TENTH, dj * TENTH)
        got = lattice_points(hull, delta)
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
        np_, nq, ns = (len(lattice_points(x, zero)) for x in (p, q, s))
        assert ns >= max(np_, nq)


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


class TestUnitSimplex:
    def test_dimensions(self):
        assert set(unit_simplex(1).vertices) == {(0,), (1,)}
        assert set(unit_simplex(2).vertices) == {(0, 0), (1, 0), (0, 1)}
        assert len(unit_simplex(3).vertices) == 4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            unit_simplex(0)
