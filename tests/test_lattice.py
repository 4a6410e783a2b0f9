import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyres.lattice import (
    Displacement,
    _frac_rref,
    convex_hull,
    displacement_grid,
    lattice_points,
    minkowski_sum,
    unit_simplex,
)

A1 = [(3, 3), (2, 3), (3, 2), (2, 2), (0, 3), (2, 1), (0, 2), (1, 1), (2, 0), (0, 1)]
A2 = [(2, 0), (0, 1), (1, 0), (0, 0)]

EXAMPLE_B = {
    (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
    (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
}

TENTH = Fraction(1, 10)


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
        assert hull.affine_dim == 0

    def test_collinear(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0)])
        assert set(hull.vertices) == {(0, 0), (2, 0)}
        assert hull.affine_dim == 1

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
        assert hull.affine_dim == 2
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
        pts = lattice_points(q, Displacement((-TENTH, -TENTH)))
        assert pts == EXAMPLE_B

    def test_unit_simplex_unshifted(self):
        pts = lattice_points(unit_simplex(2), Displacement((Fraction(0), Fraction(0))))
        assert pts == {(0, 0), (1, 0), (0, 1)}

    def test_unit_simplex_shifted(self):
        pts = lattice_points(unit_simplex(2), Displacement((-TENTH, -TENTH)))
        assert pts == {(0, 0)}

    def test_vertices_inside_unshifted(self):
        for poly in (convex_hull(A1), convex_hull(A2), unit_simplex(3)):
            zero = Displacement(tuple(Fraction(0) for _ in range(poly.dim)))
            assert set(poly.vertices) <= lattice_points(poly, zero)

    def test_lower_dimensional_polytope(self):
        seg = convex_hull([(0, 0), (3, 0)])
        zero = Displacement((Fraction(0), Fraction(0)))
        assert lattice_points(seg, zero) == {(0, 0), (1, 0), (2, 0), (3, 0)}
        assert lattice_points(seg, Displacement((Fraction(0), -TENTH))) == set()


class TestDisplacement:
    def test_grid_size(self):
        assert len(displacement_grid(2, TENTH)) == 9
        assert len(displacement_grid(3, TENTH)) == 27

    def test_mixed_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            Displacement((Fraction(1, 10), Fraction(1, 5)))


point_sets_2d = st.sets(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4)), min_size=1, max_size=9
)


class TestOracleEquivalence:
    @given(pts=point_sets_2d, di=st.integers(-1, 1), dj=st.integers(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_membership_against_caratheodory(self, pts, di, dj):
        hull = convex_hull(pts)
        delta = (di * TENTH, dj * TENTH)
        got = lattice_points(hull, Displacement(delta))
        lo = [min(p[i] for p in pts) - 1 for i in range(2)]
        hi = [max(p[i] for p in pts) + 1 for i in range(2)]
        for z in itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)):
            shifted = tuple(Fraction(zi) - d for zi, d in zip(z, delta))
            expected = frac_affine_membership(shifted, hull.vertices)
            assert (z in got) == expected, (z, delta, sorted(pts))

    @given(pts1=point_sets_2d, pts2=point_sets_2d)
    @settings(max_examples=30, deadline=None)
    def test_sum_has_no_fewer_points(self, pts1, pts2):
        p, q = convex_hull(pts1), convex_hull(pts2)
        s = minkowski_sum([p, q])
        zero = Displacement((Fraction(0), Fraction(0)))
        np_, nq, ns = (len(lattice_points(x, zero)) for x in (p, q, s))
        assert ns >= max(np_, nq)


class TestFracRref:
    def test_small_rational(self):
        rref, pivots = _frac_rref([[Fraction(1, 2), 1, Fraction(1, 3)], [1, 2, 1]])
        assert rref == [[1, 2, 0], [0, 0, 1]]
        assert pivots == [0, 2]

    def test_pivots_pick_first_basis_of_columns(self):
        # vector 1 = 2 * vector 0 and vector 3 = vector 0 + vector 2
        vecs = [(1, 0, 1), (2, 0, 2), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
        rref, pivots = _frac_rref([[v[i] for v in vecs] for i in range(3)])
        assert pivots == [0, 2, 4]
        assert [row[1] for row in rref] == [2, 0, 0]
        assert [row[3] for row in rref] == [1, 1, 0]

    def test_empty(self):
        assert _frac_rref([]) == ([], [])


class TestUnitSimplex:
    def test_dimensions(self):
        assert set(unit_simplex(1).vertices) == {(0,), (1,)}
        assert set(unit_simplex(2).vertices) == {(0, 0), (1, 0), (0, 1)}
        assert len(unit_simplex(3).vertices) == 4

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            unit_simplex(0)
