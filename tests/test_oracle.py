import numpy as np
import pytest
from helpers import pair_max_dev

from polyres.oracle import numeric_poly, sylvester_bivariate, univariate_roots
from polyres.poly import normalized_residual
from polyres.problems import get


class TestUnivariateRoots:
    def test_factorable_quadratic(self):
        assert pair_max_dev(univariate_roots([6.0, -5.0, 1.0]), [2.0, 3.0]) < 1e-10

    def test_complex_pair(self):
        assert pair_max_dev(univariate_roots([1.0, 0.0, 1.0]), [1j, -1j]) < 1e-10

    def test_triple_root_cluster(self):
        roots = univariate_roots([-1.0, 3.0, -3.0, 1.0])
        assert pair_max_dev(roots, [1.0, 1.0, 1.0]) < 1e-4

    def test_zero_leading_coefficient_reduces(self):
        roots = univariate_roots([6.0, -5.0, 1.0, 0.0])
        assert len(roots) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            univariate_roots([0.0, 0.0])


class TestSylvesterBivariate:
    def test_conic_pair(self):
        f = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
        g = {(1, 1): 1.0, (0, 0): -0.25}
        rr = sylvester_bivariate(f, g, hide=2)
        assert len(rr) == 4
        c, s = 0.9659258262890683, 0.25881904510252074
        want = [(c, s), (s, c), (-c, -s), (-s, -c)]
        for w in want:
            assert min(max(abs(a - b) for a, b in zip(p, w)) for p in rr.points) < 1e-5
        for p in rr.points:
            assert abs(p[0] * p[1] - 0.25) < 1e-8

    def test_two_lines(self):
        rr = sylvester_bivariate({(1, 0): 1.0, (0, 0): -1.0}, {(0, 1): 1.0, (0, 0): -2.0})
        assert len(rr) == 1
        assert abs(rr.points[0][0] - 1.0) < 1e-10
        assert abs(rr.points[0][1] - 2.0) < 1e-10

    def test_inconsistent_pair_empty(self):
        rr = sylvester_bivariate({(1, 1): 1.0}, {(1, 1): 1.0, (0, 0): -1.0})
        assert len(rr) == 0

    def test_positive_dimensional_warns(self):
        with pytest.warns(UserWarning, match="positive-dimensional"):
            rr = sylvester_bivariate({(1, 1): 1.0}, {(1, 1): 2.0})
        assert rr.positive_dimensional
        assert len(rr) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sylvester_bivariate({}, {(1, 0): 1.0})

    def test_hide_first_variable(self):
        f = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}
        g = {(1, 1): 1.0, (0, 0): -0.25}
        r1 = sylvester_bivariate(f, g, hide=1)
        r2 = sylvester_bivariate(f, g, hide=2)
        assert len(r1) == len(r2) == 4


class TestOracleInvariants:
    def test_residuals_under_threshold(self):
        entry = get("two_conics")
        rng = np.random.default_rng(3)
        for _ in range(10):
            coeffs = entry.random_instance(rng)
            f = numeric_poly(entry.system.polys[0], coeffs)
            g = numeric_poly(entry.system.polys[1], coeffs)
            rr = sylvester_bivariate(f, g, hide=2)
            for p in rr.points:
                assert normalized_residual(entry.system, coeffs, [p])[0] <= 1e-8

    def test_bezout_bound(self):
        rng = np.random.default_rng(21)
        for df, dg in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            f = {
                (i, j): float(rng.standard_normal())
                for i in range(df + 1)
                for j in range(df + 1 - i)
            }
            g = {
                (i, j): float(rng.standard_normal())
                for i in range(dg + 1)
                for j in range(dg + 1 - i)
            }
            rr = sylvester_bivariate(f, g, hide=2)
            assert len(rr) <= df * dg
            # dense random instances generically meet the bound
            assert len(rr) == df * dg
