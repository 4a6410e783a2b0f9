import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyres.poly import (
    Extension,
    PolynomialTemplate,
    SystemFormatError,
    Term,
    dump_system,
    evaluate,
    extend_system,
    grevlex_key,
    mono_div,
    mono_mul,
    normalized_residual,
    parse_instance,
    parse_system,
    sort_desc,
    support,
    term_value,
)
from polyres.problems import get

EXAMPLE_F1_SUPPORT = {
    (3, 3), (2, 3), (3, 2), (2, 2), (0, 3), (2, 1), (0, 2), (1, 1), (2, 0), (0, 1),
}
EXAMPLE_F2_SUPPORT = {(2, 0), (0, 1), (1, 0), (0, 0)}


def system_text(system):
    return dump_system(system)


class TestParseSystem:
    def test_example_system_supports(self):
        text = system_text(get("example_system").system)
        sys2 = parse_system(text)
        assert sys2.n_vars == 2
        assert len(sys2.polys) == 2
        assert support(sys2.polys[0]) == EXAMPLE_F1_SUPPORT
        assert support(sys2.polys[1]) == EXAMPLE_F2_SUPPORT
        assert len(sys2.polys[0].terms) == 10
        assert len(sys2.polys[1].terms) == 4

    def test_minimal_linear(self):
        doc = {
            "variables": ["x1"],
            "polynomials": [[{"coeff": "a", "exps": [1]}, {"coeff": "c", "exps": [0]}]],
        }
        sys1 = parse_system(json.dumps(doc))
        assert len(sys1.polys) == 1
        assert len(sys1.polys[0].terms) == 2

    def test_negative_exponent_rejected(self):
        doc = {"variables": ["x1"], "polynomials": [[{"coeff": "a", "exps": [-1]}]]}
        with pytest.raises(SystemFormatError):
            parse_system(json.dumps(doc))

    def test_syntax_error_carries_position(self):
        with pytest.raises(SystemFormatError) as exc:
            parse_system('{"variables": ["x1"!}')
        assert exc.value.line is not None

    def test_dimension_mismatch(self):
        doc = {"variables": ["x1", "x2"], "polynomials": [[{"coeff": "a", "exps": [1]}]]}
        with pytest.raises(SystemFormatError, match="length"):
            parse_system(json.dumps(doc))

    def test_duplicate_monomial_rejected(self):
        doc = {
            "variables": ["x1"],
            "polynomials": [[{"coeff": "a", "exps": [1]}, {"coeff": "b", "exps": [1]}]],
        }
        with pytest.raises(SystemFormatError, match="duplicate"):
            parse_system(json.dumps(doc))

    def test_boolean_exponent_rejected(self):
        doc = {"variables": ["x1", "x2"], "polynomials": [[{"coeff": "a", "exps": [True, True]}]]}
        with pytest.raises(SystemFormatError, match="list of ints"):
            parse_system(json.dumps(doc))

    def test_repeated_variable_rejected(self):
        doc = {"variables": ["x", "y", "x"], "polynomials": [[{"coeff": "a", "exps": [1, 1, 0]}]]}
        with pytest.raises(SystemFormatError, match="'x' is named more than once"):
            parse_system(json.dumps(doc))

    def test_reserved_slot_rejected(self):
        doc = {"variables": ["x1"], "polynomials": [[{"coeff": "u0", "exps": [1]}]]}
        with pytest.raises(SystemFormatError, match="reserved"):
            parse_system(json.dumps(doc))

    def test_instance_parsing(self):
        assert parse_instance('{"a": 1, "b": -5.0}') == {"a": 1.0, "b": -5.0}
        with pytest.raises(SystemFormatError):
            parse_instance('{"a": "oops"}')
        with pytest.raises(SystemFormatError, match="not a number"):
            parse_instance('{"a": true}')


class TestSupport:
    def test_example_f2(self):
        assert support(get("example_system").system.polys[1]) == EXAMPLE_F2_SUPPORT

    def test_example_f1(self):
        assert support(get("example_system").system.polys[0]) == EXAMPLE_F1_SUPPORT

    def test_constant(self):
        f = PolynomialTemplate((Term("c", (0, 0, 0)),))
        assert support(f) == {(0, 0, 0)}


class TestExtendSystem:
    def test_linear_tight(self):
        f = PolynomialTemplate((Term("a", (1,)), Term("b", (0,))))
        ext = extend_system([f], {(0,), (1,)})
        assert ext.multipliers[0] == {(0,)}
        assert ext.monomials == {(0,), (1,)}

    def test_linear_wider(self):
        f = PolynomialTemplate((Term("a", (1,)), Term("b", (0,))))
        ext = extend_system([f], {(0,), (1,), (2,)})
        assert ext.multipliers[0] == {(0,), (1,)}

    def test_products_stay_inside(self):
        entry = get("example_system")
        b = {
            (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
            (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
        }
        ext = extend_system(entry.system.polys, b)
        # oracle: re-expand every product and check membership
        for f, t_set in zip(entry.system.polys, ext.multipliers):
            for t in t_set:
                for alpha in support(f):
                    assert mono_mul(t, alpha) in b
        assert ext.monomials <= frozenset(b)

    def test_empty_multiplier_is_reported(self):
        f = PolynomialTemplate((Term("a", (5,)),))
        ext = extend_system([f], {(0,), (1,)})
        assert ext.multipliers[0] == frozenset()


def _extend_by_sets(polys, b_prime):
    """extend_system's set-based definition: divide each b in B' by the
    anchor, then look up every product t * a in B'."""
    b_set = frozenset(b_prime)
    multipliers, used = [], set()
    for f in polys:
        supp = sorted(support(f))
        t_i = set()
        for b in b_set:
            t = mono_div(b, supp[0])
            if t is None:
                continue
            shifted = [mono_mul(t, a) for a in supp]
            if all(s in b_set for s in shifted):
                t_i.add(t)
                used.update(shifted)
        multipliers.append(frozenset(t_i))
    return Extension(tuple(multipliers), frozenset(used))


def _polys(supports):
    return [PolynomialTemplate(tuple(Term(f"c{i}_{j}", a) for j, a in enumerate(s))) for i, s in enumerate(supports)]


@st.composite
def _extension_inputs(draw):
    """1-4 variables, 1-4 polynomials without a constant term (so the anchor
    is nonzero), and a B' made of some whole shifted supports, a few more
    points (some with negative entries), minus a few points."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * n)
    supports = draw(st.lists(st.sets(mono.filter(any), min_size=1, max_size=4), min_size=1, max_size=4))
    b_set = draw(st.sets(st.tuples(*[st.integers(-2, 5)] * n), max_size=12))
    for _ in range(draw(st.integers(0, 6))):
        supp = draw(st.sampled_from(supports))
        shift = draw(mono)
        b_set |= {mono_mul(shift, a) for a in supp}
    b_set -= draw(st.sets(st.sampled_from(sorted(b_set)), max_size=3)) if b_set else set()
    b_set = b_set or {draw(mono)}
    return _polys([sorted(s) for s in supports]), b_set


class TestExtendByKeys:
    @given(_extension_inputs())
    @settings(max_examples=300)
    def test_matches_set_definition(self, case):
        polys, b_set = case
        assert extend_system(polys, b_set) == _extend_by_sets(polys, b_set)

    @pytest.mark.parametrize(
        "supports, b_set",
        [
            # empty T_1 beside a nonempty T_2; the anchor (0, 1) is nonzero
            ([[(0, 1), (2, 2)], [(1, 0), (0, 1)]], {(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}),
            # a one-point B' holding one shifted one-term polynomial
            ([[(1, 2)]], {(3, 2)}),
            # a one-point B' that holds no multiple
            ([[(1, 0), (0, 1)]], {(1, 1)}),
            # b - anchor has a negative entry, yet every b - anchor + a lies in B'
            ([[(1, 0), (2, 1)]], {(0, 1), (1, 2), (1, 0), (2, 1), (3, 2)}),
            # no polynomials
            ([], {(0, 0), (1, 1)}),
        ],
    )
    def test_edge_cases(self, supports, b_set):
        polys = _polys(supports)
        assert extend_system(polys, b_set) == _extend_by_sets(polys, b_set)

    def test_empty_system(self):
        assert extend_system([], {(1, 2)}) == Extension((), frozenset())

    def test_empty_b_prime_rejected(self):
        f = PolynomialTemplate((Term("a", (1,)),))
        with pytest.raises(ValueError):
            extend_system([f], set())


class TestEvaluate:
    def test_quadratic_at_root(self):
        f = get("univariate_quadratic").system.polys[0]
        coeffs = {"a": 1.0, "b": -5.0, "c": 6.0}
        assert evaluate(f, coeffs, [2.0]) == 0.0
        assert evaluate(f, coeffs, [0.0]) == 6.0

    def test_example_f2_unit_coeffs(self):
        f = get("example_system").system.polys[1]
        coeffs = {t.slot: 1.0 for t in f.terms}
        assert evaluate(f, coeffs, [1.0, 1.0]) == 4.0


class TestNormalizedResidual:
    def test_exact_root(self):
        sys1 = get("univariate_quadratic").system
        assert normalized_residual(sys1, {"a": 1.0, "b": -5.0, "c": 6.0}, [[3.0]])[0] == 0.0

    def test_linear_off_root(self):
        sys1 = get("univariate_linear").system
        r = normalized_residual(sys1, {"a": 1.0, "b": -2.0}, [[3.0]])
        assert r.shape == (1,)
        assert r[0] == pytest.approx(1.0 / 6.0)

    def test_batch_matches_single_points_and_loop_reference(self):
        entry = get("three_quadrics")
        rng = np.random.default_rng(4)
        coeffs = entry.random_instance(rng)
        pts = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        batch = normalized_residual(entry.system, coeffs, pts)
        assert batch.shape == (9,)
        for p, r in zip(pts, batch):
            # elementwise arithmetic only: batching cannot change a bit
            assert normalized_residual(entry.system, coeffs, [p])[0] == r
            want = max(
                abs(evaluate(f, coeffs, p))
                / (1.0 + sum(abs(term_value(t, coeffs) * np.prod(p ** np.array(t.exps))) for t in f.terms))
                for f in entry.system.polys
            )
            assert r == pytest.approx(want, rel=1e-12)

    def test_all_zero_coefficients(self):
        sys1 = get("univariate_linear").system
        assert normalized_residual(sys1, {"a": 0.0, "b": 0.0}, [[3.0]])[0] == 0.0


small_monos = st.tuples(st.integers(0, 4), st.integers(0, 4))


class TestProperties:
    @given(shift=small_monos)
    @settings(max_examples=50)
    def test_support_shift(self, shift):
        f = get("example_system").system.polys[1]
        shifted = PolynomialTemplate(
            tuple(Term(t.slot, mono_mul(t.exps, shift)) for t in f.terms)
        )
        assert support(shifted) == {mono_mul(shift, a) for a in support(f)}

    @given(extra=st.sets(small_monos, max_size=6))
    @settings(max_examples=50)
    def test_extension_monotone(self, extra):
        entry = get("two_conics")
        b_small = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}
        b_big = b_small | extra
        small = extend_system(entry.system.polys, b_small)
        big = extend_system(entry.system.polys, b_big)
        for ts, tb in zip(small.multipliers, big.multipliers):
            assert ts <= tb

    @given(slot_bump=st.floats(-2, 2, allow_nan=False), x=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=50)
    def test_evaluate_linear_in_slots(self, slot_bump, x):
        f = get("univariate_quadratic").system.polys[0]
        base = {"a": 1.0, "b": 2.0, "c": 3.0}
        bumped = dict(base, b=base["b"] + slot_bump)
        v0 = evaluate(f, base, [x])
        v1 = evaluate(f, bumped, [x])
        assert v1 - v0 == pytest.approx(slot_bump * x, abs=1e-9)

    @given(x=st.floats(-3, 3, allow_nan=False), y=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=50)
    def test_residual_zero_iff_vanishes(self, x, y):
        sys1 = get("two_conics").system
        coeffs = {"a": 1.0, "b": 2.0, "c": -1.0, "d": 1.0, "e": -0.5}
        r = normalized_residual(sys1, coeffs, [[x, y]])[0]
        vanishes = all(abs(evaluate(f, coeffs, [x, y])) == 0.0 for f in sys1.polys)
        assert (r == 0.0) == vanishes


class TestMonomialOrder:
    @given(a=small_monos, b=small_monos, c=small_monos, m=small_monos)
    @settings(max_examples=100)
    def test_total_multiplicative(self, a, b, c, m):
        ka, kb, kc = grevlex_key(a), grevlex_key(b), grevlex_key(c)
        assert (ka == kb) == (a == b)
        if ka < kb and kb < kc:
            assert ka < kc
        if ka < kb:
            assert grevlex_key(mono_mul(m, a)) < grevlex_key(mono_mul(m, b))

    def test_grevlex_convention(self):
        assert grevlex_key((1, 0)) > grevlex_key((0, 1))
        assert grevlex_key((2, 0)) > grevlex_key((0, 2))
        assert grevlex_key((1, 1)) > grevlex_key((0, 2))
        # equal degree: the smaller last exponent wins, so x2^2 > x1*x3 (lex and grlex put x1*x3 first)
        monos = [(2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 0, 2)]
        assert sort_desc(reversed(monos)) == monos
