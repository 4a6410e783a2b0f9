import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import GOLDEN_CONFIGS, extend_by_sets, member_sweep, point_sets, translation_class
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyres.generate
from polyres.generate import SearchConfig, generate_plan
from polyres.lattice import convex_hull, displacement_grid, lattice_points, minkowski_sum, unit_simplex
from polyres.poly import (
    PolynomialTemplate,
    SystemFormatError,
    Term,
    augment,
    dump_system,
    evaluate,
    extend_system,
    extension_at,
    extension_monomials,
    grevlex_key,
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
TENTH = Fraction(1, 10)
MILLI = Fraction(1, 1000)


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


def _zero(n):
    return tuple(Fraction(0) for _ in range(n))


def _box(b_set):
    """The lattice box of the hull of ``b_set`` at zero displacement: its
    one row holds the lattice points of that hull."""
    q = convex_hull(b_set)
    return lattice_points(q, [_zero(q.dim)])


def _erode(polys, lattice):
    """Every row's extension, from extend_system's masks and
    extension_monomials' union, decoded by extension_at."""
    masks = extend_system(polys, lattice)
    union = extension_monomials(polys, lattice, masks)
    return [extension_at(polys, lattice, masks, union, r) for r in range(len(lattice.rows))]


class TestExtendSystem:
    def test_linear_tight(self):
        f = PolynomialTemplate((Term("a", (1,)), Term("b", (0,))))
        ((t_sets, monomials),) = _erode([f], _box({(0,), (1,)}))
        assert t_sets[0] == {(0,)}
        assert monomials == {(0,), (1,)}

    def test_linear_wider(self):
        f = PolynomialTemplate((Term("a", (1,)), Term("b", (0,))))
        ((t_sets, _),) = _erode([f], _box({(0,), (2,)}))
        assert t_sets[0] == {(0,), (1,)}

    def test_products_stay_inside(self):
        entry = get("example_system")
        q = minkowski_sum([convex_hull(support(f)) for f in entry.system.polys])
        lattice = lattice_points(q, [(-TENTH, -TENTH)])
        b = {
            (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
            (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
        }
        assert point_sets(lattice) == [b]
        ((t_sets, monomials),) = _erode(entry.system.polys, lattice)
        # oracle: re-expand every product and check membership
        assert all(t_sets)
        for f, t_set in zip(entry.system.polys, t_sets):
            for t in t_set:
                for alpha in support(f):
                    assert mono_mul(t, alpha) in b
        assert monomials <= frozenset(b)

    def test_int64_guard(self):
        # the box of a segment near 2^62 fits int64; eroding it by a support
        # that reaches 2^60 does too, by one that reaches 2^61 could wrap,
        # and raises instead
        big, far = 2**62, 2**60
        lattice = lattice_points(convex_hull([(big, 0), (big + 1, 0)]), [_zero(2)])
        ((t_sets, monomials),) = _erode([PolynomialTemplate((Term("a", (far, 0)),))], lattice)
        assert t_sets == ({(big - far, 0), (big - far + 1, 0)},)
        assert monomials == {(big, 0), (big + 1, 0)}
        with pytest.raises(OverflowError):
            extend_system([PolynomialTemplate((Term("a", (2**61, 0)),))], lattice)

    def test_empty_multiplier_is_reported(self):
        f = PolynomialTemplate((Term("a", (5,)),))
        lattice = _box({(0,), (1,)})
        assert not extend_system([f], lattice).any()
        assert _erode([f], lattice) == [((frozenset(),), frozenset())]


def _polys(supports):
    return [PolynomialTemplate(tuple(Term(f"c{i}_{j}", a) for j, a in enumerate(s))) for i, s in enumerate(supports)]


def _enumerate(q, delta):
    """The integer z with z - delta in q, by exact tests of every z of the
    shifted vertex box on the common denominator of delta."""
    den = math.lcm(*(d.denominator for d in delta))
    shift = [int(d * den) for d in delta]
    ranges = [range(math.ceil(min(v[i] for v in q.vertices) + d), math.floor(max(v[i] for v in q.vertices) + d) + 1)
              for i, d in enumerate(delta)]
    return {
        z for z in itertools.product(*ranges)
        if all(sum(n * (x * den - s) for n, x, s in zip(hs.normal, z, shift)) <= hs.offset * den for hs in q.facets)
    }


@st.composite
def _erosion_inputs(draw):
    """2-4 variables, 1-4 polynomials, and a Minkowski sum of the unit
    simplex and the hulls of some of their supports (none, some or all),
    with the displacement grids of both magnitudes.  Supports outside the
    sum often fit nowhere in it (empty T_i), and the two grids put several
    displacements on one offset row.  Exponents stay small in more
    variables, so the boxes stay small."""
    n = draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 5 - n)] * n)
    supports = draw(st.lists(st.sets(mono, min_size=1, max_size=4), min_size=1, max_size=4))
    summed = draw(st.lists(st.sampled_from(range(len(supports))), unique=True, max_size=2))
    q = minkowski_sum([unit_simplex(n), *(convex_hull(supports[i]) for i in summed)])
    deltas = list(dict.fromkeys(d for mag in (TENTH, MILLI) for d in displacement_grid(n, mag)))
    return _polys([sorted(s) for s in supports]), q, deltas


def _check_erosion(polys, q, deltas):
    """extend_system on q's box over ``deltas`` against the set-based
    definition on each displacement's point set, enumerated by exact tests:
    every T_i, empty ones too, and mon(F').  Displacements that share an
    offset row share its point set and its extension."""
    lattice = lattice_points(q, deltas)
    got = _erode(polys, lattice)
    want = {}
    for delta, row in zip(deltas, lattice.row_of):
        if row not in want:
            pts = _enumerate(q, delta)
            want[row] = pts, extend_by_sets(polys, pts)
        pts, ext = want[row]
        assert _enumerate(q, delta) == pts
        assert got[row] == ext
    return got


class TestExtendByKeys:
    """extend_system's masks, decoded, against the set-based definition."""

    @given(_erosion_inputs())
    @example(([PolynomialTemplate((Term("a", (3, 0)), Term("b", (0, 3))))], unit_simplex(2),
              list(dict.fromkeys(displacement_grid(2, TENTH) + displacement_grid(2, MILLI)))))
    @settings(max_examples=60)
    def test_matches_set_definition(self, case):
        _check_erosion(*case)

    def test_example_has_empty_multipliers_and_shared_rows(self):
        # the explicit example above: a cubic binomial fits nowhere in the
        # shifted unit simplex, and 17 displacements fall on fewer rows
        polys = [PolynomialTemplate((Term("a", (3, 0)), Term("b", (0, 3))))]
        deltas = list(dict.fromkeys(displacement_grid(2, TENTH) + displacement_grid(2, MILLI)))
        got = _check_erosion(polys, unit_simplex(2), deltas)
        assert len(got) < len(deltas)
        assert all(ext == ((frozenset(),), frozenset()) for ext in got)

    @given(_erosion_inputs())
    @settings(max_examples=30)
    def test_shared_memo_matches_set_definition(self, case):
        # the sweep keeps the masks of all polynomials but the last on each
        # sum, for every hidden variable, and adds the last one's per call:
        # each polynomial in turn takes the last place, and the split masks
        # and their union are those of the whole system
        polys, q, deltas = case
        lattice = lattice_points(q, deltas)
        base = extend_system(polys[:-1], lattice)
        base_union = extension_monomials(polys[:-1], lattice, base)
        for last in (polys[-1], *polys):
            system = [*polys[:-1], last]
            masks = extend_system([last], lattice)
            union = base_union | extension_monomials([last], lattice, masks)
            whole = extend_system(system, lattice)
            assert (np.concatenate([base, masks]) == whole).all()
            assert (union == extension_monomials(system, lattice, whole)).all()
            _check_erosion(system, q, deltas)

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
        q = convex_hull(b_set)
        ((t_sets, _),) = _check_erosion(_polys(supports), q, [_zero(q.dim)])
        assert len(t_sets) == len(supports)

    def test_empty_system(self):
        lattice = _box({(1, 2)})
        assert extend_system([], lattice).shape == (0, 1, 1)
        assert _erode([], lattice) == [((), frozenset())]

    def test_empty_b_prime_has_no_multipliers(self):
        # a row whose point set is empty (the unit simplex shifted off every
        # lattice point), and a displacement with no row (the segment's
        # equation y = 0 has no integer solution after the shift)
        f = PolynomialTemplate((Term("a", (0, 0)),))
        shifted = lattice_points(unit_simplex(2), [(TENTH, TENTH)])
        assert point_sets(shifted) == [set()] and len(shifted.points)
        assert _erode([f], shifted) == [((frozenset(),), frozenset())]
        off = lattice_points(convex_hull([(0, 0), (3, 0)]), [(Fraction(0), -TENTH)])
        assert off.row_of == (None,) and extend_system([f], off).shape == (1, 0, 0)


class TestSweepExtensions:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_sweeps_match_set_definition(self, name, monkeypatch):
        # every extension the golden configuration's sweep decides, for
        # every hidden variable: the base polynomials' masks once per sum,
        # and x_k - u0's per hidden variable on each sum it visits.  Each
        # row's T_i, empty ones too, are the oracle's on its point set
        calls = []

        def recording(polys, lattice):
            masks = extend_system(polys, lattice)
            calls.append((polys, lattice, masks))
            return masks

        monkeypatch.setattr(polyres.generate, "extend_system", recording)
        system = get(name).system
        generate_plan(system, GOLDEN_CONFIGS[name])
        base = [c for c in calls if c[0] == system.polys]
        last = [c for c in calls if len(c[0]) == 1]
        assert len(base) + len(last) == len(calls) and 0 < len(base) < len(last)
        for polys, lattice, masks in calls:
            union = extension_monomials(polys, lattice, masks)
            sets = dict(zip(lattice.row_of, point_sets(lattice)))
            for row, pts in sets.items():
                if row is not None:
                    want = extend_by_sets(polys, pts)
                    assert extension_at(polys, lattice, masks, union, row) == want

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_sweeps_match_parent_sweep(self, name):
        # candidate by candidate, in emission order, and reason by reason:
        # the one sweep over every hidden variable is the oracle's sweeps of
        # the augmented systems, one per k, in turn, with each translation
        # class collapsed to its member of smallest shift
        system, cfg = get(name).system, GOLDEN_CONFIGS[name]
        got_reasons, want_reasons = {}, {}
        got = polyres.generate.search_candidates(system, cfg, got_reasons)
        got = [(c.prefix, c.delta, c.subset_mask, c.laid_out().layout) for c in got]
        members = member_sweep(system, cfg, want_reasons)
        # each class as its member of smallest shift (the first on a tie),
        # at the place of its first member
        best = {}
        for member in members:
            cls = translation_class(member[-1])
            if cls not in best or member[1] < best[cls][1]:
                best[cls] = member
        want = [(prefix, delta, mask, layout) for prefix, _, delta, mask, layout in best.values()]
        assert got and got == want
        # translates occur, so the collapse is not vacuous
        assert len(want) < len(members)
        assert got_reasons == want_reasons

    def test_each_support_sorted_once(self, monkeypatch):
        # the golden three_quadrics sweep extends hundreds of point sets, and
        # sorts each of its six polynomials' supports (three base ones, and
        # x_k - u0 for each hidden variable) once
        sorted_by = []
        build = PolynomialTemplate.__dict__["sorted_support"].func

        def counting(f):
            sorted_by.append(f)
            return build(f)

        prop = functools.cached_property(counting)
        prop.__set_name__(PolynomialTemplate, "sorted_support")
        monkeypatch.setattr(PolynomialTemplate, "sorted_support", prop)
        offset_rows = []

        def recording(polys, lattice):
            offset_rows.extend(lattice.rows)
            return extend_system(polys, lattice)

        monkeypatch.setattr(polyres.generate, "extend_system", recording)
        # a fresh copy: the library's polynomials may be sorted already
        system = parse_system(dump_system(get("three_quadrics").system))
        generate_plan(system, SearchConfig(seed=1, variants=("v1",)))
        assert len(offset_rows) > 100
        assert len(sorted_by) == len({id(f) for f in sorted_by}) == 6
        for f in sorted_by:
            assert f.sorted_support == tuple(sorted(support(f)))


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

    @pytest.mark.parametrize("name", ["two_conics", "three_quadrics", "rel_pose_f_lambda_8pt"])
    def test_same_bits_as_term_loop(self, name):
        # the table gather and the one-pass sums against the per-term loop:
        # float, int, complex and signed-zero coefficients, and the augmented
        # system with its literal x_k term and u0 slot
        system = get(name).system
        rng = np.random.default_rng(8)
        for k, sys_ in ((0, system), (1, augment(system, 1))):
            slots = list(dict.fromkeys(t.slot for f in sys_.polys for t in f.terms if t.slot is not None))
            for coeffs in (
                {s: float(rng.standard_normal()) for s in slots},
                {s: int(rng.integers(-3, 4)) for s in slots},
                {s: complex(rng.standard_normal(), rng.choice([-0.0, 1.5])) for s in slots},
                {s: float(rng.choice([-0.0, 0.0, 2.0])) for s in slots},
            ):
                pts = rng.standard_normal((6, sys_.n_vars)) + 1j * rng.standard_normal((6, sys_.n_vars))
                pts[0] = 0.0
                got = normalized_residual(sys_, coeffs, pts)
                want = _residual_by_terms(sys_, coeffs, pts)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, coeffs)

    def test_complex_coefficients_stay_complex(self):
        sys1 = get("univariate_linear").system
        assert normalized_residual(sys1, {"a": 1j, "b": -2j}, [[2.0]])[0] == 0.0

    def test_missing_slot_named(self):
        sys1 = get("univariate_linear").system
        with pytest.raises(KeyError, match="coefficient slot 'b' missing from assignment"):
            normalized_residual(sys1, {"a": 1.0}, [[2.0]])


def _residual_by_terms(system, coeffs, points):
    """normalized_residual as one term_value per term and a sum over the
    terms one at a time: the oracle of its table gather and one-pass sums."""
    width = max(len(f.terms) for f in system.polys)
    terms = [f.terms + (None,) * (width - len(f.terms)) for f in system.polys]
    exps = np.zeros((len(terms), width, system.n_vars), dtype=np.intp)
    for i, f in enumerate(system.polys):
        for t, term in enumerate(f.terms):
            exps[i, t] = term.exps
    pts = np.asarray(points, dtype=np.complex128)
    powers = np.empty((int(exps.max(initial=0)) + 1, *pts.shape), dtype=np.complex128)
    powers[0] = 1.0
    for d in range(1, len(powers)):
        powers[d] = powers[d - 1] * pts
    mono = powers[exps[..., 0], :, 0]
    for v in range(1, system.n_vars):
        mono = mono * powers[exps[..., v], :, v]
    coef = np.array([[0.0 if t is None else term_value(t, coeffs) for t in row] for row in terms])
    contrib = coef[:, :, None] * mono
    num = contrib[:, 0].copy()
    den = 1.0 + np.abs(contrib[:, 0])
    for t in range(1, contrib.shape[1]):
        num += contrib[:, t]
        den += np.abs(contrib[:, t])
    return np.max(np.abs(num) / den, axis=0)


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
        # the hull of b_small has no other lattice point; adding points
        # grows the hull, and with it every T_i
        entry = get("two_conics")
        b_small = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}
        b_big = b_small | extra
        assert point_sets(_box(b_small)) == [b_small]
        ((small, _),) = _erode(entry.system.polys, _box(b_small))
        ((big, _),) = _erode(entry.system.polys, _box(b_big))
        assert all(small)
        for ts, tb in zip(small, big):
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
