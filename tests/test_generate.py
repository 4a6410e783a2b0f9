import importlib.util
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest
from helpers import GOLDEN_CONFIGS, REL_POSE_CONFIG, member_sweep, point_sets, translation_class, witness_full_rank

import polyres.generate
import polyres.lattice
import polyres.plan
import polyres.poly
from polyres.generate import (
    SQUARIFY_RETRIES,
    FavourableCandidate,
    NoSolverError,
    SearchConfig,
    SquarifyExhausted,
    _remove_row,
    _selection_key,
    _without,
    augment,
    generate_plan,
    partition_failure,
    reduce_rowcol,
    search_candidates,
    squarify,
    verify_partition,
)
from polyres.lattice import convex_hull, lattice_points, minkowski_sum, unit_simplex
from polyres.linalg import PRIMES, modp_left_kernel
from polyres.plan import (
    PlanFormatError,
    RankCheckConfig,
    SolverPlan,
    TemplateMatrix,
    _is_prime,
    build_layout,
    plan_from_json,
    plan_to_json,
)
from polyres.poly import (
    HIDDEN_SLOT,
    PolynomialTemplate,
    SystemTemplate,
    Term,
    extend_system,
    extension_at,
    extension_monomials,
    mono_mul,
    support,
)
from polyres.problems import LIBRARY, get

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"
TENTH = Fraction(1, 10)
# one single-witness config per fresh (prime, seed): six fresh points per check
FRESH_RANK = tuple(RankCheckConfig(primes=(p,), assignments=1, seed=s) for p in PRIMES[3:6] for s in (99, 100))


def _candidate(aug, hidden_var, b, multipliers, subset_mask):
    """A v1 candidate at zero displacement, laid out as the search lays it out."""
    layout = build_layout(aug, hidden_var, "v1", b, multipliers)
    return FavourableCandidate(layout, tuple(Fraction(0) for _ in range(aug.n_vars)), subset_mask)


def _laid_out(system, cfg, hidden_var=None):
    """Every candidate the sweep emits, laid out: only those of ``hidden_var``
    when it is given."""
    return [c.laid_out() for c in search_candidates(system, cfg, {}) if hidden_var in (None, c.prefix[4])]


def _smallest(cands):
    return min(cands, key=lambda c: (c.layout.n_b1, sorted(c.layout.template.cols)))


class TestAugment:
    def test_linear(self):
        aug = augment(get("univariate_linear").system, 1)
        assert len(aug.polys) == 2
        extra = aug.polys[-1]
        assert support(extra) == {(1,), (0,)}
        slots = {t.slot for t in extra.terms}
        assert HIDDEN_SLOT in slots

    def test_example_system_k2(self):
        aug = augment(get("example_system").system, 2)
        assert len(aug.polys) == 3
        assert support(aug.polys[-1]) == {(0, 1), (0, 0)}

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            augment(get("univariate_linear").system, 0)

    def test_one_definition(self):
        # the search re-exports the extra polynomial of the polynomial layer
        assert polyres.generate.augment is polyres.poly.augment


class TestSearchCandidates:
    def test_univariate_linear_candidate(self):
        cands = _laid_out(get("univariate_linear").system, SearchConfig(seed=1))
        keys = set()
        for c in cands:
            t0, t1 = c.layout.multiplier_sets()
            keys.add((tuple(sorted(c.layout.template.cols)), tuple(sorted(t0)), tuple(sorted(t1)), c.layout.variant))
        assert (((0,), (1,)), ((0,),), ((0,),), "v1") in keys
        assert min(c.layout.n_b1 for c in cands) == 1

    def test_example_system_matches_lattice(self):
        entry = get("example_system")
        aug = augment(entry.system, 2)
        cfg = SearchConfig(seed=1, delta_magnitudes=(TENTH,), variants=("v1",))
        cands = _laid_out(entry.system, cfg, 2)
        mask = 0b011  # {f1, f2}
        delta = (-TENTH, -TENTH)
        match = [c for c in cands if c.subset_mask == mask and c.delta == delta]
        assert match, "search never visited the {f1,f2} subset at delta=(-0.1,-0.1)"
        cand = match[0]
        # reproduce the expected favourable set through the lattice layer
        polys = [convex_hull(support(f)) for f in aug.polys]
        q = minkowski_sum([unit_simplex(2), polys[0], polys[1]])
        lattice = lattice_points(q, [delta])
        (pts,) = point_sets(lattice)
        masks = extend_system(aug.polys, lattice)
        _, monomials = extension_at(aug.polys, lattice, masks, extension_monomials(aug.polys, lattice, masks), 0)
        assert frozenset(cand.layout.template.cols) == monomials
        # the example's 17 monomials survive inside the extended set
        example_b = {
            (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
            (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
        }
        assert example_b <= pts

    def test_disjoint_support_rejected_by_coverage(self):
        sparse = SystemTemplate(
            1,
            ("x1",),
            (
                PolynomialTemplate((Term("a", (1,)), Term("b", (0,)))),
                PolynomialTemplate((Term("c", (9,)),)),
            ),
        )
        segment = lattice_points(convex_hull([(0,), (1,)]), [(Fraction(0),)])
        assert point_sets(segment) == [{(0,), (1,)}]
        masks = extend_system(sparse.polys, segment)
        assert masks[0].any() and not masks[1].any()
        reasons = {}
        search_candidates(sparse, SearchConfig(seed=1), reasons)
        assert reasons.get("coverage", 0) > 0

    def test_no_rank_check_twice(self, monkeypatch):
        # over a whole generate_plan, no rank check runs twice on one input
        # up to a monomial translation: the same system, and rows and set of
        # column monomials shifted by the columns' componentwise minimum.
        # The v1 and v2 layouts of one set of multipliers share their
        # full-rank check, and no two decided layouts are translates
        # (test_decided_layouts_are_no_translates).  A check takes an
        # instantiated template or a block of it; the block's rows and
        # columns are read off the view's offset and shape.
        templates, checked = {}, []
        real_instantiate = RankCheckConfig.instantiate
        real_check = polyres.generate.has_full_column_rank

        def instantiating(cfg, tm, prime, trial):
            m = real_instantiate(cfg, tm, prime, trial)
            templates[id(m)] = m, tm  # the matrix is kept, so its id is not reused
            return m

        def recording(m, p):
            whole = m if m.base is None else m.base
            tm = templates[id(whole)][1]
            r0, c0 = divmod((m.ctypes.data - whole.ctypes.data) // m.itemsize, whole.shape[1])
            rows, cols = tm.rows[r0 : r0 + m.shape[0]], tm.cols[c0 : c0 + m.shape[1]]
            low = [min(e) for e in zip(*cols)]

            def shift(mono):
                return tuple(a - b for a, b in zip(mono, low))

            checked.append((tm.system, tuple((i, shift(t)) for i, t in rows), frozenset(map(shift, cols))))
            return real_check(m, p)

        monkeypatch.setattr(RankCheckConfig, "instantiate", instantiating)
        monkeypatch.setattr(polyres.generate, "has_full_column_rank", recording)
        outcome = generate_plan(get("zero_coordinate_pair").system, SearchConfig(seed=1))
        assert checked and len(checked) == len(set(checked))
        # partition checks only: squarify decides its trials on left kernels
        assert len(checked) == 22
        assert outcome.reasons == {"coverage": 100, "empty_lattice": 4, "unrecoverable_b1": 11, "a12_rank": 2}
        assert outcome.candidates_seen == 14

    def test_one_instantiation_per_partition_test(self, monkeypatch):
        # both rank conditions of a layout are decided on one instantiation
        open_calls, per_call = [], []
        real_instantiate = RankCheckConfig.instantiate
        real_failure = polyres.generate.partition_failure

        def counting(*args):
            if open_calls:
                open_calls[-1] += 1
            return real_instantiate(*args)

        def partition(*args):
            open_calls.append(0)
            try:
                return real_failure(*args)
            finally:
                per_call.append(open_calls.pop())

        monkeypatch.setattr(RankCheckConfig, "instantiate", counting)
        monkeypatch.setattr(polyres.generate, "partition_failure", partition)
        generate_plan(get("zero_coordinate_pair").system, SearchConfig(seed=1))
        assert len(per_call) == 14 and max(per_call) == 1

    def test_search_checks_no_rank(self, monkeypatch):
        # the sweep only enumerates: its rejections are count-level
        def refuse(*args):
            raise AssertionError("search_candidates made a rank check")

        monkeypatch.setattr(polyres.generate, "has_full_column_rank", refuse)
        reasons = {}
        cands = search_candidates(get("zero_coordinate_pair").system, SearchConfig(seed=1), reasons)
        # both hidden variables: 36 sets of multipliers in 24 translation
        # classes, coverage 50 and empty_lattice 2 each
        assert reasons == {"coverage": 100, "empty_lattice": 4}
        assert len(cands) == 48

    def test_repeated_displacement_visited_once(self):
        # a displacement that several magnitudes (here a repeated one) put on
        # the grid is one (subset, displacement) pair: its rejections count once
        system = get("two_conics").system
        runs = []
        for mags in ((TENTH,), (TENTH, TENTH)):
            reasons = {}
            cands = search_candidates(system, SearchConfig(seed=1, delta_magnitudes=mags), reasons)
            runs.append((reasons, cands))
        # row_count 8 and coverage 28 for each hidden variable
        assert runs[0][0] == {"row_count": 16, "coverage": 56}
        assert runs[1][0] == runs[0][0]
        # the same candidates: their sweep fields and their layouts
        (_, got), (_, want) = runs[1], runs[0]
        fields = [[(c.prefix, c.delta, c.subset_mask) for c in cands] for cands in (got, want)]
        assert fields[0] == fields[1]
        assert [c.laid_out() for c in got] == [c.laid_out() for c in want]

    def test_polytope_stage_shared(self, monkeypatch):
        # one Minkowski sum per summand tuple over all hidden variables, one
        # lattice enumeration per sum for every displacement and hidden
        # variable, and nothing kept from one generate_plan call to the next
        calls = dict.fromkeys(("lattice_points", "minkowski_sum"), 0)
        for name in calls:
            def counting(*args, _real=getattr(polyres.generate, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(polyres.generate, name, counting)
        for _ in range(2):
            calls.update(lattice_points=0, minkowski_sum=0)
            generate_plan(get("two_conics").system, SearchConfig(seed=1, variants=("v1",)))
            assert calls == {"lattice_points": 11, "minkowski_sum": 11}
        # the three base polytopes of three_quadrics are equal, so summand
        # tuples with x_k - u0 recur within one hidden variable's sweep too
        calls.update(lattice_points=0, minkowski_sum=0)
        generate_plan(get("three_quadrics").system, SearchConfig(seed=1, variants=("v1",)))
        assert calls == {"lattice_points": 15, "minkowski_sum": 15}

    def test_first_trial_decides_rank(self, monkeypatch):
        # full column rank at one point is a nonzero maximal minor of the
        # integer template, so the first trial decides and no other is computed
        tm = plan_from_json((GOLDEN / "two_conics.plan").read_text(encoding="utf-8")).layout.template
        primes = []
        real = polyres.plan.exact_rank

        def counting(m, p):
            primes.append(p)
            return real(m, p)

        def zero_slots_on(zero_trial):
            def values_fn(prime, trial, seed):
                rng = random.Random(f"{prime}:{trial}")
                return {s: 0 if trial == zero_trial else rng.randrange(1, prime) for s in tm.system.slots()}

            return values_fn

        monkeypatch.setattr(polyres.plan, "exact_rank", counting)
        assert witness_full_rank(tm, RankCheckConfig(values_fn=zero_slots_on(1)))
        assert primes == [PRIMES[0]]
        assert not witness_full_rank(tm, RankCheckConfig(values_fn=zero_slots_on(0)))
        assert primes == [PRIMES[0]] * 2

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_b1_inside_b_for_every_emitted_set(self, name):
        # candidates are laid out only in the best-first loop, so build_layout's
        # "b1 monomials escape" check never fires there: T_last is the
        # multiplier set of x_k - u0, and t, t x_k are the monomials of
        # t (x_k - u0), so B1 lies in B for v1 and v2.  rel_pose is swept in
        # the configuration of its golden plan
        cfg = REL_POSE_CONFIG if name == "rel_pose_f_lambda_8pt" else SearchConfig()
        system = get(name).system
        cands = search_candidates(system, cfg, {})
        for cand in cands:
            aug, (_, _, _, variant, k) = cand.system, cand.prefix
            t_sets, b_set = extension_at(aug.polys, cand.lattice, cand.masks, cand.union, cand.row)
            assert aug == augment(system, k)
            e_k = tuple(int(i == k - 1) for i in range(system.n_vars))
            b1 = t_sets[-1] if variant == "v1" else {mono_mul(t, e_k) for t in t_sets[-1]}
            assert b1 <= b_set, (name, k, variant)
        assert cands

    def test_escaping_b1_still_refused(self):
        # a caller's own B without x_k T_last is refused for v2 and kept for v1
        aug = augment(get("univariate_linear").system, 1)
        t_sets = (frozenset({(0,)}), frozenset({(0,)}))
        assert build_layout(aug, 1, "v1", {(0,)}, t_sets).n_b1 == 1
        with pytest.raises(ValueError, match="b1 monomials escape"):
            build_layout(aug, 1, "v2", {(0,)}, t_sets)

    @staticmethod
    def _geometry_counts(monkeypatch, name, cfg):
        calls = dict.fromkeys(("_make_facet", "convex_hull", "_sum_pair", "extend_system"), 0)
        faces = {"candidates": 0, "facets": 0}
        for owner, attr in ((polyres.lattice, "_make_facet"), (polyres.generate, "convex_hull"),
                            (polyres.lattice, "_sum_pair"), (polyres.generate, "extend_system")):
            def counting(*args, _real=getattr(owner, attr), _name=attr):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, attr, counting)

        def maximal(masks, _real=polyres.lattice._maximal):
            kept = _real(masks)
            faces["candidates"] += len(masks)
            faces["facets"] += len(kept)
            return kept

        monkeypatch.setattr(polyres.lattice, "_maximal", maximal)
        return generate_plan(get(name).system, cfg), calls, faces

    def test_geometry_work_counts_three_quadrics(self, monkeypatch):
        # on the golden three_quadrics configuration, hulls insert farthest
        # first and each base support is hulled once for all hidden
        # variables: 3 base hulls and one x_k - u0 hull per hidden variable,
        # 49 facets made.  Minkowski sums are built from their summands'
        # faces, one pair per sum, without a hull: 3 sums without x_k - u0
        # shared by all hidden variables and 4 with it per hidden variable,
        # whose 372 candidate normals give 72 facets.  The base
        # polynomials' T_i are eroded once per Minkowski sum and x_k - u0's
        # once per sum each sweep visits, 7 per hidden variable.  A
        # regression to hulled sums (244 facets made), to sorted insertion
        # (79), to hulls per hidden variable, to candidates from every
        # (d - 1)-set of edge directions or to base masks per visit (42
        # erosions) fails on a count
        cfg = SearchConfig(seed=1, variants=("v1",))
        outcome, calls, faces = self._geometry_counts(monkeypatch, "three_quadrics", cfg)
        assert outcome.candidates_seen == 10
        assert calls == {"_make_facet": 49, "convex_hull": 6, "_sum_pair": 15, "extend_system": 36}
        assert faces == {"candidates": 372, "facets": 72}

    def test_geometry_work_counts_rel_pose(self, monkeypatch):
        # the golden rel_pose configuration, in 4-D: 16 sums whose facets
        # and edge x 2-face pairs give 2325 candidate normals and 113
        # facets.  A wrong candidate does not change a sum, it only costs,
        # so the count is what pins the pairs
        outcome, calls, faces = self._geometry_counts(monkeypatch, "rel_pose_f_lambda_8pt", REL_POSE_CONFIG)
        assert outcome.candidates_seen == 30
        assert calls["_sum_pair"] == 16 and calls["_make_facet"] == 77
        assert faces == {"candidates": 2325, "facets": 113}

    def test_sweep_reaches_every_traced_layer(self, monkeypatch):
        # the benchmark's tracer binds the sweep's geometry and extension
        # stages by name; a name kept only for the tracer would show no call
        spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        layers = ("lattice.convex_hull", "lattice.minkowski_sum", "lattice.lattice_points", "poly.extend_system")
        calls = dict.fromkeys(layers, 0)
        for layer in layers:
            module, attr = tracer.LAYERS[layer]
            owner = importlib.import_module(module)

            def counting(*args, _real=getattr(owner, attr), _layer=layer):
                calls[_layer] += 1
                return _real(*args)

            monkeypatch.setattr(owner, attr, counting)
        for name in ("two_conics", "three_quadrics", "rel_pose_f_lambda_8pt"):
            cfg = REL_POSE_CONFIG if name == "rel_pose_f_lambda_8pt" else SearchConfig(seed=1, variants=("v1",))
            generate_plan(get(name).system, cfg)
        assert all(calls.values()), calls


class TestPartition:
    def test_univariate_layout_blocks(self, univariate_linear_plan):
        from polyres.solve import fill

        coeffs = {"a": 1.0, "b": -2.0}
        m = fill(univariate_linear_plan, coeffs)
        lay = univariate_linear_plan.layout
        assert m[lay.n_upper :].tolist() == [[0.0, 1.0]]  # A21 = [0], A22 = [1]
        b = lay.template.instantiate(coeffs, 0.0, 1.0)
        assert b[lay.n_upper :].tolist() == [[-1.0, 0.0]]  # B21 = -I, B22 = 0

    def test_rank_deficient_a12_rejected(self):
        cfg = SearchConfig(seed=1)
        aug = augment(get("univariate_linear").system, 1)
        cand = _candidate(aug, 1, ((0,), (1,), (2,)), (frozenset({(0,)}), frozenset({(0,), (1,)})), 0b11)
        # the whole matrix has full column rank; only A12 (no Schur complement) fails
        assert witness_full_rank(cand.layout.template, cfg.rank)
        assert not verify_partition(cand.layout, cfg)

    def test_empty_multiplier_set_rejected(self):
        cfg = SearchConfig(seed=1)
        aug = augment(get("univariate_quadratic").system, 1)
        b = ((0,), (1,), (2,), (3,))
        cand = _candidate(aug, 1, b, (frozenset({(0,), (1,)}), frozenset({(0,), (1,), (2,)})), 0b11)
        assert verify_partition(cand.layout, cfg)
        no_upper = build_layout(aug, 1, "v1", b, (frozenset(), frozenset({(0,), (1,), (2,)})))
        assert not verify_partition(no_upper, cfg)

    def test_two_conics_b1_bound(self, two_conics_plan):
        assert two_conics_plan.n_solutions >= 4


class TestSelection:
    def test_smallest_eigenproblem_wins(self):
        entry = get("univariate_quadratic")
        cfg = SearchConfig(seed=1)
        cands = [c for c in _laid_out(entry.system, cfg) if verify_partition(c.layout, cfg)]
        assert cands
        assert min(c.layout.n_b1 for c in cands) == 2
        best = min(cands, key=lambda c: _selection_key(c.layout)).layout
        assert best.n_b1 == 2
        # tie-break: among equal |B1|, the smaller matrix wins
        areas = [c.layout.shape[0] * c.layout.shape[1] for c in cands if c.layout.n_b1 == best.n_b1]
        assert best.shape[0] * best.shape[1] == min(areas)

    def test_generate_plan_reduces_first_candidate(self):
        cfg = SearchConfig(seed=1)
        system = get("univariate_quadratic").system
        cands = [c for c in _laid_out(system, cfg) if verify_partition(c.layout, cfg)]
        best = min(cands, key=lambda c: _selection_key(c.layout))
        expected = squarify(reduce_rowcol(best), cfg)
        assert plan_to_json(generate_plan(system, cfg).plan) == plan_to_json(expected)

    @pytest.mark.parametrize("name", ["univariate_quadratic", "two_conics", "zero_coordinate_pair", "example_system"])
    def test_best_first_matches_exhaustive(self, name):
        # reference selection: check the partition of every candidate of every
        # hidden variable, stable-sort the survivors, reduce the first that
        # keeps its recovery pairs and reduces to a square plan
        cfg = SearchConfig(seed=0)
        system = get(name).system
        survivors = [c for c in _laid_out(system, cfg) if verify_partition(c.layout, cfg)]
        survivors.sort(key=lambda c: _selection_key(c.layout))
        expected = None
        for cand in survivors:
            if cand.layout.unpaired:
                continue
            try:
                plan = squarify(reduce_rowcol(cand), cfg)
            except SquarifyExhausted:
                continue
            if not plan.layout.unpaired:
                expected = plan
                break
        assert expected is not None
        assert plan_to_json(generate_plan(system, cfg).plan) == plan_to_json(expected)


def _decide_from_scratch(cand, cfg):
    """The plan ``cand`` gives, or the failure the best-first loop ticks for
    it, with no memo: the partition on a fresh memo, then recovery pairs,
    then row-column removal and squarify, then recovery pairs again."""
    failure = partition_failure(cand.layout, cfg, {})
    if failure is None and cand.layout.unpaired:
        failure = "unrecoverable_b1"
    if failure is not None:
        return failure
    try:
        plan = squarify(reduce_rowcol(cand), cfg)
    except SquarifyExhausted:
        return "squarify_exhausted"
    return "unrecoverable_b1" if plan.layout.unpaired else plan


def _sweep(system, cfg, reasons):
    """Every candidate of every hidden variable, laid out, best first."""
    cands = search_candidates(system, cfg, reasons)
    laid = [c.laid_out() for c in cands]
    for c, lay in zip(cands, laid):
        assert c.prefix == _selection_key(lay.layout)[:5]
    return sorted(laid, key=lambda c: _selection_key(c.layout))


# generate_plan runs by case: the golden configurations, rel_pose's without
# its caps, and every library problem under one plain configuration
DECISION_CASES = {
    **{f"golden-{name}": (name, cfg) for name, cfg in GOLDEN_CONFIGS.items()},
    "uncapped-rel_pose_f_lambda_8pt": (
        "rel_pose_f_lambda_8pt",
        replace(REL_POSE_CONFIG, max_subset_size=None, delta_magnitudes=SearchConfig().delta_magnitudes),
    ),
    **{name: (name, SearchConfig(seed=1)) for name in sorted(LIBRARY)},
}

# the small library problems, and three_quadrics as its golden plan was generated
CLASS_CASES = {
    "two_conics": SearchConfig(),
    "zero_coordinate_pair": SearchConfig(),
    "example_system": SearchConfig(),
    "three_quadrics": SearchConfig(seed=1, variants=("v1",)),
}


@cache
def _members(name):
    """Every member of every translation class the oracle sweep finds for
    the library problem ``name``, and the candidates the sweep emits, with
    their layouts: rel_pose in the configuration of its golden plan."""
    cfg = REL_POSE_CONFIG if name == "rel_pose_f_lambda_8pt" else SearchConfig()
    system = get(name).system
    swept = tuple((c, c.laid_out().layout) for c in search_candidates(system, cfg, {}))
    return tuple(member_sweep(system, cfg, {})), swept


def _shifts_by_class(members):
    """The shifts of ``member_sweep``'s members, by translation class, in
    emission order."""
    shifts = {}
    for _, low, _, _, lay in members:
        shifts.setdefault(translation_class(lay), []).append(low)
    return shifts


class TestTranslationClasses:
    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_sweep_key_names_the_translation_class(self, name):
        # the sweep's class key, the T_i shifted by the componentwise minimum
        # of mon(F') for one hidden variable, neither splits nor merges
        # translation classes: the sweep emits one candidate for each class
        # of the oracle's members, and no two of one class
        members, swept = _members(name)
        classes = [translation_class(lay) for _, lay in swept]
        assert len(set(classes)) == len(classes)
        assert set(classes) == set(_shifts_by_class(members))
        # translates occur
        assert len(classes) < len(members)

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_sweep_prefix_and_shift_match_the_layout(self, name):
        # the prefix is the selection key's, read with no layout built, and
        # the member emitted is the one of smallest shift of its class
        members, swept = _members(name)
        shifts = _shifts_by_class(members)
        for c, lay in swept:
            assert c.prefix == _selection_key(lay)[:5]
            assert tuple(map(min, zip(*lay.template.cols))) == min(shifts[translation_class(lay)])

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_smallest_shift_first_of_its_class(self, name):
        # the members of a class differ in their shift, and the one of
        # smallest shift comes first of its class in selection-key order
        members, _ = _members(name)
        shifts = _shifts_by_class(members)
        assert all(len(set(low)) == len(low) for low in shifts.values())
        first = {}
        for _, low, _, _, lay in sorted(members, key=lambda m: _selection_key(m[-1])):
            first.setdefault(translation_class(lay), low)
        assert first == {cls: min(low) for cls, low in shifts.items()}

    @pytest.mark.parametrize("name", CLASS_CASES)
    def test_class_decides_like_its_members(self, name):
        # every member of a translation class (system, variant, rows and
        # columns shifted by the columns' componentwise minimum), the
        # oracle's translates included, decided from scratch gives the
        # verdict of the class's other members; members that pass reduce to
        # translates of one plan.  The plan of the first member to pass,
        # best first, is generate_plan's
        cfg = CLASS_CASES[name]
        system = get(name).system
        memo, shared, plan = {}, 0, None
        for _, _, delta, mask, lay in sorted(member_sweep(system, cfg, {}), key=lambda m: _selection_key(m[-1])):
            verdict = _decide_from_scratch(FavourableCandidate(lay, delta, mask), cfg)
            if not isinstance(verdict, str):
                plan = verdict if plan is None else plan
                verdict = translation_class(verdict.layout)
            cls = translation_class(lay)
            if cls in memo:
                shared += 1
                assert verdict == memo[cls], (name, lay.shape, lay.variant)
            memo[cls] = verdict
        # the memo is not vacuous: translates occur, and so do failures
        assert shared > 0 and any(isinstance(v, str) for v in memo.values())
        assert plan_to_json(generate_plan(system, cfg).plan) == plan_to_json(plan)

    @pytest.mark.parametrize("name", CLASS_CASES)
    def test_memo_matches_plain_loop(self, name):
        # the loop without a memo: decide every candidate from scratch, best
        # first, and stop at the first plan
        cfg = CLASS_CASES[name]
        system = get(name).system
        reasons = {}
        for seen, cand in enumerate(_sweep(system, cfg, reasons), 1):
            verdict = _decide_from_scratch(cand, cfg)
            if not isinstance(verdict, str):
                break
            reasons[verdict] = reasons.get(verdict, 0) + 1
        outcome = generate_plan(system, cfg)
        assert plan_to_json(outcome.plan) == plan_to_json(verdict)
        assert outcome.candidates_seen == seen
        assert outcome.reasons == reasons

    @pytest.mark.parametrize("case", DECISION_CASES)
    def test_decided_layouts_are_no_translates(self, monkeypatch, case):
        # the rank memo keys on the rows as they are, with no shift: the
        # sweep emits one member of each translation class, the one of
        # smallest shift, which the v1 and v2 classes of one set of
        # multipliers share, so decided layouts whose rows are translates
        # have the very same rows
        decided = []
        real = polyres.generate._verdict

        def recording(cand, *args):
            decided.append(cand.layout)
            return real(cand, *args)

        monkeypatch.setattr(polyres.generate, "_verdict", recording)
        name, cfg = DECISION_CASES[case]
        generate_plan(get(name).system, cfg)
        rows = {}
        for lay in decided:
            system, _, shifted_rows, _ = translation_class(lay)
            rows.setdefault((system, shifted_rows), set()).add(lay.template.rows)
        assert decided and all(len(r) == 1 for r in rows.values())

    @pytest.mark.parametrize("case", DECISION_CASES)
    def test_seen_counts_verdicts(self, monkeypatch, case):
        # candidates_seen counts the candidates decided, and each of the
        # loop's reasons the verdicts that returned it; the rest of the
        # reasons are the sweep's
        verdicts = []
        real = polyres.generate._verdict

        def recording(cand, *args):
            verdicts.append(real(cand, *args))
            return verdicts[-1]

        monkeypatch.setattr(polyres.generate, "_verdict", recording)
        name, cfg = DECISION_CASES[case]
        outcome = generate_plan(get(name).system, cfg)
        assert outcome.candidates_seen == len(verdicts)
        failures = [v for v in verdicts if isinstance(v, str)]
        loop = {r: n for r, n in outcome.reasons.items() if r not in ("coverage", "row_count", "empty_lattice")}
        assert loop == {r: failures.count(r) for r in failures}

    @staticmethod
    def _work_counts(monkeypatch, name, cfg):
        calls = dict.fromkeys(("build_layout", "extension_at", "partition_failure", "instantiate"), 0)
        for owner, attr in ((polyres.generate, "build_layout"), (polyres.generate, "extension_at"),
                            (polyres.generate, "partition_failure"), (RankCheckConfig, "instantiate")):
            def counting(*args, _real=getattr(owner, attr), _name=attr):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(owner, attr, counting)
        return generate_plan(get(name).system, cfg), calls

    def test_work_counts_three_quadrics(self, monkeypatch):
        # the golden three_quadrics configuration lays out only the
        # candidates the loop decides, one member of each translation class
        # it reaches: a regression that lays out or re-checks translates
        # fails on a count
        outcome, calls = self._work_counts(monkeypatch, "three_quadrics", SearchConfig(seed=1, variants=("v1",)))
        assert outcome.candidates_seen == 10
        # 10 translation classes are decided, the last one passes first in
        # its group; squarify builds and instantiates the one candidate it
        # reduces
        assert calls == {"build_layout": 11, "extension_at": 10, "partition_failure": 10, "instantiate": 11}

    def test_work_counts_rel_pose(self, monkeypatch):
        # the golden rel_pose configuration: 30 translation classes decided,
        # 13 of them column_rank from the memo, with no instantiation;
        # squarify builds and instantiates the two candidates it reduces:
        # one loses its recovery pairs, one is the plan
        outcome, calls = self._work_counts(monkeypatch, "rel_pose_f_lambda_8pt", REL_POSE_CONFIG)
        assert outcome.candidates_seen == 30
        assert calls == {"build_layout": 32, "extension_at": 30, "partition_failure": 30, "instantiate": 19}


def _with_far(line, line2, far, far_mults):
    """Two lines in x1, x2 and the polynomials ``far``, each multiplied by
    ``far_mults``, hidden x2 and B1 = {1}.  The far multiples meet no line,
    so their columns fall into structurally isolated groups."""
    system = SystemTemplate(2, ("x1", "x2"), (line, line2, *far))
    far_cols = {mono_mul(m, t.exps) for poly in far for t in poly.terms for m in far_mults}
    multipliers = (frozenset({(0, 0)}),) * 2 + (frozenset(far_mults),) * len(far) + (frozenset({(0, 0)}),)
    return _candidate(augment(system, 2), 2, {(0, 0), (1, 0), (0, 1), *far_cols}, multipliers, 0)


LINE = PolynomialTemplate((Term("a", (1, 0)), Term("b", (0, 1)), Term("c", (0, 0))))
LINE2 = PolynomialTemplate((Term("a2", (1, 0)), Term("b2", (0, 1)), Term("c2", (0, 0))))
# lines that miss x2: the upper rows are zero on its column outside B1
FLAT = PolynomialTemplate((Term("a", (1, 0)), Term("c", (0, 0))))
FLAT2 = PolynomialTemplate((Term("a2", (1, 0)), Term("c2", (0, 0))))
FAR_G = PolynomialTemplate((Term("g", (3, 3)),))
FAR_H = PolynomialTemplate((Term("h", (5, 5)),))
# two binomials on one support: each multiple of one shares both its
# columns with the same multiple of the other, a group of two rows
PAIR_G = PolynomialTemplate((Term("g", (3, 3)), Term("g2", (4, 3))))
PAIR_H = PolynomialTemplate((Term("h", (3, 3)), Term("h2", (4, 3))))
ONE_X1 = ((0, 0), (1, 0))
# two lines in x1 alone
LINE_X1 = PolynomialTemplate((Term("a", (1,)), Term("b", (0,))))
LINE2_X1 = PolynomialTemplate((Term("c", (1,)), Term("d", (0,))))


def _padded_candidate():
    """Two generic lines, one far-off single-monomial polynomial, hidden x2.

    The column of x1^4 x2^3 is touched only by the x1-multiple of the
    single-monomial polynomial: an isolated column with one redundant row.
    """
    return replace(_with_far(LINE, LINE2, (FAR_G,), ONE_X1), subset_mask=0b1111)


class TestReduceRowcol:
    def test_univariate_plan_unchanged(self):
        cfg = SearchConfig(seed=1)
        cand = _smallest(_laid_out(get("univariate_linear").system, cfg))
        red = reduce_rowcol(cand)
        assert red.deleted == ()
        assert red.layout.template.cols == cand.layout.template.cols

    def test_isolated_column_removed(self):
        cfg = SearchConfig(seed=5)
        cand = _padded_candidate()
        assert verify_partition(cand.layout, cfg)
        assert cand.layout.shape == (5, 5)
        red = reduce_rowcol(cand)
        assert red.deleted == ((2, (1, 0)),)
        assert (4, 3) not in red.layout.template.cols
        assert red.layout.shape == (4, 4)
        # conditions re-validated from scratch on the reduced candidate
        assert all(witness_full_rank(red.layout.template, fresh) for fresh in FRESH_RANK)
        # the plan records the row-column removals ahead of any row removal
        assert squarify(red, cfg).deleted_rows == red.deleted

    def test_emptying_removals_are_skipped(self):
        red = reduce_rowcol(_padded_candidate())
        # the constant column's group would empty T_1 and T_{m+1}: skipped
        assert all(len(t) > 0 for t in red.layout.multiplier_sets())
        assert (0, 0) in red.layout.template.cols

    def test_b1_never_grows(self, two_conics_plan):
        cfg = SearchConfig(seed=1)
        cands = _laid_out(get("two_conics").system, cfg, two_conics_plan.layout.hidden_var)
        for cand in [c for c in cands if verify_partition(c.layout, cfg)][:6]:
            assert reduce_rowcol(cand).layout.n_b1 <= cand.layout.n_b1


class TestSquarify:
    def test_already_square_identity(self):
        cfg = SearchConfig(seed=1)
        cand = _smallest(_laid_out(get("univariate_linear").system, cfg))
        assert cand.layout.shape[0] == cand.layout.shape[1]
        plan = squarify(cand, cfg)
        assert plan.deleted_rows == ()

    def test_tall_candidate_prefers_lower_block(self):
        # quadratic over B = {1..x^3}: 5 rows, 4 columns, one row to remove
        cfg = SearchConfig(seed=3)
        aug = augment(get("univariate_quadratic").system, 1)
        b = ((0,), (1,), (2,), (3,))
        mult = (frozenset({(0,), (1,)}), frozenset({(0,), (1,), (2,)}))
        cand = _candidate(aug, 1, b, mult, 0b11)
        assert verify_partition(cand.layout, cfg) and cand.layout.shape == (5, 4)
        plan = squarify(cand, cfg)
        assert plan.layout.shape == (4, 4)
        assert len(plan.deleted_rows) == 1
        poly_idx, _ = plan.deleted_rows[0]
        assert poly_idx == len(aug.polys) - 1  # removed from the lower block first
        assert plan.n_solutions == 2

    def test_seed_determinism(self):
        cfg = SearchConfig(seed=3)
        aug = augment(get("univariate_quadratic").system, 1)
        b = ((0,), (1,), (2,), (3,))
        mult = (frozenset({(0,), (1,)}), frozenset({(0,), (1,), (2,)}))
        cand = _candidate(aug, 1, b, mult, 0b11)
        p1 = squarify(cand, cfg)
        p2 = squarify(cand, cfg)
        assert plan_to_json(p1) == plan_to_json(p2)


def _squarify_by_layouts(cand, cfg, refusals):
    """squarify with a rebuilt and re-verified layout for every trial
    removal; appends the reason of each refused trial to ``refusals``."""
    m_last = len(cand.layout.template.system.polys) - 1
    for attempt in range(SQUARIFY_RETRIES):
        rng = random.Random(f"squarify:{cfg.seed}:{attempt}")
        layout, deleted = cand.layout, list(cand.deleted)
        tried = set()
        while layout.shape[0] > layout.shape[1]:
            t_sets = layout.multiplier_sets()
            pool = sorted(t for t in t_sets[m_last] if (m_last, t) not in tried)
            if pool:
                poly_idx, mult = m_last, pool[rng.randrange(len(pool))]
            else:
                open_polys = [i for i in range(m_last) if any((i, t) not in tried for t in t_sets[i])]
                if not open_polys:
                    break
                poly_idx = open_polys[rng.randrange(len(open_polys))]
                pool = sorted(t for t in t_sets[poly_idx] if (poly_idx, t) not in tried)
                mult = pool[rng.randrange(len(pool))]
            tried.add((poly_idx, mult))
            trial = _without(layout, [(poly_idx, mult)], ())
            if verify_partition(trial, cfg):
                layout = trial
                deleted.append((poly_idx, mult))
            else:
                refusals.append(partition_failure(trial, cfg, {}))
        else:
            return SolverPlan(layout, cfg.seed, cand.delta, cand.subset_mask, tuple(deleted))
    raise SquarifyExhausted("replay exhausted")


@cache
def _first_partitioned(name):
    """The candidate generate_plan reduces first: best first, with a valid
    partition and recovery pairs (neither depends on the seed)."""
    cfg = SearchConfig(variants=("v1",))
    system = get(name).system
    cands = _laid_out(system, cfg)
    cands.sort(key=lambda c: _selection_key(c.layout))
    return next(c for c in cands if verify_partition(c.layout, cfg) and not c.layout.unpaired)


def _replay_cases():
    aug = augment(get("univariate_quadratic").system, 1)
    tall = _candidate(aug, 1, ((0,), (1,), (2,), (3,)), (frozenset({(0,), (1,)}), frozenset({(0,), (1,), (2,)})), 0b11)
    linear = _smallest(_laid_out(get("univariate_linear").system, SearchConfig(seed=1)))
    # two lines in x1 over {1, x1, x1^2}, every T_i = {1, x1}: 6 rows, 3 columns,
    # so upper rows go too, and some trials would empty a T_i
    aug = augment(SystemTemplate(1, ("x1",), (LINE_X1, LINE2_X1)), 1)
    lines = _candidate(aug, 1, ((0,), (1,), (2,)), (frozenset({(0,), (1,)}),) * 3, 0b111)
    # two even quadratics over {1, x1, x1^2}: no upper row touches x1, so
    # dropping the lower row of x1 keeps full column rank but moves a zero
    # column of the upper rows into A12
    even = PolynomialTemplate((Term("a", (2,)), Term("c", (0,))))
    even2 = PolynomialTemplate((Term("b", (2,)), Term("d", (0,))))
    aug = augment(SystemTemplate(1, ("x1",), (even, even2)), 1)
    one = frozenset({(0,)})
    evens = _candidate(aug, 1, ((0,), (1,), (2,)), (one, one, frozenset({(0,), (1,)})), 0b111)
    for seed in range(4):
        cfg = SearchConfig(seed=seed)
        yield f"univariate_linear-{seed}", linear, cfg
        yield f"tall_quadratic-{seed}", tall, cfg
        yield f"two_lines-{seed}", lines, cfg
        yield f"even_quadratics-{seed}", evens, cfg
        for name in ("two_conics", "three_quadrics", "zero_coordinate_pair"):
            yield f"{name}-{seed}", reduce_rowcol(_first_partitioned(name)), cfg


def _recorded_rng_seeds(monkeypatch) -> list[str]:
    """The seeds of the generators polyres.generate makes from now on."""
    seeds = []

    def recording(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(polyres.generate, "random", SimpleNamespace(Random=recording))
    return seeds


class TestSquarifyReplay:
    def test_dead_end_restarts(self, monkeypatch):
        # a + b x1 and c x1, each times {1, x1, x1^2}, with B1 = {x1}: 7 rows,
        # 4 columns.  Removing c x1^2 and c x1^3 leaves the columns 1 and x1^3
        # one row each; then (a + b x1) x1 is needed for A12 and c x1 for
        # coverage, a dead end at 5 rows.  Attempt 0 at seed 0 meets it,
        # attempt 1 does not, and the rebuilt-layout replay restarts the same way.
        aug = augment(SystemTemplate(1, ("x1",), (
            PolynomialTemplate((Term("a", (0,)), Term("b", (1,)))),
            PolynomialTemplate((Term("c", (1,)),)),
        )), 1)
        upper = frozenset({(0,), (1,), (2,)})
        cand = _candidate(aug, 1, ((0,), (1,), (2,), (3,)), (upper, upper, frozenset({(1,)})), 0b111)
        cfg = SearchConfig(seed=0)
        want = _squarify_by_layouts(cand, cfg, [])
        seeds = _recorded_rng_seeds(monkeypatch)
        got = squarify(cand, cfg)
        assert seeds == ["squarify:0:0", "squarify:0:1"]
        assert plan_to_json(got) == plan_to_json(want)
        assert got.layout.shape == (4, 4)

    def test_retries_exhausted(self, monkeypatch):
        # two lines in x1 and x1 - u0, once each, over {1, x1}: the partition
        # holds, but no two rows keep a row of all three polynomials
        aug = augment(SystemTemplate(1, ("x1",), (LINE_X1, LINE2_X1)), 1)
        one = frozenset({(0,)})
        cand = _candidate(aug, 1, ((0,), (1,)), (one, one, one), 0b111)
        cfg = SearchConfig(seed=0)
        assert verify_partition(cand.layout, cfg) and cand.layout.shape == (3, 2)
        with pytest.raises(SquarifyExhausted):
            _squarify_by_layouts(cand, cfg, [])
        seeds = _recorded_rng_seeds(monkeypatch)
        with pytest.raises(SquarifyExhausted, match="no valid removal sequence"):
            squarify(cand, cfg)
        assert seeds == [f"squarify:0:{attempt}" for attempt in range(SQUARIFY_RETRIES)]

    def test_index_sets_match_rebuilt_layouts(self):
        # squarify decides each trial on index sets of the candidate's one
        # template; rebuilding the trial layout must give the same verdicts
        refusals = []
        for label, cand, cfg in _replay_cases():
            want = _squarify_by_layouts(cand, cfg, refusals)
            got = squarify(cand, cfg)
            assert plan_to_json(got) == plan_to_json(want), label
            assert got.deleted_rows == want.deleted_rows, label
        assert set(refusals) == {"coverage", "column_rank", "a12_rank"}

    def test_one_layout_per_plan(self, monkeypatch):
        calls = []
        real = polyres.generate.build_layout

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(polyres.generate, "build_layout", counting)
        cand = reduce_rowcol(_first_partitioned("three_quadrics"))
        calls.clear()
        plan = squarify(cand, SearchConfig(seed=1))
        assert plan.deleted_rows != cand.deleted and len(calls) == 1


def _kernel_cases():
    """The distinct candidates of the squarify replay, and the library
    candidates before their row-column removal."""
    cands = {label.rsplit("-", 1)[0]: cand for label, cand, _ in _replay_cases()}
    for name in ("two_conics", "three_quadrics", "zero_coordinate_pair"):
        cands[f"{name}-unreduced"] = _first_partitioned(name)
    return cands


class TestSquarifyKernels:
    def test_verdicts_match_partition_failure(self, monkeypatch):
        # under the default rank config and one with another witness
        for rank in (RankCheckConfig(), RankCheckConfig(primes=PRIMES[3:], seed=5)):
            self._check_verdicts(rank, monkeypatch)

    @staticmethod
    def _check_verdicts(rank, monkeypatch):
        # random removal sequences over every row: each trial's verdict on
        # the two left kernels at the rank config's witness (and the coverage
        # count) is the reason partition_failure gives on the rebuilt trial
        # layout
        cfg = SearchConfig(rank=rank)
        p, trial = rank.witness
        reasons = []
        for label, cand in _kernel_cases().items():
            lay = cand.layout
            tm, n_upper, n_b1 = lay.template, lay.n_upper, lay.n_b1
            m = rank.instantiate(tm, p, trial)
            assert verify_partition(lay, cfg), label
            for seed in range(6):
                rng = random.Random(f"{label}:{seed}")
                k1, k2 = modp_left_kernel(m, p), modp_left_kernel(m[:n_upper, n_b1:], p)
                layout = lay
                left = [len(t) for t in lay.multiplier_sets()]
                for r in rng.sample(range(len(tm.rows)), len(tm.rows)):
                    rebuilt = _without(layout, [tm.rows[r]], ())
                    want = partition_failure(rebuilt, cfg, {})
                    poly_idx = tm.rows[r][0]
                    if left[poly_idx] == 1:
                        got = "coverage"
                    else:
                        got, k1, k2 = _remove_row(m, k1, k2, r, n_upper, p)
                    assert got == want, (label, seed, r)
                    reasons.append(want)
                    if want is None:
                        layout = rebuilt
                        left[poly_idx] -= 1
                assert len(k1) == layout.shape[0] - layout.shape[1], label
        assert set(reasons) == {None, "coverage", "column_rank", "a12_rank"}
        # squarify instantiates each tall candidate once, at the same witness,
        # and removes the rows the rebuilt-layout replay removes
        calls = []
        real = RankCheckConfig.instantiate

        def recording(self, tm, prime, trial):
            calls.append((self, tm, prime, trial))
            return real(self, tm, prime, trial)

        for label, cand in _kernel_cases().items():
            want = _squarify_by_layouts(cand, cfg, [])
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RankCheckConfig, "instantiate", recording)
                got = squarify(cand, cfg)
            assert plan_to_json(got) == plan_to_json(want), label
            rows, cols = cand.layout.shape
            assert calls == [(rank, cand.layout.template, p, trial)] * (rows > cols), label

    def test_no_rank_check(self, monkeypatch):
        # the oracle re-verifies every trial, so it runs before the patch
        cases = [(label, cand, cfg, _squarify_by_layouts(cand, cfg, []))
                 for label, cand, cfg in _replay_cases()]

        def refuse(*args):
            raise AssertionError("squarify made a rank check")

        instantiated = []
        real = TemplateMatrix.instantiate_modp

        def counting(tm, p, values):
            instantiated.append(tm)
            return real(tm, p, values)

        monkeypatch.setattr(polyres.generate, "has_full_column_rank", refuse)
        monkeypatch.setattr(TemplateMatrix, "instantiate_modp", counting)
        for label, cand, cfg, want in cases:
            instantiated.clear()
            got = squarify(cand, cfg)
            assert plan_to_json(got) == plan_to_json(want), label
            # one instantiation when there is a row to remove, else none
            rows, cols = cand.layout.shape
            assert instantiated == [cand.layout.template] * (rows > cols), label

    def test_failed_partition_exhausted_at_once(self, monkeypatch):
        # outside the precondition every trial fails, as the oracle finds
        # by trying them all; squarify sees it on the kernels' sizes
        lines = tuple(PolynomialTemplate((Term(a, (1,)), Term(c, (0,)))) for a, c in ("ac", "bd", "ef"))
        aug = augment(SystemTemplate(1, ("x1",), lines), 1)
        b = ((0,), (1,), (2,))
        one, two = frozenset({(0,)}), frozenset({(0,), (1,)})
        cases = {
            # no row touches x1^2
            "column_rank": _candidate(aug, 1, b, (one, one, one, one), 0b1111),
            # no upper row touches x1^2, the one column of A12
            "a12_rank": _candidate(aug, 1, b, (one, one, one, two), 0b1111),
            "coverage": _candidate(aug, 1, b, (one, one, frozenset(), two), 0b1011),
        }
        cfg = SearchConfig(seed=1)
        for reason, cand in cases.items():
            assert cand.layout.shape[0] > cand.layout.shape[1], reason
            assert partition_failure(cand.layout, cfg, {}) == reason
            with pytest.raises(SquarifyExhausted):
                _squarify_by_layouts(cand, cfg, [])
            with pytest.raises(SquarifyExhausted, match="fails its partition"):
                squarify(cand, cfg)


def _rowcol_replay_cases():
    # each far polynomial can lose one multiple, not both (coverage)
    built = {
        "padded": _padded_candidate(),
        # one group of g and then one of h go
        "two_groups": _with_far(LINE, LINE2, (FAR_G, FAR_H), ONE_X1),
        # one group of two rows goes
        "pairs": _with_far(LINE, LINE2, (PAIR_G, PAIR_H), ((0, 0), (3, 0))),
    }
    cfg = SearchConfig()
    for label, cand in built.items():
        yield label, cand, cfg
    for name in ("two_conics", "three_quadrics", "zero_coordinate_pair"):
        yield name, _first_partitioned(name), cfg


def _structural_rows_of_col(tm, col):
    return {r for r, c, _, _ in tm.cells if c == col}


def _structural_cols_of_rows(tm, row_ids):
    return {c for r, c, _, _ in tm.cells if r in row_ids}


def _reduce_rowcol_by_layouts(cand, cfg, refusals):
    """reduce_rowcol with a rebuilt and re-verified layout for every trial
    removal; appends the reason of each refused trial to ``refusals``."""
    while True:
        layout = cand.layout
        tm = layout.template
        p, eps = tm.shape
        for c in range(eps):
            rows_hit = _structural_rows_of_col(tm, c)
            if not rows_hit or len(rows_hit) == p:
                continue
            cols_hit = _structural_cols_of_rows(tm, rows_hit)
            if any(not _structural_rows_of_col(tm, c2) <= rows_hit for c2 in cols_hit):
                continue
            s, l = len(rows_hit), len(cols_hit)
            if p - s < eps - l or eps - l == 0:
                continue
            removed = tuple(tm.rows[r] for r in sorted(rows_hit))
            trial = _without(layout, removed, [tm.cols[c2] for c2 in cols_hit])
            if not verify_partition(trial, cfg):
                refusals.append(partition_failure(trial, cfg, {}))
                continue
            cand = replace(cand, layout=trial, deleted=cand.deleted + removed)
            break
        else:
            return cand


class TestReduceRowcolReplay:
    def test_index_sets_match_rebuilt_layouts(self):
        # reduce_rowcol decides each trial on index sets of the candidate's
        # one template; rebuilding and re-verifying every trial layout must
        # give the same result.  Its inputs pass the partition, and a removed
        # group is a diagonal block, so the rebuilt trials fail coverage only
        refusals = []
        for label, cand, cfg in _rowcol_replay_cases():
            assert verify_partition(cand.layout, cfg), label
            want = _reduce_rowcol_by_layouts(cand, cfg, refusals)
            assert reduce_rowcol(cand) == want, label
            if label.startswith(("two_groups", "pairs")):
                assert len(want.deleted) == 2, label
        assert set(refusals) == {"coverage"}

    def test_no_rank_check(self, monkeypatch):
        # the oracle re-verifies every trial, so it runs before the patch
        cases = [(label, cand, cfg, _reduce_rowcol_by_layouts(cand, cfg, []))
                 for label, cand, cfg in _rowcol_replay_cases()]

        def refuse(*args):
            raise AssertionError("reduce_rowcol made a rank check")

        monkeypatch.setattr(polyres.generate, "has_full_column_rank", refuse)
        for label, cand, cfg, want in cases:
            assert reduce_rowcol(cand) == want, label

    def test_rank_deficient_inputs_never_reduced(self):
        # a far group next to two equal lines, or next to two lines that
        # miss x2, is removable on coverage, but the whole matrix fails its
        # partition: generate_plan rejects it before any reduction, outside
        # reduce_rowcol's precondition
        cfg = SearchConfig(seed=1)
        equal_lines = _with_far(LINE, LINE, (FAR_G,), ONE_X1)
        flat_lines = _with_far(FLAT, FLAT2, (FAR_G,), ONE_X1)
        assert partition_failure(equal_lines.layout, cfg, {}) == "column_rank"
        assert partition_failure(flat_lines.layout, cfg, {}) == "a12_rank"

    def test_at_most_one_layout(self, monkeypatch):
        calls = []
        real = polyres.generate.build_layout

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(polyres.generate, "build_layout", counting)
        # one layout for the result, however many groups go and trials run
        for cand in (_padded_candidate(), _with_far(LINE, LINE2, (FAR_G, FAR_H), ONE_X1)):
            calls.clear()
            assert reduce_rowcol(cand).deleted and len(calls) == 1
        # none when nothing goes
        calls.clear()
        cand = _first_partitioned("three_quadrics")
        assert reduce_rowcol(cand) == cand and calls == []


class TestEmitPlan:
    def test_round_trip(self, univariate_linear_plan, two_conics_plan):
        for plan in (univariate_linear_plan, two_conics_plan):
            text = plan_to_json(plan)
            again = plan_from_json(text)
            assert plan_to_json(again) == text

    def test_truncated_file(self, univariate_linear_plan):
        text = plan_to_json(univariate_linear_plan)
        with pytest.raises(PlanFormatError):
            plan_from_json(text[: len(text) // 2])

    def test_tampered_cells_rejected(self, univariate_linear_plan):
        import json

        doc = json.loads(plan_to_json(univariate_linear_plan))
        doc["cells"] = doc["cells"][:-1]
        with pytest.raises(PlanFormatError):
            plan_from_json(json.dumps(doc))


class TestPlanInvariants:
    def test_revalidation_fresh_primes(
        self, univariate_linear_plan, univariate_quadratic_plan, two_conics_plan, two_conics_plan_v2
    ):
        for plan in (
            univariate_linear_plan,
            univariate_quadratic_plan,
            two_conics_plan,
            two_conics_plan_v2,
        ):
            lay = plan.layout
            t_sets = lay.multiplier_sets()
            assert sum(len(t) for t in t_sets) >= lay.shape[1]
            assert min(len(t) for t in t_sets) > 0
            for fresh in FRESH_RANK:
                assert witness_full_rank(lay.template, fresh)
                assert witness_full_rank(lay.template, fresh, lay.n_upper, lay.n_b1)

    def test_n_at_least_root_count(
        self, univariate_linear_plan, univariate_quadratic_plan, two_conics_plan, three_quadrics_plan
    ):
        for plan, name in (
            (univariate_linear_plan, "univariate_linear"),
            (univariate_quadratic_plan, "univariate_quadratic"),
            (two_conics_plan, "two_conics"),
            (three_quadrics_plan, "three_quadrics"),
        ):
            assert plan.n_solutions >= get(name).root_count

    def test_pipeline_determinism(self):
        cfg = SearchConfig(seed=11)
        sys1 = get("univariate_quadratic").system
        a = plan_to_json(generate_plan(sys1, cfg).plan)
        b = plan_to_json(generate_plan(sys1, cfg).plan)
        assert a == b


class TestNoSolver:
    def test_structured_reason(self):
        # a single far-off monomial cannot produce a favourable set with the
        # default displacement sweep: multiplying it never reaches a square
        # system that also covers the extra polynomial
        lonely = SystemTemplate(
            1, ("x1",), (PolynomialTemplate((Term("a", (7,)), Term("b", (5,)))),)
        )
        try:
            generate_plan(lonely, SearchConfig(seed=1, max_subset_size=1))
        except NoSolverError as e:
            assert e.reasons
        # if a plan is found instead, the search space was richer than the
        # construction assumed; both outcomes are legal for this input

    @pytest.mark.parametrize("cfg", [SearchConfig(delta_magnitudes=()), SearchConfig(max_subset_size=0)],
                             ids=["no_displacement", "no_subset"])
    def test_empty_search_space(self, cfg):
        # nothing to sweep for any hidden variable: one tick for the sweep
        system = get("two_conics").system
        reasons = {}
        assert search_candidates(system, cfg, reasons) == []
        assert reasons == {"empty_search_space": 1}
        with pytest.raises(NoSolverError) as err:
            generate_plan(system, cfg)
        assert err.value.reasons == {"empty_search_space": 1}


    def test_squarify_dead_end_counted(self, monkeypatch, two_conics_outcome):
        # the first reduction dead-ends: its candidate is refused as
        # squarify_exhausted, counted once, and the search goes on to the
        # next candidate
        squarify, calls = polyres.generate.squarify, []

        def first_exhausted(cand, cfg):
            calls.append(cand)
            if len(calls) == 1:
                raise SquarifyExhausted("dead end")
            return squarify(cand, cfg)

        monkeypatch.setattr(polyres.generate, "squarify", first_exhausted)
        outcome = generate_plan(get("two_conics").system, GOLDEN_CONFIGS["two_conics"])
        assert len(calls) == 2
        assert outcome.reasons == {**two_conics_outcome.reasons, "squarify_exhausted": 1}
        assert outcome.candidates_seen == 2


class TestRankCheckConfig:
    @pytest.mark.parametrize("field, kwargs", [
        ("primes", {"primes": ()}),
        ("primes", {"primes": (2**61 - 1,)}),
        ("primes", {"primes": (PRIMES[0], 1)}),
        ("primes", {"primes": (4,)}),
        ("primes", {"primes": (6,)}),
        ("primes", {"primes": (PRIMES[0], 2047)}),
        ("primes", {"primes": (2**31 - 3,)}),
        ("assignments", {"assignments": 0}),
    ], ids=["no_prime", "modulus_past_int64", "modulus_below_two", "composite_4", "composite_6",
            "strong_pseudoprime_to_base_2", "composite_below_2_31", "no_assignment"])
    def test_unrunnable_config_rejected(self, field, kwargs):
        # no prime fails at the first partition check; a modulus of 2^31 or
        # more overflows the int64 products of linalg's kernels silently; a
        # composite one has pivots with no inverse; no assignment leaves
        # build_template with no trial
        with pytest.raises(ValueError, match=field):
            RankCheckConfig(**kwargs)

    def test_every_library_prime_accepted(self):
        assert RankCheckConfig(primes=PRIMES).primes == PRIMES

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
    def test_small_and_largest_primes_accepted(self, p):
        # the bases of the primality test are primes themselves, and
        # 2^31 - 1 is the largest prime below 2^31
        assert RankCheckConfig(primes=(p,)).primes == (p,)

    def test_primality_matches_trial_division(self):
        def trial_division(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        # 3215031751 is the first composite that passes bases 2, 3, 5 and 7 together
        ns = [*range(3000), 25326001, *range(2**31 - 200, 2**31)]
        assert [_is_prime(n) for n in ns] == [trial_division(n) for n in ns]


class TestSearchConfig:
    @pytest.mark.parametrize("variants", [(), ("v3",), ("v1", "v3"), ("v1", "v1"), ("v2", "v1", "v2")])
    def test_unrunnable_variants_rejected(self, variants):
        # no variant would drop every passing row silently; an unknown one
        # would fail only when the loop lays out its first candidate; a
        # repeated one would sweep and count its candidates twice
        with pytest.raises(ValueError, match="variants"):
            SearchConfig(variants=variants)
