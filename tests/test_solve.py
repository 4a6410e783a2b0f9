import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import ALL_CULLED_CONICS, INFINITE_SCHUR_CONICS, NON_FINITE_CONICS, contains_points, pair_max_dev

from polyres.generate import SearchConfig, generate_plan
from polyres.oracle import numeric_poly, sylvester_bivariate
from polyres.plan import MissingSlotError, plan_from_json
from polyres.poly import PolynomialTemplate, SystemTemplate, Term, normalized_residual
from polyres.problems import get
from polyres.solve import (
    SolveFailure,
    UnrecoverableVariableError,
    benchmark,
    fill,
    recover,
    schur_matrix,
    solve,
    solve_instance,
)

CONIC_INSTANCE = {"a": 1.0, "b": 1.0, "c": -1.0, "d": 1.0, "e": -0.25}

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def golden_plan(name):
    return plan_from_json((GOLDEN / f"{name}.plan").read_text(encoding="utf-8"))


class TestFill:
    def test_univariate_blocks(self, univariate_linear_plan):
        m = fill(univariate_linear_plan, {"a": 1.0, "b": -2.0})
        lay = univariate_linear_plan.layout
        assert m[: lay.n_upper, : lay.n_b1].tolist() == [[-2.0]]  # A11
        assert m[: lay.n_upper, lay.n_b1 :].tolist() == [[1.0]]  # A12
        assert m[lay.n_upper :].tolist() == [[0.0, 1.0]]  # A21 | A22
        b = lay.template.instantiate({"a": 1.0, "b": -2.0}, 0.0, 1.0)
        assert b[lay.n_upper :].tolist() == [[-1.0, 0.0]]  # B21 | B22

    def test_missing_slot_named(self, univariate_linear_plan):
        with pytest.raises(MissingSlotError, match="'b'"):
            fill(univariate_linear_plan, {"a": 1.0})

    def test_all_zero_instance_fails_at_solve(self, univariate_linear_plan):
        coeffs = {"a": 0.0, "b": 0.0}
        with pytest.raises(SolveFailure):
            solve(univariate_linear_plan, coeffs, fill(univariate_linear_plan, coeffs))

    def test_dimensions_match_plan(self, two_conics_plan):
        rng = np.random.default_rng(0)
        coeffs = {s: float(rng.standard_normal()) for s in get("two_conics").system.slots()}
        m = fill(two_conics_plan, coeffs)
        assert m.shape == two_conics_plan.layout.shape
        # a dropped u0 cell (-1 * 0.0) is stored as +0.0, like a cell no term writes
        assert not np.signbit(m[m == 0]).any()


class TestSolve:
    def test_quadratic_eigenvalues(self, univariate_quadratic_plan):
        sols = solve_instance(univariate_quadratic_plan, {"a": 1.0, "b": -5.0, "c": 6.0})
        assert pair_max_dev([r.eigvalue for r in sols.roots], [2.0, 3.0]) < 1e-12
        assert all(r.residual < 1e-12 for r in sols.roots)

    def test_linear_schur_is_two(self, univariate_linear_plan):
        m = fill(univariate_linear_plan, {"a": 1.0, "b": -2.0})
        assert np.allclose(schur_matrix(univariate_linear_plan, m), [[2.0]], atol=1e-15)

    def test_two_conics_roots(self, two_conics_plan):
        sols = solve_instance(two_conics_plan, CONIC_INSTANCE)
        want = [
            (0.9659258262890683, 0.25881904510252074),
            (0.25881904510252074, 0.9659258262890683),
            (-0.9659258262890683, -0.25881904510252074),
            (-0.25881904510252074, -0.9659258262890683),
        ]
        got = [r.point for r in sols.roots]
        assert contains_points(got, want, 1e-8)
        for r in sols.roots:
            assert abs(r.point[0] * r.point[1] - 0.25) < 1e-8


    def test_roots_in_canonical_order(self, two_conics_plan, monkeypatch):
        # the eigensolver's pair order must not reach the output: the same
        # pairs handed over reversed give the identical solution set
        import polyres.solve as solve_mod
        from polyres.linalg import eig

        sols = solve_instance(two_conics_plan, CONIC_INSTANCE)
        keys = [(r.eigvalue.real, r.eigvalue.imag) for r in sols.roots]
        assert keys == sorted(keys)

        def reversed_eig(a, tol=1e-8):
            values, vectors = eig(a, tol)
            return values[::-1], vectors[:, ::-1]

        monkeypatch.setattr(solve_mod, "eig", reversed_eig)
        assert solve_instance(two_conics_plan, CONIC_INSTANCE) == sols


class TestRecover:
    def test_pair_from_constant(self, univariate_quadratic_plan):
        plan = univariate_quadratic_plan
        b1 = plan.layout.b1
        assert set(b1) == {(0,), (1,)}
        vec = np.zeros(2, dtype=complex)
        vec[b1.index((0,))] = 1.0
        vec[b1.index((1,))] = 2.0
        pts = recover(vec[:, None], plan, [2.0])
        assert pts.shape == (1, 1)
        assert pts[0, 0] == pytest.approx(2.0)

    def test_scale_invariance(self, two_conics_plan):
        sols = solve_instance(two_conics_plan, CONIC_INSTANCE)
        from polyres.linalg import eig

        lam, vecs = eig(schur_matrix(two_conics_plan, fill(two_conics_plan, CONIC_INSTANCE)))
        p1 = recover(vecs, two_conics_plan, lam)
        # a different factor for each column
        p2 = recover(vecs * (0.3 - 1.7j) ** np.arange(1, len(lam) + 1), two_conics_plan, lam)
        assert np.abs(p1 - p2).max() < 1e-9

    def test_unrecoverable_variable(self):
        # hand-built square plan whose B1 = {1, x1} offers no ratio pair for
        # x2: the eigenvector read-off must name the stuck variable
        from polyres.generate import augment
        from polyres.plan import SolverPlan, build_layout

        system = SystemTemplate(
            2, ("x1", "x2"), (PolynomialTemplate((Term("a", (2, 0)), Term("b", (0, 0)))),)
        )
        aug = augment(system, 1)
        layout = build_layout(
            aug, 1, "v1", {(0, 0), (1, 0), (2, 0)},
            (frozenset({(0, 0)}), frozenset({(0, 0), (1, 0)})),
        )
        plan = SolverPlan(layout, 0, None, None)
        with pytest.raises(UnrecoverableVariableError, match="x2"):
            solve_instance(plan, {"a": 1.0, "b": -4.0})

    def test_generator_refuses_unrecoverable_plans(self):
        # every alternate-form candidate for this system lacks the pairs the
        # read-off needs, so generation reports a structured no-solver outcome
        from polyres.generate import NoSolverError

        system = SystemTemplate(
            2,
            ("x1", "x2"),
            (
                PolynomialTemplate((Term("a", (1, 1)),)),
                PolynomialTemplate((Term("b", (1, 0)), Term("c", (0, 1)), Term("d", (0, 0)))),
            ),
        )
        with pytest.raises(NoSolverError) as exc:
            generate_plan(system, SearchConfig(seed=2, variants=("v2",)))
        assert exc.value.reasons.get("unrecoverable_b1", 0) > 0

    def test_residuals_recomputed_from_template(self, two_conics_plan):
        sols = solve_instance(two_conics_plan, CONIC_INSTANCE)
        base = two_conics_plan.base_system
        for r in sols.roots:
            direct = normalized_residual(base, CONIC_INSTANCE, [r.point])
            assert direct.shape == (1,)
            assert r.residual == direct[0]


class TestOracleAgreement:
    def test_eigenvalues_cover_oracle_roots(self, two_conics_plan):
        entry = get("two_conics")
        rng = np.random.default_rng(5)
        k = two_conics_plan.layout.hidden_var
        for _ in range(20):
            coeffs = entry.random_instance(rng)
            f = numeric_poly(entry.system.polys[0], coeffs)
            g = numeric_poly(entry.system.polys[1], coeffs)
            oracle = sylvester_bivariate(f, g, hide=2)
            sols = solve_instance(two_conics_plan, coeffs)
            eigs = [r.eigvalue for r in sols.roots]
            for pt in oracle.points:
                want = pt[k - 1]
                assert min(abs(e - want) for e in eigs) < 1e-6

    def test_v1_v2_same_roots(self, two_conics_plan, two_conics_plan_v2):
        entry = get("two_conics")
        rng = np.random.default_rng(8)
        for _ in range(10):
            coeffs = entry.random_instance(rng)
            r1 = solve_instance(two_conics_plan, coeffs)
            r2 = solve_instance(two_conics_plan_v2, coeffs)
            good1 = [r.point for r in r1.roots if r.residual < 1e-8]
            good2 = [r.point for r in r2.roots if r.residual < 1e-8]
            if any(abs(p[two_conics_plan_v2.layout.hidden_var - 1]) < 1e-8 for p in good1):
                continue
            assert contains_points(good2, good1, 1e-6)
            assert contains_points(good1, good2, 1e-6)


class TestBenchmark:
    @staticmethod
    def _gen(system):
        slots = system.slots()

        def gen(rng):
            return {s: float(rng.standard_normal()) for s in slots}

        return gen

    def test_univariate_thousand_trials(self, univariate_quadratic_plan):
        gen = self._gen(get("univariate_quadratic").system)
        rep = benchmark(univariate_quadratic_plan, gen, trials=1000, seed=3)
        assert rep.fail_pct == 0.0
        assert rep.trials == 1000

    def test_all_zero_generator_fails(self, univariate_linear_plan):
        def gen(rng):
            return {"a": 0.0, "b": 0.0}

        rep = benchmark(univariate_linear_plan, gen, trials=10, seed=3)
        assert rep.fail_pct == 100.0
        assert rep.mean_log10 is None

    @pytest.mark.filterwarnings("error")
    def test_non_finite_roots_fail(self, two_conics_plan):
        with pytest.raises(SolveFailure, match="not finite"):
            solve_instance(two_conics_plan, NON_FINITE_CONICS)
        rep = benchmark(two_conics_plan, lambda rng: NON_FINITE_CONICS, trials=3, seed=0)
        assert rep.fail_pct == 100.0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(rep.to_json(), parse_constant=refuse)
        assert doc["mean_log10"] is None and doc["median_log10"] is None

    @pytest.mark.filterwarnings("error")
    def test_infinite_schur_complement_fails(self):
        # finite coefficients, but X overflows: a numeric failure, not a
        # ValueError from eig
        plan = golden_plan("two_conics")
        with pytest.raises(SolveFailure, match="eigenproblem matrix is not finite"):
            solve_instance(plan, INFINITE_SCHUR_CONICS)
        rep = benchmark(plan, lambda rng: INFINITE_SCHUR_CONICS, trials=3, seed=0)
        assert rep.fail_pct == 100.0

    def test_every_eigenvalue_culled_fails(self, two_conics_plan_v2):
        # no root is left to return: a numeric failure, not an empty solution
        with pytest.raises(SolveFailure, match="every eigenvalue lies below the v2 cull bound"):
            solve_instance(two_conics_plan_v2, ALL_CULLED_CONICS)
        rep = benchmark(two_conics_plan_v2, lambda rng: ALL_CULLED_CONICS, trials=3, seed=0)
        assert rep.fail_pct == 100.0
        assert rep.n_solutions_histogram == {0: 3}

    # solve.benchmark on the golden plans and the library's instance
    # generators, 2000 trials at seed 1: the exact report bytes
    PINNED_REPORTS = {
        "two_conics": '{"fail_pct":0.0,"mean_log10":-16.323301616590218,"median_log10":-15.413311863927092,'
        '"n_solutions_histogram":{"4":2000},"timing_us":null,"trials":2000}\n',
        "three_quadrics": '{"fail_pct":0.0,"mean_log10":-13.72855828060999,"median_log10":-13.98892016877918,'
        '"n_solutions_histogram":{"8":2000},"timing_us":null,"trials":2000}\n',
        "rel_pose_f_lambda_8pt": '{"fail_pct":0.0,"mean_log10":-13.26788904778168,"median_log10":-13.576321509883732,'
        '"n_solutions_histogram":{"10":8,"7":1,"8":1991},"timing_us":null,"trials":2000}\n',
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_golden_reports_pinned(self, name):
        rep = benchmark(golden_plan(name), get(name).random_instance, 2000, seed=1)
        assert rep.to_json() == self.PINNED_REPORTS[name]

    def test_singleton_stats(self, univariate_quadratic_plan):
        gen = self._gen(get("univariate_quadratic").system)
        rep = benchmark(univariate_quadratic_plan, gen, trials=1, seed=3)
        assert rep.median_log10 == rep.mean_log10 or rep.median_log10 == pytest.approx(rep.mean_log10)

    def test_report_roundtrip_and_determinism(self, two_conics_plan):
        gen = self._gen(get("two_conics").system)
        rep1 = benchmark(two_conics_plan, gen, trials=50, seed=9)
        rep2 = benchmark(two_conics_plan, gen, trials=50, seed=9)
        assert rep1.to_json() == rep2.to_json()
        doc = json.loads(rep1.to_json())
        assert doc == {
            "trials": rep1.trials,
            "mean_log10": rep1.mean_log10,
            "median_log10": rep1.median_log10,
            "fail_pct": rep1.fail_pct,
            "n_solutions_histogram": {str(k): v for k, v in rep1.n_solutions_histogram.items()},
            "timing_us": rep1.timing_us,
        }

    def test_timing_optional(self, univariate_linear_plan):
        gen = self._gen(get("univariate_linear").system)
        rep = benchmark(univariate_linear_plan, gen, trials=5, seed=1, record_timing=True)
        assert rep.timing_us is not None and rep.timing_us["p95"] >= rep.timing_us["p50"]


class TestExtremeInstances:
    @pytest.mark.parametrize("name", ["two_conics", "three_quadrics"])
    def test_roots_or_solve_failure(self, name):
        # every slot +-10^U(-300, 300): finite input either solves or fails
        # as a SolveFailure, with no other exception and no numpy warning
        plan = golden_plan(name)
        slots = plan.base_system.slots()
        rng = np.random.default_rng(0)
        for _ in range(300):
            coeffs = {s: float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)) for s in slots}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    solve_instance(plan, coeffs)
                except SolveFailure:
                    pass

    def test_v2_cull_survives_huge_x(self, two_conics_plan_v2):
        # X is finite but ||X||_F overflows: taken unscaled, the cull bound
        # is inf and culls all four good roots
        coeffs = {"a": -7e123, "b": 2e-44, "c": 1e-44, "d": 1e173, "e": -5e11}
        sols = solve_instance(two_conics_plan_v2, coeffs)
        assert len(sols.roots) == 4
        assert max(r.residual for r in sols.roots) < 1e-14


class TestDetVanishing:
    def _ratio(self, plan, coeffs, roots_xk, rng):
        tm = plan.layout.template
        rand_dets = []
        for _ in range(11):
            u0 = float(rng.standard_normal())
            sign, logdet = np.linalg.slogdet(tm.instantiate(coeffs, 1.0, u0))
            rand_dets.append(logdet if sign != 0 else -np.inf)
        med = float(np.median(rand_dets))
        worst = -np.inf
        for xk in roots_xk:
            m = tm.instantiate(coeffs, 1.0, complex(xk))
            sign, logdet = np.linalg.slogdet(m)
            val = logdet.real if sign != 0 else -np.inf
            worst = max(worst, val - med)
        return worst  # log of |det M(root)| / median |det M(random)|

    def test_resultant_constraint_vanishes(self, univariate_quadratic_plan, two_conics_plan):
        rng = np.random.default_rng(17)
        entry = get("two_conics")
        for _ in range(20):
            coeffs = entry.random_instance(rng)
            f = numeric_poly(entry.system.polys[0], coeffs)
            g = numeric_poly(entry.system.polys[1], coeffs)
            pts = sylvester_bivariate(f, g, hide=2).points
            k = two_conics_plan.layout.hidden_var
            ratio = self._ratio(two_conics_plan, coeffs, [p[k - 1] for p in pts], rng)
            assert ratio < np.log(1e-6)
        quad = get("univariate_quadratic")
        for _ in range(20):
            coeffs = quad.random_instance(rng)
            roots = np.roots([coeffs["a"], coeffs["b"], coeffs["c"]])
            ratio = self._ratio(univariate_quadratic_plan, coeffs, list(roots), rng)
            assert ratio < np.log(1e-6)
