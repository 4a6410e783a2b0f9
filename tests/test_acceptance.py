"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 10 is a non-gating stretch goal.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import contains_points, newton_polish, pair_max_dev, point_sets, witness_full_rank

from polyres.action_matrix import am_to_res, check_equivalence, res_to_am
from polyres.generate import (
    SearchConfig,
    generate_plan,
    search_candidates,
    verify_partition,
)
from polyres.lattice import convex_hull, lattice_points, minkowski_sum
from polyres.linalg import PRIMES, eig, finite_scale
from polyres.oracle import numeric_poly, sylvester_bivariate
from polyres.plan import RankCheckConfig
from polyres.poly import dump_system, support
from polyres.problems import get
from polyres.solve import benchmark, fill, schur_matrix, solve_instance

# one single-witness config per fresh (prime, seed): six fresh points per check
FRESH = tuple(RankCheckConfig(primes=(p,), assignments=1, seed=s) for p in PRIMES[3:6] for s in (1234, 1235))


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_lattice_fidelity():
    """lattice_points(P1+P2, (-0.1,-0.1)) is exactly the 17-monomial set."""
    t0 = time.monotonic()
    entry = get("example_system")
    p1 = convex_hull(support(entry.system.polys[0]))
    p2 = convex_hull(support(entry.system.polys[1]))
    q = minkowski_sum([p1, p2])
    tenth = Fraction(1, 10)
    got = point_sets(lattice_points(q, [(-tenth, -tenth)]))[0]
    expected = {
        (0, 1), (0, 2), (0, 3), (2, 0), (3, 0), (1, 1), (1, 2), (1, 3), (2, 1),
        (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
    }
    elapsed = time.monotonic() - t0
    assert got == expected
    assert elapsed < 1.0
    report(1, f"17-point set reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_univariate_end_to_end(univariate_quadratic_plan, univariate_linear_plan):
    """Quadratic eigenvalues {2,3} to 1e-10; linear Schur complement [2] to 1e-12."""
    sols = solve_instance(univariate_quadratic_plan, {"a": 1.0, "b": -5.0, "c": 6.0})
    dev = pair_max_dev([r.eigvalue for r in sols.roots], [2.0, 3.0])
    assert dev <= 1e-10
    x = schur_matrix(univariate_linear_plan, fill(univariate_linear_plan, {"a": 1.0, "b": -2.0}))
    assert x.shape == (1, 1)
    assert abs(x[0, 0] - 2.0) <= 1e-12
    report(2, f"eigenvalues {{2,3}} off by {dev:.2e}; Schur complement [2] off by {abs(x[0,0]-2.0):.2e}")


def test_criterion_3_oracle_equivalence():
    """Every oracle root appears among solver outputs, 100 instances/system."""
    t0 = time.monotonic()
    conics = get("two_conics")
    conic_plan = generate_plan(conics.system, SearchConfig(seed=1, variants=("v1",))).plan
    rng = np.random.default_rng(2024)
    for _ in range(100):
        coeffs = conics.random_instance(rng)
        f = numeric_poly(conics.system.polys[0], coeffs)
        g = numeric_poly(conics.system.polys[1], coeffs)
        oracle_pts = sylvester_bivariate(f, g, hide=2).points
        assert len(oracle_pts) == 4
        got = [r.point for r in solve_instance(conic_plan, coeffs).roots]
        assert contains_points(got, oracle_pts, 1e-6)

    tq = get("three_quadrics")
    tq_plan = generate_plan(tq.system, SearchConfig(seed=1, variants=("v1",))).plan
    for trial in range(100):
        coeffs = tq.random_instance(rng)
        sols = solve_instance(tq_plan, coeffs)
        # per-instance verification: 8 distinct residual-certified roots are
        # the complete root set at the Bezout bound
        good = [r.point for r in sols.roots if r.residual <= 1e-8]
        assert len(good) == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert max(abs(a - b) for a, b in zip(good[i], good[j])) > 1e-6
        if trial < 5:
            # independent cross-check: fixing x3 at a root reduces the first
            # two quadrics to a bivariate pair that must contain (x1, x2)
            for pt in good[:2]:
                f12 = _restrict_quadric(tq.system.polys[0], coeffs, pt[2])
                g12 = _restrict_quadric(tq.system.polys[1], coeffs, pt[2])
                pts = sylvester_bivariate(f12, g12, hide=2, residual_tol=1e-6).points
                assert contains_points(pts, [pt[:2]], 1e-5)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, f"200 instances verified against oracles in {elapsed:.1f}s")


def _restrict_quadric(poly, coeffs, x3):
    out = {}
    for t in poly.terms:
        key = t.exps[:2]
        out[key] = out.get(key, 0.0) + coeffs[t.slot] * x3 ** t.exps[2]
    return out


def test_criterion_4_resultant_constraint_vanishing(
    univariate_linear_plan,
    univariate_quadratic_plan,
    two_conics_plan,
    two_conics_plan_v2,
    three_quadrics_plan,
):
    """|det M(x_k*)| / median |det M(u_random)| <= 1e-6 at true roots."""

    def log_ratio(plan, coeffs, xk_values, rng):
        # random u0 drawn at the magnitude scale of the tested roots, so that
        # numerator and denominator determinants live at a comparable scale
        scale = max(1.0, max(abs(complex(x)) for x in xk_values))
        tm = plan.layout.template
        rand = []
        for _ in range(11):
            s, ld = np.linalg.slogdet(tm.instantiate(coeffs, 1.0, scale * float(rng.standard_normal())))
            rand.append(ld if s != 0 else -np.inf)
        med = float(np.median(rand))
        worst = -np.inf
        for xk in xk_values:
            s, ld = np.linalg.slogdet(tm.instantiate(coeffs, 1.0, complex(xk)))
            worst = max(worst, (ld.real if s != 0 else -np.inf) - med)
        return worst

    rng = np.random.default_rng(99)
    bound = np.log(1e-6)
    worst_seen = -np.inf

    for plan, entry_name in (
        (univariate_linear_plan, "univariate_linear"),
        (univariate_quadratic_plan, "univariate_quadratic"),
    ):
        entry = get(entry_name)
        deg = max(t.exps[0] for t in entry.system.polys[0].terms)
        for _ in range(20):
            coeffs = entry.random_instance(rng)
            asc = [0.0] * (deg + 1)
            for t in entry.system.polys[0].terms:
                asc[t.exps[0]] = coeffs[t.slot]
            roots = np.roots(asc[::-1])
            r = log_ratio(plan, coeffs, list(roots), rng)
            worst_seen = max(worst_seen, r)
            assert r <= bound

    conics = get("two_conics")
    for plan in (two_conics_plan, two_conics_plan_v2):
        k = plan.layout.hidden_var
        for _ in range(20):
            coeffs = conics.random_instance(rng)
            f = numeric_poly(conics.system.polys[0], coeffs)
            g = numeric_poly(conics.system.polys[1], coeffs)
            pts = sylvester_bivariate(f, g, hide=2).points
            r = log_ratio(plan, coeffs, [p[k - 1] for p in pts], rng)
            worst_seen = max(worst_seen, r)
            assert r <= bound

    tq = get("three_quadrics")
    k = three_quadrics_plan.layout.hidden_var
    for _ in range(20):
        coeffs = tq.random_instance(rng)
        roots = [
            newton_polish(tq.system, coeffs, r.point)
            for r in solve_instance(three_quadrics_plan, coeffs).roots
            if r.residual <= 1e-10
        ]
        assert roots
        r = log_ratio(three_quadrics_plan, coeffs, [p[k - 1] for p in roots], rng)
        worst_seen = max(worst_seen, r)
        assert r <= bound
    report(4, f"worst log10 det ratio {worst_seen / np.log(10.0):.1f} (bound -6)")


def test_criterion_5_equivalence_roundtrips(
    univariate_quadratic_plan, two_conics_plan, three_quadrics_plan
):
    """res_to_am and am_to_res agree entrywise to 1e-8 with matching sizes."""
    worst = 0.0
    for plan, r in (
        (univariate_quadratic_plan, 2),
        (two_conics_plan, 4),
        (three_quadrics_plan, 8),
    ):
        amp = res_to_am(plan, r)
        v1 = check_equivalence(amp, plan, trials=100, seed=41)
        assert v1.equivalent and v1.size_match and v1.sign == 1
        rp2 = am_to_res(amp)
        v2 = check_equivalence(amp, rp2, trials=100, seed=42)
        assert v2.equivalent and v2.size_match and v2.sign == 1
        worst = max(worst, v1.max_deviation, v2.max_deviation)
    report(5, f"both directions equivalent on 3 systems, worst deviation {worst:.2e}")


def test_criterion_6_reduction_safety():
    """Reduced plans re-validate from scratch over fresh primes; B1 shrank."""
    checked = 0
    for name in ("univariate_linear", "univariate_quadratic", "two_conics", "three_quadrics"):
        system = get(name).system
        for variants in (("v1",), ("v2",)):
            cfg = SearchConfig(seed=1, variants=variants)
            try:
                plan = generate_plan(system, cfg).plan
            except Exception:
                continue
            lay = plan.layout
            t_sets = lay.multiplier_sets()
            assert sum(len(t) for t in t_sets) >= lay.shape[1]  # row count
            assert min(len(t) for t in t_sets) > 0  # coverage
            for fresh in FRESH:
                assert witness_full_rank(lay.template, fresh)  # full rank
                assert witness_full_rank(lay.template, fresh, lay.n_upper, lay.n_b1)
            # locate the originating candidate: reduction must not grow B1
            cands = [c.laid_out() for c in search_candidates(system, cfg, {}) if c.prefix[4] == lay.hidden_var]
            origin = [
                c
                for c in cands
                if c.subset_mask == plan.subset_mask
                and c.delta == plan.delta
                and c.layout.variant == lay.variant
            ]
            assert origin
            assert verify_partition(origin[0].layout, cfg)
            assert plan.n_solutions <= origin[0].layout.n_b1
            checked += 1
    assert checked >= 6
    report(6, f"{checked} plans re-validated over fresh primes {PRIMES[3:6]}")


def test_criterion_7_stability_harness():
    """Two-conics, 5000 unit-normal instances: fail% <= 1, mean log10 <= -10."""
    t0 = time.monotonic()
    entry = get("two_conics")
    plan = generate_plan(entry.system, SearchConfig(seed=1, variants=("v1",))).plan
    slots = entry.system.slots()

    def gen(rng):
        return {s: float(rng.standard_normal()) for s in slots}

    rep = benchmark(plan, gen, trials=5000, seed=2026)
    elapsed = time.monotonic() - t0
    assert rep.fail_pct <= 1.0
    assert rep.mean_log10 is not None and rep.mean_log10 <= -10.0
    assert elapsed < 120.0
    report(
        7,
        f"5000 trials: fail%={rep.fail_pct:.2f}, mean log10={rep.mean_log10:.2f}, "
        f"median={rep.median_log10:.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    """Same inputs and seed give byte-identical plan and report files."""
    from polyres.cli import main

    sys_path = tmp_path / "conics.sys"
    sys_path.write_text(dump_system(get("two_conics").system))
    plans = []
    reports = []
    for tag in ("a", "b"):
        plan_path = tmp_path / f"{tag}.plan"
        rep_path = tmp_path / f"{tag}.report"
        assert main(["generate", "--system", str(sys_path), "--out", str(plan_path), "--seed", "17"]) == 0
        assert (
            main(["bench", "--plan", str(plan_path), "--trials", "100", "--seed", "17", "--report", str(rep_path)])
            == 0
        )
        plans.append(plan_path.read_bytes())
        reports.append(rep_path.read_bytes())
    assert plans[0] == plans[1]
    assert reports[0] == reports[1]
    report(8, f"plan ({len(plans[0])} bytes) and report ({len(reports[0])} bytes) byte-identical")


def test_criterion_9_eigen_kernel():
    """50 random 20x20 matrices: every pair within 1e-8 * ||A||_F."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((20, 20))
        values, vectors = eig(a, 1e-8, finite_scale(a))
        fro = np.linalg.norm(a)
        for lam, v in zip(values, vectors.T):
            worst = max(worst, float(np.linalg.norm(a @ v - lam * v)) / fro)
    assert worst <= 1e-8
    report(9, f"worst relative residual {worst:.2e} over 1000 eigenpairs")


@pytest.mark.stretch
@pytest.mark.xfail(
    strict=False,
    reason="non-gating stretch: the published 7x16/0.1% figures depend on a "
    "problem formulation the source does not restate; the reconstructed "
    "one-sided lifting yields a working 40x50 solver with ~1% failures",
)
def test_criterion_10_stretch_relpose(rel_pose_outcome):
    """Non-gating: the radial-distortion 8-point relative pose problem.

    The reconstructed formulation (one-sided division-model lifting, null
    space mixing coefficients plus the distortion) generates a working
    alternate-form solver whose offline rank decisions run on exact mod-p
    instances of the structured coefficient manifold.  The published size
    and failure rate are asserted last, so the achieved solver is verified
    and reported even though the reproduction target is missed.
    """
    from polyres.solve import SolveFailure

    entry = get("rel_pose_f_lambda_8pt")
    plan = rel_pose_outcome.plan
    assert plan.layout.variant == "v2"  # the alternate eigenvalue formulation

    rng = np.random.default_rng(5)
    solved = 0
    for _ in range(20):
        coeffs = entry.random_instance(rng)
        try:
            sols = solve_instance(plan, coeffs)
        except SolveFailure:
            continue
        if sum(1 for r in sols.roots if r.residual <= 1e-6) == 8:
            solved += 1
    assert solved >= 18  # the solver genuinely recovers all 8 solutions

    rep = benchmark(plan, entry.random_instance, trials=5000, seed=77)
    upper, eps = plan.layout.n_upper, plan.layout.shape[1]
    print(
        f"\nACCEPTANCE 10 (stretch): achieved {upper}x{eps} "
        f"(eigenproblem {eps - upper}, variant {plan.layout.variant}), "
        f"fail%={rep.fail_pct:.2f}, mean log10={rep.mean_log10:.2f}; "
        f"target 7x16 (eigenproblem 9), fail% <= 0.1"
    )
    assert (upper, eps) == (7, 16)
    assert eps - upper == 9
    assert rep.fail_pct <= 0.1
