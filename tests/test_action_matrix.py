import hashlib
from pathlib import Path

import numpy as np
import pytest
from helpers import pair_max_dev

from polyres import action_matrix
from polyres.action_matrix import (
    EQUIVALENCE_CHUNK,
    EQUIVALENCE_TOL,
    EquivalenceVerdict,
    NoTemplateError,
    SingularTemplateError,
    UnsupportedCaseError,
    am_to_res,
    build_template,
    check_equivalence,
    extract_action_matrix,
    res_to_am,
)
from polyres.linalg import SingularPivotError, float_rref
from polyres.oracle import numeric_poly, sylvester_bivariate
from polyres.plan import plan_from_json
from polyres.poly import unit_mono
from polyres.problems import get
from polyres.solve import fill, schur_matrix, solve_instance

QUAD = {"a": 1.0, "b": -5.0, "c": 6.0}
CONIC = {"a": 1.0, "b": 1.0, "c": -1.0, "d": 1.0, "e": -0.25}


def scratch_template(name):
    entry = get(name)
    return build_template(
        entry.system, entry.am_basis, entry.am_action_var, entry.am_multipliers()
    )


class TestBuildTemplate:
    def test_univariate_hand_layout(self):
        plan = scratch_template("univariate_quadratic")
        assert plan.template.shape == (1, 3)
        assert plan.excess == ()
        assert plan.reducible == ((2,),)
        assert plan.basis == ((0,), (1,))
        a = plan.template.instantiate(QUAD, 1.0, 0.0)
        # columns ordered [reducible | basis] = [x^2, 1, x]
        assert a.tolist() == [[1.0, 6.0, -5.0]]

    def test_three_quadrics_builds(self):
        plan = scratch_template("three_quadrics")
        assert len(plan.basis) == 8
        assert plan.n_reducible > 0
        # left block square: exactly one template row per pivot column
        assert plan.template.shape[0] == plan.n_excess + plan.n_reducible

    def test_action_image_outside_extension(self):
        entry = get("univariate_quadratic")
        with pytest.raises(NoTemplateError, match="outside"):
            build_template(entry.system, ((0,), (2,), (3,)), 1, [{(0,), (1,)}])

    def test_dependent_basis_rejected(self):
        entry = get("univariate_quadratic")
        with pytest.raises(NoTemplateError):
            build_template(entry.system, ((1,),), 1, [{(0,)}])


class TestExtractActionMatrix:
    def test_quadratic(self):
        plan = scratch_template("univariate_quadratic")
        mf = extract_action_matrix(plan, QUAD)
        assert np.allclose(mf, [[0.0, 1.0], [-6.0, 5.0]])
        assert pair_max_dev(np.linalg.eigvals(mf), [2.0, 3.0]) < 1e-12

    def test_x_squared_minus_one(self):
        plan = scratch_template("univariate_quadratic")
        mf = extract_action_matrix(plan, {"a": 1.0, "b": 0.0, "c": -1.0})
        assert np.allclose(mf, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_conics_matches_oracle(self):
        plan = scratch_template("two_conics")
        entry = get("two_conics")
        rng = np.random.default_rng(4)
        for _ in range(10):
            coeffs = entry.random_instance(rng)
            mf = extract_action_matrix(plan, coeffs)
            f = numeric_poly(entry.system.polys[0], coeffs)
            g = numeric_poly(entry.system.polys[1], coeffs)
            pts = sylvester_bivariate(f, g, hide=2).points
            want = [p[entry.am_action_var - 1] for p in pts]
            assert pair_max_dev(np.linalg.eigvals(mf), want) < 1e-8

    def test_singular_elimination_reported(self):
        plan = scratch_template("univariate_quadratic")
        with pytest.raises(SingularTemplateError):
            extract_action_matrix(plan, {"a": 0.0, "b": 0.0, "c": 0.0})

    def test_nan_coefficient_reported(self):
        # a NaN pivot is no pivot: the elimination fails instead of
        # returning a matrix of NaNs
        plan = scratch_template("univariate_quadratic")
        with pytest.raises(SingularTemplateError):
            extract_action_matrix(plan, {"a": np.nan, "b": -5.0, "c": 6.0})


class TestAmToRes:
    def test_univariate_schur_equals_action_matrix(self):
        amp = scratch_template("univariate_quadratic")
        rp = am_to_res(amp)
        x = schur_matrix(rp, fill(rp, QUAD))
        mf = extract_action_matrix(amp, QUAD)
        assert np.allclose(x, mf, atol=1e-12)

    def test_three_quadrics_numeric_agreement(self):
        amp = scratch_template("three_quadrics")
        rp = am_to_res(amp)
        entry = get("three_quadrics")
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            coeffs = entry.random_instance(rng)
            x = schur_matrix(rp, fill(rp, coeffs))
            mf = extract_action_matrix(amp, coeffs)
            worst = max(worst, float(np.max(np.abs(mf - x))))
            assert worst <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_unit_row_structure(self):
        amp = scratch_template("two_conics")
        rp = am_to_res(amp)
        lay = rp.layout
        k = lay.hidden_var
        e_k = unit_mono(2, k - 1)
        filled = fill(rp, CONIC)
        x = schur_matrix(rp, filled)
        mf = extract_action_matrix(amp, CONIC)
        b1 = lay.b1
        for j, m in enumerate(b1):
            fm = tuple(a + b for a, b in zip(m, e_k))
            if fm in b1:
                unit = np.zeros(len(b1))
                unit[b1.index(fm)] = 1.0
                # integer equality, no tolerance: these rows are structural
                lower = filled[lay.n_upper + j]
                assert lower[: len(b1)].tolist() == unit.tolist()
                assert lower[len(b1) :].tolist() == [0.0] * len(lay.b2)
                assert x[j].tolist() == unit.tolist()
                assert mf[j].tolist() == unit.tolist()

    def test_gj_identity(self):
        amp = scratch_template("two_conics")
        rp = am_to_res(amp)
        lay = rp.layout
        m = fill(rp, CONIC)
        a11 = m[: lay.n_upper, : lay.n_b1]
        a12 = m[: lay.n_upper, lay.n_b1 :]
        rref, ok = float_rref(np.hstack([a12, a11]))
        assert ok
        tail = np.linalg.solve(a12, a11)
        assert np.allclose(rref[:, len(lay.b2) :], tail, atol=1e-9)

    def test_reciprocal_rejected(self, two_conics_plan_v2):
        probe = [r.point for r in solve_instance(two_conics_plan_v2, CONIC).roots]
        amp = res_to_am(two_conics_plan_v2, 4, probe_roots=probe)
        with pytest.raises(UnsupportedCaseError):
            am_to_res(amp)


class TestResToAm:
    def test_univariate_linear(self, univariate_linear_plan):
        amp = res_to_am(univariate_linear_plan, 1)
        mf = extract_action_matrix(amp, {"a": 1.0, "b": -2.0})
        assert np.allclose(mf, [[2.0]])

    def test_two_conics_v1(self, two_conics_plan):
        amp = res_to_am(two_conics_plan, 4)
        verdict = check_equivalence(amp, two_conics_plan, trials=100, seed=6)
        assert verdict.equivalent
        assert verdict.sign == 1
        assert verdict.max_deviation <= 1e-8

    def test_n_exceeding_roots_rejected(self, two_conics_plan):
        with pytest.raises(UnsupportedCaseError):
            res_to_am(two_conics_plan, root_count=3)

    def test_zero_coordinate_probe_rejected(self, two_conics_plan_v2):
        k = two_conics_plan_v2.layout.hidden_var
        zero_root = tuple(0.0 if i == k - 1 else 1.0 for i in range(2))
        probe = [zero_root, (1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
        with pytest.raises(UnsupportedCaseError, match="x_"):
            res_to_am(two_conics_plan_v2, 4, probe_roots=probe)

    def test_empty_probe_rejected(self, two_conics_plan_v2):
        # the CLI probe keeps only roots with residual <= 1e-8 and may keep none
        with pytest.raises(UnsupportedCaseError, match="no probe root"):
            res_to_am(two_conics_plan_v2, 4, probe_roots=[])

    def test_reciprocal_eigenvalues_invert_roots(self, two_conics_plan_v2):
        sols = solve_instance(two_conics_plan_v2, CONIC)
        probe = [r.point for r in sols.roots]
        amp = res_to_am(two_conics_plan_v2, 4, probe_roots=probe)
        mf = extract_action_matrix(amp, CONIC)
        k = two_conics_plan_v2.layout.hidden_var
        entry = get("two_conics")
        f = numeric_poly(entry.system.polys[0], CONIC)
        g = numeric_poly(entry.system.polys[1], CONIC)
        pts = sylvester_bivariate(f, g, hide=2).points
        want = [1.0 / p[k - 1] for p in pts]
        assert pair_max_dev(np.linalg.eigvals(mf), want) < 1e-6

    def test_reciprocal_is_negated_schur(self, two_conics_plan_v2):
        sols = solve_instance(two_conics_plan_v2, CONIC)
        probe = [r.point for r in sols.roots]
        amp = res_to_am(two_conics_plan_v2, 4, probe_roots=probe)
        verdict = check_equivalence(amp, two_conics_plan_v2, trials=50, seed=6)
        assert verdict.equivalent
        assert verdict.sign == -1


class TestCheckEquivalence:
    def test_size_mismatch_detected(self, two_conics_plan):
        amp = scratch_template("univariate_quadratic")
        verdict = check_equivalence(amp, two_conics_plan, trials=5, seed=1)
        assert not verdict.equivalent

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_no_verdict(self, two_conics_plan, trials):
        amp = res_to_am(two_conics_plan, 4)
        with pytest.raises(ValueError, match="at least one trial"):
            check_equivalence(amp, two_conics_plan, trials=trials)

    def test_rescaled_polynomial_stays_equivalent(self, two_conics_plan):
        amp = res_to_am(two_conics_plan, 4)
        for coeffs in (CONIC, {**CONIC, "a": 7.0, "b": 7.0, "c": -7.0}):
            x = schur_matrix(two_conics_plan, fill(two_conics_plan, coeffs))
            mf = extract_action_matrix(amp, coeffs)
            assert np.allclose(mf, x, atol=1e-9)
        # scaling one polynomial moves neither matrix: row scaling cancels
        x0 = schur_matrix(two_conics_plan, fill(two_conics_plan, CONIC))
        x7 = schur_matrix(two_conics_plan, fill(two_conics_plan, {**CONIC, "a": 7.0, "b": 7.0, "c": -7.0}))
        assert np.allclose(x0, x7, atol=1e-9)

    def test_eigenvalue_multisets_match(self, two_conics_plan):
        amp = res_to_am(two_conics_plan, 4)
        entry = get("two_conics")
        rng = np.random.default_rng(13)
        for _ in range(10):
            coeffs = entry.random_instance(rng)
            x = schur_matrix(two_conics_plan, fill(two_conics_plan, coeffs))
            mf = extract_action_matrix(amp, coeffs)
            assert pair_max_dev(np.linalg.eigvals(mf), np.linalg.eigvals(x)) < 1e-6




GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def _sequential_check(amplan, resplan, trials, seed, factor=lambda t: 1.0):
    """check_equivalence as it ran one trial at a time, coefficients of
    trial t scaled by ``factor(t)``: the oracle of the stacked check."""
    lay = resplan.layout
    n1 = lay.n_b1
    if amplan.reciprocal:
        expected_shape = (lay.n_upper + n1, lay.shape[1] + n1)
    else:
        expected_shape = (lay.n_upper, lay.shape[1])
    size_match = amplan.template.shape == expected_shape
    sign = -1 if amplan.reciprocal else 1
    strip = (lambda m: m[:-1]) if amplan.reciprocal else (lambda m: m)
    am_basis = [strip(m) for m in amplan.basis]
    perm = [am_basis.index(m) for m in lay.b1]
    slots = resplan.base_system.slots()
    worst = 0.0
    ok = size_match
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        coeffs = {s: float(rng.standard_normal()) * factor(t) for s in slots}
        x = schur_matrix(resplan, fill(resplan, coeffs))
        try:
            mf = extract_action_matrix(amplan, coeffs)
        except SingularTemplateError:
            ok = False
            worst = float("inf")
            break
        mf_aligned = mf[np.ix_(perm, perm)]
        dev = float(np.max(np.abs(mf_aligned - sign * x)))
        worst = max(worst, dev)
        if dev > EQUIVALENCE_TOL * (1.0 + float(np.linalg.norm(x))):
            ok = False
    return EquivalenceVerdict(ok, worst, size_match, trials, sign)


def _same_verdict(got, want):
    return got == want and np.float64(got.max_deviation).tobytes() == np.float64(want.max_deviation).tobytes()


@pytest.fixture(scope="module")
def bridge_pairs():
    """(name, amplan, resplan) of both golden bridge plans, direct and round trip."""
    pairs = []
    for name in ("two_conics", "three_quadrics"):
        plan = plan_from_json((GOLDEN / f"{name}.plan").read_text())
        amp = res_to_am(plan, get(name).root_count)
        pairs += [(f"{name}-direct", amp, plan), (f"{name}-round-trip", amp, am_to_res(amp))]
    return pairs


class TestStackedCheckMatchesSequential:
    @pytest.mark.parametrize("seed", [0, 3462287232, 2359033048])
    def test_golden_pairs(self, bridge_pairs, seed):
        verdicts = []
        for label, amp, other in bridge_pairs:
            got = check_equivalence(amp, other, trials=100, seed=seed)
            want = _sequential_check(amp, other, 100, seed)
            assert _same_verdict(got, want), label
            verdicts.append(got.equivalent)
        # seed 0 passes everywhere; the other two are the known false verdicts
        assert all(verdicts) == (seed == 0)

    def test_more_trials_than_one_stack(self, bridge_pairs):
        trials = EQUIVALENCE_CHUNK + 5
        for label, amp, other in bridge_pairs:
            got = check_equivalence(amp, other, trials=trials, seed=3462287232)
            assert _same_verdict(got, _sequential_check(amp, other, trials, 3462287232)), label

    def test_reciprocal_pair(self, two_conics_plan_v2):
        probe = [r.point for r in solve_instance(two_conics_plan_v2, CONIC).roots]
        amp = res_to_am(two_conics_plan_v2, 4, probe_roots=probe)
        for seed in (0, 3462287232, 2359033048):
            got = check_equivalence(amp, two_conics_plan_v2, trials=100, seed=seed)
            assert _same_verdict(got, _sequential_check(amp, two_conics_plan_v2, 100, seed))
            assert got.sign == -1

    # a trial scaled by 1e-20 has no template pivot above the elimination's
    # absolute tolerance, while its equilibrated Schur step is fine; a trial
    # scaled by 0 fails both, the Schur step first
    @pytest.mark.parametrize(
        "tiny,zero,trials,outcome",
        [
            (3, 7, 20, "verdict"),
            (7, 3, 20, "raise"),
            (5, 5, 20, "raise"),
            (EQUIVALENCE_CHUNK + 1, EQUIVALENCE_CHUNK + 4, EQUIVALENCE_CHUNK + 8, "verdict"),
            (EQUIVALENCE_CHUNK + 4, EQUIVALENCE_CHUNK + 1, EQUIVALENCE_CHUNK + 8, "raise"),
            (EQUIVALENCE_CHUNK - 1, EQUIVALENCE_CHUNK + 1, EQUIVALENCE_CHUNK + 8, "verdict"),
        ],
    )
    def test_failure_order(self, bridge_pairs, monkeypatch, tiny, zero, trials, outcome):
        def factor(t):
            return 0.0 if t == zero else 1e-20 if t == tiny else 1.0

        draw = action_matrix.trial_coefficients

        def scaled_draw(slots, seed, ts):
            scale = np.array([factor(t) for t in ts])
            return {s: v * scale for s, v in draw(slots, seed, ts).items()}

        monkeypatch.setattr(action_matrix, "trial_coefficients", scaled_draw)
        for label, amp, other in bridge_pairs:
            if outcome == "verdict":
                got = check_equivalence(amp, other, trials=trials, seed=0)
                want = _sequential_check(amp, other, trials, 0, factor)
                assert _same_verdict(got, want) and got.max_deviation == float("inf"), label
                continue
            with pytest.raises(SingularPivotError) as stacked:
                check_equivalence(amp, other, trials=trials, seed=0)
            with pytest.raises(SingularPivotError) as alone:
                _sequential_check(amp, other, trials, 0, factor)
            assert stacked.value.rcond == alone.value.rcond == 0.0, label
            assert stacked.value.member == zero, label

    def test_pivot_gate_before_any_template_failure(self, bridge_pairs, monkeypatch):
        # every pivot block fails the gate: trial 0 raises, though trial 2's
        # template fails inside the same stack
        monkeypatch.setattr("polyres.linalg.RCOND_MIN", 2.0)
        draw = action_matrix.trial_coefficients

        def tiny_second(slots, seed, ts):
            scale = np.array([1e-20 if t == 2 else 1.0 for t in ts])
            return {s: v * scale for s, v in draw(slots, seed, ts).items()}

        monkeypatch.setattr(action_matrix, "trial_coefficients", tiny_second)
        for label, amp, other in bridge_pairs:
            with pytest.raises(SingularPivotError) as stacked:
                check_equivalence(amp, other, trials=10, seed=0)
            with pytest.raises(SingularPivotError) as alone:
                _sequential_check(amp, other, 10, 0, lambda t: 1e-20 if t == 2 else 1.0)
            assert stacked.value.member == 0 and stacked.value.rcond == alone.value.rcond, label


class TestStackedExtraction:
    def test_members_match_single_extractions(self, bridge_pairs):
        for label, amp, _ in bridge_pairs[::2]:
            slots = amp.template.system.slots()
            coeffs = action_matrix.trial_coefficients(slots, 5, range(12))
            stack = extract_action_matrix(amp, coeffs)
            for k in range(12):
                alone = extract_action_matrix(amp, {s: float(v[k]) for s, v in coeffs.items()})
                assert stack[k].tobytes() == alone.tobytes(), label

    def test_first_failing_member_named(self):
        plan = scratch_template("univariate_quadratic")
        coeffs = {"a": np.array([1.0, 0.0, 0.0]), "b": np.array([-5.0, 0.0, 1.0]), "c": np.array([6.0, 0.0, 1.0])}
        with pytest.raises(SingularTemplateError, match="stack member 1") as e:
            extract_action_matrix(plan, coeffs)
        assert e.value.member == 1
        with pytest.raises(SingularTemplateError) as alone:
            extract_action_matrix(plan, {"a": 0.0, "b": 0.0, "c": 0.0})
        assert alone.value.member is None


def test_bridge_verdicts_pinned(bridge_pairs):
    """The verdicts of both golden bridge plans, direct and round trip, at
    four seeds, bit for bit: ``max_deviation`` enters as its float hex."""
    digest = hashlib.sha256()
    for label, amp, other in bridge_pairs:
        for seed in (0, 1, 3462287232, 2359033048):
            v = check_equivalence(amp, other, trials=100, seed=seed)
            line = f"{label} {seed} {v.equivalent} {v.size_match} {v.sign} {v.max_deviation.hex()}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == "db3b2af3da8d8fafe1d3ffb3f62bee5e18c5aef83ea95f28d63b829380ed22a8"
