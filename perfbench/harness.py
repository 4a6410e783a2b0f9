"""Workload process of the polyres benchmark.

Started by ``run.py`` with PYTHONHASHSEED and the BLAS/OpenMP thread
counts pinned.  It calls only the public API of polyres, draws its inputs
from ``--seed`` before any timed region, runs one client in a closed loop
(the next call starts when the previous one returns), checks every output,
and prints two JSON lines: the full report (environment, the named
metrics, failure causes) and, last, the result object.  The exit code is
0 only when every output checked out.

The four workloads stress different layers:

* ``offline``: ``generate_plan`` for two_conics, three_quadrics and the
  rel_pose stretch problem.  The only workload that runs ``lattice``, the
  prime-field rank and ``generate``; the 3-D and 4-D problems load those
  layers differently.  Each plan must equal its golden byte for byte.
* ``online-tq``: three_quadrics solves on the golden v1 plan: the plain
  partition, no failures, 8 roots every time.
* ``online-relpose``: rel_pose solves on the golden v2 plan: the other
  partition, an ill-conditioned pivot block, real failures and parasitic
  roots, so accuracy losses show here first.
* ``bridge``: ``res_to_am``, ``am_to_res`` and ``check_equivalence`` on the
  golden two_conics and three_quadrics plans plus ``build_template`` from
  every library basis: the only workload that runs ``action_matrix``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polyres  # noqa: E402
from polyres import action_matrix, generate, problems, solve  # noqa: E402
from polyres.generate import SearchConfig  # noqa: E402
from polyres.linalg import PRIMES, EigenConvergenceError, SingularPivotError  # noqa: E402
from polyres.plan import RankCheckConfig, plan_from_json, plan_to_json  # noqa: E402

from tracer import Tracer  # noqa: E402

WORKLOADS = ("offline", "online-tq", "online-relpose", "bridge")
ONLINE_PROBLEM = {"online-tq": "three_quadrics", "online-relpose": "rel_pose_f_lambda_8pt"}
BRIDGE_PROBLEMS = ("two_conics", "three_quadrics")
OFFLINE_PROBLEMS = ("two_conics", "three_quadrics", "rel_pose_f_lambda_8pt")

# Work per run.  ``pool`` distinct instances are scored once each, so the
# accuracy metrics do not depend on how fast the loop is; the timed loop
# cycles through them until --seconds have passed.  2000 instances keep the
# across-seed spread of the online success rates near 0.3 %.  Bridge checks
# use ``trials`` = 100, the default of ``check_equivalence`` and of
# ``polyres check``; 24 rounds take about 10 s.  ``smoke`` is the smallest
# size, for the benchmark's own tests.
SIZES = {
    "full": {"offline": OFFLINE_PROBLEMS, "validate": 100, "pool": 2000, "rounds": 24, "trials": 100},
    "smoke": {"offline": ("two_conics",), "validate": 4, "pool": 24, "rounds": 2, "trials": 2},
}

# the trial seed of ``polyres check`` when none is given
CHECK_SEED = 0

# solve.benchmark's rule, fixed here so that the program cannot loosen it
FAILURE_RESIDUAL = 1e-3
_LOG_FLOOR = 1e-300  # the floor solve.benchmark applies before log10
# A reported residual must match the benchmark's own evaluation this
# closely; both lie in [0, 1] and differ only by rounding (about 1e-16).
RESIDUAL_AGREEMENT = 1e-12
FAIL_CAUSES = ("singular_pivot", "eig_convergence", "unrecoverable", "other_failure", "no_roots", "residual")

# Set-up as a user meets it: import polyres, then parse the plans used.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import polyres, polyres.action_matrix
from polyres.plan import plan_from_json
for path in sys.argv[1:]:
    with open(path) as fh:
        plan_from_json(fh.read())
print(time.perf_counter() - t0)
"""
SETUP_PROBES = 16
PROBE_EVERY_S = 1.25

PER_LAYER_STAGES = ("search", "verify", "rowcol", "squarify")
REASONS = (
    "empty_lattice", "coverage", "row_count", "column_rank", "a12_rank",
    "partition", "unrecoverable_b1", "squarify_exhausted", "empty_search_space",
)


def offline_config(name: str) -> SearchConfig:
    """The search configuration each golden plan was generated with."""
    if name == "rel_pose_f_lambda_8pt":
        rank = RankCheckConfig(
            primes=PRIMES[:3], assignments=2, seed=0, values_fn=problems.rel_pose_field_instance
        )
        return SearchConfig(
            seed=1,
            delta_magnitudes=(Fraction(1, 10),),
            variants=("v2", "v1"),
            max_subset_size=2,
            rank=rank,
        )
    return SearchConfig(seed=1, variants=("v1",))


def generate_fresh(name: str):
    """One ``generate_plan`` as a fresh ``polyres generate`` would meet it:
    the field-instance cache that rank checks fill is emptied first."""
    problems._FIELD_CACHE.clear()
    return generate.generate_plan(problems.get(name).system, offline_config(name))


def golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.plan").read_text()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in OFFLINE_PROBLEMS:
        (GOLDEN / f"{name}.plan").write_text(plan_to_json(generate_fresh(name).plan))


def draw_instances(name: str, seed: int, count: int) -> list[dict]:
    """Instances exactly as ``solve.benchmark`` draws them for this seed."""
    entry = problems.get(name)
    return [
        entry.random_instance(np.random.default_rng(np.random.SeedSequence([seed, i])))
        for i in range(count)
    ]


def residuals(system, coeffs: dict, points) -> np.ndarray:
    """Normalized residual max_i |f_i(p)| / (sum_a |c_ia p^a| + 1) of each
    point, evaluated from the coefficient dict without polyres code."""
    pts = np.asarray(points, dtype=np.complex128).reshape(len(points), system.n_vars)
    worst = np.zeros(len(pts))
    for f in system.polys:
        num = np.zeros(len(pts), dtype=np.complex128)
        den = np.ones(len(pts))
        for term in f.terms:
            coef = term.const if term.slot is None else term.const * coeffs[term.slot]
            contrib = coef * np.prod(pts ** np.asarray(term.exps), axis=1)
            num += contrib
            den += np.abs(contrib)
        worst = np.maximum(worst, np.abs(num) / den)
    return worst


def solve_or_failure(plan, coeffs):
    """The roots, or the numeric failure the program declared."""
    try:
        return solve.solve_instance(plan, coeffs)
    except solve.SolveFailure as e:
        return e


def score_solve(outcome, coeffs: dict, system, root_count: int) -> dict:
    """Classify one solve by ``solve.benchmark``'s rule, with the benchmark's
    own residuals.  ``bad`` marks outputs the program got wrong without
    declaring a failure: a residual it misreports, or a malformed root."""
    if isinstance(outcome, solve.SolveFailure):
        if isinstance(outcome, solve.UnrecoverableVariableError):
            cause = "unrecoverable"
        elif isinstance(outcome.__cause__, SingularPivotError):
            cause = "singular_pivot"
        elif isinstance(outcome.__cause__, EigenConvergenceError):
            cause = "eig_convergence"
        else:
            cause = "other_failure"
        return {"cause": cause, "n_roots": 0, "logs": [], "exact": False, "bad": False}
    roots = outcome.roots
    if not roots:
        return {"cause": "no_roots", "n_roots": 0, "logs": [], "exact": False, "bad": False}
    points = [r.point for r in roots]
    bad = any(len(p) != system.n_vars for p in points)
    ours = residuals(system, coeffs, points) if not bad else np.full(len(roots), np.inf)
    reported = np.array([r.residual for r in roots])
    bad = bad or not np.all(np.abs(ours - reported) <= RESIDUAL_AGREEMENT)
    cause = "residual" if np.any(ours > FAILURE_RESIDUAL) else None
    return {
        "cause": cause,
        "n_roots": len(roots),
        # reported values once they agree with ours, so mean_log10 is the
        # number ``polyres bench`` prints for the same instances
        "logs": [float(np.log10(max(r, _LOG_FLOOR))) for r in reported],
        "exact": cause is None and len(roots) == root_count,
        "bad": bool(bad),
    }


def summarize_solves(scores: list[dict], root_count: int) -> dict:
    """Deterministic accuracy figures over one pass of scored solves."""
    n = len(scores)
    causes = {c: sum(1 for s in scores if s["cause"] == c) for c in FAIL_CAUSES}
    logs = [v for s in scores for v in s["logs"]]
    hist: dict[str, int] = {}
    for s in scores:
        hist[str(s["n_roots"])] = hist.get(str(s["n_roots"]), 0) + 1
    failures = sum(causes.values())
    return {
        "attempts": n,
        "fail_pct": 100.0 * failures / n,
        "roots_ok_pct": 100.0 * sum(1 for s in scores if s["exact"]) / n,
        "mean_log10": float(np.mean(logs)) if logs else None,
        "causes": causes,
        "cause_pct": {c: 100.0 * k / n for c, k in causes.items()},
        "over_count": sum(1 for s in scores if s["n_roots"] > root_count),
        "under_count": sum(1 for s in scores if 0 < s["n_roots"] < root_count),
        "histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        "bad": sum(1 for s in scores if s["bad"]),
    }


class SetupProbe:
    """Times set-up in fresh interpreters, at intervals between operations,
    so that the median spans the speed states the machine passes through.
    The first interpreter is not timed: it leaves the bytecode cache as an
    installed copy has it."""

    def __init__(self, plan_names):
        plans = [str(GOLDEN / f"{name}.plan") for name in plan_names]
        self.cmd = [sys.executable, "-c", SETUP_PROBE, *plans]
        self.times: list[float] = []
        self.last = perf_counter()
        self._run()

    def _run(self) -> float:
        out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        self.last = perf_counter()
        return float(out.stdout.strip().splitlines()[-1])

    def between_ops(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.times.append(self._run())

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self._run())
        return statistics.median(self.times)


def closed_loop(tasks: list, op, seconds: float, between_ops=None):
    """One client: run ``op`` over ``tasks`` in order, cycling, until every
    task ran once and ``seconds`` have passed (one pass if ``seconds`` is 0).
    Returns the first-pass results and every latency."""
    n = len(tasks)
    results = [None] * n
    latencies = []
    start = perf_counter()
    i = 0
    while i < n or perf_counter() - start < seconds:
        t0 = perf_counter()
        out = op(tasks[i % n])
        latencies.append(perf_counter() - t0)
        if i < n:
            results[i] = out
        i += 1
        if between_ops is not None:
            between_ops()
    return results, latencies


def paired_pass(tasks: list, op, tracer: Tracer, seed: int):
    """Run every task once untraced and once traced, back to back, so both
    see the same machine state; returns both result lists and the total
    seconds of each side.  The order alternates by task and by seed, so a
    one-task pool (offline) puts each side first in half of the seeds."""
    plain, traced = [None] * len(tasks), [None] * len(tasks)
    seconds = {False: 0.0, True: 0.0}
    for i, task in enumerate(tasks):
        for with_trace in ((False, True) if (i + seed) % 2 == 0 else (True, False)):
            span = tracer.op if with_trace else nullcontext
            if with_trace:
                tracer.install()
            try:
                t0 = perf_counter()
                with span():
                    out = op(task)
                seconds[with_trace] += perf_counter() - t0
            finally:
                tracer.uninstall()
            (traced if with_trace else plain)[i] = out
    return plain, traced, seconds[False], seconds[True]


# --- workloads ---------------------------------------------------------------
#
# Each returns (tasks, op, score) where ``score(results)`` turns first-pass
# results into {"ok_pct", "exact_pct", "digits", "bad", "named", "counts"}.


def offline_workload(seed: int, size: dict):
    names = size["offline"]

    def op(_task):
        out = {}
        for name in names:
            t0 = perf_counter()
            outcome = generate_fresh(name)
            out[name] = (perf_counter() - t0, outcome)
        return out

    def score(results):
        ok = exact = 0
        logs = []
        reasons = {r: 0 for r in REASONS}
        per_problem = {}
        for run in results:
            for name, (dt, outcome) in run.items():
                ok += 1  # generate_plan raised nothing
                exact += plan_to_json(outcome.plan) == golden_text(name)
                per_problem[name] = dt
                for r, k in outcome.reasons.items():
                    reasons[r] = reasons.get(r, 0) + k
        # the generated plans must also solve: a few seeded instances each
        for name in names:
            plan = results[0][name][1].plan
            entry = problems.get(name)
            for coeffs in draw_instances(name, seed, size["validate"]):
                outcome = solve_or_failure(plan, coeffs)
                logs.extend(score_solve(outcome, coeffs, plan.base_system, entry.root_count)["logs"])
        total = len(results) * len(names)
        return {
            "ok_pct": 100.0 * ok / total,
            "exact_pct": 100.0 * exact / total,
            "digits": -float(np.mean(logs)),
            "bad": total - exact,
            "named": {
                "generate_s_by_problem": per_problem,
                "plans_match_golden": exact == total,
                "validate_mean_log10": float(np.mean(logs)),
            },
            "counts": {"reasons": reasons, "generate_s": per_problem},
        }

    return [None], op, score


def online_workload(workload: str, seed: int, size: dict, plans: dict):
    name = ONLINE_PROBLEM[workload]
    plan = plans[name]
    entry = problems.get(name)
    base = plan.base_system
    tasks = draw_instances(name, seed, size["pool"])

    def op(coeffs):
        return solve_or_failure(plan, coeffs)

    def score(results):
        scores = [score_solve(out, c, base, entry.root_count) for out, c in zip(results, tasks)]
        summ = summarize_solves(scores, entry.root_count)
        return {
            "ok_pct": 100.0 - summ["fail_pct"],
            "exact_pct": summ["roots_ok_pct"],
            "digits": -summ["mean_log10"],
            "bad": summ["bad"],
            "named": summ,
            "counts": {"causes": summ["causes"], "over_count": summ["over_count"],
                       "under_count": summ["under_count"]},
        }

    return tasks, op, score


def bridge_workload(size: dict, plans: dict):
    """One operation is one ``check_equivalence`` as ``polyres check`` runs
    it by default (``--trials 100 --seed 0``), after ``res_to_am`` (and
    ``am_to_res`` for the round trip), or one ``build_template`` of every
    library basis.  A round is one direct and one round-trip check per
    golden plan, then the templates.  The inputs are the golden plans and
    the CLI's trial seed, not the workload seed: other trial seeds meet a
    known false NOT-equivalent verdict (see README.md)."""
    trials = size["trials"]
    bases = [e for e in problems.LIBRARY.values() if e.am_basis is not None]
    tasks = []
    for _ in range(size["rounds"]):
        for name in BRIDGE_PROBLEMS:
            tasks += [(name, False, CHECK_SEED), (name, True, CHECK_SEED)]
        tasks.append(None)

    def op(task):
        if task is None:
            return [
                tuple(action_matrix.build_template(e.system, e.am_basis, e.am_action_var,
                                                   e.am_multipliers()).basis) == tuple(e.am_basis)
                for e in bases
            ]
        name, round_trip, check_seed = task
        plan = plans[name]
        amp = action_matrix.res_to_am(plan, problems.get(name).root_count)
        other = action_matrix.am_to_res(amp) if round_trip else plan
        return action_matrix.check_equivalence(amp, other, trials=trials, seed=check_seed)

    def score(results):
        # Every pair checked is equivalent by construction, so a verdict
        # that says otherwise, on deviation alone or on size or sign, is a
        # wrong output, as is a template off its requested basis.
        verdicts = [r for r in results if not isinstance(r, list)]
        right = sum(all(r) for r in results if isinstance(r, list)) + sum(
            v.equivalent and v.size_match and v.sign == 1 and v.trials > 0 for v in verdicts
        )
        devs = [v.max_deviation for v in verdicts if np.isfinite(v.max_deviation)]
        # a deviation below the unit roundoff is rounding, and exact zeros
        # (common on two_conics) would otherwise swamp the mean
        logs = np.log10(np.maximum(devs, np.finfo(np.float64).eps))
        return {
            "ok_pct": 100.0 * sum(v.equivalent for v in verdicts) / len(verdicts),
            "exact_pct": 100.0 * right / len(results),
            "digits": -float(np.mean(logs)),
            "bad": len(results) - right,
            "named": {
                "equiv_dev_log10": float(np.max(logs)),
                "equiv_mean_log10": float(np.mean(logs)),
                "equiv_checks": len(verdicts),
                "equiv_trials": len(verdicts) * trials,
            },
            "counts": {},
        }

    return tasks, op, score


def plans_for(workload: str, size: dict) -> tuple[str, ...]:
    if workload == "offline":
        return size["offline"]
    if workload == "bridge":
        return BRIDGE_PROBLEMS
    return (ONLINE_PROBLEM[workload],)


def make_workload(workload: str, seed: int, size: dict, plans: dict):
    if workload == "offline":
        return offline_workload(seed, size)
    if workload == "bridge":
        return bridge_workload(size, plans)
    return online_workload(workload, seed, size, plans)


# --- reporting ---------------------------------------------------------------


def environment(seed: int) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "polyres": polyres.__version__,
        "blas": None if blas is None else {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": {k: os.environ.get(k) for k in pins},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(latencies: list[float], scored: dict, setup_s: float) -> dict:
    # The one bounded timing is p95.  The machine these bounds were set on
    # switches between speed states for seconds at a time; the median and
    # the throughput of a 20 s run move with the share of time spent in
    # each, p99 with short stalls, and p95 far less.  All are in the report.
    return {
        "latency_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "ok_pct": scored["ok_pct"],
        "exact_pct": scored["exact_pct"],
        "accuracy_digits": scored["digits"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def named_timing(workload: str, latencies: list[float], tasks: list, size: dict) -> dict:
    """Timing under the names the workloads are discussed in."""
    ms = np.asarray(latencies) * 1e3
    busy = float(np.sum(latencies))
    out = {
        "latency_p50_ms": float(np.percentile(ms, 50)),
        "latency_p99_ms": float(np.percentile(ms, 99)),
        "throughput_per_s": len(latencies) / busy,
        "operations": len(latencies),
    }
    if workload in ONLINE_PROBLEM:
        out |= {
            "solve_p50_us": out["latency_p50_ms"] * 1e3,
            "solve_p99_us": out["latency_p99_ms"] * 1e3,
            "solve_per_s": out["throughput_per_s"],
        }
    elif workload == "bridge":
        checks = sum(tasks[i % len(tasks)] is not None for i in range(len(latencies)))
        out["equiv_per_s"] = checks * size["trials"] / busy
    else:
        out["generate_s"] = statistics.median(latencies)
    return out


def per_layer(summary: dict, scored: dict, load_s: float, overhead_pct: float) -> dict:
    lay = summary["layers"]
    out: dict[str, float] = {}

    def put(name: str, stats: tuple[str, ...]):
        for stat in stats:
            out[f"{name}.{stat}"] = lay[name][stat]

    put("lattice.lattice_points", ("calls", "self_s"))
    put("lattice.minkowski_sum", ("self_s",))
    put("lattice.convex_hull", ("self_s",))
    put("linalg.exact_rank", ("calls", "self_s"))
    put("plan.has_full_column_rank", ("calls", "self_s"))
    rank = lay["plan.has_full_column_rank"]
    out["plan.has_full_column_rank.pass_ratio"] = rank["passed"] / rank["calls"] if rank["calls"] else 0.0
    for stage in PER_LAYER_STAGES:
        out[f"plan.has_full_column_rank.calls_{stage}"] = summary["stage_calls"][stage]
    put("plan.build_layout", ("calls", "self_s"))
    put("poly.extend_system", ("calls", "self_s"))
    for name in ("generate_plan", "search_candidates", "verify_partition", "reduce_rowcol", "squarify"):
        put(f"generate.{name}", ("self_s",))
    reasons = scored["counts"].get("reasons", {})
    for r in REASONS:
        out[f"generate.reasons.{r}"] = reasons.get(r, 0)
    gen_by_problem = scored["counts"].get("generate_s", {})
    for name in OFFLINE_PROBLEMS:
        out[f"generate_s.{name}"] = gen_by_problem.get(name, 0.0)
    out["plan.plan_from_json.s"] = load_s
    put("linalg.eig", ("calls", "self_s"))
    put("solve.schur_matrix", ("self_s",))
    put("solve.recover", ("calls", "self_s"))
    put("poly.normalized_residual", ("calls", "self_s"))
    put("solve.fill", ("self_s",))
    put("solve.solve", ("self_s",))
    causes = scored["counts"].get("causes", {})
    for c in FAIL_CAUSES:
        out[f"solve.fail.{c}"] = causes.get(c, 0)
    out["solve.roots.over_count"] = scored["counts"].get("over_count", 0)
    out["solve.roots.under_count"] = scored["counts"].get("under_count", 0)
    for name in ("build_template", "res_to_am", "am_to_res", "extract_action_matrix", "check_equivalence"):
        put(f"action_matrix.{name}", ("self_s",))
    put("action_matrix._row_basis_modp", ("calls", "self_s"))
    put("linalg.float_rref", ("calls", "self_s"))
    out["trace.overhead_pct"] = overhead_pct
    out["trace.covered_pct"] = summary["covered_pct"]
    out["trace.spans"] = summary["spans"]
    return out


def deterministic(scored: dict) -> dict:
    """The figures a traced and an untraced pass must agree on exactly."""
    named = {k: v for k, v in scored["named"].items() if not k.startswith("generate_s")}
    return {k: scored[k] for k in ("ok_pct", "exact_pct", "digits", "bad")} | {"named": named}


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> int:
    size = SIZES[size_name]
    t0 = perf_counter()
    plans = {name: plan_from_json(golden_text(name)) for name in plans_for(workload, size)}
    load_s = perf_counter() - t0
    tasks, op, score = make_workload(workload, seed, size, plans)
    report = {"workload": workload, "seed": seed, "size": size_name, "trace": int(trace),
              "env": environment(seed)}
    attempted = len(tasks) * (len(size["offline"]) if workload == "offline" else 1)

    if not trace:
        probe = SetupProbe(list(plans))
        results, latencies = closed_loop(tasks, op, seconds, probe.between_ops)
        scored = score(results)
        metrics = end_to_end(latencies, scored, probe.median())
        report["named"] = scored["named"] | named_timing(workload, latencies, tasks, size)
        report["named"] |= {k: metrics[k] for k in ("peak_rss_mb", "setup_s")}
        report["pool"] = len(tasks)
        correct = scored["bad"] == 0
    else:
        # the difference between the two passes is the tracing overhead,
        # and both must score alike
        tracer = Tracer()
        plain, results, plain_wall, wall = paired_pass(tasks, op, tracer, seed)
        scored = score(results)
        plain_scored = score(plain)
        summary = tracer.summary()
        overhead = 100.0 * (wall - plain_wall) / plain_wall
        scored["counts"]["generate_s"] = plain_scored["counts"].get("generate_s", {})
        metrics = per_layer(summary, scored, load_s, overhead)
        same = deterministic(scored) == deterministic(plain_scored)
        correct = scored["bad"] == 0 and plain_scored["bad"] == 0 and same
        report["named"] = scored["named"]
        report["trace"] = {"untraced_s": plain_wall, "traced_s": wall, "absent": summary["absent"],
                           "spans": summary["spans"], "matches_untraced": same}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-s{seed}.json")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    report["correct"] = correct
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(scored["bad"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order inside generate changes the work done
        print("harness: PYTHONHASHSEED must be 0; start it through run.py", file=sys.stderr)
        return 2
    if Path(polyres.__file__).resolve().parent != (ROOT / "src" / "polyres").resolve():
        print(f"harness: polyres imported from {polyres.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
