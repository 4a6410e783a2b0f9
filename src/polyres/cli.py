"""Command-line front end: generate plans, solve instances, benchmark,
and check action-matrix/hidden-variable equivalence.

Exit codes: 0 success, 2 usage or malformed input, 3 no solver found,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import problems
from .action_matrix import (
    UnsupportedCaseError,
    am_to_res,
    check_equivalence,
    res_to_am,
)
from .generate import NoSolverError, SearchConfig, generate_plan
from .oracle import numeric_poly, sylvester_bivariate, univariate_roots
from .plan import MissingSlotError, PlanFormatError, plan_from_json, plan_to_json
from .poly import MonomialOrder, SystemFormatError, dump_system, parse_instance, parse_system
from .solve import SolveFailure, benchmark, solve_instance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLVER = 3
EXIT_NUMERIC = 4


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        print(f"error: file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return p.read_text(encoding="utf-8")


def _load_system(path: str):
    try:
        return parse_system(_read(path))
    except SystemFormatError as e:
        print(f"error: bad system file {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_plan(path: str):
    try:
        return plan_from_json(_read(path))
    except PlanFormatError as e:
        print(f"error: bad plan file {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _search_config(args) -> SearchConfig:
    mags = tuple(Fraction(part) for part in args.delta.split(",")) if args.delta else (
        Fraction(1, 10),
        Fraction(1, 1000),
    )
    variants = ("v1", "v2") if args.variant == "both" else (args.variant,)
    return SearchConfig(
        delta_magnitudes=mags,
        max_subset_size=args.max_subset,
        order=MonomialOrder(args.order),
        variants=variants,
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    system = _load_system(args.system)
    cfg = _search_config(args)
    try:
        outcome = generate_plan(system, cfg)
    except NoSolverError as e:
        print(f"no solver: {e}", file=sys.stderr)
        return EXIT_NO_SOLVER
    plan = outcome.plan
    Path(args.out).write_text(plan_to_json(plan), encoding="utf-8")
    upper = plan.layout.n_upper
    print(f"hidden variable: x_{plan.layout.hidden_var}")
    print(f"variant: {plan.layout.variant}")
    print(f"solver size: {plan.size_label} (matrix inverse {upper}x{upper}, eigenproblem {plan.n_solutions})")
    print(f"candidates examined: {outcome.candidates_seen}")
    print(f"plan written to {args.out}")
    return EXIT_OK


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def cmd_solve(args) -> int:
    plan = _load_plan(args.plan)
    try:
        coeffs = parse_instance(_read(args.instance))
    except SystemFormatError as e:
        print(f"error: bad instance file {args.instance}: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sols = solve_instance(plan, coeffs, tol=args.tol)
    except MissingSlotError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SolveFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    names = plan.base_system.var_names
    lines = []
    for i, root in enumerate(sols.roots):
        coords = ", ".join(f"{n}={_fmt_complex(c)}" for n, c in zip(names, root.point))
        lines.append(f"root {i}: {coords}  residual={root.residual:.3e}  real={root.is_real}")
    out_text = "\n".join(lines) + "\n"
    sys.stdout.write(out_text)
    if args.out:
        Path(args.out).write_text(out_text, encoding="utf-8")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    plan = _load_plan(args.plan)
    slots = plan.base_system.slots()

    def gen(rng):
        return {s: float(rng.standard_normal()) for s in slots}

    report = benchmark(
        plan, gen, trials=args.trials, seed=args.seed, record_timing=args.timing
    )
    Path(args.report).write_text(report.to_json(), encoding="utf-8")
    print(
        f"trials={report.trials} fail%={report.fail_pct:.3f} "
        f"mean_log10={report.mean_log10} median_log10={report.median_log10}"
    )
    print(f"report written to {args.report}")
    return EXIT_OK


def _generic_points(system, plan, seed: int, salt: int) -> list:
    """Points of one generic instance drawn from (seed, salt): the Sylvester
    resultant's for 2 polynomials in 2 variables, otherwise the plan's
    solutions with residual <= 1e-8."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    coeffs = {s: float(rng.standard_normal()) for s in system.slots()}
    if system.n_vars == 2 and len(system.polys) == 2:
        f = numeric_poly(system.polys[0], coeffs)
        g = numeric_poly(system.polys[1], coeffs)
        return list(sylvester_bivariate(f, g, hide=2).points)
    return [r.point for r in solve_instance(plan, coeffs).roots if r.residual <= 1e-8]


def _root_count_for(system, plan, args) -> int:
    if args.roots is not None:
        return args.roots
    if system.n_vars == 1:
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 991]))
        coeffs = {s: float(rng.standard_normal()) for s in system.slots()}
        deg = max(t.exps[0] for t in system.polys[0].terms)
        return len(univariate_roots([coeffs.get(_slot_at(system, e), 0.0) for e in range(deg + 1)]))
    return len(_generic_points(system, plan, args.seed, 991))


def _slot_at(system, degree: int):
    for t in system.polys[0].terms:
        if t.exps[0] == degree:
            return t.slot
    return None


def cmd_compare(args) -> int:
    system = _load_system(args.system)
    variant = "v2" if args.direction == "resalt2am" else "v1"
    cfg = SearchConfig(seed=args.seed, variants=(variant,))
    try:
        plan = generate_plan(system, cfg).plan
    except NoSolverError as e:
        print(f"no solver: {e}", file=sys.stderr)
        return EXIT_NO_SOLVER
    try:
        r = _root_count_for(system, plan, args)
    except SolveFailure as e:
        print(f"numeric failure while probing the root count: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        if args.direction == "am2res":
            amplan = res_to_am(plan, r)
            resplan = am_to_res(amplan)
        elif args.direction == "res2am":
            amplan, resplan = res_to_am(plan, r), plan
        else:
            probe = _generic_points(system, plan, args.seed, 917)
            amplan, resplan = res_to_am(plan, r, probe_roots=probe), plan
    except (UnsupportedCaseError, SolveFailure) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_NO_SOLVER
    verdict = check_equivalence(amplan, resplan, trials=args.trials, seed=args.seed)
    print(f"direction {args.direction}: {verdict}")
    return EXIT_OK if verdict.equivalent else EXIT_NUMERIC


def cmd_problems(args) -> int:
    if args.action == "list":
        for name in sorted(problems.LIBRARY):
            e = problems.LIBRARY[name]
            r = "?" if e.root_count is None else str(e.root_count)
            print(f"{name}: {e.description} (roots: {r})")
        return EXIT_OK
    try:
        entry = problems.get(args.name)
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_path = out_dir / f"{entry.name}.sys"
    sys_path.write_text(dump_system(entry.system), encoding="utf-8")
    print(f"wrote {sys_path}")
    if entry.canonical_instance is not None:
        inst_path = out_dir / f"{entry.name}.inst"
        inst_path.write_text(
            json.dumps(entry.canonical_instance, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {inst_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyres", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a solver plan for a system file")
    g.add_argument("--system", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--delta", default=None, help="comma-separated displacement magnitudes")
    g.add_argument("--max-subset", type=int, default=None)
    g.add_argument("--order", default="grevlex", choices=["grevlex", "grlex", "lex"])
    g.add_argument("--variant", default="both", choices=["v1", "v2", "both"])
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve a numeric instance with a plan")
    s.add_argument("--plan", required=True)
    s.add_argument("--instance", required=True)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="random-instance stability benchmark")
    b.add_argument("--plan", required=True)
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--report", required=True)
    b.add_argument("--timing", action="store_true", help="record wall-clock percentiles")
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("compare", help="action-matrix vs hidden-variable equivalence")
    c.add_argument("--system", required=True)
    c.add_argument("--direction", required=True, choices=["am2res", "res2am", "resalt2am"])
    c.add_argument("--trials", type=int, default=100)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--roots", type=int, default=None, help="known root count override")
    c.set_defaults(func=cmd_compare)

    p = sub.add_parser("problems", help="built-in problem library")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.set_defaults(func=cmd_problems)
    pw = psub.add_parser("write")
    pw.add_argument("name")
    pw.add_argument("--dir", default=".")
    pw.set_defaults(func=cmd_problems)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
