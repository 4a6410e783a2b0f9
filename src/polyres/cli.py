"""Command-line front end: generate plans, solve instances, benchmark,
and check action-matrix/hidden-variable equivalence.

Exit codes: 0 success, 2 usage or malformed input, 3 no solver found,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
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
from .poly import SystemFormatError, dump_system, parse_instance, parse_system
from .solve import SolveFailure, benchmark, solve_instance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLVER = 3
EXIT_NUMERIC = 4


def _read(path: str) -> str:
    """The UTF-8 text of ``path``; any read failure prints why and exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        print(f"error: file not found: {path}", file=sys.stderr)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror or e}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"error: cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _write(path, text: str, parents: bool = False) -> bool:
    """Write ``text`` to ``path``, first creating its directory if ``parents``;
    on failure print why and return False."""
    p = Path(path)
    try:
        if parents:
            p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    except OSError as e:
        print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
        return False
    return True


def _writable(path) -> bool:
    """Whether ``path`` can be written as a file, judged before any work is
    done: it is not a directory, and its parent is one.  If not, print why,
    as _write does."""
    p = Path(path)
    if p.is_dir():
        code = errno.EISDIR
    elif not p.parent.is_dir():
        code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
    else:
        return True
    print(f"error: cannot write {path}: {os.strerror(code)}", file=sys.stderr)
    return False


def _at_least(flag: str, value: int, low: int) -> bool:
    """Whether ``value`` is at least ``low``; if not, print why, naming ``flag``."""
    if value >= low:
        return True
    print(f"error: {flag} must be at least {low}", file=sys.stderr)
    return False


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


def _delta_magnitudes(text: str | None) -> tuple[Fraction, ...]:
    if not text:
        return SearchConfig.delta_magnitudes
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        print(f"error: --delta must be comma-separated numbers, got {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _search_config(args) -> SearchConfig:
    if args.max_subset is not None and not _at_least("--max-subset", args.max_subset, 1):
        raise SystemExit(EXIT_USAGE)
    variants = ("v1", "v2") if args.variant == "both" else (args.variant,)
    return SearchConfig(
        delta_magnitudes=_delta_magnitudes(args.delta),
        max_subset_size=args.max_subset,
        variants=variants,
        seed=args.seed,
    )


def cmd_generate(args) -> int:
    system = _load_system(args.system)
    cfg = _search_config(args)
    if not _writable(args.out):
        # the search can take minutes: fail before it, not after
        return EXIT_USAGE
    try:
        outcome = generate_plan(system, cfg)
    except NoSolverError as e:
        print(f"no solver: {e}", file=sys.stderr)
        return EXIT_NO_SOLVER
    except OverflowError as e:
        print(f"error: --delta or an exponent of {args.system} is too large ({e})", file=sys.stderr)
        return EXIT_USAGE
    plan = outcome.plan
    if not _write(args.out, plan_to_json(plan)):
        return EXIT_USAGE
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
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: --tol must be a finite number >= 0, got {args.tol}", file=sys.stderr)
        return EXIT_USAGE
    plan = _load_plan(args.plan)
    try:
        coeffs = parse_instance(_read(args.instance))
    except SystemFormatError as e:
        print(f"error: bad instance file {args.instance}: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.out and not _writable(args.out):
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
    if args.out and not _write(args.out, out_text):
        return EXIT_USAGE
    return EXIT_OK


def cmd_bench(args) -> int:
    if not (_at_least("--trials", args.trials, 1) and _at_least("--seed", args.seed, 0)):
        return EXIT_USAGE
    plan = _load_plan(args.plan)
    if not _writable(args.report):
        return EXIT_USAGE
    slots = plan.base_system.slots()

    def gen(rng):
        return {s: float(rng.standard_normal()) for s in slots}

    report = benchmark(
        plan, gen, trials=args.trials, seed=args.seed, record_timing=args.timing
    )
    if not _write(args.report, report.to_json()):
        return EXIT_USAGE
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
        f = numeric_poly(system.polys[0], coeffs)
        deg = max(e for (e,) in f)
        return len(univariate_roots([f.get((e,), 0.0) for e in range(deg + 1)]))
    return len(_generic_points(system, plan, args.seed, 991))


def cmd_compare(args) -> int:
    if not (_at_least("--trials", args.trials, 1)
            and (args.roots is None or _at_least("--roots", args.roots, 1))
            and _at_least("--seed", args.seed, 0)):
        return EXIT_USAGE
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
    files = {out_dir / f"{entry.name}.sys": dump_system(entry.system)}
    if entry.canonical_instance is not None:
        files[out_dir / f"{entry.name}.inst"] = json.dumps(entry.canonical_instance, sort_keys=True) + "\n"
    for path, text in files.items():
        if not _write(path, text, parents=True):
            return EXIT_USAGE
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyres", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a solver plan for a system file")
    g.add_argument("--system", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--delta", default=None, help="comma-separated displacement magnitudes")
    g.add_argument("--max-subset", type=int, default=None)
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
