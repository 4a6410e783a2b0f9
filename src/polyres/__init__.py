"""Two-stage eigenvalue solvers for sparse polynomial systems.

Offline, a plan is generated by searching Newton-polytope Minkowski sums
for a favourable monomial set and reducing the resulting hidden-variable
matrix; online, the plan is filled with numbers and the roots drop out of
the eigendecomposition of a Schur complement.  A parallel elimination-
template pipeline and an equivalence checker connect the two solver
families.
"""

from .generate import SearchConfig, augment, generate_plan
from .plan import SolverPlan, plan_from_json, plan_to_json
from .poly import SystemTemplate, parse_instance, parse_system
from .solve import benchmark, solve_instance

__all__ = [
    "SearchConfig",
    "SolverPlan",
    "SystemTemplate",
    "augment",
    "benchmark",
    "generate_plan",
    "parse_instance",
    "parse_system",
    "plan_from_json",
    "plan_to_json",
    "solve_instance",
]

__version__ = "0.1.0"
