"""Built-in test problems: templates, instance generators, known root counts."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .linalg import float_rref, modp_left_kernel
from .poly import Mono, PolynomialTemplate, SystemTemplate, Term, unit_mono


def monomials_up_to_degree(n_vars: int, degree: int) -> list[Mono]:
    out = [
        m
        for m in itertools.product(range(degree + 1), repeat=n_vars)
        if sum(m) <= degree
    ]
    return sorted(out)


@dataclass(frozen=True)
class ProblemLibraryEntry:
    name: str
    description: str
    system: SystemTemplate
    root_count: int | None
    canonical_instance: dict | None
    am_basis: tuple[Mono, ...] | None = None
    am_action_var: int = 1
    am_multiplier_degree: int | None = None
    instance_fn: object = None  # structured float-instance sampler

    def random_instance(self, rng) -> dict:
        if self.instance_fn is not None:
            return self.instance_fn(rng)
        return {s: float(rng.standard_normal()) for s in self.system.slots()}

    def am_multipliers(self):
        if self.am_multiplier_degree is None:
            return None
        monos = monomials_up_to_degree(self.system.n_vars, self.am_multiplier_degree)
        return [set(monos) for _ in self.system.polys]


def _poly(*terms: tuple[str, Mono]) -> PolynomialTemplate:
    return PolynomialTemplate(tuple(Term(slot, exps) for slot, exps in terms))


def _univariate_linear() -> ProblemLibraryEntry:
    system = SystemTemplate(1, ("x1",), (_poly(("a", (1,)), ("b", (0,))),))
    return ProblemLibraryEntry(
        "univariate_linear",
        "a*x1 + b; canonical instance is x1 - 2",
        system,
        root_count=1,
        canonical_instance={"a": 1.0, "b": -2.0},
        am_basis=((0,),),
        am_multiplier_degree=0,
    )


def _univariate_quadratic() -> ProblemLibraryEntry:
    system = SystemTemplate(1, ("x1",), (_poly(("a", (2,)), ("b", (1,)), ("c", (0,))),))
    return ProblemLibraryEntry(
        "univariate_quadratic",
        "a*x1^2 + b*x1 + c; canonical instance is x1^2 - 5x1 + 6",
        system,
        root_count=2,
        canonical_instance={"a": 1.0, "b": -5.0, "c": 6.0},
        am_basis=((0,), (1,)),
        am_multiplier_degree=0,
    )


def _example_system() -> ProblemLibraryEntry:
    f1_monos = [
        (3, 3), (2, 3), (3, 2), (2, 2), (0, 3), (2, 1), (0, 2), (1, 1), (2, 0), (0, 1),
    ]
    f2_monos = [(2, 0), (0, 1), (1, 0), (0, 0)]
    f1 = _poly(*[(f"c1_{j + 1}", m) for j, m in enumerate(f1_monos)])
    f2 = _poly(*[(f"c2_{j + 1}", m) for j, m in enumerate(f2_monos)])
    system = SystemTemplate(2, ("x1", "x2"), (f1, f2))
    return ProblemLibraryEntry(
        "example_system",
        "two bivariate polynomials with 10- and 4-term supports",
        system,
        root_count=None,
        canonical_instance=None,
    )


def _two_conics() -> ProblemLibraryEntry:
    system = SystemTemplate(
        2,
        ("x1", "x2"),
        (
            _poly(("a", (2, 0)), ("b", (0, 2)), ("c", (0, 0))),
            _poly(("d", (1, 1)), ("e", (0, 0))),
        ),
    )
    return ProblemLibraryEntry(
        "two_conics",
        "axis-aligned conic a*x^2 + b*y^2 + c and hyperbola d*x*y + e",
        system,
        root_count=4,
        canonical_instance={"a": 1.0, "b": 1.0, "c": -1.0, "d": 1.0, "e": -0.25},
        am_basis=((0, 0), (1, 0), (0, 1), (0, 2)),
        am_multiplier_degree=2,
    )


def _three_quadrics() -> ProblemLibraryEntry:
    monos = monomials_up_to_degree(3, 2)
    polys = tuple(
        _poly(*[(f"q{i}_{j}", m) for j, m in enumerate(monos)]) for i in range(3)
    )
    system = SystemTemplate(3, ("x1", "x2", "x3"), polys)
    basis = tuple(m for m in itertools.product((0, 1), repeat=3))
    return ProblemLibraryEntry(
        "three_quadrics",
        "three dense quadrics in three variables (Bezout count 8)",
        system,
        root_count=8,
        canonical_instance=None,
        am_basis=tuple(sorted(basis)),
        am_multiplier_degree=2,
    )


# --- relative pose with one unknown radial distortion, 8 points ------------
#
# One-sided division-model lifting: the epipolar constraint of each
# correspondence is linear in the 12-vector (F11..F33, t13, t23, t33) with
# t_j3 = lam * F_j3.  Eight data rows leave a 4-dimensional null space; with
# the last basis coordinate pinned to 1, the unknowns are the mixing
# coefficients a1..a3 and lam, tied together by det F = 0 and the three
# lifting-consistency equations t_j3 = lam * F_j3.

_DET_MONOS = tuple(
    sorted(m for m in itertools.product(range(4), repeat=3) if sum(m) <= 3)
)
_PERM_SIGNS = (
    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
    ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
)


def _rel_pose_system() -> SystemTemplate:
    f1 = PolynomialTemplate(
        tuple(Term(f"d{e[0]}{e[1]}{e[2]}", e + (0,)) for e in _DET_MONOS)
    )
    polys = [f1]
    null_monos = [unit_mono(3, i) for i in range(3)] + [(0, 0, 0)]  # a1, a2, a3, 1
    for j in range(3):
        terms = []
        for i, e in enumerate(null_monos):
            terms.append(Term(f"w{j}_{i}", e + (0,)))
            terms.append(Term(f"g{j}_{i}", e + (1,)))
        polys.append(PolynomialTemplate(tuple(terms)))
    return SystemTemplate(4, ("a1", "a2", "a3", "lam"), tuple(polys))


def _rel_pose_slots_from_basis(basis_cols):
    """Slot values from a 12x4 null-space basis of ints or floats."""
    bi = [[[basis_cols[3 * r + c][i] for c in range(3)] for r in range(3)] for i in range(4)]
    det: dict[tuple, object] = {}
    for assign in itertools.product(range(4), repeat=3):
        for perm, sign in _PERM_SIGNS:
            v = bi[assign[0]][0][perm[0]] * bi[assign[1]][1][perm[1]] * bi[assign[2]][2][perm[2]]
            if sign < 0:
                v = -v
            expo = [0, 0, 0]
            for i in assign:
                if i < 3:
                    expo[i] += 1
            key = tuple(expo)
            # the first term is stored as is: 0 + v would turn -0.0 into +0.0
            det[key] = v if key not in det else det[key] + v
    slots = {f"d{e[0]}{e[1]}{e[2]}": det.get(e) for e in _DET_MONOS}
    for j in range(3):
        for i in range(4):
            slots[f"w{j}_{i}"] = basis_cols[9 + j][i]
            slots[f"g{j}_{i}"] = -basis_cols[2 + 3 * j][i]
    return slots


def _rel_pose_lifted_row(x1, y1, x2, y2, one):
    r2 = x1 * x1 + y1 * y1
    return [
        x2 * x1, x2 * y1, x2, y2 * x1, y2 * y1, y2, x1, y1, one,
        x2 * r2, y2 * r2, r2,
    ]


# the identity rows of every float instance's null-space basis; shared, so
# the slots read off them hold the same float objects in every instance
_UNIT_ROWS = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]


def rel_pose_float_instance(rng) -> dict:
    """Slot values from eight random point correspondences.

    The null-space basis is echelon-normalized, [-L^{-1} R ; I] for the
    8 x 12 correspondence matrix [L | R], so that float instances and the
    exact mod-p instances used for offline rank decisions sample the same
    coefficient manifold.  A draw whose L is singular is drawn again.
    """
    m = np.array(
        [
            _rel_pose_lifted_row(*(float(v) for v in rng.standard_normal(4)), 1.0)
            for _ in range(8)
        ]
    )
    rref, ok = float_rref(m)
    if not ok:
        return rel_pose_float_instance(rng)
    return _rel_pose_slots_from_basis((-rref[:, 8:]).tolist() + _UNIT_ROWS)


_FIELD_CACHE: dict[tuple, dict] = {}


def rel_pose_field_instance(prime: int, trial: int, seed: int) -> dict:
    """Exact mod-p slot values from correspondences sampled in the field.

    All algebraic relations between the coefficients survive, so rank
    decisions made with these values hold on the instance manifold.
    """
    key = (prime, trial, seed)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    rng = random.Random(f"relpose:{seed}:{prime}:{trial}")
    rows = []
    for _ in range(8):
        x1, y1, x2, y2 = (rng.randrange(1, prime) for _ in range(4))
        rows.append([v % prime for v in _rel_pose_lifted_row(x1, y1, x2, y2, 1)])
    # the null space of the 8 x 12 rows, one basis vector per column
    null = modp_left_kernel(np.array(rows, dtype=np.int64).T, prime)
    if len(null) != 4:
        return rel_pose_field_instance(prime, trial + 1000, seed)
    # exact arithmetic on Python ints (a product of three residues overflows
    # int64), reduced mod p once
    slots = {k: int(v) % prime for k, v in _rel_pose_slots_from_basis(null.T.tolist()).items()}
    _FIELD_CACHE[key] = slots
    return slots


def _rel_pose_entry() -> ProblemLibraryEntry:
    return ProblemLibraryEntry(
        "rel_pose_f_lambda_8pt",
        "fundamental matrix with one radial distortion from 8 points "
        "(reconstructed one-sided lifting; 8 solutions)",
        _rel_pose_system(),
        root_count=8,
        canonical_instance=None,
        instance_fn=rel_pose_float_instance,
    )


def _zero_coordinate_pair() -> ProblemLibraryEntry:
    # every root has a zero coordinate: exercises the reciprocal-action guard
    system = SystemTemplate(
        2,
        ("x1", "x2"),
        (
            _poly(("a", (1, 1))),
            _poly(("b", (1, 0)), ("c", (0, 1)), ("d", (0, 0))),
        ),
    )
    return ProblemLibraryEntry(
        "zero_coordinate_pair",
        "a*x*y with a generic line; both roots lie on a coordinate axis",
        system,
        root_count=2,
        canonical_instance={"a": 1.0, "b": 1.0, "c": 1.0, "d": -1.0},
    )


_ENTRIES = [
    _univariate_linear(),
    _univariate_quadratic(),
    _example_system(),
    _two_conics(),
    _three_quadrics(),
    _zero_coordinate_pair(),
    _rel_pose_entry(),
]

LIBRARY: dict[str, ProblemLibraryEntry] = {e.name: e for e in _ENTRIES}


def get(name: str) -> ProblemLibraryEntry:
    try:
        return LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(sorted(LIBRARY))}") from None
