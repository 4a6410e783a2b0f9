import hashlib
import math
import random

import numpy as np
import pytest

from polyres.generate import SearchConfig, generate_plan
from polyres.linalg import PRIMES, modp_eliminate
from polyres.oracle import numeric_poly, sylvester_bivariate, univariate_roots
from polyres.problems import (
    LIBRARY,
    _rel_pose_lifted_row,
    _rel_pose_slots_from_basis,
    get,
    rel_pose_field_instance,
    rel_pose_float_instance,
)


def _field_instance_by_rref(prime, trial, seed):
    """rel_pose_field_instance with its null-space basis read off the reduced
    row echelon form of the correspondence rows one free column at a time."""
    rng = random.Random(f"relpose:{seed}:{prime}:{trial}")
    rows = []
    for _ in range(8):
        x1, y1, x2, y2 = (rng.randrange(1, prime) for _ in range(4))
        rows.append([v % prime for v in _rel_pose_lifted_row(x1, y1, x2, y2, 1)])
    a, pivot_rows, pivots = modp_eliminate(np.array(rows, dtype=np.int64), prime, reduce=True)
    rref = a[pivot_rows]
    free = [c for c in range(12) if c not in pivots]
    if len(free) != 4:
        return _field_instance_by_rref(prime, trial + 1000, seed)
    cols = [[0] * 4 for _ in range(12)]
    for i, fc in enumerate(free):
        cols[fc][i] = 1
        for row_idx, pc in enumerate(pivots):
            cols[pc][i] = int((-rref[row_idx, fc]) % prime)
    return {k: int(v) % prime for k, v in _rel_pose_slots_from_basis(cols).items()}
from polyres.solve import SolveFailure, solve_instance


class TestLibraryInvariants:
    def test_root_counts_match_oracle(self):
        """Entries with a stated root count agree with the oracle on 10
        random instances (where an oracle route exists)."""
        rng = np.random.default_rng(31)
        for name in ("univariate_linear", "univariate_quadratic"):
            entry = get(name)
            deg = max(t.exps[0] for t in entry.system.polys[0].terms)
            for _ in range(10):
                coeffs = entry.random_instance(rng)
                asc = [0.0] * (deg + 1)
                for t in entry.system.polys[0].terms:
                    asc[t.exps[0]] = coeffs[t.slot]
                assert len(univariate_roots(asc)) == entry.root_count
        for name in ("two_conics", "zero_coordinate_pair"):
            entry = get(name)
            for _ in range(10):
                coeffs = entry.random_instance(rng)
                f = numeric_poly(entry.system.polys[0], coeffs)
                g = numeric_poly(entry.system.polys[1], coeffs)
                assert len(sylvester_bivariate(f, g, hide=2)) == entry.root_count

    def test_generators_cover_all_slots(self):
        rng = np.random.default_rng(1)
        for entry in LIBRARY.values():
            inst = entry.random_instance(rng)
            assert set(inst) >= set(entry.system.slots())

    def test_rel_pose_field_sampler_deterministic(self):
        p = PRIMES[0]
        a = rel_pose_field_instance(p, 0, 7)
        b = rel_pose_field_instance(p, 0, 7)
        c = rel_pose_field_instance(p, 1, 7)
        assert a == b
        assert a != c
        assert all(0 <= v < p for v in a.values())
        assert set(a) == set(get("rel_pose_f_lambda_8pt").system.slots())

    def test_rel_pose_field_instance_matches_rref_read_off(self):
        # the kernel routine's basis gives the slots of a by-hand read-off,
        # in exact Python ints
        for prime in PRIMES:
            for trial in range(4):
                for seed in range(3):
                    got = rel_pose_field_instance(prime, trial, seed)
                    assert got == _field_instance_by_rref(prime, trial, seed), (prime, trial, seed)
                    assert all(type(v) is int for v in got.values())

    def test_rel_pose_float_instances_pinned(self):
        # 500 draws at one seed, every slot value bit for bit
        rng = np.random.default_rng(1)
        digest = hashlib.sha256()
        for _ in range(500):
            slots = rel_pose_float_instance(rng)
            assert all(type(v) is float for v in slots.values())
            for name in sorted(slots):
                digest.update(name.encode() + np.float64(slots[name]).tobytes())
        assert digest.hexdigest() == "490aed859b98db390a16565a6cb708fc7178460f12e8155fd4fcf5f15879b442"

    def test_rel_pose_float_instance_redraws_a_singular_left_block(self):
        # the first eight correspondences all have x2 = 0: the columns of
        # x2 x1, x2 y1 and x2 are zero, the left 8x8 block singular
        rng = np.random.default_rng(4)
        first = [np.array([*rng.standard_normal(2), 0.0, rng.standard_normal()]) for _ in range(8)]
        rest = np.random.default_rng(5)
        calls = []

        class Stub:
            def standard_normal(self, n):
                calls.append(n)
                return first.pop(0) if first else rest.standard_normal(n)

        assert rel_pose_float_instance(Stub()) == rel_pose_float_instance(np.random.default_rng(5))
        assert calls == [4] * 16

    @pytest.mark.parametrize("kind", [int, float])
    def test_rel_pose_f1_is_the_pencil_determinant(self, kind):
        # column i of a 12x4 null-space basis, read row by row, is the 3x3
        # matrix B_i; f1(a) must be det(a1 B1 + a2 B2 + a3 B3 + B4)
        rng = np.random.default_rng(5)
        f1 = get("rel_pose_f_lambda_8pt").system.polys[0]
        for _ in range(25):
            if kind is int:
                cols, a = rng.integers(-9, 10, (12, 4)).tolist(), rng.integers(-5, 6, 3).tolist()
            else:
                cols, a = rng.standard_normal((12, 4)).tolist(), rng.standard_normal(3).tolist()
            slots = _rel_pose_slots_from_basis(cols)
            entry = lambda r, c: sum(a[i] * cols[3 * r + c][i] for i in range(3)) + cols[3 * r + c][3]
            m = [[entry(r, c) for c in range(3)] for r in range(3)]
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            value = sum(slots[t.slot] * math.prod(x**e for x, e in zip(a, t.exps)) for t in f1.terms)
            assert type(value) is kind
            if kind is int:
                assert value == det
            else:
                assert abs(value - det) <= 1e-12 * abs(det)


class TestPipelineInvariant:
    def test_generate_then_solve_yields_known_roots(
        self,
        univariate_linear_plan,
        univariate_quadratic_plan,
        two_conics_plan,
        three_quadrics_plan,
    ):
        """At least r residual-verified roots on 95% of 100 random instances
        for every library entry with a known root count."""
        cases = [
            (univariate_linear_plan, get("univariate_linear")),
            (univariate_quadratic_plan, get("univariate_quadratic")),
            (two_conics_plan, get("two_conics")),
            (three_quadrics_plan, get("three_quadrics")),
        ]
        zero_entry = get("zero_coordinate_pair")
        zero_plan = generate_plan(zero_entry.system, SearchConfig(seed=1, variants=("v1",))).plan
        cases.append((zero_plan, zero_entry))
        for plan, entry in cases:
            rng = np.random.default_rng(entry_seed(entry.name))
            hits = 0
            for _ in range(100):
                coeffs = entry.random_instance(rng)
                try:
                    sols = solve_instance(plan, coeffs)
                except SolveFailure:
                    continue
                if sum(1 for r in sols.roots if r.residual <= 1e-6) >= entry.root_count:
                    hits += 1
            assert hits >= 95, (entry.name, hits)


def entry_seed(name: str) -> int:
    return sum(ord(c) for c in name)
