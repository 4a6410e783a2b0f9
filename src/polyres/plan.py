"""Symbolic matrix layouts and solver plans.

A TemplateMatrix indexes rows by polynomial multiples and columns by
monomials; every cell remembers which (polynomial, term, multiplier)
produced it, so the same layout can be instantiated exactly over a prime
field (offline rank decisions) or filled with floats (online solving).
A MatrixLayout adds the block bookkeeping of the hidden-variable
construction, and a SolverPlan is the serializable offline artifact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import PRIMES, exact_rank
from .poly import (
    HIDDEN_SLOT,
    Mono,
    SystemTemplate,
    dump_system,
    mono_div,
    mono_mul,
    parse_system,
)

PLAN_VERSION = 1

# slot id markers used in the vectorized cell encoding
_SLOT_LITERAL = -1
_SLOT_HIDDEN = -2


class PlanFormatError(ValueError):
    """Plan file is malformed or truncated."""


class MissingSlotError(KeyError):
    def __init__(self, slot: str):
        self.slot = slot
        super().__init__(f"instance does not assign coefficient slot {slot!r}")


@dataclass(frozen=True)
class TemplateMatrix:
    """Rows are monomial multiples of system polynomials, columns monomials.

    With ``project_missing`` the coefficients of monomials outside the column
    set are dropped rather than rejected; that is how an elimination template
    behaves after its linearly dependent excess columns were removed.
    """

    system: SystemTemplate
    cols: tuple[Mono, ...]
    rows: tuple[tuple[int, Mono], ...]
    project_missing: bool = False

    def __post_init__(self):
        col_index = {m: j for j, m in enumerate(self.cols)}
        if len(col_index) != len(self.cols):
            raise ValueError("duplicate column monomials")
        slot_ids = {name: i for i, name in enumerate(sorted(self.system.slots()))}
        cells = []
        enc_rows, enc_cols, enc_slots, enc_consts = [], [], [], []
        for r, (poly_idx, mult) in enumerate(self.rows):
            f = self.system.polys[poly_idx]
            for t_idx, term in enumerate(f.terms):
                mono = mono_mul(mult, term.exps)
                j = col_index.get(mono)
                if j is None:
                    if self.project_missing:
                        continue
                    raise ValueError(
                        f"row {(poly_idx, mult)} produces monomial {mono} outside the column set"
                    )
                cells.append((r, j, poly_idx, t_idx))
                enc_rows.append(r)
                enc_cols.append(j)
                if term.slot is None:
                    enc_slots.append(_SLOT_LITERAL)
                elif term.slot == HIDDEN_SLOT:
                    enc_slots.append(_SLOT_HIDDEN)
                else:
                    enc_slots.append(slot_ids[term.slot])
                enc_consts.append(term.const)
        if len({(r, c) for r, c, _, _ in cells}) != len(cells):
            raise ValueError("two terms collide in one matrix cell")
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "_slot_names", tuple(sorted(slot_ids)))
        object.__setattr__(self, "_enc_rows", np.array(enc_rows, dtype=np.int64))
        object.__setattr__(self, "_enc_cols", np.array(enc_cols, dtype=np.int64))
        object.__setattr__(self, "_enc_slots", np.array(enc_slots, dtype=np.int64))
        object.__setattr__(self, "_enc_consts", np.array(enc_consts, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def instantiate_modp(self, p: int, values: dict[str, int]) -> np.ndarray:
        """Dense matrix over F_p; ``values`` maps every slot and 'u0' to ints."""
        lookup = np.empty(len(self._slot_names) + 2, dtype=np.int64)
        lookup[0] = 1  # literal
        lookup[1] = values[HIDDEN_SLOT] % p
        for i, name in enumerate(self._slot_names):
            lookup[i + 2] = values[name] % p
        consts = np.rint(self._enc_consts).astype(np.int64)
        if not np.array_equal(consts, self._enc_consts):
            raise ValueError("non-integer literal constants cannot enter the prime field")
        vals = (consts % p) * lookup[self._enc_slots + 2] % p
        out = np.zeros(self.shape, dtype=np.int64)
        out[self._enc_rows, self._enc_cols] = vals
        return out

    def fill_parts(self, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """Float instantiation split as (A, B) with the full matrix A + u0*B."""
        lookup = np.empty(len(self._slot_names) + 2, dtype=np.float64)
        lookup[0] = 1.0
        lookup[1] = 1.0  # hidden-variable cells land in B with their constant
        for i, name in enumerate(self._slot_names):
            try:
                lookup[i + 2] = coeffs[name]
            except KeyError:
                raise MissingSlotError(name) from None
        vals = self._enc_consts * lookup[self._enc_slots + 2]
        a = np.zeros(self.shape, dtype=np.float64)
        b = np.zeros(self.shape, dtype=np.float64)
        hidden = self._enc_slots == _SLOT_HIDDEN
        a[self._enc_rows[~hidden], self._enc_cols[~hidden]] = vals[~hidden]
        b[self._enc_rows[hidden], self._enc_cols[hidden]] = vals[hidden]
        return a, b

    def structural_cols_of_rows(self, row_ids) -> set[int]:
        mask = np.isin(self._enc_rows, list(row_ids))
        return set(int(c) for c in self._enc_cols[mask])

    def structural_rows_of_col(self, col: int) -> set[int]:
        return set(int(r) for r in self._enc_rows[self._enc_cols == col])


@dataclass(frozen=True)
class RankCheckConfig:
    """Multi-prime exact rank protocol: every trial must agree.

    ``values_fn(prime, trial, seed) -> {slot: int}`` overrides the generic
    random assignment; problems whose coefficients obey algebraic relations
    supply one so rank decisions are made on the actual instance manifold.
    """

    primes: tuple[int, ...] = PRIMES[:3]
    assignments: int = 2
    seed: int = 0
    values_fn: object = None

    def trial_values(self, slot_names, prime: int, trial: int) -> dict[str, int]:
        rng = random.Random(f"rank:{self.seed}:{prime}:{trial}")
        values = {HIDDEN_SLOT: rng.randrange(1, prime)}
        if self.values_fn is not None:
            structured = self.values_fn(prime, trial, self.seed)
            for name in sorted(slot_names):
                values[name] = structured[name] % prime
            return values
        for name in sorted(slot_names):
            values[name] = rng.randrange(1, prime)
        return values

    def trials(self):
        for p in self.primes:
            for t in range(self.assignments):
                yield p, t


def has_full_column_rank(tm: TemplateMatrix, cols: list[int] | None, cfg: RankCheckConfig,
                         row_ids: list[int] | None = None) -> bool:
    """Exact full-column-rank test of a column (and optional row) selection."""
    names = list(tm._slot_names)
    for p, t in cfg.trials():
        m = tm.instantiate_modp(p, cfg.trial_values(names, p, t))
        if row_ids is not None:
            m = m[row_ids, :]
        if cols is not None:
            m = m[:, cols]
        if exact_rank(m, p) != m.shape[1]:
            return False
    return True


@dataclass(frozen=True)
class MatrixLayout:
    """Block structure of the hidden-variable coefficient matrix.

    Columns are ordered b1 then b2; the last ``len(rows) - n_upper`` rows are
    the multiples of the extra polynomial x_k - u0.  For variant v1 the
    u0-cells form -I on the b1 columns; for v2 the x_k-cells form I there.
    """

    template: TemplateMatrix
    hidden_var: int  # 1-based variable index k
    variant: str
    n_b1: int
    n_upper: int

    def __post_init__(self):
        if self.variant not in ("v1", "v2"):
            raise ValueError(f"unknown variant {self.variant!r}")
        n = self.template.system.n_vars
        if not (1 <= self.hidden_var <= n):
            raise ValueError(f"hidden variable index {self.hidden_var} out of range")
        e_k = tuple(1 if i == self.hidden_var - 1 else 0 for i in range(n))
        last = len(self.template.system.polys) - 1
        for j, (poly_idx, mult) in enumerate(self.template.rows[self.n_upper :]):
            if poly_idx != last:
                raise ValueError("lower block row does not multiply the extra polynomial")
            b1_mono = self.template.cols[j]
            expected = mult if self.variant == "v1" else mono_mul(mult, e_k)
            if j >= self.n_b1 or b1_mono != expected:
                raise ValueError("lower block rows are not aligned with b1")
        if len(self.template.rows) - self.n_upper != self.n_b1:
            raise ValueError("lower block must have exactly |B1| rows")

    @property
    def shape(self) -> tuple[int, int]:
        return self.template.shape

    @property
    def n_b2(self) -> int:
        return len(self.template.cols) - self.n_b1

    @property
    def b1(self) -> tuple[Mono, ...]:
        return self.template.cols[: self.n_b1]

    @property
    def b2(self) -> tuple[Mono, ...]:
        return self.template.cols[self.n_b1 :]

    @cached_property
    def ratio_pairs(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Index form of the pairs (m, x_i * m) inside B1 that the eigenvector
        read-off uses, for every variable except x_k: ``(free, src, dst,
        starts)``.  The pairs of variable ``free[j]`` (0-based) are
        ``src[s:e], dst[s:e]`` with ``s, e = starts[j], starts[j + 1]`` (``e``
        is ``len(src)`` for the last one) and b1[dst] = x_i * b1[src]."""
        n = self.template.system.n_vars
        pos = {m: j for j, m in enumerate(self.b1)}
        free = tuple(i for i in range(n) if i != self.hidden_var - 1)
        src, dst, starts = [], [], []
        for i in free:
            starts.append(len(src))
            e_i = tuple(1 if j == i else 0 for j in range(n))
            for m, j in pos.items():
                k = pos.get(mono_mul(m, e_i))
                if k is not None:
                    src.append(j)
                    dst.append(k)
        return free, np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(starts, dtype=np.intp)

    def upper_row_ids(self) -> list[int]:
        return list(range(self.n_upper))

    def a12_cols(self) -> list[int]:
        return list(range(self.n_b1, len(self.template.cols)))

    def multiplier_sets(self) -> list[set[Mono]]:
        out = [set() for _ in self.template.system.polys]
        for poly_idx, mult in self.template.rows:
            out[poly_idx].add(mult)
        return out


def build_layout(
    aug_system: SystemTemplate,
    hidden_var: int,
    variant: str,
    b_monos,
    multipliers,
    order,
) -> MatrixLayout:
    """Canonical layout: columns sorted descending within b1 and b2, upper
    rows grouped by polynomial, lower rows aligned with b1."""
    n = aug_system.n_vars
    e_k = tuple(1 if i == hidden_var - 1 else 0 for i in range(n))
    b_set = frozenset(b_monos)
    t_last = multipliers[-1]
    if variant == "v1":
        b1_set = frozenset(t_last)
    else:
        b1_set = frozenset(mono_mul(t, e_k) for t in t_last)
    if not b1_set <= b_set:
        raise ValueError("b1 monomials escape the favourable set")
    b1 = order.sort_desc(b1_set)
    b2 = order.sort_desc(b_set - b1_set)
    rows = []
    for i in range(len(aug_system.polys) - 1):
        rows.extend((i, t) for t in order.sort_desc(multipliers[i]))
    n_upper = len(rows)
    last = len(aug_system.polys) - 1
    for mono in b1:
        mult = mono if variant == "v1" else mono_div(mono, e_k)
        rows.append((last, mult))
    tm = TemplateMatrix(aug_system, tuple(b1 + b2), tuple(rows))
    return MatrixLayout(tm, hidden_var, variant, len(b1), n_upper)


@dataclass(frozen=True)
class SolverPlan:
    """Offline artifact: a square hidden-variable matrix plus bookkeeping."""

    layout: MatrixLayout
    order_kind: str
    seed: int
    delta: tuple[Fraction, ...] | None
    subset_mask: int | None
    deleted_rows: tuple[tuple[int, Mono], ...] = ()
    origin: str = "search"

    def __post_init__(self):
        rows, cols = self.layout.shape
        if rows != cols:
            raise ValueError(f"plan layout must be square, got {rows}x{cols}")

    @property
    def n_solutions(self) -> int:
        return self.layout.n_b1

    @property
    def aug_system(self) -> SystemTemplate:
        return self.layout.template.system

    @cached_property
    def base_system(self) -> SystemTemplate:
        s = self.aug_system
        return SystemTemplate(s.n_vars, s.var_names, s.polys[:-1])

    @property
    def size_label(self) -> str:
        """Upper-block convention: rows of [A11 A12] x total columns."""
        return f"{self.layout.n_upper}x{self.layout.shape[1]}"


def _mono_list(monos) -> list[list[int]]:
    return [list(m) for m in monos]


def plan_to_json(plan: SolverPlan) -> str:
    lay = plan.layout
    doc = {
        "kind": "resultant",
        "version": PLAN_VERSION,
        "meta": {
            "seed": plan.seed,
            "order": plan.order_kind,
            "variant": lay.variant,
            "x_k": lay.hidden_var,
            "delta": None if plan.delta is None else [str(d) for d in plan.delta],
            "subset_mask": plan.subset_mask,
            "n_solutions": plan.n_solutions,
            "origin": plan.origin,
            "root_transform": "u0" if lay.variant == "v1" else "-1/lambda",
        },
        "system": json.loads(dump_system(plan.base_system)),
        "monomials": {"b": _mono_list(lay.template.cols), "n_b1": lay.n_b1},
        "rows": [[p, list(m)] for p, m in lay.template.rows],
        "blocks": {"n_upper": lay.n_upper, "projected": lay.template.project_missing},
        "cells": [list(c) for c in lay.template.cells],
        "deleted_rows": [[p, list(m)] for p, m in plan.deleted_rows],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def plan_from_json(text: str) -> SolverPlan:
    from .generate import augment  # deferred: generate imports this module

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PlanFormatError(f"not a valid plan file: {e.msg}") from e
    try:
        if doc["kind"] != "resultant":
            raise PlanFormatError(f"expected a resultant plan, got kind {doc['kind']!r}")
        if doc["version"] != PLAN_VERSION:
            raise PlanFormatError(f"unsupported plan version {doc['version']}")
        meta = doc["meta"]
        base = parse_system(json.dumps(doc["system"]))
        aug = augment(base, meta["x_k"])
        cols = tuple(tuple(m) for m in doc["monomials"]["b"])
        rows = tuple((int(p), tuple(m)) for p, m in doc["rows"])
        tm = TemplateMatrix(aug, cols, rows, bool(doc["blocks"].get("projected", False)))
        layout = MatrixLayout(
            tm, meta["x_k"], meta["variant"], int(doc["monomials"]["n_b1"]), int(doc["blocks"]["n_upper"])
        )
        if [list(c) for c in tm.cells] != doc["cells"]:
            raise PlanFormatError("cell map disagrees with rows/monomials sections")
        delta = None if meta["delta"] is None else tuple(Fraction(d) for d in meta["delta"])
        return SolverPlan(
            layout,
            meta["order"],
            int(meta["seed"]),
            delta,
            meta["subset_mask"],
            tuple((int(p), tuple(m)) for p, m in doc["deleted_rows"]),
            meta.get("origin", "search"),
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, PlanFormatError):
            raise
        raise PlanFormatError(f"plan file is missing or corrupts a section: {e}") from e
