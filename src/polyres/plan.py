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
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import PRIMES, exact_rank
from .poly import (
    HIDDEN_SLOT,
    Mono,
    SystemTemplate,
    augment,
    dump_system,
    mono_div,
    mono_mul,
    parse_system,
    sort_desc,
    unit_mono,
)

PLAN_VERSION = 1

# how a plan's eigenvalue maps to the hidden coordinate, by partition variant
ROOT_TRANSFORMS = {"v1": "u0", "v2": "-1/lambda"}

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
        if len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate column monomials")
        for poly_idx, mult in self.rows:
            if not 0 <= poly_idx < len(self.system.polys):
                raise ValueError(f"row {(poly_idx, mult)} names no polynomial of the system")

    @cached_property
    def _slot_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.system.slots()))

    @cached_property
    def _encoding(self) -> tuple[np.ndarray, ...]:
        """(row, column, term, slot id, constant) arrays of every cell a term
        fills, row by row.  Built on first use: the offline search keeps many
        layouts alive and checks few of them."""
        col_index = {m: j for j, m in enumerate(self.cols)}
        slot_ids = {name: i for i, name in enumerate(self._slot_names)}
        enc_rows, enc_cols, enc_terms, enc_slots, enc_consts = [], [], [], [], []
        for r, (poly_idx, mult) in enumerate(self.rows):
            for t_idx, term in enumerate(self.system.polys[poly_idx].terms):
                mono = mono_mul(mult, term.exps)
                j = col_index.get(mono)
                if j is None:
                    if self.project_missing:
                        continue
                    raise ValueError(
                        f"row {(poly_idx, mult)} produces monomial {mono} outside the column set"
                    )
                enc_rows.append(r)
                enc_cols.append(j)
                enc_terms.append(t_idx)
                if term.slot is None:
                    enc_slots.append(_SLOT_LITERAL)
                elif term.slot == HIDDEN_SLOT:
                    enc_slots.append(_SLOT_HIDDEN)
                else:
                    enc_slots.append(slot_ids[term.slot])
                enc_consts.append(term.const)
        ints = (np.array(a, dtype=np.int64) for a in (enc_rows, enc_cols, enc_terms, enc_slots))
        return (*ints, np.array(enc_consts, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    @cached_property
    def cells(self) -> tuple[tuple[int, int, int, int], ...]:
        """(row, column, polynomial, term) of every cell a term fills, row by
        row.  Built on demand: plan files and row-column removal read it."""
        rows, cols, terms = (a.tolist() for a in self._encoding[:3])
        return tuple((r, j, self.rows[r][0], t) for r, j, t in zip(rows, cols, terms))

    def instantiate_modp(self, p: int, values: dict[str, int]) -> np.ndarray:
        """Dense matrix over F_p; ``values`` maps every slot and 'u0' to ints."""
        lookup = np.empty(len(self._slot_names) + 2, dtype=np.int64)
        lookup[_SLOT_LITERAL + 2] = 1
        lookup[_SLOT_HIDDEN + 2] = values[HIDDEN_SLOT] % p
        for i, name in enumerate(self._slot_names):
            lookup[i + 2] = values[name] % p
        enc_rows, enc_cols, _, enc_slots, enc_consts = self._encoding
        consts = np.rint(enc_consts).astype(np.int64)
        if not np.array_equal(consts, enc_consts):
            raise ValueError("non-integer literal constants cannot enter the prime field")
        vals = (consts % p) * lookup[enc_slots + 2] % p
        out = np.zeros(self.shape, dtype=np.int64)
        out[enc_rows, enc_cols] = vals
        return out

    def instantiate(self, coeffs, literal, hidden) -> np.ndarray:
        """Matrix of one instance with the literal cells (the x_k of x_k - u0)
        scaled by ``literal`` and the u0 cells by ``hidden``: ``(1, u0)`` is
        the pencil M(u0) = A + u0*B, ``(1, 0)`` is A, and ``(0, 1)`` is A
        with B in the rows of the extra polynomial.  No two terms of a row share a
        column, so a cell scaled by 0 is written as a plain zero; ``+ 0.0``
        stores every zero as +0.0, like a cell no term writes.

        Slot values that are arrays of shape ``(T,)`` give the ``(T, rows,
        cols)`` stack of T instances, each member equal to the matrix of
        its instance alone."""
        names = self._slot_names
        try:
            batch = np.shape(coeffs[names[0]]) if names else ()
        except KeyError:
            raise MissingSlotError(names[0]) from None
        lookup = np.empty((len(names) + 2,) + batch, dtype=np.result_type(literal, hidden, 1.0))
        lookup[_SLOT_LITERAL + 2] = literal
        lookup[_SLOT_HIDDEN + 2] = hidden
        for i, name in enumerate(names):
            try:
                lookup[i + 2] = coeffs[name]
            except KeyError:
                raise MissingSlotError(name) from None
        enc_rows, enc_cols, _, enc_slots, enc_consts = self._encoding
        out = np.zeros(batch + self.shape, dtype=lookup.dtype)
        out[..., enc_rows, enc_cols] = enc_consts * lookup[enc_slots + 2].T + 0.0
        return out


@dataclass(frozen=True)
class RankCheckConfig:
    """Exact rank protocol over prime fields, one trial per (prime, assignment).

    A rank verdict is decided at the ``witness`` trial (``primes[0]``,
    assignment 0): full column rank there is a nonzero maximal minor of the
    integer-coefficient template, which certifies generic full rank, and only
    a deficient trial can be wrong (with probability <= deg/p).  A row-basis
    choice is not certified by one trial, so it needs every trial to agree.

    ``values_fn(prime, trial, seed) -> {slot: int}`` overrides the generic
    random assignment; problems whose coefficients obey algebraic relations
    supply one so rank decisions are made on the actual instance manifold.
    """

    primes: tuple[int, ...] = PRIMES[:3]
    assignments: int = 2
    seed: int = 0
    values_fn: object = None

    @property
    def witness(self) -> tuple[int, int]:
        """The (prime, assignment) trial that decides every rank verdict."""
        return self.primes[0], 0

    def instantiate(self, tm: TemplateMatrix, prime: int, trial: int) -> np.ndarray:
        """``tm`` over F_prime at the assignment of ``trial``: u0 and then
        every slot, in name order, drawn at random, or the slots from
        ``values_fn``."""
        rng = random.Random(f"rank:{self.seed}:{prime}:{trial}")
        values = {HIDDEN_SLOT: rng.randrange(1, prime)}
        structured = None if self.values_fn is None else self.values_fn(prime, trial, self.seed)
        for name in tm._slot_names:
            values[name] = rng.randrange(1, prime) if structured is None else structured[name]
        return tm.instantiate_modp(prime, values)

    def trials(self):
        for p in self.primes:
            for t in range(self.assignments):
                yield p, t


def has_full_column_rank(m: np.ndarray, p: int) -> bool:
    """Exact full-column-rank test of ``m`` over F_p.  For a template put
    over F_p at a rank config's witness, this is the template's verdict."""
    return exact_rank(m, p) == m.shape[1]


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
        if self.variant not in ROOT_TRANSFORMS:
            raise ValueError(f"unknown variant {self.variant!r}")
        n = self.template.system.n_vars
        if not (1 <= self.hidden_var <= n):
            raise ValueError(f"hidden variable index {self.hidden_var} out of range")
        if not 0 <= self.n_upper <= len(self.template.rows):
            raise ValueError(f"upper block of {self.n_upper} rows in a {len(self.template.rows)}-row matrix")
        e_k = unit_mono(n, self.hidden_var - 1)
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
            e_i = unit_mono(n, i)
            for m, j in pos.items():
                k = pos.get(mono_mul(m, e_i))
                if k is not None:
                    src.append(j)
                    dst.append(k)
        return free, np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), np.array(starts, dtype=np.intp)

    @cached_property
    def unpaired(self) -> tuple[int, ...]:
        """The variables (0-based) other than x_k that no pair in B1 recovers,
        whatever the instance: a layout with any cannot be solved."""
        free, src, _, starts = self.ratio_pairs
        counts = np.diff(starts, append=len(src)).tolist()
        return tuple(i for i, c in zip(free, counts) if c == 0)

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
) -> MatrixLayout:
    """Canonical layout: columns sorted descending within b1 and b2, upper
    rows grouped by polynomial, lower rows aligned with b1."""
    e_k = unit_mono(aug_system.n_vars, hidden_var - 1)
    b_set = frozenset(b_monos)
    t_last = multipliers[-1]
    if variant == "v1":
        b1_set = frozenset(t_last)
    else:
        b1_set = frozenset(mono_mul(t, e_k) for t in t_last)
    if not b1_set <= b_set:
        raise ValueError("b1 monomials escape the favourable set")
    b1 = sort_desc(b1_set)
    b2 = sort_desc(b_set - b1_set)
    rows = []
    for i in range(len(aug_system.polys) - 1):
        rows.extend((i, t) for t in sort_desc(multipliers[i]))
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
    seed: int
    delta: tuple[Fraction, ...] | None
    subset_mask: int | None
    deleted_rows: tuple[tuple[int, Mono], ...] = ()
    origin: str = "search"

    def __post_init__(self):
        rows, cols = self.layout.shape
        if rows != cols:
            raise ValueError(f"plan layout must be square, got {rows}x{cols}")
        if self.layout.n_b1 < 1:
            raise ValueError("plan layout has an empty eigenvalue block (n_b1 = 0)")

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
            "order": "grevlex",  # the one monomial order, see poly.sort_desc
            "variant": lay.variant,
            "x_k": lay.hidden_var,
            "delta": None if plan.delta is None else [str(d) for d in plan.delta],
            "subset_mask": plan.subset_mask,
            "n_solutions": plan.n_solutions,
            "origin": plan.origin,
            "root_transform": ROOT_TRANSFORMS[lay.variant],
        },
        "system": json.loads(dump_system(plan.base_system)),
        "monomials": {"b": _mono_list(lay.template.cols), "n_b1": lay.n_b1},
        "rows": [[p, list(m)] for p, m in lay.template.rows],
        "blocks": {"n_upper": lay.n_upper, "projected": lay.template.project_missing},
        "cells": [list(c) for c in lay.template.cells],
        "deleted_rows": [[p, list(m)] for p, m in plan.deleted_rows],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def plan_document(text: str):
    """Parse a plan file; whatever a missing or corrupt section raises while
    the caller reads the document becomes a PlanFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PlanFormatError(f"not a valid plan file: {e.msg}") from e
    try:
        yield doc
    except PlanFormatError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as e:
        raise PlanFormatError(f"plan file is missing or corrupts a section: {e}") from e


def json_field(value, name: str, *types: type):
    """A plan field whose JSON type is one of ``types``: a float, string or
    boolean standing in for an integer is corrupt."""
    if type(value) not in types:
        raise PlanFormatError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def json_mono(m) -> Mono:
    """A monomial of a plan file: a list of integer exponents."""
    return tuple(json_field(e, "exponent", int) for e in m)


def json_rows(rows) -> tuple[tuple[int, Mono], ...]:
    """Rows of a plan file: (polynomial index, multiplier monomial) pairs."""
    return tuple((json_field(p, "polynomial index", int), json_mono(m)) for p, m in rows)


def plan_from_json(text: str) -> SolverPlan:
    with plan_document(text) as doc:
        if doc["kind"] != "resultant":
            raise PlanFormatError(f"expected a resultant plan, got kind {doc['kind']!r}")
        if json_field(doc["version"], "version", int) != PLAN_VERSION:
            raise PlanFormatError(f"unsupported plan version {doc['version']}")
        meta = doc["meta"]
        if meta["order"] != "grevlex":
            raise PlanFormatError(f"unsupported monomial order {meta['order']!r}")
        base = parse_system(json.dumps(doc["system"]))
        x_k = json_field(meta["x_k"], "x_k", int)
        tm = TemplateMatrix(
            augment(base, x_k),
            tuple(json_mono(m) for m in doc["monomials"]["b"]),
            json_rows(doc["rows"]),
            json_field(doc["blocks"].get("projected", False), "projected", bool),
        )
        # the stored cell map must agree with the rows and columns it is built from
        if [list(c) for c in tm.cells] != doc["cells"]:
            raise PlanFormatError("cell map disagrees with rows/monomials sections")
        layout = MatrixLayout(
            tm,
            x_k,
            meta["variant"],
            json_field(doc["monomials"]["n_b1"], "n_b1", int),
            json_field(doc["blocks"]["n_upper"], "n_upper", int),
        )
        for name, value in (("n_solutions", layout.n_b1), ("root_transform", ROOT_TRANSFORMS[layout.variant])):
            if json_field(meta[name], name, type(value)) != value:
                raise PlanFormatError(f"meta.{name} is {meta[name]!r}, but the layout gives {value!r}")
        # the provenance must fit the augmented system, though nothing solves with it
        n, m_aug = base.n_vars, len(tm.system.polys)
        delta = meta["delta"]
        if delta is not None:
            delta = tuple(Fraction(json_field(d, "delta", str)) for d in delta)
            if len(delta) != n:
                raise PlanFormatError(f"meta.delta has {len(delta)} entries for {n} variables")
        subset_mask = json_field(meta["subset_mask"], "subset_mask", int, type(None))
        if subset_mask is not None and not 0 <= subset_mask < 2**m_aug:
            raise PlanFormatError(f"meta.subset_mask {subset_mask} is no subset of {m_aug} polynomials")
        deleted = json_rows(doc["deleted_rows"])
        for poly_idx, mult in deleted:
            if not 0 <= poly_idx < m_aug or len(mult) != n or min(mult) < 0:
                raise PlanFormatError(f"deleted row {(poly_idx, mult)} is no multiple of a polynomial of the system")
        if len(set(deleted)) != len(deleted) or not set(deleted).isdisjoint(tm.rows):
            raise PlanFormatError("deleted_rows repeats a row, or names a row the layout keeps")
        return SolverPlan(
            layout,
            json_field(meta["seed"], "seed", int),
            delta,
            subset_mask,
            deleted,
            json_field(meta.get("origin", "search"), "origin", str),
        )
