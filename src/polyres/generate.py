"""Offline solver generation.

The search augments the input system with an extra polynomial x_k - u0 and
sweeps subsets of Newton polytopes and displacement vectors to collect
favourable monomial sets.  The candidates are then taken best first, by the
size of their eigenproblem and matrix: the first whose coefficient matrix
block partitions into an eigenvalue problem is shrunk by row-column removal
and row removal until it is square.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .lattice import (
    LatticePolytope,
    convex_hull,
    displacement_grid,
    lattice_points,
    minkowski_sum,
    shifted_offsets,
    unit_simplex,
)
from .linalg import modp_left_kernel
from .plan import MatrixLayout, RankCheckConfig, SolverPlan, build_layout, has_full_column_rank
from .poly import Mono, SystemTemplate, augment, extend_system, support


class NoSolverError(RuntimeError):
    """The search produced no candidate surviving all conditions."""

    def __init__(self, reasons: dict[str, int]):
        self.reasons = dict(reasons)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "empty search space"
        super().__init__(f"no solver candidate survived ({detail})")


class SquarifyExhausted(RuntimeError):
    """No row-removal sequence kept the partition valid within the retry cap."""


SQUARIFY_RETRIES = 32


@dataclass(frozen=True)
class SearchConfig:
    delta_magnitudes: tuple[Fraction, ...] = (Fraction(1, 10), Fraction(1, 1000))
    max_subset_size: int | None = None
    variants: tuple[str, ...] = ("v1", "v2")
    seed: int = 0
    rank: RankCheckConfig = RankCheckConfig()


@dataclass(frozen=True)
class FavourableCandidate:
    """A favourable monomial set as a block layout that passed the coverage
    and row-count conditions, with the rows the reduction stages have removed
    from it so far.  Its rank conditions are not checked yet."""

    layout: MatrixLayout
    delta: tuple[Fraction, ...]
    subset_mask: int
    deleted: tuple[tuple[int, Mono], ...] = ()


def _tick(reasons: dict[str, int], name: str):
    reasons[name] = reasons.get(name, 0) + 1


def _subset_masks(m_aug: int, cfg: SearchConfig):
    for size in range(1, m_aug + 1):
        if cfg.max_subset_size is not None and size > cfg.max_subset_size:
            break
        for combo in itertools.combinations(range(m_aug), size):
            yield sum(1 << i for i in combo)


def search_candidates(aug_system: SystemTemplate, hidden_var: int, cfg: SearchConfig,
                      reasons: dict[str, int] | None = None,
                      sums: dict[tuple[LatticePolytope, ...], LatticePolytope] | None = None,
                      ) -> list[FavourableCandidate]:
    """Sweep (subset, displacement) pairs and emit unchecked candidates.

    The Minkowski sum always includes the unit simplex.  A pair is rejected
    only by counts: an empty lattice, an empty T_i (coverage) or fewer rows
    than columns.  The first pair that yields a set of multipliers T_i emits
    one layout per variant; later pairs with the same T_i emit nothing.
    ``sums`` maps summand tuples to their Minkowski sums; a caller that
    passes one dict to several calls computes each sum once, from the sum
    of its summands but the last when that is known.  Within a
    subset, displacements with equal shifted offsets share one lattice
    enumeration.
    """
    reasons = reasons if reasons is not None else {}
    sums = sums if sums is not None else {}
    n = aug_system.n_vars
    m_aug = len(aug_system.polys)
    polytopes = [convex_hull(support(f)) for f in aug_system.polys]
    np0 = unit_simplex(n)
    # every grid holds the zero vector: visit each distinct displacement once
    grids = (displacement_grid(n, Fraction(mag)) for mag in cfg.delta_magnitudes)
    deltas = list(dict.fromkeys(d for grid in grids for d in grid))

    out: list[FavourableCandidate] = []
    ext_cache: dict[frozenset[Mono], tuple] = {}
    # the multiplier sets fix B, and hidden_var is fixed within this call
    emitted: set[tuple[frozenset[Mono], ...]] = set()

    for mask in _subset_masks(m_aug, cfg):
        summands = (np0, *(polytopes[i] for i in range(m_aug) if mask >> i & 1))
        q = sums.get(summands)
        if q is None:
            # minkowski_sum folds left, so a cached prefix sum is its first step
            prefix = sums.get(summands[:-1])
            q = sums[summands] = minkowski_sum(summands if prefix is None else (prefix, summands[-1]))
        point_sets: dict[tuple | None, frozenset] = {}
        for delta in deltas:
            offsets = shifted_offsets(q, delta)
            pts = point_sets.get(offsets)
            if pts is None:
                pts = point_sets[offsets] = frozenset(lattice_points(q, delta))
            if not pts:
                _tick(reasons, "empty_lattice")
                continue
            ext = ext_cache.get(pts)
            if ext is None:
                ext = extend_system(aug_system.polys, pts)
                ext_cache[pts] = ext
            b_set = ext.monomials
            t_sets = ext.multipliers
            if min(len(t) for t in t_sets) == 0:
                _tick(reasons, "coverage")
                continue
            if sum(len(t) for t in t_sets) < len(b_set):
                _tick(reasons, "row_count")
                continue
            if t_sets in emitted:
                continue
            emitted.add(t_sets)
            for variant in cfg.variants:
                layout = build_layout(aug_system, hidden_var, variant, b_set, t_sets)
                out.append(FavourableCandidate(layout, delta, mask))
    if not out and not reasons:
        reasons["empty_search_space"] = 1
    return out


def recovery_pairs_exist(layout: MatrixLayout) -> bool:
    """Instance-independent solvability of the eigenvector read-off: every
    non-hidden variable needs a pair (m, x_i * m) inside B1."""
    _, src, _, starts = layout.ratio_pairs
    return bool(np.all(np.diff(starts, append=len(src)) > 0))


def partition_failure(layout: MatrixLayout, cfg: SearchConfig, full_rank: dict[tuple, bool]) -> str | None:
    """The first partition condition ``layout`` fails, by its reason name,
    or None.  Every polynomial keeps a row ("coverage"), the matrix has full
    column rank ("column_rank"), and the upper rows have full rank on the
    columns outside B1 ("a12_rank"), so the Schur complement exists.
    ``full_rank`` memoizes full-rank verdicts by (system, rows): the v1 and
    v2 layouts of one set of multipliers share their rows and their columns
    up to order, so they share one verdict."""
    tm = layout.template
    if len({poly_idx for poly_idx, _ in tm.rows}) < len(tm.system.polys):
        return "coverage"
    key = (tm.system, tm.rows)
    full = full_rank.get(key)
    if full is None:
        full = full_rank[key] = has_full_column_rank(tm, None, cfg.rank)
    if not full:
        return "column_rank"
    a12 = list(range(layout.n_b1, len(tm.cols)))
    if not has_full_column_rank(tm, a12, cfg.rank, list(range(layout.n_upper))):
        return "a12_rank"
    return None


def verify_partition(layout: MatrixLayout, cfg: SearchConfig) -> bool:
    """From-scratch partition test of a whole layout, with a fresh memo.  The
    pipeline does not call it; tests hold the reduction stages' verdicts to
    it on rebuilt layouts.  The lower-block structure (u0-cells forming -I
    for v1, x_k-cells forming I for v2) holds by layout construction."""
    return partition_failure(layout, cfg, {}) is None


def _selection_key(layout: MatrixLayout):
    """Smallest eigenproblem first, then smallest matrix, then layout order."""
    p, eps = layout.shape
    return (
        layout.n_b1,
        p * eps,
        p,
        layout.variant,
        layout.hidden_var,
        layout.template.cols,
        layout.template.rows,
    )


def _without(layout: MatrixLayout, rows, cols) -> MatrixLayout:
    """Canonical layout of the same construction with the multiples ``rows``
    and the monomials ``cols`` removed."""
    t_sets = layout.multiplier_sets()
    for poly_idx, mult in rows:
        t_sets[poly_idx].discard(mult)
    b_set = frozenset(layout.template.cols).difference(cols)
    return build_layout(layout.template.system, layout.hidden_var, layout.variant, b_set, t_sets)


def reduce_rowcol(cand: FavourableCandidate, cfg: SearchConfig) -> FavourableCandidate:
    """Remove column groups and their supporting rows while every polynomial
    keeps a row; loops to a fixpoint.  ``cand`` must pass the partition test.

    A group is the rows of one column, taken only when no other row touches
    the group's columns; anything else would silently change the polynomials
    the rows stand for.  Such a group is a diagonal block of the matrix, so
    the rest keeps full column rank and full rank of A12, and only coverage
    can refuse it.  A surviving column meets only surviving rows; the
    result's layout is built once, if anything went.
    """
    rng = random.Random(f"rowcol:{cfg.seed}")
    tm = cand.layout.template
    # the group of each column that has one: its rows and the columns they
    # touch, when no other row touches those; removals never change it
    rows_of = [set() for _ in tm.cols]
    cols_of = [set() for _ in tm.rows]
    for r, c, _, _ in tm.cells:
        rows_of[c].add(r)
        cols_of[r].add(c)
    groups = {}
    for c, rows_hit in enumerate(rows_of):
        if rows_hit and all(rows_of[c2] <= rows_hit for r in rows_hit for c2 in cols_of[r]):
            groups[c] = rows_hit, set().union(*(cols_of[r] for r in rows_hit))
    rows, cols = set(range(len(tm.rows))), set(range(len(tm.cols)))
    deleted: list[tuple[int, Mono]] = []
    while True:
        col_order = sorted(cols)  # the order of a rebuilt layout's columns
        rng.shuffle(col_order)
        for c in col_order:
            if c not in groups:
                continue
            rows_hit, cols_hit = groups[c]
            if len({tm.rows[r][0] for r in rows - rows_hit}) == len(tm.system.polys):
                rows -= rows_hit
                cols -= cols_hit
                deleted.extend(tm.rows[r] for r in sorted(rows_hit))
                break
        else:
            break
    if deleted:
        layout = _without(cand.layout, deleted, [m for c, m in enumerate(tm.cols) if c not in cols])
        cand = replace(cand, layout=layout, deleted=cand.deleted + tuple(deleted))
    return cand


def _restrict(k: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """Basis of the vectors of span ``k`` on which a linear form is zero,
    given its values ``d`` on the rows of ``k`` (not all zero): one pivot
    step on the first row where it is nonzero, which is then dropped."""
    i = int(np.flatnonzero(d)[0])
    k = (k - (d * pow(int(d[i]), -1, p) % p)[:, None] * k[i] % p) % p
    return np.delete(k, i, axis=0)


def _remove_row(m: np.ndarray, k1: np.ndarray, k2: np.ndarray, r: int, n_upper: int, p: int):
    """Trial removal of row ``r`` of ``m``, over F_p, from a partition that
    holds: ``k1`` is the left kernel of the surviving rows x all columns
    and ``k2`` that of the surviving upper rows x the columns outside B1,
    both as vectors over all rows of ``m``, zero at removed ones.

    The rest keeps full column rank exactly when some vector of ``k1`` is
    nonzero at r.  An upper row keeps A12's full rank the same way in
    ``k2``; a lower row moves its B1 column j = r - n_upper into A12, which
    keeps full rank exactly when some vector of ``k2`` is not orthogonal to
    that column.  Returns the rank condition the removal breaks and the
    kernels unchanged, or None and the kernels of the rest.
    """
    d1 = k1[:, r]
    if not d1.any():
        return "column_rank", k1, k2
    d2 = k2[:, r] if r < n_upper else (k2 * m[:n_upper, r - n_upper] % p).sum(axis=1) % p
    if not d2.any():
        return "a12_rank", k1, k2
    return None, _restrict(k1, d1, p), _restrict(k2, d2, p)


def _square_removals(cand: FavourableCandidate, cfg: SearchConfig) -> list[tuple[int, Mono]]:
    """The rows squarify removes from a candidate with more rows than
    columns, in removal order."""
    tm = cand.layout.template
    n_upper, n_b1, n_cols = cand.layout.n_upper, cand.layout.n_b1, len(tm.cols)
    m_last = len(tm.system.polys) - 1
    row_id = {row: r for r, row in enumerate(tm.rows)}
    mults = [sorted(t) for t in cand.layout.multiplier_sets()]
    p, trial = cfg.rank.witness
    m = cfg.rank.instantiate(tm, p, trial)
    kernels = modp_left_kernel(m, p), modp_left_kernel(m[:n_upper, n_b1:], p)
    # no removal mends a failed partition; with full column rank, a left
    # kernel has one vector per extra row
    if (0 in map(len, mults) or len(kernels[0]) != len(tm.rows) - n_cols
            or len(kernels[1]) != n_upper - (n_cols - n_b1)):
        raise SquarifyExhausted("the candidate fails its partition")
    for attempt in range(SQUARIFY_RETRIES):
        rng = random.Random(f"squarify:{cfg.seed}:{attempt}")
        k1, k2 = kernels
        left = [len(t) for t in mults]  # surviving rows of each polynomial
        removed: list[tuple[int, Mono]] = []
        tried: set[tuple[int, Mono]] = set()
        while len(k1):  # until the matrix is square
            pool = [t for t in mults[m_last] if (m_last, t) not in tried]
            if pool:
                poly_idx, mult = m_last, pool[rng.randrange(len(pool))]
            else:
                open_polys = [i for i in range(m_last) if any((i, t) not in tried for t in mults[i])]
                if not open_polys:
                    break
                poly_idx = open_polys[rng.randrange(len(open_polys))]
                pool = [t for t in mults[poly_idx] if (poly_idx, t) not in tried]
                mult = pool[rng.randrange(len(pool))]
            tried.add((poly_idx, mult))
            if left[poly_idx] == 1:
                continue  # coverage
            failure, k1, k2 = _remove_row(m, k1, k2, row_id[(poly_idx, mult)], n_upper, p)
            if failure is None:
                left[poly_idx] -= 1
                removed.append((poly_idx, mult))
        else:
            return removed
    raise SquarifyExhausted(f"no valid removal sequence after {SQUARIFY_RETRIES} attempts")


def squarify(cand: FavourableCandidate, cfg: SearchConfig) -> SolverPlan:
    """Remove extra rows until the matrix is square, lower block first.

    The candidate is instantiated once, at the rank config's witness, and
    each trial removal is decided there by _remove_row on two left kernels
    and by a count for coverage: the verdicts partition_failure gives on
    the rebuilt trial layout, with no rank check.  A removed lower-block
    row moves its column from B1 into A12.  Dead ends restart with a fresh
    removal order, at most SQUARIFY_RETRIES times; the plan's layout is
    built once, when the matrix is square.  A tall candidate that fails
    its partition keeps failing it whatever is removed, so it is exhausted
    at once.
    """
    rows, cols = cand.layout.shape
    removed = _square_removals(cand, cfg) if rows > cols else []
    layout = _without(cand.layout, removed, ())
    return SolverPlan(layout, cfg.seed, cand.delta, cand.subset_mask, cand.deleted + tuple(removed))


@dataclass(frozen=True)
class GenerateOutcome:
    plan: SolverPlan
    candidates_seen: int
    reasons: dict[str, int]


def generate_plan(system: SystemTemplate, cfg: SearchConfig | None = None) -> GenerateOutcome:
    """Full offline pipeline over every choice of hidden variable.

    Every candidate is laid out first and sorted by ``_selection_key``,
    which needs no rank check.  The candidates are then checked in that
    order, partition first, then recovery pairs and the reduction, and the
    first that passes them all is the plan.  Rank verdicts are
    deterministic, so this is the plan an exhaustive check would select.
    ``candidates_seen`` counts the candidates whose partition was checked.

    Only the summand x_k - u0 differs between hidden variables, so the
    Minkowski sums of subsets without it are computed once for all k.
    """
    cfg = cfg or SearchConfig()
    reasons: dict[str, int] = {}
    sums: dict[tuple[LatticePolytope, ...], LatticePolytope] = {}
    candidates: list[FavourableCandidate] = []
    for k in range(1, system.n_vars + 1):
        candidates.extend(search_candidates(augment(system, k), k, cfg, reasons, sums))
    candidates.sort(key=lambda c: _selection_key(c.layout))
    full_rank: dict[tuple, bool] = {}
    for seen, cand in enumerate(candidates, 1):
        failure = partition_failure(cand.layout, cfg, full_rank)
        if failure is None and not recovery_pairs_exist(cand.layout):
            failure = "unrecoverable_b1"
        if failure is not None:
            _tick(reasons, failure)
            continue
        try:
            plan = squarify(reduce_rowcol(cand, cfg), cfg)
        except SquarifyExhausted:
            _tick(reasons, "squarify_exhausted")
            continue
        if not recovery_pairs_exist(plan.layout):
            # row removal can strip the pairs the eigenvector read-off needs
            _tick(reasons, "unrecoverable_b1")
            continue
        return GenerateOutcome(plan, seen, reasons)
    raise NoSolverError(reasons)
