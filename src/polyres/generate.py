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
from .plan import MatrixLayout, RankCheckConfig, SolverPlan, TemplateMatrix, build_layout, has_full_column_rank
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
    passes one dict to several calls computes each sum once.  Within a
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
            q = sums[summands] = minkowski_sum(summands)
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


def _partition_failure(tm: TemplateMatrix, cfg: SearchConfig, rows, b1, n_upper: int,
                       full_rank: dict | None = None) -> str | None:
    """The first partition condition the ``rows`` x all-columns submatrix of
    ``tm`` fails, by its reason name, or None; ``b1`` is its B1 columns and
    the rows before ``n_upper`` its upper block, all index sets of ``tm``.
    Every polynomial keeps a row ("coverage"), the submatrix has full column
    rank ("column_rank"), and the upper rows have full rank on the columns
    outside B1 ("a12_rank"), so the Schur complement exists.  ``full_rank``
    memoizes full-rank verdicts by (system, rows)."""
    if len({tm.rows[r][0] for r in rows}) < len(tm.system.polys):
        return "coverage"
    rows = sorted(rows)
    if full_rank is None:
        full = has_full_column_rank(tm, None, cfg.rank, rows)
    else:
        key = (tm.system, tuple(tm.rows[r] for r in rows))
        full = full_rank.get(key)
        if full is None:
            full = full_rank[key] = has_full_column_rank(tm, None, cfg.rank, rows)
    if not full:
        return "column_rank"
    upper = [r for r in rows if r < n_upper]
    if not has_full_column_rank(tm, [c for c in range(len(tm.cols)) if c not in b1], cfg.rank, upper):
        return "a12_rank"
    return None


def partition_failure(layout: MatrixLayout, cfg: SearchConfig, full_rank: dict[tuple, bool]) -> str | None:
    """_partition_failure of a whole layout.  The v1 and v2 layouts of one
    set of multipliers share their rows and their columns up to order, so
    they share one ``full_rank`` verdict."""
    return _partition_failure(layout.template, cfg, range(layout.shape[0]), range(layout.n_b1),
                              layout.n_upper, full_rank)


def verify_partition(layout: MatrixLayout, cfg: SearchConfig) -> bool:
    """From-scratch partition test of a whole layout, with a fresh memo.  The
    pipeline does not call it; tests hold its index-set decisions to it on
    rebuilt layouts.  The lower-block structure (u0-cells forming -I for v1,
    x_k-cells forming I for v2) holds by layout construction."""
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
    rows, cols = set(range(len(tm.rows))), set(range(len(tm.cols)))
    deleted: list[tuple[int, Mono]] = []
    while True:
        col_order = sorted(cols)  # the order of a rebuilt layout's columns
        rng.shuffle(col_order)
        for c in col_order:
            rows_hit = tm.structural_rows_of_col(c)
            if not 0 < len(rows_hit) < len(rows):
                continue
            cols_hit = tm.structural_cols_of_rows(rows_hit)
            if any(not tm.structural_rows_of_col(c2) <= rows_hit for c2 in cols_hit):
                continue
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


def squarify(cand: FavourableCandidate, cfg: SearchConfig) -> SolverPlan:
    """Remove extra rows until the matrix is square, lower block first.

    Each trial removal is decided by _partition_failure on index sets of
    the candidate's one template; a removed lower-block row moves its column
    from B1 into A12.  Dead ends restart with a fresh removal order, at most
    SQUARIFY_RETRIES times; the plan's layout is built once, when the
    matrix is square.
    """
    tm = cand.layout.template
    n_upper, n_cols = cand.layout.n_upper, len(tm.cols)
    m_last = len(tm.system.polys) - 1
    row_id = {row: r for r, row in enumerate(tm.rows)}
    mults = [sorted(t) for t in cand.layout.multiplier_sets()]
    for attempt in range(SQUARIFY_RETRIES):
        rng = random.Random(f"squarify:{cfg.seed}:{attempt}")
        # surviving rows, and B1 by column: lower row n_upper + j owns column
        # j, and an upper row r owns none (r - n_upper < 0)
        rows, b1 = set(range(len(tm.rows))), set(range(cand.layout.n_b1))
        removed: list[tuple[int, Mono]] = []
        tried: set[tuple[int, Mono]] = set()
        while len(rows) > n_cols:
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
            r = row_id[(poly_idx, mult)]
            trial_rows, trial_b1 = rows - {r}, b1 - {r - n_upper}
            if _partition_failure(tm, cfg, trial_rows, trial_b1, n_upper) is None:
                rows, b1 = trial_rows, trial_b1
                removed.append((poly_idx, mult))
        else:
            # full column rank keeps rows >= columns, so the matrix is square
            layout = _without(cand.layout, removed, ())
            return SolverPlan(layout, cfg.seed, cand.delta, cand.subset_mask, cand.deleted + tuple(removed))
    raise SquarifyExhausted(f"no valid removal sequence after {SQUARIFY_RETRIES} attempts")


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
