"""Offline solver generation.

The search augments the input system with an extra polynomial x_k - u0,
sweeps subsets of Newton polytopes and displacement vectors to collect
favourable monomial sets, verifies that the coefficient matrix block
partitions into an eigenvalue problem, then shrinks the matrix by
row-column removal and row removal until it is square.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .lattice import Displacement, convex_hull, displacement_grid, lattice_points, minkowski_sum, unit_simplex
from .linalg import PRIMES
from .plan import MatrixLayout, RankCheckConfig, SolverPlan, build_layout, has_full_column_rank
from .poly import (
    HIDDEN_SLOT,
    MonomialOrder,
    Mono,
    PolynomialTemplate,
    SystemTemplate,
    Term,
    extend_system,
    support,
)


class NoSolverError(RuntimeError):
    """The search produced no candidate surviving all conditions."""

    def __init__(self, reasons: dict[str, int]):
        self.reasons = dict(reasons)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "empty search space"
        super().__init__(f"no solver candidate survived ({detail})")


class SquarifyExhausted(RuntimeError):
    """No row-removal sequence kept the partition valid within the retry cap."""


@dataclass(frozen=True)
class SearchConfig:
    delta_magnitudes: tuple[Fraction, ...] = (Fraction(1, 10), Fraction(1, 1000))
    max_subset_size: int | None = None
    max_subsets: int | None = None
    order: MonomialOrder = MonomialOrder()
    variants: tuple[str, ...] = ("v1", "v2")
    seed: int = 0
    rank: RankCheckConfig = RankCheckConfig(primes=PRIMES[:3], assignments=2)
    squarify_retries: int = 32

    def fresh_rank(self, salt: int) -> RankCheckConfig:
        return replace(self.rank, seed=self.rank.seed + salt)


@dataclass(frozen=True)
class FavourableCandidate:
    """A monomial set passing the row-count, coverage and rank conditions."""

    aug_system: SystemTemplate
    hidden_var: int
    variant: str
    delta: tuple[Fraction, ...]
    subset_mask: int
    b_monos: tuple[Mono, ...]  # canonical sorted tuple, unordered otherwise
    multipliers: tuple[frozenset[Mono], ...]

    @property
    def n_b1(self) -> int:
        return len(self.multipliers[-1])

    def key(self):
        return (
            self.hidden_var,
            self.variant,
            self.b_monos,
            tuple(tuple(sorted(t)) for t in self.multipliers),
        )


def augment(system: SystemTemplate, k: int) -> SystemTemplate:
    """Append the extra polynomial x_k - u0 with the reserved hidden slot."""
    if not (1 <= k <= system.n_vars):
        raise ValueError(f"hidden variable index {k} outside 1..{system.n_vars}")
    n = system.n_vars
    e_k = tuple(1 if i == k - 1 else 0 for i in range(n))
    zero = tuple(0 for _ in range(n))
    extra = PolynomialTemplate((Term(None, e_k, 1.0), Term(HIDDEN_SLOT, zero, -1.0)))
    return SystemTemplate(n, system.var_names, system.polys + (extra,))


def _subset_masks(m_aug: int, cfg: SearchConfig):
    masks = []
    for size in range(1, m_aug + 1):
        if cfg.max_subset_size is not None and size > cfg.max_subset_size:
            break
        for combo in itertools.combinations(range(m_aug), size):
            masks.append(sum(1 << i for i in combo))
    if cfg.max_subsets is not None:
        masks = masks[: cfg.max_subsets]
    return masks


def search_candidates(aug_system: SystemTemplate, hidden_var: int, cfg: SearchConfig,
                      reasons: dict[str, int] | None = None) -> list[FavourableCandidate]:
    """Sweep (subset, displacement) pairs and emit favourable candidates.

    The Minkowski sum always includes the unit simplex; both set-partition
    variants are emitted when their A12 block has full column rank.
    """
    reasons = reasons if reasons is not None else {}

    def tick(name: str):
        reasons[name] = reasons.get(name, 0) + 1

    n = aug_system.n_vars
    m_aug = len(aug_system.polys)
    polytopes = [convex_hull(support(f)) for f in aug_system.polys]
    np0 = unit_simplex(n)
    deltas: list[Displacement] = []
    for mag in cfg.delta_magnitudes:
        deltas.extend(displacement_grid(n, Fraction(mag)))

    out: list[FavourableCandidate] = []
    seen: set = set()
    ext_cache: dict[frozenset[Mono], tuple] = {}
    rank_cache: dict[tuple, bool] = {}

    for mask in _subset_masks(m_aug, cfg):
        q = minkowski_sum([np0] + [polytopes[i] for i in range(m_aug) if mask >> i & 1])
        b_cache: dict[tuple, frozenset[Mono]] = {}
        for delta in deltas:
            pts = b_cache.get(delta.delta)
            if pts is None:
                pts = frozenset(lattice_points(q, delta))
                b_cache[delta.delta] = pts
            if not pts:
                tick("empty_lattice")
                continue
            ext = ext_cache.get(pts)
            if ext is None:
                ext = extend_system(aug_system.polys, pts)
                ext_cache[pts] = ext
            b_set = ext.monomials
            t_sets = ext.multipliers
            if min(len(t) for t in t_sets) == 0:
                tick("coverage")
                continue
            if sum(len(t) for t in t_sets) < len(b_set):
                tick("row_count")
                continue
            b_sorted = tuple(sorted(b_set))
            base_key = (hidden_var, b_sorted, tuple(tuple(sorted(t)) for t in t_sets))
            full_rank = rank_cache.get(base_key)
            layout_v1 = None
            if full_rank is None:
                layout_v1 = build_layout(aug_system, hidden_var, "v1", b_set, t_sets, cfg.order)
                full_rank = has_full_column_rank(layout_v1.template, None, cfg.rank)
                rank_cache[base_key] = full_rank
            if not full_rank:
                tick("column_rank")
                continue
            for variant in cfg.variants:
                cand = FavourableCandidate(
                    aug_system, hidden_var, variant, delta.delta, mask, b_sorted, t_sets
                )
                if cand.key() in seen:
                    continue
                layout = (
                    layout_v1
                    if variant == "v1" and layout_v1 is not None
                    else build_layout(aug_system, hidden_var, variant, b_set, t_sets, cfg.order)
                )
                if not has_full_column_rank(
                    layout.template, layout.a12_cols(), cfg.rank, layout.upper_row_ids()
                ):
                    tick("a12_rank")
                    continue
                seen.add(cand.key())
                out.append(cand)
    if not out and not reasons:
        reasons["empty_search_space"] = 1
    return out


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    layout: MatrixLayout | None
    reason: str = ""


def recovery_pairs_exist(layout: MatrixLayout) -> bool:
    """Instance-independent solvability of the eigenvector read-off: every
    non-hidden variable needs a pair (m, x_i * m) inside B1."""
    _, src, _, starts = layout.ratio_pairs
    return bool(np.all(np.diff(starts, append=len(src)) > 0))


def verify_partition(cand: FavourableCandidate, cfg: SearchConfig) -> PartitionCheck:
    """Build the block layout and verify the Schur complement exists.

    The lower-block structure (u0-cells forming -I for v1, x_k-cells forming
    I for v2) holds by layout construction; what can genuinely fail is the
    full column rank of A12.
    """
    layout = build_layout(
        cand.aug_system, cand.hidden_var, cand.variant, cand.b_monos, cand.multipliers, cfg.order
    )
    if not has_full_column_rank(layout.template, layout.a12_cols(), cfg.rank, layout.upper_row_ids()):
        return PartitionCheck(False, None, "no Schur complement: A12 rank deficient")
    return PartitionCheck(True, layout)


def _selection_key(cand: FavourableCandidate, layout: MatrixLayout):
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


def select_best(scored: list[tuple[FavourableCandidate, MatrixLayout]]):
    """Smallest eigenproblem first, then smallest matrix, then layout order."""
    if not scored:
        raise ValueError("no candidates to select from")
    return min(scored, key=lambda cl: _selection_key(*cl))


def _conditions_hold(cand: FavourableCandidate, cfg: SearchConfig) -> tuple[bool, MatrixLayout | None]:
    t_sets = cand.multipliers
    if min(len(t) for t in t_sets) == 0:
        return False, None
    if sum(len(t) for t in t_sets) < len(cand.b_monos):
        return False, None
    layout = build_layout(
        cand.aug_system, cand.hidden_var, cand.variant, cand.b_monos, t_sets, cfg.order
    )
    if not has_full_column_rank(layout.template, None, cfg.rank):
        return False, None
    if not has_full_column_rank(layout.template, layout.a12_cols(), cfg.rank, layout.upper_row_ids()):
        return False, None
    return True, layout


def reduce_rowcol(
    cand: FavourableCandidate, layout: MatrixLayout, cfg: SearchConfig
) -> tuple[FavourableCandidate, MatrixLayout, list[tuple[int, Mono]]]:
    """Remove column groups and their supporting rows while the favourable
    conditions and the block partition survive; loops to a fixpoint.

    A removal is attempted only when the surviving rows keep their full
    monomial support, i.e. every removed column is touched exclusively by
    removed rows; anything else would silently change the polynomials the
    rows stand for.
    """
    rng = random.Random(f"rowcol:{cfg.seed}")
    deleted: list[tuple[int, Mono]] = []
    while True:
        tm = layout.template
        p, eps = tm.shape
        col_order = list(range(eps))
        rng.shuffle(col_order)
        accepted = False
        for c in col_order:
            rows_hit = tm.structural_rows_of_col(c)
            if not rows_hit or len(rows_hit) == p:
                continue
            cols_hit = tm.structural_cols_of_rows(rows_hit)
            if any(not tm.structural_rows_of_col(c2) <= rows_hit for c2 in cols_hit):
                continue
            s, l = len(rows_hit), len(cols_hit)
            if p - s < eps - l or eps - l == 0:
                continue
            removed_multipliers = [tm.rows[r] for r in sorted(rows_hit)]
            new_t = list(cand.multipliers)
            for poly_idx, mult in removed_multipliers:
                new_t[poly_idx] = new_t[poly_idx] - {mult}
            removed_monos = {tm.cols[c2] for c2 in cols_hit}
            new_b = tuple(sorted(frozenset(cand.b_monos) - removed_monos))
            trial = replace(cand, b_monos=new_b, multipliers=tuple(new_t))
            ok, new_layout = _conditions_hold(trial, cfg)
            if not ok:
                continue
            assert new_layout.n_b1 <= layout.n_b1, "row-column removal grew B1"
            cand, layout = trial, new_layout
            deleted.extend(removed_multipliers)
            accepted = True
            break
        if not accepted:
            return cand, layout, deleted


def squarify(
    cand: FavourableCandidate,
    layout: MatrixLayout,
    cfg: SearchConfig,
) -> SolverPlan:
    """Remove extra rows until the matrix is square, lower block first.

    Each removal is re-validated against the favourable conditions and the
    partition; dead ends restart with a fresh removal order up to the
    configured retry cap.
    """
    base_deleted: list[tuple[int, Mono]] = []
    m_last = len(cand.aug_system.polys) - 1
    for attempt in range(cfg.squarify_retries):
        rng = random.Random(f"squarify:{cfg.seed}:{attempt}")
        cur, cur_layout = cand, layout
        deleted = list(base_deleted)
        tried: set[tuple[int, Mono]] = set()
        dead = False
        while cur_layout.shape[0] > cur_layout.shape[1]:
            pool = sorted(t for t in cur.multipliers[m_last] if (m_last, t) not in tried)
            if pool:
                poly_idx, mult = m_last, pool[rng.randrange(len(pool))]
            else:
                open_polys = [
                    i
                    for i in range(m_last)
                    if any((i, t) not in tried for t in cur.multipliers[i])
                ]
                if not open_polys:
                    dead = True
                    break
                poly_idx = open_polys[rng.randrange(len(open_polys))]
                pool = sorted(t for t in cur.multipliers[poly_idx] if (poly_idx, t) not in tried)
                mult = pool[rng.randrange(len(pool))]
            tried.add((poly_idx, mult))
            new_t = list(cur.multipliers)
            new_t[poly_idx] = new_t[poly_idx] - {mult}
            trial = replace(cur, multipliers=tuple(new_t))
            ok, new_layout = _conditions_hold(trial, cfg)
            if not ok:
                continue
            cur, cur_layout = trial, new_layout
            deleted.append((poly_idx, mult))
        if not dead and cur_layout.shape[0] == cur_layout.shape[1]:
            return SolverPlan(
                cur_layout,
                cfg.order.kind,
                cfg.seed,
                cur.delta,
                cur.subset_mask,
                tuple(deleted),
            )
    raise SquarifyExhausted(
        f"no valid removal sequence after {cfg.squarify_retries} attempts"
    )


@dataclass(frozen=True)
class GenerateOutcome:
    plan: SolverPlan
    candidates_seen: int
    reasons: dict[str, int]


def generate_plan(system: SystemTemplate, cfg: SearchConfig | None = None) -> GenerateOutcome:
    """Full offline pipeline over every choice of hidden variable."""
    cfg = cfg or SearchConfig()
    reasons: dict[str, int] = {}
    candidates: list[FavourableCandidate] = []
    for k in range(1, system.n_vars + 1):
        aug = augment(system, k)
        candidates.extend(search_candidates(aug, k, cfg, reasons))
    if not candidates:
        raise NoSolverError(reasons)
    scored = []
    for cand in candidates:
        check = verify_partition(cand, cfg)
        if check.ok:
            scored.append((cand, check.layout))
        else:
            reasons["partition"] = reasons.get("partition", 0) + 1
    if not scored:
        raise NoSolverError(reasons)
    scored.sort(key=lambda cl: _selection_key(*cl))
    for cand, layout in scored:
        if not recovery_pairs_exist(layout):
            reasons["unrecoverable_b1"] = reasons.get("unrecoverable_b1", 0) + 1
            continue
        reduced_cand, reduced_layout, deleted = reduce_rowcol(cand, layout, cfg)
        try:
            plan = squarify(reduced_cand, reduced_layout, cfg)
        except SquarifyExhausted:
            reasons["squarify_exhausted"] = reasons.get("squarify_exhausted", 0) + 1
            continue
        if not recovery_pairs_exist(plan.layout):
            # row removal can strip the pairs the eigenvector read-off needs
            reasons["unrecoverable_b1"] = reasons.get("unrecoverable_b1", 0) + 1
            continue
        plan = SolverPlan(
            plan.layout,
            plan.order_kind,
            plan.seed,
            plan.delta,
            plan.subset_mask,
            tuple(deleted) + plan.deleted_rows,
        )
        return GenerateOutcome(plan, len(candidates), reasons)
    raise NoSolverError(reasons)
