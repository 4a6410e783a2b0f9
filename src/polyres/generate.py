"""Offline solver generation.

The search augments the input system with an extra polynomial x_k - u0 and,
in one pass over every hidden variable x_k, sweeps subsets of Newton
polytopes and displacement vectors to collect favourable monomial sets.
The candidates are then taken best first, by the size of their eigenproblem
and matrix: the first whose coefficient matrix block partitions into an
eigenvalue problem is shrunk by row-column removal and row removal until it
is square.  Monomial translates of a candidate share its verdict, so the
sweep emits one candidate per translation class and variant, the member
of smallest shift, and names its place in the order from mask counts,
with no monomial set built.  Rank verdicts are memoized by rows, which
the v1 and v2 layouts of one set of multipliers share.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import (
    LatticeBox,
    LatticePolytope,
    convex_hull,
    displacement_grid,
    lattice_points,
    minkowski_sum,
    unit_simplex,
)
from .linalg import modp_left_kernel
from .plan import ROOT_TRANSFORMS, MatrixLayout, RankCheckConfig, SolverPlan, build_layout, has_full_column_rank
from .poly import Mono, SystemTemplate, augment, extend_system, extension_at, extension_monomials, support


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

    def __post_init__(self):
        names = set(self.variants)
        if not names or len(names) < len(self.variants) or not names <= ROOT_TRANSFORMS.keys():
            raise ValueError(f"variants must be one or more distinct names from {sorted(ROOT_TRANSFORMS)}, got {self.variants!r}")


@dataclass(frozen=True)
class FavourableCandidate:
    """A favourable monomial set as a block layout that passed the coverage
    and row-count conditions, with the rows the reduction stages have removed
    from it so far.  Its rank conditions are not checked yet."""

    layout: MatrixLayout
    delta: tuple[Fraction, ...]
    subset_mask: int
    deleted: tuple[tuple[int, Mono], ...] = ()


@dataclass(frozen=True, eq=False)
class SweptCandidate:
    """A candidate as the sweep emits it, not laid out yet.

    ``prefix`` is the prefix of ``_selection_key`` its multiplier sets fix,
    (|T_last|, Σ|T_i|·|B|, Σ|T_i|, variant, k), read off mask counts.  The
    rest is what ``laid_out`` reads: the augmented system, the lattice box,
    the T_i masks and the union of mon(F') on it, and the row.  Equality is
    identity: the masks are arrays."""

    prefix: tuple
    delta: tuple[Fraction, ...]
    subset_mask: int
    system: SystemTemplate
    lattice: LatticeBox
    masks: tuple[np.ndarray, ...]
    union: np.ndarray
    row: int

    def laid_out(self) -> FavourableCandidate:
        _, _, _, variant, k = self.prefix
        t_sets, monomials = extension_at(self.system.polys, self.lattice, self.masks, self.union, self.row)
        layout = build_layout(self.system, k, variant, monomials, t_sets)
        return FavourableCandidate(layout, self.delta, self.subset_mask)


def _tick(reasons: dict[str, int], name: str):
    reasons[name] = reasons.get(name, 0) + 1


def _subset_masks(m_aug: int, cfg: SearchConfig):
    for size in range(1, m_aug + 1):
        if cfg.max_subset_size is not None and size > cfg.max_subset_size:
            break
        for combo in itertools.combinations(range(m_aug), size):
            yield sum(1 << i for i in combo)


class SumEntry(NamedTuple):
    """A Minkowski sum with its lattice box, and on each row of the box the
    T_i masks of the base polynomials, their counts and the union of their
    T_i + a (``extend_system`` and ``extension_monomials``): everything of
    the sum that does not depend on the hidden variable."""

    polytope: LatticePolytope
    lattice: LatticeBox
    masks: np.ndarray
    counts: np.ndarray
    union: np.ndarray


def _row_verdicts(entry: SumEntry, polys, masks) -> tuple[list, np.ndarray]:
    """Per row of ``entry``'s box, the count-level reason it is rejected for
    (None when it passes), and the union mask of mon(F'), given the T_i
    ``masks`` of x_k - u0 alone."""
    lat = entry.lattice
    counts = masks.sum(axis=2)
    union = entry.union | extension_monomials(polys[-1:], lat, masks)
    covered = (entry.counts > 0).all(axis=0) & (counts[0] > 0)
    short = entry.counts.sum(axis=0) + counts[0] < union.sum(axis=1)
    reasons = [
        "empty_lattice" if not filled else "coverage" if not ok else "row_count" if few else None
        for filled, ok, few in zip(lat.inside.any(axis=1).tolist(), covered.tolist(), short.tolist())
    ]
    return reasons, union


def search_candidates(system: SystemTemplate, cfg: SearchConfig, reasons: dict[str, int]) -> list[SweptCandidate]:
    """Sweep (subset, displacement) pairs of ``system`` augmented by x_k - u0,
    for k = 1..n in turn, and emit unchecked candidates.

    The Minkowski sum always includes the unit simplex.  A pair is rejected
    only by counts: an empty lattice, an empty T_i (coverage) or fewer rows
    than columns, each ticked in ``reasons``.  No layout is built: B1 is
    T_last (v1) or x_k T_last (v2), and both lie in B, since t and t x_k
    are the monomials of t (x_k - u0).

    A translation class is k and a set of multipliers T_i up to a common
    shift: k and the T_i shifted by their shift, the componentwise minimum
    of mon(F'), as bytes.  Box points are in lexicographic order, and so
    are the shifted T_i, so two passing pairs fall in one class exactly
    when their layouts, for one variant, are monomial translates: the same
    system, and the same rows and columns once each is shifted by the
    columns' componentwise minimum.  Each class is emitted once per variant, at the
    place of its first member, as its member of smallest shift by tuple
    order: a later member replaces it only with a smaller shift, so a pair
    with the same T_i as an earlier one emits nothing.

    Each sum is enumerated in one ``lattice_points`` call, and every T_i,
    every count and mon(F') are masks on its box (``extend_system``,
    ``extension_monomials``): the verdicts of all its displacements come
    from mask counts, and a candidate carries its masks: no monomial set is
    built until ``laid_out``.

    Only the summand x_k - u0 differs between hidden variables, so the unit
    simplex, the hulls of the base supports, the Minkowski sums of subsets
    without x_k - u0, their lattice boxes and the base polynomials' T_i
    masks on them are computed once for all k (``base_sums``); a sum
    visited again for another k only erodes x_k - u0's T_i.  What depends
    on k, by summand tuple, is kept until k is done.  Nothing is kept from
    one call to the next.
    """
    n, m = system.n_vars, len(system.polys)
    simplex = unit_simplex(n)
    hulls = tuple(convex_hull(support(f)) for f in system.polys)
    # every grid holds the zero vector: visit each distinct displacement once
    grids = (displacement_grid(n, Fraction(mag)) for mag in cfg.delta_magnitudes)
    deltas = list(dict.fromkeys(d for grid in grids for d in grid))
    base_sums: dict[tuple[LatticePolytope, ...], SumEntry] = {}
    # translation class, as k and the shifted multiplier sets -> the shift
    # of its member and the member's candidates, one per variant
    emitted: dict[tuple, tuple[tuple[int, ...], list[SweptCandidate]]] = {}

    for k in range(1, n + 1):
        aug = augment(system, k)
        polys = aug.polys
        polytopes = (*hulls, convex_hull(support(polys[-1])))
        # by summand tuple: the sum, x_k - u0's T_i masks, the row verdicts,
        # mon(F') masks and the rows handled
        seen: dict[tuple[LatticePolytope, ...], tuple] = {}
        anchors = np.array([f.sorted_support[0] for f in polys], dtype=np.int64)
        for mask in _subset_masks(m + 1, cfg):
            summands = (simplex, *(polytopes[i] for i in range(m + 1) if mask >> i & 1))
            if summands not in seen:
                entry = base_sums.get(summands)
                if entry is None:
                    # minkowski_sum folds left, so a known prefix sum is its first step
                    prefix = base_sums.get(summands[:-1])
                    q = minkowski_sum(summands if prefix is None else (prefix.polytope, summands[-1]))
                    lat = lattice_points(q, deltas)
                    base = extend_system(system.polys, lat)
                    entry = SumEntry(q, lat, base, base.sum(axis=2), extension_monomials(system.polys, lat, base))
                    # sums with x_k - u0 are kept for this k only, in ``seen``
                    if not mask >> m & 1:
                        base_sums[summands] = entry
                last = extend_system(polys[-1:], entry.lattice)
                seen[summands] = (entry, last, *_row_verdicts(entry, polys, last), set())
            entry, last, verdicts, union, done = seen[summands]
            lat = entry.lattice
            for delta, row in zip(deltas, lat.row_of):
                failure = "empty_lattice" if row is None else verdicts[row]
                if failure is not None:
                    _tick(reasons, failure)
                    continue
                # a row met again for this k has its multiplier sets emitted
                if row in done:
                    continue
                done.add(row)
                masks = (*entry.masks, last[0])
                points = [lat.points[t[row]] for t in masks]
                low = tuple(lat.points[union[row]].min(axis=0).tolist())
                cls = (k, *((z - a).tobytes() for z, a in zip(points, anchors + low)))
                # a translate replaces its class's member only with a smaller shift
                if cls in emitted and emitted[cls][0] <= low:
                    continue
                n_rows = sum(map(len, points))
                n_cols = int(union[row].sum())
                emitted[cls] = low, [
                    SweptCandidate((len(points[-1]), n_rows * n_cols, n_rows, variant, k), delta, mask,
                                   aug, lat, masks, union, row)
                    for variant in cfg.variants
                ]
    out = [c for _, cands in emitted.values() for c in cands]
    if not out and not reasons:
        reasons["empty_search_space"] = 1
    return out


def partition_failure(layout: MatrixLayout, cfg: SearchConfig, full_rank: dict[tuple, bool]) -> str | None:
    """The first partition condition ``layout`` fails, by its reason name,
    or None.  Every polynomial keeps a row ("coverage"), the matrix has full
    column rank ("column_rank"), and the upper rows have full rank on the
    columns outside B1 ("a12_rank"), so the Schur complement exists.  Both
    ranks are decided on one instantiation at the rank config's witness.
    ``full_rank`` memoizes full-rank verdicts by the system and the rows:
    the v1 and v2 layouts of one set of multipliers share their rows, and
    their columns up to order, so they share one verdict.  The sweep emits
    one member of each translation class, and the v1 and v2 classes of one
    set of multipliers emit the same member, so no two layouts the loop
    decides are translates and the rows need no shift.  Like the sweep,
    this takes the columns to be the monomials the rows reach."""
    tm = layout.template
    if len({poly_idx for poly_idx, _ in tm.rows}) < len(tm.system.polys):
        return "coverage"
    key = (tm.system, tm.rows)
    if full_rank.get(key) is False:
        return "column_rank"
    p, trial = cfg.rank.witness
    m = cfg.rank.instantiate(tm, p, trial)
    if key not in full_rank:
        full_rank[key] = has_full_column_rank(m, p)
    if not full_rank[key]:
        return "column_rank"
    if not has_full_column_rank(m[: layout.n_upper, layout.n_b1 :], p):
        return "a12_rank"
    return None


def verify_partition(layout: MatrixLayout, cfg: SearchConfig) -> bool:
    """From-scratch partition test of a whole layout, with a fresh memo.  The
    pipeline does not call it; tests hold the reduction stages' verdicts to
    it on rebuilt layouts.  The lower-block structure (u0-cells forming -I
    for v1, x_k-cells forming I for v2) holds by layout construction."""
    return partition_failure(layout, cfg, {}) is None


def _selection_key(layout: MatrixLayout):
    """Smallest n_b1 = |T_last| first, then smallest matrix, then layout
    order, all as laid out before any reduction.  The first five entries
    are a SweptCandidate's ``prefix``, fixed by its multiplier sets, so
    candidates are ordered on them before any layout is built.  Row
    removal can still shrink n_b1: the golden rel_pose plan is picked at
    |T_last| = 30 and ends at n_b1 = 10, so this is not the order of the
    final eigenproblems."""
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


def reduce_rowcol(cand: FavourableCandidate) -> FavourableCandidate:
    """Remove column groups and their supporting rows while every polynomial
    keeps a row, in one pass in column order.  ``cand`` must pass the
    partition test.

    A group is the rows of one column, taken only when no other row touches
    the group's columns; anything else would silently change the polynomials
    the rows stand for.  Such a group is a diagonal block of the matrix, so
    the rest keeps full column rank and full rank of A12, and only coverage
    can refuse it.  Groups are disjoint and a removal only tightens
    coverage, so a refused group stays refused, and one pass, each group
    tried at its first column, reaches the fixpoint.  The result's layout is
    built once, if anything went.
    """
    tm = cand.layout.template
    rows_of = [set() for _ in tm.cols]
    cols_of = [set() for _ in tm.rows]
    for r, c, _, _ in tm.cells:
        rows_of[c].add(r)
        cols_of[r].add(c)
    # the rows of each group and the columns they touch, in the order of
    # the group's first column
    groups = {}
    for c, rows_hit in enumerate(rows_of):
        if rows_hit and all(rows_of[c2] <= rows_hit for r in rows_hit for c2 in cols_of[r]):
            groups.setdefault(frozenset(rows_hit), set().union(*(cols_of[r] for r in rows_hit)))
    rows = set(range(len(tm.rows)))
    deleted: list[tuple[int, Mono]] = []
    gone: list[Mono] = []
    for rows_hit, cols_hit in groups.items():
        if len({tm.rows[r][0] for r in rows - rows_hit}) == len(tm.system.polys):
            rows -= rows_hit
            deleted.extend(tm.rows[r] for r in sorted(rows_hit))
            gone.extend(tm.cols[c] for c in cols_hit)
    if deleted:
        cand = replace(cand, layout=_without(cand.layout, deleted, gone), deleted=cand.deleted + tuple(deleted))
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
    columns, in removal order.  An attempt draws trial rows without
    replacement from per-polynomial row lists sorted by multiplier, the
    lower block's first, and is a dead end if they run out first."""
    tm = cand.layout.template
    n_upper, n_b1, n_cols = cand.layout.n_upper, cand.layout.n_b1, len(tm.cols)
    pools = [[] for _ in tm.system.polys]
    for r in sorted(range(len(tm.rows)), key=tm.rows.__getitem__):
        pools[tm.rows[r][0]].append(r)
    p, trial = cfg.rank.witness
    m = cfg.rank.instantiate(tm, p, trial)
    kernels = modp_left_kernel(m, p), modp_left_kernel(m[:n_upper, n_b1:], p)
    # no removal mends a failed partition; with full column rank, a left
    # kernel has one vector per extra row
    if (not all(pools) or len(kernels[0]) != len(tm.rows) - n_cols
            or len(kernels[1]) != n_upper - (n_cols - n_b1)):
        raise SquarifyExhausted("the candidate fails its partition")
    for attempt in range(SQUARIFY_RETRIES):
        rng = random.Random(f"squarify:{cfg.seed}:{attempt}")
        k1, k2 = kernels
        *upper, lower = (list(pool) for pool in pools)
        left = [len(pool) for pool in pools]  # surviving rows of each polynomial
        removed: list[tuple[int, Mono]] = []
        while len(k1):  # until the matrix is square
            open_pools = [pool for pool in upper if pool]
            if not (lower or open_pools):
                break
            pool = lower or open_pools[rng.randrange(len(open_pools))]
            r = pool.pop(rng.randrange(len(pool)))
            poly_idx = tm.rows[r][0]
            if left[poly_idx] == 1:
                continue  # coverage
            failure, k1, k2 = _remove_row(m, k1, k2, r, n_upper, p)
            if failure is None:
                left[poly_idx] -= 1
                removed.append(tm.rows[r])
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
    """The plan, the number of candidates decided (``_verdict`` calls, the
    plan's included), and the rejections by reason: the sweep's
    (``empty_lattice``, ``coverage``, ``row_count``) count (subset,
    displacement) pairs, the loop's (``column_rank``, ``a12_rank``,
    ``unrecoverable_b1``, ``squarify_exhausted``) decided candidates, one
    per translation class and variant."""

    plan: SolverPlan
    candidates_seen: int
    reasons: dict[str, int]


def _verdict(cand: FavourableCandidate, cfg: SearchConfig, full_rank: dict[tuple, bool]) -> SolverPlan | str:
    """The plan ``cand`` reduces to, or the name of the first condition it
    fails: the partition, then recovery pairs, then the reduction."""
    failure = partition_failure(cand.layout, cfg, full_rank)
    if failure is None and cand.layout.unpaired:
        failure = "unrecoverable_b1"
    if failure is not None:
        return failure
    try:
        plan = squarify(reduce_rowcol(cand), cfg)
    except SquarifyExhausted:
        return "squarify_exhausted"
    # row removal can strip the pairs the eigenvector read-off needs
    return "unrecoverable_b1" if plan.layout.unpaired else plan


def generate_plan(system: SystemTemplate, cfg: SearchConfig | None = None) -> GenerateOutcome:
    """Full offline pipeline over every choice of hidden variable.

    One ``search_candidates`` call sweeps every hidden variable.  The
    candidates are taken in ``_selection_key`` order, which needs no rank
    check: sorted on the key's prefix, which needs no layout, and laid out
    one group of equal prefix at a time.  Each is checked for its
    partition, then its recovery pairs and the reduction; each failure is
    ticked once, and the first that passes them all is the plan.  Rank
    verdicts are deterministic, so this is the plan an exhaustive check
    would select.

    A monomial translate of a layout (same system and variant, rows and
    columns shifted by one exponent vector) keeps its row and column
    order, since grevlex and tuple order are monomial orders.  It has the
    same matrix over F_p at the witness, the same recovery pairs, and the
    same index-level choices in reduce_rowcol and squarify, so it gets the
    same verdict.  The sweep therefore emits one member per translation
    class, the one of smallest shift: the columns of translates differ by
    their shift, so it is the first of its class in key order, the member
    an exhaustive check would reach first.
    """
    cfg = cfg or SearchConfig()
    reasons: dict[str, int] = {}
    swept = search_candidates(system, cfg, reasons)
    swept.sort(key=lambda c: c.prefix)
    full_rank: dict[tuple, bool] = {}
    seen = 0
    for _, group in itertools.groupby(swept, key=lambda c: c.prefix):
        for cand in sorted((c.laid_out() for c in group), key=lambda c: _selection_key(c.layout)):
            seen += 1
            verdict = _verdict(cand, cfg, full_rank)
            if isinstance(verdict, SolverPlan):
                return GenerateOutcome(verdict, seen, reasons)
            _tick(reasons, verdict)
    raise NoSolverError(reasons)
