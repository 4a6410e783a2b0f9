"""Multivariate polynomial templates with symbolic coefficient slots.

A polynomial system is stored symbolically: every term carries a named
coefficient slot, and numeric instances bind slot names to values.  Exponent
vectors are plain tuples of non-negative ints, one entry per variable.
Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import below

Mono = tuple[int, ...]

# Slot name reserved for the hidden variable introduced by system augmentation.
HIDDEN_SLOT = "u0"


class SystemFormatError(ValueError):
    """Malformed system or instance file; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """Return a/b as an exponent vector, or None if not divisible."""
    q = tuple(x - y for x, y in zip(a, b))
    return q if all(e >= 0 for e in q) else None


def unit_mono(n: int, i: int) -> Mono:
    """Exponent vector of the variable with 0-based index ``i`` among ``n``."""
    return tuple(int(j == i) for j in range(n))


@dataclass(frozen=True)
class Term:
    """One term: ``const * slot_value * x^exps``.

    ``slot`` is None for terms with a literal coefficient (used only by the
    generator's extra polynomial; parsed user systems always name a slot).
    """

    slot: str | None
    exps: Mono
    const: float = 1.0

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise SystemFormatError(f"negative exponent in {list(self.exps)}")


@dataclass(frozen=True)
class PolynomialTemplate:
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise SystemFormatError("polynomial with no terms")
        seen: set[Mono] = set()
        for t in self.terms:
            if t.exps in seen:
                raise SystemFormatError(f"duplicate monomial {t.exps} in polynomial")
            seen.add(t.exps)
        slots = [t.slot for t in self.terms if t.slot is not None and t.slot != HIDDEN_SLOT]
        if len(slots) != len(set(slots)):
            raise SystemFormatError("coefficient slot reused within one polynomial")

    @cached_property
    def sorted_support(self) -> tuple[Mono, ...]:
        """The exponent vectors of the terms in ascending tuple order, sorted
        once per polynomial."""
        return tuple(sorted(support(self)))


@dataclass(frozen=True)
class SystemTemplate:
    n_vars: int
    var_names: tuple[str, ...]
    polys: tuple[PolynomialTemplate, ...]

    def __post_init__(self):
        if len(self.var_names) != self.n_vars:
            raise SystemFormatError("var_names length disagrees with n_vars")
        for f in self.polys:
            for t in f.terms:
                if len(t.exps) != self.n_vars:
                    raise SystemFormatError(
                        f"exponent vector {list(t.exps)} has length {len(t.exps)}, expected {self.n_vars}"
                    )

    @cached_property
    def residual_table(self) -> tuple[np.ndarray, int, tuple[str, ...], np.ndarray, np.ndarray]:
        """``(exps, degree, slots, index, consts)`` for normalized_residual,
        the terms of each polynomial padded to a common count: their
        exponent vectors as an int array of shape (polynomials, terms,
        n_vars) and its largest entry, the slot names in first-appearance
        order, and per term the position of its value in the list of slot
        values followed by 0.0 (padding) and 1.0 (literal terms), and its
        constant (1.0 for padding).  Built once per system."""
        width = max(len(f.terms) for f in self.polys)
        slots = list(dict.fromkeys(t.slot for f in self.polys for t in f.terms if t.slot is not None))
        exps = np.zeros((len(self.polys), width, self.n_vars), dtype=np.intp)
        index = np.full((len(self.polys), width), len(slots), dtype=np.intp)
        consts = np.ones((len(self.polys), width))
        for i, f in enumerate(self.polys):
            for t, term in enumerate(f.terms):
                exps[i, t] = term.exps
                index[i, t] = len(slots) + 1 if term.slot is None else slots.index(term.slot)
                consts[i, t] = term.const
        return exps, int(exps.max(initial=0)), tuple(slots), index, consts

    def slots(self) -> list[str]:
        """All user coefficient slot names, in first-appearance order."""
        out: list[str] = []
        for f in self.polys:
            for t in f.terms:
                if t.slot is not None and t.slot != HIDDEN_SLOT and t.slot not in out:
                    out.append(t.slot)
        return out


def augment(system: SystemTemplate, k: int) -> SystemTemplate:
    """Append the extra polynomial x_k - u0 with the reserved hidden slot."""
    n = system.n_vars
    if not (1 <= k <= n):
        raise ValueError(f"hidden variable index {k} outside 1..{n}")
    x_k = Term(None, unit_mono(n, k - 1), 1.0)
    extra = PolynomialTemplate((x_k, Term(HIDDEN_SLOT, (0,) * n, -1.0)))
    return SystemTemplate(n, system.var_names, system.polys + (extra,))


CoefficientAssignment = Mapping[str, complex]


def grevlex_key(mono: Mono):
    """Sort key of grevlex, the one monomial order, with x1 > ... > xn: higher total degree
    first, then the *smaller* last differing exponent; larger key = larger monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def sort_desc(monos: Iterable[Mono]) -> list[Mono]:
    """Monomials from largest to smallest in grevlex."""
    return sorted(monos, key=grevlex_key, reverse=True)


def parse_system(text: str) -> SystemTemplate:
    """Parse a system file (JSON with ``variables`` and ``polynomials``).

    Each exponent's sign and each vector's length are checked once, by
    ``Term`` and ``SystemTemplate``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemFormatError(f"syntax error: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(doc, dict):
        raise SystemFormatError("top level must be an object")
    try:
        names = doc["variables"]
        polys_doc = doc["polynomials"]
    except KeyError as e:
        raise SystemFormatError(f"missing field {e.args[0]!r}") from e
    if not isinstance(names, list) or not names or not all(isinstance(v, str) for v in names):
        raise SystemFormatError("'variables' must be a non-empty list of names")
    if len(set(names)) != len(names):
        raise SystemFormatError(f"variable {max(names, key=names.count)!r} is named more than once")
    if not isinstance(polys_doc, list) or not polys_doc:
        raise SystemFormatError("'polynomials' must be a non-empty list")
    polys = []
    for fi, terms_doc in enumerate(polys_doc):
        if not isinstance(terms_doc, list):
            raise SystemFormatError(f"polynomial {fi} must be a list of terms")
        terms = []
        for term_doc in terms_doc:
            try:
                slot, exps = term_doc["coeff"], term_doc["exps"]
            except (TypeError, KeyError):
                raise SystemFormatError(f"bad term {term_doc!r} in polynomial {fi}") from None
            if not isinstance(slot, str):
                raise SystemFormatError(f"slot name must be a string, got {slot!r}")
            if slot == HIDDEN_SLOT:
                raise SystemFormatError(f"slot name {HIDDEN_SLOT!r} is reserved")
            if not isinstance(exps, list) or not all(type(e) is int for e in exps):
                raise SystemFormatError(f"exponents must be a list of ints, got {exps!r}")
            terms.append(Term(slot, tuple(exps)))
        polys.append(PolynomialTemplate(tuple(terms)))
    return SystemTemplate(len(names), tuple(names), tuple(polys))


def dump_system(system: SystemTemplate) -> str:
    doc = {
        "variables": list(system.var_names),
        "polynomials": [
            [{"coeff": t.slot, "exps": list(t.exps)} for t in f.terms] for f in system.polys
        ],
    }
    for f in system.polys:
        for t in f.terms:
            if t.slot is None:
                raise ValueError("literal-coefficient terms are not representable in system files")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_instance(text: str) -> dict[str, float]:
    """Parse an instance file: a flat JSON map slot name -> finite number.

    JSON booleans, ``NaN`` and ``Infinity``, and numbers too large for a
    float are rejected here rather than surfacing later as a numeric failure.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemFormatError(f"syntax error: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(doc, dict):
        raise SystemFormatError("instance file must be a flat object")
    out = {}
    for k, v in doc.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SystemFormatError(f"value for slot {k!r} is not a number")
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise SystemFormatError(f"value for slot {k!r} is not a finite number")
        out[str(k)] = x
    return out


def support(f: PolynomialTemplate) -> frozenset[Mono]:
    """Exponent vectors of the polynomial's terms."""
    return frozenset(t.exps for t in f.terms)


def term_value(t: Term, coeffs: CoefficientAssignment) -> complex:
    if t.slot is None:
        return t.const
    try:
        return t.const * coeffs[t.slot]
    except KeyError:
        raise KeyError(f"coefficient slot {t.slot!r} missing from assignment") from None


def normalized_residual(
    system: SystemTemplate, coeffs: CoefficientAssignment, points
) -> np.ndarray:
    """max_i |f_i(p)| / (sum_a |c_{i,a} p^a| + 1) of each row p of the
    ``(N, n_vars)`` array ``points``; zero iff every f_i vanishes at p.

    The system's ``residual_table`` is built once; per call, one list of
    the instance's slot values fills every c_{i,a} in one gather (complex
    values stay complex), and the terms of each polynomial are summed left
    to right, in term order, in one pass.  Every operation is elementwise
    over the points, so a point's residual does not depend on the batch it
    is evaluated in.
    """
    exps, degree, slots, index, consts = system.residual_table
    try:
        values = [coeffs[name] for name in slots]
    except KeyError:
        missing = next(name for name in slots if name not in coeffs)
        raise KeyError(f"coefficient slot {missing!r} missing from assignment") from None
    coef = consts * np.array(values + [0.0, 1.0])[index]
    pts = np.asarray(points, dtype=np.complex128)
    # powers[d, j, v] = pts[j, v] ** d, by repeated multiplication
    powers = np.empty((degree + 1, *pts.shape), dtype=np.complex128)
    powers[0] = 1.0
    for d in range(1, len(powers)):
        powers[d] = powers[d - 1] * pts
    # (polynomial, term, point) values of each p^a, then of c_{i,a} p^a
    mono = powers[exps[..., 0], :, 0]
    for v in range(1, system.n_vars):
        mono = mono * powers[exps[..., v], :, v]
    contrib = coef[:, :, None] * mono
    # accumulate adds term by term, left to right; the 1 leads the magnitudes
    num = np.add.accumulate(contrib, axis=1)[:, -1]
    mags = np.empty((contrib.shape[0], contrib.shape[1] + 1, contrib.shape[2]))
    mags[:, 0] = 1.0
    np.abs(contrib, out=mags[:, 1:])
    den = np.add.accumulate(mags, axis=1)[:, -1]
    return (np.abs(num) / den).max(axis=0)


def extend_system(polys: Sequence[PolynomialTemplate], lattice) -> np.ndarray:
    """T_i of each polynomial inside each point set B' of ``lattice``, a
    ``LatticeBox``, by erosion: a bool array ``(len(polys), rows, points)``
    whose entry [i, r, z] marks the box point z = t + a_i for each t of T_i
    on row r, a_i the smallest support monomial of f_i (its anchor).

    B' is {z : N z <= r} on the box, so t + a lies in B' for every a of
    supp f_i exactly when N t <= r - h_i, h_i the facet-wise maximum of
    N a over supp f_i.  With z = t + a_i that is N z <= r - (h_i - N a_i),
    read off the box's dot products (``lattice.below``), and t >= 0 is
    z >= a_i.  Every such z lies in B', so in the box.  Raises
    OverflowError when an offset less h_i - N a_i could leave int64.
    """
    out = np.empty((len(polys), len(lattice.rows), len(lattice.points)), dtype=bool)
    if not polys:
        return out
    top = max(max(a) for f in polys for a in f.sorted_support)
    if lattice.bound + 2 * top * int(np.abs(lattice.normals).sum(axis=1).max(initial=0)) >= 2**63:
        raise OverflowError("eroded offsets exceed int64 range")
    for f, mask in zip(polys, out):
        supp = np.array(f.sorted_support, dtype=np.int64)
        prods = supp @ lattice.normals.T
        rhs = lattice.rows - (prods.max(axis=0) - prods[0])
        np.logical_and(below(lattice.dots, rhs), (lattice.points >= supp[0]).all(axis=1), out=mask)
    return out


def extension_monomials(polys: Sequence[PolynomialTemplate], lattice, masks) -> np.ndarray:
    """mon(F') of the polynomials' T_i ``masks`` (``extend_system``'s) on
    each row of ``lattice``, as a bool ``(rows, points)`` mask: the union of
    the T_i + a over a in supp f_i.  A mask marks t + a_i, so each a is one
    flat index shift by a - a_i, which stays inside the box from every
    marked point; a shift that leaves it meets no marked point."""
    n_rows, n_pts = len(lattice.rows), len(lattice.points)
    union = np.zeros(n_rows * n_pts, dtype=bool)
    for f, mask in zip(polys, masks):
        flat = mask.reshape(-1)
        anchor = f.sorted_support[0]
        for a in f.sorted_support:
            s = sum((x - y) * k for x, y, k in zip(a, anchor, lattice.strides))
            if 0 <= s < n_pts:
                union[s:] |= flat[: flat.size - s]
    return union.reshape(n_rows, n_pts)


def extension_at(polys: Sequence[PolynomialTemplate], lattice, masks, union,
                 row: int) -> tuple[tuple[frozenset[Mono], ...], frozenset[Mono]]:
    """``(t_sets, monomials)`` on one row of ``lattice``, as monomial sets,
    from ``extend_system``'s masks and ``extension_monomials``' union:
    T_i, the multipliers t with mon(t*f_i) inside B', and mon(F') for the
    extended set F' (a subset of B')."""
    pts = lattice.points
    t_sets = tuple(frozenset(map(tuple, (pts[mask[row]] - f.sorted_support[0]).tolist()))
                   for f, mask in zip(polys, masks))
    return t_sets, frozenset(map(tuple, pts[union[row]].tolist()))
