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
from itertools import chain
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

import numpy as np

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
            raise SystemFormatError(f"negative exponent in {self.exps}")


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
                        f"exponent vector {t.exps} has length {len(t.exps)}, expected {self.n_vars}"
                    )

    @cached_property
    def residual_table(self) -> tuple[np.ndarray, tuple[tuple[Term | None, ...], ...]]:
        """``(exps, terms)`` for normalized_residual: the terms of each
        polynomial padded with None to a common count, and their exponent
        vectors as an int array of shape (polynomials, terms, n_vars)."""
        width = max(len(f.terms) for f in self.polys)
        terms = tuple(f.terms + (None,) * (width - len(f.terms)) for f in self.polys)
        exps = np.zeros((len(terms), width, self.n_vars), dtype=np.intp)
        for i, f in enumerate(self.polys):
            for t, term in enumerate(f.terms):
                exps[i, t] = term.exps
        return exps, terms

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
    """Parse a system file (JSON with ``variables`` and ``polynomials``)."""
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
    n = len(names)
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
            if len(exps) != n:
                raise SystemFormatError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n}"
                )
            if any(e < 0 for e in exps):
                raise SystemFormatError(f"negative exponent in {exps}")
            terms.append(Term(slot, tuple(exps)))
        polys.append(PolynomialTemplate(tuple(terms)))
    return SystemTemplate(n, tuple(names), tuple(polys))


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


def evaluate(f: PolynomialTemplate, coeffs: CoefficientAssignment, point: Sequence[complex]) -> complex:
    total = 0.0 + 0.0j
    for t in f.terms:
        mono_val = 1.0 + 0.0j
        for x, e in zip(point, t.exps):
            if e:
                mono_val *= x**e
        total += term_value(t, coeffs) * mono_val
    return total


def normalized_residual(
    system: SystemTemplate, coeffs: CoefficientAssignment, points
) -> np.ndarray:
    """max_i |f_i(p)| / (sum_a |c_{i,a} p^a| + 1) of each row p of the
    ``(N, n_vars)`` array ``points``; zero iff every f_i vanishes at p.

    Every operation is elementwise over the points, so a point's residual
    does not depend on the batch it is evaluated in.
    """
    exps, terms = system.residual_table
    pts = np.asarray(points, dtype=np.complex128)
    # powers[d, j, v] = pts[j, v] ** d, by repeated multiplication
    powers = np.empty((int(exps.max(initial=0)) + 1, *pts.shape), dtype=np.complex128)
    powers[0] = 1.0
    for d in range(1, len(powers)):
        powers[d] = powers[d - 1] * pts
    # (polynomial, term, point) values of each p^a, then of c_{i,a} p^a
    mono = powers[exps[..., 0], :, 0]
    for v in range(1, system.n_vars):
        mono = mono * powers[exps[..., v], :, v]
    coef = np.array([[0.0 if t is None else term_value(t, coeffs) for t in row] for row in terms])
    contrib = coef[:, :, None] * mono
    num = contrib[:, 0].copy()
    den = 1.0 + np.abs(contrib[:, 0])
    for t in range(1, contrib.shape[1]):
        num += contrib[:, t]
        den += np.abs(contrib[:, t])
    return np.max(np.abs(num) / den, axis=0)


@dataclass(frozen=True)
class Extension:
    """Result of extending a system over a monomial set B'.

    ``multipliers[i]`` is T_i, the multipliers t with mon(t*f_i) inside B';
    ``monomials`` is mon(F') for the extended set F' (a subset of B').
    """

    multipliers: tuple[frozenset[Mono], ...]
    monomials: frozenset[Mono]


def extend_system(polys: Sequence[PolynomialTemplate], b_prime: Iterable[Mono]) -> Extension:
    """Largest monomial-multiple extension of each polynomial inside B'.

    T_i holds every t = b - anchor >= 0, for b in B' and anchor the smallest
    support monomial of f_i, with t + a in B' for each support monomial a.
    Each monomial is keyed by one int in balanced base r; the entries of
    every b - anchor + a lie strictly between -r/2 and r/2, so their keys
    are distinct and a shift by a monomial is one integer addition.
    Empty multiplier sets are a legal outcome, reported to the caller.
    """
    b_set = frozenset(b_prime)
    if not b_set:
        raise ValueError("B' must be nonempty")
    supps = [sorted(support(f)) for f in polys]
    top = max(map(abs, chain.from_iterable(b_set))) + max((max(a) for supp in supps for a in supp), default=0)
    places = [(2 * top + 3) ** j for j in range(len(next(iter(b_set))))]

    def key(m: Mono) -> int:
        return sum(map(mul, m, places))

    mono_of = {key(b): b for b in b_set}
    multipliers = []
    used: set[int] = set()
    for supp in supps:
        anchor = supp[0]
        # b + (a - anchor) for every support monomial a but the anchor itself
        steps = [key(a) - key(anchor) for a in supp[1:]]
        fits = list(mono_of)
        for s in steps:
            fits = [k for k in fits if k + s in mono_of]
        t_i = set()
        for k in fits:
            t = tuple(map(sub, mono_of[k], anchor))
            if min(t) >= 0:
                t_i.add(t)
                used.add(k)
                used.update(k + s for s in steps)
        multipliers.append(frozenset(t_i))
    return Extension(tuple(multipliers), frozenset(mono_of[k] for k in used))
