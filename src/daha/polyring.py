"""Sparse elements of the group algebra of the weight lattice over Q(q, t).

A QTLaurent is a finite sum  sum_lam  c_lam e^lam  with c_lam in RatQT and
lam a weight of a fixed root system.  This is the carrier of the polynomial
representation that the Hecke operators act on.

Denominator clearing lives here once: _kernel writes f as k / D, with D the
lcm of the coefficient denominators and k the integer numerators as term
dicts {weight: {(dq, dt): int}}.  integral_form normalizes k, and the Hecke
operators (daha.hecke) run on it in packed form.

The packed form is a Kernel {weight: {key: int}}: the exponent pair (a, b) of
q^a t^b becomes the one integer key a * 2^64 + b (Kronecker substitution;
Harvey, Faster polynomial multiplication via multipoint Kronecker
substitution, JSC 2009).  The key is linear, so a product by q^a t^b is one
integer add, and _unpack recovers (a, b) while |b| < 2^63.  _pack admits
|b| < 2^62 only and raises OverflowError beyond; an operator step moves b by
a few units (a T_i letter by at most 1), so no run comes near 2^63.  The q
slot is unbounded.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd

from .qt import (ONE_P, QTPoly, R_ONE, R_ZERO, RatQT, Term, div_exact, format_poly, format_power, json_value,
                 poly_lcm, ratqt_from_json, ratqt_to_json)
from .roots import RootSystem, Weight

Kernel = dict[Weight, dict[int, int]]  # {weight: {a * 2^64 + b: coefficient of q^a t^b}}

_Q = 1 << 64  # the packed key of q
_HALF = 1 << 63
_T_BOUND = 1 << 62  # the largest |b| that _pack admits


def _pack(terms: Mapping[Term, int]) -> dict[int, int]:
    """{(a, b): c} as {a * 2^64 + b: c}; OverflowError for a t-exponent of 2^62 or more in size."""
    out = {}
    for (a, b), c in terms.items():
        if not -_T_BOUND < b < _T_BOUND:
            raise OverflowError(f"t-exponent {b} is outside the packed range (-2^62, 2^62)")
        out[a * _Q + b] = c
    return out


def _unpack(packed: Mapping[int, int]) -> dict[Term, int]:
    """The inverse of _pack: key = a * 2^64 + b with -2^63 <= b < 2^63 gives (a, b)."""
    out = {}
    for k, c in packed.items():
        b = ((k + _HALF) & (_Q - 1)) - _HALF
        out[(k - b) >> 64, b] = c
    return out


class QTLaurent:
    """Finite RatQT-linear combination of lattice monomials e^lam."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms: Mapping[Weight, RatQT] | None = None):
        self.rs = rs
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, rs: RootSystem) -> "QTLaurent":
        return cls(rs)

    @classmethod
    def one(cls, rs: RootSystem) -> "QTLaurent":
        return cls(rs, {rs.zero(): R_ONE})

    @classmethod
    def mono(cls, rs: RootSystem, lam: Weight, c: RatQT = R_ONE) -> "QTLaurent":
        return cls(rs, {tuple(lam): c})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Weight]:
        return sorted(self.terms)

    def coeff(self, lam: Weight) -> RatQT:
        return self.terms.get(tuple(lam), R_ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, QTLaurent) and self.rs is other.rs and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.rs), frozenset(self.terms.items())))

    def __str__(self) -> str:
        return laurent_to_text(self)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "QTLaurent") -> "QTLaurent":
        return QTLaurent(self.rs, _sum_terms(chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "QTLaurent":
        return QTLaurent(self.rs, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "QTLaurent") -> "QTLaurent":
        return self + (-other)

    def scale(self, c: RatQT) -> "QTLaurent":
        if c.is_zero():
            return QTLaurent(self.rs)
        if c.is_one():
            return self
        return QTLaurent(self.rs, {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other: "QTLaurent") -> "QTLaurent":
        return QTLaurent(self.rs, _sum_terms(
            (tuple(a + b for a, b in zip(w1, w2)), c1 * c2)
            for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()))

    def subs_t_eq_q(self) -> "QTLaurent":
        return QTLaurent(self.rs, {w: c.subs_t_eq_q() for w, c in self.terms.items()})

    # -- queries ------------------------------------------------------------------

    def is_w_invariant(self) -> bool:
        for i in range(1, self.rs.rank + 1):
            for w, c in self.terms.items():
                if self.terms.get(self.rs.reflect(i, w), R_ZERO) != c:
                    return False
        return True


def _sum_terms(pairs: Iterable[tuple[Weight, RatQT]]) -> dict[Weight, RatQT]:
    """Sum c e^w over (w, c) pairs; a weight whose sum cancels is dropped, and re-enters last."""
    out: dict[Weight, RatQT] = {}
    for w, c in pairs:
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


def _kernel(f: QTLaurent) -> tuple[dict[Weight, dict[Term, int]], QTPoly]:
    """(k, D) with f = k / D and D the lcm of the coefficient denominators."""
    den = ONE_P
    for c in f.terms.values():
        if not c.is_polynomial():
            den = poly_lcm(den, c.den)
    return {w: c.num.terms if c.den == den else (c.num * div_exact(den, c.den)).terms
            for w, c in f.terms.items()}, den


def orbit_sum(rs: RootSystem, lam: Weight) -> QTLaurent:
    """m_lam = sum of e^mu over the W-orbit of a dominant weight."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return QTLaurent(rs, {w: R_ONE for w in rs.orbit(lam)})


def integral_form(f: QTLaurent, leading: Weight) -> QTLaurent:
    """Minimal rescaling with polynomial coefficients, integer content 1,
    no negative q,t exponents, and leading coefficient 1 at q = t = 0."""
    leading = tuple(leading)
    if leading not in f.terms:
        raise ValueError(f"leading weight {leading} not in support")
    nums = {w: QTPoly(k) for w, k in _kernel(f)[0].items()}
    content = gcd(*(p.content() for p in nums.values()))
    sq = max(0, -min(p.min_exps()[0] for p in nums.values()))
    st = max(0, -min(p.min_exps()[1] for p in nums.values()))
    # the value at q = t = 0 of the shifted leading numerator is its coefficient of q^-sq t^-st
    lead_val = nums[leading].terms.get((-sq, -st), 0) // content
    if lead_val not in (1, -1):
        raise ValueError(f"cannot normalize leading coefficient, value at 0 is {lead_val}")
    return QTLaurent(f.rs, {w: RatQT(p.shift(sq, st).int_div(lead_val * content), ONE_P, _reduced=True)
                            for w, p in nums.items()})


def specialize_dim(f: QTLaurent) -> Fraction:
    """Evaluate at every e^lam -> 1, q -> 1, t -> -1 (total dimension of a supercharacter)."""
    total = Fraction(0)
    for w, c in f.terms.items():
        if not c.is_polynomial():
            raise ValueError(f"coefficient of e^{w} has a denominator")
        total += c.eval(1, -1)
    return total


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------

def laurent_to_json(f: QTLaurent) -> dict:
    return {
        "terms": [
            {"weight": list(w), "coeff": ratqt_to_json(c)}
            for w, c in sorted(f.terms.items())
        ]
    }


def laurent_from_json(rs: RootSystem, data: dict) -> QTLaurent:
    """Inverse of laurent_to_json; ValueError on any other shape or on a non-integer weight entry."""
    terms = {}
    for t in json_value(json_value(data, dict, "a polynomial").get("terms"), list, "terms"):
        weight = json_value(json_value(t, dict, "a term").get("weight"), list, "a weight")
        lam = rs.check_weight([json_value(v, int, "a weight entry") for v in weight])
        if lam in terms:
            raise ValueError(f"repeated weight {list(lam)} in a polynomial")
        terms[lam] = ratqt_from_json(t.get("coeff"))
    return QTLaurent(rs, terms)


def _mono_str(rank: int, w: Weight, latex: bool = False) -> str:
    """e^w as a product of powers of x (rank one) or of x_1, ..., x_r; empty for w = 0."""
    names = ("x",) if rank == 1 else tuple(f"x_{{{i}}}" if latex else f"x_{i}" for i in range(1, rank + 1))
    return ("" if latex else "*").join(format_power(x, v, latex) for x, v in zip(names, w) if v)


def laurent_to_text(f: QTLaurent) -> str:
    parts = []
    for w, c in sorted(f.terms.items()):
        mono = _mono_str(f.rs.rank, w)
        m = c.as_monomial()
        coeff = str(c) if m is not None and m[0] > 0 else f"({c})"  # a positive monomial goes bare
        if c.is_one():
            parts.append(mono or "1")
        else:
            parts.append(f"{coeff}*{mono}" if mono else coeff)
    return " + ".join(parts) or "0"


def laurent_to_latex(f: QTLaurent) -> str:
    parts = []
    for w, c in sorted(f.terms.items()):
        mono = _mono_str(f.rs.rank, w, latex=True)
        coeff = format_poly(c.num, latex=True)
        if not c.is_polynomial():
            coeff = f"\\frac{{{coeff}}}{{{format_poly(c.den, latex=True)}}}"
        if mono and c.is_one():
            parts.append(mono)
        else:
            parts.append(f"\\left({coeff}\\right){mono}" if mono else coeff)
    return " + ".join(parts) or "0"
