"""Sparse elements of the group algebra of the weight lattice over Q(q, t).

A QTLaurent is a finite sum  sum_lam  c_lam e^lam  with c_lam in RatQT and
lam a weight of a fixed root system.  This is the carrier of the polynomial
representation that the Hecke operators act on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .qt import (ONE_P, QTPoly, R_ONE, R_ZERO, RatQT, poly_lcm, div_exact, json_value, ratqt_from_json,
                 ratqt_to_json)
from .roots import RootSystem, Weight


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
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return QTLaurent(self.rs, out)

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
        out: dict[Weight, RatQT] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return QTLaurent(self.rs, out)

    def map_weights(self, fn) -> "QTLaurent":
        out: dict[Weight, RatQT] = {}
        for w, c in self.terms.items():
            w2 = fn(w)
            s = out.get(w2)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w2, None)
            else:
                out[w2] = s
        return QTLaurent(self.rs, out)

    def subs_t_eq_q(self) -> "QTLaurent":
        return QTLaurent(self.rs, {w: c.subs_t_eq_q() for w, c in self.terms.items()})

    # -- queries ------------------------------------------------------------------

    def is_w_invariant(self) -> bool:
        for i in range(1, self.rs.rank + 1):
            for w, c in self.terms.items():
                if self.terms.get(self.rs.reflect(i, w), R_ZERO) != c:
                    return False
        return True


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
    den = ONE_P
    for c in f.terms.values():
        den = poly_lcm(den, c.den)
    g = f.scale(RatQT(den))
    content = 0
    from math import gcd
    for c in g.terms.values():
        assert c.is_polynomial()
        content = gcd(content, c.num.content())
    if content > 1:
        g = g.scale(RatQT(ONE_P, QTPoly.const(content)))
    minq = min(c.num.min_exps()[0] for c in g.terms.values())
    mint = min(c.num.min_exps()[1] for c in g.terms.values())
    if minq < 0 or mint < 0:
        g = g.scale(RatQT.monomial(1, max(0, -minq), max(0, -mint)))
    lead_val = g.terms[leading].eval(0, 0)
    if lead_val == -1:
        g = g.scale(RatQT.from_int(-1))
    elif lead_val != 1:
        raise ValueError(f"cannot normalize leading coefficient, value at 0 is {lead_val}")
    return g


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


def _mono_str(rank: int, w: Weight) -> str:
    if all(v == 0 for v in w):
        return "1"
    if rank == 1:
        return "x" if w[0] == 1 else f"x^{w[0]}"
    parts = []
    for i, v in enumerate(w):
        if v == 0:
            continue
        parts.append(f"x_{i+1}" if v == 1 else f"x_{i+1}^{v}")
    return "*".join(parts)


def laurent_to_text(f: QTLaurent) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for w, c in sorted(f.terms.items()):
        mono = _mono_str(f.rs.rank, w)
        m = c.as_monomial()
        plain = m is not None and m[0] > 0
        if c.is_one():
            body = mono
        elif mono == "1":
            body = str(c) if plain else f"({c})"
        elif plain:
            body = f"{c}*{mono}"
        else:
            body = f"({c})*{mono}"
        parts.append(body)
    return " + ".join(parts)


def laurent_to_latex(f: QTLaurent) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for w, c in sorted(f.terms.items()):
        if all(v == 0 for v in w):
            mono = ""
        elif f.rs.rank == 1:
            mono = "x" if w[0] == 1 else f"x^{{{w[0]}}}"
        else:
            mono = "".join(
                "" if v == 0 else (f"x_{{{i+1}}}" if v == 1 else f"x_{{{i+1}}}^{{{v}}}")
                for i, v in enumerate(w)
            )
        coeff = _poly_latex(c)
        if mono and coeff == "1":
            parts.append(mono)
        else:
            parts.append(f"\\left({coeff}\\right){mono}" if mono else coeff)
    return " + ".join(parts)


def _poly_latex(c: RatQT) -> str:
    def pl(p: QTPoly) -> str:
        if p.is_zero():
            return "0"
        bits = []
        for (a, b), v in p.sorted_terms():
            s = []
            if abs(v) != 1 or (a == 0 and b == 0):
                s.append(str(abs(v)))
            if a:
                s.append("q" if a == 1 else f"q^{{{a}}}")
            if b:
                s.append("t" if b == 1 else f"t^{{{b}}}")
            body = " ".join(s)
            bits.append(("+" if v > 0 else "-") + body if bits else ("-" + body if v < 0 else body))
        return "".join(bits)

    if c.is_polynomial():
        return pl(c.num)
    return f"\\frac{{{pl(c.num)}}}{{{pl(c.den)}}}"
