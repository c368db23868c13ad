"""Exact arithmetic in Z[q^{±1}, t^{±1}] and its fraction field Q(q, t).

Two classes:

    QTPoly  -- sparse Laurent polynomial in q and t over arbitrary-precision
               integers, keyed by exponent pairs (dq, dt).
    RatQT   -- reduced fraction of two QTPoly values in canonical form, so
               equal rational functions have identical representations.

Canonical form of a fraction: gcd(num, den) is a unit; den carries no
negative exponents and no common monomial factor (monomials are pushed into
num, which may be Laurent); the lexicographically least term of den (ordered
by dq, then dt) has positive coefficient.  RatQT arithmetic builds the
unreduced pair, (n1 n2, d1 d2) or a sum over a common denominator, and
`_reduce` alone brings it to canonical form.  Values are immutable.

Exact division (`div_exact`) needs no gcd.  Componentwise minima and maxima of
exponents add under products, so an exact quotient of a by b lies in a known
box, and a sparse long division on packed keys whose quotient leaves that box
proves that b does not divide a.

The gcd behind every reduction (`poly_gcd`) is exact on every path.  After the
monomial and integer content are split off, the primitive gcd G of a and b is
found in three steps:

  1. Degree certificate.  Fixing t = t0 mod a large prime p maps a and b to
     F_p[q].  At a t0 where the q-leading coefficient of a survives, the image
     of G keeps its q-degree (lc(G) divides lc(a)) and divides both images, so
     deg_q G <= deg of the image gcd; likewise with q and t swapped.  Bounds
     (0, 0) prove G = 1.
  2. Heuristic candidate (GCDHEU, Char, Geddes & Gonnet 1989).  Evaluate t and
     then q at large integers, take the integer gcd, and read a candidate H
     back from its digits with symmetric residues.  H is accepted only if it
     divides a and b exactly and meets both degree bounds of step 1; then H
     divides G with deg H >= deg G, so H = G up to sign.
  3. Fallback.  Any input the first two steps leave open (unlucky evaluation
     points, or a candidate never accepted) goes to the primitive PRS over
     Z[t][q] (Knuth, TAOCP vol. 2, 4.6.1), written in QTPoly products and
     `div_exact`.  The Z[t] content of each remainder comes from the same
     routine run in t over Z, where the content is an integer.

The prime and the evaluation points are fixed, and the result is brought to
the same canonical form on every path, so outputs do not depend on the path.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _igcd


Term = tuple[int, int]  # exponent pair (dq, dt)


class QTPoly:
    """Sparse Laurent polynomial in q, t with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Term, int] | None = None):
        t = {k: c for k, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QTPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "QTPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c: int, dq: int, dt: int) -> "QTPoly":
        return cls({(dq, dt): c})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def min_exps(self) -> Term:
        """Componentwise minimum of exponents; (0, 0) for the zero polynomial."""
        if not self.terms:
            return (0, 0)
        return (min(k[0] for k in self.terms), min(k[1] for k in self.terms))

    def max_exps(self) -> Term:
        if not self.terms:
            return (0, 0)
        return (max(k[0] for k in self.terms), max(k[1] for k in self.terms))

    def content(self) -> int:
        """Positive gcd of all integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = _igcd(g, abs(c))
            if g == 1:
                return 1
        return g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QTPoly") -> "QTPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QTPoly(out)

    def __neg__(self) -> "QTPoly":
        return QTPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "QTPoly") -> "QTPoly":
        return self + (-other)

    def __mul__(self, other: "QTPoly") -> "QTPoly":
        if not self.terms or not other.terms:
            return ZERO_P
        if other.is_one():
            return self
        if self.is_one():
            return other
        out: dict[Term, int] = {}
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a + a2, b + b2)
                s = out.get(k, 0) + c * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return QTPoly(out)

    def scale(self, c: int) -> "QTPoly":
        if c == 0:
            return ZERO_P
        if c == 1:
            return self
        return QTPoly({k: c * v for k, v in self.terms.items()})

    def shift(self, dq: int, dt: int) -> "QTPoly":
        """Multiply by the monomial q^dq t^dt."""
        if dq == 0 and dt == 0:
            return self
        return QTPoly({(a + dq, b + dt): c for (a, b), c in self.terms.items()})

    def int_div(self, c: int) -> "QTPoly":
        assert all(v % c == 0 for v in self.terms.values())
        return QTPoly({k: v // c for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "QTPoly":
        assert n >= 0
        out = ONE_P
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation / substitution ------------------------------------------

    def eval(self, q0: Fraction, t0: Fraction) -> Fraction:
        """Exact value at q = q0, t = t0 (q0, t0 nonzero if negative exponents occur)."""
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * q0 ** a * t0 ** b
        return total

    def subs_t_eq_q(self) -> "QTPoly":
        """Substitute t by q."""
        out: dict[Term, int] = {}
        for (a, b), c in self.terms.items():
            k = (a + b, 0)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QTPoly(out)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, QTPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


ZERO_P = QTPoly()
ONE_P = QTPoly.const(1)


def format_power(var: str, e: int, latex: bool = False) -> str:
    """var^e as text (q^-2) or LaTeX (q^{-2}); the exponent 1 is left out."""
    if e == 1:
        return var
    return f"{var}^{{{e}}}" if latex else f"{var}^{e}"


def format_poly(p: QTPoly, latex: bool = False) -> str:
    """p in lex term order, as text (2-3*q^2*t) or LaTeX (2-3 q^{2} t)."""
    if not p.terms:
        return "0"
    parts: list[str] = []
    for (a, b), c in p.sorted_terms():
        factors = [str(abs(c))] if abs(c) != 1 or a == b == 0 else []
        factors += [format_power(v, e, latex) for v, e in (("q", a), ("t", b)) if e]
        parts.append(("-" if c < 0 else "+" if parts else "") + (" " if latex else "*").join(factors))
    return "".join(parts)


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------

def div_exact(a: QTPoly, b: QTPoly) -> QTPoly | None:
    """Exact quotient a / b of Laurent polynomials, or None if b does not divide a.

    Componentwise minima and maxima of exponents add under products, so an exact quotient lies in
    the box amin - bmin <= (kq, kt) <= amin - bmin + w with w = (amax - amin) - (bmax - bmin).  a is
    packed relative to its minima as rem = {dq * width + dt: c}, width = amax_t - amin_t + 1, and b
    relative to its own, so the quotient's keys come out relative to amin - bmin.

    Sparse long division in lex order on (dq, dt), a simpler relative of Monagan & Pearce, Sparse
    polynomial division using a heap, JSC 2011, which merges the quotient-times-divisor products
    instead.  The leading key of rem is popped from a max-heap (negated for heapq; a key whose
    coefficient cancelled stays there and is skipped).  While each quotient term stays in the box,
    every remainder term lies in a's box and integer order on keys is lex order; a quotient term
    outside the box proves b does not divide a, before a key can wrap into the next q-row.  Each
    divisor term is packed once, as an offset from b's lex-leading term: a step adds offsets to the
    leading key, the leading term cancels and every new key is smaller, so no rescan is needed.
    """
    if a.is_zero():
        return ZERO_P
    if b.is_zero():
        return None
    (aq, at), (aq1, at1) = a.min_exps(), a.max_exps()
    (bq, bt), (bq1, bt1) = b.min_exps(), b.max_exps()
    wq, wt = (aq1 - aq) - (bq1 - bq), (at1 - at) - (bt1 - bt)
    if wq < 0 or wt < 0:
        return None
    width = at1 - at + 1
    rem = {(x - aq) * width + (y - at): v for (x, y), v in a.terms.items()}
    heap = [-k for k in rem]
    heapify(heap)
    bterms = {(x - bq, y - bt): v for (x, y), v in b.terms.items()} if bq or bt else b.terms
    (lq, lt), lc = max(bterms.items())
    lead = lq * width + lt
    offs = [((x - lq) * width + (y - lt), v) for (x, y), v in bterms.items() if (x, y) != (lq, lt)]
    out = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue
        if c % lc:
            return None
        kq, kt = divmod(k, width)
        if kq < lq or kt < lt or kt - lt > wt:
            return None
        qc = c // lc
        out[k - lead] = qc
        for off, v in offs:
            kk = k + off
            s = rem.get(kk, 0) - v * qc
            if s:
                if kk not in rem:
                    heappush(heap, -kk)
                rem[kk] = s
            else:
                del rem[kk]
    sq, st = aq - bq, at - bt
    return QTPoly({(k // width + sq, k % width + st): c for k, c in out.items()})


def _canon_unit(g: QTPoly) -> QTPoly:
    """Normalize up to units: strip monomial factors, make the lex-least sign positive."""
    if g.is_zero():
        return g
    mq, mt = g.min_exps()
    if mq or mt:
        g = g.shift(-mq, -mt)
    if g.terms[min(g.terms)] < 0:
        g = g.scale(-1)
    return g


def _primitive(g: QTPoly) -> QTPoly:
    c = g.content()
    return g.int_div(c) if c > 1 else g


def poly_gcd(a: QTPoly, b: QTPoly) -> QTPoly:
    """gcd of two Laurent polynomials, canonical up to units (monomials stripped).

    After the monomial and integer content are split off, the primitive gcd G
    is found in three steps, each exact:

    1. the images of a and b in F_p[q] (t fixed) and F_p[t] (q fixed) bound the
       degrees of G (`_image_gcd_degree`); bounds (0, 0) prove G = 1;
    2. a GCDHEU candidate H that divides both operands and reaches both
       degree bounds is G (`_heu_gcd`);
    3. otherwise the primitive PRS over Z[t][q] computes G (`_prs_gcd`).
    """
    if a.is_zero():
        return _canon_unit(b)
    if b.is_zero():
        return _canon_unit(a)
    icont = _igcd(a.content(), b.content())
    if a.is_monomial() or b.is_monomial():
        return QTPoly.const(icont)
    if a == b:
        return _canon_unit(a)
    # shift both to nonnegative exponents; monomials are units here
    mq, mt = a.min_exps()
    a = a.shift(-mq, -mt)
    mq, mt = b.min_exps()
    b = b.shift(-mq, -mt)
    a, b = _primitive(a), _primitive(b)
    dq, dt = _image_gcd_degree(a, b, 0), _image_gcd_degree(a, b, 1)
    if dq == 0 and dt == 0:
        return QTPoly.const(icont)
    g = None
    if dq is not None and dt is not None:
        g = _heu_gcd(a, b, (dq, dt))
    if g is None:
        g = _prs_gcd(a, b)
    return _canon_unit(g).scale(icont)


# Step 1 (see the module docstring): degree bounds from images mod a prime.
# The prime and the points are fixed, so every run takes the same path.

_PRIME = 2**31 - 1
_CERT_POINTS = (1_234_567, 76_543_211, 987_654_319)


def _image(p: QTPoly, var: int, x0: int, deg: int) -> list[int]:
    """p mod _PRIME with the other variable at x0, dense in `var` (index = degree)."""
    out = [0] * (deg + 1)
    for k, c in p.terms.items():
        out[k[var]] += c * pow(x0, k[1 - var], _PRIME)
    return [v % _PRIME for v in out]


def _gf_gcd_degree(f: list[int], g: list[int]) -> int:
    """Degree of gcd(f, g) in F_p[x], f nonzero; lists are dense, lowest degree first."""
    while f and not f[-1]:
        f = f[:-1]
    while g and not g[-1]:
        g = g[:-1]
    if len(f) < len(g):
        f, g = g, f
    while g:
        # f <- f mod g, then swap
        f = list(f)
        dg = len(g) - 1
        inv = pow(g[-1], -1, _PRIME)
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i] * inv % _PRIME
            if c:
                s = i - dg
                for j in range(dg):
                    f[s + j] = (f[s + j] - c * g[j]) % _PRIME
        f = f[:dg]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) - 1


def _image_gcd_degree(a: QTPoly, b: QTPoly, var: int) -> int | None:
    """An upper bound on deg_var gcd(a, b), or None if lc(a) vanishes at every point."""
    da, db = a.max_exps()[var], b.max_exps()[var]
    for x0 in _CERT_POINTS:
        fa = _image(a, var, x0, da)
        if fa[da]:
            return _gf_gcd_degree(fa, _image(b, var, x0, db))
    return None


# Step 2 (see the module docstring): the heuristic gcd (Char, Geddes & Gonnet,
# GCDHEU, JSC 1989).  Put t = xi, then q = xi2, take the integer gcd and read
# the candidate back as digits with symmetric residues.  A common factor of the
# cofactor values multiplies the integer gcd and can push its digits out of
# range, so each retry doubles the margin of xi2 as well as raising xi.

_HEU_TRIES = 4


def _sym_digits(n: int, x: int) -> dict[int, int]:
    """The digits d_i of n = sum d_i x^i with -x/2 < d_i <= x/2 (x >= 3)."""
    out = {}
    i = 0
    half = x // 2
    while n:
        n, d = divmod(n, x)
        if d > half:
            d -= x
            n += 1
        if d:
            out[i] = d
        i += 1
    return out


def _eval_t(p: QTPoly, xi: int) -> dict[int, int]:
    """p at t = xi, as a polynomial in q (exponent -> integer coefficient)."""
    out: dict[int, int] = {}
    for (i, j), c in p.terms.items():
        out[i] = out.get(i, 0) + c * xi**j
    return out


def _heu_gcd(a: QTPoly, b: QTPoly, bounds: Term) -> QTPoly | None:
    """gcd of primitive a, b by GCDHEU, proven against the degree bounds; None if every try fails."""
    xi = 2 * min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values()))) + 2
    for k in range(_HEU_TRIES):
        ea, eb = _eval_t(a, xi), _eval_t(b, xi)
        na, nb = max(map(abs, ea.values())), max(map(abs, eb.values()))
        if na and nb:
            xi2 = (2 * min(na, nb) + 2) << k
            gamma = _igcd(sum(c * xi2**i for i, c in ea.items()), sum(c * xi2**i for i, c in eb.items()))
            # gcd in Z[q] of the images: the primitive part of the digits times
            # the gcd of the contents, which drops a spurious factor of gamma
            hq = _sym_digits(gamma, xi2)
            scale, cont = _igcd(*ea.values(), *eb.values()), _igcd(*hq.values())
            h = {
                (i, j): d
                for i, c in hq.items()
                for j, d in _sym_digits(c // cont * scale, xi).items()
            }
            cand = _canon_unit(_primitive(QTPoly(h)))
            if (
                cand.max_exps() == bounds
                and div_exact(a, cand) is not None
                and div_exact(b, cand) is not None
            ):
                return cand
        xi = xi * 73794 // 27011
    return None


def _coeff(p: QTPoly, var: int, d: int) -> QTPoly:
    """The coefficient of q^d in p (var = 0), a polynomial in t; or of t^d in p free of q (var = 1), an integer."""
    return QTPoly({(0, k[1]) if var == 0 else (0, 0): c for k, c in p.terms.items() if k[var] == d})


def _content(ps: tuple[QTPoly, ...], var: int) -> QTPoly:
    """gcd of the coefficients of all of ps in q over Z[t] (var = 0), or in t over Z (var = 1)."""
    if var:
        return QTPoly.const(_igcd(*(p.content() for p in ps)))
    g = None
    for p in ps:
        for d in {k[0] for k in p.terms}:
            g = _coeff(p, 0, d) if g is None else _prs_gcd(g, _coeff(p, 0, d), 1)
    return g


def _prs_gcd(a: QTPoly, b: QTPoly, var: int = 0) -> QTPoly:
    """gcd of nonzero a, b with nonnegative exponents, up to sign, by the primitive PRS.

    The PRS runs in q over Z[t] (var = 0).  Each step replaces the operand of
    higher degree by the primitive part of lc(b) a - q^(da - db) lc(a) b, and
    the gcd of the inputs' contents multiplies the last nonzero remainder.
    The Z[t] contents come from the same PRS run in t over Z (var = 1), where
    the content is the integer `QTPoly.content`.  The fallback of `poly_gcd`,
    and the oracle its fast path is tested against.
    """
    ca, cb = _content((a,), var), _content((b,), var)
    a, b = div_exact(a, ca), div_exact(b, cb)
    while not b.is_zero():
        da, db = a.max_exps()[var], b.max_exps()[var]
        if da < db:
            a, b = b, a
            continue
        x = (da - db, 0) if var == 0 else (0, da - db)
        r = _coeff(b, var, db) * a - (_coeff(a, var, da) * b).shift(*x)
        if not r.is_zero() and r.max_exps()[var] >= da:
            raise AssertionError("pseudo-division failed to reduce degree")
        a, b = b, (r if r.is_zero() else div_exact(r, _content((r,), var)))
    return a * _content((ca, cb), var)


def poly_lcm(a: QTPoly, b: QTPoly) -> QTPoly:
    if a.is_zero() or b.is_zero():
        return ZERO_P
    g = poly_gcd(a, b)
    q = div_exact(a, g)
    assert q is not None
    return _canon_unit(q * b)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatQT:
    """Reduced rational function in q and t, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: QTPoly, den: QTPoly = ONE_P, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(q,t)")
        if not _reduced:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatQT is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, c: int) -> "RatQT":
        return cls(QTPoly.const(c), ONE_P, _reduced=True)

    @classmethod
    def monomial(cls, c: int, dq: int, dt: int) -> "RatQT":
        return cls(QTPoly.monomial(c, dq, dt), ONE_P, _reduced=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_monomial(self) -> tuple[int, int, int] | None:
        """Return (coefficient, dq, dt) if the value is c*q^a*t^b, else None."""
        if self.den.is_one() and self.num.is_monomial():
            (dq, dt), c = next(iter(self.num.terms.items()))
            return c, dq, dt
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatQT") -> "RatQT":
        if self.den == other.den:
            return RatQT(self.num + other.num, self.den)
        return RatQT(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatQT":
        return RatQT(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatQT") -> "RatQT":
        return self + (-other)

    def __mul__(self, other: "RatQT") -> "RatQT":
        return RatQT(self.num * other.num, self.den * other.den,
                     _reduced=self.den.is_one() and other.den.is_one())

    def inverse(self) -> "RatQT":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(q,t)")
        return RatQT(self.den, self.num)

    def __truediv__(self, other: "RatQT") -> "RatQT":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatQT":
        """Canonical as it stands: num^n, den^n stay coprime and den^n keeps den's normalisation."""
        if n < 0:
            return self.inverse() ** (-n)
        return RatQT(self.num ** n, self.den ** n, _reduced=True)

    # -- evaluation ----------------------------------------------------------

    def eval(self, q0: Fraction | int, t0: Fraction | int) -> Fraction:
        """Exact value at (q0, t0); raises ZeroDivisionError on a pole."""
        q0, t0 = Fraction(q0), Fraction(t0)
        d = self.den.eval(q0, t0)
        if d == 0:
            raise ZeroDivisionError(f"pole at (q, t) = ({q0}, {t0})")
        return self.num.eval(q0, t0) / d

    def subs_t_eq_q(self) -> "RatQT":
        return RatQT(self.num.subs_t_eq_q(), self.den.subs_t_eq_q())

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RatQT) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _reduce(num: QTPoly, den: QTPoly) -> tuple[QTPoly, QTPoly]:
    """Bring num/den to canonical form: cancel gcd(num, den), then divide both by den's unit."""
    if num.is_zero():
        return ZERO_P, ONE_P
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = div_exact(num, g), div_exact(den, g)
            assert num is not None and den is not None
    # the unit +-q^a t^b: den's monomial content, and the sign of its lex-least term
    (a, b), s = den.min_exps(), -1 if den.terms[min(den.terms)] < 0 else 1
    return num.shift(-a, -b).scale(s), den.shift(-a, -b).scale(s)


R_ZERO = RatQT.from_int(0)
R_ONE = RatQT.from_int(1)


def rat(num: QTPoly | int, den: QTPoly | int = 1) -> RatQT:
    """Convenience constructor for fractions of polynomials or integers."""
    if isinstance(num, int):
        num = QTPoly.const(num)
    if isinstance(den, int):
        den = QTPoly.const(den)
    return RatQT(num, den)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def poly_to_json(p: QTPoly) -> list[list]:
    return [[str(c), a, b] for (a, b), c in p.sorted_terms()]


_JSON_KINDS = {int: "an integer", list: "an array", dict: "an object"}


def json_value(x, kind: type, what: str):
    """x if it is a JSON value of kind int, list or dict (a bool is not an int); ValueError otherwise."""
    if type(x) is not kind:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, not {x!r}")
    return x


def _coeff_from_json(c) -> int:
    """A coefficient: a JSON integer or a decimal-integer string such as "-12"."""
    if type(c) is int or isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c):
        return int(c)
    raise ValueError(f"coefficient must be an integer or a decimal-integer string, not {c!r}")


def poly_from_json(data: list) -> QTPoly:
    """Inverse of poly_to_json: [[coefficient, q-exponent, t-exponent], ...]."""
    terms = {}
    for term in json_value(data, list, "a polynomial"):
        c, a, b = json_value(term, list, "a polynomial term")  # ValueError unless three entries
        key = json_value(a, int, "an exponent"), json_value(b, int, "an exponent")
        if key in terms:
            raise ValueError(f"repeated exponent pair {list(key)} in a polynomial")
        terms[key] = _coeff_from_json(c)
    return QTPoly(terms)


def ratqt_to_json(r: RatQT) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratqt_from_json(data: dict) -> RatQT:
    """Inverse of ratqt_to_json: {"num": polynomial, "den": polynomial}."""
    json_value(data, dict, "a coefficient")
    return RatQT(poly_from_json(data.get("num")), poly_from_json(data.get("den")))
