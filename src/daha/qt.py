"""Exact arithmetic in Z[q^{±1}, t^{±1}] and its fraction field Q(q, t).

Two classes:

    QTPoly  -- sparse Laurent polynomial in q and t over arbitrary-precision
               integers, keyed by exponent pairs (dq, dt).
    RatQT   -- reduced fraction of two QTPoly values in canonical form, so
               equal rational functions have identical representations.

Canonical form of a fraction:

  * gcd(num, den) is a unit,
  * den carries no negative exponents and no common monomial factor
    (monomials are pushed into num, which may be Laurent),
  * the lexicographically least term of den (ordered by dq, then dt) has
    positive coefficient.

All values are immutable; operations are pure.

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
     Z[t][q].

The prime and the evaluation points are fixed, and the result is brought to
the same canonical form on every path, so outputs do not depend on the path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from typing import Iterable, Mapping


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

    def lex_least_term(self) -> tuple[Term, int]:
        k = min(self.terms)
        return k, self.terms[k]

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

    def key(self) -> tuple:
        return tuple(sorted(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for (a, b), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (a == 0 and b == 0):
                factors.append(str(abs(c)))
            if a:
                factors.append("q" if a == 1 else f"q^{a}")
            if b:
                factors.append("t" if b == 1 else f"t^{b}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    __repr__ = __str__


ZERO_P = QTPoly()
ONE_P = QTPoly.const(1)


# ---------------------------------------------------------------------------
# gcd machinery (operates on polynomials with nonnegative exponents)
# ---------------------------------------------------------------------------

def _uv_content_pp(p: dict[int, int]) -> tuple[int, dict[int, int]]:
    g = 0
    for c in p.values():
        g = _igcd(g, abs(c))
    if g == 0:
        return 0, {}
    return g, {k: c // g for k, c in p.items()}


def _uv_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, c in a.items():
        for k2, c2 in b.items():
            s = out.get(k + k2, 0) + c * c2
            if s:
                out[k + k2] = s
            else:
                out.pop(k + k2, None)
    return out


def _uv_scale(a: dict[int, int], c: int) -> dict[int, int]:
    return {k: v * c for k, v in a.items()} if c else {}


def _uv_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _uv_gcd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Primitive PRS gcd of univariate integer polynomials (dict degree -> coeff)."""
    ca, pa = _uv_content_pp(a)
    cb, pb = _uv_content_pp(b)
    cont = _igcd(ca, cb)
    if not pa:
        g = pb
    elif not pb:
        g = pa
    else:
        while pb:
            da, db = max(pa), max(pb)
            if da < db:
                pa, pb = pb, pa
                continue
            lead = pb[db]
            r = _uv_sub(_uv_scale(pa, lead), _uv_mul(_uv_scale(pb, pa[da]), {da - db: 1}))
            if r and max(r) >= da:
                raise AssertionError("pseudo-division failed to reduce degree")
            pa = pb
            pb = _uv_content_pp(r)[1]
        g = pa
    g = _uv_content_pp(g)[1]
    # normalize: strip monomial factor, positive leading sign at min degree
    if g:
        m = min(g)
        if m:
            g = {k - m: c for k, c in g.items()}
        if g[min(g)] < 0:
            g = _uv_scale(g, -1)
    return _uv_scale(g, cont) if cont != 1 else g


def _to_q_coeffs(p: QTPoly) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for (a, b), c in p.terms.items():
        out.setdefault(a, {})[b] = c
    return out


def _from_q_coeffs(d: dict[int, dict[int, int]]) -> QTPoly:
    return QTPoly({(a, b): c for a, row in d.items() for b, c in row.items() if c})


def _uv_div_exact(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """Exact quotient a / b in Z[t], or None if not divisible."""
    if not a:
        return {}
    if not b:
        return None
    a = dict(a)
    out: dict[int, int] = {}
    db = max(b)
    lb = b[db]
    while a:
        da = max(a)
        if da < db or a[da] % lb:
            return None
        qc = a[da] // lb
        out[da - db] = qc
        a = _uv_sub(a, _uv_mul(b, {da - db: qc}))
    return out


def div_exact(a: QTPoly, b: QTPoly) -> QTPoly | None:
    """Exact quotient a / b of Laurent polynomials, or None if b does not divide a."""
    if a.is_zero():
        return ZERO_P
    if b.is_zero():
        return None
    if b.is_monomial():
        (dq, dt), c = next(iter(b.terms.items()))
        out: dict[Term, int] = {}
        for (x, y), v in a.terms.items():
            if v % c:
                return None
            out[(x - dq, y - dt)] = v // c
        return QTPoly(out)
    # shift to nonnegative exponents; componentwise min/max are additive,
    # so an exact quotient has exponents inside a known box
    amin, bmin = a.min_exps(), b.min_exps()
    a = a.shift(-amin[0], -amin[1])
    b = b.shift(-bmin[0], -bmin[1])
    amax, bmax = a.max_exps(), b.max_exps()
    if amax[0] < bmax[0] or amax[1] < bmax[1]:
        return None
    # long division with respect to lex order on (dq, dt)
    rem = dict(a.terms)
    bk = max(b.terms)
    bc = b.terms[bk]
    out = {}
    while rem:
        ak = max(rem)
        if rem[ak] % bc:
            return None
        k = (ak[0] - bk[0], ak[1] - bk[1])
        if k[0] < 0 or k[1] < 0:
            return None
        qc = rem[ak] // bc
        out[k] = qc
        for (x, y), v in b.terms.items():
            kk = (x + k[0], y + k[1])
            s = rem.get(kk, 0) - v * qc
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
        if rem and max(rem) >= ak:
            return None
    sq, st = amin[0] - bmin[0], amin[1] - bmin[1]
    if sq or st:
        out = {(x + sq, y + st): v for (x, y), v in out.items()}
    return QTPoly(out)


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


def _prs_gcd(a: QTPoly, b: QTPoly) -> QTPoly:
    """Primitive gcd of primitive a, b with nonnegative exponents: primitive PRS over Z[t][q].

    The fallback of `poly_gcd`, and the oracle its fast path is tested against.
    """
    qa, qb = _to_q_coeffs(a), _to_q_coeffs(b)
    only_t = max(qa) == 0 and max(qb) == 0
    if only_t:
        g = _uv_gcd(qa[0], qb[0])
        return _primitive(_from_q_coeffs({0: g}))
    # contents with respect to q
    ca = {}
    for row in qa.values():
        ca = _uv_gcd(ca, row) if ca else _uv_content_pp(row)[1]
    cb = {}
    for row in qb.values():
        cb = _uv_gcd(cb, row) if cb else _uv_content_pp(row)[1]
    cont = _uv_gcd(ca, cb)
    pa = {k: _uv_div_exact(row, ca) for k, row in qa.items()}
    pb = {k: _uv_div_exact(row, cb) for k, row in qb.items()}
    assert all(v is not None for v in pa.values()) and all(v is not None for v in pb.values())
    # primitive PRS in q over Z[t]
    while pb:
        da, db = max(pa), max(pb)
        if da < db:
            pa, pb = pb, pa
            continue
        la, lb = pa[da], pb[db]
        # lb * pa - la * q^(da-db) * pb
        r: dict[int, dict[int, int]] = {}
        for k, row in pa.items():
            r[k] = _uv_mul(row, lb)
        for k, row in pb.items():
            kk = k + da - db
            r[kk] = _uv_sub(r.get(kk, {}), _uv_mul(row, la))
        r = {k: row for k, row in r.items() if row}
        if r and max(r) >= da:
            raise AssertionError("pseudo-division failed to reduce degree")
        # primitive part of remainder
        if r:
            cr = {}
            for row in r.values():
                cr = _uv_gcd(cr, row) if cr else _uv_content_pp(row)[1]
            r = {k: _uv_div_exact(row, cr) for k, row in r.items()}
        pa, pb = pb, r
    g = _from_q_coeffs({k: _uv_mul(row, cont) for k, row in pa.items()})
    return _primitive(g)




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
    def from_fraction(cls, f: Fraction) -> "RatQT":
        return cls(QTPoly.const(f.numerator), QTPoly.const(f.denominator))

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
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatQT(self.num + other.num, ONE_P, _reduced=True)
        if self.den == other.den:
            return RatQT(self.num + other.num, self.den)
        return RatQT(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatQT":
        return RatQT(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatQT") -> "RatQT":
        return self + (-other)

    def __mul__(self, other: "RatQT") -> "RatQT":
        if self.num.is_zero() or other.num.is_zero():
            return R_ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatQT(self.num * other.num, ONE_P, _reduced=True)
        # cross-reduce, then multiply; the result is already reduced (UFD)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = div_exact(self.num, g1) if not g1.is_one() else self.num
        d2 = div_exact(other.den, g1) if not g1.is_one() else other.den
        n2 = div_exact(other.num, g2) if not g2.is_one() else other.num
        d1 = div_exact(self.den, g2) if not g2.is_one() else self.den
        den = d1 * d2
        num = n1 * n2
        mq, mt = den.min_exps()
        if mq or mt:
            den = den.shift(-mq, -mt)
            num = num.shift(-mq, -mt)
        return RatQT(num, den, _reduced=True)

    def inverse(self) -> "RatQT":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(q,t)")
        return RatQT(self.den, self.num)

    def __truediv__(self, other: "RatQT") -> "RatQT":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatQT":
        if n < 0:
            return self.inverse() ** (-n)
        out = R_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
    """Bring num/den to canonical form."""
    if num.is_zero():
        return ZERO_P, ONE_P
    # shift both into nonnegative exponents
    nq, nt = num.min_exps()
    dq, dt = den.min_exps()
    sq, st = min(nq, dq), min(nt, dt)
    if sq < 0 or st < 0:
        sq, st = min(sq, 0), min(st, 0)
        num = num.shift(-sq, -st)
        den = den.shift(-sq, -st)
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_one():
            n2, d2 = div_exact(num, g), div_exact(den, g)
            assert n2 is not None and d2 is not None
            num, den = n2, d2
    # move den's monomial content into num
    dq, dt = den.min_exps()
    if dq or dt:
        den = den.shift(-dq, -dt)
        num = num.shift(-dq, -dt)
    # sign: lex-least term of den positive
    if den.terms[min(den.terms)] < 0:
        den = den.scale(-1)
        num = num.scale(-1)
    return num, den


R_ZERO = RatQT.from_int(0)
R_ONE = RatQT.from_int(1)
R_T = RatQT.monomial(1, 0, 1)
R_Q = RatQT.monomial(1, 1, 0)


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


def poly_from_json(data: Iterable) -> QTPoly:
    return QTPoly({(int(a), int(b)): int(c) for c, a, b in data})


def ratqt_to_json(r: RatQT) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratqt_from_json(data: Mapping) -> RatQT:
    return RatQT(poly_from_json(data["num"]), poly_from_json(data["den"]))
