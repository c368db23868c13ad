"""Exact q,t-arithmetic: canonical forms, ring axioms, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from daha.qt import (
    ONE_P,
    QTPoly,
    RatQT,
    ZERO_P,
    _canon_unit,
    _heu_gcd,
    _image_gcd_degree,
    _primitive,
    _prs_gcd,
    div_exact,
    poly_gcd,
    poly_lcm,
    rat,
    ratqt_from_json,
    ratqt_to_json,
)


def P(**kw) -> QTPoly:
    """Shorthand: P(c=1, qt=-1) -> 1 - q*t, keys are '', 'q', 't', 'qt', 'q2', 'q2t', ..."""
    terms = {}
    for key, c in kw.items():
        name = key
        dq = dt = 0
        if name.startswith("c"):
            name = name[1:]
        if name.startswith("q"):
            rest = name[1:]
            i = 0
            while i < len(rest) and (rest[i].isdigit() or rest[i] == "m"):
                i += 1
            dq = int(rest[:i].replace("m", "-")) if i else 1
            name = rest[i:]
        if name.startswith("t"):
            rest = name[1:]
            dt = int(rest.replace("m", "-")) if rest else 1
            name = ""
        assert name == "", key
        terms[(dq, dt)] = terms.get((dq, dt), 0) + c
    return QTPoly(terms)


ONE_MINUS_T = P(c=1, t=-1)
ONE_MINUS_QT = P(c=1, qt=-1)


class TestQTPoly:
    def test_zero_terms_dropped(self):
        assert QTPoly({(1, 0): 0, (0, 0): 2}).terms == {(0, 0): 2}

    def test_mul(self):
        assert ONE_MINUS_QT * P(c=1, qt=1) == P(c=1, q2t2=-1)

    def test_laurent_exponents(self):
        qinv = QTPoly.monomial(1, -1, 0)
        assert qinv * QTPoly.monomial(1, 1, 0) == ONE_P

    def test_subs_t_eq_q(self):
        assert ONE_MINUS_QT.subs_t_eq_q() == P(c=1, q2=-1)

    def test_str(self):
        assert str(ONE_MINUS_QT) == "1-q*t"
        assert str(P(q2t=3, c=-2)) == "-2+3*q^2*t"


class TestPowers:
    def test_poly_pow_is_repeated_product(self):
        p = P(c=2, qm1t=-1, q2=1)
        acc = ONE_P
        for n in range(6):
            assert p ** n == acc
            acc = acc * p

    def test_ratqt_pow_is_repeated_product(self):
        # the second fraction has the Laurent numerator 1 + q^-1
        for r in (rat(P(c=2, qt=-1), ONE_MINUS_T * P(c=1, q=1)), rat(P(c=1, qm1=1), ONE_MINUS_T)):
            acc = inv = RatQT.from_int(1)
            for n in range(5):
                assert r ** n == acc
                assert r ** -n == inv
                acc, inv = acc * r, inv * r.inverse()

    def test_ratqt_sub_is_add_negative(self):
        a = rat(ONE_MINUS_QT, ONE_MINUS_T)
        b = rat(P(c=3, q=1), ONE_MINUS_QT)
        for x, y in ((a, b), (b, a), (a, a), (a, RatQT.from_int(0))):
            assert x - y == x + (-y)


class TestGcd:
    def test_gcd_common_factor(self):
        a = ONE_MINUS_QT * ONE_MINUS_T
        b = ONE_MINUS_QT * P(c=1, q=1)
        assert poly_gcd(a, b) == ONE_MINUS_QT

    def test_gcd_coprime(self):
        assert poly_gcd(ONE_MINUS_T, ONE_MINUS_QT) == ONE_P

    def test_gcd_strips_monomials(self):
        assert poly_gcd(P(q=2), P(q2=4)) == QTPoly.const(2)

    def test_gcd_integer_content(self):
        assert poly_gcd(ONE_MINUS_T.scale(2), ONE_MINUS_T.scale(4)) == ONE_MINUS_T.scale(2)

    def test_fast_path_finds_common_factor(self):
        a = ONE_MINUS_QT * ONE_MINUS_T
        b = ONE_MINUS_QT * P(c=1, q=1)
        bounds = (_image_gcd_degree(a, b, 0), _image_gcd_degree(a, b, 1))
        assert bounds == (1, 1)
        assert _canon_unit(_heu_gcd(a, b, bounds)) == ONE_MINUS_QT

    def test_certificate_proves_coprime(self):
        a, b = ONE_MINUS_T * P(c=2, q=1), ONE_MINUS_QT * P(c=1, q2t=-3)
        assert (_image_gcd_degree(a, b, 0), _image_gcd_degree(a, b, 1)) == (0, 0)

    def test_heuristic_rejects_candidate_below_bounds(self):
        # 1 - q t divides both, but bounds above its degrees cannot be met
        a = ONE_MINUS_QT * ONE_MINUS_T
        b = ONE_MINUS_QT * P(c=1, q=1)
        assert _heu_gcd(a, b, (2, 1)) is None

    def test_prs_fallback(self, monkeypatch):
        import daha.qt

        monkeypatch.setattr(daha.qt, "_heu_gcd", lambda a, b, bounds: None)
        a = ONE_MINUS_QT * ONE_MINUS_T * P(c=3, t=1)
        b = ONE_MINUS_QT * ONE_MINUS_T * P(c=1, q=1)
        assert poly_gcd(a, b) == ONE_MINUS_QT * ONE_MINUS_T

    def test_prs_shared_content(self):
        # the gcd 1 + t lies in Z[t]: the PRS in q finds it as the gcd of the contents
        a, b = P(c=1, t=1) * P(c=1, q=1), P(c=1, t=1) * ONE_MINUS_QT
        assert _canon_unit(_prs_gcd(a, b)) == P(c=1, t=1)

    def test_prs_free_of_q(self):
        a, b = ONE_MINUS_T * P(c=2, t=1), ONE_MINUS_T * P(c=1, t2=1)
        assert _canon_unit(_prs_gcd(a, b)) == ONE_MINUS_T

    def test_div_exact(self):
        num = P(c=1, q2t2=-1)
        assert div_exact(num, ONE_MINUS_QT) == P(c=1, qt=1)
        assert div_exact(ONE_MINUS_T, ONE_MINUS_QT) is None

    def test_lcm(self):
        a = ONE_MINUS_QT * ONE_MINUS_T
        b = ONE_MINUS_QT * P(c=1, q2t=-1)
        lcm = poly_lcm(a, b)
        assert div_exact(lcm, a) is not None
        assert div_exact(lcm, b) is not None
        assert lcm == ONE_MINUS_QT * ONE_MINUS_T * P(c=1, q2t=-1)


class TestRatQTCanonical:
    def test_additive_inverse_is_zero(self):
        a = rat(ONE_MINUS_T, ONE_MINUS_QT)
        b = rat(-ONE_MINUS_T, ONE_MINUS_QT)
        assert (a + b).is_zero()
        assert a + b == RatQT.from_int(0)

    def test_add_identity(self):
        one = RatQT.from_int(1)
        assert one + RatQT.from_int(0) == one

    def test_cancellation_by_division_oracle(self):
        # (1 - q^2 t^2)/(1 - q t) reduces to 1 + q t: verified by expansion
        assert ONE_MINUS_QT * P(c=1, qt=1) == P(c=1, q2t2=-1)
        f = rat(P(c=1, q2t2=-1), ONE_MINUS_QT) + RatQT.from_int(0)
        assert f == rat(P(c=1, qt=1))

    def test_mul_inverse(self):
        f = rat(ONE_MINUS_T)
        assert f * rat(1, ONE_MINUS_T) == RatQT.from_int(1)

    def test_laurent_unit(self):
        qinv = RatQT.monomial(1, -1, 0)
        assert qinv * RatQT.monomial(1, 1, 0) == RatQT.from_int(1)

    def test_mul_cancels(self):
        f = rat(ONE_MINUS_T, ONE_MINUS_QT) * rat(ONE_MINUS_QT)
        assert f == rat(ONE_MINUS_T)

    def test_monomials_live_in_numerator(self):
        f = rat(1, P(q=1))
        assert f.num == QTPoly.monomial(1, -1, 0)
        assert f.den == ONE_P

    def test_denominator_sign(self):
        f = rat(ONE_P, P(c=-1, t=1))
        assert f.den == ONE_MINUS_T
        assert f.num == QTPoly.const(-1)

    def test_common_integer_factor(self):
        a = rat(ONE_MINUS_T, ONE_MINUS_QT)
        b = rat(ONE_MINUS_T.scale(6), ONE_MINUS_QT.scale(6))
        assert a == b

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat(1) / RatQT.from_int(0)
        with pytest.raises(ZeroDivisionError):
            rat(ONE_P, ZERO_P)


class TestEval:
    def test_eval_simple(self):
        assert rat(ONE_MINUS_QT).eval(1, -1) == 2

    def test_eval_rational(self):
        assert rat(ONE_MINUS_T, ONE_MINUS_QT).eval(0, 0) == 1

    def test_eval_product(self):
        f = rat(ONE_MINUS_QT * ONE_MINUS_T)
        assert f.eval(1, -1) == 4

    def test_eval_pole(self):
        with pytest.raises(ZeroDivisionError):
            rat(ONE_P, ONE_MINUS_T).eval(Fraction(2), Fraction(1))


# hypothesis strategies for small exact values ------------------------------

exps = st.integers(min_value=-2, max_value=2)
coeffs = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=3).map(QTPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@st.composite
def ratqts(draw):
    return RatQT(draw(polys), draw(nonzero_polys))


@settings(max_examples=60, deadline=None)
@given(ratqts(), ratqts(), ratqts())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys, st.integers(min_value=1, max_value=7))
def test_scaling_invariance(n, d, k):
    assert RatQT(n, d) == RatQT(n.scale(k), d.scale(k))
    assert RatQT(n, d) == RatQT(n.shift(1, 2), d.shift(1, 2))


@settings(max_examples=60, deadline=None)
@given(ratqts())
def test_canonical_idempotent(r):
    assert RatQT(r.num, r.den) == r


@settings(max_examples=60, deadline=None)
@given(ratqts().filter(lambda r: not r.is_zero()))
def test_field_inverse(r):
    assert r * (RatQT.from_int(1) / r) == RatQT.from_int(1)


def test_json_round_trip():
    f = rat(ONE_MINUS_T.shift(-1, 0), ONE_MINUS_QT)
    data = ratqt_to_json(f)
    assert ratqt_from_json(data) == f
    assert data["num"] == sorted(data["num"], key=lambda e: (e[1], e[2]))


# differential tests: sympy is an independent oracle (test-only) -------------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sym(sympy, p: QTPoly):
    """p as a sympy Poly in q, t, shifted to nonnegative exponents (a unit)."""
    mq, mt = p.min_exps()
    return sympy.Poly.from_dict(p.shift(-mq, -mt).terms or {(0, 0): 0}, sympy.symbols("q t"))


def _from_sym(sympy, e) -> QTPoly:
    return QTPoly({k: int(c) for k, c in sympy.Poly(e, *sympy.symbols("q t"), domain="ZZ").terms()})


@st.composite
def gcd_pairs(draw):
    """(g u, g v): a shared factor g, so both the candidate and the certificate run."""
    g, u, v = draw(polys), draw(polys), draw(polys)
    return g * u, g * v


@settings(max_examples=60, deadline=None)
@given(gcd_pairs())
def test_poly_gcd_matches_sympy(sympy, pair):
    a, b = pair
    want = sympy.gcd(_sym(sympy, a), _sym(sympy, b))
    assert poly_gcd(a, b) == _canon_unit(_from_sym(sympy, want.as_expr()))


@settings(max_examples=60, deadline=None)
@given(gcd_pairs().filter(lambda pair: not pair[1].is_zero()))
def test_ratqt_matches_sympy_cancel(sympy, pair):
    n, d = pair
    r = RatQT(n, d)
    num, den = sympy.cancel(_sym(sympy, n).as_expr() / _sym(sympy, d).as_expr()).as_numer_denom()
    num, den = _from_sym(sympy, num), _from_sym(sympy, den)
    # equal up to a unit +-q^a t^b, which the canonical form fixes; _sym
    # shifted n and d to nonnegative exponents, so undo that in the cross product
    assert r.den == _canon_unit(den)
    (nq, nt), (dq, dt) = n.min_exps(), d.min_exps()
    assert r.num * den == r.den * num.shift(nq - dq, nt - dt)


@settings(max_examples=60, deadline=None)
@given(gcd_pairs())
def test_fast_path_matches_prs(pair):
    a, b = (_primitive(_canon_unit(p)) for p in pair)
    if a.is_zero() or b.is_zero() or a.is_monomial() or b.is_monomial():
        return
    want = _canon_unit(_prs_gcd(a, b))
    bounds = (_image_gcd_degree(a, b, 0), _image_gcd_degree(a, b, 1))
    # the image degrees bound the true ones
    assert bounds[0] >= want.max_exps()[0] and bounds[1] >= want.max_exps()[1]
    if bounds == (0, 0):
        assert want == ONE_P
    else:
        got = _heu_gcd(a, b, bounds)
        assert got is None or _canon_unit(got) == want


nonneg_exps = st.integers(min_value=0, max_value=2)
prs_keys = {
    "q and t": st.tuples(nonneg_exps, nonneg_exps),
    "t only": st.tuples(st.just(0), nonneg_exps),
    "q only": st.tuples(nonneg_exps, st.just(0)),
}


def nonzero_nonneg_polys(keys):
    return st.dictionaries(keys, coeffs.filter(bool), min_size=1, max_size=3).map(QTPoly)


@st.composite
def prs_pairs(draw):
    """Nonzero (g u, g v) with nonnegative exponents, free of q or of t, or
    in q and t times a shared content c in Z[t] (possibly a power of t)."""
    kind = draw(st.sampled_from([*prs_keys, "shared content"]))
    factors = nonzero_nonneg_polys(prs_keys.get(kind, prs_keys["q and t"]))
    g, u, v = draw(factors), draw(factors), draw(factors)
    if kind == "shared content":
        g = g * draw(nonzero_nonneg_polys(prs_keys["t only"]))
    return g * u, g * v


@settings(max_examples=100, deadline=None)
@given(prs_pairs())
def test_prs_matches_sympy(sympy, pair):
    want = sympy.gcd(*(sympy.Poly.from_dict(p.terms, sympy.symbols("q t")) for p in pair))
    want = _from_sym(sympy, want.as_expr())
    assert _prs_gcd(*pair) in (want, -want)


# exact division against independent oracles ---------------------------------

def _schoolbook_div_exact(a: QTPoly, b: QTPoly) -> QTPoly | None:
    """The earlier long division, kept as an oracle: find the leading
    remainder term by a scan of the whole remainder at every step."""
    if a.is_zero():
        return ZERO_P
    if b.is_zero():
        return None
    if b.is_monomial():
        (dq, dt), c = next(iter(b.terms.items()))
        out = {}
        for (x, y), v in a.terms.items():
            if v % c:
                return None
            out[(x - dq, y - dt)] = v // c
        return QTPoly(out)
    amin, bmin = a.min_exps(), b.min_exps()
    a = a.shift(-amin[0], -amin[1])
    b = b.shift(-bmin[0], -bmin[1])
    amax, bmax = a.max_exps(), b.max_exps()
    if amax[0] < bmax[0] or amax[1] < bmax[1]:
        return None
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
    return QTPoly({(x + sq, y + st): v for (x, y), v in out.items()})


wide_exps = st.integers(min_value=-3, max_value=3)
wide_polys = st.dictionaries(st.tuples(wide_exps, wide_exps), coeffs, max_size=5).map(QTPoly)


@st.composite
def divisors(draw):
    """Nonzero divisors; about half have a lex-leading term (largest dq, then dt)
    below their top t-power, the case where a packed key could wrap."""
    b = draw(wide_polys.filter(lambda p: not p.is_zero()))
    if draw(st.booleans()):
        (lq, lt), _ = max(b.terms.items())
        extra = QTPoly.monomial(draw(coeffs.filter(bool)), lq - draw(st.integers(1, 2)), lt + draw(st.integers(1, 3)))
        b = b + extra if not (b + extra).is_zero() else extra
    return b


@st.composite
def division_pairs(draw):
    """(g u, g) half the time, else an arbitrary dividend."""
    b = draw(divisors())
    if draw(st.booleans()):
        return b * draw(wide_polys), b
    return draw(wide_polys), b


@settings(max_examples=300, deadline=None)
@given(division_pairs())
def test_div_exact_matches_schoolbook(pair):
    a, b = pair
    got = div_exact(a, b)
    assert got == _schoolbook_div_exact(a, b)
    if got is not None:
        assert got * b == a


@st.composite
def monomial_division_pairs(draw):
    """(a, c q^i t^j, divides) with c in +-1..+-3: a is a multiple of the divisor, or such a
    multiple plus r q^k t^l with 0 < r < |c|, which leaves a coefficient that c does not divide."""
    c = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
    b = QTPoly.monomial(c, draw(wide_exps), draw(wide_exps))
    a = b * draw(wide_polys)
    if abs(c) == 1 or draw(st.booleans()):
        return a, b, True
    return a + QTPoly.monomial(draw(st.integers(1, abs(c) - 1)), draw(wide_exps), draw(wide_exps)), b, False


@settings(max_examples=200, deadline=None)
@given(monomial_division_pairs())
def test_div_exact_by_monomials_matches_schoolbook(triple):
    # div_exact has one path for every divisor; the oracle keeps its own monomial branch
    a, b, divides = triple
    got = div_exact(a, b)
    assert got == _schoolbook_div_exact(a, b)
    assert (got is not None) == divides
    if got is not None:
        assert got * b == a


def test_div_exact_skewed_binomials():
    # every binomial a = q^i t^j +- q^k t^l (exponents 0..3) over every b =
    # q^m t^s +- c q^m' t^s' with m' < m and s' > s: the divisors whose
    # lex-leading term is below their top t-power, where an unbounded quotient
    # term would wrap into the next q-row of the packed keys, as in
    # (t + q^2) / (q + t)
    box = [(i, j) for i in range(4) for j in range(4)]
    dividends = [QTPoly({e: 1, f: c}) for n, e in enumerate(box) for f in box[n + 1:] for c in (1, -1)]
    divs = [QTPoly({(m, s): 1, (m2, s + ds): c})
            for m in (1, 2) for m2 in range(m) for s in (0, 1) for ds in (1, 2) for c in (1, -1, 2)]
    for b in divs:
        for a in dividends:
            got = div_exact(a, b)
            assert got == _schoolbook_div_exact(a, b), (a, b)
            assert got is None or got * b == a


def test_div_exact_quotient_t_range():
    # b's lex-leading term q is not its top t-power; an unbounded quotient
    # term 3 q^2 t^2 would wrap into the next q-row of the packed keys
    a, b = P(t2=3, q3t=-3), P(q=1, t=-1)
    assert div_exact(a, b) is None
    assert _schoolbook_div_exact(a, b) is None


@settings(max_examples=150, deadline=None)
@given(division_pairs())
def test_div_exact_matches_sympy(sympy, pair):
    a, b = pair
    # b divides a in the Laurent ring iff b's shift to nonnegative exponents
    # with no monomial factor divides a's in Z[q, t]
    quo, rem = sympy.div(_sym(sympy, a), _sym(sympy, b), domain="QQ")
    got = div_exact(a, b)
    if a.is_zero():
        assert got == ZERO_P
    elif rem.is_zero and all(c.is_integer for c in quo.coeffs()):
        (aq, at), (bq, bt) = a.min_exps(), b.min_exps()
        want = QTPoly({k: int(c) for k, c in quo.terms()}).shift(aq - bq, at - bt)
        assert got == want
    else:
        assert got is None
