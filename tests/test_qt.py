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
