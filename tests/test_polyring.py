"""Group-algebra arithmetic, orbit sums, integral forms, serialization."""

import json

import pytest

from daha.qt import QTPoly, RatQT, rat
from daha.roots import root_system
from daha.polyring import (
    QTLaurent,
    integral_form,
    laurent_from_json,
    laurent_to_json,
    laurent_to_latex,
    laurent_to_text,
    orbit_sum,
    specialize_dim,
)

A1 = root_system("A1")
A2 = root_system("A2")

ONE_MINUS_T = QTPoly({(0, 0): 1, (0, 1): -1})
ONE_MINUS_QT = QTPoly({(0, 0): 1, (1, 1): -1})


def x(m: int) -> QTLaurent:
    return QTLaurent.mono(A1, (m,))


class TestArithmetic:
    def test_mono_mul(self):
        assert x(1) * x(-1) == QTLaurent.one(A1)

    def test_square(self):
        f = x(1) + x(-1)
        sq = f * f
        assert sq == x(2) + x(-2) + QTLaurent.one(A1).scale(RatQT.from_int(2))

    def test_mul_commutative_associative(self):
        f = x(1) + x(-1)
        g = x(2).scale(rat(ONE_MINUS_T)) + QTLaurent.one(A1)
        h = x(-1).scale(rat(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


    def test_equal_values_hash_equal(self):
        f = x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT)) + x(-2)
        g = x(-2) + x(1).scale(rat(ONE_MINUS_T.scale(3), ONE_MINUS_QT.scale(3)))
        assert list(f.terms) != list(g.terms)
        assert f == g and hash(f) == hash(g)
        assert hash(x(1) * x(-1)) == hash(QTLaurent.one(A1))


class TestOrbitSum:
    def test_a1(self):
        assert orbit_sum(A1, (2,)) == x(2) + x(-2)

    def test_zero(self):
        assert orbit_sum(A1, (0,)) == QTLaurent.one(A1)

    def test_a2_fundamental(self):
        m = orbit_sum(A2, (1, 0))
        assert sorted(m.support()) == [(-1, 1), (0, -1), (1, 0)]
        assert all(c == RatQT.from_int(1) for c in m.terms.values())

    def test_w_invariance(self):
        for lam in [(2, 1), (1, 1), (3, 0)]:
            m = orbit_sum(A2, lam)
            for i in (1, 2):
                assert QTLaurent(A2, {A2.reflect(i, w): c for w, c in m.terms.items()}) == m

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            orbit_sum(A1, (-1,))


class TestIntegralForm:
    def test_known_module_character(self):
        f = x(-1) + x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        g = integral_form(f, (-1,))
        assert g == x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))

    def test_constant(self):
        assert integral_form(QTLaurent.one(A1), (0,)) == QTLaurent.one(A1)

    def test_single_term(self):
        f = x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        assert integral_form(f, (1,)) == x(1).scale(rat(ONE_MINUS_T))

    def test_idempotent(self):
        f = x(-1) + x(1).scale(rat(ONE_MINUS_T, ONE_MINUS_QT))
        g = integral_form(f, (-1,))
        assert integral_form(g, (-1,)) == g

    def test_missing_leading_rejected(self):
        with pytest.raises(ValueError):
            integral_form(x(1), (0,))

    def test_integer_content_divided_out(self):
        f = x(1).scale(rat(QTPoly({(0, 0): 2, (0, 1): -2}))) + x(-1).scale(RatQT.monomial(4, 1, 0))
        assert str(integral_form(f, (1,))) == "2*q*x^-1 + (1-t)*x"

    def test_negative_exponents_shifted(self):
        f = x(1).scale(RatQT.monomial(1, -2, -1)) + x(-1).scale(RatQT.monomial(1, -1, -1))
        assert str(integral_form(f, (1,))) == "q*x^-1 + x"

    def test_leading_minus_one_negated(self):
        f = x(1).scale(rat(QTPoly({(0, 0): -1, (1, 0): 1}))) + x(-1).scale(RatQT.monomial(1, 0, 1))
        assert str(integral_form(f, (1,))) == "(-t)*x^-1 + (1-q)*x"

    def test_several_denominators_cleared(self):
        f = (x(1).scale(rat(QTPoly.const(1), QTPoly({(0, 0): 2, (1, 1): -2})))
             + x(-1).scale(rat(QTPoly.const(3), ONE_MINUS_T))
             + x(0).scale(rat(QTPoly.monomial(5, 0, 1), QTPoly.const(2))))
        assert str(integral_form(f, (1,))) == "(6-6*q*t)*x^-1 + (5*t-5*t^2-5*q*t^2+5*q*t^3) + (1-t)*x"

    @pytest.mark.parametrize("coeff, value", [({(1, 0): 1, (0, 1): 1}, 0), ({(0, 0): 3, (1, 0): 1}, 3)])
    def test_cannot_normalize(self, coeff, value):
        f = x(1).scale(rat(QTPoly(coeff))) + x(0).scale(rat(2))
        with pytest.raises(ValueError, match=f"value at 0 is {value}$"):
            integral_form(f, (1,))


class TestSpecializeDim:
    def test_module_dimension(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert specialize_dim(f) == 4

    def test_one(self):
        assert specialize_dim(QTLaurent.one(A1)) == 1

    def test_demazure_dimension(self):
        f = x(3) + (x(1) + x(-1)).scale(rat(ONE_MINUS_T)) + x(-3)
        assert specialize_dim(f) == 6

    def test_denominator_rejected(self):
        f = x(1).scale(rat(1, ONE_MINUS_T))
        with pytest.raises(ValueError):
            specialize_dim(f)


class TestSerialization:
    def test_round_trip_byte_identical(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        blob = json.dumps(laurent_to_json(f), separators=(",", ":"))
        back = laurent_from_json(A1, json.loads(blob))
        assert back == f
        assert json.dumps(laurent_to_json(back), separators=(",", ":")) == blob

    def test_text_format(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert laurent_to_text(f) == "(1-q*t)*x^-1 + (1-t)*x"

    def test_text_rank_two(self):
        f = QTLaurent.mono(A2, (1, -2))
        assert laurent_to_text(f) == "x_1*x_2^-2"

    def test_latex_rank_two_fraction(self):
        # the output of `daha e --type A2 --weight 1,-1 --format latex`
        f = QTLaurent(A2, {(0, 1): rat(ONE_MINUS_T, QTPoly({(0, 0): 1, (1, 2): -1})), (1, -1): rat(1)})
        assert laurent_to_latex(f) == "\\left(\\frac{1-t}{1-q t^{2}}\\right)x_{2} + x_{1}x_{2}^{-1}"

    def test_latex_and_text_coefficients(self):
        f = QTLaurent(A2, {
            (0, 0): rat(QTPoly({(0, 0): 2, (2, 1): -3})),
            (2, -1): RatQT.monomial(-1, 1, 0),
            (1, 1): rat(1),
        })
        assert laurent_to_latex(f) == "2-3 q^{2} t + x_{1}x_{2} + \\left(-q\\right)x_{1}^{2}x_{2}^{-1}"
        assert laurent_to_text(f) == "(2-3*q^2*t) + x_1*x_2 + (-q)*x_1^2*x_2^-1"
        g = x(3).scale(rat(QTPoly({(0, 0): -1, (1, 1): 1}), QTPoly.const(2))) + x(0).scale(rat(-3))
        assert laurent_to_latex(g) == "-3 + \\left(\\frac{-1+q t}{2}\\right)x^{3}"
        assert laurent_to_text(g) == "(-3) + ((-1+q*t)/(2))*x^3"

    def test_latex_zero(self):
        assert laurent_to_latex(QTLaurent.zero(A2)) == "0"

    def test_str_is_text(self):
        f = x(-1).scale(rat(ONE_MINUS_QT)) + x(1).scale(rat(ONE_MINUS_T))
        assert str(f) == f"{f}" == "(1-q*t)*x^-1 + (1-t)*x"
        assert str(QTLaurent.zero(A2)) == "0"
