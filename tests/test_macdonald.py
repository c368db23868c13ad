"""Nonsymmetric and symmetric Macdonald polynomials against frozen oracles.

The rank-one expected values below were computed by hand from the operator
formulas (two-step Y applications and 2x2/3x3 triangular solves), then
double-checked numerically at two rational points before freezing.
"""

import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod
from itertools import count, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from daha import hecke, macdonald, qt
from daha.qt import ONE_P, ZERO_P, QTPoly, RatQT, poly_to_json, rat, ratqt_to_json
from daha.roots import EQUAL, LESS, root_system, weight_box
from daha.polyring import QTLaurent, _pack, _unpack, integral_form, laurent_to_json, laurent_to_text, specialize_dim
from daha.macdonald import (
    DegenerateSpectrumError,
    OrderViolationError,
    a1_integral_scalar,
    classical_demazure,
    eigen_check,
    expected_eigen_exponents,
    monomial_expand,
    mu_candidates,
    nonsym_e,
    sym_p,
    weyl_character,
)

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")


def x(m):
    return QTLaurent.mono(A1, (m,))


def poly(d):
    return rat(QTPoly(d))


ONE_MINUS_T = QTPoly({(0, 0): 1, (0, 1): -1})


class TestRankOneValues:
    def test_fundamental(self):
        r = nonsym_e(A1, (1,))
        assert r.e_poly == x(1)
        assert r.eigenvalue == RatQT.monomial(1, -1, 0)
        assert r.basis == [(1,)]

    def test_zero(self):
        r = nonsym_e(A1, (0,))
        assert r.e_poly == QTLaurent.one(A1)
        assert r.eigenvalue == RatQT.monomial(1, 0, 2)

    def test_minus_fundamental(self):
        r = nonsym_e(A1, (-1,))
        coeff = rat(ONE_MINUS_T, QTPoly({(0, 0): 1, (1, 1): -1}))
        assert r.e_poly == x(-1) + x(1).scale(coeff)
        assert r.eigenvalue == RatQT.monomial(1, 1, 2)

    def test_integral_form_minus_one(self):
        r = nonsym_e(A1, (-1,))
        got = integral_form(r.e_poly, (-1,))
        assert laurent_to_text(got) == "(1-q*t)*x^-1 + (1-t)*x"

    def test_two(self):
        # hand solve: E_2 = x^2 + q(1-t)/(1-qt)
        r = nonsym_e(A1, (2,))
        c = rat(QTPoly({(1, 0): 1, (1, 1): -1}), QTPoly({(0, 0): 1, (1, 1): -1}))
        assert r.e_poly == x(2) + QTLaurent.one(A1).scale(c)
        assert r.eigenvalue == RatQT.monomial(1, -2, 0)

    def test_minus_two(self):
        # hand solve: E_{-2} = x^-2 + (1+q)(1-t)/(1-q^2 t) + (1-t)/(1-q^2 t) x^2
        r = nonsym_e(A1, (-2,))
        den = QTPoly({(0, 0): 1, (2, 1): -1})
        c0 = rat(QTPoly({(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1}), den)
        c2 = rat(ONE_MINUS_T, den)
        assert r.e_poly == x(-2) + QTLaurent.one(A1).scale(c0) + x(2).scale(c2)
        assert r.eigenvalue == RatQT.monomial(1, 2, 2)

    def test_conjectural_flag(self):
        assert nonsym_e(A1, (-1,)).conjectural
        assert not nonsym_e(A1, (2,)).conjectural


class TestEigenChecks:
    @pytest.mark.parametrize(
        "lam,q_exp,t_exp",
        [((-1,), 1, 2), ((1,), -1, 0), ((0,), 0, 2), ((-3,), 3, 2), ((4,), -4, 0)],
    )
    def test_a1_exponents(self, lam, q_exp, t_exp):
        assert expected_eigen_exponents(A1, lam, (1,)) == (q_exp, t_exp)
        chk = eigen_check(A1, lam, (1,))
        assert chk.ok and (chk.q_exp, chk.t_exp) == (q_exp, t_exp)

    def test_higher_mu(self):
        # Y^{2 alpha-check} has squared eigenvalue monomial
        r = nonsym_e(A1, (-1,))
        chk = eigen_check(A1, (-1,), (2,), r)
        assert chk.ok and chk.q_exp == 2 and chk.t_exp == 4

    @pytest.mark.parametrize("rs,lam", [(A2, (1, 1)), (A2, (-1, 2)), (B2, (0, 1)), (B2, (1, -1))])
    def test_rank_two(self, rs, lam):
        chk = eigen_check(rs, lam, rs.strictly_dominant_coroot())
        assert chk.ok

    def test_eigenvalues_separate(self):
        for lam in [(-3,), (4,)]:
            r = nonsym_e(A1, lam)
            rs_vals = set()
            for nu in r.basis:
                val = nonsym_e(A1, nu).eigenvalue
                assert val not in rs_vals
                rs_vals.add(val)

    def test_joint_eigen_second_direction(self):
        # independent dominant coroots act by monomials too
        r = nonsym_e(A2, (-1, 1))
        for mu in [(1, 0), (0, 1), (2, 1)]:
            q_exp, t_exp = expected_eigen_exponents(A2, (-1, 1), mu)
            chk = eigen_check(A2, (-1, 1), mu, r)
            assert chk.ok, (mu, chk)

    @pytest.mark.parametrize("name,bound", [("A1", 3), ("A2", 1), ("B2", 1), ("C2", 1), ("A3", 1)])
    def test_non_dominant_mu(self, name, bound):
        # mu = -mu* and mu* with its first coordinate negated: outside the dominant cone a negative
        # t-exponent is the prediction, e.g. Y^(-1) E_(-2) = q^-2 t^-2 E_(-2) in A1
        rs = root_system(name)
        base = rs.strictly_dominant_coroot()
        mus = [tuple(-m for m in base), (-base[0], *base[1:])]
        t_exps = []
        for lam in weight_box([bound] * rs.rank):
            r = nonsym_e(rs, lam)
            for mu in mus:
                chk = eigen_check(rs, lam, mu, r)
                assert chk.ok, (lam, mu, chk)
                t_exps.append(chk.t_exp)
        assert min(t_exps) < 0


def _word_eigen_exponents(rs, lam, mu):
    """The exponents read off the antidominant word: q^-<mu, lam> and
    t^((<mu, 2 rho> + <mu, u^-1(2 rho)>) / 2), u minimal with u(lam) antidominant."""
    _, u = rs.antidominant(lam)
    two_rho = (2,) * rs.rank
    t_num = rs.coroot_pair(mu, two_rho) + rs.coroot_pair(mu, rs.apply_word(tuple(reversed(u)), two_rho))
    assert t_num % 2 == 0
    return -rs.coroot_pair(mu, lam), t_num // 2


class TestClosedFormSpectrum:
    """expected_eigen_exponents sums <mu, gamma> over the positive roots gamma with (lam, gamma) <= 0;
    the antidominant-word formula is the oracle, on strictly dominant and non-dominant mu."""

    @pytest.mark.parametrize("name,bound", [("A1", 6), ("A2", 4), ("B2", 4), ("C2", 4), ("A3", 2), ("A4", 1)])
    def test_matches_the_antidominant_word(self, name, bound):
        rs = root_system(name)
        base = rs.strictly_dominant_coroot()
        mus = list(islice(mu_candidates(rs, 40), 12)) + [tuple(-m for m in base)] + [
            tuple(-m if k == i else m for k, m in enumerate(base)) for i in range(rs.rank)]
        assert any(not rs.is_dominant(mu) for mu in mus)
        for lam in weight_box([bound] * rs.rank):
            for mu in mus:
                assert expected_eigen_exponents(rs, lam, mu) == _word_eigen_exponents(rs, lam, mu), (lam, mu)


class TestSupportTriangularity:
    @pytest.mark.parametrize("rs,lam", [(A1, (-4,)), (A2, (1, 1)), (A2, (-2, 1)), (B2, (-1, 1))])
    def test_support_in_lower_set(self, rs, lam):
        r = nonsym_e(rs, lam)
        allowed = set(r.basis)
        assert set(r.e_poly.support()) <= allowed
        assert r.e_poly.coeff(lam) == RatQT.from_int(1)


def e_at_zero(rs, lam):
    """E_lam at q = t = 0, as {weight: value}; every exponent must be nonnegative."""
    def at_zero(p):
        assert all(a >= 0 and b >= 0 for a, b in p.terms), p
        return p.terms.get((0, 0), 0)

    out = {}
    for w, c in nonsym_e(rs, lam).e_poly.terms.items():
        if value := Fraction(at_zero(c.num), at_zero(c.den)):
            out[w] = value
    return out


def demazure_key(rs, lam):
    """pi_w e^{lam_+} for the least w with w lam_+ = lam, along a reduced word of w, by the
    t = 0 operator classical_demazure: no Hecke operator and no eigensolve."""
    lam_plus, u = rs.dominant(lam)  # u lam = lam_+, so w = u^{-1}: its last letter acts first
    f = QTLaurent.mono(rs, lam_plus)
    for i in u:
        f = classical_demazure(rs, i, f)
    return {w: Fraction(c.num.terms[0, 0]) for w, c in f.terms.items()}


_DEMAZURE_BOXES = {"A1": 6, "A2": 2, "B2": 2, "C2": 2, "A3": 1}


@st.composite
def _oracle_weights(draw):
    name = draw(st.sampled_from(sorted(_DEMAZURE_BOXES)))
    rs = root_system(name)
    bound = _DEMAZURE_BOXES[name]
    return rs, tuple(draw(st.lists(st.integers(-bound, bound), min_size=rs.rank, max_size=rs.rank)))


class TestDemazureOracle:
    """E_lam at q = t = 0 is the Demazure character (key polynomial) of lam."""

    @settings(max_examples=80, deadline=None)
    @given(_oracle_weights())
    def test_e_at_zero_is_demazure_character(self, drawn):
        rs, lam = drawn
        assume(len(rs.lower_set(lam)) <= 40)
        assert e_at_zero(rs, lam) == demazure_key(rs, lam)


# every weight of the e-table boxes of the benchmark and of criterion 6
_E_TABLE_BOXES = {"A1": 4, "A2": 2, "B2": 2, "C2": 2, "A3": 1}
_CRITERION_6_BOX = 4


def _non_dominant_weights(name):
    rs = root_system(name)
    lams = set(weight_box([_E_TABLE_BOXES[name]] * rs.rank))
    if name in ("A1", "A2", "B2"):
        lams |= {lam for lam in weight_box([_CRITERION_6_BOX] * rs.rank) if len(rs.lower_set(lam)) <= 40}
    return sorted(lam for lam in lams if not rs.is_dominant(lam))


def _fields(r):
    """Every field of an EigenResult, in a form compared byte for byte (term order included)."""
    return {
        "e_poly": (laurent_to_json(r.e_poly), list(r.e_poly.terms)),
        "cleared": (laurent_to_json(r.cleared), list(r.cleared.terms)),
        "clearing": poly_to_json(r.clearing),
        "eigenvalue": ratqt_to_json(r.eigenvalue),
        "basis": r.basis,
        "mu_used": r.mu_used,
        "conjectural": r.conjectural,
    }


@lru_cache(maxsize=None)
def _eigensolve(rs, lam):
    """E_lam by the triangular eigensolve, for any lam: the oracle of nonsym_e.

    The one Y-matrix built, of the operator nonsym_e records, must have the predicted
    eigenvalues on its diagonal; the triangular eigenproblem is solved exactly by
    back-substitution over Q(q, t): row i gives c_i = sum_{j > i} m_ij c_j / (y - m_ii)."""
    basis = rs.lower_set(lam)
    n = len(basis)
    mu, exps = macdonald._operator(rs, basis)
    mat = macdonald.y_matrix(rs, basis, mu)
    for k, w in enumerate(basis):
        if mat[k][k] != QTPoly.monomial(1, *exps[k]):
            raise AssertionError(f"Y^{mu} on e^{w} has diagonal {mat[k][k]}, not the predicted eigenvalue")
    y = mat[n - 1][n - 1]
    coeffs = [(ZERO_P, {})] * (n - 1) + [(ONE_P, {})]
    for i in range(n - 2, -1, -1):
        row = [(mat[i][j], coeffs[j]) for j in range(i + 1, n)
               if not (mat[i][j].is_zero() or coeffs[j][0].is_zero())]
        den, nums = macdonald._over_common_den([c for _, c in row])
        s = sum((num * mij for (mij, _), num in zip(row, nums)), ZERO_P)
        if not s.is_zero():
            sign, uq, ut = macdonald._add_gap(den, y - mat[i][i])
            coeffs[i] = _reduced(s.shift(-uq, -ut).scale(sign), den)
    return macdonald._result(rs, lam, basis, tuple(coeffs))


@pytest.fixture
def fresh_caches():
    """Empty the E_lam caches and the oracle's before and after, so nothing computed here leaks into other tests."""
    macdonald._solved.clear()
    _eigensolve.cache_clear()
    yield
    macdonald._solved.clear()
    _eigensolve.cache_clear()


def test_e_lambda_computes_no_gcd(monkeypatch, fresh_caches):
    # the eigensolve and the walk carry known factored denominators, so no weight of the
    # e-table boxes needs a gcd
    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(qt, "poly_gcd", refuse)
    with pytest.raises(AssertionError, match="poly_gcd called"):
        RatQT(QTPoly({(0, 2): 1, (0, 0): -1}), QTPoly({(0, 1): 1, (0, 0): -1}))
    for name, bound in _E_TABLE_BOXES.items():
        rs = root_system(name)
        for lam in weight_box([bound] * rs.rank):
            nonsym_e(rs, lam)


class TestIntertwinerWalk:
    """A non-dominant E_lam is walked up from its dominant seed; the eigensolve is the oracle."""

    @pytest.mark.parametrize("name", sorted(_E_TABLE_BOXES))
    def test_walk_equals_eigensolve(self, name):
        rs = root_system(name)
        for lam in _non_dominant_weights(name):
            assert _fields(nonsym_e(rs, lam)) == _fields(_eigensolve(rs, lam)), lam

    @pytest.mark.parametrize("lam", [(-2, 2), (2, -2)])
    def test_alternate_operator(self, lam):
        # mu* collides on these lower sets, so the walk must record an alternate, as the eigensolver does
        assert nonsym_e(A2, lam).mu_used != A2.strictly_dominant_coroot()

    def test_degenerate_where_the_eigensolver_is(self, monkeypatch, fresh_caches):
        monkeypatch.setattr(macdonald, "mu_candidates", lambda rs, n: iter([rs.strictly_dominant_coroot()]))
        raised = {}
        for solve in (nonsym_e, _eigensolve):
            raised[solve] = set()
            for lam in _non_dominant_weights("A2"):
                try:
                    solve(A2, lam)
                except DegenerateSpectrumError:
                    raised[solve].add(lam)
        assert raised[nonsym_e] == raised[_eigensolve]
        assert {(-2, 2), (2, -2)} <= raised[nonsym_e]

    def test_mutated_seed_does_not_reach_the_walk(self, fresh_caches):
        lam = (-2, 1)
        expected = _fields(_eigensolve(A2, lam))
        seed = nonsym_e(A2, A2.dominant(lam)[0])
        for f in (seed.e_poly, seed.cleared):
            for w in f.terms:
                f.terms[w] = RatQT.from_int(7)
            f.terms[(5, 5)] = RatQT.from_int(1)
        seed.basis.reverse()
        assert _fields(nonsym_e(A2, lam)) == expected


def _dict_walk(rs, lam, affine=None):
    """macdonald._climb on the dict kernel (hecke._t, hecke._comb), as it ran before the frame: (den, f)."""
    lam_plus, u = rs.dominant(lam)
    seed_basis, seed = macdonald._solve(rs, lam_plus)
    den, nums = macdonald._over_common_den(seed)
    f = {w: _pack(num.terms) for w, num in zip(seed_basis, nums) if not num.is_zero()}
    steps, nu = [], lam_plus
    for i in u:
        a, b = expected_eigen_exponents(rs, nu, tuple(int(k == i - 1) for k in range(rs.rank)))
        steps.append(((i,), None, -a, 1 - b, 0, 0))
        nu = rs.reflect(i, nu)
    for word, shift, mq, mt, nq, nt in steps + ([affine] if affine else []):
        sign, uq, ut = macdonald._add_gap(den, QTPoly({(0, 0): 1, (mq, mt): -1}))
        image = hecke._word(rs, word, f)
        if shift:
            image = hecke._shift(image, shift)
        f = hecke._comb((image, -uq, -ut, sign, 0), (image, mq - uq, mt - ut, -sign, 0),
                        (f, nq - uq, nt - ut, sign, -sign))
    return den, {w: _unpack(c) for w, c in f.items()}


@pytest.mark.parametrize("name", sorted(_E_TABLE_BOXES))
def test_framed_walk_matches_dict_walk(name):
    # every weight of the e-table boxes: the finite walk of a non-dominant weight, the affine step of a
    # dominant one above the minuscule weights
    rs = root_system(name)
    theta, coroot, word = rs.short_theta()
    for lam in weight_box([_E_TABLE_BOXES[name]] * rs.rank):
        affine = None
        if rs.is_dominant(lam):
            p = rs.coroot_pair(coroot, lam)
            if p < 2:
                continue
            lam = tuple(l - (p - 1) * c for l, c in zip(lam, theta))
            mq, mt = expected_eigen_exponents(rs, lam, coroot)
            mq, mt = mq + 1, mt - sum(coroot)
            affine = (word, theta, mq, mt, mq, mt + (len(word) - 1) // 2)
        den, (k, width, b0, g) = macdonald._climb(rs, lam, affine)
        assert (den, {w: hecke._decode(v, e, k, width, b0) for w, (v, e) in g.items()}) == _dict_walk(rs, lam, affine)


# the dominant weights of A1 box 6, A2/B2/C2 box 3 and A3/A4 box 1: 79 weights
_DOMINANT_BOXES = {"A1": 6, "A2": 3, "B2": 3, "C2": 3, "A3": 1, "A4": 1}


def _s_word(rs, root, coroot):
    """A reduced word of the reflection in a root: the minimal word taking s_root rho back to rho."""
    m = rs.coroot_pair(coroot, (1,) * rs.rank)
    return rs.dominant(tuple(1 - m * c for c in root))[1]


class TestAffineStep:
    """A dominant E_lam is one affine intertwiner step above a lower dominant E; the eigensolve is the oracle."""

    @pytest.mark.parametrize("name", sorted(_DOMINANT_BOXES))
    def test_affine_step_equals_eigensolve(self, name):
        rs = root_system(name)
        for lam in weight_box([_DOMINANT_BOXES[name]] * rs.rank):
            if rs.is_dominant(lam):
                assert _fields(nonsym_e(rs, lam)) == _fields(_eigensolve(rs, lam)), lam

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2"])
    def test_b_solves_the_eigen_equation_at_e_mu(self, name):
        # the derivation of _solve: y_mu y_nu = q^-2 t^(2 <vartheta^vee, rho>) for Y^{vartheta^vee}, and
        # b = -(1 - t) t^h m / (1 - m) solves (Y - y_nu)(Phi E_mu - b E_mu) = 0 at e^mu
        rs = root_system(name)
        theta, coroot, word = rs.short_theta()
        one, t = RatQT.from_int(1), rat(QTPoly({(0, 1): 1}))
        for lam in weight_box([2] * rs.rank):
            p = rs.coroot_pair(coroot, lam)
            if not rs.is_dominant(lam) or p < 2:
                continue
            mu = tuple(l - (p - 1) * c for l, c in zip(lam, theta))
            (a, b), (an, bn) = expected_eigen_exponents(rs, mu, coroot), expected_eigen_exponents(rs, lam, coroot)
            assert (a + an, b + bn) == (-2, 2 * sum(coroot)), lam
            e_mu = nonsym_e(rs, mu).e_poly
            phi = QTLaurent(rs, {tuple(x + y for x, y in zip(w, theta)): c
                                 for w, c in hecke.word_op(rs, word, e_mu).terms.items()})
            y_nu = RatQT.monomial(1, an, bn)
            lhs = hecke.y_op(rs, coroot, phi) - phi.scale(y_nu)
            m = RatQT.monomial(1, a + 1, b - sum(coroot))
            closed = -(one - t) * RatQT.monomial(1, 0, (len(word) - 1) // 2) * m / (one - m)
            assert lhs.terms.get(mu, RatQT.from_int(0)) == closed * (RatQT.monomial(1, a, b) - y_nu), lam

    def test_short_theta(self):
        for name, theta, coroot in [("A1", (2,), (1,)), ("A3", (1, 0, 1), (1, 1, 1)),
                                    ("B2", (1, 0), (2, 1)), ("C2", (0, 1), (1, 2))]:
            rs = root_system(name)
            assert rs.short_theta()[:2] == (theta, coroot)
            word = rs.short_theta()[2]
            assert rs.length(word) == len(word)
            for lam in [tuple(int(i == j) for i in range(rs.rank)) for j in range(rs.rank)]:
                assert rs.apply_word(word, lam) == tuple(a - rs.coroot_pair(coroot, lam) * b for a, b in zip(lam, theta))
        with pytest.raises(ValueError, match="reducible"):
            root_system("A1xA1").short_theta()

    @staticmethod
    def _faulty_or_exact(rs, expected):
        """Every weight either raises a certificate error or gives the oracle's answer; the count that raised."""
        macdonald._solved.clear()
        raised = 0
        for lam, fields in expected.items():
            try:
                got = _fields(nonsym_e(rs, lam))
            except (AssertionError, OrderViolationError):
                raised += 1
            else:
                assert got == fields, lam
        return raised

    @pytest.mark.parametrize("fault", ["theta for vartheta", "t-power of m"])
    def test_planted_fault_is_caught(self, monkeypatch, fresh_caches, fault):
        expected = {name: {lam: _fields(_eigensolve(root_system(name), lam))
                           for lam in weight_box([2, 2])} for name in ("A2", "B2")}
        if fault == "theta for vartheta":
            # B2's highest root is long: the step through it is not an intertwiner
            theta, coroot = B2.theta(), B2.theta_coroot()
            monkeypatch.setitem(B2._caches, "short_theta", (theta, coroot, _s_word(B2, theta, coroot)))
        else:
            # only the affine step's own call is shifted: the operator choice and the finite steps stay exact
            real = macdonald.expected_eigen_exponents

            def shifted(rs, lam, mu):
                a, b = real(rs, lam, mu)
                return (a, b + 1) if sys._getframe(1).f_code is macdonald._solve_fresh.__code__ else (a, b)

            monkeypatch.setattr(macdonald, "expected_eigen_exponents", shifted)
        raised = {name: self._faulty_or_exact(root_system(name), expected[name]) for name in expected}
        assert raised["B2"] >= 1
        if fault == "t-power of m":
            assert raised["A2"] >= 1

    def test_planted_theta_counts(self, monkeypatch, fresh_caches):
        # theta for vartheta in B2: 16 weights of box 2 fail the residual check, 4 leave the lower set,
        # and the 5 in the orbits of the minuscule seeds are unaffected
        theta, coroot = B2.theta(), B2.theta_coroot()
        monkeypatch.setitem(B2._caches, "short_theta", (theta, coroot, _s_word(B2, theta, coroot)))
        outcomes = {"residual": 0, "order": 0, "unaffected": 0}
        for lam in weight_box([2, 2]):
            try:
                nonsym_e(B2, lam)
                outcomes["unaffected"] += 1
            except OrderViolationError:
                outcomes["order"] += 1
            except AssertionError as exc:
                assert "eigen residual is nonzero" in str(exc)
                outcomes["residual"] += 1
        assert outcomes == {"residual": 16, "order": 4, "unaffected": 5}


# weights whose own lower set defeats mu* and all six skew alternates, so that
# only a moment-curve point of mu_candidates pins the walk, with that point
_COLLIDING = [
    ("A3", (4, -1, -1), (9, 16, 17)),
    ("A3", (-3, 2, 1), (3, 4, 3)),
    ("A3", (3, -3, 2), (9, 16, 17)),
    ("A3", (-2, 4, -2), (9, 16, 17)),
    ("A4", (5, -1, -1, -1), (112, 219, 306, 313)),
]


class TestDegenerateSpectrum:
    @pytest.mark.parametrize("name, lam, mu", _COLLIDING)
    def test_moment_curve_separates(self, name, lam, mu):
        rs = root_system(name)
        basis = rs.lower_set(lam)
        for k, cand in enumerate(macdonald.mu_candidates(rs, len(basis))):
            exps = [expected_eigen_exponents(rs, w, cand) for w in basis]
            if exps[-1] not in exps[:-1]:
                break
        assert (k >= 7, cand) == (True, mu)

    # the A4 weight is left out here: its E (429 weights) takes about two minutes
    @pytest.mark.parametrize("name, lam, mu", [c for c in _COLLIDING if c[0] == "A3"])
    def test_colliding_weights_solve(self, name, lam, mu):
        rs = root_system(name)
        r = nonsym_e(rs, lam)
        assert r.mu_used == mu
        assert eigen_check(rs, lam, rs.strictly_dominant_coroot(), r).ok
        assert e_at_zero(rs, lam) == demazure_key(rs, lam)


class TestOperatorChoice:
    """The oracle takes Y^mu from its predicted spectrum, as nonsym_e does, and builds that one matrix."""

    def test_eigensolve_builds_one_matrix(self, monkeypatch, fresh_caches):
        # (-3, 2, 1) needs the eighth candidate; one y_matrix per candidate took about 15 s
        rs = root_system("A3")
        lam = (-3, 2, 1)
        built = []
        y_matrix = macdonald.y_matrix

        def counting(rs, basis, mu):
            built.append(mu)
            return y_matrix(rs, basis, mu)

        monkeypatch.setattr(macdonald, "y_matrix", counting)
        solved = _eigensolve(rs, lam)
        assert built == [(3, 4, 3)]
        assert _fields(solved) == _fields(nonsym_e(rs, lam))

    def test_diagonal_off_the_prediction_raises(self, monkeypatch, fresh_caches):
        y_matrix = macdonald.y_matrix

        def perturbed(rs, basis, mu):
            mat = y_matrix(rs, basis, mu)
            mat[0][0] = mat[0][0].shift(1, 0)
            return mat

        monkeypatch.setattr(macdonald, "y_matrix", perturbed)
        with pytest.raises(AssertionError, match="not the predicted eigenvalue"):
            _eigensolve(A2, (2, 0))


# the one-frame reduction of macdonald._divided against the per-factor division loop it replaced

def _reduced(num, den):
    """num / prod(den) in lowest terms, by macdonald._divided in the least frame of num alone: k the _slot
    of its largest coefficient and of the largest sum of |c| of a factor, the width one more than its
    t-span, and num encoded from its own least exponents."""
    factors = macdonald._factor_data(den)
    if num.is_zero() or not factors:
        return num, {}
    lo, hi = min(b for _, b in num.terms), max(b for _, b in num.terms)
    k = macdonald._slot(max(max(map(abs, num.terms.values())), max(fd[4] for fd in factors)))
    return macdonald._divided(k, hi - lo + 1, [(*hecke._encode(num.terms, k, hi - lo + 1, lo), lo)], factors)[0]


def _ieval(p):
    """Exact integer value at (q, t) = (2, 3); negative exponents are cleared first."""
    mq, mt = p.min_exps()
    return sum(c * 2 ** (a - mq) * 3 ** (b - mt) for (a, b), c in p.terms.items())


def _reduced_reference(num, den):
    """num / prod(den) in lowest terms: each factor of den divided out by qt.div_exact while it divides,
    tried only if its value at (2, 3) divides num's there."""
    if num.is_zero():
        return num, {}
    out = {}
    ne = _ieval(num)
    for f, m in den.items():
        fe = _ieval(f)
        while m > 0:
            if fe not in (0, 1, -1) and ne % fe:
                break
            q = qt.div_exact(num, f)
            if q is None:
                break
            num = q
            ne = ne // fe if fe else _ieval(num)
            m -= 1
        if m:
            out[f] = m
    return num, out


_gap_exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda e: e != (0, 0))
_laurent = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-9, 9), max_size=5)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_frame_reduction_matches_per_factor_division(data):
    # numerator: a Laurent polynomial times the gap factors, each at multiplicity 0-3; den holds each at 0-3
    gaps = {}
    for a, b in data.draw(st.lists(_gap_exps, min_size=1, max_size=3)):
        macdonald._add_gap(gaps, QTPoly({(0, 0): 1, (a, b): -1}))
    num = QTPoly(data.draw(_laurent))
    for f in gaps:
        num = num * f ** data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):  # usually no longer divisible: the early breaks
        num = num + QTPoly({data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))): 1})
    den = {f: m for f in gaps if (m := data.draw(st.integers(0, 3)))}
    assert _reduced(num, den) == _reduced_reference(num, den)


# the frame's division (macdonald._divided): an exact 2-adic quotient, accepted only if its digits pass
# the injectivity checks, against the per-factor division loop above

def _cyclo(d, a, b):
    """Phi_d(q^a t^b) in canonical form, as _add_gap puts it into den for a primitive (a, b)."""
    return qt._canon_unit(QTPoly({(k * a, k * b): c for k, c in macdonald._cyclotomic(d)}))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       st.sampled_from([1, -1]))
def test_gap_factors_match_division(m1, m2, sign):
    # _add_gap builds the canonical Phi_d(z) and the unit in closed form; the reference divides them out
    assume(m1 != m2)
    p = QTPoly({m1: sign, m2: -sign})
    (k1, _), (k2, _) = sorted(p.terms.items())
    g = math.gcd(k2[0] - k1[0], k2[1] - k1[1])
    za, zb = (k2[0] - k1[0]) // g, (k2[1] - k1[1]) // g
    rest, expected = p, {}
    for d in range(1, g + 1):
        if g % d == 0:
            f = _cyclo(d, za, zb)
            rest = qt.div_exact(rest, f)
            expected[f] = 1
    ((uq, ut), uc), = rest.terms.items()
    den = {}
    assert macdonald._add_gap(den, p) == (uc, uq, ut)
    assert list(den.items()) == list(expected.items())


_directions = st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(
    lambda e: e != (0, 0) and math.gcd(*e) == 1 and (e[0] > 0 or e[1] > 0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_framed_division_matches_per_factor_division(data):
    # a cofactor with coefficients up to 2^100 times cyclotomic factors Phi_d(q^a t^b), d <= 12 and b of
    # either sign (t^2 - q is Phi_1(q t^-2)), each at multiplicity 0-2; den holds each at 0-3
    factors = {_cyclo(d, a, b) for d, (a, b) in data.draw(
        st.lists(st.tuples(st.integers(1, 12), _directions), min_size=1, max_size=3))}
    scale = data.draw(st.sampled_from([9, 1 << 40, 1 << 100]))
    num = QTPoly(data.draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                           st.integers(-scale, scale), min_size=1, max_size=6)))
    for f in factors:
        num = num * f ** data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):  # usually no longer divisible
        num = num + QTPoly({data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))): 1})
    den = {f: m for f in factors if (m := data.draw(st.integers(0, 3)))}
    assert _reduced(num, den) == _reduced_reference(num, den)


# A2 (-4, 3): an 8-term coefficient of the eigensolve whose image is a multiple of that of 1 - q^2 t, with a
# quotient that wraps a t-column; 1 - q^2 t does not divide it
_WRAPPING = (QTPoly({(7, 0): -1, (7, 1): 1, (6, 1): 1, (6, 0): -1, (2, 0): 1, (2, 1): -1, (1, 0): 1, (1, 1): -1}),
             {QTPoly({(0, 0): 1, (2, 1): -1}): 1, QTPoly({(0, 0): 1, (1, 0): -1}): 1,
              QTPoly({(k, 0): 1 for k in range(5)}): 1})


def _overflowing():
    """A numerator N with 64-bit slots (width 5) whose image is F Q for Phi_3(t) with Q's digits 2^62 - 1:
    Q Phi_3(t) has a coefficient of 3 (2^62 - 1), which carries, and Phi_3(t) does not divide N."""
    big = (1 << 62) - 1
    num = QTPoly({(0, 0): big, (0, 1): 2 * big, (0, 2): 3 * big - (1 << 64), (0, 3): 2 * big + 1, (0, 4): big})
    return num, {_cyclo(3, 0, 1): 1}


def _long_quotient():
    """(1 - t^40)(q + 3t) over 1 - t: the quotient runs over 40 t-columns, so its series needs every doubling."""
    return QTPoly({(0, 0): 1, (0, 40): -1}) * QTPoly({(0, 1): 3, (1, 0): 1}), {_cyclo(1, 0, 1): 1}


def _wide_quotient():
    """c (1 - t^20) over 1 - t, c = 2^62: its quotient has digits c, past 2^j for 64-bit slots, so the
    numerator is decoded and divided by qt.div_exact."""
    return QTPoly({(0, 0): 1 << 62, (0, 20): -(1 << 62)}), {_cyclo(1, 0, 1): 1}


@pytest.mark.parametrize("example, divisions", [(_WRAPPING, 3), (_overflowing(), 1), (_long_quotient(), 0),
                                                (_wide_quotient(), 1)],
                         ids=["column-wrap", "digit-overflow", "long-series", "wide-slots"])
def test_framed_division_fixed_examples(monkeypatch, example, divisions):
    # a quotient the digit checks reject goes to qt.div_exact on the decoded numerator, for that factor and
    # every later one, in the one frame: the column check rejects column-wrap's first factor
    calls = {"div_exact": 0, "_divided": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(macdonald, "div_exact", counted("div_exact", qt.div_exact))
    monkeypatch.setattr(macdonald, "_divided", counted("_divided", macdonald._divided))
    assert _reduced(*example) == _reduced_reference(*example)
    assert calls == {"div_exact": divisions, "_divided": 1}


@pytest.mark.parametrize("fault, example", [("no column check", _WRAPPING), ("slot one bit narrow", _overflowing()),
                                            ("doubling one step short", _long_quotient())])
def test_planted_division_fault_is_caught(monkeypatch, fault, example):
    real_masks, real_series = macdonald._masks, macdonald._series
    if fault == "no column check":
        monkeypatch.setattr(macdonald, "_masks", lambda k, width, rows, j, ft: real_masks(k, width, rows, j, 0))
    elif fault == "slot one bit narrow":
        monkeypatch.setattr(macdonald, "_masks", lambda k, width, rows, j, ft: real_masks(k, width, rows, j + 1, ft))
    else:
        monkeypatch.setattr(macdonald, "_series", lambda x, step, n: real_series(x, 2 * step, n))
    assert _reduced(*example) != _reduced_reference(*example)


def test_slot_ladder():
    # whole bytes up to a machine word, then whole 64-bit words
    bounds = [0, 1, 127, 128, (1 << 15) - 1, 1 << 15, 1 << 31, (1 << 63) - 1, 1 << 63, 1 << 127, 1 << 191]
    assert [macdonald._slot(b) for b in bounds] == [8, 8, 8, 16, 16, 32, 64, 64, 128, 192, 256]


def test_slot_covers_the_factor_norm():
    # Phi_131(q), a factor of the gap 1 - q^131, has |f|_1 = 131: a slot sized by the numerator's
    # coefficients alone (8 bits) would leave its digit check a negative headroom
    den = {}
    macdonald._add_gap(den, QTPoly({(0, 0): 1, (131, 0): -1}))
    phi = _cyclo(131, 1, 0)
    assert den == {_cyclo(1, 1, 0): 1, phi: 1} and sum(map(abs, phi.terms.values())) == 131
    num = QTPoly({(0, 0): 1, (1, 1): -1}) * phi
    assert _reduced(num, den) == _reduced_reference(num, den) == (QTPoly({(0, 0): 1, (1, 1): -1}),
                                                                   {_cyclo(1, 1, 0): 1})


def test_narrow_walk_slot_is_caught(monkeypatch, fresh_caches):
    # a planted fault: the walk's slot one step below the one its bound asks for (16 -> 8 bits here) lets
    # coefficients wrap into the next slot, and the residual check refuses the result
    real = macdonald._slot
    monkeypatch.setattr(macdonald, "_slot", lambda bound: 8 if (k := real(bound)) <= 16 else k // 2)
    with pytest.raises(AssertionError, match="eigen residual is nonzero"):
        nonsym_e(A2, (-4, -2))


class TestCertificate:
    """A failing zero test is never bypassed: every route to E_lam ends in the residual check."""

    @staticmethod
    def _refuse(*args):
        return False

    # A2 (1, 0) is minuscule (E_lam = e^lam), B2 (2, 1) one affine step above a lower dominant E,
    # and the non-dominant weights are walked from their dominant seeds
    @pytest.mark.parametrize("name, lam", [("A2", (1, 0)), ("B2", (2, 1)), ("A2", (-1, 2)), ("B2", (-2, -2))],
                             ids=["minuscule", "affine-step", "walked-A2", "walked-B2"])
    def test_nonsym_e_raises(self, monkeypatch, fresh_caches, name, lam):
        rs = root_system(name)
        monkeypatch.setattr(macdonald, "_y_fixes", self._refuse)
        with pytest.raises(AssertionError, match="eigen residual is nonzero"):
            nonsym_e(rs, lam)

    # a multiple of E_lam passes the residual check; only the unit coefficient of e^lam catches it
    @pytest.mark.parametrize("name, lam", [("B2", (2, 1)), ("A2", (-1, 2))], ids=["affine-step", "walked-A2"])
    def test_scaled_e_raises(self, monkeypatch, fresh_caches, name, lam):
        real = macdonald._climb

        def doubled(rs, nu, *affine):
            den, (k, width, b0, g) = real(rs, nu, *affine)
            return den, (k, width, b0, {w: (2 * v, e) for w, (v, e) in g.items()})

        monkeypatch.setattr(macdonald, "_climb", doubled)
        with pytest.raises(AssertionError, match="coefficient other than 1"):
            nonsym_e(root_system(name), lam)

    def test_eigen_check_fails(self, monkeypatch):
        r = nonsym_e(A2, (1, 1))
        assert eigen_check(A2, (1, 1), A2.strictly_dominant_coroot(), r).ok
        monkeypatch.setattr(macdonald, "_y_fixes", self._refuse)
        assert not eigen_check(A2, (1, 1), A2.strictly_dominant_coroot(), r).ok

    @pytest.mark.parametrize("delta", [1, -1])
    def test_one_coefficient_off_fails(self, delta):
        lam = (-2, -2)
        r = nonsym_e(B2, lam)
        exps = expected_eigen_exponents(B2, lam, r.mu_used)
        assert macdonald._is_eigenvector(B2, r.mu_used, r.cleared, exps)
        weights = list(r.cleared.terms)
        for w in (weights[0], weights[len(weights) // 2], lam):
            num = r.cleared.terms[w].num
            for key in (min(num.terms), max(num.terms)):
                terms = dict(r.cleared.terms)
                terms[w] = RatQT(num + QTPoly({key: delta}))
                assert not macdonald._is_eigenvector(B2, r.mu_used, QTLaurent(B2, terms), exps), (w, key)


@pytest.mark.parametrize("name, bound", [("A1", 6), ("A2", 3), ("B2", 3), ("C2", 3), ("A3", 2)])
def test_derived_basis_is_the_lower_set(name, bound):
    # nonsym_e takes the basis of a weight that is not dominant from the memoized basis of its seed and the
    # weights of the seed's orbit below it
    rs = root_system(name)
    for lam in weight_box([bound] * rs.rank):
        if not rs.is_dominant(lam):
            assert macdonald._lower_set(rs, lam) == rs.lower_set(lam), lam


class TestFreshResults:
    def test_mutating_a_result_changes_no_later_answer(self, fresh_caches):
        lam = (1, 1)
        ms = A2.strictly_dominant_coroot()
        before = _fields(nonsym_e(A2, lam))
        p_before = laurent_to_json(sym_p(A2, lam))
        r = nonsym_e(A2, lam)
        r.e_poly.terms.pop(lam)
        r.cleared.terms.pop((0, 0))
        r.basis.reverse()
        assert laurent_to_json(sym_p(A2, lam)) == p_before
        assert eigen_check(A2, lam, ms).ok
        assert _fields(nonsym_e(A2, lam)) == before

    def test_mutating_a_lower_set_changes_no_basis(self, fresh_caches):
        lam = (2, 0)
        A2.lower_set(lam).reverse()
        assert nonsym_e(A2, lam).basis == [(0, 1), (1, -1), (-1, 0), (2, 0)]

    @pytest.mark.parametrize("name,bound", [("A2", 2), ("B2", 2), ("C2", 2), ("A3", 1)])
    def test_answers_do_not_depend_on_memo_state(self, name, bound, fresh_caches):
        rs = root_system(name)
        box = weight_box([bound] * rs.rank)
        warm = [_fields(nonsym_e(rs, lam)) for lam in box]
        cold = []
        for lam in box:
            macdonald._solved.clear()
            rs._caches.clear()
            cold.append(_fields(nonsym_e(rs, lam)))
        assert cold == warm


class TestSymmetric:
    def test_minuscule(self):
        assert sym_p(A1, (1,)) == x(1) + x(-1)

    def test_zero(self):
        assert sym_p(A1, (0,)) == QTLaurent.one(A1)

    def test_two_expansion(self):
        p = sym_p(A1, (2,))
        expansion = monomial_expand(p)
        assert [w for w, _ in expansion] == [(0,), (2,)]
        c = dict(expansion)[(0,)]
        assert dict(expansion)[(2,)] == RatQT.from_int(1)
        # at t = q the coefficient degenerates to the character value 1
        assert c.subs_t_eq_q() == RatQT.from_int(1)

    def test_monomial_expand_trivial(self):
        f = x(2) + QTLaurent.one(A1) + x(-2)
        assert monomial_expand(f) == [((0,), RatQT.from_int(1)), ((2,), RatQT.from_int(1))]
        sq = (x(1) + x(-1)) * (x(1) + x(-1))
        assert monomial_expand(sq) == [((0,), RatQT.from_int(2)), ((2,), RatQT.from_int(1))]

    def test_monomial_expand_many_orbits(self):
        # frozen from the dominance-maximal peeling this expansion replaced
        assert [(w, str(c)) for w, c in monomial_expand(sym_p(A1, (4,)))] == [
            ((0,), "(1-t+q-2*q*t+q*t^2+2*q^2-3*q^2*t+q^2*t^2+q^3-3*q^3*t+2*q^3*t^2+q^4-2*q^4*t"
                   "+q^4*t^2-q^5*t+q^5*t^2)/(1-q^2*t-q^3*t+q^5*t^2)"),
            ((2,), "(1-t+q-q*t+q^2-q^2*t+q^3-q^3*t)/(1-q^3*t)"),
            ((4,), "1"),
        ]
        assert [(w, str(c)) for w, c in monomial_expand(weyl_character(A2, (2, 2)))] == [
            ((0, 0), "3"), ((0, 3), "1"), ((1, 1), "2"), ((2, 2), "1"), ((3, 0), "1"),
        ]

    def test_monomial_expand_rejects(self):
        with pytest.raises(ValueError):
            monomial_expand(x(1))

    @pytest.mark.parametrize("lam", [(1, 0), (1, 1), (2, 1)])
    def test_a2_specialization(self, lam):
        p = sym_p(A2, lam).subs_t_eq_q()
        assert p == weyl_character(A2, lam)


def _dominant(rank, top):
    return list(product(range(top + 1), repeat=rank))


# the benchmark's p-table, and weights it left out as too slow for the full symmetrizer
_P_WEIGHTS = (
    [("A1", (k,)) for k in range(10)]
    + [("A2", w) for w in _dominant(2, 3)]
    + [("B2", w) for w in _dominant(2, 3) if sum(w) <= 3]
    + [("C2", w) for w in _dominant(2, 3) if sum(w) <= 3]
    + [("A3", w) for w in _dominant(3, 2) if sum(w) <= 2]
    + [("A4", (1, 0, 0, 1)), ("A4", (0, 1, 1, 0))]
)


def _stabilizer_poincare(rs, lam):
    """W_lam(t) = sum of t^l(w) over the w in W with w lam = lam, as a QTPoly."""
    out = {}
    for word in rs.weyl_elements().values():
        if rs.apply_word(word, lam) == lam:
            out[0, len(word)] = out.get((0, len(word)), 0) + 1
    return QTPoly(out)


def _full_symmetrizer(rs, lam):
    """The full symmetrizer's image of the cleared E_lam, and that image over its e^lam coefficient,
    normalized through RatQT (the route sym_p took before the coset sum)."""
    full = hecke.symmetrizer(rs, nonsym_e(rs, lam).cleared)
    inv = full.coeff(lam).inverse()
    return full, QTLaurent(rs, {w: c * inv for w, c in full.terms.items()})


def _faulty_e(real, fault):
    """macdonald._certified with the cleared form it returns, {weight: QTPoly}, changed by fault(lam, cleared):
    the certified E_lam that sym_p reads."""
    def certified(rs, lam, basis, coeffs):
        *head, cleared = real(rs, lam, basis, coeffs)
        return (*head, fault(lam, cleared))
    return certified


def _coset_sum_reference(rs, lam, f):
    """sum over the minimal coset representatives u of W/W_lam of T_u f on the dict kernel (hecke._t,
    hecke._comb), walked breadth first from lam, as sym_p summed before the frame."""
    images = {tuple(lam): f}
    queue = [tuple(lam)]
    for mu in queue:
        for i in range(1, rs.rank + 1):
            if mu[i - 1] > 0 and (nu := rs.reflect(i, mu)) not in images:
                images[nu] = hecke._t(rs, i, images[mu])
                queue.append(nu)
    return hecke._comb(*((k, 0, 0, 1, 0) for k in images.values()))


def _orbit_sum_agrees(rs, lam, f):
    """sym_p's orbit sum of f = {weight: {(a, b): c}} in its frame decodes to the dict kernel's, weight for
    weight and in its order, and each framed value is the canonical pair that _encode writes for its
    polynomial."""
    k, width, b0, steps = macdonald._orbit_plan(rs, lam, f, 0)
    g = {w: hecke._encode(c, k, width, b0) for w, c in f.items()}
    total = macdonald._stripped(macdonald._orbit_sum(rs, lam, g, steps, k, width), k * width)
    decoded = {w: hecke._decode(v, e, k, width, b0) for w, (v, e) in total.items()}
    expected = {w: _unpack(c) for w, c in _coset_sum_reference(rs, lam, {w: _pack(c) for w, c in f.items()}).items()}
    return (list(decoded) == list(expected) and decoded == expected
            and all(total[w] == hecke._encode(c, k, width, b0) for w, c in decoded.items()))


def _cleared(rs, lam):
    """The cleared E_lam that sym_p reads, as {weight: {(a, b): c}}."""
    return {w: num.terms for w, num in macdonald._certified(rs, lam, *macdonald._solve(rs, lam))[4].items()}


_P_TABLE = [(name, lam) for name, lam in _P_WEIGHTS if name != "A4"]


@pytest.mark.parametrize("name, lam", _P_TABLE)
def test_framed_orbit_sum_matches_dict_kernel_on_e_lambda(name, lam):
    rs = root_system(name)
    assert _orbit_sum_agrees(rs, lam, _cleared(rs, lam))


@st.composite
def _integer_kernels(draw):
    """(rs, lam, f): a dominant lam and f a few weights of small box, each with integer coefficients of
    up to 8 or 80 bits at (q, t)-exponents in [-2, 2]."""
    rs = root_system(draw(st.sampled_from(["A1", "A2", "B2", "C2", "A3"])))
    lam = tuple(draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank)))
    size = draw(st.sampled_from([1 << 7, 1 << 80]))
    weights = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                            st.integers(-size, size).filter(bool), min_size=1, max_size=4)
    return rs, lam, draw(st.dictionaries(weights, terms, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_integer_kernels())
def test_framed_orbit_sum_matches_dict_kernel_on_integer_kernels(example):
    assert _orbit_sum_agrees(*example)


# A1 (1,): T_1 e^1 = e^-1 and T_1 e^-1 = t e^1 + (t - 1) e^-1, so both coefficients of the sum are
# (1 + q) + t (-t^-1) = q, whose lowest q-row cancels
_CANCELLING = (A1, (1,), {(1,): {(0, 0): 1, (1, 0): 1}, (-1,): {(0, -1): -1}})


@pytest.mark.parametrize("fault, example", [
    # the sum 1 + (1 - t) e^0 + e^-2 reaches the last column of the window
    ("window one column short", (A1, (2,), {(2,): {(0, 0): 1}})),
    # T_1 e^0 = t e^0, so the sum is 100 + 200 t + 100 t^2: the bound 200 asks for 16-bit slots
    ("plan bound halved", (A1, (2,), {(0,): {(0, 0): 100, (0, 1): 100}})),
    ("no strip of the zero low rows", _CANCELLING),
])
def test_planted_orbit_frame_fault_is_caught(monkeypatch, fault, example):
    assert _orbit_sum_agrees(*example)
    if fault == "window one column short":
        real = macdonald._orbit_plan
        monkeypatch.setattr(macdonald, "_orbit_plan", lambda *args: (lambda k, width, b0, steps: (
            k, width - 1, b0, steps))(*real(*args)))
    elif fault == "plan bound halved":
        real = macdonald._slot
        monkeypatch.setattr(macdonald, "_slot", lambda bound: real(bound // 2))
    else:
        monkeypatch.setattr(macdonald, "_stripped", lambda g, qk: g)
    assert not _orbit_sum_agrees(*example)


class TestCosetSum:
    @pytest.mark.parametrize("name, lam", _P_WEIGHTS)
    def test_matches_full_symmetrizer(self, name, lam):
        rs = root_system(name)
        full, normalized = _full_symmetrizer(rs, lam)
        res = nonsym_e(rs, lam)
        # sym_p divides by these factors, so they must be the clearing's
        assert prod((f ** m for f, m in res.clearing_factors.items()), start=ONE_P) == res.clearing
        # sum_W T_w = (sum_u T_u)(sum_{v in W_lam} T_v), and T_v E_lam = t^l(v) E_lam
        assert full.coeff(lam) == RatQT(res.clearing * _stabilizer_poincare(rs, lam))
        assert sym_p(rs, lam) == normalized

    def test_no_gcd_and_one_t_per_orbit_point(self, monkeypatch):
        calls = {"gcd": 0, "walk": 0, "stabilizer": 0}
        phase = ["stabilizer"]  # the letters sym_p applies outside _orbit_sum are its stabilizer checks

        def counted(key, real):
            def wrapper(*args):
                calls[key] += 1
                return real(*args)
            return wrapper

        def letter(*args):
            calls[phase[0]] += 1
            return real_letter(*args)

        def walking(*args):
            phase[0] = "walk"
            try:
                return real_sum(*args)
            finally:
                phase[0] = "stabilizer"

        real_letter, real_sum = macdonald._framed_letter, macdonald._orbit_sum
        monkeypatch.setattr(qt, "poly_gcd", counted("gcd", qt.poly_gcd))
        for name, lam in _P_WEIGHTS:
            rs = root_system(name)
            nonsym_e(rs, lam)  # the eigensolve's own framed letters are not counted
            with monkeypatch.context() as m:
                m.setattr(macdonald, "_framed_letter", letter)
                m.setattr(macdonald, "_orbit_sum", walking)
                sym_p(rs, lam)
            assert calls["walk"] == len(rs.orbit(lam)) - 1, (name, lam)
            assert calls["stabilizer"] == lam.count(0), (name, lam)
            calls["walk"] = calls["stabilizer"] = 0
        assert calls["gcd"] == 0

    @pytest.mark.parametrize("name, lam", [("A2", (2, 0)), ("B2", (0, 2)), ("C2", (1, 0)), ("A3", (1, 0, 1))])
    def test_broken_stabilizer_identity_raises(self, monkeypatch, name, lam):
        # s_i fixes lam but not omega_i, so adding e^omega_i to the cleared form breaks
        # T_i E_lam = t E_lam, on which the coset sum rests
        i = lam.index(0) + 1
        omega = tuple(int(k == i) for k in range(1, len(lam) + 1))
        monkeypatch.setattr(macdonald, "_certified", _faulty_e(
            macdonald._certified, lambda lam, terms: {**terms, omega: terms.get(omega, ZERO_P) + ONE_P}))
        with pytest.raises(AssertionError, match=f"T_{i} E_.* is not t E_"):
            sym_p(root_system(name), lam)

    @pytest.mark.parametrize("name, lam", [("A1", (2,)), ("A2", (2, 1)), ("B2", (0, 2)), ("A3", (0, 1, 0))])
    def test_broken_lead_raises(self, monkeypatch, name, lam):
        # a scalar multiple of the cleared form passes the stabilizer check, but its coset sum
        # does not have the clearing at e^lam
        scalar = QTPoly({(0, 0): 1, (1, 0): 1})
        monkeypatch.setattr(macdonald, "_certified", _faulty_e(
            macdonald._certified, lambda lam, terms: {w: c * scalar for w, c in terms.items()}))
        with pytest.raises(AssertionError, match="is not the clearing"):
            sym_p(root_system(name), lam)

    @pytest.mark.parametrize("name, lam", [("A1", (2,)), ("A2", (2, 1)), ("B2", (1, 1)), ("C2", (2, 1)),
                                           ("A3", (1, 1, 1))])
    def test_dropped_orbit_term_is_not_w_invariant(self, monkeypatch, name, lam):
        # lam has no zero coordinate, so every framed letter of sym_p is a step of the orbit walk; the
        # last step's image feeds no later step, so dropping one of its weights, neither lam nor 0,
        # leaves the e^lam coefficient and changes the sum at that weight alone
        rs = root_system(name)
        macdonald._solve(rs, lam)  # the eigensolve's own framed letters are not faulted
        real, left = macdonald._framed_letter, [len(rs.orbit(lam)) - 1]

        def dropped(*args):
            out = real(*args)
            left[0] -= 1
            if not left[0]:
                out.pop(next(w for w in reversed(out) if w != lam and any(w)))
            return out

        monkeypatch.setattr(macdonald, "_framed_letter", dropped)
        with pytest.raises(AssertionError, match="not W-invariant"):
            sym_p(rs, lam)


class TestWeylCharacter:
    def test_a1(self):
        assert weyl_character(A1, (3,)) == x(3) + x(1) + x(-1) + x(-3)

    def test_a2_adjoint_multiplicity(self):
        chi = weyl_character(A2, (1, 1))
        assert specialize_dim(chi) == 8
        assert chi.coeff((0, 0)) == RatQT.from_int(2)

    def test_b2_dimensions(self):
        assert specialize_dim(weyl_character(B2, (1, 0))) == 5
        assert specialize_dim(weyl_character(B2, (0, 1))) == 4
        assert specialize_dim(weyl_character(B2, (1, 1))) == 16


class TestIntegralScalar:
    def test_values(self):
        assert a1_integral_scalar(0) == RatQT.from_int(1)
        assert a1_integral_scalar(1) == poly({(0, 0): 1, (1, 1): -1})
        two = a1_integral_scalar(2)
        assert two == poly({(0, 0): 1, (1, 1): -1}) * poly({(0, 0): 1, (2, 1): -1})


# y_matrix builds each column on its own, as Y^mu e^nu_j; the second construction maps every column in one pass

_E_TABLE_DOMINANT = ([("A1", (k,)) for k in range(5)]
                     + [(t, w) for t in ("A2", "B2", "C2") for w in product(range(3), repeat=2)]
                     + [("A3", w) for w in product(range(2), repeat=3)])


_COLS = 1 << 24  # column j < 2^24 is packed at j * 2^40, between the q and t slots of a kernel key


def _one_pass_y_matrix(rs, basis, mu):
    """The matrix with every column in one pass of the translation word: column j starts as e^nu_j
    at the kernel key j * 2^40.  A column starts at q^0 t^0 and a letter moves b by at most 1, so
    b stays far inside (-2^39, 2^39) and the Hecke action never carries a key into another column.
    A weight out of place is an OrderViolationError for the least such column, as in y_matrix."""
    assert len(basis) < _COLS
    index = {w: k for k, w in enumerate(basis)}
    keys = [rs.order_key(w) for w in basis]
    cells, bad = {}, {}
    for w, c in hecke._y(rs, mu, {nu: {j << 40: 1} for j, nu in enumerate(basis)}).items():
        i = index.get(w)
        for key, v in c.items():
            j = ((key + (1 << 39)) >> 40) & (_COLS - 1)
            if i is None:
                bad.setdefault(j, f"Y e^{basis[j]} has weight {w} outside the lower set of {basis[-1]}")
            else:
                cells.setdefault((i, j), {})[key - (j << 40)] = v
    mat = [[QTPoly()] * len(basis) for _ in basis]
    for (i, j), cell in cells.items():
        if rs.compare_keys(keys[i], keys[j]) not in (LESS, EQUAL):
            bad.setdefault(j, f"Y e^{basis[j]} has weight {basis[i]} not below {basis[j]} in the order")
        mat[i][j] = QTPoly(_unpack(cell))
    if bad:
        raise OrderViolationError(bad[min(bad)])
    return mat


def _leaking(real_t, source, leak, letters):
    """T_i plus a linear leak at the last letter of each word of `letters` letters: there the
    coefficient of e^source is added at e^leak as well, so e^leak is the one weight out of place."""
    calls = count(1)

    def t_op(rs, i, f):
        out = real_t(rs, i, f)
        if next(calls) % letters or source not in f:
            return out
        return hecke._comb((out, 0, 0, 1, 0), ({leak: f[source]}, 0, 0, 1, 0))
    return t_op


class TestYMatrix:
    @pytest.mark.parametrize("name, lam", _E_TABLE_DOMINANT)
    def test_one_pass_matches_per_column(self, name, lam):
        rs = root_system(name)
        basis = rs.lower_set(lam)
        mu, _ = macdonald._operator(rs, basis)
        assert _one_pass_y_matrix(rs, basis, mu) == macdonald.y_matrix(rs, basis, mu)

    @pytest.mark.parametrize("name, lam", [("A1", (2,)), ("A2", (1, 1)), ("C2", (1, 1))])
    def test_one_pass_matches_per_column_for_y_inverse(self, name, lam):
        # Y^{-mu} runs T_i^{-1}, whose t^{-1} gives the image negative t-exponents
        rs = root_system(name)
        basis = rs.lower_set(lam)
        mu = tuple(-m for m in macdonald._operator(rs, basis)[0])
        assert _one_pass_y_matrix(rs, basis, mu) == macdonald.y_matrix(rs, basis, mu)

    @pytest.mark.parametrize("name, lam, source, leak, kind", [
        ("A2", (1, 1), (0, 0), (7, 7), "outside the lower set"),
        ("B2", (2, 0), (1, 0), (9, -8), "outside the lower set"),
        ("A2", (1, 1), (0, 0), (1, 1), "not below"),
        ("C2", (1, 1), (1, -1), (1, 1), "not below"),
    ])
    def test_leaked_weight_raises_for_the_same_column(self, monkeypatch, name, lam, source, leak, kind):
        rs = root_system(name)
        basis = rs.lower_set(lam)
        mu, _ = macdonald._operator(rs, basis)
        real_t, letters = hecke._t, len(rs.translation_word(mu))
        monkeypatch.setattr(hecke, "_t", _leaking(real_t, source, leak, letters))
        with pytest.raises(OrderViolationError) as per_column:
            macdonald.y_matrix(rs, basis, mu)
        monkeypatch.setattr(hecke, "_t", _leaking(real_t, source, leak, letters))
        with pytest.raises(OrderViolationError) as one_pass:
            _one_pass_y_matrix(rs, basis, mu)
        assert kind in str(per_column.value)
        assert str(one_pass.value) == str(per_column.value)
