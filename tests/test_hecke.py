"""Demazure-Lusztig operators: frozen values, string-sum oracle, suites."""

import ast
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from daha.qt import QTPoly, RatQT, rat
from daha.roots import RootSystem, root_system, weight_box
from daha.polyring import QTLaurent, _kernel, _pack, _unpack
from daha import hecke
from daha.macdonald import expected_eigen_exponents, nonsym_e
from daha.hecke import (
    RelationReport,
    demazure_char,
    demazure_op,
    dl_inv,
    dl_op,
    symmetrizer,
    verify_demazure,
    verify_relations,
    verify_symmetrizer,
    word_op,
    y_op,
)

A1 = root_system("A1")
A2 = root_system("A2")
B2 = root_system("B2")

R_T = RatQT.monomial(1, 0, 1)
ONE_MINUS_T = rat(QTPoly({(0, 0): 1, (0, 1): -1}))
E_MINUS_COEFF = rat(QTPoly({(0, 0): 1, (0, 1): -1}), QTPoly({(0, 0): 1, (1, 1): -1}))


def x(m):
    return QTLaurent.mono(A1, (m,))


def _poincare_polynomial(rs):
    """sum_w t^{l(w)} over the finite Weyl group."""
    return rat(QTPoly({(0, k): sum(len(w) == k for w in rs.weyl_elements().values())
                       for k in range(len(rs.longest_word()) + 1)}))


class TestOperatorValues:
    def test_t_on_invariant(self):
        assert dl_op(A1, 1, QTLaurent.one(A1)) == QTLaurent.one(A1).scale(R_T)
        assert dl_op(A1, 0, QTLaurent.one(A1)) == QTLaurent.one(A1).scale(R_T)

    def test_t1_on_x(self):
        assert dl_op(A1, 1, x(1)) == x(-1)

    def test_t0_on_x_inverse(self):
        assert dl_op(A1, 0, x(-1)) == x(1).scale(RatQT.monomial(1, -1, 0))

    def test_string_sum_oracle(self):
        # (X^alpha - 1) * G = s_i e^mu - e^mu defines the string sum exactly;
        # recover G from T: G = (T e^mu - t s_i e^mu) / (t - 1)
        t_minus_1 = rat(QTPoly({(0, 1): 1, (0, 0): -1}))
        x_alpha = QTLaurent.mono(A1, (2,))
        one = QTLaurent.one(A1)
        for m in range(-4, 5):
            f = x(m)
            si = x(-m)
            g = (dl_op(A1, 1, f) - si.scale(R_T)).scale(t_minus_1.inverse()) if m else None
            if m == 0:
                continue
            assert (x_alpha - one) * g == si - f

    def test_inverse_formula(self):
        got = dl_inv(A1, 1, x(1))
        want = x(-1).scale(RatQT.monomial(1, 0, -1)) + x(1).scale(
            rat(QTPoly({(0, -1): 1, (0, 0): -1}))
        )
        assert got == want

    def test_inverse_round_trip(self):
        f = x(2) + x(-1).scale(rat(3))
        for i in (0, 1):
            assert dl_inv(A1, i, dl_op(A1, i, f)) == f
            assert dl_op(A1, i, dl_inv(A1, i, f)) == f

    def test_t_inv_on_t(self):
        assert dl_inv(A1, 1, QTLaurent.one(A1).scale(R_T)) == QTLaurent.one(A1)

    @pytest.mark.parametrize("rs, word", [(A1, (0, 1, 0)), (A2, (1, 2, 0, 1)), (B2, (2, 1, 2, 0))])
    def test_word_op_composes_dl_op(self, rs, word):
        # first letter outermost; a rational coefficient exercises the cleared path
        f = QTLaurent.mono(rs, (1,) + (-1,) * (rs.rank - 1)).scale(E_MINUS_COEFF) + QTLaurent.one(rs)
        g = f
        for i in reversed(word):
            g = dl_op(rs, i, g)
        assert word_op(rs, word, f) == g


class TestYOperator:
    def test_on_constant(self):
        assert y_op(A1, (1,), QTLaurent.one(A1)) == QTLaurent.one(A1).scale(
            RatQT.monomial(1, 0, 2)
        )

    def test_on_x(self):
        assert y_op(A1, (1,), x(1)) == x(1).scale(RatQT.monomial(1, -1, 0))

    def test_eigenvector(self):
        e = x(-1) + x(1).scale(E_MINUS_COEFF)
        assert y_op(A1, (1,), e) == e.scale(RatQT.monomial(1, 1, 2))

    def test_inverse_direction(self):
        # Y^{-mu} Y^{mu} = id
        f = x(2) + x(-1).scale(rat(5))
        g = y_op(A1, (-1,), y_op(A1, (1,), f))
        assert g == f

    def test_y_commute_a2(self):
        f = QTLaurent.mono(A2, (1, -1))
        a = y_op(A2, (1, 0), y_op(A2, (0, 1), f))
        b = y_op(A2, (0, 1), y_op(A2, (1, 0), f))
        assert a == b
        assert a == y_op(A2, (1, 1), f)


class TestDemazure:
    def test_single_step(self):
        got = demazure_char(A1, (1,), (3,))
        want = x(3) + (x(1) + x(-1)).scale(ONE_MINUS_T) + x(-3)
        assert got == want

    def test_empty_word(self):
        assert demazure_char(A1, (), (5,)) == x(5)

    def test_unreduced_word_scales(self):
        one_plus_t = rat(QTPoly({(0, 0): 1, (0, 1): 1}))
        assert demazure_char(A1, (1, 1), (3,)) == demazure_char(A1, (1,), (3,)).scale(
            one_plus_t
        )

    @pytest.mark.parametrize("word", [(0,), (2,), (1, -1)])
    def test_letters_outside_the_finite_indices(self, word):
        with pytest.raises(ValueError, match=r"has a letter outside 1\.\.1, the letters of A1"):
            demazure_char(A1, word, (3,))


class TestSymmetrizer:
    def test_on_one(self):
        one_plus_t = rat(QTPoly({(0, 0): 1, (0, 1): 1}))
        assert symmetrizer(A1, QTLaurent.one(A1)) == QTLaurent.one(A1).scale(one_plus_t)

    def test_on_x_invariant(self):
        p = symmetrizer(A1, x(1))
        assert p == x(1) + x(-1)
        assert p.is_w_invariant()

    def test_idempotent_up_to_poincare(self):
        for rs, lam in [(A1, (2,)), (A2, (1, 0))]:
            f = symmetrizer(rs, QTLaurent.mono(rs, lam))
            assert symmetrizer(rs, f) == f.scale(_poincare_polynomial(rs))

    def test_poincare(self):
        assert _poincare_polynomial(A1) == rat(QTPoly({(0, 0): 1, (0, 1): 1}))
        assert _poincare_polynomial(A2) == rat(
            QTPoly({(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1})
        )


class TestSuites:
    @pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2"])
    def test_relations(self, name):
        report = verify_relations(root_system(name), 2)
        assert report.passed, report.lines()

    def test_relation_example_xshift(self):
        # X^w T_1 x = 1 = t T_1^{-1} X^{-w} x on the nose
        lhs = QTLaurent.mono(A1, (1,)) * dl_op(A1, 1, x(1))
        rhs = dl_inv(A1, 1, QTLaurent.mono(A1, (-1,)) * x(1)).scale(R_T)
        assert lhs == QTLaurent.one(A1)
        assert rhs == QTLaurent.one(A1)

    @pytest.mark.parametrize("name", ["A1", "A2"])
    def test_symmetrizer_suite(self, name):
        report = verify_symmetrizer(root_system(name), 2)
        assert report.passed, report.lines()

    @pytest.mark.parametrize("name", ["A2", "B2"])
    def test_demazure_suite(self, name):
        report = verify_demazure(root_system(name), 2)
        assert report.passed, report.lines()

    def test_braid_defect_is_what_blocks_word_independence(self):
        # the operator products along the two reduced words differ by exactly
        # t (D_1 - D_2); this pins the word-comparison content
        f = QTLaurent.mono(A2, (1, 1))
        d121 = demazure_op(A2, 1, demazure_op(A2, 2, demazure_op(A2, 1, f)))
        d212 = demazure_op(A2, 2, demazure_op(A2, 1, demazure_op(A2, 2, f)))
        diff = d121 - d212
        want = (demazure_op(A2, 1, f) - demazure_op(A2, 2, f)).scale(R_T)
        assert diff == want
        assert not diff.is_zero()


# independent oracle: T_i checked against its defining identity, by products only

ORACLE_TYPES = {name: root_system(name) for name in ("A1", "A2", "B2", "C2")}
DENOMINATORS = [
    QTPoly({(0, 0): 1, (1, 1): -1}),
    QTPoly({(0, 0): 1, (1, 0): 1, (0, 1): 1}),
    QTPoly({(0, 0): 2, (1, 2): -1}),
    QTPoly({(0, 1): 1, (0, 0): -1}),
]
small_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-5, 5), min_size=1, max_size=3
).map(QTPoly).filter(lambda p: not p.is_zero())


@st.composite
def hecke_inputs(draw, rational):
    rs = ORACLE_TYPES[draw(st.sampled_from(sorted(ORACLE_TYPES)))]
    i = draw(st.integers(0, rs.rank))
    weights = st.tuples(*[st.integers(-3, 3)] * rs.rank)
    terms = {w: rat(p) for w, p in draw(st.dictionaries(weights, small_polys, min_size=1, max_size=4)).items()}
    if rational:
        w = draw(st.sampled_from(sorted(terms)))
        terms[w] = terms[w] / rat(draw(st.sampled_from(DENOMINATORS)))
    return rs, i, QTLaurent(rs, terms)


SYM_TYPES = {name: root_system(name) for name in ("A1", "A1xA1", "A2", "B2", "C2", "A3")}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symmetrizer_is_the_sum_of_word_ops(data):
    # the oracle applies each T_w anew along its whole reduced word, not along the Weyl group's tree
    rs = SYM_TYPES[data.draw(st.sampled_from(sorted(SYM_TYPES)))]
    weights = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    f = QTLaurent(rs, {w: rat(p) for w, p in data.draw(
        st.dictionaries(weights, small_polys, min_size=1, max_size=3)).items()})
    total = QTLaurent.zero(rs)
    for word in rs.weyl_elements().values():
        total = total + word_op(rs, word, f)
    assert symmetrizer(rs, f) == total


# the oracle for the packed kernel: T_i on tuple-keyed kernels {weight: {(dq, dt): int}}, one tuple per term

def _tuple_pruned(out):
    return {w: d for w, c in out.items() if (d := {k: v for k, v in c.items() if v})}


def _tuple_t(rs, i, f):
    """T_i e^mu = t X^{-m alpha_i} e^mu + (1 - t) sum_{k=1..m} X^{-k alpha_i} e^mu for m > 0, and
    + (t - 1) sum_{k=0..-m-1} X^{k alpha_i} e^mu for m <= 0, m = <alpha_i^vee, mu>; X^{alpha_0} = q e^{-theta}."""
    if i == 0:
        step_w, step_q, m_of = tuple(-c for c in rs.theta()), 1, lambda mu: -rs.theta_pair(mu)
    else:
        step_w, step_q, m_of = rs.simple_root(i), 0, lambda mu: mu[i - 1]
    out = {}
    for mu, c in f.items():
        m = m_of(mu)
        shifts = ([(-k, 1, -1) for k in range(1, m)] + [(-m, 1, 0)] if m > 0
                  else [(-m, 0, 1)] + [(k, -1, 1) for k in range(-m)])
        for k, c0, c1 in shifts:
            d = out.setdefault(tuple(a + k * b for a, b in zip(mu, step_w)), {})
            for (a, b), v in c.items():
                for key, coeff in (((a + k * step_q, b), c0), ((a + k * step_q, b + 1), c1)):
                    d[key] = d.get(key, 0) + coeff * v
    return _tuple_pruned(out)


def _tuple_sum(parts):
    """The sum of the tuple kernels k times q^dq t^dt times s over the parts (k, dq, dt, s)."""
    out = {}
    for k, dq, dt, s in parts:
        for w, c in k.items():
            d = out.setdefault(w, {})
            for (a, b), v in c.items():
                d[a + dq, b + dt] = d.get((a + dq, b + dt), 0) + s * v
    return _tuple_pruned(out)


def _tuple_t_inv(rs, i, f):
    """T_i^{-1} = t^{-1} T_i + t^{-1} - 1."""
    return _tuple_sum([(_tuple_t(rs, i, f), 0, -1, 1), (f, 0, -1, 1), (f, 0, 0, -1)])


def _tuple_word(rs, word, f):
    for i in reversed(word):
        f = _tuple_t(rs, i, f)
    return f


def _tuple_y(rs, mu, f):
    plus, minus = hecke._dominant_decomposition(rs, mu)
    for i in rs.translation_word(minus) if any(minus) else ():
        f = _tuple_t_inv(rs, i, f)
    return _tuple_word(rs, rs.translation_word(plus), f) if any(plus) else f


def _tuple_sym(rs, f):
    return _tuple_sum([(_tuple_word(rs, word, f), 0, 0, 1) for word in rs.weyl_elements().values()])


PACKED_TYPES = {name: root_system(name) for name in ("A1", "A1xA1", "A2", "B2", "C2")}
# small exponents of both signs, and now and then one far out: a q-exponent beyond 2^64 and a
# t-exponent up to 2^61, inside the range (-2^62, 2^62) that a packed key admits
q_exps = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
t_exps = st.one_of(st.integers(-3, 3), st.integers(-2**61, 2**61))
tuple_coeffs = st.dictionaries(st.tuples(q_exps, t_exps), st.integers(-5, 5).filter(bool), min_size=1, max_size=3)


def _short_translations(rs):
    """The coroot vectors mu in [-1, 1]^r, negative ones included, whose Y^mu takes at most 16 letters."""
    def letters(mu):
        return sum(len(rs.translation_word(v)) for v in hecke._dominant_decomposition(rs, mu) if any(v))
    return [mu for mu in product((-1, 0, 1), repeat=rs.rank) if letters(mu) <= 16]


def _searched_decomposition(rs, mu):
    """mu = mu_+ - n mu* by the search the closed form replaced: the least n >= 1 making
    mu + n mu* pair nonnegatively with every positive root, when mu is not dominant already."""
    if all(rs.coroot_pair(mu, wc) >= 0 for _, wc in rs.positive_roots()):
        return tuple(mu), (0,) * rs.rank
    base = rs.strictly_dominant_coroot()
    n = 1
    while True:
        cand = tuple(m + n * b for m, b in zip(mu, base))
        if all(rs.coroot_pair(cand, wc) >= 0 for _, wc in rs.positive_roots()):
            return cand, tuple(n * b for b in base)
        n += 1


@pytest.mark.parametrize("name,bound", [("A1", 8), ("A2", 4), ("B2", 4), ("C2", 4), ("A3", 3), ("A4", 2)])
def test_dominant_decomposition_matches_search(name, bound):
    rs = root_system(name)
    for mu in product(range(-bound, bound + 1), repeat=rs.rank):
        assert hecke._dominant_decomposition(rs, mu) == _searched_decomposition(rs, mu), mu


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_kernel_matches_tuple_kernel(data):
    rs = PACKED_TYPES[data.draw(st.sampled_from(sorted(PACKED_TYPES)))]
    i = data.draw(st.integers(0 if rs.irreducible else 1, rs.rank))
    weights = st.tuples(*[st.integers(-3, 3)] * rs.rank)
    f = data.draw(st.dictionaries(weights, tuple_coeffs, min_size=1, max_size=3))
    packed = {w: _pack(c) for w, c in f.items()}

    def unpacked(k):
        return {w: _unpack(c) for w, c in k.items()}

    assert unpacked(hecke._t(rs, i, packed)) == _tuple_t(rs, i, f)
    assert unpacked(hecke._t_inv(rs, i, packed)) == _tuple_t_inv(rs, i, f)
    assert unpacked(hecke._sym(rs, packed)) == _tuple_sym(rs, f)
    if rs.irreducible:
        mu = data.draw(st.sampled_from(_short_translations(rs)))
        assert unpacked(hecke._y(rs, mu, packed)) == _tuple_y(rs, mu, f)


def test_pack_rejects_t_exponents_beyond_its_range():
    assert _unpack(_pack({(-2**80, 2**62 - 1): 3, (5, -2**62 + 1): -1})) == {(-2**80, 2**62 - 1): 3,
                                                                             (5, -2**62 + 1): -1}
    for b in (2**62, -2**62):
        with pytest.raises(OverflowError):
            _pack({(0, b): 1})


# the eigenvector check Y^mu f == q^dq t^dt f as one integer comparison per weight (hecke._y_fixes),
# against the kernel operator: y_op(rs, mu, f) == f.scale(q^dq t^dt)

# (type, lam) whose lower set has 1 to 3 weights: E_lam times any polynomial is an eigenvector of every Y^mu
_SMALL_E = [(name, lam) for name in ("A1", "A2", "B2", "C2") for lam in weight_box([2] * root_system(name).rank)
            if len(root_system(name).lower_set(lam)) <= 3]
big_polys = st.dictionaries(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                            st.integers(-2**100, 2**100).filter(bool), min_size=1, max_size=4).map(QTPoly)


def _has_minus_part(rs, mu):
    return any(hecke._dominant_decomposition(rs, mu)[1])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_zero_test_matches_y_op(data):
    name, lam = data.draw(st.sampled_from(_SMALL_E))
    rs = root_system(name)
    mus = _short_translations(rs)
    if data.draw(st.booleans()):
        mus = [mu for mu in mus if _has_minus_part(rs, mu)]
    mu = data.draw(st.sampled_from(mus))
    scalar = data.draw(big_polys)
    f = {w: (scalar * c.num).terms for w, c in nonsym_e(rs, lam).cleared.terms.items()}
    off = data.draw(st.sampled_from([0, 1, -1]))
    if off:  # one coefficient off by one, at a term of f or next to it
        w = data.draw(st.sampled_from(sorted(f)))
        key = data.draw(st.sampled_from(sorted(f[w]) + [(6, 0), (0, -6)]))
        f[w] = {k: c for k, c in {**f[w], key: f[w].get(key, 0) + off}.items() if c}
    dq, dt = expected_eigen_exponents(rs, lam, mu)
    F = QTLaurent(rs, {w: rat(QTPoly(c)) for w, c in f.items()})
    expected = y_op(rs, mu, F) == F.scale(RatQT.monomial(1, dq, dt))
    assert expected or off
    assert hecke._y_fixes(rs, mu, f, dq, dt) == expected


@pytest.mark.parametrize("name, lam, mu", [("A3", (-1, -1, -1), (-2, 3, 2)), ("B2", (-1, -1), (-3, 2)),
                                           ("C2", (2, -3), (-5, 9))])
def test_zero_test_across_checkpoints(monkeypatch, name, lam, mu):
    # long words with T_i^{-1} letters (202, 98 and 388 letters): the plan's window would grow by more than
    # 16 columns, so the word runs on several frames, each decoded exactly at its end and the next planned
    # from the actual coefficients
    rs = root_system(name)
    f = _kernel(nonsym_e(rs, lam).cleared)[0]
    dq, dt = expected_eigen_exponents(rs, lam, mu)
    assert _has_minus_part(rs, mu)
    decoded = []
    real = hecke._decode
    monkeypatch.setattr(hecke, "_decode", lambda v, e, k, width, b0: decoded.append(k) or real(v, e, k, width, b0))
    frames = []  # (first letter, (k, width, b0, stop)) of each frame
    plan = hecke._plan
    monkeypatch.setattr(hecke, "_plan", lambda rs, letters, n, terms, reserve: (
        lambda p: frames.append((n, p)) or p)(plan(rs, letters, n, terms, reserve)))
    assert hecke._y_fixes(rs, mu, f, dq, dt)
    assert decoded and len(decoded) == len(f) * (len(frames) - 1)
    if name == "C2":
        # every frame but the last ends by the window rule: it has added 16 columns, in slots of at most
        # 64 bits
        assert all(k <= 64 and stop - n == 16 for n, (k, width, b0, stop) in frames[:-1])
    w = sorted(f)[len(f) // 2]
    key = min(f[w])
    for delta in (1, -1):
        assert not hecke._y_fixes(rs, mu, {**f, w: {**f[w], key: f[w][key] + delta}}, dq, dt)
    assert not hecke._y_fixes(rs, mu, f, dq, dt + 1)
    assert not hecke._y_fixes(rs, mu, f, dq - 1, dt)


def test_plan_ends_a_frame_before_64_bits():
    # f = 2^40 E_(-1,-1,-1): the bound of the 202-letter word passes a 64-bit slot before the window rule
    # would end the frame, and the frame ends there, still in 64-bit slots
    rs, lam, mu = root_system("A3"), (-1, -1, -1), (-2, 3, 2)
    f = {w: {key: c << 40 for key, c in terms.items()} for w, terms in _kernel(nonsym_e(rs, lam).cleared)[0].items()}
    k, width, b0, stop = hecke._plan(rs, hecke._y_letters(rs, mu), 0, f, 1 << 40)
    assert k == 64 and stop < 16


# A2 E_(-1,1) under Y^(1,1), four letters, times p = 88 - 88 t, with the carries of an 8-bit frame of
# width 8 taken: g(2^64, 2^8) = p(2^8) E(2^64, 2^8) weight by weight, while g, whose coefficients fit 8 bits,
# is no multiple of E, so no eigenvector.  The bounds of Y^(1,1) g need 16 bits.
_CARRIED = (A2, (1, 1), (-1, 1), {(1, 0): {(0, 0): 88, (0, 1): 80, (0, 2): 87},
                                  (-1, 1): {(0, 0): 88, (0, 1): -88, (1, 2): -88, (1, 3): 88}})


def test_carried_kernel_is_no_eigenvector():
    rs, mu, lam, g = _CARRIED
    f = _kernel(nonsym_e(rs, lam).cleared)[0]
    dq, dt = expected_eigen_exponents(rs, lam, mu)
    k, width, b0, stop = hecke._plan(rs, hecke._y_letters(rs, mu), 0, g, 88)
    assert (k, width, b0, stop) == (16, 8, 0, 4)
    p = QTPoly({(0, 0): 88, (0, 1): -88})
    products = {w: (p * QTPoly(c)).terms for w, c in f.items()}
    assert all(_frame_map(c, 8, width) == _frame_map(products[w], 8, width) for w, c in g.items())
    assert g[(-1, 1)] == products[(-1, 1)] and g[(1, 0)] != products[(1, 0)]  # the carries of one weight
    G = QTLaurent(rs, {w: rat(QTPoly(c)) for w, c in g.items()})
    assert y_op(rs, mu, G) != G.scale(RatQT.monomial(1, dq, dt))
    assert not hecke._y_fixes(rs, mu, g, dq, dt)


def test_low_growth_estimate_is_caught(monkeypatch):
    # a planted fault: the plan leaves out the bound of the frame's first letter, so the 8-bit slot
    # it then picks wraps the coefficients of Y^(1,1) g, and the carried kernel passes as an eigenvector
    rs, mu, lam, g = _CARRIED
    dq, dt = expected_eigen_exponents(rs, lam, mu)
    assert not hecke._y_fixes(rs, mu, g, dq, dt)
    real = hecke._letter_bound
    calls = []

    def under_count(rs, i, bound):
        calls.append(i)
        return dict(bound) if len(calls) == 1 else real(rs, i, bound)

    monkeypatch.setattr(hecke, "_letter_bound", under_count)
    assert hecke._y_fixes(rs, mu, g, dq, dt)


def test_memoized_strings_have_one_entry_per_target():
    # each entry is (target, q-shift, c0, c1, |c0| + |c1|), with c1 = -c0 or one of them 0, as
    # _framed_letter reads it; the strings of an E_lam walk, a residual check and a relation suite
    rs = RootSystem("B2")
    nonsym_e(rs, (-2, 1))
    verify_relations(rs, 1)
    memos = [v for key, v in rs._caches.items() if key[0] == "alpha_strings"]
    assert len(memos) == 3 and all(memos)
    for memo in memos:
        for mu, string in memo.items():
            targets = [w for w, *_ in string]
            assert len(targets) == len(set(targets)), mu
            for w, dq, c0, c1, n in string:
                assert (c0, c1) in {(1, 0), (0, 1), (1, -1), (-1, 1)} and n == abs(c0) + abs(c1), (mu, w)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "A1xA1"])
def test_letter_bound_holds_every_coefficient(name):
    # the bound of each weight of T_i g against its largest coefficient, for g with alternating signs,
    # where an entry 1 - t doubles a coefficient: (1 - t)(x - x t + x t^2) = x - 2x t + 2x t^2 - x t^3
    rs = root_system(name)
    box = weight_box([2] * rs.rank)
    poly = {(0, 0): 5, (0, 1): -5, (0, 2): 5}
    inputs = [{mu: poly} for mu in box] + [{mu: poly for mu in box}]
    for i in hecke._affine_indices(rs):
        for g in inputs:
            image = hecke._t(rs, i, {w: _pack(c) for w, c in g.items()})
            bound = hecke._letter_bound(rs, i, {w: 5 for w in g})
            assert all(max(map(abs, c.values())) <= bound[w] for w, c in image.items()), (i, g.keys())


def test_letter_bound_picks_the_slot_one_letter_decodes_in():
    # T_1 (100 - 100 t) e^(2) in A1 has 100 - 200 t + 100 t^2 at e^0, as the entry 1 - t there counts
    # twice: the bound 200 picks 16-bit slots.  Counted once, the 100 would pick 8-bit ones, where -200
    # does not decode
    g = {(2,): {(0, 0): 100, (0, 1): -100}}
    assert hecke._letter_bound(A1, 1, {(2,): 100}) == {(0,): 200, (-2,): 100}
    want = {w: _unpack(c) for w, c in hecke._t(A1, 1, {w: _pack(c) for w, c in g.items()}).items()}
    assert want[(0,)] == {(0, 0): 100, (0, 1): -200, (0, 2): 100}
    k = hecke._slot(200)
    assert k == 16

    def one_letter(k):
        framed = {w: hecke._encode(c, k, 3, 0) for w, c in g.items()}
        image = hecke._framed_letter(A1, 1, framed, False, k, 3)
        return {w: hecke._decode(v, e, k, 3, 0) for w, (v, e) in image.items()}

    assert one_letter(k) == want
    assert one_letter(8) != want


@pytest.mark.parametrize("byteorder", ["little", "big"], ids=["word-path", "portable-path"])
@pytest.mark.parametrize("k", [8, 16, 32, 64, 128])
def test_frame_round_trip_at_every_slot(monkeypatch, byteorder, k):
    # 1-, 2-, 4- and 8-byte slots are machine words on a little-endian host; a big-endian one, and a
    # 16-byte slot, take the portable bytes path.  Both write the same integer and read the same terms,
    # up to the largest coefficient a k-bit slot holds
    monkeypatch.setattr(hecke.sys, "byteorder", byteorder)
    top = (1 << (k - 1)) - 1
    width, b0 = 3, -1
    terms = {(2, -1): top, (2, 1): -top, (3, 0): 1, (4, -1): -1, (4, 1): top, (5, 0): -top}
    v, e = hecke._encode(terms, k, width, b0)
    assert e == 2
    assert v == sum(c << k * ((a - e) * width + b - b0) for (a, b), c in terms.items())
    assert hecke._decode(v, e, k, width, b0) == terms
    assert hecke._decode(-v, e, k, width, b0) == {key: -c for key, c in terms.items()}


def test_right_side_past_the_window_is_false(monkeypatch):
    # Y^(1) 1 = t^2 in A1: the window of its one frame is the columns t^0..t^2.  Claiming t^3 puts the
    # right side one column past it, and the check says False before it frames the right side at all
    f = {(0,): {(0, 0): 1}}
    assert hecke._plan(A1, hecke._y_letters(A1, (1,)), 0, f, 1) == (8, 3, 0, 2)
    assert hecke._y_fixes(A1, (1,), f, 0, 2)
    compared = []
    real = hecke._stripped
    monkeypatch.setattr(hecke, "_stripped", lambda g, qk: compared.append(g) or real(g, qk))
    assert not hecke._y_fixes(A1, (1,), f, 0, 3)
    assert not compared


def test_zero_low_q_row_compares_equal(monkeypatch):
    # A1 E_(-1), cleared: f = (1 - t) e^1 + (1 - q t) e^-1, and Y^(1) f = q t^2 f.  The terms that reach
    # e^1 at q^-1 cancel, so the framed left side there has a zero lowest q-row, the row of q^-1, which
    # the comparison strips; compared unstripped, the equal polynomials would differ
    f = {(1,): {(0, 0): 1, (0, 1): -1}, (-1,): {(0, 0): 1, (1, 1): -1}}
    k, width, b0, stop = hecke._plan(A1, hecke._y_letters(A1, (1,)), 0, f, 1)
    compared = []
    real = hecke._stripped
    monkeypatch.setattr(hecke, "_stripped", lambda g, qk: compared.append(g) or real(g, qk))
    assert hecke._y_fixes(A1, (1,), f, 1, 2)
    (g,) = compared
    v, e = g[(1,)]
    assert e == -1 and v and not v & ((1 << k * width) - 1)
    assert real(g, k * width)[(1,)] == hecke._encode({(1, 2): 1, (1, 3): -1}, k, width, b0)
    monkeypatch.setattr(hecke, "_stripped", lambda g, qk: g)
    assert not hecke._y_fixes(A1, (1,), f, 1, 2)


def test_zero_test_with_the_empty_word():
    f = {(1,): {(0, 0): 3, (2, -1): -1}}
    assert hecke._y_fixes(A1, (0,), f, 0, 0)
    assert not any(hecke._y_fixes(A1, (0,), f, dq, dt) for dq, dt in [(1, 0), (0, 1), (0, -1), (-1, 2)])
    assert hecke._y_fixes(A1, (1,), {}, 5, 5)
    with pytest.raises(ValueError, match="wrong rank"):
        hecke._y_fixes(A1, (1, 0), f, 0, 0)


def _frame_map(terms, k, width):
    """The frame's value of a polynomial with exponents from (0, 0), for coefficients of any size."""
    return sum(c << k * (a * width + b) for (a, b), c in terms.items())


class TestFrameBounds:
    """Each bound of the plan is load-bearing: a residual it rules out maps to 0 in a frame one step narrower."""

    LETTERS = [(1, False), (0, False)]  # Y^(1) = T_0 T_1 in A1, first letter outermost

    def test_window(self, monkeypatch):
        # Y^(1) 1 = t^2 in A1.  Claiming q instead leaves the residual t^2 - q, which a window of 2 maps to 0;
        # the planned window is 3: the one t-exponent of f plus one per letter.
        f = {(0,): {(0, 0): 1}}
        assert hecke._y_fixes(A1, (1,), f, 0, 2)
        assert _frame_map({(0, 2): 1, (1, 0): -1}, 8, 2) == 0
        assert hecke._plan(A1, self.LETTERS, 0, f, 1) == (8, 3, 0, 2)
        assert not hecke._y_fixes(A1, (1,), f, 1, 0)
        real = hecke._plan
        monkeypatch.setattr(hecke, "_plan", lambda *args: (
            lambda k, width, b0, stop: (k, width - 1, b0, stop))(*real(*args)))
        assert hecke._y_fixes(A1, (1,), f, 1, 0)  # the planted fault accepts the wrong eigenvalue

    def test_slot(self, monkeypatch):
        # (t - 2^64) e^0 is an eigenvector of Y^(1) with eigenvalue t^2.  Claiming t leaves the residual
        # t (t - 1)(t - 2^64), which 64-bit slots map to 0 (t = 2^64); its coefficients need 128.
        f = {(0,): {(0, 1): 1, (0, 0): -2**64}}
        assert _frame_map({(0, 3): 1, (0, 2): -2**64 - 1, (0, 1): 2**64}, 64, 4) == 0
        assert hecke._plan(A1, self.LETTERS, 0, f, 2**64)[0] == 128
        assert hecke._y_fixes(A1, (1,), f, 0, 2)
        assert not hecke._y_fixes(A1, (1,), f, 0, 1)
        # a planted fault: each slot one step below the plan's (16 -> 8 bits for the carried kernel, whose
        # coefficients fit 8 bits and those of its image do not) lets the kernel pass as an eigenvector
        rs, mu, lam, g = _CARRIED
        dq, dt = expected_eigen_exponents(rs, lam, mu)
        assert not hecke._y_fixes(rs, mu, g, dq, dt)
        real = hecke._slot
        monkeypatch.setattr(hecke, "_slot", lambda bound: (lambda k: k // 2 if k <= 128 else k - 64)(real(bound)))
        assert hecke._y_fixes(rs, mu, g, dq, dt)


def _const(rs, c):
    return QTLaurent.mono(rs, rs.zero(), c)


def _reflected(rs, i, f):
    """s_i f, with the level-zero twist q^{<theta^vee, mu>} e^{s_theta mu} at i = 0."""
    out = QTLaurent.zero(rs)
    for mu, c in f.terms.items():
        if i == 0:
            s_theta_mu = tuple(a - rs.theta_pair(mu) * b for a, b in zip(mu, rs.theta()))
            out = out + QTLaurent.mono(rs, s_theta_mu, c * RatQT.monomial(1, rs.theta_pair(mu), 0))
        else:
            out = out + QTLaurent.mono(rs, rs.reflect(i, mu), c)
    return out


def _x_alpha(rs, i):
    if i == 0:
        return QTLaurent.mono(rs, tuple(-c for c in rs.theta()), RatQT.monomial(1, 1, 0))
    return QTLaurent.mono(rs, rs.simple_root(i))


@pytest.mark.parametrize("rational", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dl_op_defining_identity(rational, data):
    # (X^{alpha_i} - 1)(T_i f - t s_i f) = (t - 1)(s_i f - f), and T_i^{-1} T_i = 1
    rs, i, f = data.draw(hecke_inputs(rational))
    t, one = _const(rs, R_T), QTLaurent.one(rs)
    sf = _reflected(rs, i, f)
    lhs = (_x_alpha(rs, i) - one) * (dl_op(rs, i, f) - t * sf)
    assert lhs == (t - one) * (sf - f)
    assert dl_inv(rs, i, dl_op(rs, i, f)) == f


# the suites are not vacuous: a wrong T_i makes each of them fail, at a known first counterexample

def _t_dropped_term(real_t):
    def t_op(rs, i, f):
        """T_i without the k = 1 string term (1 - t) X^{-alpha_i} e^mu wherever <alpha_i^vee, mu> >= 2."""
        step_w, step_q = hecke._alpha_step(rs, i)
        dropped = {mu: c for mu, c in f.items() if hecke._pairing(rs, i, mu) >= 2}
        return hecke._comb((real_t(rs, i, f), 0, 0, 1, 0),
                           (hecke._shift(dropped, tuple(-a for a in step_w), -step_q), 0, 0, -1, 1))
    return t_op


class TestMutation:
    @pytest.fixture
    def mutated(self, monkeypatch):
        monkeypatch.setattr(hecke, "_t", _t_dropped_term(hecke._t))

    def test_relations_fail(self, mutated):
        report = verify_relations(A2, 1)
        assert not report.passed
        assert report.lines()[0] == "FAIL quadratic i=0 (9 monomials): counterexample e^(-1, -1)"
        assert "FAIL braid i=0 j=1 m=3: counterexample e^(1, 1)" in report.lines()
        assert "FAIL x-shift i=0 (2 weights): counterexample lam=(-1, 0) e^(-1, -1)" in report.lines()

    def test_demazure_fails(self, mutated):
        assert verify_demazure(A2, 2).lines() == [
            "FAIL classical (t=0) word independence (9 dominant weights): "
            "words (1, 2, 1) vs (2, 1, 2) differ at lam=(0, 2)",
            "FAIL defect-corrected word comparison (parabolic character): "
            "braid defect identity fails for (1,2) at e^(-2, -2)",
            "FAIL D_i^2 = (1+t) D_i on the box: i=1 at e^(-2, -2)",
        ]

    def test_symmetrizer_fails(self, mutated):
        lines = verify_symmetrizer(A2, 1).lines()
        assert lines[0] == "FAIL T_i P = P T_i = t P (9 monomials): T_1 P at e^(-1, -1)"
        assert lines[3] == "FAIL commutes with multiplication by m_mu: m_(0, 1) does not commute at e^(-1, -1)"

    def test_p_t_i_half_fails(self, monkeypatch):
        # s_2 fixes (-1, 0), so T_2 e^(-1,0) = t e^(-1,0); a fault in P of that input alone breaks
        # P T_2 there and leaves every T_i P (P of the monomials) intact
        real, target = hecke._sym, {(-1, 0): {1: 1}}
        assert hecke._t(A2, 2, hecke._mono((-1, 0))) == target
        monkeypatch.setattr(hecke, "_sym",
                            lambda rs, f: {**real(rs, f), (5, 5): {0: 1}} if f == target else real(rs, f))
        assert verify_symmetrizer(A2, 1).lines()[0] == "FAIL T_i P = P T_i = t P (9 monomials): P T_2 at e^(-1, 0)"

    def test_m_mu_commutation_covers_every_dominant_weight(self, monkeypatch):
        # (2, 2) is the last of the nine dominant weights of the A2 box 2; a duplicated orbit
        # weight breaks m_(2,2) alone, so the check fails only if it reaches every dominant weight
        rs = RootSystem("A2")
        real = rs.orbit
        monkeypatch.setattr(rs, "orbit", lambda lam: [*real(lam), lam] if lam == (2, 2) else real(lam))
        assert verify_symmetrizer(rs, 2).lines()[-1] == (
            "FAIL commutes with multiplication by m_mu: m_(2, 2) does not commute at e^(-2, -2)")

    def test_unmutated_suites_pass(self):
        assert verify_relations(A2, 1).passed
        assert verify_demazure(A2, 2).passed
        assert verify_symmetrizer(A2, 1).passed


def _listed_first_failure(rs, bound):
    """The oracle of the word check: every reduced word of every element, as rs.reduced_words lists
    them, applied to e^lam by _dword and sliced at q^0 t^0 at the end.  The first (element, lam),
    elements outside, at which two words differ; None if there is none."""
    doms = [lam for lam in weight_box([bound] * rs.rank) if rs.is_dominant(lam)]
    for elt in rs.weyl_elements():
        words = rs.reduced_words(elt)
        for lam in doms:
            slices = [{w: v for w, c in hecke._dword(rs, word, hecke._mono(lam)).items() if (v := c.get(0))}
                      for word in words]
            if any(s != slices[0] for s in slices):
                return elt, lam
    return None


def _reported_first_failure(rs, bound):
    """The (element, lam) of verify_demazure's word check failure, read off its two words; None if it passes."""
    _, ok, detail = verify_demazure(rs, bound).checks[0]
    if ok:
        return None
    first, other, lam = map(ast.literal_eval, re.fullmatch(r"words (.*) vs (.*) differ at lam=(.*)", detail).groups())
    assert first != other and rs.element_of_word(first) == rs.element_of_word(other)
    assert rs.length(first) == len(first) == len(other)
    return rs.element_of_word(first), lam


@pytest.mark.parametrize("mutated", [False, True], ids=["exact", "dropped-term"])
@pytest.mark.parametrize("name, bound", [("A1xA1", 3), ("A2", 3), ("B2", 3), ("C2", 3), ("A3", 1), ("A4", 0)])
def test_word_check_matches_word_listing(monkeypatch, name, bound, mutated):
    # the check by induction on length finds what a listing of every reduced word finds, first
    # failure included.  The dropped term fails the words somewhere except in A1xA1, whose words
    # are unique up to commuting letters, and at lam = 0, where no pairing reaches 2
    rs = root_system(name)
    if mutated:
        monkeypatch.setattr(hecke, "_t", _t_dropped_term(hecke._t))
    listed = _listed_first_failure(rs, bound)
    assert _reported_first_failure(rs, bound) == listed
    assert (listed is None) == (not mutated or name in ("A1xA1", "A4"))


# the largest bound each suite admits: the Hecke suites apply the affine indices, the symmetrizer
# and Demazure suites the finite ones
@pytest.mark.parametrize("name, affine, finite", [
    ("A1", 232, 292), ("A1xA1", 49, 49), ("A2", 41, 49), ("B2", 41, 49), ("C2", 41, 49), ("A3", 15, 17),
])
def test_suite_box_refuses_long_strings(name, affine, finite):
    # the closed form agrees with the sum of <alpha_i^vee, mu>^2 over the box and the indices on
    # both sides of the largest admitted bound
    rs = root_system(name)
    for indices, bound in ((hecke._affine_indices(rs), affine), (range(1, rs.rank + 1), finite)):
        def squares(b):
            return sum(hecke._pairing(rs, i, mu) ** 2 for mu in weight_box([b] * rs.rank) for i in indices)

        assert squares(bound) <= hecke.MAX_BOX < squares(bound + 1)
        assert hecke._suite_box(rs, bound, indices) == weight_box([bound] * rs.rank)
        with pytest.raises(ValueError, match=f"a check of {squares(bound + 1)} alpha_i-string shifts"):
            hecke._suite_box(rs, bound + 1, indices)


@pytest.mark.parametrize("suite, bound", [
    (verify_relations, 233), (verify_symmetrizer, 293), (verify_demazure, 293),
])
def test_suites_refuse_long_strings(monkeypatch, suite, bound):
    # refused before any operator runs
    monkeypatch.setattr(hecke, "_t", None)
    with pytest.raises(ValueError, match="alpha_i-string shifts"):
        suite(A1, bound)


class TestFirstFailure:
    def test_stops_after_first_failure(self):
        drawn = []
        report = RelationReport("t")
        report.first_failure("check", (f"bad {k}" for k in range(10) if drawn.append(k) or k >= 2))
        assert drawn == [0, 1, 2]
        assert report.lines() == ["FAIL check: bad 2"]

    def test_pass_draws_everything(self):
        drawn = []
        report = RelationReport("t")
        report.first_failure("check", (k for k in range(3) if drawn.append(k)))
        assert drawn == [0, 1, 2]
        assert report.passed
        assert report.lines() == ["PASS check"]
