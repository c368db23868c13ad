"""P_lam at q = 0 against the Hall-Littlewood formula, an oracle built from the root system alone.

At q = 0 the symmetric Macdonald polynomial is the Hall-Littlewood polynomial

    P_lam(x; 0, t) = (1 / W_lam(t)) sum_{w in W} w(x^lam prod_{alpha > 0} (1 - t x^-alpha) / (1 - x^-alpha)),

W_lam(t) the Poincare polynomial of the stabilizer of lam (Macdonald, Symmetric Functions and
Hall Polynomials, ch. III; Macdonald, Spherical functions on a group of p-adic type, 1971).
Multiplied out by the Weyl denominator a_rho = sum_w eps(w) x^(w rho), which is x^rho times
prod_{alpha > 0} (1 - x^-alpha), it is the polynomial identity

    a_rho W_lam(t) P_lam(x; 0, t) = sum_{w in W} eps(w) w(x^(lam + rho) prod_{alpha > 0} (1 - t x^-alpha)).

The right side, a_rho and W_lam(t) come from daha.roots only (the positive roots, the Weyl group
and the simple reflections); the left side's P_lam is sym_p's answer at q = 0.  Coefficients in t
are sympy rational functions.
"""

from itertools import product

import pytest

from daha.macdonald import sym_p
from daha.roots import root_system

sympy = pytest.importorskip("sympy")
q, t = sympy.symbols("q t")


def _dominant(rank, top):
    return list(product(range(top + 1), repeat=rank))


# the rank-one and rank-two weights of the benchmark's p-table
P_TABLE_WEIGHTS = (
    [("A1", (k,)) for k in range(7)]
    + [("A2", w) for w in _dominant(2, 3) if w != (3, 3)]
    + [("B2", w) for w in _dominant(2, 3) if sum(w) <= 3 and w != (3, 0)]
    + [("C2", w) for w in _dominant(2, 3) if sum(w) <= 3 and w != (0, 3)]
)


def _elements(rs):
    """(sign, the map mu -> w mu) for each w in W, from one reduced word per element."""
    def act(word):
        def w_of(mu):
            for i in reversed(word):
                mu = rs.reflect(i, mu)
            return mu
        return w_of

    return [((-1) ** len(word), act(word)) for word in rs.weyl_elements().values()]


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _stabilizer_poincare(rs, lam):
    """W_lam(t) = sum of t^l(w) over the w in W with w lam = lam."""
    return sum(t ** len(word) for word in rs.weyl_elements().values()
               if rs.apply_word(word, lam) == lam)


def _right_side(rs, lam):
    """sum_w eps(w) w(x^(lam + rho) prod_{alpha > 0} (1 - t x^-alpha)) as {weight: polynomial in t}."""
    f = {_add(lam, rs.rho): sympy.Integer(1)}
    for _, alpha in rs.positive_roots():
        g = dict(f)
        for mu, c in f.items():
            nu = tuple(m - a for m, a in zip(mu, alpha))
            g[nu] = g.get(nu, 0) - t * c
        f = g
    out = {}
    for sign, w in _elements(rs):
        for mu, c in f.items():
            nu = w(mu)
            out[nu] = out.get(nu, 0) + sign * c
    return out


def _ratqt(c):
    """A RatQT as a sympy expression in q and t."""
    def expr(p):
        return sum(k * q ** a * t ** b for (a, b), k in p.terms.items())
    return expr(c.num) / expr(c.den)


def _at_q_zero(p):
    """{weight: P_lam coefficient at q = 0} for a QTLaurent p."""
    return {w: sympy.cancel(_ratqt(c).subs(q, 0)) for w, c in p.terms.items()}


def _left_side(rs, lam, p0):
    """a_rho W_lam(t) p0 as {weight: rational function in t}."""
    scale = _stabilizer_poincare(rs, lam)
    out = {}
    for sign, w in _elements(rs):
        shift = w(rs.rho)
        for mu, c in p0.items():
            nu = _add(mu, shift)
            out[nu] = out.get(nu, 0) + sign * scale * c
    return out


def _identity_holds(rs, lam, p0):
    lhs, rhs = _left_side(rs, lam, p0), _right_side(rs, lam)
    return all(sympy.cancel(lhs.get(w, 0) - rhs.get(w, 0)) == 0 for w in lhs.keys() | rhs.keys())


@pytest.mark.parametrize("name, lam", P_TABLE_WEIGHTS, ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_sym_p_at_q_zero_is_hall_littlewood(name, lam):
    rs = root_system(name)
    assert _identity_holds(rs, lam, _at_q_zero(sym_p(rs, lam)))


@pytest.mark.parametrize("name, lam", [("A1", (4,)), ("A2", (2, 1)), ("B2", (1, 1)), ("C2", (2, 1))])
def test_wrong_t_power_on_one_orbit_is_rejected(name, lam):
    # multiply the coefficients of one orbit other than lam's by t: still W-invariant, but the
    # identity fails
    rs = root_system(name)
    p0 = _at_q_zero(sym_p(rs, lam))
    assert _identity_holds(rs, lam, p0)
    mu = min(w for w, c in p0.items() if rs.is_dominant(w) and w != lam and c != 0)
    orbit = rs.orbit(mu)
    bad = {w: c * t if w in orbit else c for w, c in p0.items()}
    assert not _identity_holds(rs, lam, bad)
