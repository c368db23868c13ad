"""Nonsymmetric Macdonald polynomials as triangular eigenvectors of Y-operators.

E_lam is the unique element with unitriangular expansion

    E_lam = e^lam + sum over mu strictly below lam (Cherednik order)

that is an eigenvector of Y^{mu*} for a fixed strictly dominant coroot vector
mu*.  The triangular eigenproblem is solved exactly by back-substitution over
Q(q, t); intermediate values keep their denominators in factored form so the
only gcd work is exact-division tests against small binomial factors.

Also here: the eigenvalue-exponent check, symmetric P_lam via the Cherednik
symmetrizer, monomial expansion, and a classical Demazure-operator Weyl
character used as an independent specialization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qt import ONE_P, QTPoly, R_ONE, R_ZERO, RatQT, div_exact
from .polyring import QTLaurent, orbit_sum
from .roots import LESS, EQUAL, RootSystem, Weight, CorootVec, root_system
from .hecke import strictly_dominant_coroot, symmetrizer, y_op


class DegenerateSpectrumError(RuntimeError):
    """Two comparable weights produced identical Y-eigenvalues."""


class OrderViolationError(RuntimeError):
    """Y-operator image escaped the lower set: ordering or operator bug."""


@dataclass
class EigenResult:
    e_poly: QTLaurent
    eigenvalue: RatQT
    basis: list[Weight]
    conjectural: bool  # non-dominant weights sit outside the proved dominant case
    # denominator-cleared companion: cleared = clearing * e_poly with polynomial
    # coefficients; operator identities are checked on this form, where the
    # Hecke action never needs a gcd
    cleared: QTLaurent = None
    clearing: QTPoly = None
    mu_used: CorootVec = None  # which Y-operator pinned the solve


# ---------------------------------------------------------------------------
# factored rational values for the back-substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[tuple[int, int], ...]:
    """Cyclotomic polynomial Phi_n as sorted (degree, coefficient) pairs."""
    poly = {n: 1, 0: -1}  # x^n - 1
    for d in range(1, n):
        if n % d:
            continue
        phi_d = dict(_cyclotomic(d))
        # exact univariate division poly /= phi_d
        out: dict[int, int] = {}
        rem = dict(poly)
        dd = max(phi_d)
        lead = phi_d[dd]
        while rem:
            top = max(rem)
            c = rem[top] // lead
            out[top - dd] = c
            for k, v in phi_d.items():
                s = rem.get(k + top - dd, 0) - c * v
                if s:
                    rem[k + top - dd] = s
                else:
                    rem.pop(k + top - dd, None)
        poly = out
    return tuple(sorted(poly.items()))


def _split_gap(p: QTPoly) -> tuple[int, int, int, list[QTPoly]]:
    """Factor a two-term polynomial as unit * product of irreducible factors.

    Writes p = c1 m1 + c2 m2 = unit * prod of cyclotomics evaluated at the
    primitive monomial of m2/m1, each normalized canonically (no monomial
    content, lexicographically least term positive).  The unit is returned as
    (sign, shift_q, shift_t) and the decomposition is verified by exact
    division.
    """
    assert len(p.terms) == 2, "eigenvalue gap is not a binomial"
    (k1, c1), (k2, c2) = sorted(p.terms.items())
    assert abs(c1) == 1 and abs(c2) == 1, "gap with non-unit coefficients"
    from math import gcd as _g

    dq, dt = k2[0] - k1[0], k2[1] - k1[1]
    g = _g(abs(dq), abs(dt))
    za, zb = dq // g, dt // g
    if (c1 > 0) != (c2 > 0):
        divisors = [d for d in range(1, g + 1) if g % d == 0]
    else:
        divisors = [d for d in range(1, 2 * g + 1) if (2 * g) % d == 0 and g % d != 0]
    factors = []
    for d in divisors:
        f = _subst_monomial(_cyclotomic(d), za, zb)
        mq, mt = f.min_exps()
        if mq or mt:
            f = f.shift(-mq, -mt)
        if f.terms[min(f.terms)] < 0:
            f = f.scale(-1)
        factors.append(f)
    rest = p
    for f in factors:
        rest = div_exact(rest, f)
        assert rest is not None, "binomial factorization failed"
    assert rest.is_monomial(), "binomial factorization left a non-unit"
    (uq, ut), uc = next(iter(rest.terms.items()))
    assert abs(uc) == 1
    return uc, uq, ut, factors


def _subst_monomial(phi: tuple[tuple[int, int], ...], za: int, zb: int) -> QTPoly:
    return QTPoly({(k * za, k * zb): c for k, c in phi})


def _ieval(p: QTPoly) -> int:
    """Exact integer value at (q, t) = (2, 3); negative exponents are cleared first."""
    mq, mt = p.min_exps()
    total = 0
    for (a, b), c in p.terms.items():
        total += c * (2 ** (a - mq)) * (3 ** (b - mt))
    return total


class _FactoredRat:
    """num / prod(factor^mult) with irreducible canonical factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: QTPoly, den: dict[QTPoly, int] | None = None):
        self.num = num
        self.den = den or {}

    @classmethod
    def from_poly(cls, p: QTPoly) -> "_FactoredRat":
        return cls(p)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def mul_poly(self, p: QTPoly) -> "_FactoredRat":
        return _FactoredRat(self.num * p, dict(self.den)).reduced()

    def div_gap(self, p: QTPoly) -> "_FactoredRat":
        """Divide by a two-term gap polynomial, splitting it into irreducibles."""
        sign, uq, ut, factors = _split_gap(p)
        num = self.num.shift(-uq, -ut)
        if sign < 0:
            num = num.scale(-1)
        den = dict(self.den)
        for f in factors:
            den[f] = den.get(f, 0) + 1
        return _FactoredRat(num, den).reduced()

    def add(self, other: "_FactoredRat") -> "_FactoredRat":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        factors = set(self.den) | set(other.den)
        n1, n2 = self.num, other.num
        den: dict[QTPoly, int] = {}
        for f in factors:
            m = max(self.den.get(f, 0), other.den.get(f, 0))
            den[f] = m
            d1 = m - self.den.get(f, 0)
            d2 = m - other.den.get(f, 0)
            for _ in range(d1):
                n1 = n1 * f
            for _ in range(d2):
                n2 = n2 * f
        return _FactoredRat(n1 + n2, den).reduced()

    def reduced(self) -> "_FactoredRat":
        num = self.num
        if num.is_zero():
            return _FactoredRat(num)
        den = {}
        ne = _ieval(num)
        for f, m in self.den.items():
            fe = _ieval(f)
            while m > 0:
                if fe not in (0, 1, -1) and ne % fe:
                    break
                q = div_exact(num, f)
                if q is None:
                    break
                num = q
                ne = _ieval(num)
                m -= 1
            if m:
                den[f] = m
        return _FactoredRat(num, den)

    def to_ratqt(self) -> RatQT:
        """Convert; factors are irreducible and already divided out, so the
        fraction is reduced and only needs the canonical assembly."""
        if self.num.is_zero():
            return RatQT.from_int(0)
        den = ONE_P
        for f, m in self.den.items():
            for _ in range(m):
                den = den * f
        num = self.num
        mq, mt = den.min_exps()
        if mq or mt:
            den = den.shift(-mq, -mt)
            num = num.shift(-mq, -mt)
        if den.terms[min(den.terms)] < 0:
            den = den.scale(-1)
            num = num.scale(-1)
        return RatQT(num, den, _reduced=True)


# ---------------------------------------------------------------------------
# the eigensolver
# ---------------------------------------------------------------------------

def mu_star(rs: RootSystem) -> CorootVec:
    return strictly_dominant_coroot(rs)


def mu_candidates(rs: RootSystem, tries: int = 7):
    """The default strictly dominant coroot vector, then asymmetric alternates.

    A single Y-operator can have colliding eigenvalue monomials on a lower
    set when the type has a diagram symmetry fixing mu* (the joint spectrum
    still separates).  The alternates break the symmetry while staying
    strictly dominant: (j+1) mu* + j sum_i i alpha_i^vee.
    """
    base = strictly_dominant_coroot(rs)
    yield base
    skew = tuple(i + 1 for i in range(rs.rank))
    for j in range(1, tries):
        cand = tuple((j + 1) * b + j * s for b, s in zip(base, skew))
        if all(rs.coroot_pair(cand, rs.simple_root(i + 1)) >= 1 for i in range(rs.rank)):
            yield cand


def y_matrix(rs: RootSystem, lam: Weight, mu: CorootVec | None = None) -> tuple[list[Weight], list[list[RatQT]]]:
    """Matrix of Y^mu on the span of the lower set of lam (columns = images)."""
    basis = rs.lower_set(lam)
    index = {w: k for k, w in enumerate(basis)}
    mstar = mu_star(rs) if mu is None else mu
    n = len(basis)
    mat = [[R_ZERO] * n for _ in range(n)]
    for j, nu in enumerate(basis):
        img = y_op(rs, mstar, QTLaurent.mono(rs, nu))
        for w, c in img.terms.items():
            i = index.get(w)
            if i is None:
                raise OrderViolationError(
                    f"Y e^{nu} has weight {w} outside the lower set of {lam}"
                )
            cmp = rs.cherednik_cmp(w, nu)
            if cmp not in (LESS, EQUAL):
                raise OrderViolationError(
                    f"Y e^{nu} has weight {w} not below {nu} in the order"
                )
            mat[i][j] = c
    return basis, mat


def nonsym_e(rs: RootSystem, lam: Weight) -> EigenResult:
    """Nonsymmetric Macdonald polynomial with leading weight lam.

    Solved from the triangular matrix of a Y-operator on the lower set.  If
    the default operator has a repeated eigenvalue on the set, the solve
    falls back to the deterministic asymmetric alternates of mu_candidates
    (recorded in the result); the degenerate-spectrum error is raised only
    when every candidate collides.
    """
    lam = tuple(lam)
    return _nonsym_e_cached(rs.name, lam)


@lru_cache(maxsize=None)
def _nonsym_e_cached(rs_name: str, lam: Weight) -> EigenResult:
    rs = root_system(rs_name)
    chosen = None
    for mu in mu_candidates(rs):
        basis, mat = y_matrix(rs, lam, mu)
        n = len(basis)
        y = mat[n - 1][n - 1]
        if all(mat[k][k] != y for k in range(n - 1)):
            chosen = mu
            break
    if chosen is None:
        raise DegenerateSpectrumError(
            f"all Y-candidates have colliding eigenvalues on the lower set of {lam}"
        )
    coeffs: list[_FactoredRat | None] = [None] * n
    coeffs[n - 1] = _FactoredRat.from_poly(ONE_P)
    for i in range(n - 2, -1, -1):
        s = _FactoredRat.from_poly(QTPoly())
        for j in range(i + 1, n):
            mij = mat[i][j]
            if mij.is_zero() or coeffs[j].is_zero():
                continue
            assert mij.is_polynomial()
            s = s.add(coeffs[j].mul_poly(mij.num))
        if s.is_zero():
            coeffs[i] = s
            continue
        gap = y - mat[i][i]
        assert gap.is_polynomial()
        coeffs[i] = s.div_gap(gap.num)
    terms = {basis[i]: coeffs[i].to_ratqt() for i in range(n)}
    e = QTLaurent(rs, terms)
    # clear denominators without any gcd: the factors are already known
    universe: dict[QTPoly, int] = {}
    for c in coeffs:
        for f, m in c.den.items():
            universe[f] = max(universe.get(f, 0), m)
    clearing = ONE_P
    for f, m in universe.items():
        for _ in range(m):
            clearing = clearing * f
    cleared_terms = {}
    for i in range(n):
        num = coeffs[i].num
        if num.is_zero():
            continue
        for f, m in universe.items():
            for _ in range(m - coeffs[i].den.get(f, 0)):
                num = num * f
        cleared_terms[basis[i]] = RatQT(num, ONE_P, _reduced=True)
    cleared = QTLaurent(rs, cleared_terms)
    # exactness: the operator residual must vanish identically (checked on the
    # polynomial form, which exercises the same Hecke word)
    resid = y_op(rs, chosen, cleared) - cleared.scale(y)
    if not resid.is_zero():
        raise AssertionError("eigen residual is nonzero")
    default = mu_star(rs)
    eigenvalue = y
    if chosen != default:
        # report the default operator's eigenvalue: E is a joint eigenvector,
        # so read it off and verify by applying the operator
        q_exp, t_exp = expected_eigen_exponents(rs, lam, default)
        eigenvalue = RatQT.monomial(1, q_exp, t_exp)
        if y_op(rs, default, cleared) != cleared.scale(eigenvalue):
            raise AssertionError("joint eigenvector fails for the default operator")
    return EigenResult(
        e_poly=e,
        eigenvalue=eigenvalue,
        basis=basis,
        conjectural=not rs.is_dominant(lam),
        cleared=cleared,
        clearing=clearing,
        mu_used=chosen,
    )


# ---------------------------------------------------------------------------
# eigenvalue exponent check
# ---------------------------------------------------------------------------

@dataclass
class EigenCheck:
    ok: bool
    q_exp: int
    t_exp: int
    detail: str = ""


def expected_eigen_exponents(rs: RootSystem, lam: Weight, mu: CorootVec) -> tuple[int, int]:
    """(q-exponent, t-exponent) predicted for Y^mu on E_lam.

    q-exponent is -<mu, lam>; the t-exponent is
    (len(t_mu) + <u_lam^{-1}(2 rho), mu>) / 2 with u_lam the minimal element
    making lam antidominant.
    """
    q_exp = -rs.coroot_pair(mu, lam)
    length = sum(rs.coroot_pair(mu, wc) for _, wc in rs.positive_roots())
    _, u = rs.antidominant(lam)
    u_inv = tuple(reversed(u))
    shifted = rs.apply_word(u_inv, rs.two_rho())
    t_num = length + rs.coroot_pair(mu, shifted)
    if t_num % 2:
        raise AssertionError(f"half-integral t-exponent for lam={lam}, mu={mu}")
    return q_exp, t_num // 2


def eigen_check(rs: RootSystem, lam: Weight, mu: CorootVec, result: EigenResult | None = None) -> EigenCheck:
    """Verify Y^mu E_lam = q^{-<mu,lam>} t^{(l(t_mu)+<u^{-1}(2rho),mu>)/2} E_lam exactly.

    Scaling by the clearing polynomial commutes with Y, so the identity is
    checked on the denominator-free companion form.
    """
    if result is None:
        result = nonsym_e(rs, lam)
    try:
        q_exp, t_exp = expected_eigen_exponents(rs, lam, mu)
    except AssertionError as exc:
        return EigenCheck(False, 0, 0, str(exc))
    if t_exp < 0:
        return EigenCheck(False, q_exp, t_exp, "negative t-exponent")
    scalar = RatQT.monomial(1, q_exp, t_exp)
    f = result.cleared if result.cleared is not None else result.e_poly
    lhs = y_op(rs, mu, f)
    if lhs != f.scale(scalar):
        return EigenCheck(False, q_exp, t_exp, "operator image is not the predicted multiple")
    return EigenCheck(True, q_exp, t_exp)


# ---------------------------------------------------------------------------
# symmetric polynomials
# ---------------------------------------------------------------------------

def sym_p(rs: RootSystem, lam: Weight) -> QTLaurent:
    """Symmetric Macdonald polynomial: symmetrize E_lam, normalize the e^lam coefficient."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    r = nonsym_e(rs, lam)
    f = symmetrizer(rs, r.cleared if r.cleared is not None else r.e_poly)
    lead = f.coeff(lam)
    if lead.is_zero():
        raise AssertionError("symmetrization lost the leading weight")
    f = f.scale(lead.inverse())
    if not f.is_w_invariant():
        raise AssertionError("symmetrizer output is not W-invariant")
    return f


def monomial_expand(f: QTLaurent) -> list[tuple[Weight, RatQT]]:
    """Expansion of a W-invariant element in the orbit-sum basis."""
    rs = f.rs
    if not f.is_w_invariant():
        raise ValueError("element is not W-invariant")
    out = []
    rem = f
    while not rem.is_zero():
        doms = [w for w in rem.support() if rs.is_dominant(w)]
        if not doms:
            raise AssertionError("W-invariant element with no dominant support weight")
        top = max(doms)
        for w in doms:
            if w != top and not rs.dominance_leq(w, top):
                # prefer a dominance-maximal weight
                if all(not rs.dominance_leq(v, w) or v == w for v in doms):
                    top = w
        c = rem.coeff(top)
        out.append((top, c))
        rem = rem - orbit_sum(rs, top).scale(c)
    out.sort(key=lambda p: p[0])
    return out


def classical_demazure(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """The t = 0 Demazure operator: e^mu -> (e^mu - e^{s_i mu - alpha_i})/(1 - e^{-alpha_i})."""
    alpha = rs.simple_root(i)
    out = QTLaurent.zero(rs)
    for mu, c in f.terms.items():
        m = mu[i - 1]
        if m >= 0:
            add = {
                tuple(a - k * b for a, b in zip(mu, alpha)): c for k in range(m + 1)
            }
        elif m == -1:
            add = {}
        else:
            add = {
                tuple(a + k * b for a, b in zip(mu, alpha)): -c for k in range(1, -m)
            }
        out = out + QTLaurent(rs, add)
    return out


def weyl_character(rs: RootSystem, lam: Weight) -> QTLaurent:
    """Character of the irreducible with highest weight lam (Demazure formula)."""
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    f = QTLaurent.mono(rs, lam)
    for i in reversed(rs.longest_word()):
        f = classical_demazure(rs, i, f)
    return f


def a1_integral_scalar(k: int) -> RatQT:
    """prod_{j=1..k} (1 - t q^j), the scalar relating E_{-k omega} to its module form."""
    out = ONE_P
    for j in range(1, k + 1):
        out = out * QTPoly({(0, 0): 1, (j, 1): -1})
    return RatQT(out)
