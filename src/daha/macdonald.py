"""Nonsymmetric Macdonald polynomials built by intertwiners.

E_lam is the unique element e^lam + (terms strictly below lam in the
Cherednik order) that is an eigenvector of one Y-operator Y^mu, mu strictly
dominant.  mu is the first mu_candidates entry whose eigenvalue-exponent
formula gives lam an eigenvalue no other weight of the lower set shares; the
exact residual check of every result runs on it.

Every E_lam is built from a monomial by intertwiners (Cherednik,
Nonsymmetric Macdonald polynomials, IMRN 1995; Macdonald, Affine Hecke
Algebras and Orthogonal Polynomials, ch. 5): a dominant lam by one affine
step from a lower dominant E, down to e^0 or a minuscule e^omega (_solve),
any other lam from its dominant seed by finite steps (_climb, _walk).  No
linear system is solved; y_matrix serves independent checks only.

Every coefficient is one pair (num, den): a QTPoly over {irreducible
canonical factor: multiplicity}.  Each gap an intertwiner divides by is a
difference of two monomials, whose cyclotomic factors _add_gap adds to den;
each coefficient is reduced once by exact division with those factors, so no
gcd is computed.  The numerator is packed once, straight from the kernel, and
divided by every factor in that one frame (_reduced_packed).  The residual
check Y^mu E = q^A t^B E of every result is hecke._y_fixes, an exact zero
test on one big integer per weight.

Also here: the eigenvalue-exponent check, symmetric P_lam via the Cherednik
symmetrizer, monomial expansion, and a classical Demazure-operator Weyl
character used as an independent specialization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Mapping

from .qt import ONE_P, QTPoly, RatQT, ZERO_P, _canon_unit, _div_packed, div_exact
from .polyring import _HALF, _Q, Kernel, QTLaurent, _kernel, _pack, _unpack
from .roots import LESS, EQUAL, RootSystem, Weight, CorootVec, root_system
from .hecke import _comb, _mono, _shift, _t, _word, _y, _y_fixes, strictly_dominant_coroot, symmetrizer


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
    cleared: QTLaurent
    clearing: QTPoly
    mu_used: CorootVec  # which Y-operator pinned the solve


# ---------------------------------------------------------------------------
# coefficients as (num, den): a QTPoly over {irreducible canonical factor: multiplicity}
# ---------------------------------------------------------------------------

_Frac = tuple[QTPoly, dict[QTPoly, int]]  # num / prod(f^m for f, m in den.items())


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[tuple[int, int], ...]:
    """Cyclotomic polynomial Phi_n as sorted (degree, coefficient) pairs: x^n - 1 over prod_{d | n, d < n} Phi_d."""
    poly = QTPoly({(n, 0): 1, (0, 0): -1})
    for d in range(1, n):
        if n % d == 0:
            poly = div_exact(poly, QTPoly({(k, 0): c for k, c in _cyclotomic(d)}))
    return tuple(sorted((k, c) for (k, _), c in poly.terms.items()))


def _add_gap(den: dict[QTPoly, int], p: QTPoly) -> tuple[int, int, int]:
    """Add the irreducible factors of a gap p to den, in place; return the unit (sign, shift_q, shift_t)
    that a numerator over den is divided by.

    Every gap is y - m_ii or 1 - q^-a t^(1-b), so p = m1 - m2 up to sign.
    Writes p = sign q^shift_q t^shift_t * prod over d | g of the cyclotomic
    Phi_d evaluated at the primitive monomial z of m2/m1 = z^g, each
    normalized canonically (no monomial content, lexicographically least
    term positive).  The decomposition is verified by exact division.
    """
    assert len(p.terms) == 2, "eigenvalue gap is not a binomial"
    (k1, c1), (k2, c2) = sorted(p.terms.items())
    assert c1 * c2 == -1, "gap is not a difference of two monomials"
    dq, dt = k2[0] - k1[0], k2[1] - k1[1]
    g = gcd(abs(dq), abs(dt))
    za, zb = dq // g, dt // g
    rest = p
    for d in range(1, g + 1):
        if g % d == 0:
            f = _canon_unit(QTPoly({(k * za, k * zb): c for k, c in _cyclotomic(d)}))
            rest = div_exact(rest, f)
            assert rest is not None, "binomial factorization failed"
            den[f] = den.get(f, 0) + 1
    assert rest.is_monomial(), "binomial factorization left a non-unit"
    (uq, ut), uc = next(iter(rest.terms.items()))
    assert abs(uc) == 1
    return uc, uq, ut


def _ieval(p: QTPoly) -> int:
    """Exact integer value at (q, t) = (2, 3); negative exponents are cleared first."""
    mq, mt = p.min_exps()
    total = 0
    for (a, b), c in p.terms.items():
        total += c * (2 ** (a - mq)) * (3 ** (b - mt))
    return total


def _reduced(num: QTPoly, den: dict[QTPoly, int]) -> _Frac:
    """num / prod(den) in lowest terms (_reduced_packed)."""
    return _reduced_packed(_pack(num.terms), _factor_data(den))


def _factor_data(den: dict[QTPoly, int]) -> list[tuple[QTPoly, int, int, int, int]]:
    """(f, multiplicity, value of f at (2, 3), q-span, t-span) for each factor f of den: canonical, so
    with minima (0, 0), and its maxima are its spans."""
    return [(f, m, _ieval(f), *f.max_exps()) for f, m in den.items()]


def _reduced_packed(c: Mapping[int, int], factors: list[tuple[QTPoly, int, int, int, int]]) -> _Frac:
    """c / prod(den) in lowest terms, for c packed as {a * 2^64 + b: int} (a kernel coefficient) and
    den listed by _factor_data: divide out each factor of den that divides c.

    c is packed once, relative to its componentwise minima, as dq * width + dt with width its t-span
    plus one, and every division runs there (qt._div_packed).  A canonical factor has minima
    (0, 0), so a quotient keeps the frame's origin; its spans are the dividend's less the
    factor's, and the width stays above its t-span.  A factor is tried only if its value at
    (2, 3) divides c's there, with exponents taken from the minima, so most failing divisions are
    skipped; that value is multiplicative, so a quotient's is c's divided by the factor's."""
    if not c:
        return ZERO_P, {}
    ts = [((k + _HALF) & (_Q - 1)) - _HALF for k in c]
    lt, ht = min(ts), max(ts)
    aq = (min(c) + _HALF) >> 64  # keys are in lex order on (a, b)
    sq, st = ((max(c) + _HALF) >> 64) - aq, ht - lt
    width = st + 1
    origin = aq * _Q + lt
    rem = {((k - origin) >> 64) * width + b - lt: v for (k, v), b in zip(c.items(), ts)}
    ne = None
    out = {}
    for f, m, fe, fq, ft in factors:
        while m > 0 and fq <= sq and ft <= st:
            if fe not in (0, 1, -1):
                if ne is None:
                    p3 = [3 ** j for j in range(width)]
                    ne = sum((v * p3[k % width]) << k // width for k, v in rem.items())
                if ne % fe:
                    break
            q = _div_packed(dict(rem), width, st - ft, f.terms)  # a copy: the division consumes it
            if q is None:
                break
            rem, sq, st = q, sq - fq, st - ft
            ne = ne // fe if fe and ne is not None else None
            m -= 1
        if m:
            out[f] = m
    return QTPoly({(aq + k // width, lt + k % width): v for k, v in rem.items()}), out


def _over_common_den(coeffs) -> tuple[dict[QTPoly, int], list[QTPoly]]:
    """(den, nums) with coeffs[k] = nums[k] / prod(den), den taking each factor's largest multiplicity."""
    den: dict[QTPoly, int] = {}
    for _, part in coeffs:
        for f, m in part.items():
            den[f] = max(den.get(f, 0), m)
    return den, [ZERO_P if num.is_zero() else num * _cofactor(den, part) for num, part in coeffs]


def _cofactor(den: dict[QTPoly, int], part: dict[QTPoly, int]) -> QTPoly:
    """prod f^(den[f] - part[f]): the factor taking a fraction over part to one over den."""
    out = ONE_P
    for f, m in den.items():
        for _ in range(m - part.get(f, 0)):
            out = out * f
    return out


# ---------------------------------------------------------------------------
# E_lam by intertwiners
# ---------------------------------------------------------------------------

def mu_star(rs: RootSystem) -> CorootVec:
    return strictly_dominant_coroot(rs)


def mu_candidates(rs: RootSystem, n: int):
    """Strictly dominant coroot vectors to pin E_lam on a lower set of n weights.

    _operator takes the first whose predicted eigenvalues separate lam; no
    Y-matrix is built to try one.  First the default mu*, then asymmetric
    alternates.  A single Y-operator can have colliding eigenvalue monomials
    on a lower set when the type has a diagram symmetry fixing mu* (the joint
    spectrum still separates).  The alternates break the symmetry while
    staying strictly dominant: (j+1) mu* + j sum_i i alpha_i^vee.

    All of these lie in one plane, so a weight w with w - lam orthogonal to
    it collides for each.  Then come the moment-curve points
    D (1, s, ..., s^(r-1)) in fundamental-coweight coordinates, D > 0 least
    with the point in the coroot lattice, for s = 1 .. (r-1)(n-1)+1.  The
    q-part -<mu, w> of an eigenvalue separates w from lam unless
    <mu, w - lam> = 0.  For each of the n - 1 other weights that is a nonzero
    polynomial in s of degree at most r - 1, so at most (r-1)(n-1) values of
    s fail and one of these points separates them all.  A point equal to an
    earlier candidate is skipped: that candidate has already been tried.
    """
    base = strictly_dominant_coroot(rs)
    yield base
    seen = {base}
    skew = tuple(i + 1 for i in range(rs.rank))
    for j in range(1, 7):
        cand = tuple((j + 1) * b + j * s for b, s in zip(base, skew))
        if all(rs.coroot_pair(cand, rs.simple_root(i + 1)) >= 1 for i in range(rs.rank)):
            seen.add(cand)
            yield cand
    # mu = A^-T c for <mu, alpha_k> = c_k, where root_mat = root_den A^-1
    for s in range(1, (rs.rank - 1) * (n - 1) + 2):
        c = [s**k for k in range(rs.rank)]
        cand = tuple(sum(row[i] * ck for row, ck in zip(rs.root_mat, c)) for i in range(rs.rank))
        g = gcd(rs.root_den, *cand)
        cand = tuple(x // g for x in cand)
        if cand not in seen:
            seen.add(cand)
            yield cand


def y_matrix(rs: RootSystem, basis: list[Weight], mu: CorootVec) -> list[list[QTPoly]]:
    """Matrix of Y^mu on the span of basis, the lower set of its last weight (columns = images).

    A weight of the column Y^mu e^nu_j outside the lower set, or not below nu_j, is an
    OrderViolationError for the first such column.  No E_lam is built from it: independent
    checks of nonsym_e solve its triangular eigenproblem."""
    index = {w: k for k, w in enumerate(basis)}
    keys = [rs.order_key(w) for w in basis]
    mat = [[ZERO_P] * len(basis) for _ in basis]
    for j, nu in enumerate(basis):
        for w, c in _y(rs, mu, _mono(nu)).items():
            i = index.get(w)
            if i is None:
                raise OrderViolationError(f"Y e^{nu} has weight {w} outside the lower set of {basis[-1]}")
            if rs.compare_keys(keys[i], keys[j]) not in (LESS, EQUAL):
                raise OrderViolationError(f"Y e^{nu} has weight {w} not below {nu} in the order")
            mat[i][j] = QTPoly(_unpack(c))
    return mat


def _operator(rs: RootSystem, basis: list[Weight]) -> tuple[CorootVec, list[tuple[int, int]]]:
    """(mu, exps): the first mu_candidates entry whose predicted eigenvalue on E_{basis[-1]} is
    not predicted for another weight of basis, and the (q, t)-exponents of those eigenvalues."""
    for mu in mu_candidates(rs, len(basis)):
        exps = [expected_eigen_exponents(rs, w, mu) for w in basis]
        if exps[-1] not in exps[:-1]:
            return mu, exps
    raise DegenerateSpectrumError(f"all Y-candidates have colliding eigenvalues on the lower set of {basis[-1]}")


def nonsym_e(rs: RootSystem, lam: Weight) -> EigenResult:
    """Nonsymmetric Macdonald polynomial with leading weight lam (see _solve and _walk), on root_system(rs.name).

    Each call builds a fresh EigenResult (new term dicts and basis list) from the memoized E of the
    dominant seed, so a caller that mutates it cannot change what later callers get."""
    rs, lam = root_system(rs.name), rs.check_weight(lam)
    return _result(rs, lam, *_solve(rs.name, lam)) if rs.is_dominant(lam) else _walk(rs, lam)


@lru_cache(maxsize=None)
def _solve(rs_name: str, lam: Weight) -> tuple[list[Weight], tuple[_Frac, ...], CorootVec, tuple[int, int]]:
    """E_lam for dominant lam: (basis, coefficients, operator, exponents of its eigenvalue).

    vartheta is the highest short root, l the length of s_vartheta, h = (l - 1)/2 and
    p = <vartheta^vee, lam>.  If p < 2, lam is 0 or minuscule, its lower set is {lam}, and
    E_lam = e^lam.  Otherwise mu = lam - (p - 1) vartheta has <vartheta^vee, mu> = 2 - p <= 0,
    and the affine reflection of the Y side in vartheta takes it to

        nu = s_vartheta mu + vartheta = mu + (1 - <vartheta^vee, mu>) vartheta = lam:

    at t = 1, E_mu = e^mu and Phi = X^vartheta T_{s_vartheta} is X^vartheta s_vartheta, which maps
    e^mu to e^nu.  For generic t, Phi is the intertwiner of the Y-side affine root
    alpha_0 = [-vartheta, 1] without its scalar part (Cherednik, IMRN 1995; Double Affine Hecke
    Algebras, CUP 2005, ch. 3), so Phi E_mu = a E_nu + b E_mu with

        b = -(1 - t) t^h m / (1 - m),   m = q^(A+1) t^(B - <vartheta^vee, rho>),

    q^A t^B the eigenvalue of Y^{vartheta^vee} on E_mu: m is to alpha_0 what q^-a t^(1-b) is to
    alpha_i in _climb.  E_nu is monic, so a is the coefficient of e^nu in Phi E_mu.  For
    E_mu = f / den, (1 - m) Phi f + (1 - t) t^h m f = a (1 - m) den E_lam; so E_lam is that
    numerator over den (1 - m), divided by its coefficient at e^lam, which must be a unit.
    Support in the lower set, that unit and the residual check in _result certify the answer,
    as lam's eigenvalue is simple on its lower set.  |mu|^2 = |lam|^2 - (p - 1) |vartheta|^2,
    so the seeds mu_+ descend to p < 2.  Private state: _climb reads its seed from here.
    """
    rs = root_system(rs_name)
    basis = rs.lower_set(lam)
    mu, exps = _operator(rs, basis)
    theta, coroot, word = rs.short_theta()
    p = rs.coroot_pair(coroot, lam)
    if p < 2:
        return basis, ((ZERO_P, {}),) * (len(basis) - 1) + ((ONE_P, {}),), mu, exps[-1]
    nu = tuple(l - (p - 1) * c for l, c in zip(lam, theta))
    den, f = _climb(rs, nu)
    mq, mt = expected_eigen_exponents(rs, nu, coroot)
    mq, mt = mq + 1, mt - sum(coroot)  # m = q^mq t^mt; rho = (1, ..., 1), so <vartheta^vee, rho> = sum(coroot)
    sign, uq, ut = _add_gap(den, QTPoly({(0, 0): 1, (mq, mt): -1}))
    phi = _shift(_word(rs, word, f), theta)
    h = (len(word) - 1) // 2
    # (1 - m) Phi f + (1 - t) t^h m f, divided by the unit sign q^uq t^ut of 1 - m
    f = _comb((phi, -uq, -ut, sign, 0), (phi, mq - uq, mt - ut, -sign, 0), (f, mq - uq, mt + h - ut, sign, -sign))
    coeffs = _coefficients(lam, basis, den, f)
    lead, part = coeffs[-1]
    if part or not lead.is_monomial() or abs(next(iter(lead.terms.values()))) != 1:
        raise AssertionError(f"the affine intertwiner gave e^{lam} a coefficient that is not a unit")
    ((lq, lt), lc), = lead.terms.items()
    return basis, tuple((num.shift(-lq, -lt).scale(lc), part) for num, part in coeffs), mu, exps[-1]


def _climb(rs: RootSystem, lam: Weight) -> tuple[dict[QTPoly, int], Kernel]:
    """(den, f) with E_lam = f / prod(den): E_{lam_+} from _solve, walked up to lam by finite intertwiners.

    With u lam = lam_+, the letters of u lead lam_+ up its orbit to lam; each step mu -> s_i mu
    has <alpha_i^vee, mu> > 0 and is E_{s_i mu} = T_i E_mu + (1 - t) / (1 - q^-a t^(1-b)) E_mu,
    q^a t^b the eigenvalue of Y^{alpha_i^vee} on E_mu.  Each step multiplies f by its binomial
    and adds the binomial's factors to den."""
    lam_plus, u = rs.dominant(lam)
    seed_basis, seed, _, _ = _solve(rs.name, lam_plus)
    den, nums = _over_common_den(seed)
    f = {w: _pack(num.terms) for w, num in zip(seed_basis, nums) if not num.is_zero()}
    nu = lam_plus
    for i in u:
        assert nu[i - 1] > 0, "intertwiner step does not go up the orbit"
        a, b = expected_eigen_exponents(rs, nu, tuple(int(k == i - 1) for k in range(rs.rank)))
        sign, uq, ut = _add_gap(den, QTPoly({(0, 0): 1, (-a, 1 - b): -1}))
        ti = _t(rs, i, f)
        # (1 - q^-a t^(1-b)) T_i f + (1 - t) f, divided by the unit sign q^uq t^ut of the binomial
        f = _comb((ti, -uq, -ut, sign, 0), (ti, -a - uq, 1 - b - ut, -sign, 0), (f, -uq, -ut, sign, -sign))
        nu = rs.reflect(i, nu)
    return den, f


def _coefficients(lam: Weight, basis: list[Weight], den: dict[QTPoly, int], f: Kernel) -> tuple[_Frac, ...]:
    """The reduced coefficients of f / prod(den) on basis, the lower set of lam, which must hold f's support."""
    if not f.keys() <= set(basis):
        raise OrderViolationError(f"the intertwiners left the lower set of {lam}")
    factors = _factor_data(den)
    return tuple(_reduced_packed(f.get(w, {}), factors) for w in basis)


def _walk(rs: RootSystem, lam: Weight) -> EigenResult:
    """E_lam for non-dominant lam by _climb, certified as in _solve, with the unit 1."""
    basis = rs.lower_set(lam)
    coeffs = _coefficients(lam, basis, *_climb(rs, lam))
    if coeffs[-1] != (ONE_P, {}):
        raise AssertionError(f"the intertwiners lost the unit coefficient of e^{lam}")
    mu, exps = _operator(rs, basis)
    return _result(rs, lam, basis, coeffs, mu, exps[-1])


def _is_eigenvector(rs: RootSystem, mu: CorootVec, cleared: QTLaurent, exps: tuple[int, int]) -> bool:
    """Y^mu cleared == q^exps[0] t^exps[1] cleared, exactly."""
    return _y_fixes(rs, mu, _kernel(cleared)[0], *exps)


def _result(rs: RootSystem, lam: Weight, basis: list[Weight], coeffs: tuple[_Frac, ...],
            chosen: CorootVec, exps: tuple[int, int]) -> EigenResult:
    """The EigenResult of E_lam = sum coeffs[i] e^basis[i], whose eigenvalue under Y^chosen is
    q^exps[0] t^exps[1], after both exactness checks.  Each coefficient is reduced and its factors
    are canonical, so the product of its factors is the canonical denominator of its RatQT."""
    e = QTLaurent(rs, {w: RatQT(num, _cofactor(den, {}), _reduced=True) for w, (num, den) in zip(basis, coeffs)})
    # clear denominators without any gcd: the factors are already known
    universe, nums = _over_common_den(coeffs)
    clearing = _cofactor(universe, {})
    cleared = QTLaurent(rs, {w: RatQT(num, ONE_P, _reduced=True) for w, num in zip(basis, nums)})
    # exactness: the operator residual must vanish identically (checked on the
    # polynomial form, which exercises the same Hecke word)
    if not _is_eigenvector(rs, chosen, cleared, exps):
        raise AssertionError("eigen residual is nonzero")
    default = mu_star(rs)
    if chosen != default:
        # report the default operator's eigenvalue: E is a joint eigenvector,
        # so read it off and verify by applying the operator
        exps = expected_eigen_exponents(rs, lam, default)
        if not _is_eigenvector(rs, default, cleared, exps):
            raise AssertionError("joint eigenvector fails for the default operator")
    return EigenResult(
        e_poly=e,
        eigenvalue=RatQT.monomial(1, *exps),
        basis=list(basis),  # a copy: _solve caches the basis it returns
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

    q-exponent is -<mu, lam>; the t-exponent is the sum of <mu, gamma> over
    the positive roots gamma with (lam, gamma) <= 0.  That is
    (len(t_mu) + <mu, u_lam^{-1}(2 rho)>) / 2 with u_lam the minimal element
    making lam antidominant: len(t_mu) = <mu, 2 rho>, and u_lam^{-1} keeps
    positive exactly the roots that u_lam does not invert, those with
    (lam, gamma) <= 0, so 2 rho + u_lam^{-1}(2 rho) is twice their sum.  For
    gamma = sum_i c_i alpha_i, (lam, gamma) has the sign of sum_i c_i d_i lam_i.
    """
    t_exp = sum(rs.coroot_pair(mu, gamma) for coords, gamma in rs.positive_roots()
                if sum(c * d * l for c, d, l in zip(coords, rs.d, lam)) <= 0)
    return -rs.coroot_pair(mu, lam), t_exp


def eigen_check(rs: RootSystem, lam: Weight, mu: CorootVec, result: EigenResult | None = None) -> EigenCheck:
    """Verify Y^mu E_lam = q^{-<mu,lam>} t^{(l(t_mu)+<mu,u^{-1}(2rho)>)/2} E_lam exactly.

    Scaling by the clearing polynomial commutes with Y, so the identity is
    checked on the denominator-free companion form.
    """
    if result is None:
        result = nonsym_e(rs, lam)
    q_exp, t_exp = expected_eigen_exponents(rs, lam, mu)
    if not _is_eigenvector(rs, mu, result.cleared, (q_exp, t_exp)):
        return EigenCheck(False, q_exp, t_exp, "operator image is not the predicted multiple")
    return EigenCheck(True, q_exp, t_exp)


# ---------------------------------------------------------------------------
# symmetric polynomials
# ---------------------------------------------------------------------------

def sym_p(rs: RootSystem, lam: Weight) -> QTLaurent:
    """Symmetric Macdonald polynomial: symmetrize E_lam, normalize the e^lam coefficient."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    f = symmetrizer(rs, nonsym_e(rs, lam).cleared)
    lead = f.coeff(lam)
    if lead.is_zero():
        raise AssertionError("symmetrization lost the leading weight")
    inv = lead.inverse()
    scaled = {c: c * inv for c in set(f.terms.values())}  # an orbit repeats each coefficient value
    f = QTLaurent(rs, {w: scaled[c] for w, c in f.terms.items()})
    if not f.is_w_invariant():
        raise AssertionError("symmetrizer output is not W-invariant")
    return f


def monomial_expand(f: QTLaurent) -> list[tuple[Weight, RatQT]]:
    """Expansion of a W-invariant element in the orbit-sum basis: the orbits are disjoint, each has
    one dominant weight, and f is constant on each, so its m_mu coefficient is its e^mu one."""
    if not f.is_w_invariant():
        raise ValueError("element is not W-invariant")
    return sorted(((w, c) for w, c in f.terms.items() if f.rs.is_dominant(w)), key=lambda p: p[0])


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
