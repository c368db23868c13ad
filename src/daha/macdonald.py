"""Nonsymmetric Macdonald polynomials as triangular eigenvectors of Y-operators.

E_lam is the unique element with unitriangular expansion

    E_lam = e^lam + sum over mu strictly below lam (Cherednik order)

that is an eigenvector of one Y-operator Y^mu, mu strictly dominant.  The
operator is chosen once, for both solvers, from its predicted spectrum: mu
is the first mu_candidates entry whose eigenvalue-exponent formula gives lam
an eigenvalue that no other weight of the lower set shares.  For dominant
lam the matrix of that one Y^mu is built on the integer kernel, its diagonal
is checked against the predicted eigenvalues, and the triangular
eigenproblem is solved exactly by back-substitution over Q(q, t): row i gives
c_i = sum_{j > i} m_ij c_j / (y - m_ii).  Each c_j is kept as a numerator
over a product of irreducible factors of the eigenvalue gaps; a row's sum is
formed over the row's common factored denominator and reduced once, by
exact division with those factors, so no gcd is ever computed.

Any other lam lies in the orbit of a dominant lam_+, and E_lam is reached from
the solved E_{lam_+} by finite intertwiners, one T_i and one scalar per letter
(Cherednik, Nonsymmetric Macdonald polynomials, IMRN 1995; Macdonald, Affine
Hecke Algebras and Orthogonal Polynomials, ch. 5), with the same factored
denominators and no eigensolve.

Also here: the eigenvalue-exponent check, symmetric P_lam via the Cherednik
symmetrizer, monomial expansion, and a classical Demazure-operator Weyl
character used as an independent specialization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .qt import ONE_P, QTPoly, RatQT, ZERO_P, _canon_unit, div_exact
from .polyring import QTLaurent, _pack, _unpack
from .roots import LESS, EQUAL, RootSystem, Weight, CorootVec, root_system
from .hecke import _comb, _t, _y, strictly_dominant_coroot, symmetrizer, y_op


_COLS = 1 << 24  # y_matrix packs column j < 2^24 at j * 2^40, between the q and t slots of a kernel key


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
# factored rational values for the back-substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[tuple[int, int], ...]:
    """Cyclotomic polynomial Phi_n as sorted (degree, coefficient) pairs: x^n - 1 over prod_{d | n, d < n} Phi_d."""
    poly = QTPoly({(n, 0): 1, (0, 0): -1})
    for d in range(1, n):
        if n % d == 0:
            poly = div_exact(poly, QTPoly({(k, 0): c for k, c in _cyclotomic(d)}))
    return tuple(sorted((k, c) for (k, _), c in poly.terms.items()))


def _split_gap(p: QTPoly) -> tuple[int, int, int, list[QTPoly]]:
    """Factor a difference of two monomials as unit * product of irreducible factors.

    Every gap is y - m_ii or 1 - q^-a t^(1-b), so p = m1 - m2 up to sign.
    Writes p = unit * prod over d | g of the cyclotomic Phi_d evaluated at the
    primitive monomial z of m2/m1 = z^g, each normalized canonically (no
    monomial content, lexicographically least term positive).  The unit is
    returned as (sign, shift_q, shift_t) and the decomposition is verified by
    exact division.
    """
    assert len(p.terms) == 2, "eigenvalue gap is not a binomial"
    (k1, c1), (k2, c2) = sorted(p.terms.items())
    assert c1 * c2 == -1, "gap is not a difference of two monomials"
    dq, dt = k2[0] - k1[0], k2[1] - k1[1]
    g = gcd(abs(dq), abs(dt))
    za, zb = dq // g, dt // g
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    factors = [_canon_unit(_subst_monomial(_cyclotomic(d), za, zb)) for d in divisors]
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

    def is_zero(self) -> bool:
        return self.num.is_zero()

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
                ne = ne // fe if fe else _ieval(num)  # _ieval is multiplicative
                m -= 1
            if m:
                den[f] = m
        return _FactoredRat(num, den)

    def to_ratqt(self) -> RatQT:
        """Convert.  The factors are irreducible and already divided out, and
        each is canonical (no monomial content, least term positive), so their
        product is the canonical denominator of the reduced fraction."""
        return RatQT(self.num, _cofactor(self.den, {}), _reduced=True)


def _over_common_den(coeffs) -> tuple[dict[QTPoly, int], list[QTPoly]]:
    """(den, nums) with coeffs[k] = nums[k] / prod(den), den taking each factor's largest multiplicity."""
    den: dict[QTPoly, int] = {}
    for c in coeffs:
        for f, m in c.den.items():
            den[f] = max(den.get(f, 0), m)
    return den, [ZERO_P if c.is_zero() else c.num * _cofactor(den, c.den) for c in coeffs]


def _cofactor(den: dict[QTPoly, int], part: dict[QTPoly, int]) -> QTPoly:
    """prod f^(den[f] - part[f]): the factor taking a fraction over part to one over den."""
    out = ONE_P
    for f, m in den.items():
        for _ in range(m - part.get(f, 0)):
            out = out * f
    return out


# ---------------------------------------------------------------------------
# the eigensolver
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

    One pass of the translation word maps every column at once: column j starts as e^nu_j at
    the kernel key j * 2^40, between the q and t slots of a * 2^64 + b.  A column starts at
    q^0 t^0 and a letter moves b by at most 1, so b stays far inside (-2^39, 2^39) and the
    Hecke action never carries a key into another column.  The keys stay as short as any
    kernel's: a slot above q would lengthen every key, and each add and hash with it.  A
    weight of the image outside the lower set, or not below nu_j, is an OrderViolationError
    for the least such column j."""
    if len(basis) >= _COLS:
        raise ValueError(f"a lower set of {len(basis)} weights has more columns than a kernel key holds")
    lam = basis[-1]
    index = {w: k for k, w in enumerate(basis)}
    keys = [rs.order_key(w) for w in basis]
    n = len(basis)
    cells: dict[tuple[int, int], dict[int, int]] = {}
    bad: dict[int, str] = {}
    for w, c in _y(rs, mu, {nu: {j << 40: 1} for j, nu in enumerate(basis)}).items():
        i = index.get(w)
        for key, v in c.items():
            j = ((key + (1 << 39)) >> 40) & (_COLS - 1)
            if i is None:
                bad.setdefault(j, f"Y e^{basis[j]} has weight {w} outside the lower set of {lam}")
            elif (cell := cells.get((i, j))) is None:
                cells[i, j] = {key - (j << 40): v}
            else:
                cell[key - (j << 40)] = v
    mat = [[ZERO_P] * n for _ in range(n)]
    for (i, j), cell in cells.items():
        if rs.compare_keys(keys[i], keys[j]) not in (LESS, EQUAL):
            bad.setdefault(j, f"Y e^{basis[j]} has weight {basis[i]} not below {basis[j]} in the order")
        mat[i][j] = QTPoly(_unpack(cell))
    if bad:
        raise OrderViolationError(bad[min(bad)])
    return mat


def _operator(rs: RootSystem, basis: list[Weight]) -> tuple[CorootVec, list[tuple[int, int]]]:
    """(mu, exps): the first mu_candidates entry whose predicted eigenvalue on E_{basis[-1]} is
    not predicted for another weight of basis, and the (q, t)-exponents of those eigenvalues."""
    for mu in mu_candidates(rs, len(basis)):
        exps = [expected_eigen_exponents(rs, w, mu) for w in basis]
        if exps[-1] not in exps[:-1]:
            return mu, exps
    raise DegenerateSpectrumError(
        f"all Y-candidates have colliding eigenvalues on the lower set of {basis[-1]}"
    )


def nonsym_e(rs: RootSystem, lam: Weight) -> EigenResult:
    """Nonsymmetric Macdonald polynomial with leading weight lam.

    The operator (mu_used) is the first mu_candidates entry whose predicted
    spectrum separates lam on its lower set (see _operator).  A dominant lam
    is solved from that operator's triangular matrix; any other lam is
    reached from its dominant seed by intertwiners (see _walk).  The result
    carries root_system(rs.name).

    Each call builds a fresh EigenResult (new term dicts and basis list) from
    the memoized solve of the dominant seed, so a caller that mutates it
    cannot change what later callers get.
    """
    rs, lam = root_system(rs.name), rs.check_weight(lam)
    return _eigensolve(rs, lam) if rs.is_dominant(lam) else _walk(rs, lam)


@lru_cache(maxsize=None)
def _solve(rs_name: str, lam: Weight) -> tuple[list[Weight], tuple[_FactoredRat, ...], CorootVec,
                                                tuple[int, int]]:
    """The triangular eigensolve: (basis, coefficients, operator, exponents of its eigenvalue).

    The one matrix built must have the predicted eigenvalues on its diagonal.
    Private state: the walk reads its seed from here, never from an
    EigenResult that a caller holds.
    """
    rs = root_system(rs_name)
    basis = rs.lower_set(lam)
    n = len(basis)
    mu, exps = _operator(rs, basis)
    mat = y_matrix(rs, basis, mu)
    for k, w in enumerate(basis):
        if mat[k][k] != QTPoly.monomial(1, *exps[k]):
            raise AssertionError(f"Y^{mu} on e^{w} has diagonal {mat[k][k]}, not the predicted eigenvalue")
    y = mat[n - 1][n - 1]
    coeffs = [_FactoredRat(ZERO_P)] * n
    coeffs[n - 1] = _FactoredRat(ONE_P)
    for i in range(n - 2, -1, -1):
        row = [(mat[i][j], coeffs[j]) for j in range(i + 1, n)
               if not (mat[i][j].is_zero() or coeffs[j].is_zero())]
        den, nums = _over_common_den([c for _, c in row])
        s = sum((num * mij for (mij, _), num in zip(row, nums)), ZERO_P)
        if not s.is_zero():
            coeffs[i] = _FactoredRat(s, den).div_gap(y - mat[i][i])
    return basis, tuple(coeffs), mu, exps[-1]


def _eigensolve(rs: RootSystem, lam: Weight) -> EigenResult:
    """E_lam by the triangular eigensolve, for any lam: the walk's oracle."""
    return _result(rs, lam, *_solve(rs.name, lam))


def _walk(rs: RootSystem, lam: Weight) -> EigenResult:
    """E_lam from the E of its dominant seed lam_+ by finite intertwiners, with no eigensolve.

    With u lam = lam_+, the letters of u lead lam_+ up its orbit to lam; each
    step mu -> s_i mu has <alpha_i^vee, mu> > 0 and is

        E_{s_i mu} = T_i E_mu + (1 - t) / (1 - q^-a t^(1-b)) E_mu,

    where q^a t^b is the eigenvalue of Y^{alpha_i^vee} on E_mu.  The state is
    a kernel numerator over a factored denominator: each step multiplies
    the numerator by the step's binomial and adds the binomial's
    irreducible factors to the denominator, and each coefficient is reduced
    once at the end, so no gcd is computed.  Support in the lower set, the
    unit coefficient of e^lam and the residual check in _result certify the
    answer, since the eigenvalue of lam is simple on the lower set.
    """
    lam_plus, u = rs.dominant(lam)
    seed_basis, seed, _, _ = _solve(rs.name, lam_plus)
    den, nums = _over_common_den(seed)
    f = {w: _pack(num.terms) for w, num in zip(seed_basis, nums) if not num.is_zero()}
    nu = lam_plus
    for i in u:
        assert nu[i - 1] > 0, "intertwiner step does not go up the orbit"
        a, b = expected_eigen_exponents(rs, nu, tuple(int(k == i - 1) for k in range(rs.rank)))
        sign, uq, ut, factors = _split_gap(QTPoly({(0, 0): 1, (-a, 1 - b): -1}))
        ti = _t(rs, i, f)
        # (1 - q^-a t^(1-b)) T_i f + (1 - t) f, divided by the unit sign q^uq t^ut of the binomial
        f = _comb((ti, -uq, -ut, sign, 0), (ti, -a - uq, 1 - b - ut, -sign, 0), (f, -uq, -ut, sign, -sign))
        for g in factors:
            den[g] = den.get(g, 0) + 1
        nu = rs.reflect(i, nu)
    basis = rs.lower_set(lam)
    if not f.keys() <= set(basis):
        raise OrderViolationError(f"the intertwiners left the lower set of {lam}")
    mu, exps = _operator(rs, basis)
    coeffs = tuple(_FactoredRat(QTPoly(_unpack(f.get(w, {}))), den).reduced() for w in basis)
    if not coeffs[-1].to_ratqt().is_one():
        raise AssertionError(f"the intertwiners lost the unit coefficient of e^{lam}")
    return _result(rs, lam, basis, coeffs, mu, exps[-1])


def _is_eigenvector(rs: RootSystem, mu: CorootVec, cleared: QTLaurent, exps: tuple[int, int]) -> bool:
    """Y^mu cleared == q^exps[0] t^exps[1] cleared, exactly."""
    return y_op(rs, mu, cleared) == cleared.scale(RatQT.monomial(1, *exps))


def _result(rs: RootSystem, lam: Weight, basis: list[Weight], coeffs: tuple[_FactoredRat, ...],
            chosen: CorootVec, exps: tuple[int, int]) -> EigenResult:
    """The EigenResult of E_lam = sum coeffs[i] e^basis[i], whose eigenvalue under Y^chosen is
    q^exps[0] t^exps[1], after both exactness checks."""
    e = QTLaurent(rs, {w: c.to_ratqt() for w, c in zip(basis, coeffs)})
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

    q-exponent is -<mu, lam>; the t-exponent is
    (len(t_mu) + <u_lam^{-1}(2 rho), mu>) / 2 with u_lam the minimal element
    making lam antidominant.  len(t_mu) enters as the sum of <mu, beta> over
    the positive roots beta (the length for dominant mu), and the positive
    roots sum to 2 rho, so it is <mu, 2 rho>.
    """
    q_exp = -rs.coroot_pair(mu, lam)
    length = rs.coroot_pair(mu, rs.two_rho())
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
