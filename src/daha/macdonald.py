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
any other lam from its dominant seed by finite steps (_climb).  No linear
system is solved; y_matrix serves independent checks only.  _result alone
checks the unit coefficient, picks the operator and runs the residual checks.

Every coefficient is one pair (num, den): a QTPoly over {irreducible
canonical factor: multiplicity}.  Each gap an intertwiner divides by is a
difference of two monomials, whose cyclotomic factors _add_gap adds to den;
each coefficient is reduced once by exact division with those factors, so no
gcd is computed.

From the seed to the reduced coefficients, each numerator is one big integer
per weight, in the Kronecker frame of the residual check hecke._y_fixes:
q^a t^b goes to 2^(k ((a - e_w) width + b - b0)), a ring map that every T_i
commutes with.  The walk and the affine step apply their letters and
binomials as shifts and adds (_walk), in a frame planned from the steps
before the first letter, so no value is decoded on the way.  The divisions
run in the same frame (_divided): every factor is t^b P(y) with P = +-Phi_D
and y a monomial, so its inverse is a 2-adic geometric series, and the
quotient takes a few doubling shift-adds.  A quotient is accepted only if it
multiplies back to the numerator and its digits pass the checks that make the
map injective: each digit below 2^j, j = k - 1 - bitlen(|f|_1 - 1) for the
factor f, |f|_1 the sum of its |c|.  The slot k is the least of 8, 16, 32, 64,
128, 192, ... bits that holds both the planned coefficient bound and the
largest |f|_1 below 2^(k-1) (_slot), so the bound decodes exactly and j is
never negative; slots of up to 8 bytes are machine words to _encode and
_decode.  A failed multiply-back proves that the factor does not divide; a
quotient the digit checks reject is left to qt.div_exact, on the decoded
numerator.  Each coefficient is decoded once.  The residual check
Y^mu E = q^A t^B E of every result is hecke._y_fixes, an exact zero test on
one big integer per weight.

Symmetric P_lam (sym_p) comes from E_lam without the full symmetrizer.
Lengths add over minimal coset representatives, so sum_{w in W} T_w =
(sum_{u in W^lam} T_u)(sum_{v in W_lam} T_v) (Bjorner-Brenti, Combinatorics of
Coxeter Groups, 2.4), and T_i E_lam = t E_lam whenever s_i lam = lam
(Macdonald, ch. 5), which sym_p checks exactly; so the symmetrizer's image of
E_lam is W_lam(t) sum_u T_u E_lam, and P_lam = sum_u T_u E_lam, one T_i per
orbit point.  Its coefficients are reduced by exact division with the
clearing's known factors, in one frame (_reduced_packed), so no gcd is
computed there either.

Also here: the eigenvalue-exponent check, monomial expansion, and a classical
Demazure-operator Weyl character used as an independent specialization
oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import gcd

from .qt import ONE_P, QTPoly, RatQT, ZERO_P, Term, div_exact
from .polyring import QTLaurent, _kernel, _pack, _unpack
from .roots import LESS, EQUAL, RootSystem, Weight, CorootVec, root_system
from .hecke import _alpha_string, _comb, _coset_sum, _decode, _encode, _framed_letter, _mono, _t, _y, _y_fixes


class DegenerateSpectrumError(RuntimeError):
    """Two comparable weights produced identical Y-eigenvalues."""


class OrderViolationError(RuntimeError):
    """Y-operator image escaped the lower set: ordering or operator bug."""


class EigenResult:
    __slots__ = ("e_poly", "eigenvalue", "basis", "conjectural", "cleared", "clearing", "clearing_factors",
                 "mu_used")

    def __init__(self, e_poly: QTLaurent, eigenvalue: RatQT, basis: list[Weight], conjectural: bool,
                 cleared: QTLaurent, clearing: QTPoly, clearing_factors: dict[QTPoly, int], mu_used: CorootVec):
        self.e_poly = e_poly
        self.eigenvalue = eigenvalue
        self.basis = basis
        self.conjectural = conjectural  # non-dominant weights sit outside the proved dominant case
        # denominator-cleared companion: cleared = clearing * e_poly with polynomial
        # coefficients; operator identities are checked on this form, where the
        # Hecke action never needs a gcd
        self.cleared = cleared
        self.clearing = clearing
        self.clearing_factors = clearing_factors  # {irreducible canonical factor: multiplicity}, product clearing
        self.mu_used = mu_used  # which Y-operator pinned the solve


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
    term positive).  z has a nonnegative q-exponent, so the constant term
    Phi_d(0), -1 for d = 1 and 1 otherwise, is the lex-least term of Phi_d(z),
    and its least t-exponent is that of its constant or of its top term.  As
    z^g - 1 = prod Phi_d(z), the unit is the coefficient and the componentwise
    least exponents of p.  The decomposition is verified by multiplying it out.
    """
    assert len(p.terms) == 2, "eigenvalue gap is not a binomial"
    (k1, c1), (k2, c2) = sorted(p.terms.items())
    assert c1 * c2 == -1, "gap is not a difference of two monomials"
    dq, dt = k2[0] - k1[0], k2[1] - k1[1]
    g = gcd(abs(dq), abs(dt))
    za, zb = dq // g, dt // g
    product = None
    for d in range(1, g + 1):
        if g % d == 0:
            cyc = _cyclotomic(d)
            low, sign = min(0, cyc[-1][0] * zb), cyc[0][1]
            f = QTPoly({(k * za, k * zb - low): sign * c for k, c in cyc})
            den[f] = den.get(f, 0) + 1
            product = f if product is None else product * f
    uq, ut = k1[0], min(k1[1], k2[1])
    back = {(a + uq, b + ut): c1 * c for (a, b), c in product.terms.items()}
    assert back == p.terms, "binomial factorization failed"
    return c1, uq, ut


def _factor_data(den: dict[QTPoly, int]) -> list[tuple]:
    """(f, multiplicity, q-span, t-span, sum of |c|, b, (ya, yb), D, r) for each factor f of den.

    f is canonical, so its minima are (0, 0) and its maxima its spans, and (_add_gap) it is
    t^b P(y) for y = q^ya t^yb, the primitive step from its lex-least term t^b to its next, and
    P = +-Phi_D with P(0) = 1.  r = (1 - y^D) / P, a polynomial, as (degree, coefficient) pairs,
    so 1 / P(y) = r(y) (1 + y^D + y^2D + ...) as a power series.  P of degree 1 is 1 - y = -Phi_1
    or 1 + y = Phi_2.  The last term in lex order has the largest q-exponent, and the largest
    t-exponent is at one end of the line."""
    out = []
    for f, m in den.items():
        terms = sorted(f.terms.items())
        ((_, b), _), ((a1, b1), _) = terms[0], terms[1]
        g = gcd(a1, b1 - b)
        ya, yb = a1 // g, (b1 - b) // g
        p = {}
        for (a, bt), c in terms:
            i = a // ya if ya else (bt - b) // yb
            assert (a, bt) == (i * ya, b + i * yb), "a factor of den is not a polynomial in one monomial"
            p[i] = c
        d, r = _period(p) if i > 1 else (1, [(0, 1)]) if p[1] == -1 else (2, [(0, 1), (1, -1)])
        out.append((f, m, a, max(b, bt), sum(map(abs, p.values())), b, (ya, yb), d, r))
    return out


def _period(p: dict[int, int]) -> tuple[int, list[tuple[int, int]]]:
    """(D, r) for P = sum p[i] y^i with P(0) = 1 and P | 1 - y^D: D least, r = (1 - y^D) / P as (i, r_i).

    1/P = sum s_n y^n as a power series, s_n = -sum_{i >= 1} p_i s_(n-i), and P | 1 - y^D exactly
    when s has period D, r being s_0 + ... + s_(D-1) y^(D-1); the differences s_(n+D) - s_n obey
    the same recurrence, so they vanish once deg(P) of them do.  P = +-Phi_D has degree
    phi(D) >= sqrt(D / 2), so D <= 2 deg(P)^2."""
    assert p.get(0) == 1, "a factor of den has lex-least coefficient other than 1"
    deg = max(p)
    s = [1]
    for n in range(1, 2 * deg * deg + deg + 1):
        s.append(-sum(c * s[n - i] for i, c in p.items() if 0 < i <= n))
    for d in range(1, 2 * deg * deg + 1):
        if s[d:d + deg] == s[:deg]:
            return d, [(n, x) for n, x in enumerate(s[:d]) if x]
    raise AssertionError("a factor of den is not cyclotomic")


def _slot(bound: int) -> int:
    """The least k in 8, 16, 32, 64, 128, 192, ... with bound < 2^(k-1): the slot of a frame whose
    coefficients, and the sum of |c| of each factor it divides by (_divided), are at most bound in
    size.  Slots of 1, 2, 4 and 8 bytes are machine words to _encode and _decode."""
    k = 8
    while bound >> (k - 1):
        k = 2 * k if k < 64 else k + 64
    return k


def _masks(k: int, width: int, rows: int, j: int, ft: int) -> tuple[int, int]:
    """(fill, mask) for the digit check of a quotient by a factor of t-span ft, in a frame of rows * width
    k-bit slots: fill holds 2^j in each slot outside the last ft columns of a row, mask the bits
    above j there and every bit of those last columns."""
    s = k >> 3
    row_fill = (1 << j).to_bytes(s, "little") * (width - ft) + bytes(s * ft)
    row_mask = ((1 << k) - (2 << j)).to_bytes(s, "little") * (width - ft) + b"\xff" * (s * ft)
    return int.from_bytes(row_fill * rows, "little"), int.from_bytes(row_mask * rows, "little")


def _series(x: int, step: int, n: int) -> int:
    """x (1 + 2^step + 2^(2 step) + ...) mod 2^n, by doubling: one shift-add per doubling of the terms."""
    top = (1 << n) - 1
    while step < n:
        x = (x + (x << step)) & top
        step <<= 1
    return x


def _quotient(v: int, sigma: int, fterms: list[tuple[int, int]], flen: int, r: list[tuple[int, int]], stride: int
              ) -> int | None:
    """v / F if F divides v, else None, for F = sum c 2^s over fterms = 2^sigma P(Y), with |F| of flen bits.

    P(Y) r(Y) = 1 - Y^D with Y^D = 2^stride (_factor_data; r is [] for r = 1), so
    F^-1 = 2^-sigma r(Y) (1 + Y^D + ...) as a 2-adic integer, and v / F is that series times v,
    read modulo 2^n for n = len(v) - flen + 2: an exact quotient is below 2^(n-1) in size.  The
    product with F, a few shift-adds, decides: it gives v back exactly when F divides v."""
    n = abs(v).bit_length() - flen + 2
    if n < 2:
        return None
    top = (1 << n) - 1
    x = (v >> sigma) & top
    if r:
        x = _shift_sum(x, r) & top
    x = _series(x, stride, n)
    if x >> (n - 1):
        x -= 1 << n
    return x if _shift_sum(x, fterms) == v else None


def _shift_sum(x: int, terms: list[tuple[int, int]]) -> int:
    """The sum of c 2^s x over the terms (s, c): a shift and an add or subtract each, for c = +-1."""
    out = 0
    for s, c in terms:
        if c == 1:
            out += x << s
        elif c == -1:
            out -= x << s
        else:
            out += c * (x << s)
    return out


def _reduced_packed(cs: list[Mapping[int, int]], factors: list[tuple]) -> list[_Frac]:
    """Each c / prod(den) in lowest terms, for c packed as {a * 2^64 + b: int} and den listed by
    _factor_data.

    The coefficients share one Kronecker frame (_divided): k is the _slot of their largest
    coefficient and of the largest sum of |c| of a factor, and the width is one more than their
    largest t-span; each is encoded from its own least exponents.  Every factor is divided out
    there while it divides.  The frame decides divisibility exactly, so no cheaper test screens
    the divisions first."""
    terms = [_unpack(c) for c in cs]
    live = [c for c in terms if c]
    if not live or not factors:
        return [(QTPoly(c), {}) for c in terms]
    k = _slot(max(max(max(map(abs, c.values())) for c in live), max(fd[4] for fd in factors)))
    lows = [min(b for _, b in c) for c in live]
    width = max(max(b for _, b in c) - lo for c, lo in zip(live, lows)) + 1
    out = iter(_divided(k, width, [(*_encode(c, k, width, lo), lo) for c, lo in zip(live, lows)], factors))
    return [next(out) if c else (ZERO_P, {}) for c in terms]


def _divided(k: int, width: int, items: list[tuple[int, int, int]], factors: list[tuple]) -> list[_Frac]:
    """Each numerator (v, e, b0) of items, in the frame (k, width) of _encode, over prod(den) in lowest
    terms: each factor of den divided out while it divides, in the frame, and the rest decoded once.

    The frame maps q^a t^b to 2^(k ((a - e) width + b - b0)): an evaluation at powers of 2, so a ring
    map, and injective on polynomials whose coefficients are below 2^(k-1) in size and whose
    t-exponents lie in [b0, b0 + width); every numerator here meets both bounds.  A factor f of
    t-span ft goes to the integer F (_quotient), and it divides a numerator N if the quotient Q
    with F Q = N as integers passes two checks, one add and one AND (_masks):
      - every balanced base-2^k digit of Q is below 2^j in size, with 2^j |f|_1 <= 2^(k-1), so the
        coefficients of the polynomial Q read off those digits, times f, stay in the injective
        range;
      - Q has no digit in the last ft columns of a row, so Q f does not carry into the next row.
    Then Q f and N have the same image, so they are equal, and Q is the next numerator, again
    inside both bounds.  If Q does not multiply back to N, F does not divide N, so f does not.  If
    it does but a check fails, the frame cannot decide: N is decoded, and qt.div_exact divides out
    the rest of f's multiplicity and every later factor.  A factor whose q-span passes N's, or
    whose t-span passes the window, is not tried.
    """
    rows = max((abs(v).bit_length() // k // width for v, _, _ in items), default=0) + 2
    framed, masks = [], {}
    for f, _, fq, ft, l1, b, (ya, yb), d, r in factors:
        if ft >= width:  # it divides no numerator here, and its step y may map to 2^0
            framed.append(None)
            continue
        fterms = [(k * (a * width + bt), c) for (a, bt), c in f.terms.items()]
        step = k * (ya * width + yb)
        j = k - 1 - (l1 - 1).bit_length()
        if (j, ft) not in masks:
            masks[j, ft] = _masks(k, width, rows, j, ft)
        framed.append((fq, k * b, fterms, abs(_shift_sum(1, fterms)).bit_length(),
                       [(i * step, c) for i, c in r] if r != [(0, 1)] else [], d * step, *masks[j, ft]))
    return [_divide_out(v, e, b0, k, width, k * width * rows, factors, framed) for v, e, b0 in items]


def _divide_out(v: int, e: int, b0: int, k: int, width: int, limit: int, factors: list[tuple], framed: list
                ) -> _Frac:
    """One numerator of _divided, with each factor's frame data from there."""
    qk = k * width
    part = {}
    for n, ((f, m, *_), fr) in enumerate(zip(factors, framed)):
        if fr:
            fq, sigma, fterms, flen, r, stride, fill, mask = fr
            while m:
                # N's q-span is at most the rows from its lowest digit to its highest, f's is fq
                if fq and fq > (abs(v).bit_length() + 1) // qk - ((v & -v).bit_length() - 1) // qk:
                    break
                x = _quotient(v, sigma, fterms, flen, r, stride)
                if x is None:
                    break
                y = x + fill
                if y < 0 or y >> limit or y & mask:  # the frame cannot decide: div_exact does, from here on
                    num = QTPoly(_decode(v, e, k, width, b0))
                    for g, mg, *_ in [(f, m)] + factors[n + 1:]:
                        while mg and (q := div_exact(num, g)) is not None:
                            num, mg = q, mg - 1
                        if mg:
                            part[g] = mg
                    return num, part
                v = x
                m -= 1
        if m:
            part[f] = m
    return QTPoly(_decode(v, e, k, width, b0)), part


def _over_common_den(coeffs) -> tuple[dict[QTPoly, int], list[QTPoly]]:
    """(den, nums) with coeffs[k] = nums[k] / prod(den), den taking each factor's largest multiplicity."""
    den: dict[QTPoly, int] = {}
    for _, part in coeffs:
        for f, m in part.items():
            den[f] = max(den.get(f, 0), m)
    return den, [ZERO_P if num.is_zero() else num * _cofactor(den, part) for num, part in coeffs]


def _ratqt(c: _Frac) -> RatQT:
    """The RatQT of a reduced coefficient: its canonical denominator is the product of its factors."""
    num, den = c
    return RatQT(num, _cofactor(den, {}), _reduced=True)


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
    base = rs.strictly_dominant_coroot()
    yield base
    seen = {base}
    skew = tuple(i + 1 for i in range(rs.rank))
    for j in range(1, 7):
        cand = tuple((j + 1) * b + j * s for b, s in zip(base, skew))
        if all(rs.coroot_pair(cand, rs.simple_root(i + 1)) >= 1 for i in range(rs.rank)):
            seen.add(cand)
            yield cand
    for s in range(1, (rs.rank - 1) * (n - 1) + 2):
        cand = rs.scaled_coroot([s**k for k in range(rs.rank)])
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
    """Nonsymmetric Macdonald polynomial with leading weight lam (see _solve and _climb), on root_system(rs.name).

    Each call builds a fresh EigenResult (new term dicts and basis list) from the memoized E of the
    dominant seed, so a caller that mutates it cannot change what later callers get."""
    rs, lam = root_system(rs.name), rs.check_weight(lam)
    if rs.is_dominant(lam):
        return _result(rs, lam, *_solve(rs, lam))
    basis = rs.lower_set(lam)
    return _result(rs, lam, basis, _coefficients(lam, basis, *_climb(rs, lam)))


# the memo of _solve: (type name, dominant lam) -> (basis, coefficients)
_solved: dict[tuple[str, Weight], tuple[list[Weight], tuple[_Frac, ...]]] = {}


def _solve(rs: RootSystem, lam: Weight) -> tuple[list[Weight], tuple[_Frac, ...]]:
    """E_lam for dominant lam on rs = root_system(rs.name): (basis, coefficients), with basis the
    lower set of lam; memoized in _solved by type name and lam.

    vartheta is the highest short root, l the length of s_vartheta, h = (l - 1)/2 and
    p = <vartheta^vee, lam>.  If p < 2, lam is 0 or minuscule, its lower set is {lam}, and
    E_lam = e^lam.  Otherwise mu = lam - (p - 1) vartheta has <vartheta^vee, mu> = 2 - p <= 0,
    and the affine reflection of the Y side in vartheta takes it to

        nu = s_vartheta mu + vartheta = mu + (1 - <vartheta^vee, mu>) vartheta = lam:

    at t = 1, E_mu = e^mu and Phi = X^vartheta T_{s_vartheta} is X^vartheta s_vartheta, which maps
    e^mu to e^nu.  For generic t, E_lam is sought as (Phi E_mu - b E_mu) / a, and both scalars are
    forced by what E_lam must be.  nu = lam is above mu, so E_mu has no e^nu term, and E_nu is
    monic: a is the coefficient of e^nu in Phi E_mu.  The eigenvalues of Y^{vartheta^vee} on E_mu
    and E_nu are y_mu = q^A t^B and, by the eigenvalue formula (A = p - 2 and -p are its
    q-parts), y_nu = q^-2 t^(2 <vartheta^vee, rho>) / y_mu.  Y is triangular on monomials with
    these eigenvalues on the diagonal, and E_mu has coefficient 1 at e^mu, so reading
    (Y^{vartheta^vee} - y_nu)(Phi E_mu - b E_mu) = 0 at e^mu leaves one linear equation for b,
    whose solution is

        b = -(1 - t) t^h m / (1 - m) = t^h (1 - t) / (1 - 1/m),   m = q^(A+1) t^(B - <vartheta^vee, rho>),

    with m^2 = y_mu / y_nu.  The finite step of _climb, E_{s_i mu} = T_i E_mu + (1 - t) / (1 - m_i)
    E_mu, is the same computation for Y^{alpha_i^vee}, with m_i = q^-a t^(1-b) = t / y_mu and
    m_i^2 = y_{s_i mu} / y_mu there (Cherednik, IMRN 1995: the two are the intertwiners of the
    simple roots of the Y side, alpha_0 = [-vartheta, 1] among them).  Nothing here assumes that
    the combination is an eigenvector: for E_mu = f / den, (1 - m) Phi f + (1 - t) t^h m f =
    a (1 - m) den E_lam, so E_lam is that numerator over den (1 - m), divided by its coefficient
    at e^lam, which must be a unit, and support in the lower set and _result's checks certify it,
    as lam's eigenvalue is simple on its lower set.  |mu|^2 = |lam|^2 - (p - 1) |vartheta|^2, so
    the seeds mu_+ descend to p < 2.  Only the coefficients are memoized: _climb reads its seed
    from here.
    """
    key = rs.name, lam
    if key not in _solved:
        _solved[key] = _solve_fresh(rs, lam)
    return _solved[key]


def _solve_fresh(rs: RootSystem, lam: Weight) -> tuple[list[Weight], tuple[_Frac, ...]]:
    """_solve without the memo."""
    basis = rs.lower_set(lam)
    theta, coroot, word = rs.short_theta()
    p = rs.coroot_pair(coroot, lam)
    if p < 2:
        return basis, ((ZERO_P, {}),) * (len(basis) - 1) + ((ONE_P, {}),)
    nu = tuple(l - (p - 1) * c for l, c in zip(lam, theta))
    mq, mt = expected_eigen_exponents(rs, nu, coroot)
    mq, mt = mq + 1, mt - sum(coroot)  # m = q^mq t^mt; rho = (1, ..., 1), so <vartheta^vee, rho> = sum(coroot)
    h = (len(word) - 1) // 2
    # (1 - m) Phi f + (1 - t) t^h m f over den (1 - m), f / den = E_nu
    coeffs = _coefficients(lam, basis, *_climb(rs, nu, (word, theta, mq, mt, mq, mt + h)))
    lead, part = coeffs[-1]
    if part or not lead.is_monomial():
        return basis, coeffs  # not a unit: _result refuses it
    ((lq, lt), lc), = lead.terms.items()  # lc is +-1 for a unit: the quotient's lead lc^2 is 1 only then
    return basis, tuple((num.shift(-lq, -lt).scale(lc), part) for num, part in coeffs)


# a numerator in a Kronecker frame: (k, width, b0, {weight: (v, e)}), v as _encode writes it
_Framed = tuple[int, int, int, dict[Weight, tuple[int, int]]]


def _climb(rs: RootSystem, lam: Weight, affine: tuple | None = None) -> tuple[dict[QTPoly, int], _Framed]:
    """(den, f) with E_lam = f / prod(den), f framed: E_{lam_+} from _solve, walked up to lam by finite
    intertwiners, then taken by the affine step if one is given (_solve_fresh).

    With u lam = lam_+, the letters of u lead lam_+ up its orbit to lam; each step mu -> s_i mu
    has <alpha_i^vee, mu> > 0 and is E_{s_i mu} = T_i E_mu + (1 - t) / (1 - q^-a t^(1-b)) E_mu,
    q^a t^b the eigenvalue of Y^{alpha_i^vee} on E_mu.  Each step multiplies f by its binomial
    and adds the binomial's factors to den (_walk)."""
    lam_plus, u = rs.dominant(lam)
    seed_basis, seed = _solve(rs, lam_plus)
    den, nums = _over_common_den(seed)
    steps, nu = [], lam_plus
    for i in u:
        assert nu[i - 1] > 0, "intertwiner step does not go up the orbit"
        a, b = expected_eigen_exponents(rs, nu, tuple(int(k == i - 1) for k in range(rs.rank)))
        steps.append(((i,), None, -a, 1 - b, 0, 0))
        nu = rs.reflect(i, nu)
    if affine:
        steps.append(affine)
    return den, _walk(rs, {w: num.terms for w, num in zip(seed_basis, nums) if not num.is_zero()}, den, steps)


def _walk(rs: RootSystem, f: dict[Weight, Mapping[Term, int]], den: dict[QTPoly, int], steps: list[tuple]) -> _Framed:
    """The intertwiner steps on f, in one Kronecker frame; the factors of their gaps are added to den.

    A step (word, shift, mq, mt, nq, nt) maps g to ((1 - m) A g + (1 - t) n g) / unit, with
    A = X^shift T_word (T_i for each letter i, the last first), m = q^mq t^mt, n = q^nq t^nt and unit
    the monomial of 1 - m that _add_gap splits off.  In the frame (hecke._y_fixes), q^a t^b is the
    bit k ((a - e_w) width + b - b0) of one integer per weight, so a letter is hecke._framed_letter
    and a monomial factor a shift.  The frame is planned before the first step, so no value is
    decoded on the way:
      - a letter raises t-exponents by 0 or 1 and the other shifts are known, so the t-exponents
        of every value lie in a window fixed by the steps alone; b0 and width cover it;
      - the largest coefficient of each weight's value is bounded by running the steps on those
        bounds with every coefficient taken as its size: a string entry of T_i adds its source's
        bound to its target's, and the step adds 2 of A's and 2 of g's.  k is the _slot of the
        largest last bound and of the largest sum of |c| of a factor of den, so the result decodes
        exactly and every digit check of _divided has a headroom j >= 0."""
    units, bound = [], {w: max(map(abs, c.values())) for w, c in f.items()}
    lo = min(min(b for _, b in c) for c in f.values())
    low, high = 0, max(max(b for _, b in c) for c in f.values()) - lo  # the window, relative to lo
    floor = 0
    for word, shift, mq, mt, nq, nt in steps:
        sign, uq, ut = _add_gap(den, QTPoly({(0, 0): 1, (mq, mt): -1}))
        units.append((sign, uq, ut))
        image = bound
        for i in reversed(word):
            memo = rs._caches.setdefault(("alpha_strings", i), {})
            out: dict[Weight, int] = {}
            for mu, x in image.items():
                for w, _, _ in memo.get(mu) or _alpha_string(rs, i, mu, memo):
                    out[w] = out.get(w, 0) + x
            image = out
        if shift:
            image = {tuple(a + b for a, b in zip(w, shift)): x for w, x in image.items()}
        for w, x in bound.items():
            image[w] = image.get(w, 0) + x
        bound = {w: 2 * x for w, x in image.items()}
        low, high = (min(low - ut, low + mt - ut, low + nt - ut),
                     max(high + len(word) - ut, high + len(word) + mt - ut, high + nt - ut + 1))
        floor = min(floor, low)
    k = _slot(max(max(bound.values()), max(sum(map(abs, p.terms.values())) for p in den)))
    width, b0 = high - floor + 1, lo + floor
    g = {w: _encode(c, k, width, b0) for w, c in f.items()}
    for (word, shift, mq, mt, nq, nt), (sign, uq, ut) in zip(steps, units):
        image = g
        for i in reversed(word):
            memo = rs._caches.setdefault(("alpha_strings", i), {})
            strings = [memo.get(w) or _alpha_string(rs, i, w, memo) for w in image]
            image = _framed_letter(image, strings, False, k, width)
        if shift:
            image = {tuple(a + b for a, b in zip(w, shift)): ve for w, ve in image.items()}
        g = _framed_comb(k, width, (image, -uq, -ut, sign, 0), (image, mq - uq, mt - ut, -sign, 0),
                         (g, nq - uq, nt - ut, sign, -sign))
    return k, width, b0, g


def _framed_comb(k: int, width: int, *parts: tuple) -> dict[Weight, tuple[int, int]]:
    """The sum of q^dq t^dt (c0 + c1 t) g over the parts (g, dq, dt, c0, c1), on framed values (hecke._comb)."""
    out: dict[Weight, list[int]] = {}
    qk = k * width
    for g, dq, dt, c0, c1 in parts:
        up, down = k * max(dt, 0), k * max(-dt, 0)  # t^dt: a shift up, or an exact shift down
        terms = [(s, c) for s, c in ((up, c0), (up + k, c1)) if c]
        for w, (v, e) in g.items():
            x = _shift_sum(v >> down if down else v, terms)
            e += dq
            o = out.get(w)
            if o is None:
                out[w] = [x, e]
                continue
            if e > o[1]:
                x <<= (e - o[1]) * qk
            elif e < o[1]:
                o[0] <<= (o[1] - e) * qk
                o[1] = e
            o[0] += x
    return {w: (v, e) for w, (v, e) in out.items() if v}


def _coefficients(lam: Weight, basis: list[Weight], den: dict[QTPoly, int], f: _Framed) -> tuple[_Frac, ...]:
    """The reduced coefficients of f / prod(den) on basis, the lower set of lam, which must hold f's support."""
    k, width, b0, g = f
    if not g.keys() <= set(basis):
        raise OrderViolationError(f"the intertwiners left the lower set of {lam}")
    out = iter(_divided(k, width, [(*g[w], b0) for w in basis if w in g], _factor_data(den)))
    return tuple(next(out) if w in g else (ZERO_P, {}) for w in basis)


def _is_eigenvector(rs: RootSystem, mu: CorootVec, cleared: QTLaurent, exps: tuple[int, int]) -> bool:
    """Y^mu cleared == q^exps[0] t^exps[1] cleared, exactly."""
    return _y_fixes(rs, mu, _kernel(cleared)[0], *exps)


def _result(rs: RootSystem, lam: Weight, basis: list[Weight], coeffs: tuple[_Frac, ...]) -> EigenResult:
    """The EigenResult of E_lam = sum coeffs[i] e^basis[i] (basis the lower set of lam), certified: its
    e^lam coefficient is 1 and it has the predicted eigenvalues under _operator's Y^chosen and Y^mu*.
    Each reduced coefficient has canonical factors, whose product is its RatQT's canonical denominator."""
    if coeffs[-1] != (ONE_P, {}):
        raise AssertionError(f"the intertwiners gave e^{lam} a coefficient other than 1")
    chosen, spectrum = _operator(rs, basis)
    exps = spectrum[-1]
    e = QTLaurent(rs, {w: _ratqt(c) for w, c in zip(basis, coeffs)})
    # clear denominators without any gcd: the factors are already known
    universe, nums = _over_common_den(coeffs)
    clearing = _cofactor(universe, {})
    cleared = QTLaurent(rs, {w: RatQT(num, ONE_P, _reduced=True) for w, num in zip(basis, nums)})
    # exactness: the operator residual must vanish identically (checked on the
    # polynomial form, which exercises the same Hecke word)
    if not _is_eigenvector(rs, chosen, cleared, exps):
        raise AssertionError("eigen residual is nonzero")
    default = rs.strictly_dominant_coroot()
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
        clearing_factors=universe,
        mu_used=chosen,
    )


# ---------------------------------------------------------------------------
# eigenvalue exponent check
# ---------------------------------------------------------------------------

class EigenCheck:
    __slots__ = ("ok", "q_exp", "t_exp", "detail")

    def __init__(self, ok: bool, q_exp: int, t_exp: int, detail: str = ""):
        self.ok = ok
        self.q_exp = q_exp
        self.t_exp = t_exp
        self.detail = detail


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
    """Symmetric Macdonald polynomial P_lam, lam dominant: the sum of T_u E_lam over the minimal
    coset representatives u of W/W_lam, which has e^lam coefficient 1.

    Lengths add over w = u v with v in the stabilizer W_lam, so sum_{w in W} T_w = (sum_u T_u)
    (sum_v T_v), and T_i E_lam = t E_lam for each s_i fixing lam; so the symmetrizer's image of
    E_lam is W_lam(t) sum_u T_u E_lam.  The last identity is checked exactly, on the cleared form
    f = clearing E_lam, before the sum is taken (hecke._coset_sum, one T_i per orbit point), and
    the sum's e^lam coefficient must be the clearing itself.  P_lam is the sum over the clearing,
    whose irreducible factors nonsym_e returns as clearing_factors: each distinct coefficient is reduced by
    exact division with them (_reduced_packed), so no gcd is computed.  The result must be
    W-invariant."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    res = nonsym_e(rs, lam)
    f = {w: _pack(c.num.terms) for w, c in res.cleared.terms.items()}
    for i in range(1, rs.rank + 1):
        if not lam[i - 1] and _t(rs, i, f) != _comb((f, 0, 1, 1, 0)):
            raise AssertionError(f"T_{i} E_{lam} is not t E_{lam}, though s_{i} fixes {lam}")
    f = _coset_sum(rs, lam, f)
    if f.get(lam) != _pack(res.clearing.terms):
        raise AssertionError(f"the coset sum's e^{lam} coefficient is not the clearing")
    keys = {w: frozenset(c.items()) for w, c in f.items()}
    distinct = dict(zip(keys.values(), f.values()))  # an orbit repeats each coefficient value
    reduced = dict(zip(distinct, map(_ratqt, _reduced_packed(list(distinct.values()),
                                                              _factor_data(res.clearing_factors)))))
    p = QTLaurent(rs, {w: reduced[key] for w, key in keys.items()})
    if not p.is_w_invariant():
        raise AssertionError("the coset sum is not W-invariant")
    return p


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
