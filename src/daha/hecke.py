"""Demazure-Lusztig operators and the relation-verification suites.

The generator T_i acts on the group algebra by

    T_i f = t (s_i f) + (t - 1) (s_i f - f) / (X^{alpha_i} - 1)

and the division is an exact geometric string sum, so the image is again a
Laurent element.  For the affine index i = 0 the substitutions are
X^{alpha_0} = q e^{-theta} and the level-zero twisted reflection
s_0 . e^mu = q^{<theta^vee, mu>} e^{s_theta mu}.

Y-operators for coroot-lattice vectors come from reduced words of translation
elements; the composition order is "first letter outermost", which for A1
makes Y^{alpha^vee} = T_0 T_1.  _y_letters lists the letters of Y^mu once, in
the order they act, for both the operator _y and the zero test _y_fixes.

Coefficient ring.  T_i, T_i^{-1}, Y and the symmetrizer map Z[q^±, t^±][P]
into itself, so they run on one integer kernel: an element is a dict
{weight: {packed: int}} (polyring.Kernel), where q^a t^b is the one integer
key a * 2^64 + b, and T_i only adds integer coefficients at shifted keys: a
shift by q^a t^b is one integer add, with no tuple built per term.  The
alpha_i-string of T_i e^mu holds one entry per target weight, (target,
q-shift, c0, c1, |c0| + |c1|) for the coefficient (c0 + c1 t) q^(q-shift),
with c1 = -c0 or one of them 0: t, 1, 1 - t or t - 1.  It is built once per
(i, mu) and root system, in rs._caches, from a template of shifts memoized
per (i, <alpha_i^vee, mu>) there.  The kernel operator adds the source's
terms once or twice per entry, the framed letter adds v, t v or v - t v once
(_framed_letter), and a frame's bounds add |c0| + |c1| times the source's
bound (_letter_bound).  The
public operators (dl_op, dl_inv, word_op, y_op, demazure_op, demazure_char,
symmetrizer) take and return QTLaurent and convert once per call in _lifted,
however many letters they apply.  An input with a non-polynomial coefficient
is first multiplied by the lcm D of its denominators, by polyring._kernel
(the one denominator clearing, shared with integral_form); the operators are
Q(q, t)-linear, so the image is the kernel image divided by D.

The eigenvector check Y^mu f == q^a t^b f (_y_fixes, the residual check of
every E_lam) runs on a third form, one big integer per weight: q^a t^b goes to
2^(k (a width + b)), a ring map that T_i commutes with, so a letter is one
shift and one add per alpha_i-string entry, and the check is one integer
comparison per weight.  The map is injective on the values a frame can hold,
by its plan (_plan), made before the frame's first letter as macdonald's walk
and orbit sum make theirs: per-weight coefficient bounds run through the
letters (_letter_bound) fix the slot k, the least of 8, 16, 32, 64, 128, ...
bits that holds them (_slot), and the t-span of the start plus one column per
letter fixes the window.  A frame ends before a letter that would take its
bound past 64 bits or widen its window by more than 16 columns; its values
then decode exactly, and the next frame is planned from them.  _y_fixes gives
the argument.  y_op and _y stay the operator on the kernel.

The relation suites run entirely on the kernel: they build e^mu as a kernel,
apply the kernel operators and compare pruned kernels with ==.  Each check
records its first counterexample through RelationReport.first_failure.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from itertools import islice
from operator import itemgetter

from .qt import QTPoly, RatQT, Term
from .polyring import _Q, Kernel, QTLaurent, _kernel, _pack, _unpack
from .roots import MAX_BOX, RootSystem, Weight, WeylWord, CorootVec, weight_box


def _pairing(rs: RootSystem, i: int, mu: Weight) -> int:
    """<alpha_i^vee, mu>, with the level-zero convention at i = 0."""
    return -rs.theta_pair(mu) if i == 0 else mu[i - 1]


def _alpha_step(rs: RootSystem, i: int) -> tuple[Weight, int]:
    """X^{alpha_i} as (weight, power of q)."""
    if i == 0:
        return tuple(-c for c in rs.theta()), 1
    return rs.simple_root(i), 0


# ---------------------------------------------------------------------------
# the integer kernel
# ---------------------------------------------------------------------------

def _pruned(out: Kernel) -> Kernel:
    """out without its zero coefficients and empty weights, in place: only a dict holding a zero is rebuilt."""
    for w in [w for w, c in out.items() if 0 in c.values()]:
        if d := {k: v for k, v in out[w].items() if v}:
            out[w] = d
        else:
            del out[w]
    return out


def _comb(*parts: tuple[Kernel, int, int, int, int]) -> Kernel:
    """The sum of q^dq t^dt (c0 + c1 t) k over the parts (k, dq, dt, c0, c1), pruned."""
    out: Kernel = {}
    for k, dq, dt, c0, c1 in parts:
        off = dq * _Q + dt
        for w, c in k.items():
            d = out.get(w)
            if d is None:
                if not c1:  # a fresh weight and a monomial: one copy, no merge
                    out[w] = {e + off: c0 * x for e, x in c.items()}
                    continue
                d = out[w] = {}
            for v, o in ((c0, off), (c1, off + 1)):
                if v:
                    for e, x in c.items():
                        e += o
                        d[e] = d.get(e, 0) + v * x
    return _pruned(out)


def _mono(mu: Weight) -> Kernel:
    """The kernel of e^mu."""
    return {tuple(mu): {0: 1}}


def _shift(k: Kernel, lam: Weight, dq: int = 0) -> Kernel:
    """q^dq e^lam k."""
    off = dq * _Q
    return {tuple(a + b for a, b in zip(w, lam)): {e + off: v for e, v in c.items()} for w, c in k.items()}


# an alpha_i-string entry (target, q-shift, c0, c1, |c0| + |c1|): (c0 + c1 t) q^(q-shift) e^target
_Entry = tuple[Weight, int, int, int, int]


def _alpha_template(rs: RootSystem, i: int, m: int) -> tuple[_Entry, ...]:
    """T_i e^mu for every mu with <alpha_i^vee, mu> = m, as entries (shift, q-shift, c0, c1, |c0| + |c1|)
    whose targets are mu + shift: memoized per (i, m) in rs._caches.

    s_i e^mu = X^{-m alpha_i} e^mu and T_i e^mu = t X^{-m alpha_i} e^mu + (1 - t) sum_{k=1..m}
    X^{-k alpha_i} e^mu when m > 0 (the k = m terms add up to X^{-m alpha_i} e^mu), or
    + (t - 1) sum_{k=0..-m-1} X^{k alpha_i} e^mu when m <= 0: one entry per k, with X^{k alpha_i} =
    q^(k q-step) e^(k step) (_alpha_step)."""
    key = ("alpha_template", i, m)
    if key not in rs._caches:
        if abs(m) > MAX_BOX:
            raise ValueError(f"an alpha_{i}-string of {abs(m)} shifts is more than the {MAX_BOX} allowed")
        step_w, step_q = _alpha_step(rs, i)
        shifts = ([(-k, 1, -1) for k in range(1, m)] + [(-m, 1, 0)] if m > 0
                  else [(-m, 0, 1)] + [(k, -1, 1) for k in range(-m)])
        rs._caches[key] = tuple((tuple(k * b for b in step_w), k * step_q, c0, c1, abs(c0) + abs(c1))
                                for k, c0, c1 in shifts)
    return rs._caches[key]


def _alpha_string(rs: RootSystem, i: int, mu: Weight, memo: dict) -> tuple[_Entry, ...]:
    """T_i e^mu as one entry per target (_Entry), from the template of <alpha_i^vee, mu>; stored in memo[mu]."""
    s = memo[mu] = tuple((tuple(a + b for a, b in zip(mu, shift)), dq, c0, c1, n)
                         for shift, dq, c0, c1, n in _alpha_template(rs, i, _pairing(rs, i, mu)))
    return s


def _strings(rs: RootSystem, i: int, weights: Iterable[Weight]) -> list[tuple[_Entry, ...]]:
    """The alpha_i-string of each weight, from the memo of rs (_alpha_string)."""
    memo = rs._caches.setdefault(("alpha_strings", i), {})
    return [memo.get(w) or _alpha_string(rs, i, w, memo) for w in weights]


def _t(rs: RootSystem, i: int, f: Kernel) -> Kernel:
    """T_i on the kernel form, along the alpha_i-strings memoized once per root system."""
    memo = rs._caches.setdefault(("alpha_strings", i), {})
    out: Kernel = {}
    for mu, c in f.items():
        for w, dq, c0, c1, _ in memo.get(mu) or _alpha_string(rs, i, mu, memo):
            off = dq * _Q
            d = out.get(w)
            if c0:  # c0 at t^0; into a fresh weight, one copy and no merge
                if d is None:
                    out[w] = d = {k + off: c0 * x for k, x in c.items()}
                else:
                    for k, x in c.items():
                        k += off
                        d[k] = d.get(k, 0) + c0 * x
            if c1:  # c1 at t^1
                off += 1
                if d is None:
                    out[w] = {k + off: c1 * x for k, x in c.items()}
                else:
                    for k, x in c.items():
                        k += off
                        d[k] = d.get(k, 0) + c1 * x
    return _pruned(out)


def _t_inv(rs: RootSystem, i: int, f: Kernel) -> Kernel:
    """T_i^{-1} = t^{-1} T_i + t^{-1} - 1 on the kernel form."""
    return _comb((_t(rs, i, f), 0, -1, 1, 0), (f, 0, -1, 1, -1))


def _word(rs: RootSystem, word: WeylWord, f: Kernel) -> Kernel:
    for i in reversed(word):
        f = _t(rs, i, f)
    return f


def _d(rs: RootSystem, i: int, f: Kernel) -> Kernel:
    """D_i = T_i + 1 on the kernel form."""
    return _comb((_t(rs, i, f), 0, 0, 1, 0), (f, 0, 0, 1, 0))


def _dword(rs: RootSystem, word: WeylWord, f: Kernel) -> Kernel:
    for i in reversed(word):
        f = _d(rs, i, f)
    return f


def _sym(rs: RootSystem, f: Kernel) -> Kernel:
    """P f = sum over the finite Weyl group of T_w f, on the kernel form.

    weyl_elements() keys each w by w rho and is built breadth first, and each word there is
    (i,) + the word of its parent s_i w, listed earlier; so T_w f = T_i (T_{s_i w} f) costs one
    T_i per element instead of one per letter, and the images are the kernels _word would build."""
    images: dict[WeylWord, Kernel] = {}
    for word in rs.weyl_elements().values():
        images[word] = _t(rs, word[0], images[word[1:]]) if word else f
    return _comb(*((k, 0, 0, 1, 0) for k in images.values()))


def _y_letters(rs: RootSystem, mu: CorootVec) -> list[tuple[int, bool]]:
    """The letters of Y^mu = Y^{mu_+} (Y^{mu_-})^{-1} as they act, (i, True) for T_i^{-1}: mu_-'s
    translation word in its order, then mu_+'s from its last letter (_dominant_decomposition)."""
    if len(mu) != rs.rank:
        raise ValueError("coroot vector has wrong rank")
    plus, minus = _dominant_decomposition(rs, mu)
    return [(i, True) for i in rs.translation_word(minus)] + [(i, False) for i in reversed(rs.translation_word(plus))]


def _y(rs: RootSystem, mu: CorootVec, f: Kernel) -> Kernel:
    for i, inv in _y_letters(rs, mu):
        f = _t_inv(rs, i, f) if inv else _t(rs, i, f)
    return f


# ---------------------------------------------------------------------------
# the eigenvector check as an integer zero test
# ---------------------------------------------------------------------------

_Q_EXP, _T_EXP = itemgetter(0), itemgetter(1)  # the exponents of q and of t in a term key (a, b)


# the memoryview format of each slot size in bytes that is a machine word; used on little-endian hosts only
_WORDS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}


def _fill(n: int, s: int) -> bytes:
    """n slots of s bytes, each holding 2^(8s - 1) in little-endian order."""
    return (bytes(s - 1) + b"\x80") * n


def _encode(terms: Mapping[Term, int], k: int, width: int, b0: int) -> tuple[int, int]:
    """(v, e): v = sum c 2^(k ((a - e) width + b - b0)) over the terms c q^a t^b, e the least a.

    Each coefficient is written as c + 2^(k-1) into its k-bit slot of a buffer whose other slots
    hold 2^(k-1), and the fill is subtracted once; every |c| must be below 2^(k-1)."""
    e = min(map(_Q_EXP, terms))
    s = k >> 3
    fill = _fill((max(map(_Q_EXP, terms)) - e + 1) * width, s)
    buf = bytearray(fill)
    half = 1 << (k - 1)
    if fmt := sys.byteorder == "little" and _WORDS.get(s):
        slots = memoryview(buf).cast(fmt)
        for (a, b), c in terms.items():
            slots[(a - e) * width + b - b0] = c + half
        slots.release()
    else:
        for (a, b), c in terms.items():
            p = ((a - e) * width + b - b0) * s
            buf[p:p + s] = (c + half).to_bytes(s, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(fill, "little"), e


def _decode(v: int, e: int, k: int, width: int, b0: int) -> dict[Term, int]:
    """The terms that _encode wrote as (v, e), provided every coefficient is below 2^(k-1) in size.

    Then v has one balanced digit d in (-2^(k-1), 2^(k-1)) per k-bit slot, so v plus the fill
    2^(k-1) in every slot has the digits d + 2^(k-1) in [0, 2^k), with no carry: its bytes are
    the slots."""
    s = k >> 3
    n = abs(v).bit_length() // k + 1  # a top digit at slot p makes |v| > 2^(k p - 1)
    fill = _fill(n, s)
    raw = (v + int.from_bytes(fill, "little")).to_bytes(n * s, "little")
    if fmt := sys.byteorder == "little" and _WORDS.get(s):
        slots = memoryview(raw).cast(fmt).tolist()
    else:
        slots = [int.from_bytes(raw[p:p + s], "little") for p in range(0, n * s, s)]
    half = 1 << (k - 1)
    return {(e + p // width, b0 + p % width): u - half for p, u in enumerate(slots) if u != half}


def _slot(bound: int) -> int:
    """The least k in 8, 16, 32, 64, 128, 192, ... with bound < 2^(k-1): the slot of a frame whose
    coefficients, and the sum of |c| of each factor macdonald._divided divides by there, are at
    most bound in size.  Slots of 1, 2, 4 and 8 bytes are machine words to _encode and _decode."""
    k = 8
    while bound >> (k - 1):
        k = 2 * k if k < 64 else k + 64
    return k


def _letter_bound(rs: RootSystem, i: int, bound: dict[Weight, int]) -> dict[Weight, int]:
    """A bound on the largest coefficient of each weight of T_i g, for g bounded by bound: each
    alpha_i-string entry (c0 + c1 t) adds |c0| + |c1| times its source's bound to its target's."""
    out: dict[Weight, int] = {}
    get = out.get
    for x, string in zip(bound.values(), _strings(rs, i, bound)):
        for w, _, _, _, n in string:
            out[w] = get(w, 0) + n * x
    return out


def _plan(rs: RootSystem, letters: list[tuple[int, bool]], n: int, terms: Mapping[Weight, Mapping[Term, int]],
          reserve: int) -> tuple[int, int, int, int]:
    """(k, width, b0, stop): the frame of _y_fixes for the letters n..stop-1 on terms, planned before
    the first of them.

    The largest coefficient of each weight is bounded by running the letters on those bounds:
    _letter_bound for T_i, and for an inverse letter T_i + 1 - t twice each weight's own bound on
    top.  The frame runs at least one letter.  It ends before a letter that would take the bound
    past a 64-bit slot, or that would add a 17th column to the window: the Y^mu* words of the
    rank-2 and A3 checks, 10 to 14 letters, run in one frame, and long words on windows at most 16
    columns wider than the t-span they start from.  b0 and width are the t-span of terms plus one
    column per letter, and k is the _slot of the largest bound and of reserve."""
    bound = {w: max(map(abs, c.values())) for w, c in terms.items()}
    lo = min([min(map(_T_EXP, c)) for c in terms.values()])
    span = max([max(map(_T_EXP, c)) for c in terms.values()]) - lo + 1
    top, stop = max(reserve, *bound.values()), n
    while stop < len(letters) and stop - n < 16:
        i, inv = letters[stop]
        image = _letter_bound(rs, i, bound)
        if inv:
            for w, x in bound.items():
                image[w] = image.get(w, 0) + 2 * x
        x = max(image.values())
        if x >> 63 and stop > n:
            break
        bound, top, stop = image, max(top, x), stop + 1
    return _slot(top), span + stop - n, lo, stop


def _y_fixes(rs: RootSystem, mu: CorootVec, f: Mapping[Weight, Mapping[Term, int]], dq: int, dt: int) -> bool:
    """Y^mu f == q^dq t^dt f, exactly, for f = {weight: {(a, b): c}} with integer coefficients.

    Y^mu is the word of _y_letters: T_i^{-1} letters for mu_-, then T_i letters for mu_+.  Each
    T_i^{-1} runs as t T_i^{-1} = T_i + 1 - t, so with m such letters the word W' = t^m Y^mu has
    only letters that move t-exponents by 0 or +1, and the check is W' f == q^dq t^(dt + m) f.

    A frame (k, width, b0) maps the coefficient of e^w, a polynomial g_w, to the integer
    g_w(2^(k width), 2^k) 2^(-k (e_w width + b0)), with e_w a q-offset of its own per weight: the
    term c q^a t^b goes to bit k ((a - e_w) width + b - b0).  This is an evaluation at powers of
    2, so it is a ring map, and T_i commutes with it: a letter moves the terms of each weight by
    monomials and adds them with coefficients +-1, which on the integers is one shift and one add
    or subtract per target (_framed_letter).  The map is injective on the polynomials whose terms
    have a >= e_w, 0 <= b - b0 < width and coefficients below 2^(k-1) in size: their slots are
    distinct, and balanced base-2^k digits are unique.  So once both sides meet these bounds, one
    integer comparison per weight decides the identity, and a mismatch is a conclusive False.
    Each frame is planned before its first letter (_plan), and the bounds hold because
      - e_w is the least q-offset with which a term reaches e^w, so no term has a < e_w;
      - a letter raises a t-exponent by 0 or 1, so the window, the t-span of the terms the frame
        starts from plus one column per letter it runs, holds every value of the frame;
      - a letter adds each alpha_i-string entry's source, times +-1, to its target, and T_i + 1 - t
        adds the weight's own value twice more, so the per-weight bounds run through the letters
        bound every coefficient; the slot k, the least of 8, 16, 32, 64, 128, ... bits that holds
        the largest of them and the largest |c| of f (_slot), keeps both sides below 2^(k-1).
    If the right side q^dq t^(dt+m) f has a t-exponent outside the window of the last frame, the
    left side has none there, and the answer is False as well.

    A frame ends before a letter that would take its bound past a 64-bit slot, or widen its window
    by more than 16 columns.  Its values then meet the bounds, so they decode exactly (_decode),
    and the rest of the word runs on a frame planned afresh from the actual coefficients and
    t-span.  Long words need these checkpoints: the planned bound and the window grow with every
    letter, while the actual coefficients and t-span of an eigenvector stay small.  With the 64-bit
    cut alone, C2 E_(2,-3) under Y^(-5,9), 388 letters, runs on windows of about 55 extra columns,
    an order of magnitude slower; a cut when the window outgrows twice the starting t-span lets
    the windows of a check that fails, whose t-span spreads letter by letter, double frame by
    frame.
    """
    letters = _y_letters(rs, mu)
    f = {w: c for w, c in f.items() if c}
    if not f:
        return True
    dt += sum(inv for _, inv in letters)
    reserve = max([max(map(abs, c.values())) for c in f.values()])
    terms, n = f, 0
    while True:
        k, width, b0, stop = _plan(rs, letters, n, terms, reserve)
        g = {w: _encode(c, k, width, b0) for w, c in terms.items()}
        if n == 0:
            framed_f = g
        for i, inv in letters[n:stop]:
            g = _framed_letter(g, _strings(rs, i, g), inv, k, width)
        n = stop
        if n == len(letters):
            break
        terms = {w: _decode(v, e, k, width, b0) for w, (v, e) in g.items()}
    lo = min([min(map(_T_EXP, c)) for c in f.values()]) + dt
    hi = max([max(map(_T_EXP, c)) for c in f.values()]) + dt
    if lo < b0 or hi >= b0 + width or g.keys() != f.keys():
        return False
    if terms is f and dt >= 0:  # one frame throughout: f is framed already, t^dt is a shift
        rhs, shift = framed_f, dt
    else:
        rhs, shift = {w: _encode(c, k, width, b0 - dt) for w, c in f.items()}, 0
    qk = k * width
    for w, (v, e) in g.items():
        r, er = rhs[w]
        r <<= k * shift
        er += dq
        if e < er:
            r <<= (er - e) * qk
        elif er < e:
            v <<= (e - er) * qk
        if v != r:
            return False
    return True


def _framed_letter(g: dict[Weight, tuple[int, int]], strings: list, inv: bool, k: int, width: int
                   ) -> dict[Weight, tuple[int, int]]:
    """One letter T_i (T_i + 1 - t if inv) on the framed values g, along the alpha_i-strings of g's
    weights: an entry (c0 + c1 t) q^dq e^w adds c0 v + c1 t v to the value at w, for v = g[mu].  The
    entries have c1 = -c0 or one of them 0, so that is one add or subtract of v, t v or v - t v."""
    out: dict[Weight, list[int]] = {}
    qk = k * width
    for (mu, (v, e)), string in zip(g.items(), strings):
        vt = v << k
        d = v - vt
        if inv:
            string += ((mu, 0, 1, -1, 2),)
        for w, dq, c0, c1, _ in string:
            x = d if c0 and c1 else v if c0 else vt
            eq = e + dq
            o = out.get(w)
            if o is None:
                out[w] = [x if (c0 or c1) > 0 else -x, eq]
                continue
            if eq > o[1]:
                x <<= (eq - o[1]) * qk
            elif eq < o[1]:
                o[0] <<= (o[1] - eq) * qk
                o[1] = eq
            if (c0 or c1) > 0:
                o[0] += x
            else:
                o[0] -= x
    return {w: (v, e) for w, (v, e) in out.items() if v}


def _lifted(rs: RootSystem, op, f: QTLaurent) -> QTLaurent:
    """Run a kernel operator on a QTLaurent, converting once each way."""
    k, den = _kernel(f)
    image = op({w: _pack(c) for w, c in k.items()})
    return QTLaurent(rs, {w: RatQT(QTPoly(_unpack(c)), den, _reduced=den.is_one()) for w, c in image.items()})


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def dl_op(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """Apply T_i, i in 0..rank."""
    return _lifted(rs, lambda k: _t(rs, i, k), f)


def dl_inv(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """T_i^{-1} = t^{-1} T_i + t^{-1} - 1."""
    return _lifted(rs, lambda k: _t_inv(rs, i, k), f)


def word_op(rs: RootSystem, word: WeylWord, f: QTLaurent) -> QTLaurent:
    """T_{i_1} ... T_{i_k} f, first letter outermost."""
    return _lifted(rs, lambda k: _word(rs, word, k), f)


def y_op(rs: RootSystem, mu: CorootVec, f: QTLaurent) -> QTLaurent:
    """Y^mu for mu in the coroot lattice, via dominant decomposition mu = mu_+ - mu_-."""
    return _lifted(rs, lambda k: _y(rs, mu, k), f)


def _dominant_decomposition(rs: RootSystem, mu: CorootVec) -> tuple[CorootVec, CorootVec]:
    """mu = mu_+ - n mu*, mu* the strictly dominant coroot and n >= 0 least: <mu + n mu*, alpha_j>
    is linear in n with slope >= 1, so n is 0 (mu dominant, with no mu* needed) or the largest
    ceil(-<mu, alpha_j> / <mu*, alpha_j>)."""
    simple = [rs.simple_root(j) for j in range(1, rs.rank + 1)]
    if all(rs.coroot_pair(mu, a) >= 0 for a in simple):
        return tuple(mu), rs.zero()
    base = rs.strictly_dominant_coroot()
    n = max(-(rs.coroot_pair(mu, a) // rs.coroot_pair(base, a)) for a in simple)
    return tuple(m + n * b for m, b in zip(mu, base)), tuple(n * b for b in base)


def demazure_op(rs: RootSystem, i: int, f: QTLaurent) -> QTLaurent:
    """D_i = T_i + 1."""
    return _lifted(rs, lambda k: _d(rs, i, k), f)


def demazure_char(rs: RootSystem, word: WeylWord, lam: Weight) -> QTLaurent:
    """(T_{i_1}+1) ... (T_{i_k}+1) e^lam for a word over the finite indices."""
    word = rs.check_word(word)
    return _lifted(rs, lambda k: _dword(rs, word, k), QTLaurent.mono(rs, rs.check_weight(lam)))


def symmetrizer(rs: RootSystem, f: QTLaurent) -> QTLaurent:
    """P f = sum over the finite Weyl group of T_w f."""
    return _lifted(rs, lambda k: _sym(rs, k), f)


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

class RelationReport:
    """A titled list of named checks, each (name, passed, detail)."""

    __slots__ = ("title", "checks")

    def __init__(self, title: str, checks: list[tuple[str, bool, str]] | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    def first_failure(self, name: str, failures: Iterable[str]):
        """Record a check that fails with the first detail drawn from the lazy `failures`,
        and passes if it yields none; nothing after the first detail is drawn."""
        bad = next(iter(failures), "")
        self.record(name, not bad, bad)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, ok, detail in self.checks:
            status = "PASS" if ok else "FAIL"
            out.append(f"{status} {name}" + (f": {detail}" if detail else ""))
        return out


def _affine_indices(rs: RootSystem) -> list[int]:
    return list(range(0, rs.rank + 1)) if rs.irreducible else list(range(1, rs.rank + 1))


def _suite_box(rs: RootSystem, bound: int, indices: Iterable[int]) -> list[Weight]:
    """The box |mu_k| <= bound of a suite that applies T_i for i in indices, refused before any work
    if its alpha_i-strings are too long.

    T_i e^mu walks an alpha_i-string of |<alpha_i^vee, mu>| shifts, D_i^2 e^mu about as many strings
    of as many shifts, and each string stays in the root system's memo; so a box whose sum of
    <alpha_i^vee, mu>^2 over its weights and the indices is more than MAX_BOX is refused.  With
    <alpha_i^vee, mu> = <c, mu>, c = e_i for i >= 1 and theta^vee in the simple-coroot basis for the
    affine index 0, the cross terms cancel over the box [-b, b]^rank, so each index adds
    |c|^2 (2b+1)^(rank-1) sum_{k=-b..b} k^2 = |c|^2 (2b+1)^rank b(b+1)/3, reckoned in O(1).
    weight_box refuses a negative bound or a box of more than MAX_BOX points with its own message."""
    if 0 <= bound and (2 * bound + 1) ** rs.rank <= MAX_BOX:
        norm = sum(sum(c * c for c in rs.theta_coroot()) if i == 0 else 1 for i in indices)
        if (size := norm * (2 * bound + 1) ** rs.rank * bound * (bound + 1) // 3) > MAX_BOX:
            raise ValueError(f"a check of {size} alpha_i-string shifts (the sum of <alpha_i^vee, mu>^2 over "
                             f"the box and the indices) is more than the {MAX_BOX} allowed")
    return weight_box([bound] * rs.rank)


def _quadratic_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """(T_i + 1)(T_i - t) = 0."""
    for i in _affine_indices(rs):
        report.first_failure(f"quadratic i={i} ({len(box)} monomials)", (
            f"counterexample e^{mu}" for mu in box
            if _d(rs, i, _comb((_t(rs, i, _mono(mu)), 0, 0, 1, 0), (_mono(mu), 0, 1, -1, 0)))))


def _braid_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """Braid relations where the order is finite."""
    idxs = _affine_indices(rs)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            i, j = idxs[a], idxs[b]
            m = rs.braid_order(i, j)
            if m is None:
                continue
            w1 = tuple(i if k % 2 == 0 else j for k in range(m))
            w2 = tuple(j if k % 2 == 0 else i for k in range(m))
            report.first_failure(f"braid i={i} j={j} m={m}", (
                f"counterexample e^{mu}" for mu in box
                if _word(rs, w1, _mono(mu)) != _word(rs, w2, _mono(mu))))


def _xcommute_checks(rs: RootSystem, box: list[Weight], report: RelationReport):
    """X-T commutation for pairings 0 and 1; T_i e^mu is computed once per (i, mu), when first compared."""
    for i in _affine_indices(rs):
        step_w, step_q = _alpha_step(rs, i)
        images: dict[Weight, Kernel] = {}

        def lhs(lam: Weight, mu: Weight) -> Kernel:
            if mu not in images:
                images[mu] = _t(rs, i, _mono(mu))
            return _shift(images[mu], lam)

        for pairing_target in (0, 1):
            lams = [lam for lam in box if _pairing(rs, i, lam) == pairing_target]

            def rhs(lam: Weight, f: Kernel) -> Kernel:
                if pairing_target == 0:
                    return _t(rs, i, _shift(f, lam))
                shifted = tuple(a - b for a, b in zip(lam, step_w))
                return _comb((_t_inv(rs, i, _shift(f, shifted, -step_q)), 0, 1, 1, 0))

            name = "commute" if pairing_target == 0 else "shift"
            report.first_failure(f"x-{name} i={i} ({len(lams)} weights)", (
                f"counterexample lam={lam} e^{mu}" for lam in lams for mu in box
                if lhs(lam, mu) != rhs(lam, _mono(mu))))


RELATION_CHECKS = {"quadratic": _quadratic_checks, "braid": _braid_checks, "xcommute": _xcommute_checks}


def verify_relations(rs: RootSystem, bound: int, parts=tuple(RELATION_CHECKS)) -> RelationReport:
    """Quadratic, braid, and X-T commutation relations on the monomial box
    (only the named parts of RELATION_CHECKS, if given); every part applies the affine indices,
    so _suite_box refuses a box by their alpha_i-strings."""
    report = RelationReport(f"Hecke relations for {rs.name}, |mu_i| <= {bound}")
    box = _suite_box(rs, bound, _affine_indices(rs))
    for part in parts:
        RELATION_CHECKS[part](rs, box, report)
    return report


def verify_symmetrizer(rs: RootSystem, bound: int) -> RelationReport:
    """T_i P = P T_i = t P, invariance, hull support, and m_mu commutation; _suite_box refuses a
    box by the alpha_i-strings of the finite indices."""
    report = RelationReport(f"symmetrizer properties for {rs.name}")
    box = _suite_box(rs, bound, range(1, rs.rank + 1))
    sym = {mu: _sym(rs, _mono(mu)) for mu in box}
    simple = range(1, rs.rank + 1)

    def absorbs():
        for mu in box:
            tpf = _comb((sym[mu], 0, 1, 1, 0))
            for i in simple:
                if _t(rs, i, sym[mu]) != tpf:
                    yield f"T_{i} P at e^{mu}"
                if _sym(rs, _t(rs, i, _mono(mu))) != tpf:
                    yield f"P T_{i} at e^{mu}"

    report.first_failure(f"T_i P = P T_i = t P ({len(box)} monomials)", absorbs())
    report.first_failure("image is W-invariant", (
        f"not W-invariant at e^{mu}" for mu in box
        if any(sym[mu].get(rs.reflect(i, w)) != c for i in simple for w, c in sym[mu].items())))
    report.first_failure("support in convex hull of W mu_+", (
        f"support of P e^{mu} leaves hull at {w}" for mu in box for w in sorted(sym[mu])
        if not rs.in_hull(w, rs.dominant(mu)[0])))
    doms = [lam for lam in box if rs.is_dominant(lam)]
    orbits = {lam: rs.orbit(lam) for lam in doms}
    report.first_failure("commutes with multiplication by m_mu", (
        f"m_{lam} does not commute at e^{mu}" for lam in doms for mu in box
        if _sym(rs, {rs.add(w, mu): {0: 1} for w in orbits[lam]})
        != _comb(*((_shift(sym[mu], w), 0, 0, 1, 0) for w in orbits[lam]))))
    return report


def verify_demazure(rs: RootSystem, bound: int) -> RelationReport:
    """Word comparison of iterated Demazure operators plus the quadratic law.

    The operator products (T_{i1}+1)...(T_{ik}+1) along two reduced words of
    the same element are NOT equal: the Hecke relations force, e.g. for a
    braid pair of order 3, D_i D_j D_i - D_j D_i D_j = t (D_i - D_j).  What
    is word-independent is (a) the t = 0 slice (the classical Demazure
    character formula) and (b) the defect-corrected combination, which is the
    character of the rank-2 parabolic induction.  Both are verified here,
    together with the exact shape of the defect.

    (a) is checked by induction on length, on q^0 t^0 slices: the finite T_i bring in no q and no
    negative power of t, so the slice of D_i f is a function of the slice of f.  Every reduced word
    of w is (i,) + a reduced word of s_i w for a descent i of w.  So if the words of each shorter
    element agree, those of w agree iff D_i (the value at s_i w) does over the descents i, and
    that is the value at w.  weyl_elements() is breadth first, so only the last length's values
    are kept; elements run outside dominant weights, so the first failure is the one a listing of
    the words finds.  Each of the |W| x (dominant weights) values is a character about as wide as
    the box, so more than MAX_BOX (element, dominant weight, box weight) triples are refused, and
    so is a box whose alpha_i-strings are too long (_suite_box).
    """
    report = RelationReport(f"Demazure properties for {rs.name}")
    box = _suite_box(rs, bound, range(1, rs.rank + 1))
    doms = [lam for lam in box if rs.is_dominant(lam)]
    if (size := rs.weyl_order() * len(doms) * len(box)) > MAX_BOX:
        raise ValueError(f"a word check of {size} (element, dominant weight, box weight) triples is more "
                         f"than the {MAX_BOX} allowed")
    weyl = rs.weyl_elements()

    def sliced_d(i: int, f: dict[Weight, int]) -> dict[Weight, int]:
        """The q^0 t^0 slice {weight: coefficient} of D_i f, for f such a slice."""
        return {w: v for w, c in _d(rs, i, {w: {0: v} for w, v in f.items()}).items() if (v := c.get(0))}

    def word_dependence():
        # the slices at the elements of the last length and of this one
        last, values, length = {}, {rs.rho: [{lam: 1} for lam in doms]}, 0
        for elt, word in islice(weyl.items(), 1, None):
            if len(word) > length:
                last, values, length = values, {}, len(word)
            descents = [i for i in range(1, rs.rank + 1) if elt[i - 1] < 0]
            values[elt] = row = []
            for k, lam in enumerate(doms):
                images = [sliced_d(i, last[rs.reflect(i, elt)][k]) for i in descents]
                row.append(images[0])
                if bad := next((i for i, image in zip(descents, images) if image != images[0]), None):
                    words = [(i,) + weyl[rs.reflect(i, elt)] for i in (descents[0], bad)]
                    yield f"words {words[0]} vs {words[1]} differ at lam={lam}"

    report.first_failure(f"classical (t=0) word independence ({len(doms)} dominant weights)",
                         word_dependence())

    def corrected(word: WeylWord, f: Kernel) -> Kernel:
        """D_word f - (m - 2) t D_{word[:m-2]} f for a braid word of length m = 3 or 4."""
        m = len(word)
        return _comb((_dword(rs, word, f), 0, 0, 1, 0), (_dword(rs, word[:m - 2], f), 0, 1, 2 - m, 0))

    pairs = [
        (i, j, rs.braid_order(i, j))
        for i in range(1, rs.rank + 1)
        for j in range(i + 1, rs.rank + 1)
        if rs.braid_order(i, j) in (3, 4)
    ]
    report.first_failure("defect-corrected word comparison (parabolic character)", (
        f"braid defect identity fails for ({i},{j}) at e^{mu}" for i, j, m in pairs for mu in box
        if corrected(((i, j) * 2)[:m], _mono(mu)) != corrected(((j, i) * 2)[:m], _mono(mu))))
    report.first_failure("D_i^2 = (1+t) D_i on the box", (
        f"i={i} at e^{mu}" for i in range(1, rs.rank + 1) for mu in box
        if _d(rs, i, di := _d(rs, i, _mono(mu))) != _comb((di, 0, 0, 1, 1))))
    return report
