"""Checks for the benchmark's outputs, computed apart from the daha package.

Nothing here imports daha.  Root data, reflections, orbits, the dominance
order and the Weyl character are rebuilt from small Cartan tables, and the
program's answers arrive as the plain JSON that `daha.laurent_to_json`
writes:

    {"terms": [{"weight": [..], "coeff": {"num": [[c, dq, dt], ..],
                                          "den": [[c, dq, dt], ..]}}, ..]}

Weights are in fundamental-weight coordinates and the simple root alpha_i is
column i of the Cartan matrix, so <alpha_i^vee, mu> = mu[i-1].  B2 has
alpha_1 long, C2 has alpha_1 short.

Each checker returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import re
from fractions import Fraction

_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "C2": ((2, -2), (-1, 2)),
}


def cartan(type_name: str) -> tuple[tuple[int, ...], ...]:
    key = type_name.upper()
    if key in _CARTAN:
        return _CARTAN[key]
    if key.startswith("A") and key[1:].isdigit() and int(key[1:]) >= 1:
        n = int(key[1:])
        return tuple(
            tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
            for i in range(n)
        )
    raise ValueError(f"no Cartan table for {type_name!r}")


class Lattice:
    """Weight lattice of one type: reflections, orbits and root coordinates."""

    def __init__(self, type_name: str):
        self.a = cartan(type_name)
        self.rank = len(self.a)
        self.alphas = [tuple(self.a[k][i] for k in range(self.rank)) for i in range(self.rank)]
        self._inv = _inverse([[Fraction(x) for x in row] for row in self.a])

    def reflect(self, i: int, mu: tuple[int, ...]) -> tuple[int, ...]:
        """s_i for i in 1..rank."""
        m = mu[i - 1]
        alpha = self.alphas[i - 1]
        return tuple(x - m * y for x, y in zip(mu, alpha))

    def dominant(self, mu: tuple[int, ...]) -> tuple[int, ...]:
        while True:
            for i in range(1, self.rank + 1):
                if mu[i - 1] < 0:
                    mu = self.reflect(i, mu)
                    break
            else:
                return mu

    def orbit(self, mu: tuple[int, ...]) -> set[tuple[int, ...]]:
        seen, todo = {mu}, [mu]
        while todo:
            w = todo.pop()
            for i in range(1, self.rank + 1):
                v = self.reflect(i, w)
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    def root_coords(self, mu: tuple[int, ...]) -> list[Fraction]:
        """x with mu = sum_j x_j alpha_j."""
        return [sum(self._inv[i][j] * mu[j] for j in range(self.rank)) for i in range(self.rank)]

    def in_root_lattice(self, mu: tuple[int, ...]) -> bool:
        return all(x.denominator == 1 for x in self.root_coords(mu))

    def in_hull(self, mu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
        """mu lies in the convex hull of W lam: dom(lam) - dom(mu) is a nonnegative root sum."""
        d = tuple(x - y for x, y in zip(self.dominant(lam), self.dominant(mu)))
        return all(x >= 0 for x in self.root_coords(d))

    def longest_word(self) -> list[int]:
        """A reduced word of w0, read off by sorting rho down to -rho."""
        rho = (1,) * self.rank
        word = []
        while any(x > 0 for x in rho):
            i = next(k for k in range(1, self.rank + 1) if rho[k - 1] > 0)
            rho = self.reflect(i, rho)
            word.append(i)
        return word

    def demazure(self, i: int, f: dict) -> dict:
        """Classical Demazure operator (e^mu - e^{s_i mu - alpha_i}) / (1 - e^{-alpha_i})."""
        alpha = self.alphas[i - 1]
        out: dict = {}
        for mu, c in f.items():
            m = mu[i - 1]
            if m >= 0:    # e^mu + e^{mu - alpha} + ... + e^{mu - m alpha}
                string, sign = [-k for k in range(0, m + 1)], 1
            else:         # -(e^{mu + alpha} + ... + e^{mu + (-m-1) alpha})
                string, sign = list(range(1, -m)), -1
            for k in string:
                w = tuple(x + k * y for x, y in zip(mu, alpha))
                out[w] = out.get(w, 0) + sign * c
        return {w: c for w, c in out.items() if c}

    def weyl_character(self, lam: tuple[int, ...]) -> dict:
        """Weight multiplicities of the irreducible of highest weight lam."""
        f = {tuple(lam): 1}
        for i in reversed(self.longest_word()):
            f = self.demazure(i, f)
        return f


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# the JSON form of a Laurent element
# ---------------------------------------------------------------------------

def _poly(data) -> dict:
    return {(int(a), int(b)): int(c) for c, a, b in data}


def _poly_eval(p: dict, q0: Fraction, t0: Fraction) -> Fraction:
    return sum((c * q0 ** a * t0 ** b for (a, b), c in p.items()), Fraction(0))


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (x1, y1), c1 in a.items():
        for (x2, y2), c2 in b.items():
            k = (x1 + x2, y1 + y2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def terms(doc: dict) -> dict:
    """weight -> (num, den) polynomials, from the JSON form."""
    out = {}
    for t in doc["terms"]:
        out[tuple(t["weight"])] = (_poly(t["coeff"]["num"]), _poly(t["coeff"]["den"]))
    return out


def _rat_equal(x: tuple[dict, dict], y: tuple[dict, dict]) -> bool:
    return _poly_mul(x[0], y[1]) == _poly_mul(y[0], x[1])


def _evaluate(f: dict, q0: Fraction, t0: Fraction) -> tuple[dict, list[str]]:
    """Specialize every coefficient; a vanishing denominator is a problem."""
    out, problems = {}, []
    for w, (num, den) in f.items():
        d = _poly_eval(den, q0, t0)
        if d == 0:
            problems.append(f"denominator of e^{w} vanishes at q={q0}, t={t0}")
            continue
        v = _poly_eval(num, q0, t0) / d
        if v:
            out[w] = v
    return out, problems


def _is_one(c: tuple[dict, dict]) -> bool:
    num, den = c
    return bool(num) and num == den


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_e(type_name: str, lam, doc: dict, q0: Fraction) -> list[str]:
    """E_lam: leading coefficient 1, support in lam + Q inside conv(W lam), E(q0, t=1) = e^lam."""
    lat, lam = Lattice(type_name), tuple(lam)
    f = terms(doc)
    problems = []
    if lam not in f or not _is_one(f[lam]):
        problems.append(f"coefficient of e^{lam} is not 1")
    for mu in f:
        diff = tuple(x - y for x, y in zip(mu, lam))
        if not lat.in_root_lattice(diff):
            problems.append(f"support weight {mu} is not in lam + Q")
        elif not lat.in_hull(mu, lam):
            problems.append(f"support weight {mu} leaves the hull of W{lam}")
    spec, bad = _evaluate(f, q0, Fraction(1))
    problems += bad
    if not bad and spec != {lam: 1}:
        problems.append(f"E at t=1, q={q0} is not e^{lam}")
    return problems


def check_p(type_name: str, lam, doc: dict, q0: Fraction) -> list[str]:
    """P_lam: leading coefficient 1, W-invariance, P(t=1) = m_lam, P(t=q) = chi_lam."""
    lat, lam = Lattice(type_name), tuple(lam)
    f = terms(doc)
    problems = []
    if lam not in f or not _is_one(f[lam]):
        problems.append(f"coefficient of e^{lam} is not 1")
    for mu, c in f.items():
        for i in range(1, lat.rank + 1):
            img = lat.reflect(i, mu)
            if img not in f or not _rat_equal(c, f[img]):
                problems.append(f"not invariant under s_{i} at e^{mu}")
                break
    spec, bad = _evaluate(f, q0, Fraction(1))
    problems += bad
    if not bad and spec != {w: 1 for w in lat.orbit(lam)}:
        problems.append(f"P at t=1, q={q0} is not the orbit sum m_{lam}")
    spec, bad = _evaluate(f, q0, q0)
    problems += bad
    if not bad and spec != lat.weyl_character(lam):
        problems.append(f"P at t=q={q0} is not the Weyl character chi_{lam}")
    return problems


_COUNT = re.compile(r"\((\d+) (monomials|dominant weights)\)|antisymmetry on (\d+) weights")
_SL2 = re.compile(r"^PASS k=(\d+): dim (\d+),")


def check_report(argv: list[str], returncode: int, stdout: str) -> list[str]:
    """A `daha verify ...` or `daha sl2 validate -k K` run: exit 0, all PASS, full boxes."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = stdout.splitlines()
    if argv[0] == "sl2":
        k = int(argv[argv.index("-k") + 1])
        body = lines
        dims = [(int(m.group(1)), int(m.group(2))) for m in map(_SL2.match, lines) if m]
        if k < 1 or dims != [(j, 4 ** j) for j in range(1, k + 1)]:
            problems.append(f"dimensions {dims} are not 4^j for j = 1..{k}")
    else:
        subject = argv[1]
        rank = len(cartan(argv[argv.index("--type") + 1]))
        bound = int(argv[argv.index("--bound") + 1])
        body = lines[1:]
        if bound < 1:
            problems.append(f"bound {bound} gives a vacuous box")
        counts = []
        for line in body:
            for m in _COUNT.finditer(line):
                n = int(m.group(1) or m.group(3))
                counts.append(n)
                want = (bound + 1) ** rank if m.group(2) == "dominant weights" else (2 * bound + 1) ** rank
                if n != want:
                    problems.append(f"box reports {n} where bound {bound} gives {want}: {line}")
        if subject not in ("braid", "xcommute") and not counts:
            problems.append("no line reports the size of the box")
        if subject == "xcommute" and re.search(r"\(0 weights\)", stdout):
            problems.append("a commutation check ran over 0 weights")
    if not body:
        problems.append("empty report")
    for line in body:
        if not line.startswith("PASS "):
            problems.append(f"not a PASS line: {line}")
    return problems
