"""Byte-identity gate: one sha256 per input over every field of its answer.

tests/data/identity_digests.json holds the digests of
  - every EigenResult field (term and factor order included) of nonsym_e on the weights of
    the benchmark's e-table boxes and of acceptance criterion 6;
  - sym_p as text, JSON and LaTeX on the benchmark's p-table weights and on the p-large weights;
  - every EigenResult field of nonsym_e on the e-large weights: wide E_lam with many waypoints.
    The first E_LARGE_TIER1 of them run in every test run, the rest only with RUN_E_LARGE=1.
A change that claims byte-identical answers must leave every digest as it is.  To print the
digests of the code in the working tree, as the file holds them (a test runs this under
PYTHONHASHSEED=3 and compares the output with the file's entries other than the opt-in ones):

    PYTHONPATH=src python tests/test_identity_digests.py           # without the opt-in e-large digests
    PYTHONPATH=src python tests/test_identity_digests.py --large   # every digest: the whole file
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from daha import macdonald
from daha.polyring import laurent_to_json, laurent_to_latex, laurent_to_text
from daha.qt import poly_to_json, ratqt_to_json
from daha.roots import root_system, weight_box

DIGESTS = Path(__file__).parent / "data" / "identity_digests.json"


def _box(name: str, bound: int) -> list:
    return [(name, lam) for lam in weight_box([bound] * root_system(name).rank)]


def e_inputs() -> list:
    """The e-table boxes, then the criterion-6 weights (box 4, lower sets of at most 40) not among them."""
    out = _box("A1", 4) + _box("A2", 2) + _box("B2", 2) + _box("C2", 2) + _box("A3", 1)
    seen = set(out)
    for name, lam in _box("A1", 4) + _box("A2", 4) + _box("B2", 4):
        if (name, lam) not in seen and len(root_system(name).lower_set(lam)) <= 40:
            out.append((name, lam))
    return out


def p_inputs() -> list:
    """The p-table weights."""
    def dominant(rank, top):
        return list(itertools.product(range(top + 1), repeat=rank))

    return ([("A1", (k,)) for k in range(7)]
            + [("A2", w) for w in dominant(2, 3) if w != (3, 3)]
            + [("B2", w) for w in dominant(2, 3) if sum(w) <= 3 and w != (3, 0)]
            + [("C2", w) for w in dominant(2, 3) if sum(w) <= 3 and w != (0, 3)]
            + [("A3", w) for w in dominant(3, 2) if sum(w) <= 2])


def p_large_inputs() -> list:
    """Dominant weights past the p-table, with wide orbit frames: about 1.5 s together."""
    return ([("A1", (k,)) for k in (7, 8, 9)]
            + [("A2", (3, 3)), ("A2", (4, 4)), ("B2", (3, 0)), ("B2", (3, 3)), ("B2", (4, 4)), ("C2", (0, 3)),
               ("A3", (2, 2, 2))])


def e_large_inputs() -> list:
    """The e-large weights, the first E_LARGE_TIER1 cheap enough for every run (about 0.3 s each).  B2 (4,-4)
    and (-4,4) are criterion-6 weights, among e_inputs."""
    return [("B2", (4, 4)), ("A3", (-2, -2, -2)), ("B2", (-4, -4)), ("B2", (5, 5)), ("A3", (3, 3, 3)),
            ("A4", (-1, -1, -1, -1)), ("A1", (30,)), ("A1", (-30,))]


E_LARGE_TIER1 = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def e_digest(name: str, lam: tuple) -> str:
    r = macdonald.nonsym_e(root_system(name), lam)
    fields = {
        "e_poly": [laurent_to_json(r.e_poly), [list(w) for w in r.e_poly.terms]],
        "cleared": [laurent_to_json(r.cleared), [list(w) for w in r.cleared.terms]],
        "clearing": poly_to_json(r.clearing),
        "clearing_factors": [[poly_to_json(f), m] for f, m in r.clearing_factors.items()],
        "eigenvalue": ratqt_to_json(r.eigenvalue),
        "basis": [list(w) for w in r.basis],
        "mu_used": list(r.mu_used),
        "conjectural": r.conjectural,
    }
    return _sha(json.dumps(fields, separators=(",", ":")))


def p_digest(name: str, lam: tuple) -> str:
    p = macdonald.sym_p(root_system(name), lam)
    json_text = json.dumps(laurent_to_json(p), separators=(",", ":"))
    return _sha("\n".join((laurent_to_text(p), json_text, laurent_to_latex(p))))


def _key(verb: str, name: str, lam: tuple) -> str:
    return f"{verb} {name} {','.join(map(str, lam))}"


def digests(large: bool = False) -> dict[str, str]:
    """The digests of the file's inputs, without the opt-in e-large ones unless large."""
    out = {_key("e", name, lam): e_digest(name, lam) for name, lam in e_inputs()}
    out.update({_key("p", name, lam): p_digest(name, lam) for name, lam in p_inputs() + p_large_inputs()})
    e_large = e_large_inputs() if large else e_large_inputs()[:E_LARGE_TIER1]
    out.update({_key("e", name, lam): e_digest(name, lam) for name, lam in e_large})
    return out


def _render(d: dict[str, str]) -> str:
    return json.dumps(d, indent=1) + "\n"


def _expected(large: bool = False) -> dict[str, str]:
    """The file's digests, without the opt-in e-large ones unless large."""
    expected = json.loads(DIGESTS.read_text())
    if not large:
        for name, lam in e_large_inputs()[E_LARGE_TIER1:]:
            del expected[_key("e", name, lam)]
    return expected


def _changed(got: dict[str, str], expected: dict[str, str]) -> list[str]:
    assert got.keys() == expected.keys()
    return [key for key in expected if got[key] != expected[key]]


def test_identity_digests():
    changed = _changed(digests(), _expected())
    assert not changed, f"{len(changed)} answers changed, first {changed[:5]}"


@pytest.mark.skipif(not os.environ.get("RUN_E_LARGE"), reason="optional e-large digests")
def test_large_identity_digests():
    # the opt-in e-large weights, about 8 s together in one process; budget 30 s
    expected = _expected(large=True)
    t0 = time.time()
    got = {_key("e", name, lam): e_digest(name, lam) for name, lam in e_large_inputs()}
    elapsed = time.time() - t0
    changed = [key for key, d in got.items() if d != expected[key]]
    assert not changed, f"{len(changed)} answers changed: {changed}"
    assert elapsed < 30


def test_planted_sign_fault_changes_exactly_its_digest(monkeypatch):
    # one coefficient's sign flipped on one large weight changes that weight's digest and no other
    name, lam = e_large_inputs()[0]
    real = macdonald.nonsym_e

    def faulty(rs, weight):
        r = real(rs, weight)
        if (rs.name, tuple(weight)) == (name, lam):
            w = next(iter(r.e_poly.terms))
            r.e_poly.terms[w] = -r.e_poly.terms[w]
        return r

    monkeypatch.setattr(macdonald, "nonsym_e", faulty)
    inputs = e_large_inputs()[:E_LARGE_TIER1] + e_inputs()[:3]
    expected = _expected()
    got = {_key("e", n, w): e_digest(n, w) for n, w in inputs}
    assert _changed(got, {key: expected[key] for key in got}) == [_key("e", name, lam)]


def test_printed_digests_are_the_file_under_another_hash_seed():
    # the script's output is the file, less the opt-in entries, byte for byte in a fresh interpreter with
    # another string-hash seed: no answer depends on the order of a set or dict of strings
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "3",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == _render(_expected())


if __name__ == "__main__":
    sys.stdout.write(_render(digests(large="--large" in sys.argv[1:])))
