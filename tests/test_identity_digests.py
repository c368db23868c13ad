"""Byte-identity gate: one sha256 per input over every field of its answer.

tests/data/identity_digests.json holds the digests of
  - every EigenResult field (term and factor order included) of nonsym_e on the weights of
    the benchmark's e-table boxes and of acceptance criterion 6;
  - sym_p as text, JSON and LaTeX on the benchmark's p-table weights.
A change that claims byte-identical answers must leave every digest as it is.  To print the
digests of the code in the working tree, as the file holds them:

    PYTHONPATH=src python tests/test_identity_digests.py
"""

import hashlib
import itertools
import json
from pathlib import Path

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


def digests() -> dict[str, str]:
    out = {_key("e", name, lam): e_digest(name, lam) for name, lam in e_inputs()}
    out.update({_key("p", name, lam): p_digest(name, lam) for name, lam in p_inputs()})
    return out


def test_identity_digests():
    expected = json.loads(DIGESTS.read_text())
    got = digests()
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} answers changed, first {changed[:5]}"


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
