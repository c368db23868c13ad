"""Command-line front end.

Verbs:

    e         nonsymmetric Macdonald polynomial for a weight
    p         symmetric Macdonald polynomial for a dominant weight
    y         apply a Y-operator to a polynomial given as JSON
    verify    relation / property suites (hecke, braid, xcommute,
              symmetrizer, order, demazure)
    order     compare two weights in the Cherednik order
    demazure  iterated Demazure-operator character
    sl2       the module laboratory (build, char, validate)

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import nullcontext

from .roots import root_system
from .polyring import (
    QTLaurent,
    integral_form,
    laurent_from_json,
    laurent_to_json,
    laurent_to_latex,
    laurent_to_text,
)
from .hecke import (
    demazure_char,
    verify_demazure,
    verify_relations,
    verify_symmetrizer,
    y_op,
)
from .orders import verify_order
from . import macdonald
from . import sl2 as sl2lab


def _parse_weight(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _emit(f: QTLaurent, fmt: str) -> str:
    if fmt == "json":
        import json  # only JSON output and input need it, so the other calls start faster

        return json.dumps(laurent_to_json(f), separators=(",", ":"))
    if fmt == "latex":
        return laurent_to_latex(f)
    return laurent_to_text(f)


def _weight_line(job) -> tuple[str, str | None]:
    """One weight of `e` or `p`: its output line and its stderr note, if any."""
    args, weight = job
    rs = root_system(args.type)
    lam = _parse_weight(weight)
    note = None
    if args.verb == "p":
        poly = macdonald.sym_p(rs, lam)
    else:
        res = macdonald.nonsym_e(rs, lam)
        poly = integral_form(res.cleared, lam) if args.integral else res.e_poly
        if res.conjectural and args.format == "text":
            note = f"# note: {lam} is not dominant; the eigenvalue formula is conjecture-level"
    line = _emit(poly, args.format)
    return (f"{weight}: {line}" if len(args.weight) > 1 else line), note


def _cmd_weights(args) -> int:
    """`e` and `p`: one line per weight, in order; --jobs > 1 spreads the weights over processes."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    parallel = args.jobs > 1 and len(args.weight) > 1
    if parallel:  # the pool modules add about a third to start-up, so only a pool imports them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
    with ProcessPoolExecutor(args.jobs, mp_context=get_context("spawn")) if parallel else nullcontext() as pool:
        for line, note in (pool.map if parallel else map)(_weight_line, [(args, w) for w in args.weight]):
            print(line)
            if note:
                print(note, file=sys.stderr)
    return 0


def _cmd_y(args) -> int:
    import json

    rs = root_system(args.type)
    mu = _parse_weight(args.mu)
    if args.apply == "-":
        data = json.load(sys.stdin)
    else:
        data = json.loads(args.apply)
    f = laurent_from_json(rs, data)
    print(_emit(y_op(rs, mu, f), args.format))
    return 0


# the suites are looked up by their module-level names at call time, so a rebinding is seen
_SUITES = {
    "hecke": lambda rs, bound: verify_relations(rs, bound),
    "braid": lambda rs, bound: verify_relations(rs, bound, ("braid",)),
    "xcommute": lambda rs, bound: verify_relations(rs, bound, ("xcommute",)),
    "symmetrizer": lambda rs, bound: verify_symmetrizer(rs, bound),
    "order": lambda rs, bound: verify_order(rs, bound),
    "demazure": lambda rs, bound: verify_demazure(rs, bound),
}


def _cmd_verify(args) -> int:
    report = _SUITES[args.subject](root_system(args.type), args.bound)
    print(report.title)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_order(args) -> int:
    rs = root_system(args.type)
    a, b = rs.check_weight(_parse_weight(args.a)), rs.check_weight(_parse_weight(args.b))
    print(rs.cherednik_cmp(a, b))
    return 0


def _cmd_demazure(args) -> int:
    rs = root_system(args.type)
    word = tuple(int(p) for p in args.word.split(",")) if args.word else ()
    lam = _parse_weight(args.weight)
    print(_emit(demazure_char(rs, word, lam), args.format))
    return 0


def _cmd_sl2(args) -> int:
    if args.action == "build":
        rep = sl2lab.fusion(args.k)
        rep.check_brackets()
        print(f"fusion({args.k}): dimension {rep.dim}, cyclic, brackets verified")
        return 0
    if args.action == "char":
        f = sl2lab.graded_character(sl2lab.fusion(args.k))
        print(_emit(f, args.format))
        return 0
    ok = True  # the remaining action, validate
    for r in sl2lab.cross_validate(args.k):
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} k={r.k}: dim {r.dimension}, char {laurent_to_text(r.character)}")
        for name, good, detail in r.checks:
            if not good:
                ok = False
                print(f"  FAIL {name}: {detail}")
    return 0 if ok else 1


_COMMANDS = {
    "e": _cmd_weights,
    "p": _cmd_weights,
    "y": _cmd_y,
    "verify": _cmd_verify,
    "order": _cmd_order,
    "demazure": _cmd_demazure,
    "sl2": _cmd_sl2,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="daha", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb")

    def common(p, weights=False):
        p.add_argument("--type", required=True, help="root system name (A1, A2, B2, C2, A1xA1, A3, ...)")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        if weights:
            p.add_argument("--weight", required=True, nargs="+",
                           help="weight(s) as comma-separated fundamental-weight coordinates")
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers across independent weights")

    pe = sub.add_parser("e", help="nonsymmetric Macdonald polynomial")
    common(pe, weights=True)
    pe.add_argument("--integral", action="store_true", help="integral form")

    pp = sub.add_parser("p", help="symmetric Macdonald polynomial")
    common(pp, weights=True)

    py = sub.add_parser("y", help="apply Y^mu to a polynomial")
    common(py)
    py.add_argument("--mu", required=True, help="coroot vector, comma-separated")
    py.add_argument("--apply", required=True, help="polynomial JSON (or - for stdin)")

    pv = sub.add_parser("verify", help="relation/property suites")
    pv.add_argument("subject", choices=tuple(_SUITES))
    pv.add_argument("--type", required=True)
    pv.add_argument("--bound", type=int, default=3)

    po = sub.add_parser("order", help="Cherednik order comparison")
    po.add_argument("action", choices=("cmp",))
    po.add_argument("--type", required=True)
    po.add_argument("--a", required=True)
    po.add_argument("--b", required=True)

    pd = sub.add_parser("demazure", help="iterated Demazure character")
    common(pd)
    pd.add_argument("--word", default="", help="word over finite indices, comma-separated")
    pd.add_argument("--weight", required=True)

    ps = sub.add_parser("sl2", help="module laboratory")
    ps.add_argument("action", choices=("build", "char", "validate"))
    ps.add_argument("-k", type=int, default=2)
    ps.add_argument("--format", choices=("text", "json", "latex"), default="text")

    # argparse takes a token for a value only if it looks like a negative number such as -1;
    # widen that to comma lists such as -1,0, so negative weights parse in every option
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")
    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.verb is None:
        ap.print_usage()
        return 2
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
