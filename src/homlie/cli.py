"""Command-line front end.

Subcommands: bracket, verify, table, diagram, catalogue, specialize.
``verify all`` runs every suite and exits nonzero on the first failure;
the --perturb flag injects a fault into one structure constant or
cocycle value so the exit-code contract can be exercised end to end.
The default window comes from HOMLIE_WINDOW when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .algebra import Combo, GradedAlgebra, key_name, perturb_algebra
from .bracket import (
    bracket_forced,
    bracket_general,
    check_forced_conditions,
    cube,
    expand_in_d_basis,
    index_triples,
    jacobi_window,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from .derivation import make_context
from .errors import BadPerturbation, BadSize, ExprSyntaxError, HomlieError, UsageError
from .extension import (
    _assemble_extension,
    verify_centrality,
    verify_cocycle_condition,
    virasoro_cocycle,
)
from .families import (
    SL2_BASIS,
    SL2_COEFF,
    check_morphism,
    classical_witt,
    coefficient_of_d,
    diagram_report,
    inverse_twist_context,
    inverse_twist_example,
    sigma_sigma_witt,
    sl2_context,
    sl2_expand,
    sl2_pq,
    witt_context,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from .laurent import Endo
from .opcat import catalogue, verify_catalogue
from .parser import parse_laurent, parse_rational, parse_scalar
from .report import Report
from .scalar import Scalar


# The largest window or pair count.  The default windows (3 to 6) and the
# default 100 catalogue pairs are far below it, while the Jacobi sweeps
# grow as the cube of the window: at 1000 they hold about 8e9 triples.
MAX_SIZE = 1000


def _positive(name: str, value) -> int:
    """Reject a window or pair count that is not an integer from 1 to
    ``MAX_SIZE``, before anything is allocated: below 1 a sweep would
    pass vacuously."""
    if not (isinstance(value, int) and 1 <= value <= MAX_SIZE):
        text = value if isinstance(value, str) else _shown(value)
        raise BadSize(f"{name} must be an integer from 1 to {MAX_SIZE}, got {text[:20]}"
                      + ("..." if len(text) > 20 else ""))
    return value


def _default_window(args_window: int | None, fallback: int) -> int:
    if args_window is not None:
        return _positive("--window", args_window)
    env = os.environ.get("HOMLIE_WINDOW")
    if env:
        with contextlib.suppress(ValueError):
            env = int(env)
        return _positive("HOMLIE_WINDOW", env)
    return fallback


def _shown(value) -> str:
    """``str(value)``, or BadSize past Python's integer-string limit."""
    try:
        return str(value)
    except ValueError:
        raise BadSize(f"the value has more than {sys.get_int_max_str_digits()} digits") from None


def _endo_from_text(text: str) -> Endo:
    poly = parse_laurent(text)
    if not poly.is_unit():
        raise ExprSyntaxError(0, "a single term c*t^k for an endomorphism image")
    ((k, c),) = poly.coeffs.items()
    return Endo(c, k)


def cmd_bracket(args) -> int:
    tau = _endo_from_text(args.tau)
    sigma = _endo_from_text(args.sigma)
    override = parse_laurent(args.gcd) if args.gcd else None
    ctx = make_context(tau, sigma, override_g=override)
    a = parse_laurent(args.a)
    b = parse_laurent(args.b)
    if args.kind == "general":
        coeff = bracket_general(ctx, a, b)
    else:
        coeff = bracket_forced(ctx, a, b, use_tau=(args.kind == "forced-tau"))
    print(f"coefficient: {_shown(coeff)}")
    if args.basis == "d":
        print(f"d-basis: {_shown(expand_in_d_basis(coeff))}")
    if ctx.delta is not None:
        print(f"delta: {_shown(ctx.delta)}")
    return 0


FAMILIES = {
    "witt": witt_pq,
    "witt-forced": witt_pq_forced,
    "witt-r": witt_r,
    "witt-classical": classical_witt,
    "sigma-sigma": lambda: sigma_sigma_witt("t-partial"),
    "sl2": sl2_pq,
    "inverse": inverse_twist_example,
}


def _witt_reach(window: int) -> range:
    """Structure checks sweep the window, Hom-Jacobi its own window."""
    reach = max(window, jacobi_window(window))
    return range(-reach, reach + 1)


# suite -> the keys its checks reach at a window; only these take a fault
_REACH = {
    "witt": _witt_reach,
    "witt-forced": _witt_reach,
    "sigma-sigma": _witt_reach,
    "inverse": lambda window: range(-jacobi_window(window), jacobi_window(window) + 1),
    "sl2": lambda window: SL2_BASIS,
    "virasoro": lambda window: range(-window, window + 1),
}


def _parse_perturbation(spec: str, names: list[str], window: int):
    """SUITE:i,j for a structure constant, virasoro:n for the cocycle.
    The suite must be one that runs, and every key one its checks reach,
    or the fault would never be seen."""
    target, _, where = spec.partition(":")
    if target not in _REACH or target not in names:
        raise BadPerturbation(f"--perturb {spec} names no suite of this run that takes a fault")
    keys = tuple(
        int(piece) if re.fullmatch(r"-?[0-9]+", piece) else piece
        for piece in (piece.strip() for piece in where.split(","))
    )
    reach = _REACH[target](window)
    arity = 1 if target == "virasoro" else 2
    if len(keys) != arity or any(k not in reach for k in keys):
        shown = f"{reach.start}..{reach.stop - 1}" if isinstance(reach, range) else ",".join(reach)
        raise BadPerturbation(
            f"--perturb {spec}: {target} takes {arity} key(s) from {shown} at window {window}"
        )
    return target, (keys[0], -keys[0]) if target == "virasoro" else keys


def _apply_perturbation(alg: GradedAlgebra, name: str, perturb) -> GradedAlgebra:
    if perturb is None or perturb[0] != name:
        return alg
    i, j = perturb[1]
    target = alg.bracket_gen(i, j)
    bump_key = next(iter(target.terms), (i + j if isinstance(i, int) else i))
    return perturb_algebra(alg, (i, j), Combo.basis(bump_key))


def _check_structure(report: Report, alg: GradedAlgebra, window: int, anchor: str, via_ops,
                     witness: str) -> None:
    """Check on each pair of keys that the operator route ``via_ops(i, j)``
    gives the bracket; ``witness`` formats the two on failure."""
    keys = alg.keys(window)
    for i in keys:
        for j in keys:
            ops, table = via_ops(i, j), alg.bracket_gen(i, j)
            ok = ops == table
            report.check(f"structure-({i},{j})", anchor, ok,
                         witness=None if ok else witness.format(ops, table))


def _suite_witt(window: int, perturb) -> Report:
    alg = _apply_perturbation(witt_pq(), "witt", perturb)
    report = Report(suite="witt", window=window)
    ctx = witt_context()
    _check_structure(report, alg, window, "witt-structure", ctx.algebra.bracket_gen,
                     "operators give {}, table gives {}")
    triples = index_triples(jacobi_window(window))
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, triples))
    report.absorb("quasi-jacobi", "quasi-jacobi", verify_quasi_jacobi(ctx, triples))
    return report


def _suite_witt_forced(window: int, perturb) -> Report:
    alg = _apply_perturbation(witt_pq_forced(), "witt-forced", perturb)
    report = Report(suite="witt-forced", window=window)
    ctx = witt_context()
    report.absorb("conditions", "forced-conditions", check_forced_conditions(ctx, window=window))
    _check_structure(report, alg, window, "forced-structure", lambda n, m: expand_in_d_basis(
        bracket_forced(ctx, coefficient_of_d(n), coefficient_of_d(m))), "{} vs {}")
    report.absorb("hom-jacobi", "hom-jacobi",
                  verify_hom_jacobi(alg, index_triples(jacobi_window(window))))
    return report


def _suite_sl2(window: int, perturb) -> Report:
    alg = _apply_perturbation(sl2_pq(), "sl2", perturb)
    report = Report(suite="sl2", window=window)
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, cube(alg.keys(window))))
    ctx = sl2_context()
    _check_structure(report, alg, window, "sl2-structure", lambda x, y: sl2_expand(
        bracket_general(ctx, SL2_COEFF[x], SL2_COEFF[y])), "{} vs {}")
    return report


def _suite_sigma_sigma(window: int, perturb) -> Report:
    alg = _apply_perturbation(sigma_sigma_witt("t-partial"), "sigma-sigma", perturb)
    report = Report(suite="sigma-sigma", window=window)
    report.absorb("jacobi", "hom-jacobi",
                  verify_hom_jacobi(alg, index_triples(jacobi_window(window))))
    phi = lambda n: Combo.basis(n, Scalar.p())
    report.absorb("lie-isomorphism", "scale-isomorphism",
                  check_morphism(phi, classical_witt(), alg, window))
    return report


def _suite_inverse(window: int, perturb) -> Report:
    alg = _apply_perturbation(inverse_twist_example(), "inverse", perturb)
    report = Report(suite="inverse", window=window)
    triples = index_triples(jacobi_window(window))
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, triples))
    report.absorb("quasi-jacobi", "quasi-jacobi",
                  verify_quasi_jacobi(inverse_twist_context(), triples))
    return report


def _suite_virasoro(window: int, perturb) -> Report:
    report = Report(suite="virasoro", window=window)
    g = virasoro_cocycle()
    if perturb is not None and perturb[0] == "virasoro":
        g = g.perturbed(perturb[1], Scalar.one())
    base = witt_pq()
    sub = verify_cocycle_condition(g, base, window=window)
    report.check("cocycle-condition", "cocycle-condition", sub.ok,
                 witness=sub.witness(labelled=True))
    if sub.ok:
        ext = _assemble_extension(base, g, window)
        report.absorb("centrality", "centrality", verify_centrality(ext, window=window))
    return report


# suite name -> runner(window, perturb); the order is the order of ``verify all``
_SUITES = {
    "witt": _suite_witt,
    "witt-forced": _suite_witt_forced,
    "sl2": _suite_sl2,
    "sigma-sigma": _suite_sigma_sigma,
    "inverse": _suite_inverse,
    "virasoro": _suite_virasoro,
    "diagram": lambda window, perturb: diagram_report(window=window),
    "catalogue": lambda window, perturb: verify_catalogue(),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, window: int, perturb=None) -> Report:
    runner = _SUITES.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}")
    return runner(_positive("window", window), perturb)


def cmd_verify(args) -> int:
    window = _default_window(args.window, 4)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    perturb = _parse_perturbation(args.perturb, names, window) if args.perturb else None
    reports = []
    for name in names:
        rep = run_suite(name, window, perturb=perturb)
        reports.append(rep)
        marker = "ok " if rep.ok else "FAIL"
        print(f"[{marker}] {rep.summary()}")
        if not rep.ok:
            print(f"       witness: {rep.witness(labelled=True)}")
    payload = [r.to_dict() for r in reports]
    _write_json(payload if len(payload) > 1 else payload[0], args.json)
    return 0 if all(r.ok for r in reports) else 1


def cmd_table(args) -> int:
    window = _default_window(args.window, 3)
    specialize = None
    if args.specialize:
        specialize = (parse_rational(args.specialize[0]), parse_rational(args.specialize[1]))

    if args.family == "virasoro":
        g = virasoro_cocycle()
        rows = [{"n": n, "coefficient": _shown(g.specialize(n, -n, *specialize)) if specialize
                 else str(g.value(n, -n))} for n in range(-window, window + 1)]
        for row in rows:
            print(f"g({key_name(row['n'])}, {key_name(-row['n'])}) = {row['coefficient']}")
        _write_json(rows, args.json)
        return 0

    alg = FAMILIES[args.family]()
    keys = alg.keys(window)
    rows = []
    # every row is built before any is printed: a pole in a later pair
    # leaves no partial table
    for i in keys:
        for j in keys:
            combo = alg.bracket_gen(i, j)
            coefficients = []
            terms = combo.terms
            for k in sorted(terms, key=lambda x: (isinstance(x, str), x)):
                value = terms[k]
                text = _shown(value.specialize(*specialize) if specialize else value)
                coefficients.append({"index": k, "scalar": text})
            rows.append({"n": i, "m": j, "coefficients": coefficients})

    for row in rows:
        shown = " + ".join(
            f"({c['scalar']}) {key_name(c['index'])}" for c in row["coefficients"]) or "0"
        print(f"[{key_name(row['n'])}, {key_name(row['m'])}] = {shown}")
    _write_json(rows, args.json)
    return 0


def _write_json(payload, path: str | None) -> None:
    """The --json report of every subcommand: indented, newline-terminated;
    nothing is written without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def cmd_diagram(args) -> int:
    window = _default_window(args.window, 4)
    rep = diagram_report(window=window)
    for e in rep.entries:
        print(f"[{e.status:4}] {e.id}" + (f"  ({e.witness})" if e.witness else ""))
    _write_json([
        {"edge": e.id, "status": e.status, **({"witness": e.witness} if e.witness else {})}
        for e in rep.entries
    ], args.json)
    return 0 if rep.ok else 1


def cmd_catalogue(args) -> int:
    rep = verify_catalogue(pairs=_positive("--pairs", args.pairs))
    rows = []
    for entry, verdict in zip(catalogue(), rep.entries):
        rows.append({"name": entry.name, "pair": entry.pair, "status": verdict.status})
        print(f"[{'ok ' if verdict.status == 'pass' else 'FAIL'}] {entry.name:34} {entry.pair}")
    _write_json(rows, args.json)
    return 0 if rep.ok else 1


def cmd_specialize(args) -> int:
    value = parse_scalar(args.expr)
    p0 = parse_rational(args.p0)
    q0 = parse_rational(args.q0)
    print(_shown(value.specialize(p0, q0)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Errors (its subparsers share its class) go to ``main``'s one line,
    which shows the user's input as typed, never as a Python repr."""

    def error(self, message: str):
        raise UsageError(message)

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(
                action, f"invalid choice: {value} (choose from {', '.join(action.choices)})")


def _integer(text: str) -> int | str:
    """``int`` for argparse, refusing in words rather than a repr; a digit
    string past the integer-string limit stays text, for ``_positive``."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            return text
        raise argparse.ArgumentTypeError(f"expected an integer, got {text or 'nothing'}") from None


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="homlie",
        description="Exact kernel for twisted derivations, deformed Witt/Virasoro "
        "algebras and their verification suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bracket", help="evaluate a bracket of module elements a.D, b.D")
    b.add_argument("--tau", required=True, help="image of t under tau, e.g. 'p*t' or 't^-1'")
    b.add_argument("--sigma", required=True, help="image of t under sigma, e.g. 'q*t'")
    b.add_argument("--gcd", help="override the canonical g")
    b.add_argument("-a", required=True, help="first coefficient, e.g. '-t^2'")
    b.add_argument("-b", required=True, help="second coefficient, e.g. '-t'")
    b.add_argument("--kind", choices=("general", "forced-sigma", "forced-tau"),
                   default="general")
    b.add_argument("--basis", choices=("d",), help="also print the d-basis expansion")
    b.set_defaults(fn=cmd_bracket)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))
    v.add_argument("--window", type=_integer)
    v.add_argument("--json", help="write the report to this path")
    v.add_argument("--perturb", help="inject a fault, e.g. witt:1,2 or virasoro:3")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("table", help="print structure constants")
    t.add_argument("family", choices=tuple(FAMILIES) + ("virasoro",))
    t.add_argument("--window", type=_integer)
    t.add_argument("--specialize", nargs=2, metavar=("P0", "Q0"))
    t.add_argument("--json")
    t.set_defaults(fn=cmd_table)

    d = sub.add_parser("diagram", help="verify the deformation-summary diagrams")
    d.add_argument("--window", type=_integer)
    d.add_argument("--json")
    d.set_defaults(fn=cmd_diagram)

    c = sub.add_parser("catalogue", help="verify the operator catalogue")
    c.add_argument("--pairs", type=_integer, default=100)
    c.add_argument("--json")
    c.set_defaults(fn=cmd_catalogue)

    s = sub.add_parser("specialize", help="evaluate a scalar at rational (p0, q0)")
    s.add_argument("expr")
    s.add_argument("p0")
    s.add_argument("q0")
    s.set_defaults(fn=cmd_specialize)

    return ap


def _absorb_expression_values(argv: list[str]) -> list[str]:
    """Join '-a -t^2' into '-a=-t^2' so expressions that begin with a
    minus sign survive argparse."""
    joined = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in ("-a", "-b", "--gcd", "--tau", "--sigma") else None
        joined.append(tok if value is None else f"{tok}={value}")
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_arg_parser().parse_args(_absorb_expression_values(argv))
        return args.fn(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (HomlieError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
