"""Command-line front end.

Subcommands: bracket, verify, table, diagram, catalogue, specialize.
``verify all`` runs every suite and exits nonzero on the first failure;
the --perturb flag injects a fault into one structure constant or
cocycle value so the exit-code contract can be exercised end to end.
The default window comes from HOMLIE_WINDOW when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import Combo, GradedAlgebra, perturb_algebra
from .bracket import (
    bracket_forced,
    bracket_general,
    check_forced_conditions,
    index_triples,
    verify_hom_jacobi,
    verify_quasi_jacobi,
    monomial_triples,
)
from .derivation import make_context
from .errors import BadSize, ExprSyntaxError, HomlieError
from .extension import (
    _assemble_extension,
    verify_centrality,
    verify_cocycle_condition,
    virasoro_cocycle,
)
from .families import (
    SL2_COEFF,
    ScaleMorphism,
    bracket_via_context,
    check_morphism,
    classical_witt,
    diagram_report,
    expand_in_d_basis,
    inverse_twist_example,
    sigma_sigma_witt,
    sl2_expand,
    sl2_pq,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from .laurent import Endo, LaurentPoly
from .opcat import catalogue, verify_catalogue
from .parser import parse_laurent, parse_rational, parse_scalar
from .report import Report
from .scalar import Scalar


def _positive(name: str, value: int) -> int:
    """Reject a window or pair count below 1: an empty sweep would pass
    vacuously."""
    if value < 1:
        raise BadSize(f"{name} must be a positive integer, got {value}")
    return value


def _default_window(args_window: int | None, fallback: int) -> int:
    if args_window is not None:
        return _positive("--window", args_window)
    env = os.environ.get("HOMLIE_WINDOW")
    if env:
        try:
            window = int(env)
        except ValueError:
            raise BadSize(f"HOMLIE_WINDOW must be a positive integer, got {env!r}") from None
        return _positive("HOMLIE_WINDOW", window)
    return fallback


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
    print(f"coefficient: {coeff}")
    if args.basis == "d":
        print(f"d-basis: {expand_in_d_basis(coeff)}")
    if ctx.delta is not None:
        print(f"delta: {ctx.delta}")
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


def _parse_perturbation(spec: str):
    """SUITE:i,j for a structure constant, virasoro:n for the cocycle."""
    try:
        target, _, where = spec.partition(":")
        if target == "virasoro":
            return target, (int(where), -int(where))
        keys = []
        for piece in where.split(","):
            piece = piece.strip()
            keys.append(int(piece) if piece.lstrip("-").isdigit() else piece)
        return target, tuple(keys)
    except ValueError:
        raise ExprSyntaxError(0, "a perturbation like witt:1,2 or virasoro:3") from None


def _apply_perturbation(alg: GradedAlgebra, name: str, perturb) -> GradedAlgebra:
    if perturb is None or perturb[0] != name:
        return alg
    i, j = perturb[1]
    target = alg.bracket_gen(i, j)
    bump_key = next(iter(target.terms), (i + j if isinstance(i, int) else i))
    return perturb_algebra(alg, (i, j), Combo.basis(bump_key))


def _suite_witt(window: int, perturb) -> Report:
    alg = _apply_perturbation(witt_pq(), "witt", perturb)
    report = Report(suite="witt", window=window)
    ctx = alg.provenance["ctx"]
    coeff = alg.provenance["coeff"]
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            via_ops = expand_in_d_basis(bracket_general(ctx, coeff(n), coeff(m)))
            ok = via_ops == alg.bracket_gen(n, m)
            report.check(
                f"structure-({n},{m})", "witt-structure", ok,
                witness=None if ok else f"operators give {via_ops}, "
                f"table gives {alg.bracket_gen(n, m)}",
            )
    small = max(2, window - 2)
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, index_triples(small)))
    report.absorb("quasi-jacobi", "quasi-jacobi", verify_quasi_jacobi(ctx, monomial_triples(small)))
    return report


def _suite_witt_forced(window: int, perturb) -> Report:
    alg = _apply_perturbation(witt_pq_forced(), "witt-forced", perturb)
    report = Report(suite="witt-forced", window=window)
    ctx = alg.provenance["ctx"]
    report.absorb("conditions", "forced-conditions", check_forced_conditions(ctx, window=window))
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            via_ops = expand_in_d_basis(
                bracket_forced(ctx, -LaurentPoly.t(n), -LaurentPoly.t(m))
            )
            ok = via_ops == alg.bracket_gen(n, m)
            report.check(f"structure-({n},{m})", "forced-structure", ok,
                         witness=None if ok else f"{via_ops} vs {alg.bracket_gen(n, m)}")
    report.absorb("hom-jacobi", "hom-jacobi",
                  verify_hom_jacobi(alg, index_triples(max(2, window - 2))))
    return report


def _suite_sl2(window: int, perturb) -> Report:
    alg = _apply_perturbation(sl2_pq(), "sl2", perturb)
    report = Report(suite="sl2", window=window)
    basis = alg.keys(window)
    triples = [(x, y, z) for x in basis for y in basis for z in basis]
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, triples))
    ctx = alg.provenance.get("ctx")
    if ctx is not None:
        for x in basis:
            for y in basis:
                via = sl2_expand(bracket_via_context(ctx, lambda k: SL2_COEFF[k], x, y))
                ok = via == alg.bracket_gen(x, y)
                report.check(f"structure-({x},{y})", "sl2-structure", ok,
                             witness=None if ok else f"{via} vs {alg.bracket_gen(x, y)}")
    return report


def _suite_sigma_sigma(window: int, perturb) -> Report:
    alg = _apply_perturbation(sigma_sigma_witt("t-partial"), "sigma-sigma", perturb)
    report = Report(suite="sigma-sigma", window=window)
    report.absorb("jacobi", "hom-jacobi",
                  verify_hom_jacobi(alg, index_triples(max(2, window - 2))))
    phi = ScaleMorphism(c=lambda n: Scalar.p())
    report.absorb("lie-isomorphism", "scale-isomorphism",
                  check_morphism(phi, classical_witt(), alg, window))
    return report


def _suite_inverse(window: int, perturb) -> Report:
    alg = _apply_perturbation(inverse_twist_example(), "inverse", perturb)
    report = Report(suite="inverse", window=window)
    small = max(2, window - 2)
    report.absorb("hom-jacobi", "hom-jacobi", verify_hom_jacobi(alg, index_triples(small)))
    ctx = alg.provenance["ctx"]
    report.absorb("quasi-jacobi", "quasi-jacobi", verify_quasi_jacobi(ctx, monomial_triples(small)))
    return report


def _suite_virasoro(window: int, perturb) -> Report:
    report = Report(suite="virasoro", window=window)
    g = virasoro_cocycle()
    if perturb is not None and perturb[0] == "virasoro":
        g = g.perturbed(perturb[1], Scalar.one())
    base = witt_pq()
    sub = verify_cocycle_condition(g, base, window=window)
    report.check("cocycle-condition", "cocycle-condition", sub.ok,
                 witness=None if sub.ok else
                 f"{sub.first_failure().id}: {sub.first_failure().witness}")
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
    perturb = _parse_perturbation(args.perturb) if args.perturb else None
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rep = run_suite(name, window, perturb=perturb)
        reports.append(rep)
        marker = "ok " if rep.ok else "FAIL"
        print(f"[{marker}] {rep.summary()}")
        if not rep.ok:
            first = rep.first_failure()
            print(f"       witness: {first.id}: {first.witness}")
    if args.json:
        payload = [r.to_dict() for r in reports]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload if len(payload) > 1 else payload[0], fh, indent=2)
            fh.write("\n")
    return 0 if all(r.ok for r in reports) else 1


def cmd_table(args) -> int:
    window = _default_window(args.window, 3)
    specialize = None
    if args.specialize:
        specialize = (parse_rational(args.specialize[0]), parse_rational(args.specialize[1]))

    if args.family == "virasoro":
        g = virasoro_cocycle()
        rows = []
        for n in range(-window, window + 1):
            value = g.value(n, -n)
            if specialize:
                rows.append({"n": n, "coefficient": str(value.specialize(*specialize))})
            else:
                rows.append({"n": n, "coefficient": str(value)})
        _emit_table(rows, args.json)
        return 0

    alg = FAMILIES[args.family]()
    keys = alg.keys(window)
    rows = []
    for i in keys:
        for j in keys:
            combo = alg.bracket_gen(i, j)
            coefficients = []
            for k in sorted(combo.terms, key=lambda x: (isinstance(x, str), x)):
                value = combo.terms[k]
                text = str(value.specialize(*specialize)) if specialize else str(value)
                coefficients.append({"index": k, "scalar": text})
            rows.append({"n": i, "m": j, "coefficients": coefficients})

            def label(k) -> str:
                return f"d_{k}" if isinstance(k, int) else str(k)

            shown = " + ".join(
                f"({c['scalar']}) {label(c['index'])}" for c in coefficients) or "0"
            print(f"[{label(i)}, {label(j)}] = {shown}")
    _emit_table(rows, args.json)
    return 0


def _emit_table(rows, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")


def cmd_diagram(args) -> int:
    window = _default_window(args.window, 4)
    rep = diagram_report(window=window)
    for e in rep.entries:
        print(f"[{e.status:4}] {e.id}" + (f"  ({e.witness})" if e.witness else ""))
    if args.json:
        edges = [
            {"edge": e.id, "status": e.status, **({"witness": e.witness} if e.witness else {})}
            for e in rep.entries
        ]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(edges, fh, indent=2)
            fh.write("\n")
    return 0 if rep.ok else 1


def cmd_catalogue(args) -> int:
    pairs = _positive("--pairs", args.pairs)
    rep = Report(suite="catalogue")
    rows = []
    for entry in catalogue():
        sub = entry.verify(pairs=pairs)
        rep.check(entry.name, "product-rule", sub.ok)
        rows.append({"name": entry.name, "pair": entry.pair,
                     "status": "pass" if sub.ok else "fail"})
        print(f"[{'ok ' if sub.ok else 'FAIL'}] {entry.name:34} {entry.pair}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return 0 if rep.ok else 1


def cmd_specialize(args) -> int:
    value = parse_scalar(args.expr)
    p0 = parse_rational(args.p0)
    q0 = parse_rational(args.q0)
    print(value.specialize(p0, q0))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    v.add_argument("--window", type=int)
    v.add_argument("--json", help="write the report to this path")
    v.add_argument("--perturb", help="inject a fault, e.g. witt:1,2 or virasoro:3")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("table", help="print structure constants")
    t.add_argument("family", choices=tuple(FAMILIES) + ("virasoro",))
    t.add_argument("--window", type=int)
    t.add_argument("--specialize", nargs=2, metavar=("P0", "Q0"))
    t.add_argument("--json")
    t.set_defaults(fn=cmd_table)

    d = sub.add_parser("diagram", help="verify the deformation-summary diagrams")
    d.add_argument("--window", type=int)
    d.add_argument("--json")
    d.set_defaults(fn=cmd_diagram)

    c = sub.add_parser("catalogue", help="verify the operator catalogue")
    c.add_argument("--pairs", type=int, default=100)
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
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("-a", "-b", "--gcd", "--tau", "--sigma") and i + 1 < len(argv):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_absorb_expression_values(list(argv)))
    try:
        return args.fn(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except HomlieError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
