"""Bracket constructions on the module A*Delta and their verifiers.

Two constructions are provided.  The general bracket needs tau invertible
and returns the coefficient c of [a.D, b.D] = c.D through

    c = sigma(tau^-1(a)) * D(tau^-1(b)) - sigma(tau^-1(b)) * D(tau^-1(a)),

with an operator-composition oracle kept deliberately separate so the two
routes can be compared.  The forced bracket

    [a.D, b.D]' = (sigma(a) D(b) - sigma(b) D(a)) . D

drops the tau^-1 twists but is only Hom-Lie when sigma and tau commute
and D intertwines both up to one element delta.

The cyclic verifiers check the six-term quasi-Jacobi identity

    cyc( [sigma(tau^-1(a)).D, [b.D, c.D]] + delta * [a.D, [b.D, c.D]] ) = 0

and the three-term Hom-Jacobi identity on graded algebras.  Both are
trilinear, so both are checked on triples of indices: the exponents n
of the arguments -t^n = d_n for quasi-Jacobi, generator keys for
Hom-Jacobi, whose residue sweep ``jacobi_residues`` the cocycle
condition of ``extension`` shares.  Each rotation class is computed once
per sweep through ``algebra.cyclic_sweep``.  Both identities alternate
under a transposition of the triple when the inner bracket is skew, so
a verifier that has checked that (``algebra.is_skew``) takes the class
of (a, c, b) as the negated class of (a, b, c).
"""

from __future__ import annotations

from operator import neg
from typing import Callable, Iterable, Iterator

from .algebra import Combo, GradedAlgebra, Key, cyclic_sweep, is_skew
from .errors import ConditionsFailed, NotDivisible, NotInvertible
from .laurent import Endo, LaurentPoly, apply_endo, compose_endo, exact_div
from .report import Report


def _require_invertible(ctx) -> tuple[Endo, Endo]:
    if ctx.tau_inv is None:
        raise NotInvertible("the general bracket needs an invertible tau")
    return ctx.sigma_tau_inv, ctx.tau_inv


def bracket_general(ctx, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Coefficient c with [a.D, b.D] = c.D for the general bracket."""
    sti, ti = _require_invertible(ctx)
    left = apply_endo(sti, a) * ctx.apply_generator(apply_endo(ti, b))
    right = apply_endo(sti, b) * ctx.apply_generator(apply_endo(ti, a))
    return left - right


def bracket_general_operator_oracle(
    ctx, a: LaurentPoly, b: LaurentPoly
) -> Callable[[LaurentPoly], LaurentPoly]:
    """The bracket realized literally as a difference of operator
    compositions; the independent route used to cross-check
    ``bracket_general``."""
    sti, ti = _require_invertible(ctx)

    def op(f: LaurentPoly) -> LaurentPoly:
        df = ctx.apply_generator(f)
        first = apply_endo(sti, a) * ctx.apply_generator(
            apply_endo(ti, b) * apply_endo(ti, df)
        )
        second = apply_endo(sti, b) * ctx.apply_generator(
            apply_endo(ti, a) * apply_endo(ti, df)
        )
        return first - second

    return op


def check_forced_conditions(ctx, window: int = 6) -> Report:
    """Verify the forced-bracket hypotheses on the monomial window:
    sigma tau = tau sigma, D(sigma(a)) = delta sigma(D(a)) and
    D(tau(a)) = delta tau(D(a)), for a single element delta.

    The report carries the delta found (``report.data["delta"]``) and,
    when the context has a stored g, cross-checks it against sigma(g)/g
    and tau(g)/g.
    """
    report = Report(suite="forced-conditions", window=window)
    tau, sigma = ctx.tau, ctx.sigma
    report.check(
        "commute",
        "tau-sigma-commutation",
        compose_endo(tau, sigma) == compose_endo(sigma, tau),
        witness=f"sigma(tau(t)) = {compose_endo(sigma, tau)(LaurentPoly.t())}, "
        f"tau(sigma(t)) = {compose_endo(tau, sigma)(LaurentPoly.t())}",
    )

    delta: LaurentPoly | None = None
    for endo, label in ((sigma, "sigma"), (tau, "tau")):
        for n in range(-window, window + 1):
            tn = LaurentPoly.t(n)
            lhs = ctx.apply_generator(apply_endo(endo, tn))
            rhs = apply_endo(endo, ctx.apply_generator(tn))
            if rhs.is_zero():
                ok = lhs.is_zero()
                report.check(
                    f"{label}-intertwine-{n}", "delta-intertwine", ok,
                    witness=None if ok else f"D({label}(t^{n})) = {lhs} but {label}(D(t^{n})) = 0",
                )
                continue
            try:
                ratio = exact_div(lhs, rhs)
            except NotDivisible:
                report.check(
                    f"{label}-intertwine-{n}", "delta-intertwine", False,
                    witness=f"D({label}(t^{n})) not a multiple of {label}(D(t^{n}))",
                )
                continue
            if delta is None:
                delta = ratio
                report.check(f"{label}-intertwine-{n}", "delta-intertwine", True)
            else:
                ok = ratio == delta
                report.check(
                    f"{label}-intertwine-{n}", "delta-intertwine", ok,
                    witness=None if ok else f"ratio {ratio} != delta {delta}",
                )
    report.data["delta"] = delta

    g = getattr(ctx, "g", None)
    if g is not None and delta is not None:
        for endo, label in ((sigma, "sigma"), (tau, "tau")):
            try:
                ratio = exact_div(apply_endo(endo, g), g)
                ok = ratio == delta
                witness = None if ok else f"{label}(g)/g = {ratio} != {delta}"
            except NotDivisible:
                ok, witness = False, f"g does not divide {label}(g)"
            report.check(f"delta-from-g-{label}", "delta-ratio", ok, witness=witness)
    return report


def bracket_forced(ctx, a: LaurentPoly, b: LaurentPoly, use_tau: bool = False) -> LaurentPoly:
    """Coefficient of the forced bracket; ConditionsFailed when the
    hypotheses do not hold for this context."""
    cached = getattr(ctx, "_forced_report", None)
    if cached is None:
        cached = check_forced_conditions(ctx)
        ctx._forced_report = cached
    if not cached.ok:
        first = cached.first_failure()
        raise ConditionsFailed(f"forced bracket unavailable: {first.id} ({first.witness})")
    twist = ctx.tau if use_tau else ctx.sigma
    return apply_endo(twist, a) * ctx.apply_generator(b) - apply_endo(
        twist, b
    ) * ctx.apply_generator(a)


def verify_quasi_jacobi(ctx, triples: Iterable[tuple[int, int, int]]) -> Report:
    """Evaluate the six-term cyclic identity exactly for each exponent
    triple (a, b, c), which stands for the arguments (-t^a, -t^b, -t^c),
    that is (d_a, d_b, d_c).  The identity is Q(p,q)-trilinear, so these
    triples prove it on the span of the window's monomials.

    Both three-term groups are computed independently and reported next
    to their sum so a failure localizes to one group.  The groups are
    one per rotation class (``cyclic_sweep``).  The inner bracket
    [-t^b, -t^c] is read from a table of ``bracket_general`` on
    monomials (t^b, t^c), each computed once per call; the outer
    brackets are the Q(p,q)-bilinear extension of the same table.  When
    the table is skew on the triples' exponents, a transposed class
    takes the negated groups of its transpose.
    """
    report = Report(suite="quasi-jacobi")
    triples = list(triples)
    sti, _ = _require_invertible(ctx)
    delta = ctx.delta
    if delta is None:
        raise NotInvertible("context has no delta element")

    t = LaurentPoly.t
    table: dict[tuple[int, int], LaurentPoly] = {}

    def on_monomials(a: int, b: int) -> LaurentPoly:
        got = table.get((a, b))
        if got is None:
            got = table[(a, b)] = bracket_general(ctx, t(a), t(b))
        return got

    def term(a: int, b: int, c: int):
        x, w = -t(a), on_monomials(b, c)
        return (apply_endo(sti, x).bilinear_map(w, on_monomials, LaurentPoly),
                x.bilinear_map(w, on_monomials, LaurentPoly))

    def groups(*terms):
        group1 = sum((t1 for t1, _ in terms), LaurentPoly.zero())
        group2 = delta * sum((t2 for _, t2 in terms), LaurentPoly.zero())
        return group1, group2, group1 + group2

    skew = is_skew(on_monomials, (n for tr in triples for n in tr))
    negate = (lambda got: tuple(map(neg, got))) if skew else None
    sweep = cyclic_sweep(triples, term, groups, negate)
    for idx, ((a, b, c), (group1, group2, total)) in enumerate(sweep):
        ok = total.is_zero()
        report.check(
            f"triple-{idx}",
            "quasi-jacobi",
            ok,
            witness=None if ok else f"a={-t(a)}, b={-t(b)}, c={-t(c)}: "
            f"group1={group1}, group2={group2}, sum={total}",
        )
    return report


def jacobi_residues(
    alg: GradedAlgebra,
    triples: Iterable[tuple[Key, Key, Key]],
    outer: GradedAlgebra | None = None,
) -> Iterator[tuple[tuple[Key, Key, Key], Combo]]:
    """Each generator triple (x, y, z) with its residue
    cyc outer[alpha(x), [y, z]], where alpha and the inner bracket are
    those of ``alg`` and ``outer`` is ``alg`` itself (Hom-Jacobi) or a
    cocycle's bracket into the center (the cocycle condition).

    The residue is one per rotation class and each rotation term is
    computed once per sweep (``cyclic_sweep``).  When ``bracket_gen`` is
    skew on the triples' generators, a transposed class takes the
    negated residue; only the inner bracket needs to be skew, so a
    perturbed cocycle shares too.
    """
    outer = alg if outer is None else outer
    triples = list(triples)

    def term(x: Key, y: Key, z: Key) -> Combo:
        return outer.bracket(alg.twist_gen(x), alg.bracket_gen(y, z))

    negate = neg if is_skew(alg.bracket_gen, (k for tr in triples for k in tr)) else None
    return cyclic_sweep(triples, term, lambda *terms: sum(terms, Combo.zero()), negate)


def verify_hom_jacobi(
    alg: GradedAlgebra,
    triples: Iterable[tuple[Key, Key, Key]],
) -> Report:
    """Cyclic Hom-Jacobi check on generator triples of a graded algebra,
    one residue per triple from ``jacobi_residues``."""
    report = Report(suite="hom-jacobi")
    for (i, j, k), residue in jacobi_residues(alg, triples):
        ok = residue.is_zero()
        report.check(
            f"triple-({i},{j},{k})",
            "hom-jacobi",
            ok,
            witness=None if ok else f"residue = {residue}",
        )
    return report


def index_triples(window: int) -> list[tuple[int, int, int]]:
    rng = range(-window, window + 1)
    return [(n, m, k) for n in rng for m in rng for k in rng]


def twist_coefficient(ctx, a: LaurentPoly) -> LaurentPoly:
    """The twist a.D -> (sigma tau^-1(a) + delta*a).D of the general
    bracket on A*Delta, in coefficient form."""
    sti, _ = _require_invertible(ctx)
    return apply_endo(sti, a) + ctx.delta * a
