"""Bracket constructions on the module A*Delta and their verifiers.

Two constructions are provided.  The general bracket needs tau invertible
and returns the coefficient c of [a.D, b.D] = c.D through

    c = sigma(tau^-1(a)) * D(tau^-1(b)) - sigma(tau^-1(b)) * D(tau^-1(a)),

with an operator-composition oracle kept deliberately separate so the two
routes can be compared.  The forced bracket

    [a.D, b.D]' = (sigma(a) D(b) - sigma(b) D(a)) . D

drops the tau^-1 twists but is only Hom-Lie when sigma and tau commute
and D intertwines both up to one element delta.

``generator_algebra`` is the general bracket on d_n = -t^n.D with the
twist sigma tau^-1 + delta; a context builds it once, as ``ctx.algebra``.

The cyclic verifiers check the six-term quasi-Jacobi identity

    cyc( [sigma(tau^-1(a)).D, [b.D, c.D]] + delta * [a.D, [b.D, c.D]] ) = 0

and the three-term Hom-Jacobi identity on graded algebras.  Both are
trilinear, so both are checked on triples of generator keys (``cube``)
by sweeps of ``jacobi_residues``: one for Hom-Jacobi, for the cocycle
condition of ``extension`` and for quasi-Jacobi with a constant delta,
and one per group for quasi-Jacobi otherwise.  A sweep
(``algebra.cyclic_sweep``) sums each rotation class's three terms with
one ``laurent.bilinear_sum``; when the inner bracket is skew
(``algebra.is_skew``), the class of (a, c, b) is the negated class of
(a, b, c).
"""

from __future__ import annotations

from operator import neg
from typing import Callable, Iterable, Iterator

from .algebra import Combo, GradedAlgebra, Key, cyclic_sweep, is_skew
from .errors import ConditionsFailed, NotDivisible, NotInvertible
from .laurent import Endo, LaurentPoly, apply_endo, bilinear_sum, compose_endo, exact_div
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
    hypotheses do not hold for this context (``ctx.forced_conditions``)."""
    conditions = ctx.forced_conditions
    if not conditions.ok:
        first = conditions.first_failure()
        raise ConditionsFailed(f"forced bracket unavailable: {first.id} ({first.witness})")
    twist = ctx.tau if use_tau else ctx.sigma
    return apply_endo(twist, a) * ctx.apply_generator(b) - apply_endo(
        twist, b
    ) * ctx.apply_generator(a)


def verify_quasi_jacobi(ctx, triples: Iterable[tuple[int, int, int]]) -> Report:
    """Evaluate the six-term cyclic identity exactly for each generator
    triple (a, b, c), the arguments (d_a, d_b, d_c) = (-t^a, -t^b, -t^c).
    The identity is Q(p,q)-trilinear, so these triples prove it on the
    span of the window's monomials.

    A failing triple reports its two three-term groups next to their sum,
    so that the failure localizes to one group: ``jacobi_residues`` sweeps
    on the bracket of the context's generator algebra ``ctx.algebra``,
    group 1 with the twist sigma tau^-1, group 2 with the identity and
    delta times the outer bracket.
    A constant delta has delta [x, w] = [delta x, w], so the groups sum to
    the Hom-Jacobi residue of the generator algebra (twist sigma tau^-1 +
    delta): one sweep decides, and only a failing triple computes its
    groups, alone, in coefficient form (``_coefficient_form``).
    """
    report = Report(suite="quasi-jacobi")
    triples = list(triples)
    sti, _ = _require_invertible(ctx)
    delta = ctx.delta
    if delta is None:
        raise NotInvertible("context has no delta element")

    t = LaurentPoly.t
    alg = ctx.algebra
    twisted = GradedAlgebra("", alg.bracket_gen, lambda n: expand_in_d_basis(apply_endo(sti, -t(n))))
    plain = GradedAlgebra("", alg.bracket_gen, Combo.basis)
    times_delta = plain.post_composed(lambda x: expand_in_d_basis(delta * _coefficient_form(x)), "")

    def split(triples: list) -> Iterator[tuple[tuple, tuple[Combo, Combo] | None]]:
        """Each triple with its two groups' residues, or None where they cancel."""
        for (triple, r1), (_, r2) in zip(jacobi_residues(twisted, triples),
                                         jacobi_residues(plain, triples, outer=times_delta)):
            yield triple, None if r1 == -r2 else (r1, r2)

    verdicts = split(triples) if not delta.is_scalar() else (
        (x, None if r.is_zero() else next(split([x]))[1]) for x, r in jacobi_residues(alg, triples))
    for idx, ((a, b, c), failed) in enumerate(verdicts):
        witness = None
        if failed is not None:
            group1, group2 = map(_coefficient_form, failed)
            witness = (f"a={-t(a)}, b={-t(b)}, c={-t(c)}: "
                       f"group1={group1}, group2={group2}, sum={group1 + group2}")
        report.check(f"triple-{idx}", "quasi-jacobi", failed is None, witness=witness)
    return report


def jacobi_residues(
    alg: GradedAlgebra,
    triples: Iterable[tuple[Key, Key, Key]],
    outer: GradedAlgebra | None = None,
) -> Iterator[tuple[tuple[Key, Key, Key], Combo]]:
    """Each generator triple (x, y, z) with its residue
    cyc outer[alpha(x), [y, z]], where alpha and the inner bracket are
    those of ``alg`` and ``outer`` is ``alg`` itself (Hom-Jacobi, group
    1 of quasi-Jacobi), delta times it (group 2) or a cocycle's bracket
    into the center (the cocycle condition).

    One residue per rotation class (``cyclic_sweep``) sums its three
    rotation terms with one ``bilinear_sum``.  When ``bracket_gen`` is
    skew on the triples' generators, a transposed class takes the negated
    residue; only the inner bracket needs to be skew, so a perturbed
    cocycle shares too.
    """
    outer = alg if outer is None else outer
    triples = list(triples)

    def residue(*rotations: tuple[Key, Key, Key]) -> Combo:
        return bilinear_sum([(alg.twist_gen(x), alg.bracket_gen(y, z)) for x, y, z in rotations],
                            outer.bracket_gen, Combo)

    negate = neg if is_skew(alg.bracket_gen, (k for tr in triples for k in tr)) else None
    return cyclic_sweep(triples, residue, negate)


def verify_hom_jacobi(alg: GradedAlgebra, triples: Iterable[tuple[Key, Key, Key]]) -> Report:
    """Cyclic Hom-Jacobi check on generator triples of a graded algebra,
    one residue per triple from ``jacobi_residues``."""
    return residue_report(Report(suite="hom-jacobi"), "hom-jacobi", jacobi_residues(alg, triples))


def residue_report(report: Report, anchor: str, residues: Iterable, render=str) -> Report:
    """One ``triple-(x,y,z)`` check per (triple, residue): passing on zero, else rendered."""
    for triple, residue in residues:
        ok = residue.is_zero()
        report.check("triple-(%s,%s,%s)" % triple, anchor, ok,
                     witness=None if ok else f"residue = {render(residue)}")
    return report


def cube(keys: Iterable[Key]) -> list[tuple[Key, Key, Key]]:
    """Every triple of the keys, in the order of three nested loops."""
    keys = list(keys)
    return [(x, y, z) for x in keys for y in keys for z in keys]


def index_triples(window: int) -> list[tuple[int, int, int]]:
    return cube(range(-window, window + 1))


def jacobi_window(window: int) -> int:
    """The window of the Hom-Jacobi and quasi-Jacobi sweeps of a check at
    ``window``: two less, and at least 2."""
    return max(2, window - 2)


def twist_coefficient(ctx, a: LaurentPoly) -> LaurentPoly:
    """The twist a.D -> (sigma tau^-1(a) + delta*a).D of the general
    bracket on A*Delta, in coefficient form."""
    sti, _ = _require_invertible(ctx)
    return apply_endo(sti, a) + ctx.delta * a


def expand_in_d_basis(w: LaurentPoly) -> Combo:
    """Rewrite w.D in the basis d_j = -t^j.D: the d_j coordinate is the
    negated t^j coefficient of w; the t-exponents of the numerator become
    the basis keys."""
    return Combo._new({e: -c for e, c in w.num.items()}, w.den)


def _coefficient_form(x: Combo) -> LaurentPoly:
    """The w with w.D = x, the inverse of ``expand_in_d_basis``."""
    return LaurentPoly._new({e: -c for e, c in x.num.items()}, x.den)


def generator_algebra(ctx) -> GradedAlgebra:
    """The general bracket of ``ctx`` on the generators d_n = -t^n.D:
    [d_n, d_m] is ``bracket_general`` on the monomials (t^n, t^m), each
    pair computed once, and alpha(d_n) is ``twist_coefficient`` of -t^n,
    both expanded in the d-basis."""
    t = LaurentPoly.t
    return GradedAlgebra(
        "",
        lambda n, m: expand_in_d_basis(bracket_general(ctx, t(n), t(m))),
        lambda n: expand_in_d_basis(twist_coefficient(ctx, -t(n))),
    )
