"""Twisted derivation contexts on A = Q(p,q)[t, t^-1].

A context holds two endomorphisms tau, sigma and a common divisor g of
the image set (tau - sigma)(A).  Both send t to a unit, x = tau(t) and
y = sigma(t), and x^n - y^n = (x - y) [n]_{x,y} for the deformed integer
``scalar.pq_number_of``, so x - y generates that ideal.  The generator
D = (tau - sigma)/g spans the (tau,sigma)-derivations as a rank-one
A-module, and both context kinds compute it by one closed form,
D(t^n) = u [n]_{x,y} with the unit u = (x - y)/g; at tau = sigma,
x = y and u = 1, it is n x^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .bracket import bracket_general, check_forced_conditions, generator_algebra
from .errors import (
    BadSize,
    EqualMorphisms,
    HypothesisViolated,
    InvalidGcd,
    NotAUnit,
    NotDivisible,
    NotInvertible,
)
from .laurent import (
    Endo,
    LaurentPoly,
    apply_endo,
    compose_endo,
    exact_div,
    gcd_up_to_unit,
    invert_endo,
)
from .report import Report
from .scalar import Scalar, pq_number_of

DEFAULT_WINDOW = 8


class RankOneContext:
    """What both context kinds share: the (tau,sigma)-derivations form a
    free A-module of rank one, whose generator is D(t^n) = u [n]_{x,y} on
    monomials, for the unit u a context stores, and termwise on the rest."""

    def generator_on_monomial(self, n: int) -> LaurentPoly:
        got = self._gen_cache.get(n)
        if got is None:
            x, y = self.tau.power(1), self.sigma.power(1)
            got = self._gen_cache[n] = self.u * pq_number_of(x, y, n)
        return got

    def apply_generator(self, f: LaurentPoly) -> LaurentPoly:
        """The generator applied to f, extended linearly from monomials."""
        return f.linear_map(self.generator_on_monomial, LaurentPoly)

    def generator(self) -> "DerivationElement":
        return DerivationElement(LaurentPoly.one(), self)

    def element(self, coeff: LaurentPoly) -> "DerivationElement":
        return DerivationElement(coeff, self)


@dataclass(frozen=True)
class DerivationContext(RankOneContext):
    """The data (tau, sigma, g) with generator Delta = (tau - sigma)/g.

    A context is a value: equal fields make equal contexts, and
    ``dataclasses.replace`` builds a changed one.  What the fields fix is
    stored on it: u, tau^-1, sigma tau^-1 and delta = sigma tau^-1(g)/g
    when it is built, so a g that does not divide tau(t) - sigma(t) raises
    NotDivisible there; each D(t^n), the generator algebra and the
    forced-bracket conditions on first use."""

    tau: Endo
    sigma: Endo
    g: LaurentPoly

    # bench/tracing.py reads the class __dict__, so the shared method is bound here too
    apply_generator = RankOneContext.apply_generator

    def __post_init__(self):
        u = (self.tau.power(1) - self.sigma.power(1)) / self.g
        try:
            tau_inv = invert_endo(self.tau)
        except NotInvertible:
            tau_inv = None
        sti = compose_endo(self.sigma, tau_inv) if tau_inv else None
        delta = None if sti is None else exact_div(apply_endo(sti, self.g), self.g)
        # frozen: the derived values are stored as cached_property stores its own
        vars(self).update(u=u, tau_inv=tau_inv, sigma_tau_inv=sti, delta=delta, _gen_cache={})

    @cached_property
    def algebra(self):
        """The one ``bracket.generator_algebra`` of the context."""
        return generator_algebra(self)

    @cached_property
    def forced_conditions(self) -> Report:
        """``bracket.check_forced_conditions`` as ``bracket_forced`` reads it."""
        return check_forced_conditions(self)

    def __repr__(self) -> str:
        return f"DerivationContext(tau: {self.tau}, sigma: {self.sigma}, g = {self.g})"


@dataclass
class DerivationElement:
    """The module element a * Delta."""

    coeff: LaurentPoly
    ctx: RankOneContext

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        return self.coeff * self.ctx.apply_generator(f)

    def __call__(self, f: LaurentPoly) -> LaurentPoly:
        return self.apply(f)

    def is_zero_on_window(self, window: int = DEFAULT_WINDOW) -> bool:
        return all(
            self.apply(LaurentPoly.t(n)).is_zero() for n in range(-window, window + 1)
        )


@dataclass(frozen=True)
class SigmaSigmaContext(RankOneContext):
    """tau = sigma = dilation by c; x = y = ct and u = 1 give d(t^n) = n (ct)^(n-1).

    Every (sigma,sigma)-derivation D equals D(t) * d, so the module is
    still free of rank one even though (tau - sigma) collapses.  A value
    like ``DerivationContext``, with the one field c.
    """

    c: Scalar
    g = delta = None
    u = LaurentPoly.one()
    sigma_tau_inv = Endo.identity()

    def __post_init__(self):
        if self.c.is_zero():
            raise ValueError("dilation scalar must be nonzero")
        sigma = Endo.dilation(self.c)
        vars(self).update(sigma=sigma, tau=sigma, tau_inv=invert_endo(sigma), _gen_cache={})

    # bench/tracing.py reads the class __dict__, so the shared method is bound here too
    apply_generator = RankOneContext.apply_generator

    def __repr__(self) -> str:
        return f"SigmaSigmaContext(sigma: {self.sigma})"


def make_context(
    tau: Endo, sigma: Endo, override_g: LaurentPoly | None = None
) -> DerivationContext:
    """Build a derivation context, choosing g canonically unless overridden.

    Both maps send t to a unit, x = tau(t) and y = sigma(t), and
    x^n - y^n = (x - y) [n]_{x,y}, so the image x - y of t generates the
    ideal (tau - sigma)(A), and D(t^n) = u [n]_{x,y} with the unit
    u = (x - y)/g.  The default g is that image when it has two t-terms
    (u = 1), and its canonical scalar associate (e.g. p - q for two
    dilations, u = t) when it is a single term.  A supplied g is accepted
    exactly when it divides the image of t.
    """
    if tau == sigma:
        raise EqualMorphisms("tau = sigma; use SigmaSigmaContext")
    if override_g is None:
        t = LaurentPoly.t()
        image = apply_endo(tau, t) - apply_endo(sigma, t)
        return DerivationContext(tau, sigma, gcd_up_to_unit([image]) if image.is_unit() else image)
    try:
        # the context divides the image by g once, for u; zero is refused first
        if not override_g.is_zero():
            return DerivationContext(tau, sigma, override_g)
    except NotDivisible:
        pass
    raise InvalidGcd("override g does not divide the image of t")


# -- verification -------------------------------------------------------------


def monomial_pairs(window: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    rng = range(-window, window + 1)
    return [(LaurentPoly.t(n), LaurentPoly.t(m)) for n in rng for m in rng]


def leibniz_report(
    corpus: Iterable[tuple[LaurentPoly, LaurentPoly]],
    residue: Callable[[LaurentPoly, LaurentPoly], LaurentPoly],
) -> Report:
    """One ``pair-i`` check per pair (f, g) of ``corpus``: it passes when
    ``residue(f, g)`` = D(fg) - D(f) tau(g) - sigma(f) D(g) is zero and
    otherwise carries f, g and that residue as its witness.  An empty
    corpus raises BadSize."""
    report = Report(suite="leibniz")
    for idx, (f, g) in enumerate(corpus):
        r = residue(f, g)
        ok = r.is_zero()
        report.check(f"pair-{idx}", "twisted-leibniz", ok,
                     witness=None if ok else f"f={f}, g={g}, residue={r}")
    if not report.entries:
        raise BadSize("leibniz: at least one pair is needed")
    return report


def verify_leibniz(
    operator,
    corpus: Iterable[tuple[LaurentPoly, LaurentPoly]],
    tau: Callable[[LaurentPoly], LaurentPoly] | None = None,
    sigma: Callable[[LaurentPoly], LaurentPoly] | None = None,
) -> Report:
    """Check D(fg) = D(f) tau(g) + sigma(f) D(g) exactly on each pair,
    applying every map to the pair's own polynomials.

    ``operator`` is a DerivationElement, whose context supplies a map
    not given, or any callable, which needs tau; for it a sigma of None
    is the zero map.  tau and sigma are any callables on the operator's
    ring (an ``Endo`` is one), and none of them need be linear.  An
    empty corpus raises BadSize.
    """
    if isinstance(operator, DerivationElement):
        tau = operator.ctx.tau if tau is None else tau
        sigma = operator.ctx.sigma if sigma is None else sigma
        operator = operator.apply
    elif tau is None:
        raise ValueError("tau is required for a bare operator")

    def residue(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        rhs = operator(f) * tau(g)
        if sigma is not None:
            rhs = rhs + sigma(f) * operator(g)
        return operator(f * g) - rhs

    return leibniz_report(corpus, residue)


def _operators_commute(a, b, corpus: Sequence[LaurentPoly]) -> bool:
    return all((a(b(f)) - b(a(f))).is_zero() for f in corpus)


def commutator_derivation(
    d1: DerivationElement,
    d2: DerivationElement,
    window: int = 6,
):
    """The operator [D, D'] = D.D' - D'.D, which is a (tt', ss')-derivation
    once the commutation hypotheses hold.

    Endomorphism pairs are checked exactly; the mixed operator-against-
    endomorphism hypotheses are checked on the monomial corpus.  Raises
    HypothesisViolated when any of them fails; otherwise returns the
    operator together with its Leibniz verification report.
    """
    t1, s1 = d1.ctx.tau, d1.ctx.sigma
    t2, s2 = d2.ctx.tau, d2.ctx.sigma
    if compose_endo(t1, t2) != compose_endo(t2, t1):
        raise HypothesisViolated("tau maps do not commute")
    if compose_endo(s1, s2) != compose_endo(s2, s1):
        raise HypothesisViolated("sigma maps do not commute")

    corpus = [LaurentPoly.t(n) for n in range(-window, window + 1)]
    for op, endo, label in (
        (d1.apply, t2, "D with tau'"),
        (d1.apply, s2, "D with sigma'"),
        (d2.apply, t1, "D' with tau"),
        (d2.apply, s1, "D' with sigma"),
    ):
        endo_fn = lambda f, e=endo: apply_endo(e, f)
        if not _operators_commute(op, endo_fn, corpus):
            raise HypothesisViolated(f"{label} fail to commute on the corpus")

    def commutator(f: LaurentPoly) -> LaurentPoly:
        return d1.apply(d2.apply(f)) - d2.apply(d1.apply(f))

    pairs = monomial_pairs(window)
    report = verify_leibniz(
        commutator, pairs, tau=compose_endo(t1, t2), sigma=compose_endo(s1, s2)
    )
    report.suite = "commutator-derivation"
    return commutator, report


def leibniz_extension(
    h: LaurentPoly, tau: Endo, sigma: Endo
) -> Callable[[int], LaurentPoly]:
    """The map with t -> h extended to all monomials by the twisted
    Leibniz rule; used as an independent oracle for the rank-one property."""

    cache: dict[int, LaurentPoly] = {0: LaurentPoly.zero(), 1: h}
    t = LaurentPoly.t()
    t_inv = LaurentPoly.t(-1)

    def phi(n: int) -> LaurentPoly:
        if n in cache:
            return cache[n]
        if n > 1:
            prev = phi(n - 1)
            val = h * apply_endo(tau, LaurentPoly.t(n - 1)) + apply_endo(sigma, t) * prev
        elif n == -1:
            # 0 = phi(t t^-1) = phi(t) tau(t^-1) + sigma(t) phi(t^-1)
            val = exact_div(-(h * apply_endo(tau, t_inv)), apply_endo(sigma, t))
        else:
            # t^n = t^(n+1) * t^-1
            val = phi(n + 1) * apply_endo(tau, t_inv) + apply_endo(
                sigma, LaurentPoly.t(n + 1)
            ) * phi(-1)
        cache[n] = val
        return val

    return phi


def rescale_generator(ctx: DerivationContext, u: LaurentPoly, window: int = 4):
    """Pass to the associated generator Delta' = Delta/u, g' = u*g.

    Returns the new context and a certificate report checking, on the
    monomial window, the base-change relation

        u * [a.D', b.D']_{D'}  =  sigma(tau^-1(u)) * [a.D', b.D']_{D}

    (both sides written as A-multiples of Delta) together with the value
    delta' = (sigma tau^-1(u)/u) * delta.
    """
    if not u.is_unit():
        raise NotAUnit(f"{u} is not a unit")
    new_ctx = replace(ctx, g=u * ctx.g)

    report = Report(suite="base-change")
    if ctx.delta is not None:
        stiu = apply_endo(ctx.sigma_tau_inv, u)
        expected = exact_div(stiu * ctx.delta, u)
        ok = new_ctx.delta == expected
        report.check("delta-change", "delta-ratio", ok,
                     witness=None if ok else f"{new_ctx.delta} != {expected}")
        u_inv = u.unit_inverse()
        for n in range(-window, window + 1):
            for m in range(n, window + 1):
                a, b = LaurentPoly.t(n), LaurentPoly.t(m)
                lhs = u * (bracket_general(new_ctx, a, b) * u_inv)
                rhs = stiu * bracket_general(ctx, a * u_inv, b * u_inv)
                ok = lhs == rhs
                report.check(f"bracket-({n},{m})", "base-change-relation", ok,
                             witness=None if ok else f"{lhs} != {rhs}")
    return new_ctx, report
