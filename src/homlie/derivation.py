"""Twisted derivation contexts on A = Q(p,q)[t, t^-1].

A context holds two different endomorphisms tau, sigma together with a
common divisor g of the image set (tau - sigma)(A).  The associated
generator Delta = (tau - sigma)/g spans the space of (tau,sigma)-
derivations as a rank-one A-module, and every element is a*Delta acting
by f -> a*(tau(f) - sigma(f))/g with the division exact.

The degenerate tau = sigma case has its own context built around the
operator d with d(t^n) = n*(ct)^(n-1) for the dilation sigma(t) = c*t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
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
    divides,
    exact_div,
    gcd_up_to_unit,
    invert_endo,
)
from .report import Report
from .scalar import Scalar

DEFAULT_WINDOW = 8


class RankOneContext:
    """What both context kinds share: the (tau,sigma)-derivations form a
    free A-module of rank one, so its generator acts termwise through
    ``generator_on_monomial``."""

    def apply_generator(self, f: LaurentPoly) -> LaurentPoly:
        """The generator applied to f, computed termwise."""
        total = LaurentPoly.zero()
        for n, c in f.coeffs.items():
            total = total + self.generator_on_monomial(n).scale(c)
        return total

    def generator(self) -> "DerivationElement":
        return DerivationElement(LaurentPoly.one(), self)

    def element(self, coeff: LaurentPoly) -> "DerivationElement":
        return DerivationElement(coeff, self)


class DerivationContext(RankOneContext):
    """The data (tau, sigma, g) with generator Delta = (tau - sigma)/g."""

    # bench/tracing.py reads the class __dict__, so the shared method is bound here too
    apply_generator = RankOneContext.apply_generator

    def __init__(self, tau: Endo, sigma: Endo, g: LaurentPoly):
        self.tau = tau
        self.sigma = sigma
        self.g = g
        self._gen_cache: dict[int, LaurentPoly] = {}
        try:
            self.tau_inv: Endo | None = invert_endo(tau)
        except NotInvertible:
            self.tau_inv = None
        self.sigma_tau_inv: Endo | None = (
            compose_endo(sigma, self.tau_inv) if self.tau_inv else None
        )
        self.delta: LaurentPoly | None = None
        if self.sigma_tau_inv is not None:
            self.delta = exact_div(apply_endo(self.sigma_tau_inv, g), g)

    def generator_on_monomial(self, n: int) -> LaurentPoly:
        got = self._gen_cache.get(n)
        if got is None:
            tn = LaurentPoly.t(n)
            got = exact_div(apply_endo(self.tau, tn) - apply_endo(self.sigma, tn), self.g)
            self._gen_cache[n] = got
        return got

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


class SigmaSigmaContext(RankOneContext):
    """tau = sigma = dilation by c; generator d(t^n) = n (ct)^(n-1).

    Every (sigma,sigma)-derivation D equals D(t) * d, so the module is
    still free of rank one even though (tau - sigma) collapses.
    """

    def __init__(self, c: Scalar):
        if c.is_zero():
            raise ValueError("dilation scalar must be nonzero")
        self.c = c
        self.sigma = Endo.dilation(c)
        self.tau = self.sigma
        self.tau_inv = invert_endo(self.tau)
        self.sigma_tau_inv = Endo.identity()
        self.g: LaurentPoly | None = None
        self.delta: LaurentPoly | None = None

    def generator_on_monomial(self, n: int) -> LaurentPoly:
        if n == 0:
            return LaurentPoly.zero()
        return LaurentPoly.monomial(Scalar.from_int(n) * self.c ** (n - 1), n - 1)

    # bench/tracing.py reads the class __dict__, so the shared method is bound here too
    apply_generator = RankOneContext.apply_generator

    def __repr__(self) -> str:
        return f"SigmaSigmaContext(sigma: {self.sigma})"


def _image_window(tau: Endo, sigma: Endo, window: int) -> list[LaurentPoly]:
    out = []
    for n in range(-window, window + 1):
        tn = LaurentPoly.t(n)
        img = apply_endo(tau, tn) - apply_endo(sigma, tn)
        if not img.is_zero():
            out.append(img)
    return out


def _validate_gcd(tau: Endo, sigma: Endo, g: LaurentPoly, window: int) -> int | None:
    """First exponent in the validation window whose image g fails to
    divide, or None when all pass."""
    for n in range(-window, window + 1):
        tn = LaurentPoly.t(n)
        img = apply_endo(tau, tn) - apply_endo(sigma, tn)
        if not img.is_zero() and not divides(g, img):
            return n
    return None


def make_context(
    tau: Endo,
    sigma: Endo,
    override_g: LaurentPoly | None = None,
    window: int = DEFAULT_WINDOW,
) -> DerivationContext:
    """Build a derivation context, choosing g canonically unless overridden.

    The default g is the gcd of the images (tau - sigma)(t^n) over the
    window, validated against the doubled window.  When that gcd has a
    genuine t-dependence and is associated to (tau - sigma)(t), the image
    of t itself is preferred, which keeps Delta(t) equal to 1.
    """
    if tau == sigma:
        raise EqualMorphisms("tau = sigma; use make_sigma_sigma_context")
    if override_g is not None:
        if override_g.is_zero():
            raise InvalidGcd("zero is not a valid gcd")
        bad = _validate_gcd(tau, sigma, override_g, 2 * window)
        if bad is not None:
            raise InvalidGcd(f"override g does not divide the image of t^{bad}")
        return DerivationContext(tau, sigma, override_g)

    images = _image_window(tau, sigma, window)
    g = gcd_up_to_unit(images)
    bad = _validate_gcd(tau, sigma, g, 2 * window)
    if bad is not None:
        images = _image_window(tau, sigma, 2 * window)
        g = gcd_up_to_unit(images)
        bad = _validate_gcd(tau, sigma, g, 4 * window)
        if bad is not None:
            raise InvalidGcd(f"window gcd fails divisibility at exponent {bad}")

    if not g.is_scalar():
        image_t = apply_endo(tau, LaurentPoly.t()) - apply_endo(sigma, LaurentPoly.t())
        try:
            cofactor = exact_div(image_t, g)
            if cofactor.is_unit():
                g = image_t
        except NotDivisible:
            pass
    return DerivationContext(tau, sigma, g)


def make_sigma_sigma_context(c: Scalar) -> SigmaSigmaContext:
    return SigmaSigmaContext(c)


# -- verification -------------------------------------------------------------


def monomial_pairs(window: int) -> list[tuple[LaurentPoly, LaurentPoly]]:
    rng = range(-window, window + 1)
    return [(LaurentPoly.t(n), LaurentPoly.t(m)) for n in rng for m in rng]


def verify_leibniz(
    operator,
    corpus: Iterable[tuple[LaurentPoly, LaurentPoly]],
    tau: Endo | None = None,
    sigma: Endo | None = None,
) -> Report:
    """Check D(fg) = D(f) tau(g) + sigma(f) D(g) exactly on each pair.

    ``operator`` is a DerivationElement (its context supplies tau and
    sigma) or any callable on A, in which case both maps are required.
    """
    if isinstance(operator, DerivationElement):
        tau = tau or operator.ctx.tau
        sigma = sigma or operator.ctx.sigma
        op: Callable[[LaurentPoly], LaurentPoly] = operator.apply
    else:
        if tau is None or sigma is None:
            raise ValueError("tau and sigma are required for a bare operator")
        op = operator

    report = Report(suite="leibniz")
    for idx, (f, g) in enumerate(corpus):
        lhs = op(f * g)
        rhs = op(f) * apply_endo(tau, g) + apply_endo(sigma, f) * op(g)
        residue = lhs - rhs
        report.check(
            f"pair-{idx}",
            "twisted-leibniz",
            residue.is_zero(),
            witness=None if residue.is_zero() else f"f={f}, g={g}, residue={residue}",
        )
    return report


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
    from .bracket import bracket_general

    if not u.is_unit():
        raise NotAUnit(f"{u} is not a unit")
    new_ctx = DerivationContext(ctx.tau, ctx.sigma, u * ctx.g)

    report = Report(suite="base-change")
    if ctx.delta is not None:
        sti = ctx.sigma_tau_inv
        expected = exact_div(apply_endo(sti, u) * ctx.delta, u)
        report.check(
            "delta-change",
            "delta-ratio",
            new_ctx.delta == expected,
            witness=None if new_ctx.delta == expected else f"{new_ctx.delta} != {expected}",
        )
        u_inv = u.unit_inverse()
        stiu = apply_endo(sti, u)
        for n in range(-window, window + 1):
            for m in range(n, window + 1):
                a, b = LaurentPoly.t(n), LaurentPoly.t(m)
                lhs = u * (bracket_general(new_ctx, a, b) * u_inv)
                rhs = stiu * (
                    bracket_general(ctx, a * u_inv, b * u_inv)
                )
                ok = lhs == rhs
                report.check(
                    f"bracket-({n},{m})",
                    "base-change-relation",
                    ok,
                    witness=None if ok else f"{lhs} != {rhs}",
                )
    return new_ctx, report
