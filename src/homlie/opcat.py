"""Catalogue of twisted-derivation operators on the plain polynomial ring.

The shift t -> t + 1 does not preserve the Laurent ring, so these
operators act on Q(p,q)[t] with nonnegative exponents only.  Each entry
records the operator, the substitution pair it is twisted by, and the
product rule it satisfies; ``verify_entry`` checks that rule exactly on
a corpus of random rational polynomials.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BadSize, NotDivisible
from .laurent import LaurentPoly, exact_div
from .report import Report
from .scalar import P, Q, Scalar


class PlainPoly(LaurentPoly):
    """A LaurentPoly whose exponents are all nonnegative."""

    __slots__ = ()

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        if coeffs and min(coeffs) < 0:
            raise ValueError("plain polynomials have nonnegative exponents")
        super().__init__(coeffs)

    # bench/tracing.py reads PlainPoly.__dict__, so the inherited product is bound here too
    __mul__ = LaurentPoly.__mul__

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def subst(self, image: "PlainPoly") -> "PlainPoly":
        """f(t) -> f(image(t))."""
        result = PlainPoly.zero()
        power_cache: dict[int, PlainPoly] = {0: PlainPoly.one()}

        def power(n: int) -> PlainPoly:
            if n not in power_cache:
                power_cache[n] = power(n - 1) * image
            return power_cache[n]

        for k, c in self.coeffs.items():
            result = result + power(k).scale(c)
        return result

    def derivative(self) -> "PlainPoly":
        out = {k - 1: c * Scalar.from_int(k) for k, c in self.coeffs.items() if k != 0}
        return PlainPoly(out)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            t_part = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            body = f"({c})" if t_part else f"{c}"
            parts.append(f"{body}*{t_part}" if t_part else body)
        return " + ".join(parts)

    __repr__ = __str__


def exact_div_plain(a: PlainPoly, b: PlainPoly) -> PlainPoly:
    """``laurent.exact_div`` in Q(p,q)[t]: a cofactor that needs a
    negative exponent means b does not divide a there."""
    quotient = exact_div(a, b)
    if quotient.coeffs and min(quotient.coeffs) < 0:
        raise NotDivisible(f"({a}) not divisible by ({b})")
    return quotient


# substitutions used by the table
SHIFT = PlainPoly({1: Scalar.one(), 0: Scalar.one()})  # t + 1
T_P = PlainPoly.monomial(P, 1)
T_Q = PlainPoly.monomial(Q, 1)
T_QINV = PlainPoly.monomial(Scalar.one() / Q, 1)

Op = Callable[[PlainPoly], PlainPoly]


@dataclass
class CatalogueEntry:
    """One table row: the operator, its (tau, sigma) pair as substitution
    closures (sigma may be the zero map), and the stated product rule."""

    name: str
    operator: Op
    tau: Op
    sigma: Op
    rule: Callable[[PlainPoly, PlainPoly, Op], PlainPoly]
    pair: str
    lifts_to_context: bool = True

    def verify(self, corpus=None, pairs: int = 100, seed: int = 20240917,
               degree: int = 6) -> Report:
        return verify_entry(self, corpus=corpus, pairs=pairs, seed=seed, degree=degree)


def _sub(image: PlainPoly) -> Op:
    return lambda f: f.subst(image)


def _zero_map(f: PlainPoly) -> PlainPoly:
    return PlainPoly.zero()


def _jackson(image_a: PlainPoly, image_b: PlainPoly) -> Op:
    divisor = image_a - image_b

    def op(f: PlainPoly) -> PlainPoly:
        return exact_div_plain(f.subst(image_a) - f.subst(image_b), divisor)

    return op


def catalogue() -> list[CatalogueEntry]:
    """The eight rows: differentiation, shift, shift difference,
    q-dilatation, the three Jackson derivatives, and the p-dilatation
    derivative."""
    t = PlainPoly.t()
    return [
        CatalogueEntry(
            name="differentiation",
            operator=lambda f: f.derivative(),
            tau=lambda f: f, sigma=lambda f: f,
            rule=lambda f, g, D: D(f) * g + f * D(g),
            pair="(id, id)",
        ),
        CatalogueEntry(
            name="shift",
            operator=_sub(SHIFT),
            tau=_sub(SHIFT), sigma=_zero_map,
            rule=lambda f, g, D: f.subst(SHIFT) * D(g),
            pair="(S, 0)",
            lifts_to_context=False,
        ),
        CatalogueEntry(
            name="shift-difference",
            operator=lambda f: f.subst(SHIFT) - f,
            tau=_sub(SHIFT), sigma=lambda f: f,
            rule=lambda f, g, D: D(f) * g + f.subst(SHIFT) * D(g),
            pair="(S, id)",
            lifts_to_context=False,
        ),
        CatalogueEntry(
            name="q-dilatation",
            operator=_sub(T_Q),
            tau=_sub(T_Q), sigma=_zero_map,
            rule=lambda f, g, D: f.subst(T_Q) * D(g),
            pair="(T_q, 0)",
            lifts_to_context=False,
        ),
        CatalogueEntry(
            name="jackson-q-derivative",
            operator=_jackson(PlainPoly.t(), T_Q),
            tau=lambda f: f, sigma=_sub(T_Q),
            rule=lambda f, g, D: D(f) * g + f.subst(T_Q) * D(g),
            pair="(id, T_q)",
        ),
        CatalogueEntry(
            name="jackson-symmetric-q-derivative",
            operator=_jackson(T_QINV, T_Q),
            tau=_sub(T_QINV), sigma=_sub(T_Q),
            rule=lambda f, g, D: D(f) * g.subst(T_QINV) + f.subst(T_Q) * D(g),
            pair="(T_q^-1, T_q)",
            lifts_to_context=False,
        ),
        CatalogueEntry(
            name="jackson-pq-derivative",
            operator=_jackson(T_P, T_Q),
            tau=_sub(T_P), sigma=_sub(T_Q),
            rule=lambda f, g, D: D(f) * g.subst(T_P) + f.subst(T_Q) * D(g),
            pair="(T_p, T_q)",
        ),
        CatalogueEntry(
            name="p-dilatation-derivative",
            operator=lambda f: f.derivative().subst(T_P),
            tau=_sub(T_P), sigma=_sub(T_P),
            rule=lambda f, g, D: D(f) * g.subst(T_P) + f.subst(T_P) * D(g),
            pair="(T_p, T_p)",
        ),
    ]


def random_poly(rng: random.Random, degree: int = 6) -> PlainPoly:
    out: dict[int, Scalar] = {}
    for k in range(degree + 1):
        if rng.random() < 0.6:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 5)
            if num:
                out[k] = Scalar.from_fraction(Fraction(num, den))
    if not out:
        out[rng.randint(0, degree)] = Scalar.from_int(rng.randint(1, 5))
    return PlainPoly(out)


def verify_entry(
    entry: CatalogueEntry,
    corpus=None,
    pairs: int = 100,
    seed: int = 20240917,
    degree: int = 6,
) -> Report:
    """Check D(fg) against the row's stated product rule on each pair."""
    report = Report(suite=f"catalogue:{entry.name}")
    if corpus is None:
        rng = random.Random(seed)
        corpus = [
            (random_poly(rng, degree), random_poly(rng, degree)) for _ in range(pairs)
        ]
    D = entry.operator
    for idx, (f, g) in enumerate(corpus):
        lhs = D(f * g)
        rhs = entry.rule(f, g, D)
        ok = lhs == rhs
        report.check(
            f"pair-{idx}", "product-rule", ok,
            witness=None if ok else f"f={f}; g={g}; D(fg)={lhs}; rule={rhs}",
        )
    if not report.entries:
        raise BadSize(f"{report.suite}: at least one pair is needed")
    return report


def verify_catalogue(pairs: int = 100, seed: int = 20240917) -> Report:
    report = Report(suite="catalogue")
    for entry in catalogue():
        report.absorb(entry.name, "product-rule", verify_entry(entry, pairs=pairs, seed=seed))
    return report
