"""Catalogue of twisted-derivation operators on the plain polynomial ring.

The shift t -> t + 1 does not preserve the Laurent ring, so these
operators act on Q(p,q)[t] with nonnegative exponents only.  Each entry
records the operator and the substitution pair (tau, sigma) it is
twisted by; ``verify_entry`` checks the pair's twisted Leibniz rule
D(fg) = D(f) tau(g) + sigma(f) D(g) exactly on a given corpus;
``verify_catalogue`` checks every row on one ``seeded_corpus``, random
rational polynomials of degree at most ``DEGREE`` drawn from seed
``SEED``.

D, tau and sigma must be Q(p,q)-linear, so the rule's residue
D(fg) - D(f) tau(g) - sigma(f) D(g) is bilinear in (f, g).
``verify_entry`` first checks on the corpus's first pair that the
linear extensions of their images of t^k agree with the maps
themselves on fg, g and f (HypothesisViolated otherwise).  It then
fills one table of basis residues R(a, b) = D(t^(a+b)) - D(t^a)
tau(t^b) - sigma(t^a) D(t^b) on the corpus's degree box (the exponents
of all f's times those of all g's), each entry and each image computed
once per call.  The table's support S = {(a, b) : R(a, b) != 0} decides
which pairs are expanded: a pair's residue is the sum of f_a g_b R(a, b)
over supp f x supp g, so it is the bilinear extension of the table when
supp f x supp g meets S and exactly zero otherwise.  Bilinearity is the
hypothesis the first pair's linearity check guards; on a true row S is
empty and no pair builds a product.  ``derivation.verify_leibniz`` stays
the direct parity route: it applies the maps to each pair itself, needs
no linearity, and shares with the table only the report loop
``derivation.leibniz_report``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Callable

from .derivation import leibniz_report
from .errors import HypothesisViolated, NotDivisible
from .laurent import LaurentPoly, exact_div, exponent_map
from .report import Report
from .scalar import _ONE, P, Q, Scalar

# ``seeded_corpus``: its seed and the degree of each polynomial
SEED = 20240917
DEGREE = 6


class PlainPoly(LaurentPoly):
    """A LaurentPoly whose exponents are all nonnegative."""

    __slots__ = ()
    _nonnegative = True

    # bench/tracing.py reads PlainPoly.__dict__, so the inherited product is bound here too
    __mul__ = LaurentPoly.__mul__

    def subst(self, image: "PlainPoly") -> "PlainPoly":
        """f(t) -> f(image(t)).  A dilation is a map of exponents, a shift
        t -> t + c*p^a*q^b one binomial Taylor shift; any other image maps
        t^n to image^n."""
        got = exponent_map(self, image, type(self))
        if got is not None:
            return got
        shift = image - PlainPoly.t()
        if image.den is _ONE and len(shift.num) == 1 and shift.is_scalar():
            ((_, a, b), c0), = shift.num.items()
            out: dict = {}
            get = out.get
            for (k, i, j), c in self.num.items():
                for m in range(k + 1):
                    e = (m, i + a * (k - m), j + b * (k - m))
                    out[e] = get(e, 0) + c * comb(k, m) * c0 ** (k - m)
            return self._make({e: c for e, c in out.items() if c}, self.den)
        return self.linear_map(image.__pow__, type(self))

    def derivative(self) -> "PlainPoly":
        return self._make({(k - 1, i, j): c * k for (k, i, j), c in self.num.items() if k},
                          self.den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        coeffs = self.coeffs
        parts = []
        for k in sorted(coeffs, reverse=True):
            c = coeffs[k]
            t_part = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            body = f"({c})" if t_part else f"{c}"
            parts.append(f"{body}*{t_part}" if t_part else body)
        return " + ".join(parts)

    __repr__ = __str__


def exact_div_plain(a: PlainPoly, b: PlainPoly) -> PlainPoly:
    """``laurent.exact_div`` in Q(p,q)[t]: a cofactor that needs a
    negative exponent means b does not divide a there."""
    if not (a.is_zero() or b.is_zero()) and a.valuation() < b.valuation():
        raise NotDivisible(f"({a}) not divisible by ({b})")
    return exact_div(a, b)


# substitutions used by the table
SHIFT = PlainPoly({1: Scalar.one(), 0: Scalar.one()})  # t + 1
T_P = PlainPoly.monomial(P, 1)
T_Q = PlainPoly.monomial(Q, 1)
T_QINV = PlainPoly.monomial(Scalar.one() / Q, 1)

Op = Callable[[PlainPoly], PlainPoly]


@dataclass
class CatalogueEntry:
    """One table row: the operator and its (tau, sigma) pair as
    substitution closures, sigma None for the zero map; the row's product
    rule is the twisted Leibniz rule of that pair.  ``operator`` is the
    defining formula; it, tau and sigma must be Q(p,q)-linear:
    ``verify_entry`` reads them through their images of t^k, computed
    once per call and checked against the maps on the first pair."""

    name: str
    operator: Op
    tau: Op
    sigma: Op | None
    pair: str


def _sub(image: PlainPoly) -> Op:
    return lambda f: f.subst(image)


def _jackson(image_a: PlainPoly, image_b: PlainPoly) -> Op:
    divisor = image_a - image_b

    def op(f: PlainPoly) -> PlainPoly:
        return exact_div_plain(f.subst(image_a) - f.subst(image_b), divisor)

    return op


def catalogue() -> list[CatalogueEntry]:
    """The eight rows: differentiation, shift, shift difference,
    q-dilatation, the three Jackson derivatives, and the p-dilatation
    derivative."""
    return [
        CatalogueEntry(
            name="differentiation",
            operator=lambda f: f.derivative(),
            tau=lambda f: f, sigma=lambda f: f,
            pair="(id, id)",
        ),
        CatalogueEntry(
            name="shift",
            operator=_sub(SHIFT),
            tau=_sub(SHIFT), sigma=None,
            pair="(S, 0)",
        ),
        CatalogueEntry(
            name="shift-difference",
            operator=lambda f: f.subst(SHIFT) - f,
            tau=_sub(SHIFT), sigma=lambda f: f,
            pair="(S, id)",
        ),
        CatalogueEntry(
            name="q-dilatation",
            operator=_sub(T_Q),
            tau=_sub(T_Q), sigma=None,
            pair="(T_q, 0)",
        ),
        CatalogueEntry(
            name="jackson-q-derivative",
            operator=_jackson(PlainPoly.t(), T_Q),
            tau=lambda f: f, sigma=_sub(T_Q),
            pair="(id, T_q)",
        ),
        CatalogueEntry(
            name="jackson-symmetric-q-derivative",
            operator=_jackson(T_QINV, T_Q),
            tau=_sub(T_QINV), sigma=_sub(T_Q),
            pair="(T_q^-1, T_q)",
        ),
        CatalogueEntry(
            name="jackson-pq-derivative",
            operator=_jackson(T_P, T_Q),
            tau=_sub(T_P), sigma=_sub(T_Q),
            pair="(T_p, T_q)",
        ),
        CatalogueEntry(
            name="p-dilatation-derivative",
            operator=lambda f: f.derivative().subst(T_P),
            tau=_sub(T_P), sigma=_sub(T_P),
            pair="(T_p, T_p)",
        ),
    ]


def random_poly(rng: random.Random) -> PlainPoly:
    out: dict[int, Scalar] = {}
    for k in range(DEGREE + 1):
        if rng.random() < 0.6:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 5)
            if num:
                out[k] = Scalar.from_fraction(Fraction(num, den))
    if not out:
        out[rng.randint(0, DEGREE)] = Scalar.from_int(rng.randint(1, 5))
    return PlainPoly(out)


def _images(op: Op) -> Callable[[int], PlainPoly]:
    """k -> op(t^k), each image computed once."""
    return cache(lambda k: op(PlainPoly.t(k)))


def seeded_corpus(pairs: int) -> list[tuple[PlainPoly, PlainPoly]]:
    """``pairs`` random pairs drawn from seed ``SEED``."""
    rng = random.Random(SEED)
    return [(random_poly(rng), random_poly(rng)) for _ in range(pairs)]


def verify_entry(entry: CatalogueEntry, corpus) -> Report:
    """The row's twisted Leibniz rule on ``corpus``; BadSize for an
    empty corpus.  The basis residues R(a, b) = D(t^(a+b)) - D(t^a)
    tau(t^b) - sigma(t^a) D(t^b) are each computed once, on the box of
    exponents of the corpus's f's and g's.  A pair whose supp f x supp g
    meets the support S of that table gets its residue as the bilinear
    extension of the table; any other pair's residue is zero, exactly,
    by bilinearity.  HypothesisViolated when the linear extension of D,
    tau or sigma differs from the map itself on the first pair's fg, g
    or f, the check that guards that bilinearity."""
    corpus = list(corpus)
    D, tau = _images(entry.operator), _images(entry.tau)
    sigma = None if entry.sigma is None else _images(entry.sigma)
    if corpus:
        f, g = corpus[0]
        for name, image, op, x in (("operator", D, entry.operator, f * g),
                                   ("tau", tau, entry.tau, g),
                                   ("sigma", sigma, entry.sigma, f)):
            if image is not None and x.linear_map(image, PlainPoly) != op(x):
                raise HypothesisViolated(f"{name} is not Q(p,q)-linear on the corpus")

    @cache
    def residue(a: int, b: int) -> PlainPoly:
        r = D(a + b) - D(a) * tau(b)
        return r if sigma is None else r - sigma(a) * D(b)

    # S, the support of the table on the degree box, as {a: {b : R(a, b) != 0}}
    cols = {b for _, g in corpus for b, _, _ in g.num}
    support = {a: bs for a in {a for f, _ in corpus for a, _, _ in f.num}
               if (bs := {b for b in cols if not residue(a, b).is_zero()})}

    def pair_residue(f: PlainPoly, g: PlainPoly) -> PlainPoly:
        """f's and g's residue: zero by bilinearity unless supp f x supp g meets S."""
        if support:
            g_exps = {b for b, _, _ in g.num}
            if any(a in support and not support[a].isdisjoint(g_exps) for a, _, _ in f.num):
                return f.bilinear_map(g, residue, PlainPoly)
        return PlainPoly.zero()

    return leibniz_report(corpus, pair_residue)


def verify_catalogue(pairs: int = 100) -> Report:
    """Every row on one ``seeded_corpus(pairs)``."""
    corpus = seeded_corpus(pairs)
    report = Report(suite="catalogue")
    for entry in catalogue():
        report.absorb(entry.name, "product-rule", verify_entry(entry, corpus))
    return report
