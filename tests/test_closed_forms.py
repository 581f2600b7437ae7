"""The closed forms behind g and the deformed integers, against the
routes they replaced.

Every endomorphism sends t to a unit, and for units x, y
x^n - y^n = (x - y) [n]_{x,y}, so ``make_context`` takes g from the
image (tau - sigma)(t) alone and ``pq_number_of`` is one division.  The
references below are the older routes, kept here as tests:

- g: ``gcd_up_to_unit`` over the nonzero images (tau - sigma)(t^n),
  |n| <= 2, replaced by the image of t when that gcd is not a scalar and
  the image of t divided by it leaves a unit;
- an override verdict: accept g when it divides every nonzero image
  (tau - sigma)(t^n) on a window;
- [n]: the sum of a^(n-1-k) b^k over k < n, and -(ab)^n [-n] for n < 0;
- D(t^n), which both context kinds now compute as u [n]_{x,y}: exact
  division of tau(t^n) - sigma(t^n) by g, and n (ct)^(n-1) for the
  sigma-sigma context of the dilation by c.
"""

import pytest

from homlie.derivation import DerivationContext, SigmaSigmaContext, make_context
from homlie.errors import DivisionByZero, InvalidGcd, NotDivisible
from homlie.laurent import Endo, LaurentPoly, apply_endo, divides, exact_div, gcd_up_to_unit
from homlie.scalar import ONE, P, Q, Scalar, pq_number_of

t = LaurentPoly.t

GRID = [Endo(c, k) for c in (ONE, -ONE, P, Q, Q / P) for k in (1, -1)]
# coefficients that are not monomials, and the exponents 0 and 2
EXTRA = [Endo(P + Q, 1), Endo(ONE / (ONE + P), -1), Endo(P ** 2 - Q, 2), Endo(Scalar.from_int(2), 0)]
PAIRS = [(a, b) for a in GRID for b in GRID if a != b] + [
    (a, b) for a in EXTRA for b in (Endo(P, 1), Endo(ONE, -1), Endo(Q, 2))
]


def images(tau: Endo, sigma: Endo, window: int) -> list[LaurentPoly]:
    out = []
    for n in range(-window, window + 1):
        img = apply_endo(tau, t(n)) - apply_endo(sigma, t(n))
        if not img.is_zero():
            out.append(img)
    return out


def reference_g(tau: Endo, sigma: Endo) -> LaurentPoly:
    g = gcd_up_to_unit(images(tau, sigma, 2))
    if not g.is_scalar():
        image_t = apply_endo(tau, t()) - apply_endo(sigma, t())
        try:
            if exact_div(image_t, g).is_unit():
                g = image_t
        except NotDivisible:
            pass
    return g


def reference_sum(a, b, n: int):
    """[n]_{a,b} without a division, for Scalars or Laurent units."""
    if n < 0:
        return -((a * b) ** n) * reference_sum(a, b, -n)
    total = 0 * a
    for k in range(n):
        total = total + a ** (n - 1 - k) * b ** k
    return total


def parts(f: LaurentPoly) -> tuple:
    return f.num, f.den.terms, str(f)


@pytest.mark.parametrize("tau,sigma", PAIRS, ids=lambda e: str(e))
def test_g_matches_the_window_gcd_route(tau, sigma):
    assert parts(make_context(tau, sigma).g) == parts(reference_g(tau, sigma))


@pytest.mark.parametrize("tau,sigma", PAIRS, ids=lambda e: str(e))
def test_override_verdict_matches_a_window_scan(tau, sigma):
    image = apply_endo(tau, t()) - apply_endo(sigma, t())
    candidates = [
        image, image.scale(P), image * t(2), image * (t() + LaurentPoly.one()),
        reference_g(tau, sigma), LaurentPoly.one(), t() + LaurentPoly.one(),
        LaurentPoly.from_scalar(P - Q), LaurentPoly.from_scalar(P + Q),
    ]
    window = images(tau, sigma, 4)
    for g in candidates:
        accepted = all(divides(g, img) for img in window)
        try:
            ctx = make_context(tau, sigma, override_g=g)
        except InvalidGcd:
            assert not accepted, g
        else:
            assert accepted and ctx.g == g, g


@pytest.mark.parametrize("a,b", [
    (P, Q), (ONE, Q / P), (P, P), (Q, P + Q), (Scalar.from_int(2), ONE / (ONE + P)),
], ids=["p,q", "1,q/p", "p,p", "q,p+q", "2,1/(1+p)"])
def test_deformed_integer_matches_the_sum(a, b):
    for n in range(-8, 9):
        got, want = pq_number_of(a, b, n), reference_sum(a, b, n)
        assert (got.num, got.den) == (want.num, want.den), n


@pytest.mark.parametrize("tau,sigma", PAIRS, ids=lambda e: str(e))
def test_generator_matches_exact_division_and_the_sum(tau, sigma):
    ctx = make_context(tau, sigma)
    x, y = apply_endo(tau, t()), apply_endo(sigma, t())
    for n in range(-7, 8):
        got = ctx.generator_on_monomial(n)
        divided = exact_div(apply_endo(tau, t(n)) - apply_endo(sigma, t(n)), ctx.g)
        assert parts(got) == parts(divided), n
        assert got == ctx.u * reference_sum(x, y, n), n


@pytest.mark.parametrize("c", [ONE, -ONE, P, Q, Q / P], ids=["1", "-1", "p", "q", "q/p"])
def test_sigma_sigma_generator_is_n_times_a_power(c):
    ctx, ct = SigmaSigmaContext(c), LaurentPoly.monomial(c, 1)
    for n in range(-8, 9):
        assert parts(ctx.generator_on_monomial(n)) == parts(ct ** (n - 1) * n), n


def test_laurent_division_is_exact_division():
    one = LaurentPoly.one()
    assert (t(3) - t().scale(Q ** 2)) / (t() - LaurentPoly.from_scalar(Q)) == t(2) + t().scale(Q)
    with pytest.raises(NotDivisible):
        (t() + one) / (t() + 2 * one)
    with pytest.raises(DivisionByZero):
        t() / LaurentPoly.zero()


def test_a_g_that_does_not_divide_the_image_of_t_fails_when_built():
    """u = (tau(t) - sigma(t))/g is stored when a context is built, so such
    a g fails there, also where tau has no inverse and no delta is taken."""
    with pytest.raises(NotDivisible):
        DerivationContext(Endo(P, 2), Endo(Q, 1), t() + LaurentPoly.one())
