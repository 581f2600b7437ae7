"""A first walk through twisted derivations on Laurent polynomials.

A (tau, sigma)-derivation satisfies D(fg) = D(f) tau(g) + sigma(f) D(g).
Over A = Q(p,q)[t, t^-1] with tau(t) = pt and sigma(t) = qt, the whole
space of such operators is generated by a single map D with

    D(t^n) = [n] t^n,      [n] = (p^n - q^n)/(p - q),

the Jackson-derivative prototype.  This script builds the context,
watches the generator act, and checks the Leibniz rule by hand.
"""

from homlie import (
    Endo,
    LaurentPoly,
    make_context,
    monomial_pairs,
    pq_number_of,
    verify_leibniz,
)
from homlie.scalar import P, Q

t = LaurentPoly.t

ctx = make_context(Endo.dilation(P), Endo.dilation(Q))
print("context:", ctx)
print("gcd of the image set:", ctx.g)
print("delta = sigma(tau^-1(g))/g =", ctx.delta)
print()

print("the generator acting on monomials:")
for n in (-2, -1, 1, 2, 3):
    print(f"  D(t^{n}) = {ctx.apply_generator(t(n))}        [{n}] = {pq_number_of(P, Q, n)}")
print()

print("twisted Leibniz rule on the pair (t^2, t^3):")
d = ctx.generator()
lhs = d.apply(t(2) * t(3))
print("  D(t^2 t^3)                      =", lhs)
rhs = d.apply(t(2)) * Endo.dilation(P)(t(3)) + Endo.dilation(Q)(t(2)) * d.apply(t(3))
print("  D(t^2) tau(t^3) + sigma(t^2) D(t^3) =", rhs)
print("  equal:", lhs == rhs)
print()

report = verify_leibniz(d, monomial_pairs(8))
print(f"Leibniz sweep over monomial pairs in [-8, 8]^2: {report.summary()}")

print()
print("a second context with an inversion twist, tau(t) = t^-1:")
ctx_inv = make_context(Endo.inversion(), Endo.dilation(Q))
print("  gcd:", ctx_inv.g)
print("  delta:", ctx_inv.delta)
print("  D(t^3) =", ctx_inv.apply_generator(t(3)))
