"""Central extension: from the deformed Witt algebra to deformed Virasoro.

A one-dimensional central extension adds a central element c and bends
the bracket by a 2-cocycle.  The deformed Virasoro cocycle lives on
n + m = 0,

    g(n, -n) = (q/p)^(-n)/(6 (1 + (q/p)^n)) * [n-1]/p^(n-1) * [n]/p^n * [n+1]/p^(n+1),

and the twisted 2-cocycle condition cyc g(alpha(x), [y,z]) = 0 is checked
symbolically, not assumed.  Perturbing a single value breaks it with a
concrete witness triple.
"""

from homlie import (
    verify_cocycle_condition,
    verify_hom_jacobi,
    virasoro_cocycle,
    virasoro_pq,
    witt_pq,
)
from homlie.extension import CENTRAL, verify_centrality
from homlie.scalar import Scalar

g = virasoro_cocycle()
print("cocycle values on the diagonal:")
for n in range(0, 5):
    print(f"  g({n}, {-n}) = {g.value(n, -n)}")
print()

base = witt_pq()
rep = verify_cocycle_condition(g, base, window=5)
print("2-cocycle condition on zero-sum triples, window 5:", rep.summary())

bad = g.perturbed((3, -3), Scalar.one())
broken = verify_cocycle_condition(bad, base, window=4)
first = broken.first_failure()
print("perturbed cocycle fails at", first.id)
print()

vir = virasoro_pq(window=5)
print("extended bracket at (2, -2):")
print("  [L_2, L_-2] =", vir.bracket_gen(2, -2))
print("centrality:", verify_centrality(vir, window=5).summary())

keys = list(range(-3, 4)) + [CENTRAL]
triples = [(i, j, k) for i in keys for j in keys for k in keys]
print("extension Hom-Jacobi:", verify_hom_jacobi(vir, triples).summary())
