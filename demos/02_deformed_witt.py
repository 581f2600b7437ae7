"""The two-parameter deformation of the Witt algebra, both brackets.

On generators d_n = -t^n . D the general bracket gives

    [d_n, d_m] = ([n]/p^n - [m]/p^m) d_{n+m},

a Hom-Lie algebra with twist alpha(d_n) = (1 + (q/p)^n) d_n.  A second,
"forced" bracket gives (q^m [n] - q^n [m]) d_{n+m} with twist
(p^n + q^n) d_n, and the two are twist-equivalent along d_n -> p^n d_n
although not isomorphic by any scale change unless p = 1.
"""

from homlie import (
    Combo,
    index_triples,
    solve_scale_isomorphism,
    twist_algebra,
    verify_hom_jacobi,
    witt_pq,
    witt_pq_forced,
)
from homlie.algebra import algebras_equal_on_window
from homlie.scalar import P

w = witt_pq()
print("general-bracket structure constants:")
for n, m in ((1, 0), (2, 1), (3, -2)):
    print(f"  [d_{n}, d_{m}] = {w.bracket_gen(n, m)}")
print("  twist: alpha(d_2) =", w.twist_gen(2))
print()

rep = verify_hom_jacobi(w, index_triples(3))
print("Hom-Jacobi on window 3:", rep.summary())
print()

forced = witt_pq_forced()
print("forced-bracket structure constants:")
for n, m in ((1, 0), (2, 1), (3, -2)):
    print(f"  [d_{n}, d_{m}]' = {forced.bracket_gen(n, m)}")
print()

rho = lambda n: Combo.basis(n, P ** n)
twisted = twist_algebra(w, rho, window=4)
same, _ = algebras_equal_on_window(twisted, forced, 4)
print("twisting by rho(d_n) = p^n d_n reproduces the forced bracket:", same)
print()

print("...but no scale change d_n -> c_n d_n matches the two directly:")
sol = solve_scale_isomorphism(w, forced, window=4, nu_candidates=(1,))[1]
print("  feasible:", sol.feasible)
print("  contradictory pair:")
print("   ", sol.witness[0].text)
print("   ", sol.witness[1].text)
print("  residual scalar:", sol.witness_residual, "(equals 1 only at p = 1)")
