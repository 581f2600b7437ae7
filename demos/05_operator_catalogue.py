"""The classical zoo of twisted derivations on plain polynomials.

Differentiation, the shift difference, dilatations and the Jackson
derivatives all satisfy product rules twisted by substitution operators.
Each row of the catalogue states its rule; verification is exact on
random rational polynomials.
"""

from homlie.opcat import PlainPoly, catalogue, seeded_corpus, verify_entry

t = PlainPoly.t

corpus = seeded_corpus(40)
for entry in catalogue():
    rep = verify_entry(entry, corpus)
    mark = "ok " if rep.ok else "FAIL"
    print(f"[{mark}] {entry.name:34} pair {entry.pair}")

print()
print("sample actions on t^4:")
for entry in catalogue():
    print(f"  {entry.name:34} t^4 |-> {entry.operator(t(4))}")
