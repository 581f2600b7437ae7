"""Linear combinations over an indexed basis and graded bracket structures.

A ``Combo`` is a finite Q(p,q)-linear combination of basis keys; keys are
integers for Z-graded algebras such as the deformed Witt algebras, short
strings for finite bases like {e, f, h}, and "c" for a central element.

A ``GradedAlgebra`` packages a bracket closure and a twist closure on
generators.  Structure constants are computed lazily through the
closures; nothing is materialized beyond what a verification window
requests.  ``cyclic_sweep`` is the one rotation loop of the cyclic
verifiers (quasi-Jacobi, Hom-Jacobi and the cocycle condition), over
triples of generator keys.  ``is_skew`` is the gate of its
transposition rule.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .laurent import Linear
from .scalar import _ONE, Scalar

Key = int | str


def _key_order(k: Key):
    return (0, k, "") if isinstance(k, int) else (1, 0, k)


def key_name(k: Key) -> str:
    """The printed name of a basis key: d_n for an int, the bare name
    (e, f, h, ...) otherwise."""
    return f"d_{k}" if isinstance(k, int) else str(k)


class Combo(Linear):
    """Finite Q(p,q)-linear combination of basis keys, on the linear core
    ``laurent.Linear`` (one int numerator over one ``ParamPoly``)."""

    __slots__ = ()

    @classmethod
    def basis(cls, key: Key, coeff: Scalar | int = 1) -> "Combo":
        if isinstance(coeff, Scalar):
            return cls.monomial(coeff, key)
        return cls._new({(key, 0, 0): coeff} if coeff else {}, _ONE)

    # {key: nonzero Scalar}, built on demand like ``coeffs``
    terms = Linear.coeffs

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = self.terms
        parts = []
        for k in sorted(terms, key=_key_order):
            parts.append(f"({terms[k]})*{key_name(k)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Combo({self})"


class GradedAlgebra:
    """A bracket structure given by closures on generator indices.

    ``bracket_gen(i, j)`` and ``twist_gen(i)`` return Combos; both are
    cached.  An algebra is structure data only: the derivation context a
    family comes from is named where its operator route runs (see
    ``families``).
    """
    data = None  # the ``families.DiagonalData`` of a diagonal family

    def __init__(
        self,
        name: str,
        bracket_gen: Callable[[Key, Key], Combo],
        twist_gen: Callable[[Key], Combo],
        basis: Iterable[Key] | None = None,
    ):
        self.name = name
        self.basis = tuple(basis) if basis is not None else None  # None: Z-graded
        self.bracket_gen = lru_cache(maxsize=None)(bracket_gen)
        self.twist_gen = lru_cache(maxsize=None)(twist_gen)

    def keys(self, window: int) -> list[Key]:
        if self.basis is not None:
            return list(self.basis)
        return list(range(-window, window + 1))

    def bracket(self, x: Combo, y: Combo) -> Combo:
        """Bilinear extension of ``bracket_gen``, normalized once."""
        return x.bilinear_map(y, self.bracket_gen, Combo)

    def twist(self, x: Combo) -> Combo:
        return x.linear_map(self.twist_gen, Combo)

    def post_composed(self, f: Callable[[Combo], Combo], name: str) -> "GradedAlgebra":
        """The algebra on the same basis with bracket f.mu and twist f.alpha."""
        return GradedAlgebra(name, lambda i, j: f(self.bracket_gen(i, j)),
                             lambda i: f(self.twist_gen(i)), basis=self.basis)

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.name})"


def is_skew(bracket: Callable[[Key, Key], object], keys: Iterable[Key]) -> bool:
    """Whether bracket(j, i) == -bracket(i, j) exactly for every pair of
    the keys, i == j included: the gate of ``cyclic_sweep``'s
    transposition rule.  It stops at the first pair that fails."""
    keys = list(dict.fromkeys(keys))
    return all(bracket(j, i) == -bracket(i, j)
               for n, i in enumerate(keys) for j in keys[n:])


def cyclic_sweep(triples: Iterable[tuple], residue: Callable,
                 negate: Callable | None = None) -> Iterator[tuple[tuple, object]]:
    """Each triple (a, b, c) of hashable indices with
    residue((a, b, c), (b, c, a), (c, a, b)), which must not depend on
    the order of its arguments, as a cyclic sum does not: it is called
    once per rotation class and memoized under the class's triples.

    ``negate`` is the transposition rule: given only when the caller has
    checked (``is_skew``) that the bracket inside ``residue`` is skew on
    the triples' indices, so that the value at (a, c, b) is the negated
    value at (a, b, c).  A class whose transpose is in the memo then
    takes ``negate`` of the stored value and calls no ``residue``.
    """
    memo: dict = {}
    for triple in triples:
        got = memo.get(triple)
        if got is None:
            a, b, c = triple
            rotations = (a, b, c), (b, c, a), (c, a, b)
            transposed = None if negate is None else memo.get((a, c, b))
            got = residue(*rotations) if transposed is None else negate(transposed)
            memo.update(dict.fromkeys(rotations, got))
        yield triple, got


def perturb_algebra(alg: GradedAlgebra, at: tuple[Key, Key], delta: Combo) -> GradedAlgebra:
    """A copy of ``alg`` with ``delta`` added to the single structure
    constant at ``at``; used for fault injection."""

    def bracket_gen(i: Key, j: Key) -> Combo:
        base = alg.bracket_gen(i, j)
        if (i, j) == at:
            return base + delta
        return base

    return GradedAlgebra(f"{alg.name}[perturbed@{at}]", bracket_gen, alg.twist_gen,
                         basis=alg.basis)


def algebras_equal_on_window(
    a: GradedAlgebra, b: GradedAlgebra, window: int
) -> tuple[bool, str | None]:
    """Compare brackets and twists on all generator pairs of the window."""
    keys_a, keys_b = a.keys(window), b.keys(window)
    if keys_a != keys_b:
        return False, f"bases differ: {keys_a} vs {keys_b}"
    for i in keys_a:
        if a.twist_gen(i) != b.twist_gen(i):
            return False, f"twist differs at {i}: {a.twist_gen(i)} vs {b.twist_gen(i)}"
    for i in keys_a:
        for j in keys_a:
            if a.bracket_gen(i, j) != b.bracket_gen(i, j):
                return False, (
                    f"bracket differs at ({i},{j}): "
                    f"{a.bracket_gen(i, j)} vs {b.bracket_gen(i, j)}"
                )
    return True, None
