"""Linear combinations over an indexed basis and graded bracket structures.

A ``Combo`` is a finite Scalar-linear combination of basis keys; keys are
integers for Z-graded algebras such as the deformed Witt algebras, short
strings for finite bases like {e, f, h}, and "c" for a central element.

A ``GradedAlgebra`` packages a bracket closure and a twist closure on
generators.  Structure constants are computed lazily through the
closures; nothing is materialized beyond what a verification window
requests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from .scalar import Scalar

Key = int | str


def _key_order(k: Key):
    return (0, k, "") if isinstance(k, int) else (1, 0, k)


class Combo:
    """Finite Scalar-linear combination of basis keys, stored as
    {key: nonzero Scalar}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict = (
            {k: c for k, c in terms.items() if not c.is_zero()} if terms else {}
        )

    @staticmethod
    def _new(terms: dict) -> "Combo":
        """A Combo around a map that already holds no zero coefficient."""
        r = object.__new__(Combo)
        r.terms = terms
        return r

    @staticmethod
    def zero() -> "Combo":
        return Combo()

    @staticmethod
    def basis(key: Key, coeff: Scalar | int = 1) -> "Combo":
        c = coeff if isinstance(coeff, Scalar) else Scalar.from_int(coeff)
        return Combo({key: c})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> Scalar:
        return self.terms.get(key, Scalar.zero())

    def __add__(self, other) -> "Combo":
        if not isinstance(other, Combo):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return self._new(out)

    def __neg__(self) -> "Combo":
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Combo":
        if not isinstance(other, Combo):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "Combo":
        if c.is_zero():
            return Combo()
        return self._new({k: co * c for k, co in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combo):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[k] for k, c in self.terms.items())

    __hash__ = None

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "Combo":
        return Combo({k: fn(c) for k, c in self.terms.items()})

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self.terms, key=_key_order):
            name = f"d_{k}" if isinstance(k, int) else str(k)
            parts.append(f"({self.terms[k]})*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Combo({self})"


class GradedAlgebra:
    """A bracket structure given by closures on generator indices.

    ``bracket_gen(i, j)`` and ``twist_gen(i)`` return Combos; both are
    cached.  ``provenance`` optionally records the derivation context and
    defining coefficients the algebra was built from, so tests can
    cross-check the closed-form constants against operator computations.
    """

    def __init__(
        self,
        name: str,
        bracket_gen: Callable[[Key, Key], Combo],
        twist_gen: Callable[[Key], Combo],
        basis: Iterable[Key] | None = None,
        provenance: dict | None = None,
    ):
        self.name = name
        self.basis = tuple(basis) if basis is not None else None  # None: Z-graded
        self.bracket_gen = lru_cache(maxsize=None)(bracket_gen)
        self.twist_gen = lru_cache(maxsize=None)(twist_gen)
        self.provenance = provenance or {}

    def keys(self, window: int) -> list[Key]:
        if self.basis is not None:
            return list(self.basis)
        return list(range(-window, window + 1))

    def bracket(self, x: Combo, y: Combo) -> Combo:
        total = Combo.zero()
        for i, a in x.terms.items():
            for j, b in y.terms.items():
                total = total + self.bracket_gen(i, j).scale(a * b)
        return total

    def twist(self, x: Combo) -> Combo:
        total = Combo.zero()
        for i, a in x.terms.items():
            total = total + self.twist_gen(i).scale(a)
        return total

    def __repr__(self) -> str:
        return f"GradedAlgebra({self.name})"


def perturb_algebra(alg: GradedAlgebra, at: tuple[Key, Key], delta: Combo) -> GradedAlgebra:
    """A copy of ``alg`` with ``delta`` added to the single structure
    constant at ``at``; used for fault injection."""

    def bracket_gen(i: Key, j: Key) -> Combo:
        base = alg.bracket_gen(i, j)
        if (i, j) == at:
            return base + delta
        return base

    return GradedAlgebra(
        f"{alg.name}[perturbed@{at}]",
        bracket_gen,
        alg.twist_gen,
        basis=alg.basis,
        provenance=alg.provenance,
    )


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
