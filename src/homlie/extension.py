"""One-dimensional central extensions of Hom-Lie algebras at window scale.

The center is span{c} with identity action; a 2-cocycle is an
alternating Scalar-valued form g on the generators satisfying the
twisted cyclic condition

    cyc_{x,y,z}  g(alpha(x), [y, z]) = 0.

The extended bracket is [x, y]^ = [x, y] + g(x, y) c with c central and
the twist extended by c -> c.  The extension is the ``GradedAlgebra`` on
the generators of the base and c, which ``make_central_extension`` and
``virasoro_pq`` return; ``verify_f_compatibility`` takes the base and
the cocycle.  The deformed Virasoro algebra arises this way from the
(p,q)-Witt algebra and the cocycle supported on n + m = 0 with value

    g(n, -n) = (q/p)^(-n) / (6 (1 + (q/p)^n)) * [n-1]/p^(n-1)
               * [n]/p^n * [n+1]/p^(n+1),

written once, over any coefficient ring, as ``virasoro_value(p, q, one)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from .algebra import Combo, GradedAlgebra, Key
from .bracket import cube, index_triples, jacobi_residues, residue_report, verify_hom_jacobi
from .errors import CocycleConditionFailed, PoleAtPoint, PoleAtSpecialization
from .families import witt_coefficient, witt_pq, witt_pq_coefficient
from .report import Report
from .scalar import ONE, P, Q, Scalar

CENTRAL = "c"


class Cocycle:
    """Alternating Scalar-valued 2-form given by a closure on indices.

    Each value is computed once per instance: ``value`` looks (i, j) up
    in the instance's memo and calls the closure only on a miss.  The
    form is also carried as a bracket into the center, ``algebra``, with
    [x, y] = g(x, y) c and [c, -] = 0, so that g(x, y) of two Combos is
    ``algebra.bracket(x, y).coeff(CENTRAL)``, summed on the linear core.
    """

    def __init__(
        self,
        value: Callable[[int, int], Scalar],
        specialization_guard: Callable[[int, int, Fraction, Fraction], None] | None = None,
    ):
        self._value = value
        self._memo: dict[tuple[int, int], Scalar] = {}
        self._guard = specialization_guard
        self.algebra = GradedAlgebra("g", self._central, Combo.basis)

    def value(self, i: int, j: int) -> Scalar:
        v = self._memo.get((i, j))
        if v is None:
            v = self._memo[(i, j)] = self._value(i, j)
        return v

    def _central(self, i: Key, j: Key) -> Combo:
        if i == CENTRAL or j == CENTRAL:
            return Combo.zero()
        return Combo.basis(CENTRAL, self.value(i, j))

    @staticmethod
    def zero() -> "Cocycle":
        return Cocycle(lambda i, j: Scalar.zero())

    def perturbed(self, at: tuple[int, int], delta: Scalar) -> "Cocycle":
        """A copy with ``delta`` added to g(at)."""
        return Cocycle(
            lambda i, j: self.value(i, j) + delta if (i, j) == at else self.value(i, j),
            specialization_guard=self._guard,
        )

    def specialize(self, n: int, m: int, p0, q0) -> Fraction:
        p0, q0 = Fraction(p0), Fraction(q0)
        if self._guard is not None:
            self._guard(n, m, p0, q0)
        try:
            return self.value(n, m).specialize(p0, q0)
        except PoleAtPoint as exc:
            raise PoleAtSpecialization(str(exc)) from exc


def virasoro_value(p, q, one, coeff=None) -> Callable[[int, int], Any]:
    """The cocycle above in a ring's (p, q, one), as ``families.witt_data``,
    on W_{p,q}'s [k]/p^k (``coeff``, by default a fresh
    ``witt_coefficient(p, q)``): (q/p)^-n / (1 + (q/p)^n) = p^2n / (q^n (p^n + q^n))."""
    coeff, zero = coeff or witt_coefficient(p, q), 0 * one

    def value(n: int, m: int):
        if n + m:
            return zero
        return (coeff(n - 1) * coeff(n) * coeff(n + 1) * p ** (2 * n)
                / (6 * q ** n * (p ** n + q ** n)))

    return value


def virasoro_cocycle() -> Cocycle:
    """The central term of the deformed Virasoro bracket.

    Supported on n + m = 0; the value at (n, -n) vanishes for |n| <= 1
    through the [n-1], [n], [n+1] factors.  The denominator 1 + (q/p)^n
    never vanishes for generic parameters; specializing at a point where
    q0/p0 is a root of unity raises PoleAtSpecialization.
    """
    def guard(n: int, m: int, p0: Fraction, q0: Fraction) -> None:
        # the construction assumes q/p is not a root of unity; at a
        # rational point this reduces to 1 + (q0/p0)^n != 0
        if p0 == 0 or q0 == 0:
            raise PoleAtSpecialization("parameters must be nonzero")
        if 1 + (q0 / p0) ** n == 0:
            raise PoleAtSpecialization(
                f"1 + (q/p)^{n} vanishes at ({p0}, {q0}); q/p is a root of unity"
            )

    return Cocycle(virasoro_value(P, Q, ONE, witt_pq_coefficient()),
                   specialization_guard=guard)


def verify_cocycle_condition(g: Cocycle, alg: GradedAlgebra, window: int = 6) -> Report:
    """Exact cyclic check of the 2-cocycle condition on the window: the
    residue cyc g(alpha(x), [y, z]) of each triple is that of
    ``bracket.jacobi_residues`` with the cocycle's bracket into the
    center outside, so it shares Hom-Jacobi's sweep and skew gate.

    The sweep is the full cube of the window.  It keeps only the
    triples with n + m + k = 0 when the algebra is degree-preserving with
    a diagonal twist on the window (``_preserves_degree``) and g(x, s) is
    zero for every x in the window and every s != -x with
    |s| <= 2 * window: then every term of any other triple reads one of
    those zero values.
    """
    report = Report(suite="cocycle-condition", window=window)
    rng = range(-window, window + 1)
    reach = range(-2 * window, 2 * window + 1)
    if (_preserves_degree(alg, rng)
            and all(g.value(x, s).is_zero() for x in rng for s in reach if x + s)):
        triples = [(n, m, -n - m) for n in rng for m in rng if abs(n + m) <= window]
    else:
        triples = index_triples(window)
    residues = jacobi_residues(alg, triples, outer=g.algebra)
    return residue_report(report, "cocycle-condition", residues, lambda r: r.coeff(CENTRAL))


def _preserves_degree(alg: GradedAlgebra, rng: range) -> bool:
    """Whether on the window every twist alpha(d_x) lies in span{d_x} and
    every bracket [d_y, d_z] in span{d_(y+z)}, read from the keys of the
    numerators without building a Scalar."""
    return all(k == x for x in rng for k, _, _ in alg.twist_gen(x).num) and all(
        k == y + z for y in rng for z in rng for k, _, _ in alg.bracket_gen(y, z).num
    )


def verify_alternating(g: Cocycle, window: int = 6) -> Report:
    report = Report(suite="cocycle-alternating", window=window)
    rng = range(-window, window + 1)
    for n in rng:
        ok = g.value(n, n).is_zero()
        report.check(f"diagonal-{n}", "alternating", ok,
                     witness=None if ok else f"g({n},{n}) = {g.value(n, n)}")
        for m in rng:
            ok = g.value(n, m) == -g.value(m, n)
            report.check(
                f"skew-({n},{m})", "alternating", ok,
                witness=None if ok else f"g({n},{m}) != -g({m},{n})",
            )
    return report


def make_central_extension(
    base: GradedAlgebra, g: Cocycle, window: int = 6
) -> GradedAlgebra:
    """The extension of ``base`` by the central element c and the cocycle
    term, on the basis of ``base`` and c; the cocycle condition is
    verified first and the Hom-Jacobi identity of the extension is
    re-checked on the window."""
    pre = verify_cocycle_condition(g, base, window=window)
    if not pre.ok:
        first = pre.first_failure()
        raise CocycleConditionFailed(f"{first.id}: {first.witness}")
    return _assemble_extension(base, g, window)


def _assemble_extension(
    base: GradedAlgebra, g: Cocycle, window: int
) -> GradedAlgebra:
    """The extension by a cocycle whose condition the caller has already
    verified on the window; its Hom-Jacobi identity is re-checked on
    the window capped at 3."""

    def bracket_gen(i: Key, j: Key) -> Combo:
        if i == CENTRAL or j == CENTRAL:
            return Combo.zero()
        return base.bracket_gen(i, j) + g.algebra.bracket_gen(i, j)

    def twist_gen(i: Key) -> Combo:
        if i == CENTRAL:
            return Combo.basis(CENTRAL)
        return base.twist_gen(i)

    ext = GradedAlgebra(f"{base.name}^", bracket_gen, twist_gen)

    small = min(window, 3)
    rep = verify_hom_jacobi(ext, cube([*range(-small, small + 1), CENTRAL]))
    if not rep.ok:
        raise CocycleConditionFailed(
            f"extension fails Hom-Jacobi: {rep.first_failure().witness}"
        )
    return ext


def verify_centrality(ext: GradedAlgebra, window: int = 6) -> Report:
    report = Report(suite="centrality", window=window)
    for n in list(range(-window, window + 1)) + [CENTRAL]:
        ok = (
            ext.bracket_gen(CENTRAL, n).is_zero()
            and ext.bracket_gen(n, CENTRAL).is_zero()
        )
        report.check(f"central-{n}", "centrality", ok,
                     witness=None if ok else f"[c, {n}] != 0")
    ok = ext.twist_gen(CENTRAL) == Combo.basis(CENTRAL)
    report.check("twist-fixes-c", "centrality", ok)
    return report


def virasoro_pq(window: int = 6) -> GradedAlgebra:
    """The deformed Virasoro algebra: central extension of the
    (p,q)-Witt algebra by the cocycle above."""
    return make_central_extension(witt_pq(), virasoro_cocycle(), window=window)


def verify_f_compatibility(
    base: GradedAlgebra,
    g: Cocycle,
    f: Callable[[Combo, Scalar], Scalar],
    window: int = 4,
) -> Report:
    """Check the compatibility equations a caller-supplied factor map f
    must satisfy against the cocycle g on ``base``:

        f(0, a) = a            (the center carries the identity twist)
        g(alpha(x), alpha(y)) = f([x, y], g(x, y))

    The outcome is computed, not asserted; no particular f is built in.
    """
    report = Report(suite="f-compatibility", window=window)
    for idx, a in enumerate((ONE, P, Q, P + Q)):
        got = f(Combo.zero(), a)
        ok = got == a
        report.check(f"identity-on-center-{idx}", "center-twist", ok,
                     witness=None if ok else f"f(0, {a}) = {got}")
    rng = range(-window, window + 1)
    for n in rng:
        for m in rng:
            lhs = g.algebra.bracket(base.twist_gen(n), base.twist_gen(m)).coeff(CENTRAL)
            rhs = f(base.bracket_gen(n, m), g.value(n, m))
            ok = lhs == rhs
            report.check(
                f"pair-({n},{m})", "factor-compatibility", ok,
                witness=None if ok else f"g(a(x),a(y)) = {lhs} != f([x,y], g(x,y)) = {rhs}",
            )
    return report
