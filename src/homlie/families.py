"""The concrete deformation families and the maps between them.

Everything here is a ``GradedAlgebra`` over the basis d_n (n in Z) or
{e, f, h}.  The generators are fixed once and for all as d_n = -t^n . D,
matching the sign convention used throughout; every closed formula below
inherits it.

Each family constructor, like each derivation context, builds its
algebra once per process and returns that one instance, so structure
constants a suite has computed are reused by the suites after it;
nothing changes an algebra's bracket or twist (a perturbation, a
post-composition and a twist each build a new one).

Closed structure constants are written once, as functions of a ring's
(p, q, one) using only + - * /, ** with an int exponent, == and an int
times an element (``witt_data``, ``forced_data``, ``sl2_data``, ...);
the constructors evaluate them at (P, Q, ONE), and a diagonal family
keeps its ``DiagonalData`` for the scale solver.  The inverse-twist
family has only the operator route: it is the generator algebra
``inverse_twist_context().algebra``, bracket and twist alike.
``witt_context``, ``sl2_context`` and ``inverse_twist_context`` give the
same constants through ``bracket_general`` and exact division.

A map between algebras is its generator images: any callable
``Key -> Combo``, such as ``lambda n: Combo.basis(n, P)``, or a
``GeneratorMap`` for a finite table.  ``check_morphism`` checks one on a
window, and ``twist_algebra`` post-composes bracket and twist with one
that it has checked to be a weak morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, NamedTuple

from .algebra import Combo, GradedAlgebra, Key, algebras_equal_on_window, key_name
from .bracket import cube, expand_in_d_basis, jacobi_window, verify_hom_jacobi
from .derivation import DerivationContext, make_context
from .errors import NotWeakMorphism
from .laurent import Endo, LaurentPoly
from .report import Report
from .scalar import ONE, P, Q, Scalar, pq_number_of

# -- the d-basis: d_j = -t^j.D (``bracket.expand_in_d_basis``) ------------------


def coefficient_of_d(n: int) -> LaurentPoly:
    return -LaurentPoly.t(n)


# -- Witt deformations ---------------------------------------------------------


class DiagonalData(NamedTuple):
    """[d_n,d_m] = s(n,m) d_{n+m+shift} and alpha(d_n) = a(n) d_n."""
    s: Callable[[int, int], Any]
    a: Callable[[int], Any]
    shift: int = 0


def witt_coefficient(a, b) -> Callable[[int], Any]:
    """n -> [n]/a^n with (a,b)-deformed integers, computed once per index."""
    return cache(lambda n: pq_number_of(a, b, n) / a ** n)


def witt_data(a, b, one, coeff=None) -> DiagonalData:
    """[d_n,d_m] = ([n]/a^n - [m]/a^m) d_{n+m}, twist d_n -> (1 + (b/a)^n) d_n:
    W_{p,q} at (P, Q, ONE) and W_{q/p} at (ONE, Q/P, ONE).  ``coeff`` is
    a shared ``witt_coefficient(a, b)``; by default a fresh one."""
    coeff, ratio = coeff or witt_coefficient(a, b), b / a
    return DiagonalData(lambda n, m: coeff(n) - coeff(m), lambda n: one + ratio ** n)


def forced_data(p, q, one) -> DiagonalData:
    """[d_n,d_m]' = (q^m [n] - q^n [m]) d_{n+m}, twist d_n -> (p^n + q^n) d_n;
    [n] is symmetric in p and q, so (q, p, one) gives the p-form."""
    number = cache(lambda n: pq_number_of(p, q, n))
    return DiagonalData(lambda n, m: q ** m * number(n) - q ** n * number(m),
                        lambda n: p ** n + q ** n)


def sigma_sigma_data(p, one, shift: int) -> DiagonalData:
    """[d_n,d_m] = (n-m)/p d_{n+m+shift}, twist 2*id; classical W is the
    value at p = one."""
    inverse, two = one / p, 2 * one
    return DiagonalData(lambda n, m: (n - m) * inverse, lambda n: two, shift)


def sigma_sigma_forced_data(p, one) -> DiagonalData:
    """[d_n,d_m]' = (n-m) p^(n+m-1) d_{n+m}, twist d_n -> 2 p^n d_n."""
    return DiagonalData(lambda n, m: (n - m) * p ** (n + m - 1), lambda n: 2 * p ** n)


def _diagonal(name: str, data: DiagonalData) -> GradedAlgebra:
    """The algebra of ``data`` over Q(p,q); it keeps ``data``."""
    s, a, shift = data
    alg = GradedAlgebra(name, lambda n, m: Combo.basis(n + m + shift, s(n, m)),
                        lambda n: Combo.basis(n, a(n)))
    alg.data = data
    return alg


@cache
def witt_context() -> DerivationContext:
    """The dilation context tau(t) = pt, sigma(t) = qt, g = p - q, of
    W_{p,q} and of its forced bracket."""
    return make_context(Endo.dilation(P), Endo.dilation(Q))


@cache
def witt_pq_coefficient() -> Callable[[int], Scalar]:
    """n -> [n]/p^n over Q(p,q), computed once per index per process: W_{p,q}
    and the Virasoro cocycle (``extension.virasoro_cocycle``) both read it."""
    return witt_coefficient(P, Q)


@cache
def witt_pq() -> GradedAlgebra:
    """The (p,q)-deformed Witt algebra, the general bracket on
    ``witt_context``."""
    return _diagonal("W_{p,q}", witt_data(P, Q, ONE, witt_pq_coefficient()))


@cache
def witt_r() -> GradedAlgebra:
    """The one-parameter deformation in r = q/p; its structure constants
    are the r-deformed integers {n} - {m}."""
    return _diagonal("W_{q/p}", witt_data(ONE, Q / P, ONE))


@cache
def witt_pq_forced() -> GradedAlgebra:
    """The forced-bracket deformation [d_n,d_m]' = (q^m [n] - q^n [m]) d_{n+m}
    with twist d_n -> (p^n + q^n) d_n."""
    return _diagonal("W_{p,q}-forced", forced_data(P, Q, ONE))


@cache
def classical_witt() -> GradedAlgebra:
    """[d_n,d_m] = (n-m) d_{n+m}, carried with twist 2*id so it lines up
    with the q = p degenerations."""
    return _diagonal("W", sigma_sigma_data(ONE, ONE, 0))


@cache
def sigma_sigma_witt(generator: str = "t-partial") -> GradedAlgebra:
    """The tau = sigma family over sigma(t) = pt.

    generator="partial" uses d with d(t^n) = n (pt)^(n-1), grading
    n + m - 1; generator="t-partial" uses D = t*d, grading n + m.  Both
    give Lie algebras (twist 2*id) isomorphic to the classical Witt
    algebra.
    """
    if generator not in ("partial", "t-partial"):
        raise ValueError("generator must be 'partial' or 't-partial'")
    shift = -1 if generator == "partial" else 0
    return _diagonal(f"W_{{p,p}}[{generator}]", sigma_sigma_data(P, ONE, shift))


@cache
def sigma_sigma_witt_forced() -> GradedAlgebra:
    """Forced bracket on the t-partial generator:
    [d_n,d_m]' = (n-m) p^(n+m-1) d_{n+m}, twist d_n -> 2 p^n d_n."""
    return _diagonal("W_{p,p}-forced", sigma_sigma_forced_data(P, ONE))


# -- sl(2) deformations --------------------------------------------------------

SL2_BASIS = ("e", "f", "h")


def _sl2_table(name: str, he: Scalar, hf: Scalar, ef: Scalar,
              twist: tuple[Scalar, Scalar, Scalar]) -> GradedAlgebra:
    """[h,e] = he e, [h,f] = hf f, [e,f] = ef h, extended antisymmetrically,
    and the diagonal twist with the values ``twist`` on e, f, h."""
    table: dict[tuple[str, str], Combo] = {}
    for x, y, z, c in (("h", "e", "e", he), ("h", "f", "f", hf), ("e", "f", "h", ef)):
        table[(x, y)] = Combo.basis(z, c)
        table[(y, x)] = Combo.basis(z, -c)
    diagonal = dict(zip(SL2_BASIS, twist))
    return GradedAlgebra(name, lambda x, y: table.get((x, y), Combo.zero()),
                         lambda x: Combo.basis(x, diagonal[x]), basis=SL2_BASIS)


def sl2_data(a, b, one) -> tuple:
    """``_sl2_table``'s [h,e] = 2 a^-1 e, [h,f] = -2 b a^-2 f, [e,f] =
    (a+b)/(2a^2) h and the twist from the quasi-bracket construction."""
    two, ratio = 2 * one, b / a
    return (two / a, -(two * b) / a ** 2, (a + b) / (two * a ** 2),
            (one + ratio, ratio * (one + ratio), two * ratio))


SL2_COEFF = {
    "e": LaurentPoly.one(),
    "f": -LaurentPoly.t(2),
    "h": -LaurentPoly.t(1).scale(Scalar.from_int(2)),
}


@cache
def sl2_context() -> DerivationContext:
    """The partial-generator context: g = t(p - q), delta = q/p."""
    g = LaurentPoly.t(1).scale(P - Q)
    return make_context(Endo.dilation(P), Endo.dilation(Q), override_g=g)


@cache
def sl2_pq() -> GradedAlgebra:
    """The bracket of ``sl2_context`` on the span of ``SL2_COEFF``."""
    return _sl2_table("sl(2)_{p,q}", *sl2_data(P, Q, ONE))


@cache
def sl2_r() -> GradedAlgebra:
    return _sl2_table("sl(2)_{q/p}", *sl2_data(ONE, Q / P, ONE))


@cache
def sl2_pp() -> GradedAlgebra:
    return _sl2_table("sl(2)_{p,p}", *sl2_data(P, P, ONE))


@cache
def classical_sl2() -> GradedAlgebra:
    return _sl2_table("sl(2)", *sl2_data(ONE, ONE, ONE))


@cache
def sl2_pp_forced() -> GradedAlgebra:
    """Forced bracket at q = p on the partial generator:
    [h,e]' = 2e, [h,f]' = -2p^2 f, [e,f]' = p h, twist 2*sigma-bar."""
    return _sl2_table("sl(2)_{p,p}-forced", 2 * ONE, -2 * P ** 2, P, (2 * ONE, 2 * P ** 2, 2 * P))


def sl2_expand(w: LaurentPoly) -> Combo:
    """Expand w.partial over span{e, f, h} through its coordinates on
    d_j = -t^j.partial; raises if w leaves the span."""
    def slot(k: int) -> Combo:
        if k not in _SL2_SLOTS:
            raise ValueError(f"coefficient {w.coeff(k)}*t^{k} is outside span(e,f,h)")
        return _SL2_SLOTS[k]

    return expand_in_d_basis(w).linear_map(slot, Combo)


# d_j -> its image: d_0 = -e, d_1 = h/2, d_2 = f
_SL2_SLOTS = {0: Combo.basis("e", -1), 1: Combo.basis("h", ONE / 2), 2: Combo.basis("f")}


# -- the inversion-twist example ----------------------------------------------


@cache
def inverse_twist_context() -> DerivationContext:
    """The inversion context tau(t) = t^-1, sigma(t) = qt, g = t^-1 - qt."""
    return make_context(Endo.inversion(), Endo.dilation(Q))


@cache
def inverse_twist_example() -> GradedAlgebra:
    """The family over tau(t) = t^-1, sigma(t) = qt, g = t^-1 - qt: the
    general bracket expanded into finitely many d_j by exact division by
    g.  There delta = -1, so the twist sigma tau^-1 + delta is
    alpha(d_n) = q^-n d_{-n} - d_n.  It is the context's own generator
    algebra, named here."""
    alg = inverse_twist_context().algebra
    alg.name = "W-inv"
    return alg


# -- morphisms ------------------------------------------------------------------


class GeneratorMap(dict):
    """A map between algebras given by a finite table of generator images;
    any callable ``Key -> Combo`` serves as well."""

    __call__ = dict.__getitem__


def check_morphism(phi: Callable[[Key], Combo], src: GradedAlgebra, dst: GradedAlgebra,
                   window: int = 6) -> Report:
    """Bracket intertwining (weak morphism) and twist intertwining (full
    morphism) of the generator map phi on all generator pairs of the
    window."""
    report = Report(suite="morphism", window=window,
                    params={"src": src.name, "dst": dst.name})
    keys = src.keys(window)
    weak = True
    for i in keys:
        for j in keys:
            lhs = src.bracket_gen(i, j).linear_map(phi, Combo)
            rhs = dst.bracket(phi(i), phi(j))
            ok = lhs == rhs
            weak = weak and ok
            report.check(
                f"bracket-({i},{j})", "bracket-intertwining", ok,
                witness=None if ok else f"phi[{key_name(i)},{key_name(j)}] = {lhs} != {rhs}",
            )
    full = True
    for i in keys:
        lhs = src.twist_gen(i).linear_map(phi, Combo)
        rhs = dst.twist(phi(i))
        ok = lhs == rhs
        full = full and ok
        x = key_name(i)
        report.check(
            f"twist-{i}", "twist-intertwining", ok,
            witness=None if ok else f"phi(alpha({x})) = {lhs} != alpha'(phi({x})) = {rhs}",
        )
    report.data["weak"] = weak
    report.data["full"] = weak and full
    return report


def twist_algebra(
    alg: GradedAlgebra,
    rho: Callable[[Key], Combo],
    window: int = 5,
    name: str | None = None,
) -> GradedAlgebra:
    """The twist of ``alg`` along a weak morphism rho, given by its
    generator images: bracket and twist are post-composed with rho.

    rho is verified to be a weak morphism on the window first
    (``check_morphism``) and the Hom-Jacobi identity of the result is
    re-checked there; both failures raise rather than returning a broken
    algebra.
    """
    morphism = check_morphism(rho, alg, alg, window)
    if not morphism.data["weak"]:
        first = morphism.first_failure()
        raise NotWeakMorphism(f"rho fails bracket intertwining at {first.id}: {first.witness}")

    twisted = alg.post_composed(lambda combo: combo.linear_map(rho, Combo),
                                name or f"{alg.name}^rho")
    # on the Jacobi window; the whole basis of a finite one
    check = verify_hom_jacobi(twisted, cube(alg.keys(jacobi_window(window))))
    if not check.ok:
        first = check.first_failure()
        raise NotWeakMorphism(f"twisted algebra fails Hom-Jacobi: {first.witness}")
    return twisted


# -- scale-isomorphism solver ----------------------------------------------------


@dataclass
class SymbolicScale:
    """mu * c_1^a * c_-1^b ... : a monomial in the free symbols."""

    mu: Scalar
    exps: dict[str, int] = field(default_factory=dict)

    def times(self, other: "SymbolicScale") -> "SymbolicScale":
        exps = dict(self.exps)
        for s, e in other.exps.items():
            exps[s] = exps.get(s, 0) + e
            if exps[s] == 0:
                del exps[s]
        return SymbolicScale(self.mu * other.mu, exps)

    def power(self, n: int) -> "SymbolicScale":
        return SymbolicScale(self.mu ** n, {s: e * n for s, e in self.exps.items() if e * n})

    def substitute(self, symbol: str, value: "SymbolicScale") -> "SymbolicScale":
        e = self.exps.get(symbol)
        if not e:
            return self
        rest = SymbolicScale(self.mu, {s: k for s, k in self.exps.items() if s != symbol})
        return rest.times(value.power(e))

    def same(self, other: "SymbolicScale") -> bool:
        return self.exps == other.exps and self.mu == other.mu

    def __str__(self) -> str:
        parts = [] if self.mu.is_one() and self.exps else [f"({self.mu})"]
        for s, e in sorted(self.exps.items()):
            parts.append(s if e == 1 else f"{s}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass
class Constraint:
    pair: tuple[int, int]
    text: str


@dataclass
class ScaleSolution:
    nu1: int
    feasible: bool
    family: dict[int, SymbolicScale] = field(default_factory=dict)
    free_symbols: list[str] = field(default_factory=list)
    witness: tuple[Constraint, Constraint] | None = None
    # the scalar an infeasible equation pair reduces to; equal to 1 exactly
    # when the constraints are compatible
    witness_residual: Scalar | None = None
    constraints: list[Constraint] = field(default_factory=list)


def solve_scale_isomorphism(
    src: GradedAlgebra,
    dst: GradedAlgebra,
    window: int = 6,
    nu_candidates: tuple[int, ...] = (1, -1, 2, -2),
) -> dict[int, ScaleSolution]:
    """Search for isomorphisms phi(d_n) = c_n d_(nu1 n) between the
    ``DiagonalData`` of two algebras (ValueError if either has none or a shift).

    For each candidate nu1 the bracket equations

        s_src(n,m) c_{n+m} = c_n c_m s_dst(nu1 n, nu1 m)

    are generated over the window (only where the constants are nonzero;
    pairs where exactly one side vanishes are immediate witnesses) and
    solved by forward substitution, introducing free symbols c_1, c_-1,
    ... when an index is otherwise unconstrained.  Twist matching
    a_src(n) = a_dst(nu1 n) is appended after the bracket sweep.
    """
    for alg in (src, dst):
        if alg.data is None or alg.data.shift:
            raise ValueError(f"{alg.name}: no diagonal structure data of degree n+m")
    return {nu1: _solve_for_nu(src.data, dst.data, window, nu1) for nu1 in nu_candidates}


def _solve_for_nu(src: DiagonalData, dst: DiagonalData, window: int, nu1: int) -> ScaleSolution:
    sol = ScaleSolution(nu1=nu1, feasible=True)
    known: dict[int, SymbolicScale] = {}
    defined_by: dict[int, Constraint] = {}
    free: list[str] = []
    relations: list[Constraint] = []

    def substitute_everywhere(symbol: str, value: SymbolicScale):
        for n in list(known):
            known[n] = known[n].substitute(symbol, value)

    pairs = sorted(
        ((n, m) for n in range(-window, window + 1) for m in range(-window, window + 1)
         if abs(n + m) <= window and n != m),
        key=lambda nm: (abs(nm[0]) + abs(nm[1]), nm),
    )

    progress, queue = True, list(pairs)
    while queue:
        if not progress:
            # declare the smallest still-unknown index free and resume
            unknown = sorted(
                {i for nm in queue for i in (nm[0], nm[1], nm[0] + nm[1]) if i not in known},
                key=lambda i: (abs(i), -i),
            )
            if not unknown:
                break
            idx = unknown[0]
            name = f"c_{idx}"
            known[idx] = SymbolicScale(Scalar.one(), {name: 1})
            free.append(name)
        progress = False
        remaining = []
        for (n, m) in queue:
            lhs_s = src.s(n, m)
            rhs_s = dst.s(nu1 * n, nu1 * m)
            if lhs_s.is_zero() != rhs_s.is_zero():
                c1 = Constraint((n, m), f"s_src({n},{m}) = {lhs_s}")
                c2 = Constraint((n, m), f"s_dst({nu1 * n},{nu1 * m}) = {rhs_s}")
                return ScaleSolution(nu1=nu1, feasible=False, witness=(c1, c2),
                                     free_symbols=free)
            if lhs_s.is_zero():
                continue
            # c_n * c_m * (rhs_s / lhs_s) = c_{n+m}
            ratio = rhs_s / lhs_s
            involved = {n: 0, m: 0, n + m: 0}
            involved[n] += 1
            involved[m] += 1
            involved[n + m] -= 1
            involved = {i: e for i, e in involved.items() if e}
            unknowns = [i for i in involved if i not in known]
            if len(unknowns) > 1:
                remaining.append((n, m))
                continue
            lhs = SymbolicScale(ratio)
            for i, e in involved.items():
                if i in known:
                    lhs = lhs.times(known[i].power(e))
            if not unknowns:
                if lhs.same(SymbolicScale(Scalar.one())):
                    continue
                if lhs.exps:
                    # a relation among free symbols: eliminate one of them
                    sym, e = sorted(lhs.exps.items())[-1]
                    if abs(e) == 1:
                        # sym^e * rest = 1  =>  sym = rest^(-e) for e = +-1
                        rest = SymbolicScale(
                            lhs.mu, {s: k for s, k in lhs.exps.items() if s != sym}
                        )
                        value = rest.power(-e)
                        substitute_everywhere(sym, value)
                        if sym in free:
                            free.remove(sym)
                        relations.append(
                            Constraint((n, m), f"{sym} = {value} (from pair ({n},{m}))")
                        )
                        progress = True
                        continue
                    relations.append(Constraint((n, m), f"relation {lhs} = 1"))
                    continue
                # pure scalar contradiction
                prev = defined_by.get(n + m) or defined_by.get(n) or defined_by.get(m)
                c_new = Constraint(
                    (n, m),
                    f"pair ({n},{m}) forces {_constraint_text(involved, known, ratio)}",
                )
                c_old = prev or Constraint((n, m), "prior definitions")
                return ScaleSolution(nu1=nu1, feasible=False, witness=(c_old, c_new),
                                     witness_residual=lhs.mu,
                                     free_symbols=free, family=known)
            i = unknowns[0]
            e = involved[i]
            # lhs * c_i^e = 1  =>  c_i = lhs^(-1/e); exponents here are +-1
            value = lhs.power(-e)
            known[i] = value
            defined_by[i] = Constraint((n, m), f"c_{i} = {value} (from pair ({n},{m}))")
            progress = True
        queue = remaining

    # twist constraints are scalar identities, independent of the c_n
    for n in range(-window, window + 1):
        if src.a(n) != dst.a(nu1 * n):
            c1 = Constraint((n, n), f"src twist a({n}) = {src.a(n)}")
            c2 = Constraint((n, n), f"dst twist a({nu1 * n}) = {dst.a(nu1 * n)}")
            return ScaleSolution(nu1=nu1, feasible=False, witness=(c1, c2),
                                 free_symbols=free, family=known)

    sol.family = known
    sol.free_symbols = free
    sol.constraints = relations + [defined_by[i] for i in sorted(defined_by)]
    return sol


def _constraint_text(involved: dict[int, int], known: dict[int, SymbolicScale], ratio: Scalar) -> str:
    names = [f"c_{i}" if e == 1 else f"c_{i}^{e}" for i, e in sorted(involved.items())]
    return f"({ratio}) * {' * '.join(names)} = 1"


# -- degenerations and the summary diagrams -------------------------------------


def subst_algebra(alg: GradedAlgebra, p_image: Scalar, q_image: Scalar, name: str) -> GradedAlgebra:
    """Apply a parameter substitution to every structure constant."""
    return alg.post_composed(
        lambda combo: combo.map_scalars(lambda s: s.subst(p_image, q_image)), name)


def diagram_report(window: int = 4) -> Report:
    """Verify every edge of the two deformation-summary diagrams."""
    report = Report(suite="diagram", window=window)

    def same(edge: str, anchor: str, alg: GradedAlgebra, target: GradedAlgebra) -> None:
        ok, why = algebras_equal_on_window(alg, target, window)
        report.check(edge, anchor, ok, witness=why)

    w_pq, w_r = witt_pq(), witt_r()
    w_forced = witt_pq_forced()
    w_pp = sigma_sigma_witt("t-partial")
    w_pp_forced = sigma_sigma_witt_forced()
    w_classical = classical_witt()

    # Hom-Lie isomorphism column: W_{q/p} -> W_{p,q}, d_n -> p d_n
    phi = lambda n: Combo.basis(n, P)
    report.absorb("witt-hom-iso", "scale-isomorphism", check_morphism(phi, w_r, w_pq, window))

    # Lie column: W -> W_{p,p}, d_n -> p d_n
    report.absorb("witt-lie-iso", "scale-isomorphism",
                  check_morphism(phi, w_classical, w_pp, window))

    # twist equivalences with rho(d_n) = p^n d_n
    rho = lambda n: Combo.basis(n, P ** n)
    same("witt-twist-equivalence", "twist-equivalence",
         twist_algebra(w_pq, rho, window=window, name="W_{p,q}^rho"), w_forced)
    same("witt-pp-twist-equivalence", "twist-equivalence",
         twist_algebra(w_pp, rho, window=window, name="W_{p,p}^rho"), w_pp_forced)

    # q = p degenerations
    same("witt-r-degeneration", "degeneration",
         subst_algebra(w_r, P, P, "W_{q/p}|q=p"), w_classical)
    same("witt-pq-degeneration", "degeneration",
         subst_algebra(w_pq, P, P, "W_{p,q}|q=p"), w_pp)
    same("witt-forced-degeneration", "degeneration",
         subst_algebra(w_forced, P, P, "W'|q=p"), w_pp_forced)

    # sl(2) column.  The generator scalings a, b, c on e, f, h intertwine
    # the brackets exactly when c = p and a*b = p^2; multiplication by p
    # realizes the isomorphism.  (The scaling with b = 2p^2/(p+q) fails
    # the [e,f] equation by the factor (p+q)/(2p); see the ledger.)
    s_pq, s_r = sl2_pq(), sl2_r()
    s_pp, s_classical, s_pp_forced = sl2_pp(), classical_sl2(), sl2_pp_forced()
    phi_sl2 = GeneratorMap({k: Combo.basis(k, P) for k in SL2_BASIS})
    report.absorb("sl2-hom-iso", "scale-isomorphism", check_morphism(phi_sl2, s_r, s_pq, window))
    report.absorb("sl2-lie-iso", "scale-isomorphism",
                  check_morphism(phi_sl2, s_classical, s_pp, window))

    # The sl(2) twisting map e -> e, f -> p^2 f, h -> p h is not a weak
    # morphism of classical sl(2) (the partial-generator bracket drops the
    # t-degree by one), so the edge is the data identity mu' = rho.mu,
    # alpha' = rho.alpha; Hom-Jacobi of the target holds by the forced
    # construction and is re-checked below.
    images = {"e": Combo.basis("e"), "f": Combo.basis("f", P ** 2), "h": Combo.basis("h", P)}
    rho_sl2 = lambda combo: combo.linear_map(images.__getitem__, Combo)
    ok, why = algebras_equal_on_window(
        s_classical.post_composed(rho_sl2, "sl(2)^rho"), s_pp_forced, window)
    if ok:
        jacobi = verify_hom_jacobi(s_pp_forced, cube(SL2_BASIS))
        ok, why = jacobi.ok, jacobi.witness()
    report.check("sl2-twist-equivalence", "twist-equivalence", ok, witness=why)

    same("sl2-pq-degeneration", "degeneration", subst_algebra(s_pq, P, P, "sl2|q=p"), s_pp)
    same("sl2-r-degeneration", "degeneration",
         subst_algebra(s_r, P, P, "sl2r|q=p"), s_classical)

    return report
