"""The families' structure data over a second coefficient ring.

Each data function of ``families`` and ``extension.virasoro_value`` is
one formula in a ring's (p, q, one).  Here it is evaluated in GF(2^61 - 1)
at seeded points and compared with the ``Scalar`` algebras the suites
check, reduced mod 2^61 - 1; the identities the suites prove are then
re-derived in the field, and a seeded fault must show there too.  The
field class has only the operations the data may use, so a formula that
reaches for another one fails here.

The operator route gets the same treatment: at seeded points
(p0, q0, t0) the generator D(t^n) = u [n]_{x,y} and the general bracket
of monomial contexts are evaluated in the field, with [n]_{x,y} a sum
without division, and compared with the contexts' own values.
"""

import random

import pytest

from homlie.derivation import make_context
from homlie.extension import virasoro_cocycle, virasoro_value
from homlie.families import (
    DiagonalData,
    classical_sl2,
    classical_witt,
    forced_data,
    inverse_twist_context,
    sigma_sigma_data,
    sigma_sigma_forced_data,
    sigma_sigma_witt,
    sigma_sigma_witt_forced,
    sl2_data,
    sl2_pp,
    sl2_pq,
    sl2_r,
    witt_data,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from homlie.laurent import Endo
from homlie.scalar import ONE, P, Q

PRIME = 2 ** 61 - 1


class GF:
    """An element of GF(2^61 - 1): + - * /, ** with an int exponent, ==
    and an int times an element, nothing else."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % PRIME

    def __add__(self, other: "GF") -> "GF":
        return GF(self.v + other.v)

    def __sub__(self, other: "GF") -> "GF":
        return GF(self.v - other.v)

    def __neg__(self) -> "GF":
        return GF(-self.v)

    def __mul__(self, other: "GF") -> "GF":
        return GF(self.v * other.v)

    def __rmul__(self, k: int) -> "GF":
        assert type(k) is int, k
        return GF(k * self.v)

    def __truediv__(self, other: "GF") -> "GF":
        return GF(self.v * pow(other.v, -1, PRIME))

    def __pow__(self, n: int) -> "GF":
        assert type(n) is int, n
        return GF(pow(self.v, n, PRIME))

    def __eq__(self, other: "GF") -> bool:
        return self.v == other.v

    __hash__ = None

    def __repr__(self) -> str:
        return f"GF({self.v})"


SEEDS = (1, 2, 3)


def point(seed: int) -> tuple[int, int]:
    """Two distinct integers (p0, q0) from 2 to 10^6."""
    p0, q0 = random.Random(seed).sample(range(2, 10 ** 6), 2)
    return p0, q0


def reduced(scalar, p0: int, q0: int) -> GF:
    """The Scalar at (p0, q0), reduced mod 2^61 - 1."""
    value = scalar.specialize(p0, q0)
    return GF(value.numerator) / GF(value.denominator)


def ring(seed: int) -> tuple[GF, GF, GF]:
    p0, q0 = point(seed)
    return GF(p0), GF(q0), GF(1)


# (Scalar algebra, its data over a ring's (p, q, one))
DIAGONAL = {
    "witt_pq": (witt_pq, witt_data),
    "witt_r": (witt_r, lambda p, q, one: witt_data(one, q / p, one)),
    "witt_pq_forced": (witt_pq_forced, forced_data),
    "classical_witt": (classical_witt, lambda p, q, one: sigma_sigma_data(one, one, 0)),
    "sigma_sigma_t_partial": (lambda: sigma_sigma_witt("t-partial"),
                              lambda p, q, one: sigma_sigma_data(p, one, 0)),
    "sigma_sigma_partial": (lambda: sigma_sigma_witt("partial"),
                            lambda p, q, one: sigma_sigma_data(p, one, -1)),
    "sigma_sigma_forced": (sigma_sigma_witt_forced,
                           lambda p, q, one: sigma_sigma_forced_data(p, one)),
}

SL2 = {
    "sl2_pq": (sl2_pq, sl2_data),
    "sl2_r": (sl2_r, lambda p, q, one: sl2_data(one, q / p, one)),
    "sl2_pp": (sl2_pp, lambda p, q, one: sl2_data(p, p, one)),
    "classical_sl2": (classical_sl2, lambda p, q, one: sl2_data(one, one, one)),
}

WINDOW = range(-6, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", DIAGONAL)
def test_diagonal_data_equals_the_reduced_scalar_algebra(family, seed):
    build, data_of = DIAGONAL[family]
    alg, (p0, q0) = build(), point(seed)
    s, a, shift = data_of(*ring(seed))
    assert alg.data.shift == shift
    for n in WINDOW:
        assert a(n) == reduced(alg.twist_gen(n).coeff(n), p0, q0), n
        for m in WINDOW:
            want = reduced(alg.bracket_gen(n, m).coeff(n + m + shift), p0, q0)
            assert s(n, m) == want, (n, m)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", SL2)
def test_sl2_data_equals_the_reduced_scalar_algebra(family, seed):
    build, data_of = SL2[family]
    alg, (p0, q0) = build(), point(seed)
    he, hf, ef, twist = data_of(*ring(seed))
    for (x, y, z), value in zip((("h", "e", "e"), ("h", "f", "f"), ("e", "f", "h")),
                                (he, hf, ef)):
        assert value == reduced(alg.bracket_gen(x, y).coeff(z), p0, q0), (x, y)
        assert -value == reduced(alg.bracket_gen(y, x).coeff(z), p0, q0), (y, x)
    for x, value in zip("efh", twist):
        assert value == reduced(alg.twist_gen(x).coeff(x), p0, q0), x


@pytest.mark.parametrize("seed", SEEDS)
def test_virasoro_value_equals_the_reduced_cocycle(seed):
    g, (p0, q0) = virasoro_cocycle(), point(seed)
    value = virasoro_value(*ring(seed))
    for n in WINDOW:
        for m in WINDOW:
            assert value(n, m) == reduced(g.value(n, m), p0, q0), (n, m)


def failures(term, triples, zero: GF) -> list:
    """The triples whose cyclic residue sum_cyc term(x, y, z) is nonzero."""
    return [(x, y, z) for x, y, z in triples
            if term(x, y, z) + term(y, z, x) + term(z, x, y) != zero]


def hom_jacobi_failures(data: DiagonalData, zero: GF, window: int = 3) -> list:
    """Hom-Jacobi on the cube of the window: every rotation term
    [alpha(d_x), [d_y, d_z]] = a(x) s(y,z) s(x, y+z+shift) lies on
    d_(x+y+z+2 shift)."""
    s, a, shift = data
    keys = range(-window, window + 1)
    return failures(lambda x, y, z: a(x) * s(y, z) * s(x, y + z + shift),
                    [(x, y, z) for x in keys for y in keys for z in keys], zero)


def cocycle_failures(data: DiagonalData, g, zero: GF, window: int = 6) -> list:
    """The cocycle condition on n + m + k = 0, with rotation terms
    g(alpha(d_x), [d_y, d_z]) = a(x) s(y,z) g(x, y+z)."""
    s, a, _ = data
    keys = range(-window, window + 1)
    return failures(lambda x, y, z: a(x) * s(y, z) * g(x, y + z),
                    [(n, m, -n - m) for n in keys for m in keys if abs(n + m) <= window], zero)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", DIAGONAL)
def test_hom_jacobi_holds_in_the_field(family, seed):
    p, q, one = ring(seed)
    assert hom_jacobi_failures(DIAGONAL[family][1](p, q, one), 0 * one) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_cocycle_condition_holds_in_the_field(seed):
    p, q, one = ring(seed)
    assert cocycle_failures(witt_data(p, q, one), virasoro_value(p, q, one), 0 * one) == []


def bumped(f, at, one):
    """f with one added to its value at ``at``."""
    return lambda *args: f(*args) + one if args == at else f(*args)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_fault_shows_in_the_field(seed):
    p, q, one = ring(seed)
    zero = 0 * one
    s, a, _ = witt_data(p, q, one)
    assert hom_jacobi_failures(DiagonalData(bumped(s, (1, 2), one), a), zero)
    assert hom_jacobi_failures(DiagonalData(s, bumped(a, (1,), one)), zero)
    g = bumped(virasoro_value(p, q, one), (3, -3), one)
    assert cocycle_failures(DiagonalData(s, a), g, zero)


# -- the operator route at points (p0, q0, t0) -------------------------------

# (Scalar c, the same c in a ring's (p, q, one))
COEFFS = [
    (ONE, lambda p, q, one: one),
    (-ONE, lambda p, q, one: -one),
    (P, lambda p, q, one: p),
    (Q, lambda p, q, one: q),
    (Q / P, lambda p, q, one: q / p),
]
# the map t -> c t^k as (c, k, c in a ring)
MAPS = [(c, k, c_of) for c, c_of in COEFFS for k in (1, -1)]
GRID = [(tau, sigma) for tau in MAPS for sigma in MAPS if tau is not sigma]


def point_t(seed: int) -> tuple[int, int, int]:
    """Three distinct integers (p0, q0, t0) from 2 to 10^6."""
    p0, q0, t0 = random.Random(seed).sample(range(2, 10 ** 6), 3)
    return p0, q0, t0


def at_point(f, p0: int, q0: int, t0: int) -> GF:
    """f, a Laurent polynomial or an int-keyed generator combination, with
    the key j read as t^j, at (p0, q0, t0), reduced mod 2^61 - 1."""
    total = GF(0)
    for j, c in f.coeffs.items():
        total = total + reduced(c, p0, q0) * GF(t0) ** j
    return total


def deformed(x: GF, y: GF, n: int) -> GF:
    """[n]_{x,y} as the sum of x^(n-1-k) y^k, and -(xy)^n [-n] for n < 0."""
    if n < 0:
        return -((x * y) ** n) * deformed(x, y, -n)
    total = GF(0)
    for k in range(n):
        total = total + x ** (n - 1 - k) * y ** k
    return total


def field_route(tau, sigma, g: GF, p0: int, q0: int, t0: int):
    """D and the general bracket [t^n.D, t^m.D] = c.D at (p0, q0, t0),
    from x = tau(t), y = sigma(t), u = (x - y)/g, tau^-1(t) = c^-k t^k
    and sigma tau^-1(t) = tau^-1(y)."""
    (_, k, c_of), (_, l, d_of) = tau, sigma
    p, q, one, t0 = GF(p0), GF(q0), GF(1), GF(t0)
    c, d = c_of(p, q, one), d_of(p, q, one)
    x, y = c * t0 ** k, d * t0 ** l
    u = (x - y) / g

    def gen(n: int) -> GF:
        return u * deformed(x, y, n)

    def bracket(n: int, m: int, sti: GF = c ** -k * y ** k) -> GF:
        return sti ** n * c ** (-k * m) * gen(k * m) - sti ** m * c ** (-k * n) * gen(k * n)

    return gen, bracket


@pytest.mark.parametrize("tau,sigma", GRID, ids=lambda m: str(Endo(*m[:2])))
def test_operator_route_equals_the_reduced_context(tau, sigma):
    ctx = make_context(Endo(*tau[:2]), Endo(*sigma[:2]))
    for at in map(point_t, SEEDS):
        gen, bracket = field_route(tau, sigma, at_point(ctx.g, *at), *at)
        for n in range(-7, 8):
            assert gen(n) == at_point(ctx.generator_on_monomial(n), *at), (at, n)
        for n in range(-3, 4):
            for m in range(-3, 4):
                # [d_n, d_m] = c.D is -c_j d_j in the generators d_j = -t^j.D
                want = -at_point(ctx.algebra.bracket_gen(n, m), *at)
                assert bracket(n, m) == want, (at, n, m)


INVERSION = (ONE, -1, lambda p, q, one: one), (Q, 1, lambda p, q, one: q)


@pytest.mark.parametrize("seed", SEEDS)
def test_inversion_brackets_in_the_field_and_a_wrong_twist(seed):
    """W-inv on all 289 pairs of window 8; with sigma tau^-1(t) = q t^-1
    in place of q^-1 t^-1 only the pairs with n = m or n m = 0 agree."""
    ctx, at = inverse_twist_context(), point_t(seed)
    _, bracket = field_route(*INVERSION, at_point(ctx.g, *at), *at)
    wrong_twist = GF(at[1]) / GF(at[2])
    wrong_agrees = []
    for n in range(-8, 9):
        for m in range(-8, 9):
            want = -at_point(ctx.algebra.bracket_gen(n, m), *at)
            assert bracket(n, m) == want, (n, m)
            if bracket(n, m, sti=wrong_twist) == want:
                wrong_agrees.append((n, m))
    assert wrong_agrees == [(n, m) for n in range(-8, 9) for m in range(-8, 9)
                            if n == m or n * m == 0]
