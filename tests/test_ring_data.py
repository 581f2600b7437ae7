"""The families' structure data over a second coefficient ring.

Each data function of ``families`` and ``extension.virasoro_value`` is
one formula in a ring's (p, q, one).  Here it is evaluated in GF(2^61 - 1)
at seeded points and compared with the ``Scalar`` algebras the suites
check, reduced mod 2^61 - 1; the identities the suites prove are then
re-derived in the field, and a seeded fault must show there too.  The
field class has only the operations the data may use, so a formula that
reaches for another one fails here.
"""

import random

import pytest

from homlie.extension import virasoro_cocycle, virasoro_value
from homlie.families import (
    DiagonalData,
    classical_sl2,
    classical_witt,
    forced_data,
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
