"""An independent oracle for the Laurent layer: values at rational points.

Polynomials are drawn here as plain data (a Fraction coefficient, the
exponents of t, p and q, and a denominator from a short list) and
evaluated with ``Fraction`` arithmetic written in this file.  The
catalogue operators are evaluated from their defining formulas, for
example (h(p t) - h(q t)) / ((p - q) t) for the (p,q)-Jackson derivative,
and compared both with the row's operator and with the linear extension
of its images of t^k, which ``verify_entry``'s residue table reads.
The kernel's results are specialised by reading their numerator and
denominator directly, so no code of ``laurent`` or ``scalar`` takes part
in the expected values.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homlie.errors import NotDivisible
from homlie.laurent import Endo, LaurentPoly, apply_endo, exact_div
from homlie.opcat import PlainPoly, _images, catalogue
from homlie.scalar import ONE, P, Q, Scalar

# denominators a drawn coefficient may carry, as kernel scalar and as value
DENS = (
    (ONE, lambda p, q: Fraction(1)),
    (P - Q, lambda p, q: p - q),
    (P + 2 * Q, lambda p, q: p + 2 * q),
)


def value(f: LaurentPoly, p, q, t) -> Fraction:
    """A kernel polynomial at (p, q, t), from its stored form."""
    num = sum(Fraction(c) * t ** k * p ** i * q ** j for (k, i, j), c in f.num.items())
    den = sum(Fraction(c) * p ** i * q ** j for (i, j), c in f.den.terms.items())
    return num / den


def build(spec) -> LaurentPoly:
    """The kernel polynomial of a drawn spec [(c, k, a, b, d)]."""
    out = LaurentPoly.zero()
    for c, k, a, b, d in spec:
        s = Scalar.from_fraction(c) * P ** a * Q ** b / DENS[d][0]
        out = out + LaurentPoly.monomial(s, k)
    return out


def spec_value(spec, p, q, t) -> Fraction:
    return sum((c * t ** k * p ** a * q ** b / DENS[d][1](p, q) for c, k, a, b, d in spec),
               Fraction(0))


def laurent_specs(max_terms=4, span=3):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    k = st.integers(min_value=-span, max_value=span)
    ab = st.integers(min_value=-2, max_value=2)
    d = st.integers(min_value=0, max_value=len(DENS) - 1)
    return st.lists(st.tuples(coeff, k, ab, ab, d), min_size=1, max_size=max_terms)


# points where no denominator of DENS, of the Jackson quotients or of
# the drawn Endo images vanishes
POINTS = st.tuples(
    st.sampled_from([Fraction(2), Fraction(-4), Fraction(5, 2), Fraction(-1, 3)]),
    st.sampled_from([Fraction(3), Fraction(7, 2), Fraction(-2, 5)]),
    st.sampled_from([Fraction(1, 2), Fraction(-2), Fraction(3)]),
)


class TestSpecialisation:
    @given(laurent_specs(), laurent_specs(), POINTS)
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, fs, gs, point):
        f, g = build(fs), build(gs)
        fv, gv = spec_value(fs, *point), spec_value(gs, *point)
        assert value(f, *point) == fv
        assert value(f * g, *point) == fv * gv
        assert value(f - g, *point) == fv - gv

    @given(laurent_specs(), st.integers(min_value=0, max_value=4),
           st.sampled_from([-1, 1, 2]), POINTS)
    @settings(max_examples=80, deadline=None)
    def test_apply_endo(self, fs, which, k, point):
        p, q, t = point
        c_kernel, c_value = [
            (P, p), (Q / P, q / p), (P + Q, p + q), (2 * P, 2 * p), (-Q, -q)
        ][which]
        got = apply_endo(Endo(c_kernel, k), build(fs))
        assert value(got, *point) == spec_value(fs, p, q, c_value * t ** k)

    @given(laurent_specs(), laurent_specs(max_terms=3), POINTS)
    @settings(max_examples=60, deadline=None)
    def test_exact_div_of_a_product(self, fs, gs, point):
        f, g = build(fs), build(gs)
        if g.is_zero():
            return
        assert value(exact_div(f * g, g), *point) == spec_value(fs, *point)

    @given(laurent_specs(max_terms=3), POINTS)
    @settings(max_examples=40, deadline=None)
    def test_exact_div_by_a_parameter_polynomial(self, fs, point):
        # the quotient needs the denominator (p - q)(p + q)
        p, q, t = point
        divisor = LaurentPoly.t(2).scale((P - Q) * (P + Q))
        got = exact_div(build(fs), divisor)
        assert value(got, *point) == spec_value(fs, *point) / ((p - q) * (p + q) * t ** 2)

    def test_quotient_with_parameter_denominator(self):
        t = LaurentPoly.t
        got = exact_div(t(1), t(1).scale(P - Q))
        assert str(got) == "1/(p - q)"
        got = exact_div(t(2) + t(1), t(1).scale(P - Q))
        assert str(got) == "(1/(p - q))*t + (1/(p - q))"
        assert value(got, Fraction(3), Fraction(1), Fraction(2)) == Fraction(3, 2)

    def test_remainder_in_t_is_not_divisible(self):
        t = LaurentPoly.t
        with pytest.raises(NotDivisible):
            exact_div(t(2) + LaurentPoly.one(), (t(1) + LaurentPoly.one()).scale(P - Q))


# -- the catalogue from the operators' defining formulas ---------------------

def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(a: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(a)][1:] or [Fraction(0)]


def _jackson(a: list[Fraction], x, y, t) -> Fraction:
    return (_horner(a, x * t) - _horner(a, y * t)) / ((x - y) * t)


# row -> (D(h) at (p, q, t) from h's coefficients, the stated product rule
# at (p, q, t) given D there as ``d``)
FORMULAS = {
    "differentiation": (
        lambda h, p, q, t: _horner(_derivative(h), t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, t) + _horner(f, t) * d(g)),
    "shift": (
        lambda h, p, q, t: _horner(h, t + 1),
        lambda f, g, d, p, q, t: _horner(f, t + 1) * d(g)),
    "shift-difference": (
        lambda h, p, q, t: _horner(h, t + 1) - _horner(h, t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, t) + _horner(f, t + 1) * d(g)),
    "q-dilatation": (
        lambda h, p, q, t: _horner(h, q * t),
        lambda f, g, d, p, q, t: _horner(f, q * t) * d(g)),
    "jackson-q-derivative": (
        lambda h, p, q, t: _jackson(h, 1, q, t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, t) + _horner(f, q * t) * d(g)),
    "jackson-symmetric-q-derivative": (
        lambda h, p, q, t: _jackson(h, 1 / q, q, t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, t / q) + _horner(f, q * t) * d(g)),
    "jackson-pq-derivative": (
        lambda h, p, q, t: _jackson(h, p, q, t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, p * t) + _horner(f, q * t) * d(g)),
    "p-dilatation-derivative": (
        lambda h, p, q, t: _horner(_derivative(h), p * t),
        lambda f, g, d, p, q, t: d(f) * _horner(g, p * t) + _horner(f, p * t) * d(g)),
}


def _random_dense(rng: random.Random, degree: int = 6) -> list[Fraction]:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
    return coeffs if any(coeffs) else [Fraction(1)]


def _plain(coeffs: list[Fraction]) -> PlainPoly:
    return PlainPoly({k: Scalar.from_fraction(c) for k, c in enumerate(coeffs) if c})


@pytest.mark.parametrize("entry", catalogue(), ids=lambda e: e.name)
def test_catalogue_row_against_defining_formula(entry):
    assert set(FORMULAS) == {e.name for e in catalogue()}
    rng = random.Random(20241018)
    # p != q, q not in {0, 1, -1} and t != 0: no Jackson quotient has a pole
    points = [(rng.choice([Fraction(2), Fraction(3, 2), Fraction(-5, 3), Fraction(7)]),
               rng.choice([Fraction(3, 4), Fraction(-7, 2), Fraction(5, 3), Fraction(2, 7)]),
               rng.choice([Fraction(1, 2), Fraction(-3), Fraction(4, 5), Fraction(2)]))
              for _ in range(3)]
    D, rule = FORMULAS[entry.name]
    # the row's formula, and the linear extension verify_entry reads
    image = _images(entry.operator)
    routes = (entry.operator, lambda f: f.linear_map(image, PlainPoly))
    for _ in range(20):
        f, g = _random_dense(rng), _random_dense(rng)
        kf, kg = _plain(f), _plain(g)
        sides = []
        for op in routes:
            rhs = op(kf) * entry.tau(kg)
            if entry.sigma is not None:
                rhs = rhs + entry.sigma(kf) * op(kg)
            sides += [op(kf * kg), rhs]
        for p, q, t in points:
            want = D(_times(f, g), p, q, t)
            assert want == rule(f, g, lambda h: D(h, p, q, t), p, q, t)
            assert [value(side, p, q, t) for side in sides] == [want] * len(sides)
