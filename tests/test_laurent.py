import random
from fractions import Fraction

import pytest

from homlie import laurent
from homlie.errors import DivisionByZero, NotDivisible, NotInvertible
from homlie.laurent import (
    Endo,
    LaurentPoly,
    apply_endo,
    compose_endo,
    divides,
    exact_div,
    gcd_up_to_unit,
    invert_endo,
)
from homlie.scalar import P, Q, ParamPoly, Scalar, pq_number

t = LaurentPoly.t


def random_laurent(rng, width=3, span=4):
    out = {}
    for _ in range(width):
        k = rng.randint(-span, span)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            out[k] = Scalar.from_fraction(c) * P ** rng.randint(0, 1) * Q ** rng.randint(0, 1)
    return LaurentPoly(out)


class TestRing:
    def test_difference_of_squares(self):
        assert (t(1) + t(-1)) * (t(1) - t(-1)) == t(2) - t(-2)

    def test_mul_identity(self):
        a = t(2) + t(-1).scale(P)
        assert a * LaurentPoly.one() == a

    def test_additive_inverse(self):
        assert (t(2) + (-t(2))).is_zero()

    def test_units(self):
        assert t(5).scale(P + Q).is_unit()
        assert not (t(1) + t(0)).is_unit()
        u = t(3).scale(P)
        assert u * u.unit_inverse() == LaurentPoly.one()


class TestPowers:
    @pytest.mark.parametrize("n,products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (15, 6)])
    def test_square_and_multiply(self, monkeypatch, n, products):
        base = t(1).scale(P) + t(-1) - LaurentPoly.from_scalar(Q)
        want = LaurentPoly.one()
        for _ in range(n):
            want = want * base
        calls = []
        real = LaurentPoly.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        got = base ** n
        assert (got.num, got.den.terms) == (want.num, want.den.terms)
        assert len(calls) == products

    def test_unit_and_negative_powers_keep_their_rule(self):
        u = t(2).scale(P / Q)
        assert u ** -3 == t(-6).scale((Q / P) ** 3)
        assert u ** 4 == t(8).scale((P / Q) ** 4)


class TestExactDiv:
    def test_inverse_twist_image(self):
        # (t^-2 - q^2 t^2) / (t^-1 - q t) = t^-1 + q t
        got = exact_div(t(-2) - t(2).scale(Q ** 2), t(-1) - t(1).scale(Q))
        assert got == t(-1) + t(1).scale(Q)

    def test_divide_by_one(self):
        a = t(2).scale(P) - t(-3)
        assert exact_div(a, LaurentPoly.one()) == a

    def test_unit_shift(self):
        assert exact_div(t(1), t(2)) == t(-1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(t(1) + LaurentPoly.one(), t(2) + LaurentPoly.one())

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            exact_div(t(1), LaurentPoly.zero())

    @pytest.mark.parametrize("n", [-3, -1, 1, 2, 5, 8])
    def test_deformed_integer_division_needs_no_multiplier(self, monkeypatch, n):
        # every step of t^n (p^n - q^n) / (p - q) divides exactly: m = 1
        multipliers = []
        real = laurent._pseudo_divide

        def recording(a, b):
            got = real(a, b)
            multipliers.append(got[2])
            return got

        monkeypatch.setattr(laurent, "_pseudo_divide", recording)
        got = exact_div(t(n).scale(P ** n - Q ** n), LaurentPoly.from_scalar(P - Q))
        assert multipliers == [ParamPoly.one()]
        assert got == t(n).scale(pq_number(n)) and got.den.terms == {(0, 0): 1}

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(40):
            b = random_laurent(rng)
            c = random_laurent(rng)
            if b.is_zero():
                continue
            assert exact_div(b * c, b) == c


class TestEndo:
    def test_dilation(self):
        assert apply_endo(Endo.dilation(P), t(3)) == t(3).scale(P ** 3)

    def test_unital(self):
        assert apply_endo(Endo(P + Q, 2), LaurentPoly.one()) == LaurentPoly.one()

    def test_inversion_substitution(self):
        assert apply_endo(Endo.inversion(), t(2) + t(1)) == t(-2) + t(-1)

    def test_morphism_property(self):
        rng = random.Random(5)
        e = Endo(Q, -1)
        for _ in range(20):
            f, g = random_laurent(rng), random_laurent(rng)
            assert apply_endo(e, f * g) == apply_endo(e, f) * apply_endo(e, g)
            assert apply_endo(e, f + g) == apply_endo(e, f) + apply_endo(e, g)

    def test_compose_matches_application(self):
        rng = random.Random(6)
        e1, e2 = Endo(P, 1), Endo(Q, -1)
        for _ in range(20):
            f = random_laurent(rng)
            assert apply_endo(compose_endo(e1, e2), f) == apply_endo(e1, apply_endo(e2, f))

    def test_sigma_tau_inverse_composition(self):
        sti = compose_endo(Endo.dilation(Q), invert_endo(Endo.dilation(P)))
        for n in range(-4, 5):
            assert apply_endo(sti, t(n)) == t(n).scale((Q / P) ** n)

    def test_compose_identity(self):
        e = Endo(P + Q, -1)
        assert compose_endo(e, Endo.identity()) == e

    def test_sigma_after_inversion(self):
        # sigma(t^-1) = q^-1 t^-1 for sigma(t) = qt
        got = compose_endo(Endo.dilation(Q), Endo.inversion())
        assert apply_endo(got, t(1)) == t(-1).scale(Scalar.one() / Q)

    def test_invert(self):
        assert invert_endo(Endo.dilation(P)) == Endo(Scalar.one() / P, 1)
        assert invert_endo(Endo.inversion()) == Endo.inversion()
        with pytest.raises(NotInvertible):
            invert_endo(Endo(P, 2))

    def test_two_sided_inverse(self):
        for e in (Endo.dilation(P * Q), Endo(Q, -1)):
            inv = invert_endo(e)
            assert compose_endo(e, inv) == Endo.identity()
            assert compose_endo(inv, e) == Endo.identity()


class TestGcd:
    def test_dilation_images(self):
        polys = [t(n).scale(P ** n - Q ** n) for n in range(-4, 5) if n != 0]
        assert gcd_up_to_unit(polys) == LaurentPoly.from_scalar(P - Q)

    def test_inversion_images(self):
        tau, sigma = Endo.inversion(), Endo.dilation(Q)
        polys = [
            apply_endo(tau, t(n)) - apply_endo(sigma, t(n))
            for n in range(-4, 5) if n != 0
        ]
        g = gcd_up_to_unit(polys)
        cof = exact_div(t(-1) - t(1).scale(Q), g)
        assert cof.is_unit()

    def test_single_element(self):
        a = (t(2) + LaurentPoly.one()).scale(P - Q)
        g = gcd_up_to_unit([a])
        assert exact_div(a, g).is_unit()

    def test_divides_all_inputs(self):
        rng = random.Random(3)
        for _ in range(10):
            base = random_laurent(rng, width=2)
            if base.is_zero():
                continue
            family = [base * random_laurent(rng, width=2) for _ in range(3)]
            family = [f for f in family if not f.is_zero()]
            if not family:
                continue
            g = gcd_up_to_unit(family)
            assert all(divides(g, f) for f in family)

    def test_two_gcds_are_associated(self):
        polys = [t(n).scale(P ** n - Q ** n) for n in range(1, 5)]
        g1 = gcd_up_to_unit(polys)
        g2 = gcd_up_to_unit(list(reversed(polys)))
        assert exact_div(g1, g2).is_unit()
