import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from homlie import scalar
from homlie.errors import DivisionByZero, PoleAtPoint
from homlie.scalar import (
    ONE,
    P,
    Q,
    ParamPoly,
    Scalar,
    param_gcd,
    pq_number_of,
)


def scalars(max_terms=3, max_exp=3):
    coeff = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=5
    )
    exp = st.integers(min_value=-max_exp, max_value=max_exp)
    term = st.tuples(exp, exp, coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: Scalar(ParamPoly({(i, j): c for i, j, c in terms}))
    )


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    @settings(max_examples=40, deadline=None)
    def test_units_and_inverses(self, a):
        assert a + Scalar.zero() == a
        assert a * ONE == a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == ONE

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / Scalar.zero()


class TestExamples:
    def test_add_identity(self):
        s = (P + Q) / (P * Q)
        assert Scalar.zero() + s == s

    def test_cross_sum(self):
        assert P / Q + Q / P == (P ** 2 + Q ** 2) / (P * Q)

    def test_one_plus_one(self):
        assert pq_number_of(P, Q, 1) + pq_number_of(P, Q, 1) == Scalar.from_int(2)

    def test_eq_by_factorization(self):
        assert (P ** 2 - Q ** 2) / (P - Q) == P + Q

    def test_mul_identity(self):
        s = (P + Q) / (Scalar.from_int(2) * P ** 2)
        assert s * ONE == s

    def test_laurent_normal_form(self):
        s = ONE / P
        assert s == Scalar.monomial(1, -1, 0)
        assert s.den == ParamPoly.one()


class TestDeformedNumbers:
    def test_zero(self):
        assert pq_number_of(P, Q, 0).is_zero()
        assert pq_number_of(ONE, Q / P, 0).is_zero()
        assert pq_number_of(P, P, 0).is_zero()

    def test_two(self):
        assert pq_number_of(P, Q, 2) == P + Q

    def test_minus_two(self):
        assert pq_number_of(P, Q, -2) == -((P * Q) ** -2) * (P + Q)

    @pytest.mark.parametrize("n", range(-10, 11))
    def test_telescoping(self, n):
        assert (P - Q) * pq_number_of(P, Q, n) == P ** n - Q ** n

    @pytest.mark.parametrize("n", range(-10, 11))
    def test_negation_rule(self, n):
        assert pq_number_of(P, Q, -n) == -((P * Q) ** -n) * pq_number_of(P, Q, n)

    @pytest.mark.parametrize("n", range(-10, 11))
    def test_bridge_identity(self, n):
        # [n]/p^n = (1/p) {n}_{q/p}
        assert pq_number_of(P, Q, n) / P ** n == (ONE / P) * pq_number_of(ONE, Q / P, n)

    def test_q_number_two(self):
        assert pq_number_of(ONE, Q / P, 2) == ONE + Q / P
        r = Q / P
        assert pq_number_of(ONE, Q / P, 2) == (ONE - r ** 2) / (ONE - r)

    def test_equal_parameter_values(self):
        assert pq_number_of(P, P, 3) == Scalar.monomial(3, 2, 0)
        assert pq_number_of(P, P, -1) == Scalar.monomial(-1, -2, 0)

    @pytest.mark.parametrize("p0", [Fraction(2), Fraction(3), Fraction(1, 2)])
    def test_equal_parameter_is_q_to_p_limit(self, p0):
        for n in range(-6, 7):
            left = pq_number_of(P, Q, n).subst(P, P).specialize(p0, p0)
            right = pq_number_of(P, P, n).specialize(p0, p0)
            assert left == right


class TestSpecialize:
    def test_simple(self):
        assert (P + Q).specialize(1, 1) == 2

    def test_sum_formula(self):
        assert pq_number_of(P, Q, 3).specialize(1, 2) == 7

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            (ONE / (P - Q)).specialize(1, 1)

    @given(scalars(), scalars())
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism(self, a, b):
        try:
            va, vb = a.specialize(2, 3), b.specialize(2, 3)
            vab = (a * b).specialize(2, 3)
            vsum = (a + b).specialize(2, 3)
        except PoleAtPoint:
            return
        assert vab == va * vb
        assert vsum == va + vb

    def test_substitution_endomorphism(self):
        s = pq_number_of(P, Q, 4)
        assert s.subst(P, P) == pq_number_of(P, P, 4)
        # p -> 1 sends [n]_{p,q} to {n}_q in the single parameter q
        assert s.subst(ONE, Q) == pq_number_of(ONE, Q, 4)


class TestParamGcd:
    def test_bivariate(self):
        f = (P ** 2 - Q ** 2).num
        g = (P ** 3 - Q ** 3).num
        assert param_gcd(f, g) == (P - Q).num

    def test_coprime(self):
        assert param_gcd((P + Q).num, (P - Q).num) == ParamPoly.one()

    def test_reduction_happens_on_construction(self):
        s = (P ** 2 - Q ** 2) / (P - Q)
        assert s.den == ParamPoly.one()
        assert s.num == (P + Q).num


def gcd_inputs():
    """Nonzero Laurent polynomials in p, q with rational coefficients of
    either sign, shifted by a random monomial."""
    coeff = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
    ).filter(bool)
    exp = st.integers(min_value=0, max_value=3)
    terms = st.dictionaries(st.tuples(exp, exp), coeff, min_size=1, max_size=4)
    shift = st.integers(min_value=-2, max_value=2)
    return st.builds(lambda t, i, j: ParamPoly(t).shift(i, j), terms, shift, shift)


def euclid_only(f, g):
    """The Euclid gcd with the heuristic switched off everywhere, so
    the oracle shares no gcd code with the path under test."""
    with mock.patch.object(scalar, "_gcd_heuristic", lambda *args: None):
        return scalar._gcd_euclid(f, g)


class TestGcdHeuristic:
    @given(gcd_inputs(), gcd_inputs(), gcd_inputs())
    @settings(max_examples=40, deadline=None)
    def test_gcd_of_products(self, f, g, c):
        a, b = f * c, g * c
        h = param_gcd(a, b)
        cofactor_a, cofactor_b = a.exact_div(h), b.exact_div(h)
        assert param_gcd(cofactor_a, cofactor_b) == ParamPoly.one()
        h.exact_div(scalar._normalize_param(c))
        assert h.terms == euclid_only(a, b).terms

    @pytest.mark.parametrize(
        "f,g", [(Q - 2, P ** 2 + Q ** 2), (Q ** 2 + P, Q ** 2 - P), (P * Q + 2, Q - 3)]
    )
    def test_unlucky_evaluation_point_is_rejected(self, f, g):
        # the first evaluation point gives the images a common factor
        # that f and g do not share; exact division must reject it
        assert param_gcd(f.num, g.num) == ParamPoly.one()

    def test_heuristic_reconstructs_negative_digits(self):
        f = ((P ** 3 - Q ** 3) * (P + 2 * Q)).num
        g = ((P ** 2 - Q ** 2) * (P - 3 * Q)).num
        got = scalar._gcd_heuristic(
            {e: int(c) for e, c in f.terms.items()},
            {e: int(c) for e, c in g.terms.items()},
        )
        assert got is not None
        assert scalar._normalize_param(ParamPoly(got)) == (P - Q).num

    def test_fallback_when_heuristic_gives_up(self, monkeypatch):
        calls = []
        real_euclid = scalar._gcd_euclid

        def euclid(f, g):
            calls.append((f, g))
            return real_euclid(f, g)

        monkeypatch.setattr(scalar, "_gcd_heuristic", lambda *args: None)
        monkeypatch.setattr(scalar, "_gcd_euclid", euclid)
        f = ((P + Q) * (P - Q) * Scalar.from_int(5)).num
        g = ((P + Q) * Scalar.from_int(7)).num.shift(2, -1)
        assert param_gcd(f, g) == (P + Q).num
        assert calls


class TestEuclidOracle:
    @given(gcd_inputs(), gcd_inputs(), gcd_inputs())
    @settings(max_examples=40, deadline=None)
    def test_oracle_runs_no_code_under_test(self, f, g, c):
        # the oracle of the gcd tests must not reach the heuristic, param_gcd
        # or a Scalar, whose canonical form calls param_gcd
        def forbidden(*args):
            raise AssertionError("the Euclid oracle reached the code under test")

        a, b = f * c, g * c
        with mock.patch.object(scalar, "_gcd_heuristic", forbidden), \
                mock.patch.object(scalar, "param_gcd", forbidden), \
                mock.patch.object(scalar, "Scalar", forbidden):
            h = scalar._gcd_euclid(a, b)
            cofactor_gcd = scalar._gcd_euclid(a.exact_div(h), b.exact_div(h))
        h.exact_div(scalar._normalize_param(c))
        assert cofactor_gcd == ParamPoly.one()
        assert h == param_gcd(a, b)


def int_coefficients(s: Scalar) -> bool:
    return all(type(c) is int for part in (s.num, s.den) for c in part.terms.values())


class TestIntegerKernel:
    @given(gcd_inputs(), gcd_inputs())
    @settings(max_examples=60, deadline=None)
    def test_exact_div_recovers_the_cofactor(self, f, d):
        assert (f * d).exact_div(d) == f

    @pytest.mark.parametrize("f,d", [
        (P ** 2 + Q ** 2, P + Q),
        (P * Q + 1, P - Q),
        (ONE / P + Q, P + Q),
        ((P + Q) * (P - Q) + 1, P - Q),
    ])
    def test_non_multiple_raises(self, f, d):
        assert len(d.num.terms) >= 2
        with pytest.raises(ValueError):
            f.num.exact_div(d.num)

    def test_exact_div_over_the_rationals(self):
        f = (P + 1).num
        assert f.exact_div(f.scale(2)) == ParamPoly.const(Fraction(1, 2))
        assert f.exact_div(f).terms == {(0, 0): 1}
        assert type(f.exact_div(f).terms[(0, 0)]) is int

    def test_negative_power_of_a_monomial_is_exact(self):
        got = ParamPoly.monomial(2, 1, 0) ** -1
        assert got == ParamPoly.monomial(Fraction(1, 2), -1, 0)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert (ParamPoly.monomial(-1, 0, 2) ** -3).terms == {(0, -6): -1}

    @given(scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_scalar_parts_have_int_coefficients(self, a, b):
        results = [a, b, a + b, a - b, a * b]
        if not b.is_zero():
            results.append(a / b)
        assert all(int_coefficients(s) for s in results)


class TestPowersOnce:
    @given(scalars(), st.integers(min_value=-4, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_pow_is_the_repeated_product(self, a, n):
        if n < 0 and a.is_zero():
            return
        want = _repeated_product(a, n)
        got = a ** n
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)

    @pytest.mark.parametrize("n,products", [(1, 0), (2, 1), (5, 3), (8, 3), (15, 6)])
    def test_pow_makes_no_idle_product(self, monkeypatch, n, products):
        calls = []
        real = Scalar.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        (P + Q) ** n
        # squarings up to the top bit, one product per further set bit
        assert len(calls) == products

    @pytest.mark.parametrize("n,products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (15, 6)])
    def test_param_poly_power_is_square_and_multiply(self, monkeypatch, n, products):
        base = (P + Q * 2 - 1).num
        want = ParamPoly.one()
        for _ in range(n):
            want = want * base
        calls = []
        real = ParamPoly.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(ParamPoly, "__mul__", counting)
        assert base ** n == want
        assert len(calls) == products

    def test_subst_computes_each_power_once(self, monkeypatch):
        num = sum((P ** i * Q ** j for i in range(4) for j in range(4)), Scalar.zero())
        s = num / (ONE + P ** 2 * Q)
        calls = []
        real = ParamPoly.__pow__

        def counting(self, n):
            calls.append((id(self), n))
            return real(self, n)

        monkeypatch.setattr(ParamPoly, "__pow__", counting)
        for p_image, q_image in [(P + Q, P * Q - 1), ((P + Q) / (P + 2), (P * Q - 1) / (Q - 3))]:
            want = sum((p_image ** i * q_image ** j for i in range(4) for j in range(4)),
                       Scalar.zero()) / (ONE + p_image ** 2 * q_image)
            calls.clear()
            assert s.subst(p_image, q_image) == want
            # p -> a/alpha, q -> b/beta and exponents 0..3 of p and of q: the
            # powers 0..3 of a, alpha, b and beta, each once, not once per
            # term, and none of a denominator that is 1
            bases = [x for x in (p_image.num, p_image.den, q_image.num, q_image.den)
                     if x is not scalar._ONE]
            assert Counter(calls) == Counter((id(x), n) for x in bases for n in range(4))
            assert id(scalar._ONE) not in {base for base, _ in calls}

    @pytest.mark.parametrize("c", [1, -1, 2, -2, 3])
    def test_monomial_power_is_one_term(self, monkeypatch, c):
        cases = [(Scalar.monomial(c, i, j), n)
                 for i, j in [(0, 0), (1, 0), (-2, 1), (3, -1)] for n in range(-6, 7)]
        wants = [_repeated_product(x, n) for x, n in cases]
        calls = []
        real = Scalar.__mul__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        for (x, n), want in zip(cases, wants):
            assert _exact_form(x ** n) == _exact_form(want)
        assert calls == []

    def test_zero_to_a_negative_power(self):
        with pytest.raises(DivisionByZero):
            Scalar.zero() ** -1


def _repeated_product(x: Scalar, n: int) -> Scalar:
    """x ** n as |n| products of x, or of its inverse for n < 0."""
    base = x if n >= 0 else x.inverse()
    out = Scalar.one()
    for _ in range(abs(n)):
        out = out * base
    return out


def _exact_form(s: Scalar):
    """The stored representation, coefficient types included."""
    return (repr(sorted(s.num.terms.items())), repr(sorted(s.den.terms.items())),
            s.den is scalar._ONE)


def subst_termwise(s: Scalar, p_image: Scalar, q_image: Scalar) -> Scalar:
    """The reference substitution: each power of an image by repeated
    Scalar products, each term added as a Scalar and normalized."""
    exps = [e for poly in (s.num, s.den) for e in poly.terms]
    p_pow = {i: _repeated_product(p_image, i) for i in {i for i, _ in exps}}
    q_pow = {j: _repeated_product(q_image, j) for j in {j for _, j in exps}}

    def image(poly: ParamPoly) -> Scalar:
        total = Scalar.zero()
        for (i, j), c in poly.terms.items():
            total = total + Scalar.from_fraction(c) * p_pow[i] * q_pow[j]
        return total

    nv = image(s.num)
    dv = image(s.den)
    if dv.is_zero():
        raise PoleAtPoint("denominator vanishes under substitution")
    return nv / dv


def quotients(max_exp=2):
    """Scalars over a two-term denominator c + d p^i q^j, which is not a
    monomial and so stays in the canonical form; negative exponents
    included."""
    exp = st.integers(-max_exp, max_exp)
    den = st.tuples(st.integers(1, 3), st.integers(-3, 3).filter(bool), exp, exp).filter(
        lambda t: t[2] or t[3]).map(lambda t: ParamPoly({(0, 0): t[0], (t[2], t[3]): t[1]}))
    return st.tuples(scalars(max_terms=2, max_exp=max_exp), den).map(
        lambda t: t[0] / Scalar(t[1]))


def images():
    """Parameter images: monomials, polynomials, quotients, 1 and p.
    Quotients are listed twice so that two draws in five carry a
    denominator."""
    monomial = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda t: Scalar.monomial(*t))
    return st.one_of(monomial, scalars(max_terms=2, max_exp=1), quotients(max_exp=1),
                     quotients(max_exp=1), st.sampled_from([ONE, P]))


def _outcome(route, s, p_image, q_image):
    """The stored parts of the substitution, or the type of its error."""
    try:
        got = route(s, p_image, q_image)
    except (DivisionByZero, PoleAtPoint) as exc:
        return type(exc)
    return got.num.terms, got.den.terms


class TestSubstReference:
    @given(st.one_of(scalars(max_exp=2), quotients()), images(), images())
    @settings(max_examples=150, deadline=None)
    def test_matches_termwise_route(self, s, p_image, q_image):
        assert (_outcome(Scalar.subst, s, p_image, q_image)
                == _outcome(subst_termwise, s, p_image, q_image))

    @given(st.one_of(scalars(max_exp=2), quotients()), images(), images())
    @settings(max_examples=80, deadline=None)
    def test_commutes_with_specialization(self, s, p_image, q_image):
        rng = random.Random(2006)
        try:
            got = s.subst(p_image, q_image)
        except (DivisionByZero, PoleAtPoint):
            return
        for _ in range(3):
            p0, q0 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            try:
                left = got.specialize(p0, q0)
                right = s.specialize(p_image.specialize(p0, q0), q_image.specialize(p0, q0))
            except PoleAtPoint:
                continue
            assert left == right

    def test_images_of_p_to_one_and_q_to_p(self):
        s = (P ** 2 - Q) / (P * Q + 3)
        assert s.subst(ONE, Q) == (ONE - Q) / (Q + 3)
        assert s.subst(P, P) == (P ** 2 - P) / (P ** 2 + 3)
        assert s.subst(Q, P) == (Q ** 2 - P) / (P * Q + 3)

    def test_zero_image_under_a_negative_exponent(self):
        with pytest.raises(DivisionByZero):
            (ONE / P).subst(Scalar.zero(), Q)
        with pytest.raises(DivisionByZero):
            (P + Q ** -2).subst(P, Scalar.zero())
        # a zero image under non-negative exponents only is a value
        assert (P ** 2 + Q).subst(Scalar.zero(), Q) == Q
        assert (ONE / (P + Q)).subst(Scalar.zero(), Q) == ONE / Q

    def test_vanishing_denominator_is_a_pole(self):
        with pytest.raises(PoleAtPoint):
            (ONE / (P - Q)).subst(P, P)


def uni_polys(min_size=0):
    """Polynomials in one variable over Z[p^+-1, q^+-1], as ``_pseudo_divide``
    takes them: {exponent: nonzero ParamPoly}."""
    coeff = st.dictionaries(
        st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
        st.integers(-4, 4).filter(bool), min_size=1, max_size=3,
    ).map(ParamPoly)
    return st.dictionaries(st.integers(0, 4), coeff, min_size=min_size, max_size=4)


class TestPseudoDivide:
    @given(uni_polys(), uni_polys(min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_division_identity(self, a, b):
        quotient, rem, m = scalar._pseudo_divide(a, b)
        # m*a = quotient*b + remainder, coefficient by coefficient
        rhs = dict(rem)
        for i, c in quotient.items():
            for j, d in b.items():
                rhs[i + j] = rhs.get(i + j, ParamPoly()) + c * d
        keys = set(a) | set(rhs)
        assert all((a.get(k, ParamPoly()) * m - rhs.get(k, ParamPoly())).is_zero() for k in keys)
        assert not rem or max(rem) < max(b)
        # m is a power of b's leading coefficient, at most one per quotient term
        lead = b[max(b)]
        assert any(m == lead ** k for k in range(len(quotient) + 1))
        assert all(type(c) is int for f in (*quotient.values(), *rem.values(), m)
                   for c in f.terms.values())

