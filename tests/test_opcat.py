import random

import pytest

from homlie.errors import BadSize, DivisionByZero, NotDivisible
from homlie.opcat import (
    PlainPoly,
    T_P,
    T_Q,
    catalogue,
    exact_div_plain,
    random_poly,
    verify_catalogue,
    verify_entry,
)
from homlie.scalar import ONE, P, Q, Scalar, pq_number, pq_number_of

t = PlainPoly.t
ROWS = {e.name: e for e in catalogue()}


def test_catalogue_has_eight_rows():
    assert len(catalogue()) == 8
    assert set(ROWS) == {
        "differentiation", "shift", "shift-difference", "q-dilatation",
        "jackson-q-derivative", "jackson-symmetric-q-derivative",
        "jackson-pq-derivative", "p-dilatation-derivative",
    }


class TestSpotValues:
    def test_differentiation(self):
        assert ROWS["differentiation"].operator(t(3)) == PlainPoly.monomial(Scalar.from_int(3), 2)

    def test_shift_difference(self):
        got = ROWS["shift-difference"].operator(t(2))
        assert got == PlainPoly({1: Scalar.from_int(2), 0: ONE})

    def test_jackson_pq_on_monomial(self):
        D = ROWS["jackson-pq-derivative"].operator
        for n in range(1, 7):
            assert D(t(n)) == PlainPoly.monomial(pq_number(n), n - 1)

    def test_jackson_q_on_monomial(self):
        D = ROWS["jackson-q-derivative"].operator
        # divided difference in the single parameter q
        assert D(t(3)) == PlainPoly.monomial(pq_number_of(ONE, Q, 3), 2)

    def test_p_dilatation(self):
        D = ROWS["p-dilatation-derivative"].operator
        assert D(t(2)) == PlainPoly.monomial(Scalar.from_int(2) * P, 1)


class TestProductRules:
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_row_on_random_pairs(self, name):
        assert verify_entry(ROWS[name], pairs=30).ok

    def test_jackson_q_documented_pair(self):
        entry = ROWS["jackson-q-derivative"]
        rep = verify_entry(entry, corpus=[(t(1), t(2))])
        assert rep.ok
        lhs = entry.operator(t(3))
        rhs = entry.operator(t(1)) * t(2) + t(1).subst(T_Q) * entry.operator(t(2))
        assert lhs == rhs == PlainPoly.monomial(ONE + Q + Q ** 2, 2)

    def test_shift_unit_argument(self):
        entry = ROWS["shift"]
        assert verify_entry(entry, corpus=[(PlainPoly.one(), t(3) + t(1))]).ok

    def test_p_dilatation_documented_pair(self):
        entry = ROWS["p-dilatation-derivative"]
        D = entry.operator
        assert D(t(2)) == D(t(1)) * t(1).subst(T_P) + t(1).subst(T_P) * D(t(1))


class TestConsistency:
    def test_pq_at_p_equals_one_is_q_row(self):
        rng = random.Random(99)
        jpq = ROWS["jackson-pq-derivative"].operator
        jq = ROWS["jackson-q-derivative"].operator
        for _ in range(15):
            f = random_poly(rng, 6)
            assert jpq(f).map_scalars(lambda s: s.subst(ONE, Q)) == jq(f)

    def test_jackson_divisibility(self):
        # f(pt) - f(qt) is always divisible by (p - q) t
        rng = random.Random(4)
        divisor = T_P - T_Q
        for _ in range(20):
            f = random_poly(rng, 6)
            exact_div_plain(f.subst(T_P) - f.subst(T_Q), divisor)  # must not raise

    def test_not_divisible_raised(self):
        with pytest.raises(NotDivisible):
            exact_div_plain(t(1) + PlainPoly.one(), t(2))

    def test_full_catalogue(self):
        assert verify_catalogue(pairs=20).ok

    def test_context_lift_flags(self):
        liftable = {name for name, e in ROWS.items() if e.lifts_to_context}
        assert liftable == {
            "differentiation", "jackson-q-derivative",
            "jackson-pq-derivative", "p-dilatation-derivative",
        }


class TestPlainPolyCore:
    """PlainPoly is the LaurentPoly of nonnegative exponents: the shared
    operations keep its type, and no operation lets a negative exponent in."""

    def test_operations_return_plain(self):
        a, b = t(2) + PlainPoly.one(), t(1).scale(P)
        for got in (a + b, a - b, -a, a * b, a.scale(Q), exact_div_plain(a * b, b)):
            assert type(got) is PlainPoly
        assert str(exact_div_plain(a * b, b)) == str(a)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PlainPoly({-1: ONE})
        with pytest.raises(ValueError):
            PlainPoly.t(-2)

    def test_quotient_needing_negative_exponent(self):
        # t divides t^2 only in the Laurent ring
        with pytest.raises(NotDivisible):
            exact_div_plain(t(1), t(2))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            exact_div_plain(t(1), PlainPoly.zero())


class TestVacuousCorpus:
    @pytest.mark.parametrize("kwargs", [{"pairs": 0}, {"pairs": -5}, {"corpus": []}])
    def test_empty_corpus_raises(self, kwargs):
        with pytest.raises(BadSize):
            verify_entry(ROWS["shift"], **kwargs)
