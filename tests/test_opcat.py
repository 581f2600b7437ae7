import dataclasses
import inspect
import random

import pytest

from homlie.derivation import verify_leibniz
from homlie.errors import BadSize, DivisionByZero, HypothesisViolated, NotDivisible
from homlie.laurent import exact_div
from homlie.opcat import (
    DEGREE,
    CatalogueEntry,
    PlainPoly,
    T_P,
    T_Q,
    _on_basis,
    catalogue,
    exact_div_plain,
    random_poly,
    seeded_corpus,
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
        assert verify_entry(ROWS[name], seeded_corpus(30)).ok

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

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_rule_is_the_rows_pair(self, name):
        # the rule is read from the row's (tau, sigma), so a wrong tau fails
        entry = ROWS[name]
        square = PlainPoly.monomial(ONE, 2)
        wrong = dataclasses.replace(entry, tau=lambda f: f.subst(square))
        assert not verify_entry(wrong, seeded_corpus(5)).ok

    @pytest.mark.parametrize("name", sorted(ROWS))
    @pytest.mark.parametrize("wrong_tau", [False, True], ids=["row", "wrong-tau"])
    def test_verdicts_match_a_direct_product_rule_loop(self, name, wrong_tau):
        """``verify_entry`` runs ``verify_leibniz``; each verdict equals the
        comparison of D(fg) with the rule written out here."""
        entry = ROWS[name]
        if wrong_tau:
            entry = dataclasses.replace(entry, tau=lambda f: f.subst(PlainPoly.monomial(ONE, 2)))
        rng = random.Random(7)
        corpus = [(random_poly(rng), random_poly(rng)) for _ in range(6)]
        corpus += [(PlainPoly.one(), t(2)), (t(1), t(1))]
        D = entry.operator
        want = []
        for f, g in corpus:
            rule = D(f) * entry.tau(g)
            if entry.sigma is not None:
                rule = rule + entry.sigma(f) * D(g)
            want.append(D(f * g) == rule)
        got = [e.status == "pass" for e in verify_entry(entry, corpus=corpus).entries]
        assert got == want
        assert all(want) != wrong_tau

    def test_p_dilatation_documented_pair(self):
        entry = ROWS["p-dilatation-derivative"]
        D = entry.operator
        assert D(t(2)) == D(t(1)) * t(1).subst(T_P) + t(1).subst(T_P) * D(t(1))


class TestLinearRoute:
    """``verify_entry`` applies a row's operator through its images of
    t^k, each computed once, after checking on the first pair that this
    agrees with the operator."""

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_operator_called_once_per_exponent(self, name):
        entry = ROWS[name]
        calls = []

        def counted(f):
            calls.append(f)
            return entry.operator(f)

        rep = verify_entry(dataclasses.replace(entry, operator=counted), seeded_corpus(100))
        assert rep.ok and len(rep.entries) == 100
        # the exponents 0 .. 2*DEGREE of a product, plus the guard's direct call
        assert len(calls) <= 2 * DEGREE + 2

    def test_nonlinear_operator_rejected(self):
        # f -> f*f: its linear extension is the substitution t -> t^2, an
        # endomorphism, so the rule (t -> t^2, 0) holds for the extension only
        square = PlainPoly.monomial(ONE, 2)
        entry = CatalogueEntry(name="square", operator=lambda f: f * f,
                               tau=lambda f: f.subst(square), sigma=None, pair="(t^2, 0)")
        rng = random.Random(3)
        corpus = [(random_poly(rng), random_poly(rng)) for _ in range(5)]
        assert verify_leibniz(_on_basis(entry.operator), corpus, entry.tau).ok
        assert not verify_leibniz(entry.operator, corpus, entry.tau).ok
        with pytest.raises(HypothesisViolated, match=r"not Q\(p,q\)-linear"):
            verify_entry(entry, corpus=corpus)


class TestConsistency:
    def test_pq_at_p_equals_one_is_q_row(self):
        rng = random.Random(99)
        jpq = ROWS["jackson-pq-derivative"].operator
        jq = ROWS["jackson-q-derivative"].operator
        for _ in range(15):
            f = random_poly(rng)
            assert jpq(f).map_scalars(lambda s: s.subst(ONE, Q)) == jq(f)

    def test_jackson_divisibility(self):
        # f(pt) - f(qt) is always divisible by (p - q) t
        rng = random.Random(4)
        divisor = T_P - T_Q
        for _ in range(20):
            f = random_poly(rng)
            exact_div_plain(f.subst(T_P) - f.subst(T_Q), divisor)  # must not raise

    def test_not_divisible_raised(self):
        with pytest.raises(NotDivisible):
            exact_div_plain(t(1) + PlainPoly.one(), t(2))

    def test_full_catalogue(self):
        assert verify_catalogue(pairs=20).ok


class TestOneCorpus:
    """``verify_catalogue`` draws its seeded corpus once and checks every
    row on it; ``verify_entry`` only checks the corpus it is given."""

    def test_corpus_drawn_once_per_run(self, monkeypatch):
        draws = []

        def counted(rng):
            draws.append(rng)
            return random_poly(rng)

        monkeypatch.setattr("homlie.opcat.random_poly", counted)
        assert verify_catalogue(7).ok
        assert len(draws) == 2 * 7

    def test_verify_entry_takes_the_corpus(self):
        # the entry first, the corpus by name: the benchmark calls it so
        assert list(inspect.signature(verify_entry).parameters) == ["entry", "corpus"]
        with pytest.raises(TypeError):
            verify_entry(ROWS["shift"])


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

    @pytest.mark.parametrize("make", [
        lambda: t(1).shift(-2),
        lambda: t(1).unit_inverse(),
        lambda: t(2) ** -1,
        lambda: exact_div(t(1), t(2)),
    ], ids=["shift", "unit-inverse", "negative-power", "laurent-exact-div"])
    def test_no_operation_builds_a_negative_exponent(self, make):
        with pytest.raises(ValueError):
            make()

    def test_quotient_needing_negative_exponent(self):
        # t divides t^2 only in the Laurent ring
        with pytest.raises(NotDivisible):
            exact_div_plain(t(1), t(2))

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            exact_div_plain(t(1), PlainPoly.zero())


class TestVacuousCorpus:
    @pytest.mark.parametrize("kwargs", [{"corpus": []}, {"corpus": ()}, {"corpus": iter([])}])
    def test_empty_corpus_raises(self, kwargs):
        with pytest.raises(BadSize):
            verify_entry(ROWS["shift"], **kwargs)

    @pytest.mark.parametrize("pairs", [0, -5])
    def test_empty_catalogue_raises(self, pairs):
        with pytest.raises(BadSize):
            verify_catalogue(pairs)
