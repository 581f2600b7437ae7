import dataclasses
import inspect
import random

import pytest

from homlie.derivation import verify_leibniz
from homlie.errors import BadSize, DivisionByZero, HypothesisViolated, NotDivisible
from homlie.laurent import Linear, exact_div
from homlie.opcat import (
    DEGREE,
    CatalogueEntry,
    PlainPoly,
    T_P,
    T_Q,
    _images,
    catalogue,
    exact_div_plain,
    random_poly,
    seeded_corpus,
    verify_catalogue,
    verify_entry,
)
from homlie.scalar import ONE, P, Q, Scalar, pq_number_of

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
            assert D(t(n)) == PlainPoly.monomial(pq_number_of(P, Q, n), n - 1)

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
        """Each verdict of ``verify_entry``'s residue table equals the
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


# t^2: the substitution t -> t^2 is a wrong tau or sigma for every row
WRONG = PlainPoly.monomial(ONE, 2)


def _bump(op, k, delta):
    """``op`` (None for the zero map) plus the rank-one linear map
    f -> [t^k]f * delta, which changes the image of t^k only."""
    def mutant(f):
        bump = delta.scale(f.coeff(k))
        return bump if op is None else op(f) + bump
    return mutant


class TestLinearRoute:
    """``verify_entry`` checks each pair through the bilinear extension
    of a table of basis residues R(a, b) = D(t^(a+b)) - D(t^a) tau(t^b)
    - sigma(t^a) D(t^b), whose images of t^k are each computed once,
    after checking on the first pair that the linear extensions of D,
    tau and sigma agree with the maps themselves."""

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

    @pytest.mark.parametrize("name, ingredient", [
        (name, ingredient) for name in sorted(ROWS) for ingredient in ("tau", "sigma")
        if getattr(ROWS[name], ingredient) is not None])
    def test_tau_and_sigma_called_once_per_exponent(self, name, ingredient):
        entry = ROWS[name]
        calls = []

        def counted(f):
            calls.append(f)
            return getattr(entry, ingredient)(f)

        rep = verify_entry(dataclasses.replace(entry, **{ingredient: counted}), seeded_corpus(100))
        assert rep.ok and len(rep.entries) == 100
        # the exponents 0 .. DEGREE of one polynomial, plus the guard's direct call
        assert len(calls) <= DEGREE + 2

    @pytest.mark.parametrize("variant", ["row", "wrong-tau", "wrong-sigma"])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_witnesses_match_the_direct_route(self, name, variant):
        # verify_leibniz applies every map to the pair itself and shares
        # no table code: each pair's status and witness text must agree
        entry = ROWS[name]
        if variant != "row":
            entry = dataclasses.replace(
                entry, **{variant.removeprefix("wrong-"): lambda f: f.subst(WRONG)})
        corpus = seeded_corpus(12)
        got = verify_entry(entry, corpus).to_dict()["entries"]
        want = verify_leibniz(entry.operator, corpus, entry.tau, entry.sigma).to_dict()["entries"]
        assert got == want
        assert all(e["status"] == "pass" for e in got) == (variant == "row")

    def test_witness_is_the_residue_of_the_pair(self):
        # shift with sigma = id: D(t) - D(1) tau(t) - 1 * D(t) = -(t + 1)
        entry = dataclasses.replace(ROWS["shift"], sigma=lambda f: f)
        rep = verify_entry(entry, [(PlainPoly.one(), t(1))])
        assert rep.first_failure().witness == "f=1, g=(1)*t, residue=(-1)*t + -1"

    def test_nonlinear_operator_rejected(self):
        # f -> f*f: its linear extension is the substitution t -> t^2, an
        # endomorphism, so the rule (t -> t^2, 0) holds for the extension only
        entry = CatalogueEntry(name="square", operator=lambda f: f * f,
                               tau=lambda f: f.subst(WRONG), sigma=None, pair="(t^2, 0)")
        rng = random.Random(3)
        corpus = [(random_poly(rng), random_poly(rng)) for _ in range(5)]
        image = _images(entry.operator)
        assert verify_leibniz(lambda f: f.linear_map(image, PlainPoly), corpus, entry.tau).ok
        assert not verify_leibniz(entry.operator, corpus, entry.tau).ok
        with pytest.raises(HypothesisViolated, match=r"operator is not Q\(p,q\)-linear"):
            verify_entry(entry, corpus=corpus)

    @pytest.mark.parametrize("ingredient", ["tau", "sigma"])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_nonlinear_tau_or_sigma_rejected(self, name, ingredient):
        entry = dataclasses.replace(ROWS[name], **{ingredient: lambda f: f * f})
        with pytest.raises(HypothesisViolated, match=fr"{ingredient} is not Q\(p,q\)-linear"):
            verify_entry(entry, seeded_corpus(5))


def _sparse_fault(name, ingredient):
    """Row ``name`` with ``ingredient`` (tau or sigma) bumped at t^DEGREE
    by the constant 1: the table's support S is then one column or one
    row of the degree box, which many pairs of a corpus miss."""
    entry = ROWS[name]
    return dataclasses.replace(
        entry, **{ingredient: _bump(getattr(entry, ingredient), DEGREE, PlainPoly.one())})


def _pairs_meeting_the_support(entry, corpus):
    """Which pairs (f, g) have supp f x supp g meeting S = {(a, b) : R(a, b)
    != 0}, with R computed here from the row's maps over all exponents the
    corpus uses."""
    D, tau, sigma = entry.operator, entry.tau, entry.sigma
    exps = {k for f, g in corpus for k in (*f.coeffs, *g.coeffs)}
    support = set()
    for a in exps:
        for b in exps:
            r = D(t(a + b)) - D(t(a)) * tau(t(b))
            if sigma is not None:
                r = r - sigma(t(a)) * D(t(b))
            if not r.is_zero():
                support.add((a, b))
    return [any((a, b) in support for a in f.coeffs for b in g.coeffs) for f, g in corpus]


def _above_degree_corpus():
    """Six seeded pairs of degree up to 2*DEGREE, past the catalogue's corpus."""
    rng = random.Random(5)
    return [(random_poly(rng) * t(4), random_poly(rng) * t(DEGREE)) for _ in range(6)]


SPARSE_FAULTS = [(name, ingredient) for name in sorted(ROWS) for ingredient in ("tau", "sigma")
                 if getattr(ROWS[name], ingredient) is not None]


class TestSupportDecides:
    """``verify_entry`` expands a pair through the bilinear map only when
    supp f x supp g meets the support S of the basis-residue table; every
    other pair's residue is zero by bilinearity.  The verdicts and
    witnesses must equal the direct route's pair by pair, and the number
    of bilinear products must equal the number of pairs that meet S."""

    @staticmethod
    def _count_bilinear_maps(monkeypatch):
        calls = []
        real = Linear.bilinear_map

        def counted(self, *args):
            calls.append(self)
            return real(self, *args)

        monkeypatch.setattr(Linear, "bilinear_map", counted)
        return calls

    @pytest.mark.parametrize("name, ingredient", SPARSE_FAULTS)
    def test_sparse_fault_matches_the_direct_route(self, name, ingredient):
        entry = _sparse_fault(name, ingredient)
        corpus = seeded_corpus(100)
        got = verify_entry(entry, corpus).to_dict()["entries"]
        want = verify_leibniz(entry.operator, corpus, entry.tau, entry.sigma).to_dict()["entries"]
        assert got == want
        assert {e["status"] for e in got} == {"pass", "fail"}

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_no_bilinear_product_on_a_true_row(self, name, monkeypatch):
        calls = self._count_bilinear_maps(monkeypatch)
        rep = verify_entry(ROWS[name], seeded_corpus(100))
        assert rep.ok and len(rep.entries) == 100
        assert calls == []

    @pytest.mark.parametrize("name, ingredient", SPARSE_FAULTS)
    def test_one_bilinear_product_per_pair_meeting_the_support(self, name, ingredient,
                                                                monkeypatch):
        entry = _sparse_fault(name, ingredient)
        corpus = seeded_corpus(100)
        meets = _pairs_meeting_the_support(entry, corpus)
        assert 0 < sum(meets) < len(corpus)
        calls = self._count_bilinear_maps(monkeypatch)
        rep = verify_entry(entry, corpus)
        assert len(calls) == sum(meets)
        # a pair whose product misses S passes
        assert all(e.status == "pass" for e, meet in zip(rep.entries, meets) if not meet)

    @pytest.mark.parametrize("corpus", [
        [(PlainPoly.zero(), t(2)), (t(3) + t(1), PlainPoly.zero()),
         (PlainPoly.zero(), PlainPoly.zero()), (t(1), t(DEGREE))],
        [(t(0) + t(2) + t(4), t(1) + t(3)), (t(5), PlainPoly.one() + t(DEGREE)),
         (t(DEGREE), t(1) + t(3) + t(5))],
        [(t(2) + t(1).scale(P), t(DEGREE) + PlainPoly.one())],
        _above_degree_corpus(),
    ], ids=["zero-polynomial", "disjoint-degrees", "one-pair", "above-DEGREE"])
    @pytest.mark.parametrize("name, variant", [(name, "row") for name in sorted(ROWS)]
                             + SPARSE_FAULTS)
    def test_edge_corpora_match_the_direct_route(self, name, variant, corpus):
        entry = ROWS[name] if variant == "row" else _sparse_fault(name, variant)
        got = verify_entry(entry, corpus).to_dict()["entries"]
        want = verify_leibniz(entry.operator, corpus, entry.tau, entry.sigma).to_dict()["entries"]
        assert got == want
        assert len(got) == len(corpus)


class TestMutation:
    """Every ingredient the residue table reads can turn each row red:
    the operator's image of one t^k, tau's and sigma's.  Each mutant adds
    a seeded, nonzero rank-one linear map to one of them (to the zero map
    when sigma is None), so the linearity guard passes and only the
    product rule can refuse it.  Every row sees every ingredient, so no
    (row, ingredient) pair is exempt."""

    @pytest.mark.parametrize("ingredient", ["operator", "tau", "sigma"])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_mutated_ingredient_turns_the_row_red(self, name, ingredient):
        entry = ROWS[name]
        rng = random.Random(f"{name}/{ingredient}")
        k = rng.randint(0, DEGREE)
        c = Scalar.from_int(rng.choice((-2, -1, 1, 2))) * P ** rng.randint(0, 2)
        delta = PlainPoly.monomial(c, rng.randint(0, DEGREE))
        original = getattr(entry, ingredient)
        mutant = _bump(original, k, delta)
        assert mutant(t(k)) - (PlainPoly.zero() if original is None else original(t(k))) == delta
        assert verify_entry(entry, seeded_corpus(20)).ok
        assert not verify_entry(dataclasses.replace(entry, **{ingredient: mutant}),
                                seeded_corpus(20)).ok


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
