"""``Combo``, ``laurent.bilinear_sum`` and the bilinear maps of
``GradedAlgebra`` against a reference.

``RefCombo`` below is the dict-of-``Scalar`` combination: one nonzero
Scalar per key, and one Scalar operation per coefficient.  It shares no
code with the fraction-free core of ``laurent.Linear`` that ``Combo``
stands on, so every sum, scale, equality, bracket and twist is computed
twice by different routes.  Keys mix ints and strings, "c" included;
coefficients carry the denominators 1, 2, p + q and 1 + (q/p)^2.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homlie.algebra import Combo, GradedAlgebra
from homlie.laurent import Endo, LaurentPoly, apply_endo, bilinear_sum
from homlie.scalar import ONE, P, Q, Scalar

KEYS = (-1, 0, 2, "e", "h", "c")
DENS = (ONE, Scalar.from_int(2), P + Q, ONE + (Q / P) ** 2)


class RefCombo:
    """{key: nonzero Scalar}, the combination the core must agree with."""

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def __add__(self, other: "RefCombo") -> "RefCombo":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return RefCombo(out)

    def __neg__(self) -> "RefCombo":
        return RefCombo({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "RefCombo") -> "RefCombo":
        return self + (-other)

    def scale(self, s: Scalar) -> "RefCombo":
        return RefCombo({k: c * s for k, c in self.terms.items()})

    def __eq__(self, other: "RefCombo") -> bool:
        return self.terms.keys() == other.terms.keys() and all(
            c == other.terms[k] for k, c in self.terms.items())


def same(combo: Combo, ref: RefCombo) -> bool:
    terms = combo.terms
    return terms.keys() == ref.terms.keys() and all(terms[k] == c for k, c in ref.terms.items())


def _scalar(spec) -> Scalar:
    monomials, d = spec
    return sum((Scalar.monomial(c, i, j) for c, i, j in monomials), Scalar.zero()) / DENS[d]


exps = st.integers(min_value=-2, max_value=2)
scalars = st.tuples(
    st.lists(st.tuples(st.integers(min_value=-4, max_value=4).filter(bool), exps, exps),
             min_size=1, max_size=2),
    st.integers(min_value=0, max_value=len(DENS) - 1),
).map(_scalar)
term_maps = st.dictionaries(st.sampled_from(KEYS), scalars, max_size=4)


@given(term_maps, term_maps, scalars)
@settings(max_examples=60, deadline=None)
def test_linear_operations(a, b, s):
    x, y = Combo(a), Combo(b)
    rx, ry = RefCombo(a), RefCombo(b)
    assert same(x, rx) and same(y, ry)
    assert same(x + y, rx + ry)
    assert same(x - y, rx - ry)
    assert same(-x, -rx)
    assert same(x.scale(s), rx.scale(s))
    assert (x == y) == (rx == ry)
    for d in DENS:
        assert (x.scale(ONE / d) == x) == (rx.scale(ONE / d) == rx)
    assert (x + y) - y == x
    assert (x + y == x) == (ry == RefCombo({}))


@given(term_maps)
@settings(max_examples=30, deadline=None)
def test_a_combination_equals_itself_rebuilt(a):
    x = Combo(a)
    rebuilt = sum((Combo.basis(k, c) for k, c in a.items()), Combo.zero())
    assert rebuilt == x and same(rebuilt, RefCombo(a))


@given(
    term_maps, term_maps,
    st.dictionaries(st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)), term_maps,
                    max_size=8),
    st.dictionaries(st.sampled_from(KEYS), term_maps, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_bracket_and_twist(a, b, brackets, twists):
    alg = GradedAlgebra(
        "drawn",
        lambda i, j: Combo(brackets.get((i, j), {})),
        lambda i: Combo(twists.get(i, {})),
        basis=KEYS,
    )
    want = RefCombo({})
    for i, ca in RefCombo(a).terms.items():
        for j, cb in RefCombo(b).terms.items():
            want = want + RefCombo(brackets.get((i, j), {})).scale(ca * cb)
    assert same(alg.bracket(Combo(a), Combo(b)), want)
    want = RefCombo({})
    for i, ca in RefCombo(a).terms.items():
        want = want + RefCombo(twists.get(i, {})).scale(ca)
    assert same(alg.twist(Combo(a)), want)


def _ref_bilinear(a: dict, b: dict, brackets: dict) -> RefCombo:
    want = RefCombo({})
    for i, ca in RefCombo(a).terms.items():
        for j, cb in RefCombo(b).terms.items():
            want = want + RefCombo(brackets.get((i, j), {})).scale(ca * cb)
    return want


def _exactly(x: Combo, y: Combo) -> bool:
    return x.num == y.num and x.den == y.den


@given(
    st.lists(st.tuples(term_maps, term_maps, st.integers(min_value=1, max_value=len(DENS) - 1)),
             max_size=4),
    st.dictionaries(st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)), term_maps,
                    max_size=8),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_bilinear_sum(drawn, brackets, cancel):
    """The sum of the pairs' bilinear images, each pair over its own non-unit
    denominator DENS[d]; with ``cancel``, each pair is followed by one over
    another denominator whose product is its negation, so the sum is 0."""
    image = lambda i, j: Combo(brackets.get((i, j), {}))
    pairs, want = [], RefCombo({})
    for a, b, d in drawn:
        x, y = Combo(a).scale(ONE / DENS[d]), Combo(b)
        pairs.append((x, y))
        if cancel:
            s = DENS[d % (len(DENS) - 1) + 1]
            pairs.append((x.scale(-s), y.scale(ONE / s)))
        else:
            want = want + _ref_bilinear(a, b, brackets).scale(ONE / DENS[d])
    got = bilinear_sum(pairs, image, Combo)
    assert same(got, want)
    separate = sum((x.bilinear_map(y, image, Combo) for x, y in pairs), Combo.zero())
    assert _exactly(got, separate)
    if len(pairs) == 1:
        assert _exactly(got, Combo(want.terms))


def test_bilinear_sum_of_no_pairs_is_zero():
    assert _exactly(bilinear_sum([], lambda i, j: Combo.basis("e"), Combo), Combo.zero())


def test_bilinear_sum_drops_cancelled_products_of_a_joining_pair():
    """The second pair's denominator, 3, differs from the first's, 2, and
    its product has a p q term that cancels, (p - q)(p + q) = p^2 - q^2,
    on a key pair the first does not have."""
    image = lambda i, j: Combo.basis("h" if (i, j) == ("e", "f") else "c")
    first = (Combo.basis("h", ONE / 2), Combo.basis("h"))
    second = (Combo.basis("e", P - Q), Combo.basis("f", (P + Q) / 3))
    got = bilinear_sum([first, second], image, Combo)
    assert same(got, RefCombo({"c": ONE / 2, "h": (P * P - Q * Q) / 3}))


# -- an endomorphism image with a non-unit denominator ----------------------

def _value(f: LaurentPoly, p, q, t) -> Fraction:
    num = sum(Fraction(c) * t ** k * p ** i * q ** j for (k, i, j), c in f.num.items())
    return num / sum(Fraction(c) * p ** i * q ** j for (i, j), c in f.den.terms.items())


@given(
    st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
                       st.integers(min_value=-3, max_value=3), exps, exps),
             min_size=1, max_size=4),
    st.sampled_from([Fraction(2), Fraction(-4), Fraction(5, 2)]),
    st.sampled_from([Fraction(3), Fraction(-1, 3)]),
    st.sampled_from([Fraction(1, 2), Fraction(-2)]),
)
@settings(max_examples=40, deadline=None)
def test_apply_endo_t_over_p_plus_q(spec, p, q, t):
    f = sum((LaurentPoly.monomial(Scalar.from_fraction(c) * P ** a * Q ** b, k)
             for c, k, a, b in spec), LaurentPoly.zero())
    got = apply_endo(Endo(ONE / (P + Q), 1), f)
    image = t / (p + q)
    assert _value(got, p, q, t) == sum(
        (c * image ** k * p ** a * q ** b for c, k, a, b in spec), Fraction(0))
