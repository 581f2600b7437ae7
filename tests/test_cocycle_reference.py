"""The cocycle as a bracket into the center against a Scalar double sum.

``Cocycle.algebra.bracket(x, y)`` must be g(x, y) c with
g(x, y) = sum_{i,j} a_i b_j g(i, j), the central key contributing
nothing.  ``pairing`` below computes that sum one ``Scalar`` product at a
time, sharing no code with the fraction-free core the bracket runs on.
Coefficients carry the denominators 1, 2, p + q and 1 + (q/p)^2, and the
cocycle's values have non-constant denominators.
"""

from hypothesis import given, settings, strategies as st

from homlie.algebra import Combo
from homlie.extension import CENTRAL, Cocycle, verify_cocycle_condition, virasoro_cocycle
from homlie.families import inverse_twist_example
from homlie.scalar import ONE, P, Q, Scalar

KEYS = (-2, -1, 0, 1, 3, CENTRAL)
DENS = (ONE, Scalar.from_int(2), P + Q, ONE + (Q / P) ** 2)


def pairing(g: Cocycle, x: Combo, y: Combo) -> Scalar:
    total = Scalar.zero()
    for i, a in x.terms.items():
        for j, b in y.terms.items():
            if CENTRAL not in (i, j):
                total = total + a * b * g.value(i, j)
    return total


def rational_cocycle() -> Cocycle:
    """g(i, j) = (i - 2j) p^i / (p + q^(1 + |i + j|)), neither alternating
    nor supported on i + j = 0."""
    return Cocycle(lambda i, j: Scalar.from_int(i - 2 * j) * P ** i / (P + Q ** (1 + abs(i + j))))


def _scalar(spec) -> Scalar:
    monomials, d = spec
    return sum((Scalar.monomial(c, i, j) for c, i, j in monomials), Scalar.zero()) / DENS[d]


exps = st.integers(min_value=-2, max_value=2)
scalars = st.tuples(
    st.lists(st.tuples(st.integers(min_value=-4, max_value=4).filter(bool), exps, exps),
             min_size=1, max_size=2),
    st.integers(min_value=0, max_value=len(DENS) - 1),
).map(_scalar)
combos = st.dictionaries(st.sampled_from(KEYS), scalars, max_size=4).map(Combo)


@given(combos, combos)
@settings(max_examples=80, deadline=None)
def test_bracket_into_center_is_the_double_sum(x, y):
    for g in (rational_cocycle(), virasoro_cocycle()):
        got = g.algebra.bracket(x, y)
        assert set(got.terms) <= {CENTRAL}
        assert got.coeff(CENTRAL) == pairing(g, x, y)


def test_cocycle_condition_witnesses_match_the_double_sum():
    """Over the inversion-twist family, whose twist d_n -> q^-n d_{-n} - d_n
    is not diagonal, every verdict and witness of a perturbed cocycle is
    the one the Scalar double sum gives."""
    alg = inverse_twist_example()
    g = rational_cocycle().perturbed((1, -1), P + Q)
    report = verify_cocycle_condition(g, alg, window=2)
    rng = range(-2, 3)
    triples = [(n, m, k) for n in rng for m in rng for k in rng]
    assert len(report.entries) == len(triples)
    for entry, (n, m, k) in zip(report.entries, triples):
        assert entry.id == f"triple-({n},{m},{k})"
        residue = sum(
            (pairing(g, alg.twist_gen(x), alg.bracket_gen(y, z))
             for x, y, z in ((n, m, k), (m, k, n), (k, n, m))),
            Scalar.zero(),
        )
        want = None if residue.is_zero() else f"residue = {residue}"
        assert (entry.status, entry.witness) == ("pass" if want is None else "fail", want)
    statuses = {entry.status for entry in report.entries}
    assert statuses == {"pass", "fail"}
