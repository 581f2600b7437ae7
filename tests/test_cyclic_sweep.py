"""The one cyclic sweep of the quasi-Jacobi, Hom-Jacobi and cocycle checks.

``cyclic_sweep`` combines the three rotation terms of a triple once per
rotation class and computes each distinct rotation term once per sweep;
quasi-Jacobi brackets are the bilinear extension of a table of brackets
of monomials.  The tests count the evaluations this saves, and compare
every verdict and witness of each verifier with a test-local loop that
computes all three rotation terms of every triple afresh (quasi-Jacobi
through ``bracket_general`` on whole polynomials), on triple lists that
are not closed under rotation, on quasi-Jacobi arguments that mix t^n
with -t^n or are not monomials, and on algebras and contexts whose
identities fail (so that each witness shows the summed terms).
"""

import copy
import random
from collections import Counter

import pytest

from homlie import bracket, extension
from homlie.algebra import Combo, GradedAlgebra, cyclic_sweep, perturb_algebra
from homlie.bracket import (
    bracket_general,
    index_triples,
    monomial_triples,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from homlie.extension import CENTRAL, verify_cocycle_condition, virasoro_cocycle
from homlie.families import inverse_twist_context, inverse_twist_example, witt_context, witt_pq
from homlie.laurent import Endo, LaurentPoly, apply_endo
from homlie.scalar import P, Q

t = LaurentPoly.t
ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def rotations(triple):
    return [tuple(triple[i] for i in r) for r in ROTATIONS]


def entries(report):
    return [(e.id, e.status, e.witness) for e in report.entries]


def outcome(entry_id, residue, witness):
    ok = residue.is_zero()
    return (entry_id, "pass" if ok else "fail", None if ok else witness)


def reference_hom_jacobi(alg, triples):
    out = []
    for triple in triples:
        residue = Combo.zero()
        for x, y, z in rotations(triple):
            residue = residue + alg.bracket(alg.twist(Combo.basis(x)), alg.bracket_gen(y, z))
        out.append(outcome("triple-(%s,%s,%s)" % triple, residue, f"residue = {residue}"))
    return out


def reference_quasi_jacobi(ctx, triples):
    sti, delta = ctx.sigma_tau_inv, ctx.delta
    out = []
    for idx, (a, b, c) in enumerate(triples):
        group1 = group2 = LaurentPoly.zero()
        for x, y, z in rotations((a, b, c)):
            w = bracket_general(ctx, y, z)
            group1 = group1 + bracket_general(ctx, apply_endo(sti, x), w)
            group2 = group2 + delta * bracket_general(ctx, x, w)
        total = group1 + group2
        out.append(outcome(f"triple-{idx}", total, f"a={a}, b={b}, c={c}: "
                           f"group1={group1}, group2={group2}, sum={total}"))
    return out


def reference_cocycle(g, alg, triples):
    out = []
    for triple in triples:
        residue = Combo.zero()
        for x, y, z in rotations(triple):
            residue = residue + g.algebra.bracket(alg.twist_gen(x), alg.bracket_gen(y, z))
        out.append(outcome("triple-(%s,%s,%s)" % triple, residue,
                           f"residue = {residue.coeff(CENTRAL)}"))
    return out


def open_triples(window, count, seed):
    """A sample of the window's triples, with repeats, that is not closed
    under rotation."""
    rng = random.Random(seed)
    triples = rng.sample(index_triples(window), count)
    triples += triples[:5]
    assert any(r not in triples for tr in triples for r in rotations(tr))
    return triples


@pytest.fixture
def bracket_calls(monkeypatch):
    """Counts of ``GradedAlgebra.bracket`` calls, per algebra."""
    calls = {}
    real = GradedAlgebra.bracket

    def counting(self, x, y):
        calls[self] = calls.get(self, 0) + 1
        return real(self, x, y)

    monkeypatch.setattr(GradedAlgebra, "bracket", counting)
    return calls


@pytest.fixture
def general_calls(monkeypatch):
    calls = []
    real = bracket.bracket_general

    def counting(ctx, a, b):
        calls.append((a, b))
        return real(ctx, a, b)

    monkeypatch.setattr(bracket, "bracket_general", counting)
    return calls


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts of the term and combine calls of the verifiers' sweeps."""
    calls = Counter()

    def counting(triples, term, combine, key=None):
        def counted_term(*args):
            calls["term"] += 1
            return term(*args)

        def counted_combine(*terms):
            calls["combine"] += 1
            return combine(*terms)

        return cyclic_sweep(triples, counted_term, counted_combine, key)

    for module in (bracket, extension):
        monkeypatch.setattr(module, "cyclic_sweep", counting)
    return calls


def rotation_classes(triples):
    return len({min(rotations(tr)) for tr in triples})


def failing_ctx():
    """The (p,q)-Witt context with a wrong delta: every quasi-Jacobi triple
    that is not identically zero fails, and its witness shows both groups."""
    ctx = copy.copy(witt_context())
    ctx.delta = ctx.delta + t(1)
    return ctx


def wrong_twist_ctx(ctx):
    """A copy of the inversion context with sigma tau^-1 = t -> (p/q) t^-1
    in place of t -> q^-1 t^-1.  A wrong delta would not do: there both
    groups of every triple vanish on their own."""
    ctx = copy.copy(ctx)
    ctx.sigma_tau_inv = Endo(P / Q, -1)
    return ctx


class TestHelper:
    def test_terms_in_rotation_order_each_computed_once(self):
        seen, combined = [], []

        def term(x, y, z):
            seen.append((x, y, z))
            return (x, y, z)

        def combine(*terms):
            combined.append(terms)
            return tuple(sorted(terms))

        triples = [(1, 2, 3), (2, 3, 1), (1, 1, 1), (3, 1, 2), (1, 2, 3), (3, 2, 1), (2, 2, 1)]
        got = list(cyclic_sweep(triples, term, combine))
        assert got == [(tr, tuple(sorted(rotations(tr)))) for tr in triples]
        assert sorted(seen) == sorted(
            set(rotations((1, 2, 3)) + rotations((3, 2, 1)) + rotations((2, 2, 1))) | {(1, 1, 1)})
        # in rotation order from the first triple of each class; (1, 1, 1)
        # is one term
        assert combined == [tuple(rotations(tr)) for tr in [(1, 2, 3), (1, 1, 1), (3, 2, 1),
                                                             (2, 2, 1)]]
        assert rotation_classes(triples) == len(combined) == 4

    def test_unkeyed_arguments_are_computed_every_time(self):
        seen, combined = [], []

        def term(x, y, z):
            seen.append((x, y, z))
            return x + 10 * y + 100 * z

        def combine(*terms):
            combined.append(terms)
            return sum(terms)

        key = lambda x: x if x >= 0 else None
        triples = [(-1, 2, 3), (-1, 2, 3), (4, 5, 6), (5, 6, 4), (-1, -1, -1)]
        got = [value for _, value in cyclic_sweep(triples, term, combine, key)]
        assert got == [444, 444, 1665, 1665, -333]
        # the unkeyed triples compute three terms and one combine every
        # time, (-1, -1, -1) included; (4, 5, 6) and (5, 6, 4) share one
        assert len(seen) == 3 * 4 and len(combined) == 4


class TestEvaluationCounts:
    def test_classes_of_the_window_cubes(self):
        assert rotation_classes(index_triples(2)) == 45
        assert rotation_classes(index_triples(3)) == 119

    def test_hom_jacobi_brackets_once_per_term(self, bracket_calls, sweep_calls):
        alg = witt_pq()
        assert verify_hom_jacobi(alg, index_triples(2)).ok
        assert bracket_calls == {alg: 125}  # 375 with three per triple
        assert sweep_calls == {"term": 125, "combine": 45}

    def test_quasi_jacobi_general_brackets_once_per_monomial_pair(self, general_calls,
                                                                  sweep_calls):
        ctx = witt_context()
        assert verify_quasi_jacobi(ctx, monomial_triples(2)).ok
        # [t^a, t^b] once for |a| <= 2 and |b| <= 3: [d_n, d_m] lies in
        # span{d_(n+m)} and vanishes at n = m; 775 with six per triple
        pairs = [(x.signed_monomial(), y.signed_monomial()) for x, y in general_calls]
        assert sorted(pairs) == [((a, 1), (b, 1)) for a in range(-2, 3) for b in range(-3, 4)]
        assert len(general_calls) == 35
        assert sweep_calls == {"term": 125, "combine": 45}

    def test_non_monomial_terms_are_not_memoized(self, sweep_calls):
        ctx = witt_context()
        triple = (1 + t(1), -t(2), t(-1))
        verify_quasi_jacobi(ctx, [triple, triple])
        assert sweep_calls == {"term": 6, "combine": 2}
        sweep_calls.clear()
        monomials = (t(1), -t(2), t(-1))
        verify_quasi_jacobi(ctx, [monomials, monomials])
        assert sweep_calls == {"term": 3, "combine": 1}

    def test_cocycle_sweep_restricted(self, bracket_calls, sweep_calls):
        g = virasoro_cocycle()
        assert verify_cocycle_condition(g, witt_pq(), window=2).ok
        assert bracket_calls == {g.algebra: 19}  # 57 with three per triple
        # (0, 0, 0) and six classes of three
        assert sweep_calls == {"term": 19, "combine": 7}

    def test_cocycle_sweep_full_cube(self, bracket_calls, sweep_calls):
        g = virasoro_cocycle()
        rep = verify_cocycle_condition(g, inverse_twist_example(), window=2)
        assert len(rep.entries) == 125
        assert bracket_calls == {g.algebra: 125}  # 375 with three per triple
        assert sweep_calls == {"term": 125, "combine": 45}


class TestHomJacobiAgainstReference:
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_open_triples(self, perturbed):
        alg = witt_pq()
        if perturbed:
            alg = perturb_algebra(alg, (1, 2), Combo.basis(3, P + Q))
        triples = open_triples(3, 150, seed=5)
        rep = verify_hom_jacobi(alg, triples)
        assert entries(rep) == reference_hom_jacobi(alg, triples)
        assert rep.ok is not perturbed

    def test_perturbed_non_diagonal_twist(self):
        alg = perturb_algebra(inverse_twist_example(), (-1, 2), Combo.basis(0, Q))
        triples = index_triples(2)
        rep = verify_hom_jacobi(alg, triples)
        assert entries(rep) == reference_hom_jacobi(alg, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}


class TestQuasiJacobiAgainstReference:
    def mixed_sign_triples(self):
        args = [t(-1), -t(-1), t(2), -t(2), -t(0)]
        return [(a, b, c) for a in args for b in args for c in args][::3]

    def non_monomial_triples(self):
        others = [1 + t(1), t(3) - t(1), 2 * t(2), t(1).scale(P), t(-2) + t(2)]
        triples = []
        for x in others:
            triples += [(x, -t(2), t(-1)), (t(1), x, -t(1)), (-t(0), t(2), x)]
        return triples + [(others[0], others[1], -t(1))]

    @pytest.mark.parametrize("which", ["mixed_sign_triples", "non_monomial_triples"])
    @pytest.mark.parametrize("failing", [False, True])
    def test_matches_reference(self, which, failing):
        ctx = failing_ctx() if failing else witt_context()
        triples = getattr(self, which)()
        rep = verify_quasi_jacobi(ctx, triples)
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)
        assert rep.ok is not failing

    def inversion_triples(self):
        return ([tuple(-t(n) for n in tr) for tr in open_triples(2, 40, seed=3)]
                + self.non_monomial_triples())

    def test_inversion_context_open_triples(self):
        ctx = inverse_twist_context()
        triples = self.inversion_triples()
        rep = verify_quasi_jacobi(ctx, triples)
        assert rep.ok
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)

    def test_inversion_context_with_a_wrong_twist(self):
        """The inversion context's brackets of monomials have several
        terms; with a wrong twist its witnesses show them summed."""
        ctx = wrong_twist_ctx(inverse_twist_context())
        triples = self.inversion_triples()
        rep = verify_quasi_jacobi(ctx, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)


class TestCocycleAgainstReference:
    def test_open_triples_on_perturbed_algebra(self):
        g = virasoro_cocycle()
        alg = perturb_algebra(witt_pq(), (1, -3), Combo.basis(-2, P))
        triples = open_triples(3, 150, seed=9)
        rep = verify_cocycle_condition(g, alg, triples, window=3)
        assert entries(rep) == reference_cocycle(g, alg, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}

    def test_default_sweep_of_perturbed_cocycle(self):
        g = virasoro_cocycle().perturbed((2, -2), P)
        alg = inverse_twist_example()
        rep = verify_cocycle_condition(g, alg, window=2)
        assert entries(rep) == reference_cocycle(g, alg, index_triples(2))
