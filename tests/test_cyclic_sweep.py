"""The one cyclic sweep of the quasi-Jacobi, Hom-Jacobi and cocycle checks.

Every cyclic check runs on triples of generator keys, through
``jacobi_residues``: one sweep for Hom-Jacobi and the cocycle condition,
and for quasi-Jacobi one sweep of the generator algebra when delta is a
constant, one per group otherwise; its key n stands for the argument
d_n = -t^n.  ``cyclic_sweep`` calls the residue once per rotation class,
which sums the class's three rotation terms with one ``bilinear_sum``
and normalizes once; when the inner bracket is skew (``is_skew``), the
class of (a, c, b) is the negated class of (a, b, c).  The tests count
the residues and normalizations this saves, and compare every verdict
and witness of each verifier with a test-local loop that computes all
three rotation terms of every triple afresh (quasi-Jacobi through
``bracket_general`` on the polynomials -t^n, group by group), on triple
lists that are not closed under rotation, and on algebras and contexts
whose identities fail (so that each witness shows the summed terms),
with the skew gate open and shut.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from homlie import bracket, cli
from homlie.algebra import Combo, GradedAlgebra, cyclic_sweep, is_skew, perturb_algebra
from homlie.bracket import (
    bracket_general,
    index_triples,
    jacobi_residues,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from homlie.derivation import DerivationContext, make_context
from homlie.extension import CENTRAL, verify_cocycle_condition, virasoro_cocycle
from homlie.families import (
    inverse_twist_context,
    inverse_twist_example,
    sl2_context,
    witt_context,
    witt_pq,
)
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
    """The entries of exponent triples, n standing for -t^n."""
    sti, delta = ctx.sigma_tau_inv, ctx.delta
    out = []
    for idx, triple in enumerate(triples):
        a, b, c = (-t(n) for n in triple)
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
def normalizations(monkeypatch):
    """A list that grows by one per normalized ``Combo`` result."""
    made = []
    real = Combo._make.__func__

    def counting(cls, *args):
        made.append(cls)
        return real(cls, *args)

    monkeypatch.setattr(Combo, "_make", classmethod(counting))
    return made


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
    """Counts of the residue and negate calls of the verifiers' sweeps; a
    residue call is one rotation class computed, a negate call one class
    taken from its transpose."""
    calls = Counter()

    def counting(triples, residue, negate=None):
        def counted_residue(*rotations):
            calls["residue"] += 1
            return residue(*rotations)

        def counted_negate(value):
            calls["negate"] += 1
            return negate(value)

        return cyclic_sweep(triples, counted_residue, None if negate is None else counted_negate)

    monkeypatch.setattr(bracket, "cyclic_sweep", counting)
    return calls


@pytest.fixture
def residue_sweeps(monkeypatch):
    """The triple count of each ``jacobi_residues`` sweep of a verifier."""
    sizes = []
    real = bracket.jacobi_residues

    def recording(alg, triples, outer=None):
        triples = list(triples)
        sizes.append(len(triples))
        return real(alg, triples, outer)

    monkeypatch.setattr(bracket, "jacobi_residues", recording)
    return sizes


def rotation_classes(triples):
    return len({min(rotations(tr)) for tr in triples})


def transposition_classes(triples):
    """Rotation classes with each class and its transpose counted once."""
    return len({min(rotations(tr) + rotations(tr[::-1])) for tr in triples})


class Mutant(DerivationContext):
    """``ctx`` rebuilt with the derived values in ``wrong`` (delta or sigma
    tau^-1) fixed when it is built, in place of those its fields give."""

    def __init__(self, ctx, **wrong):
        super().__init__(ctx.tau, ctx.sigma, ctx.g)
        vars(self).update(wrong)


def failing_ctx():
    """The (p,q)-Witt context with a wrong delta: every quasi-Jacobi triple
    that is not identically zero fails, and its witness shows both groups."""
    return Mutant(witt_context(), delta=witt_context().delta + t(1))


def doubled_delta_ctx():
    """The sl(2) context with 2 delta in place of delta."""
    return Mutant(sl2_context(), delta=2 * sl2_context().delta)


def inversion_q_t2_ctx():
    """tau = t -> t^-1 and sigma = t -> q t^2: g = t^-1 - q t^2 and
    delta = -1 - q^-1 t^-3, a genuine context whose delta is not a
    constant."""
    return make_context(Endo.inversion(), Endo(Q, 2))


def inversion_q_t2_doubled_delta_ctx():
    """``inversion_q_t2_ctx`` with 2 delta in place of delta."""
    ctx = inversion_q_t2_ctx()
    return Mutant(ctx, delta=2 * ctx.delta)


def wrong_twist_ctx(ctx):
    """The inversion context with sigma tau^-1 = t -> (p/q) t^-1 in place
    of t -> q^-1 t^-1.  A wrong delta would not do: there both groups of
    every triple vanish on their own."""
    return Mutant(ctx, sigma_tau_inv=Endo(P / Q, -1))


class TestHelper:
    def test_one_residue_per_class_in_rotation_order(self):
        seen = []

        def residue(*rotations):
            seen.append(rotations)
            return tuple(sorted(rotations))

        triples = [(1, 2, 3), (2, 3, 1), (1, 1, 1), (3, 1, 2), (1, 2, 3), (3, 2, 1), (2, 2, 1)]
        got = list(cyclic_sweep(triples, residue))
        assert got == [(tr, tuple(sorted(rotations(tr)))) for tr in triples]
        # the rotations of the first triple of each class, in rotation
        # order; (1, 1, 1) is one class of three equal rotations
        assert seen == [tuple(rotations(tr)) for tr in [(1, 2, 3), (1, 1, 1), (3, 2, 1),
                                                         (2, 2, 1)]]
        assert rotation_classes(triples) == len(seen) == 4

    def test_transposed_class_takes_the_negated_value(self):
        seen = []

        def residue(*rotations):
            seen.append(rotations[0])
            # the cyclic sum of x^2 (y - z) is -(a-b)(b-c)(c-a)
            return sum(x * x * (y - z) for x, y, z in rotations)

        triples = [(1, 2, 4), (1, 4, 2), (4, 2, 1), (2, 1, 4), (1, 1, 2), (2, 1, 1), (1, 2, 1)]
        want = [(tr, residue(*rotations(tr))) for tr in triples]
        assert [value for _, value in want] == [-6, 6, 6, 6, 0, 0, 0]
        seen.clear()
        assert list(cyclic_sweep(triples, residue, negate=lambda v: -v)) == want
        # the class of (1, 2, 4) and that of (1, 1, 2), which is its own
        # transpose; (1, 4, 2), (4, 2, 1) and (2, 1, 4) compute nothing
        assert seen == [(1, 2, 4), (1, 1, 2)]


class TestEvaluationCounts:
    def test_classes_of_the_window_cubes(self):
        assert rotation_classes(index_triples(2)) == 45
        assert rotation_classes(index_triples(3)) == 119

    def test_classes_of_the_window_cubes_up_to_transposition(self):
        # the 10 subsets {a < b < c} of window 2 each join two rotation
        # classes, the 35 of window 3 likewise
        assert transposition_classes(index_triples(2)) == 45 - 10
        assert transposition_classes(index_triples(3)) == 119 - 35

    def test_hom_jacobi_normalizes_once_per_class(self, normalizations, sweep_calls):
        alg = witt_pq()
        assert verify_hom_jacobi(alg, index_triples(2)).ok
        normalizations.clear()
        sweep_calls.clear()
        assert verify_hom_jacobi(alg, index_triples(2)).ok
        # with the brackets and twists cached, one normalization per
        # computed class: 45 rotation classes, of which the 10 transposed
        # ones compute nothing
        assert len(normalizations) == 35
        assert sweep_calls == {"residue": 35, "negate": 10}

    def test_quasi_jacobi_general_brackets_once_per_monomial_pair(self, general_calls,
                                                                  sweep_calls, residue_sweeps):
        ctx = replace(witt_context())  # fresh: no bracket cached in its algebra
        assert verify_quasi_jacobi(ctx, index_triples(2)).ok
        # [t^a, t^b] at most once for |a| <= 2 and |b| <= 3: [d_n, d_m]
        # lies in span{d_(n+m)} and vanishes at n = m; 775 with six per
        # triple.  [d_a, d_3] with a in {1, 2} is never read: d_3 is only
        # [d_1, d_2], and in the class of (a, 1, 2) the terms
        # [d_a', [d_1, d_2]] and [d_a', [d_2, d_1]] cancel before the outer
        # bracket; likewise at -3.
        pairs = [(x.valuation(), y.valuation()) for x, y in general_calls]
        assert general_calls == [(t(a), t(b)) for a, b in pairs]
        unread = [(-2, -3), (-1, -3), (1, 3), (2, 3)]
        assert sorted(pairs) == [(a, b) for a in range(-2, 3) for b in range(-3, 4)
                                 if (a, b) not in unread]
        # delta = 1: one sweep of the generator algebra
        assert residue_sweeps == [125]
        assert sweep_calls == {"residue": 35, "negate": 10}

    def test_witt_suite_general_brackets_once_per_monomial_pair(self, general_calls,
                                                                monkeypatch):
        """The witt suite's structure check and its quasi-Jacobi check read
        one generator algebra of the context: on a fresh context, each pair
        of the window is computed once, and quasi-Jacobi's pairs at the
        Jacobi window lie among them."""
        fresh = make_context(Endo.dilation(P), Endo.dilation(Q))
        monkeypatch.setattr(cli, "witt_context", lambda: fresh)
        assert cli.run_suite("witt", 4).ok
        pairs = [(x.valuation(), y.valuation()) for x, y in general_calls]
        assert general_calls == [(t(a), t(b)) for a, b in pairs]
        assert sorted(pairs) == [(a, b) for a in range(-4, 5) for b in range(-4, 5)]

    def test_repeated_triple_is_computed_once(self, sweep_calls):
        verify_quasi_jacobi(witt_context(), [(1, 2, -1), (1, 2, -1)])
        assert sweep_calls == {"residue": 1}

    def test_cocycle_sweep_restricted(self, normalizations, sweep_calls):
        g = virasoro_cocycle()
        assert verify_cocycle_condition(g, witt_pq(), window=2).ok
        # (0, 0, 0) and six classes of three, of which the classes of
        # (-2, 2, 0) and (-1, 1, 0) are the negated ones of (-2, 0, 2) and
        # (-1, 0, 1)
        assert sweep_calls == {"residue": 5, "negate": 2}
        normalizations.clear()
        assert verify_cocycle_condition(g, witt_pq(), window=2).ok
        assert len(normalizations) == 5

    def test_cocycle_sweep_full_cube(self, sweep_calls):
        g = virasoro_cocycle()
        rep = verify_cocycle_condition(g, inverse_twist_example(), window=2)
        assert len(rep.entries) == 125
        assert sweep_calls == {"residue": 35, "negate": 10}


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
    CONTEXTS = {
        "witt": witt_context,
        "sl2": sl2_context,
        "inversion": inverse_twist_context,
        "witt-delta-t": failing_ctx,
        "inversion-twist": lambda: wrong_twist_ctx(inverse_twist_context()),
        "sl2-2delta": doubled_delta_ctx,
        "inversion-q-t2": inversion_q_t2_ctx,
        "inversion-q-t2-2delta": inversion_q_t2_doubled_delta_ctx,
    }
    GENUINE = ("witt", "sl2", "inversion", "inversion-q-t2")
    # delta is not a constant of Q(p,q)
    TWO_SWEEPS = ("witt-delta-t", "inversion-q-t2", "inversion-q-t2-2delta")

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_cube_matches_reference(self, name):
        """The window-3 cube on the three contexts of the package, on the
        inversion-q-t2 context and on four with a wrong delta or sigma
        tau^-1, whose failing witnesses show both groups."""
        ctx = self.CONTEXTS[name]()
        triples = index_triples(3)
        rep = verify_quasi_jacobi(ctx, triples)
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)
        assert rep.ok is (name in self.GENUINE)

    def test_inversion_context_open_triples(self):
        ctx = inverse_twist_context()
        triples = open_triples(2, 40, seed=3)
        rep = verify_quasi_jacobi(ctx, triples)
        assert rep.ok
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)

    def test_inversion_context_with_a_wrong_twist(self):
        """The inversion context's brackets of monomials have several
        terms; with a wrong twist its witnesses show them summed."""
        ctx = wrong_twist_ctx(inverse_twist_context())
        triples = open_triples(2, 40, seed=3)
        rep = verify_quasi_jacobi(ctx, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)


class TestCocycleAgainstReference:
    def test_open_triples_on_perturbed_algebra(self):
        """The cocycle condition's residue sweep on triples that are not
        closed under rotation."""
        g = virasoro_cocycle()
        alg = perturb_algebra(witt_pq(), (1, -3), Combo.basis(-2, P))
        triples = open_triples(3, 150, seed=9)
        got = [outcome("triple-(%s,%s,%s)" % triple, residue,
                       f"residue = {residue.coeff(CENTRAL)}")
               for triple, residue in jacobi_residues(alg, triples, outer=g.algebra)]
        assert got == reference_cocycle(g, alg, triples)
        assert {status for _, status, _ in got} == {"pass", "fail"}

    def test_default_sweep_of_perturbed_cocycle(self):
        g = virasoro_cocycle().perturbed((2, -2), P)
        alg = inverse_twist_example()
        rep = verify_cocycle_condition(g, alg, window=2)
        assert entries(rep) == reference_cocycle(g, alg, index_triples(2))


class TestSkewGate:
    """The transposition rule runs only behind ``is_skew``: an algebra or
    context that stays skew keeps it even where its identity fails, and a
    bracket that is not skew on one pair shuts it for the whole call."""

    def skew_perturbed(self, alg, at, delta):
        i, j = at
        return perturb_algebra(perturb_algebra(alg, (i, j), delta), (j, i), -delta)

    def test_gate(self):
        alg = witt_pq()
        keys = range(-3, 4)
        assert is_skew(alg.bracket_gen, keys)
        assert is_skew(self.skew_perturbed(alg, (1, 2), Combo.basis(3, P)).bracket_gen, keys)
        assert not is_skew(perturb_algebra(alg, (1, 2), Combo.basis(3, P)).bracket_gen, keys)
        # the diagonal counts: [d_1, d_1] must vanish
        assert not is_skew(perturb_algebra(alg, (1, 1), Combo.basis(2)).bracket_gen, keys)
        assert is_skew(perturb_algebra(alg, (1, 2), Combo.basis(3)).bracket_gen, [-1, 0, 1])

    @pytest.mark.parametrize("check", ["hom-jacobi", "cocycle", "cocycle-cube"])
    def test_gate_reads_no_bracket_the_direct_sweep_does_not(self, check, monkeypatch):
        """On a window cube, and on the cocycle's restricted sweep, the
        pairs the gate reads are among those the direct sweep reads."""
        def pairs_read(gate_open):
            base = witt_pq() if check != "cocycle-cube" else inverse_twist_example()
            seen = set()

            def recording(i, j):
                seen.add((i, j))
                return base.bracket_gen(i, j)

            alg = GradedAlgebra("recorded", recording, base.twist_gen)
            if not gate_open:
                monkeypatch.setattr(bracket, "is_skew", lambda *args: False)
            if check == "hom-jacobi":
                assert verify_hom_jacobi(alg, index_triples(3)).ok
            else:
                verify_cocycle_condition(virasoro_cocycle(), alg, window=3)
            monkeypatch.undo()
            return seen

        gated = pairs_read(True)
        assert gated <= pairs_read(False)

    def test_skew_perturbation_shares_and_matches_reference(self, sweep_calls):
        alg = self.skew_perturbed(witt_pq(), (1, 2), Combo.basis(3, P + Q))
        triples = index_triples(3)
        rep = verify_hom_jacobi(alg, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert sweep_calls["negate"] == 35
        assert entries(rep) == reference_hom_jacobi(alg, triples)

    def test_skew_perturbation_of_open_triples(self, sweep_calls):
        alg = self.skew_perturbed(inverse_twist_example(), (-1, 2), Combo.basis(0, Q))
        triples = open_triples(3, 150, seed=5)
        rep = verify_hom_jacobi(alg, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert sweep_calls["negate"] > 0
        assert entries(rep) == reference_hom_jacobi(alg, triples)

    @pytest.mark.parametrize("family", [witt_pq, inverse_twist_example])
    def test_one_sided_perturbation_falls_back(self, family, sweep_calls):
        alg = perturb_algebra(family(), (1, 2), Combo.basis(3, P))
        triples = index_triples(2)
        rep = verify_hom_jacobi(alg, triples)
        assert not rep.ok
        # the rotation classes of the direct sweep, and no negated class
        assert sweep_calls == {"residue": 45}
        assert entries(rep) == reference_hom_jacobi(alg, triples)

    def test_perturbed_cocycle_shares_and_matches_reference(self, sweep_calls):
        g = virasoro_cocycle().perturbed((3, -3), P)
        rep = verify_cocycle_condition(g, witt_pq(), window=3)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert sweep_calls["negate"] > 0
        triples = [(n, m, -n - m) for n in range(-3, 4) for m in range(-3, 4) if abs(n + m) <= 3]
        assert entries(rep) == reference_cocycle(g, witt_pq(), triples)

    def test_cocycle_on_skew_perturbed_algebra(self, sweep_calls):
        g = virasoro_cocycle()
        alg = self.skew_perturbed(inverse_twist_example(), (1, -3), Combo.basis(-2, P))
        rep = verify_cocycle_condition(g, alg, window=3)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        assert sweep_calls["negate"] == 35
        assert entries(rep) == reference_cocycle(g, alg, index_triples(3))

    def test_cocycle_on_one_sided_perturbation_falls_back(self, sweep_calls):
        g = virasoro_cocycle()
        alg = perturb_algebra(inverse_twist_example(), (1, -2), Combo.basis(-1, P))
        rep = verify_cocycle_condition(g, alg, window=2)
        assert not rep.ok
        assert sweep_calls == {"residue": 45}
        assert entries(rep) == reference_cocycle(g, alg, index_triples(2))

    def test_quasi_jacobi_with_a_wrong_twist_shares_and_matches_reference(self, sweep_calls):
        ctx = wrong_twist_ctx(inverse_twist_context())
        triples = index_triples(2)
        rep = verify_quasi_jacobi(ctx, triples)
        assert {e.status for e in rep.entries} == {"pass", "fail"}
        # one sweep: the 10 transposed classes of the window
        assert sweep_calls["negate"] == 10
        assert entries(rep) == reference_quasi_jacobi(ctx, triples)

    def test_quasi_jacobi_on_a_table_that_is_not_skew_falls_back(self, sweep_calls,
                                                                 monkeypatch):
        """A bracket_general that is not skew on one monomial pair shuts the
        gate; the witnesses follow the same wrong bracket."""
        real = bracket.bracket_general

        def lopsided(ctx, a, b):
            got = real(ctx, a, b)
            return got + t(3) if (a, b) == (t(1), t(2)) else got

        monkeypatch.setattr(bracket, "bracket_general", lopsided)
        ctx = replace(witt_context())  # fresh: no bracket cached in its algebra
        triples = index_triples(2)
        rep = verify_quasi_jacobi(ctx, triples)
        failing = [e for e in rep.entries if e.status == "fail"]
        assert len(failing) == 18
        # the 45 rotation classes of the one sweep, and each failing triple
        # computes its two groups alone
        assert sweep_calls == {"residue": 45 + 2 * 18}


class TestScalarDeltaGate:
    """Quasi-Jacobi takes one sweep of the generator algebra when delta is a
    constant of Q(p,q), and one sweep per group otherwise.  The gate is
    open on the three contexts of the package (delta = 1, q/p and -1) and
    on the wrong-delta and wrong-twist contexts with a constant delta, and
    shut on delta + t and on the inversion-q-t2 context and its 2 delta;
    their entries match the reference in
    ``TestQuasiJacobiAgainstReference``."""

    CONTEXTS = TestQuasiJacobiAgainstReference.CONTEXTS

    def test_delta_of_the_package_contexts(self):
        one = LaurentPoly.one()
        assert [f().delta for f in (witt_context, sl2_context, inverse_twist_context)] == [
            one, one.scale(Q / P), -one]

    def test_g_and_delta_of_the_inversion_q_t2_context(self):
        ctx = inversion_q_t2_ctx()
        assert ctx.g == t(-1) - t(2).scale(Q)
        assert ctx.delta == -LaurentPoly.one() - t(-3).scale(1 / Q)

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_sweeps(self, name, residue_sweeps):
        ctx = self.CONTEXTS[name]()
        rep = verify_quasi_jacobi(ctx, index_triples(2))
        failing = sum(e.status == "fail" for e in rep.entries)
        assert (failing == 0) is (name in TestQuasiJacobiAgainstReference.GENUINE)
        if name in TestQuasiJacobiAgainstReference.TWO_SWEEPS:
            assert residue_sweeps == [125, 125]
        else:
            # one sweep, and the two groups of each failing triple alone
            assert residue_sweeps == [125] + [1] * (2 * failing)
