from collections import Counter

import pytest

from homlie import cli, extension
from homlie.algebra import Combo, GradedAlgebra, perturb_algebra
from homlie.bracket import verify_hom_jacobi
from homlie.errors import CocycleConditionFailed, PoleAtSpecialization
from homlie.extension import (
    CENTRAL,
    Cocycle,
    make_central_extension,
    verify_alternating,
    verify_centrality,
    verify_cocycle_condition,
    verify_f_compatibility,
    virasoro_cocycle,
    virasoro_pq,
)
from homlie.families import inverse_twist_example, witt_pq
from homlie.scalar import ONE, P, Q, Scalar, pq_number_of


@pytest.fixture(scope="module")
def g():
    return virasoro_cocycle()


@pytest.fixture(scope="module")
def witt():
    return witt_pq()


@pytest.fixture(scope="module")
def vir(witt, g):
    return make_central_extension(witt, g, window=4)


class TestCocycleValues:
    def test_small_indices_vanish(self, g):
        assert g.value(0, 0).is_zero()
        assert g.value(1, -1).is_zero()  # the [n-1] factor kills n = 1
        assert g.value(-1, 1).is_zero()

    def test_off_diagonal_zero(self, g):
        assert g.value(2, 3).is_zero()
        assert g.value(-4, 2).is_zero()

    def test_two_minus_two(self, g):
        r = Q / P
        expect = (
            r ** -2 / (Scalar.from_int(6) * (ONE + r ** 2))
            * (pq_number_of(P, Q, 1) / P)
            * (pq_number_of(P, Q, 2) / P ** 2)
            * (pq_number_of(P, Q, 3) / P ** 3)
        )
        assert g.value(2, -2) == expect

    def test_alternating(self, g):
        assert verify_alternating(g, window=5).ok

    def test_p_equals_one_reduces_to_q_shape(self, g):
        # at p = 1 each [k]/p^k factor becomes the plain q-integer {k}_q
        for n in range(2, 5):
            got = g.value(n, -n).subst(ONE, Q)
            r = Q
            expect = (
                r ** -n / (Scalar.from_int(6) * (ONE + r ** n))
                * pq_number_of(ONE, Q, n - 1)
                * pq_number_of(ONE, Q, n)
                * pq_number_of(ONE, Q, n + 1)
            )
            assert got == expect

    def test_specialization_pole(self, g):
        # q0/p0 = -1 makes 1 + (q/p)^n vanish for odd n
        with pytest.raises(PoleAtSpecialization):
            g.specialize(3, -3, 1, -1)
        assert g.specialize(2, -2, 1, 2) is not None


class TestCocycleCondition:
    def test_zero_cocycle(self, witt):
        assert verify_cocycle_condition(Cocycle.zero(), witt, window=3).ok

    def test_virasoro_cocycle(self, g, witt):
        rep = verify_cocycle_condition(g, witt, window=4)
        assert rep.ok
        # only zero-sum triples are swept
        assert all("(" in e.id for e in rep.entries)

    def test_perturbed_fails_with_witness(self, g, witt):
        bad = g.perturbed((3, -3), ONE)
        rep = verify_cocycle_condition(bad, witt, window=4)
        assert not rep.ok
        assert rep.first_failure().witness


class TestExtension:
    def test_centrality(self, vir):
        assert verify_centrality(vir, window=4).ok

    def test_bracket_has_central_term(self, vir, g, witt):
        combo = vir.bracket_gen(2, -2)
        assert combo.coeff(CENTRAL) == g.value(2, -2)
        assert combo.coeff(0) == witt.bracket_gen(2, -2).coeff(0)

    def test_zero_cocycle_extension_unchanged(self, witt):
        ext = make_central_extension(witt, Cocycle.zero(), window=3)
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert ext.bracket_gen(n, m) == witt.bracket_gen(n, m)

    def test_extension_hom_jacobi(self, vir):
        keys = list(range(-3, 4)) + [CENTRAL]
        triples = [(i, j, k) for i in keys for j in keys for k in keys]
        assert verify_hom_jacobi(vir, triples).ok

    def test_condition_failure_blocks_construction(self, witt, g):
        with pytest.raises(CocycleConditionFailed):
            make_central_extension(witt, g.perturbed((2, -2), ONE), window=3)

    def test_twist_extends_base(self, vir, witt):
        for n in range(-3, 4):
            assert vir.twist_gen(n) == witt.twist_gen(n)
        assert vir.twist_gen(CENTRAL) == Combo.basis(CENTRAL)

    @pytest.mark.parametrize("build", [
        lambda: make_central_extension(witt_pq(), virasoro_cocycle(), window=3),
        lambda: virasoro_pq(3),
    ])
    def test_extension_is_a_graded_algebra(self, build, g):
        ext = build()
        assert isinstance(ext, GradedAlgebra) and ext.name == "W_{p,q}^"
        assert ext.bracket_gen(3, -3).coeff(CENTRAL) == g.value(3, -3)
        keys = [-2, 2, CENTRAL]
        assert verify_hom_jacobi(ext, [(i, j, k) for i in keys for j in keys for k in keys]).ok


class TestFactorMap:
    def test_zero_cocycle_identity_factor(self, witt):
        rep = verify_f_compatibility(witt, Cocycle.zero(), lambda x, a: a, window=2)
        assert rep.ok

    def test_candidate_identity_factor_is_computed(self, witt, g):
        # outcome of f(x, a) = a is reported, not assumed: the twisted
        # pairs (n, -n) with n >= 2 fail inside the window
        rep = verify_f_compatibility(witt, g, lambda x, a: a, window=2)
        failing = {e.id for e in rep.failures}
        assert failing == {"pair-(-2,2)", "pair-(2,-2)"}

    def test_wrong_center_action_fails(self, witt, g):
        rep = verify_f_compatibility(witt, g, lambda x, a: a * Scalar.from_int(2), window=1)
        assert any(e.id.startswith("identity-on-center") for e in rep.failures)


class TestCocycleMemo:
    def test_virasoro_suite_evaluates_each_value_once(self, monkeypatch):
        real = virasoro_cocycle()
        evaluations = Counter()

        def counting_cocycle():
            def value(i, j):
                evaluations[(i, j)] += 1
                return real.value(i, j)

            return Cocycle(value)

        sweeps = []

        def counting_sweep(*args, **kwargs):
            sweeps.append(args)
            return verify_cocycle_condition(*args, **kwargs)

        monkeypatch.setattr(cli, "virasoro_cocycle", counting_cocycle)
        monkeypatch.setattr(cli, "verify_cocycle_condition", counting_sweep)
        monkeypatch.setattr(extension, "verify_cocycle_condition", counting_sweep)
        assert cli.run_suite("virasoro", 3).ok
        assert evaluations and set(evaluations.values()) == {1}
        assert len(sweeps) == 1

    def test_perturbed_cocycle_still_blocks_construction(self, witt):
        g = virasoro_cocycle()
        assert verify_cocycle_condition(g, witt, window=3).ok  # fills g's memo
        with pytest.raises(CocycleConditionFailed):
            make_central_extension(witt, g.perturbed((3, -3), ONE), window=3)

    def test_perturbed_memo_is_its_own(self):
        g = virasoro_cocycle()
        base = g.value(2, -2)
        bad = g.perturbed((2, -2), ONE)
        for _ in range(2):
            assert bad.value(2, -2) == base + ONE
            assert bad.value(2, -2) != base
        assert g.value(2, -2) == base
        assert bad.value(3, -3) == g.value(3, -3)


def index_sum(entry_id: str) -> int:
    """n + m + k of a ``triple-(n,m,k)`` entry."""
    return sum(map(int, entry_id[len("triple-("):-1].split(",")))


class TestCocycleSweepDomain:
    """The default sweep keeps only n + m + k = 0 when that cannot hide a
    failure: g supported on i + j = 0, brackets of degree n + m and a
    diagonal twist on the window."""

    def test_non_diagonal_twist_sweeps_the_full_cube(self, g):
        rep = verify_cocycle_condition(g, inverse_twist_example(), window=2)
        assert len(rep.entries) == 125
        assert not rep.ok
        assert "triple-(-2,-1,2)" in {e.id for e in rep.failures}

    def test_off_degree_bracket_sweeps_the_full_cube(self, g, witt):
        alg = perturb_algebra(witt, (1, -2), Combo.basis(2))
        rep = verify_cocycle_condition(g, alg, window=2)
        assert len(rep.entries) == 125
        assert any(index_sum(e.id) != 0 for e in rep.failures)

    def test_cocycle_perturbed_off_the_line_sweeps_the_full_cube(self, g, witt):
        bad = g.perturbed((1, 2), ONE)
        rep = verify_cocycle_condition(bad, witt, window=3)
        assert len(rep.entries) == 343
        assert "triple-(-1,1,3)" in {e.id for e in rep.failures}
        on_line = verify_cocycle_condition(g.perturbed((2, -2), ONE), witt, window=3)
        assert len(on_line.entries) == 37

    def test_zero_sum_flag_is_not_trusted(self, g, witt):
        # the values alone decide the sweep: one nonzero off i + j = 0
        bad = Cocycle(lambda i, j: g.value(i, j) + P if (i, j) == (1, 2) else g.value(i, j))
        rep = verify_cocycle_condition(bad, witt, window=3)
        assert len(rep.entries) == 343
        assert not rep.ok
        assert "triple-(-1,1,3)" in {e.id for e in rep.failures}

    def test_degree_preserving_sweep_is_restricted(self, g, witt):
        rep = verify_cocycle_condition(g, witt, window=2)
        assert rep.ok
        assert len(rep.entries) == 19
        assert all(index_sum(e.id) == 0 for e in rep.entries)
