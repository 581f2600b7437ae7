import random
from dataclasses import replace
from fractions import Fraction

import pytest

from homlie import bracket
from homlie.algebra import Combo, GradedAlgebra
from homlie.bracket import (
    bracket_forced,
    bracket_general,
    bracket_general_operator_oracle,
    check_forced_conditions,
    index_triples,
    twist_coefficient,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from homlie.derivation import SigmaSigmaContext, make_context
from homlie.errors import ConditionsFailed, NotWeakMorphism
from homlie.families import (
    check_morphism,
    classical_sl2,
    classical_witt,
    twist_algebra,
    witt_pq,
    witt_pq_forced,
)
from homlie.laurent import Endo, LaurentPoly
from homlie.scalar import P, Q, Scalar, pq_number

t = LaurentPoly.t


@pytest.fixture(scope="module")
def ctx():
    return make_context(Endo.dilation(P), Endo.dilation(Q))


@pytest.fixture(scope="module")
def inv_ctx():
    return make_context(Endo.inversion(), Endo.dilation(Q))


def random_coeff(rng):
    out = {}
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if c:
            out[rng.randint(-3, 3)] = Scalar.from_fraction(c)
    return LaurentPoly(out) if out else t(1)


class TestGeneralBracket:
    def test_witt_structure_shape(self, ctx):
        for n, m in ((2, 1), (3, -2), (0, 4), (-1, -3)):
            got = bracket_general(ctx, -t(n), -t(m))
            coeff = pq_number(n) / P ** n - pq_number(m) / P ** m
            assert got == -t(n + m).scale(coeff)

    def test_skew_symmetry(self, ctx):
        rng = random.Random(2)
        for _ in range(15):
            a, b = random_coeff(rng), random_coeff(rng)
            assert bracket_general(ctx, a, b) == -bracket_general(ctx, b, a)
            assert bracket_general(ctx, a, a).is_zero()

    def test_bilinearity(self, ctx):
        rng = random.Random(3)
        for _ in range(10):
            a, b, c = (random_coeff(rng) for _ in range(3))
            lam = Scalar.from_fraction(Fraction(3, 2))
            left = bracket_general(ctx, a.scale(lam) + b, c)
            right = bracket_general(ctx, a, c).scale(lam) + bracket_general(ctx, b, c)
            assert left == right

    def test_oracle_equivalence(self, ctx, inv_ctx):
        for context in (ctx, inv_ctx):
            for n in range(-3, 4):
                for m in range(-3, 4):
                    a, b = -t(n), -t(m)
                    coeff = bracket_general(context, a, b)
                    op = bracket_general_operator_oracle(context, a, b)
                    for j in range(-4, 5):
                        assert op(t(j)) == coeff * context.apply_generator(t(j))

    def test_oracle_on_unit(self, ctx):
        op = bracket_general_operator_oracle(ctx, -t(2), -t(1))
        assert op(LaurentPoly.one()).is_zero()

    def test_oracle_diagonal_zero(self, ctx):
        op = bracket_general_operator_oracle(ctx, -t(1), -t(1))
        for j in range(-4, 5):
            assert op(t(j)).is_zero()

    def test_inverse_twist_values(self, inv_ctx):
        # [d_n, d_m] expands by the geometric-sum identity
        got = bracket_general(inv_ctx, -t(2), -t(0))
        assert got == t(-1).scale(Q ** -2) + t(1).scale(Q ** -1)


class TestQuasiJacobi:
    def test_dilation_window(self, ctx):
        assert verify_quasi_jacobi(ctx, index_triples(3)).ok

    def test_inversion_window(self, inv_ctx):
        assert verify_quasi_jacobi(inv_ctx, index_triples(3)).ok

    def test_repeated_entries(self, ctx):
        rep = verify_quasi_jacobi(ctx, [(2, 2, 1), (2, 1, 2)])
        assert rep.ok

    def test_hom_reduction_constant_delta(self, ctx):
        # with constant delta the six terms assemble into three with
        # alpha = sigma tau^-1 + delta id
        delta = ctx.delta
        for (n, m, k) in ((1, 2, 3), (2, -1, 0), (-2, 1, 4)):
            triple = (-t(n), -t(m), -t(k))
            six = LaurentPoly.zero()
            three = LaurentPoly.zero()
            for x, y, z in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
                w = bracket_general(ctx, y, z)
                from homlie.laurent import apply_endo

                six = six + bracket_general(ctx, apply_endo(ctx.sigma_tau_inv, x), w)
                six = six + delta * bracket_general(ctx, x, w)
                three = three + bracket_general(ctx, twist_coefficient(ctx, x), w)
            assert six == three
            assert three.is_zero()


class TestForcedBracket:
    def test_conditions_dilation(self, ctx):
        rep = check_forced_conditions(ctx)
        assert rep.ok
        assert rep.data["delta"] == LaurentPoly.one()

    def test_conditions_partial_sigma_sigma(self):
        ss = SigmaSigmaContext(P)
        rep = check_forced_conditions(ss)
        assert rep.ok
        assert rep.data["delta"] == LaurentPoly.from_scalar(P)

    def test_conditions_fail_for_inversion(self, inv_ctx):
        rep = check_forced_conditions(inv_ctx)
        assert not rep.ok
        # both the commutation of the maps and the g-ratios break
        ids = {e.id for e in rep.failures}
        assert "commute" in ids

    @pytest.mark.parametrize("site", ["intertwine", "g-ratio"])
    def test_kernel_fault_is_not_a_failed_check(self, monkeypatch, site):
        # only NotDivisible means "not a multiple"; any other error in the
        # division kernel must propagate instead of becoming a witness
        fresh = make_context(Endo.dilation(P), Endo.dilation(Q))
        real = bracket.exact_div

        def faulty(a, b):
            if site == "intertwine" or b == fresh.g:
                raise TypeError("kernel fault")
            return real(a, b)

        monkeypatch.setattr(bracket, "exact_div", faulty)
        with pytest.raises(TypeError):
            check_forced_conditions(fresh)

    def test_forced_raises_when_unavailable(self, inv_ctx):
        with pytest.raises(ConditionsFailed):
            bracket_forced(inv_ctx, -t(1), -t(0))

    def test_replaced_context_is_checked_afresh(self):
        """The conditions of a context whose forced bracket has run do not
        carry over to a context built from it with another tau."""
        ctx = make_context(Endo.dilation(P), Endo.dilation(Q))
        assert bracket_forced(ctx, t(1), t(2)) == t(3).scale(P * Q)
        changed = replace(ctx, tau=Endo.inversion())
        assert not changed.forced_conditions.ok
        with pytest.raises(ConditionsFailed):
            bracket_forced(changed, t(1), t(2))

    def test_forced_structure(self, ctx):
        for n, m in ((1, 0), (2, 1), (3, -2)):
            got = bracket_forced(ctx, -t(n), -t(m))
            coeff = Q ** m * pq_number(n) - Q ** n * pq_number(m)
            assert got == -t(n + m).scale(coeff)

    def test_sigma_and_tau_forms_agree(self, ctx):
        for n, m in ((1, 0), (2, 1), (3, -2), (-4, 2)):
            assert bracket_forced(ctx, -t(n), -t(m)) == bracket_forced(
                ctx, -t(n), -t(m), use_tau=True
            )

    def test_forced_skew(self, ctx):
        a, b = -t(2) + t(0), -t(1)
        assert bracket_forced(ctx, a, b) == -bracket_forced(ctx, b, a)


class TestHomJacobi:
    def test_classical_witt(self):
        alg = GradedAlgebra("W", classical_witt().bracket_gen, Combo.basis)
        assert verify_hom_jacobi(alg, index_triples(3)).ok

    def test_forced_witt_twist(self):
        alg = witt_pq_forced()
        assert verify_hom_jacobi(alg, index_triples(3)).ok

    def test_failure_is_witnessed(self):
        alg = classical_witt()
        rep = verify_hom_jacobi(alg, index_triples(2))  # twist 2id: fine
        assert rep.ok
        bent = GradedAlgebra("W-bent", alg.bracket_gen,
                             lambda n: alg.twist_gen(n) + Combo.basis(0, P))
        broken = verify_hom_jacobi(bent, [(1, 2, 3)])
        assert not broken.ok
        assert "residue" in broken.first_failure().witness


class TestTwistAlgebra:
    def test_identity_twist(self):
        alg = witt_pq()
        twisted = twist_algebra(alg, Combo.basis, window=3)
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert twisted.bracket_gen(n, m) == alg.bracket_gen(n, m)

    def test_diagonal_twist_reaches_forced(self):
        alg = witt_pq()
        rho = lambda n: Combo.basis(n, P ** n)
        twisted = twist_algebra(alg, rho, window=3)
        forced = witt_pq_forced()
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert twisted.bracket_gen(n, m) == forced.bracket_gen(n, m)
            assert twisted.twist_gen(n) == forced.twist_gen(n)

    def test_non_weak_morphism_rejected(self):
        alg = witt_pq()
        bad = lambda n: Combo.basis(n, P + Q ** n)
        with pytest.raises(NotWeakMorphism):
            twist_algebra(alg, bad, window=2)

    @pytest.mark.parametrize("family, rho, weak", [
        (witt_pq, Combo.basis, True),
        (witt_pq, lambda n: Combo.basis(n, P ** n), True),
        (witt_pq, lambda n: Combo.basis(n, P + Q ** n), False),
        # the sl(2) twisting map of the diagram is not a weak morphism
        (classical_sl2, lambda k: Combo.basis(k, {"e": 1, "f": P ** 2, "h": P}[k]), False),
    ])
    def test_rejects_exactly_what_check_morphism_finds_not_weak(self, family, rho, weak):
        alg = family()
        assert check_morphism(rho, alg, alg, 2).data["weak"] is weak
        if weak:
            assert twist_algebra(alg, rho, window=2).name == f"{alg.name}^rho"
        else:
            with pytest.raises(NotWeakMorphism, match="bracket intertwining"):
                twist_algebra(alg, rho, window=2)
