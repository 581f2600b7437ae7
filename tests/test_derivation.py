from dataclasses import FrozenInstanceError, replace

import pytest

from homlie.derivation import (
    leibniz_extension,
    make_context,
    SigmaSigmaContext,
    monomial_pairs,
    commutator_derivation,
    rescale_generator,
    verify_leibniz,
)
from homlie.errors import BadSize, EqualMorphisms, HypothesisViolated, InvalidGcd, NotAUnit
from homlie.families import sl2_context, witt_context
from homlie.laurent import Endo, LaurentPoly, apply_endo, exact_div
from homlie.scalar import P, Q, Scalar, pq_number_of

t = LaurentPoly.t
TAU = Endo.dilation(P)
SIGMA = Endo.dilation(Q)


@pytest.fixture(scope="module")
def witt_ctx():
    return make_context(TAU, SIGMA)


@pytest.fixture(scope="module")
def partial_ctx():
    return make_context(TAU, SIGMA, override_g=t(1).scale(P - Q))


@pytest.fixture(scope="module")
def inversion_ctx():
    return make_context(Endo.inversion(), SIGMA)


class TestMakeContext:
    def test_dilation_context(self, witt_ctx):
        assert witt_ctx.g == LaurentPoly.from_scalar(P - Q)
        assert witt_ctx.delta == LaurentPoly.one()

    def test_partial_override(self, partial_ctx):
        assert partial_ctx.delta == LaurentPoly.from_scalar(Q / P)

    def test_inversion_context(self, inversion_ctx):
        assert inversion_ctx.g == t(-1) - t(1).scale(Q)
        assert inversion_ctx.delta == -LaurentPoly.one()

    def test_equal_morphisms_rejected(self):
        with pytest.raises(EqualMorphisms):
            make_context(TAU, TAU)

    def test_bad_override_rejected(self):
        with pytest.raises(InvalidGcd):
            make_context(TAU, SIGMA, override_g=t(1) + LaurentPoly.one())

    @pytest.mark.parametrize("g", [t(1) + LaurentPoly.one(), t(2) + LaurentPoly.from_scalar(P),
                                   LaurentPoly.zero()], ids=["t+1", "t^2+p", "zero"])
    def test_bad_override_message(self, g):
        with pytest.raises(InvalidGcd, match=r"^override g does not divide the image of t$"):
            make_context(TAU, SIGMA, override_g=g)

    def test_override_divides_the_image_once(self, monkeypatch):
        # sl(2)'s g = (p - q) t: the context's division for u is the check
        want = sl2_context()
        divisions = []

        def counted(a, b):
            divisions.append((a, b))
            return exact_div(a, b)

        for target in ("homlie.laurent.exact_div", "homlie.derivation.exact_div"):
            monkeypatch.setattr(target, counted)
        monkeypatch.setattr(LaurentPoly, "__truediv__", counted)
        ctx = sl2_context.__wrapped__()
        assert ctx == want
        image = apply_endo(TAU, t(1)) - apply_endo(SIGMA, t(1))
        assert [b for a, b in divisions if a == image] == [ctx.g]

    def test_delta_divides_exactly(self, witt_ctx, inversion_ctx, partial_ctx):
        for ctx in (witt_ctx, inversion_ctx, partial_ctx):
            sti = ctx.sigma_tau_inv
            assert apply_endo(sti, ctx.g) == ctx.delta * ctx.g


class TestContextsAreValues:
    @pytest.mark.parametrize("name", ["tau", "sigma", "g", "delta"])
    def test_assignment_raises(self, witt_ctx, name):
        with pytest.raises(FrozenInstanceError):
            setattr(witt_ctx, name, getattr(witt_ctx, name))

    @pytest.mark.parametrize("name", ["c", "sigma", "delta"])
    def test_sigma_sigma_assignment_raises(self, name):
        ctx = SigmaSigmaContext(P)
        with pytest.raises(FrozenInstanceError):
            setattr(ctx, name, getattr(ctx, name))

    def test_equal_fields_make_equal_contexts(self, witt_ctx):
        assert make_context(TAU, SIGMA) == witt_ctx == witt_context()
        assert replace(witt_ctx, g=witt_ctx.g * 2) != witt_ctx
        assert SigmaSigmaContext(P) == SigmaSigmaContext(P) != SigmaSigmaContext(Q)

    def test_zero_dilation_is_refused(self):
        with pytest.raises(ValueError):
            SigmaSigmaContext(P - P)


class TestGeneratorAction:
    def test_witt_monomials(self, witt_ctx):
        for n in range(-6, 7):
            assert witt_ctx.apply_generator(t(n)) == t(n).scale(pq_number_of(P, Q, n))

    def test_partial_monomials(self, partial_ctx):
        assert partial_ctx.apply_generator(t(3)) == t(2).scale(pq_number_of(P, Q, 3))

    def test_kills_unit(self, witt_ctx, inversion_ctx):
        for ctx in (witt_ctx, inversion_ctx):
            assert ctx.apply_generator(LaurentPoly.one()).is_zero()

    def test_linearity(self, witt_ctx):
        f = t(2).scale(P) + t(-1)
        g = t(1).scale(Q) - t(0)
        d = witt_ctx.element(t(1) + t(0))
        assert d.apply(f + g) == d.apply(f) + d.apply(g)

    def test_replaced_context_has_its_own_generator_cache(self):
        """A context built from the process-wide witt context with tau =
        the inversion computes its own D(t^2) and D(t^3), and the D(t^3) it
        computes does not reach the original."""
        ctx = witt_context()
        assert ctx.generator_on_monomial(2) == t(2).scale(P + Q)
        changed = replace(ctx, tau=Endo.inversion())
        # (t^-n - q^n t^n)/(p - q)
        assert changed.generator_on_monomial(2) == (t(-2) - t(2).scale(Q ** 2)).scale(1 / (P - Q))
        assert changed.generator_on_monomial(3) == (t(-3) - t(3).scale(Q ** 3)).scale(1 / (P - Q))
        assert ctx.generator_on_monomial(3) == t(3).scale(pq_number_of(P, Q, 3))

    def test_sigma_sigma_action(self):
        ctx = SigmaSigmaContext(P)
        assert ctx.apply_generator(t(3)) == t(2).scale(Scalar.monomial(3, 2, 0))
        assert ctx.apply_generator(t(0)).is_zero()

    def test_sigma_sigma_rank_one(self):
        # any (sigma,sigma)-derivation is D(t) * the canonical generator
        ctx = SigmaSigmaContext(P)
        h = t(2).scale(P + Q)  # prescribed image of t
        d = ctx.element(h)  # h * partial sends t -> h since partial(t) = 1
        assert d.apply(t(1)) == h
        for n in range(-5, 6):
            assert d.apply(t(n)) == h * ctx.generator_on_monomial(n)


class TestLeibniz:
    def test_window_sweep(self, witt_ctx, inversion_ctx, partial_ctx):
        for ctx in (witt_ctx, inversion_ctx, partial_ctx):
            rep = verify_leibniz(ctx.generator(), monomial_pairs(8))
            assert rep.ok

    def test_with_coefficient(self, witt_ctx):
        element = witt_ctx.element(t(2) - t(-1).scale(Q))
        assert verify_leibniz(element, monomial_pairs(4)).ok

    def test_product_pair_expansion(self, witt_ctx):
        # D(t^2 t^3) = [5] t^5 comes from [2] p^3 + q^2 [3] = [5]
        rep = verify_leibniz(witt_ctx.generator(), [(t(2), t(3))])
        assert rep.ok
        assert pq_number_of(P, Q, 2) * P ** 3 + Q ** 2 * pq_number_of(P, Q, 3) == pq_number_of(P, Q, 5)

    def test_zero_derivation(self, witt_ctx):
        zero = witt_ctx.element(LaurentPoly.zero())
        assert verify_leibniz(zero, monomial_pairs(3)).ok

    def test_corrupted_operator_fails(self):
        def corrupted(f):
            out = LaurentPoly.zero()
            for n, c in f.coeffs.items():
                out = out + t(n).scale(c * Scalar.from_int(n))
            return out

        rep = verify_leibniz(corrupted, [(t(1), t(1))], tau=TAU, sigma=SIGMA)
        assert not rep.ok
        assert "residue" in rep.first_failure().witness

    def test_central_multiple_of_difference(self, witt_ctx):
        # f -> c (tau(f) - sigma(f)) is always a twisted derivation
        c = t(2).scale(P) + t(0)
        op = lambda f: c * (apply_endo(TAU, f) - apply_endo(SIGMA, f))
        assert verify_leibniz(op, monomial_pairs(4), tau=TAU, sigma=SIGMA).ok

    def test_empty_corpus_raises(self, witt_ctx):
        with pytest.raises(BadSize):
            verify_leibniz(witt_ctx.generator(), [])
        with pytest.raises(BadSize):
            verify_leibniz(lambda f: f, iter(()), tau=TAU)

    def test_endomorphism_with_the_zero_sigma(self):
        # an algebra endomorphism is a (tau, 0)-derivation for tau = itself
        corpus = [(t(2) - t(-1), t(1).scale(P) + t(3))] + monomial_pairs(2)
        assert verify_leibniz(SIGMA, corpus, tau=SIGMA).ok
        rep = verify_leibniz(SIGMA, corpus, tau=TAU)
        assert not rep.ok and "residue" in rep.first_failure().witness


class TestRankOne:
    def test_leibniz_extension_agrees(self, witt_ctx):
        h = witt_ctx.apply_generator(t(1))
        phi = leibniz_extension(h, TAU, SIGMA)
        for n in range(-8, 9):
            assert phi(n) == witt_ctx.apply_generator(t(n))

    def test_scaled_image(self, witt_ctx):
        # t -> h with h a multiple of Delta(t) reproduces (h/Delta(t)).Delta
        delta_t = witt_ctx.apply_generator(t(1))
        a = t(1) + t(0).scale(Q)
        h = a * delta_t
        phi = leibniz_extension(h, TAU, SIGMA)
        element = witt_ctx.element(a)
        for n in range(-8, 9):
            assert phi(n) == element.apply(t(n))

    def test_annihilator_trivial(self, witt_ctx, inversion_ctx):
        for ctx in (witt_ctx, inversion_ctx):
            for coeff in (t(3), t(0) + t(2).scale(P), t(-2).scale(P - Q)):
                element = ctx.element(coeff)
                assert not element.is_zero_on_window(8)


class TestDeltaIdentity:
    def test_commutation_window(self, witt_ctx, inversion_ctx, partial_ctx):
        # Delta tau^-1 sigma tau^-1 = delta . (sigma tau^-1 Delta tau^-1)
        for ctx in (witt_ctx, inversion_ctx, partial_ctx):
            ti, sti = ctx.tau_inv, ctx.sigma_tau_inv
            for n in range(-8, 9):
                lhs = ctx.apply_generator(apply_endo(ti, apply_endo(sti, t(n))))
                rhs = ctx.delta * apply_endo(sti, ctx.apply_generator(apply_endo(ti, t(n))))
                assert lhs == rhs


class TestCommutator:
    def test_self_commutator_vanishes(self, witt_ctx):
        d = witt_ctx.generator()
        op, rep = commutator_derivation(d, d, window=4)
        assert rep.ok
        assert all(op(t(n)).is_zero() for n in range(-4, 5))

    def test_two_dilation_generators(self, witt_ctx):
        ctx2 = make_context(Endo.dilation(P ** 2), Endo.dilation(Q ** 2))
        op, rep = commutator_derivation(witt_ctx.generator(), ctx2.generator(), window=4)
        assert rep.ok  # a (tau tau', sigma sigma')-derivation on the corpus

    def test_hypothesis_violation(self, witt_ctx, inversion_ctx):
        with pytest.raises(HypothesisViolated):
            commutator_derivation(inversion_ctx.generator(), witt_ctx.generator(), window=3)


class TestRescale:
    def test_trivial_unit(self, witt_ctx):
        ctx2, cert = rescale_generator(witt_ctx, LaurentPoly.one(), window=2)
        assert ctx2.g == witt_ctx.g
        assert ctx2.delta == witt_ctx.delta
        assert cert.ok

    def test_to_partial_generator(self, witt_ctx):
        ctx2, cert = rescale_generator(witt_ctx, t(1), window=3)
        assert ctx2.g == t(1).scale(P - Q)
        assert ctx2.delta == LaurentPoly.from_scalar(Q / P)
        assert cert.ok

    def test_constant_unit_keeps_delta(self, witt_ctx):
        ctx2, cert = rescale_generator(witt_ctx, LaurentPoly.from_int(2), window=2)
        assert ctx2.delta == witt_ctx.delta
        assert cert.ok

    def test_non_unit_rejected(self, witt_ctx):
        with pytest.raises(NotAUnit):
            rescale_generator(witt_ctx, t(1) + t(0))
