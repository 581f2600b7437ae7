import contextlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from homlie import cli, families
from homlie.algebra import Combo, GradedAlgebra, algebras_equal_on_window, perturb_algebra
from homlie.bracket import bracket_general, generator_algebra, index_triples, verify_hom_jacobi
from homlie.families import (
    DiagonalData,
    GeneratorMap,
    SL2_BASIS,
    SL2_COEFF,
    check_morphism,
    classical_sl2,
    classical_witt,
    coefficient_of_d,
    diagram_report,
    expand_in_d_basis,
    forced_data,
    inverse_twist_context,
    inverse_twist_example,
    sigma_sigma_witt,
    sigma_sigma_witt_forced,
    sl2_context,
    sl2_expand,
    sl2_pp,
    sl2_pp_forced,
    sl2_pq,
    sl2_r,
    solve_scale_isomorphism,
    subst_algebra,
    witt_context,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from homlie.scalar import ONE, P, Q, Scalar, pq_number_of

two = Scalar.from_int(2)


def _witt_without_degree_zero() -> GradedAlgebra:
    """Classical W with its brackets of degree 0 set to zero."""
    return families._diagonal(
        "X", DiagonalData(lambda n, m: (n - m) * ONE if n + m else Scalar.zero(), lambda n: two))


class TestWitt:
    def test_first_structure_constants(self):
        w = witt_pq()
        assert w.bracket_gen(1, 0) == Combo.basis(1, ONE / P)
        assert w.bracket_gen(2, 1) == Combo.basis(3, Q / P ** 2)
        assert w.bracket_gen(4, 4).is_zero()

    def test_closed_formula_matches_operator_route(self):
        w = witt_pq()
        ctx = witt_context()
        for n in range(-4, 5):
            for m in range(-4, 5):
                via = expand_in_d_basis(
                    bracket_general(ctx, coefficient_of_d(n), coefficient_of_d(m)))
                assert via == w.bracket_gen(n, m)

    def test_twist(self):
        w = witt_pq()
        assert w.twist_gen(2) == Combo.basis(2, ONE + (Q / P) ** 2)

    def test_closed_forms_are_the_generator_algebra(self):
        """Brackets and the closed twist 1 + (q/p)^n of W_{p,q} are those
        of the general bracket on ``witt_context`` and its twist
        sigma tau^-1 + delta."""
        ok, why = algebras_equal_on_window(generator_algebra(witt_context()), witt_pq(), 4)
        assert ok, why

    def test_hom_jacobi(self):
        assert verify_hom_jacobi(witt_pq(), index_triples(3)).ok

    def test_specialization_commutes_with_bracket(self):
        w = witt_pq()
        for n, m in ((2, 1), (3, -1)):
            combo = w.bracket_gen(n, m)
            value = combo.coeff(n + m).specialize(2, 3)
            direct = (pq_number_of(P, Q, n) / P ** n - pq_number_of(P, Q, m) / P ** m).specialize(2, 3)
            assert value == direct


class TestForcedWitt:
    def test_structure(self):
        w = witt_pq_forced()
        assert w.bracket_gen(1, 0) == Combo.basis(1)

    @pytest.mark.parametrize("n", range(-8, 9))
    @pytest.mark.parametrize("m", range(-8, 9))
    def test_q_and_p_forms_agree(self, n, m):
        assert forced_data(P, Q, ONE).s(n, m) == forced_data(Q, P, ONE).s(n, m)

    def test_twist_and_jacobi(self):
        w = witt_pq_forced()
        assert w.twist_gen(3) == Combo.basis(3, P ** 3 + Q ** 3)
        assert verify_hom_jacobi(w, index_triples(3)).ok


class TestSigmaSigma:
    def test_partial_grading(self):
        w = sigma_sigma_witt("partial")
        assert w.bracket_gen(2, 0) == Combo.basis(1, two / P)

    def test_t_partial_grading(self):
        w = sigma_sigma_witt("t-partial")
        assert w.bracket_gen(2, 0) == Combo.basis(2, two / P)

    def test_mult_by_p_isomorphism(self):
        phi = lambda n: Combo.basis(n, P)
        rep = check_morphism(phi, classical_witt(), sigma_sigma_witt("t-partial"), 4)
        assert rep.data["full"]

    def test_shifted_isomorphism(self):
        # d_n -> p^(n+1) d_(n+1) onto the partial-generator grading
        phi = lambda n: Combo.basis(n + 1, P ** (n + 1))
        rep = check_morphism(phi, classical_witt(), sigma_sigma_witt("partial"), 4)
        assert rep.data["full"]

    def test_forced_version(self):
        w = sigma_sigma_witt_forced()
        assert w.bracket_gen(2, 0) == Combo.basis(2, two * P)
        assert verify_hom_jacobi(w, index_triples(3)).ok


class TestSl2:
    def test_table(self):
        s = sl2_pq()
        assert s.bracket_gen("h", "e") == Combo.basis("e", two / P)
        assert s.bracket_gen("h", "f") == Combo.basis("f", -(two * Q) / P ** 2)
        assert s.bracket_gen("e", "f") == Combo.basis("h", (P + Q) / (two * P ** 2))

    def test_twists(self):
        s = sl2_pq()
        r = Q / P
        assert s.twist_gen("e") == Combo.basis("e", ONE + r)
        assert s.twist_gen("f") == Combo.basis("f", r * (ONE + r))
        assert s.twist_gen("h") == Combo.basis("h", two * r)

    def test_closure_via_operators(self):
        s = sl2_pq()
        ctx = sl2_context()
        for x in SL2_BASIS:
            for y in SL2_BASIS:
                w = bracket_general(ctx, SL2_COEFF[x], SL2_COEFF[y])
                assert sl2_expand(w) == s.bracket_gen(x, y)  # no residue terms

    def test_hom_jacobi(self):
        s = sl2_pq()
        triples = [(x, y, z) for x in SL2_BASIS for y in SL2_BASIS for z in SL2_BASIS]
        assert verify_hom_jacobi(s, triples).ok

    def test_classical_specialization(self):
        s = sl2_pq()
        assert s.bracket_gen("h", "e").coeff("e").specialize(1, 1) == 2
        assert s.bracket_gen("h", "f").coeff("f").specialize(1, 1) == -2
        assert s.bracket_gen("e", "f").coeff("h").specialize(1, 1) == 1

    def test_pp_and_forced(self):
        s = sl2_pp()
        assert s.bracket_gen("e", "f") == Combo.basis("h", ONE / P)
        forced = sl2_pp_forced()
        assert forced.bracket_gen("e", "f") == Combo.basis("h", P)
        triples = [(x, y, z) for x in SL2_BASIS for y in SL2_BASIS for z in SL2_BASIS]
        assert verify_hom_jacobi(forced, triples).ok


class TestInverseTwist:
    def test_bracket_expansion(self):
        alg = inverse_twist_example()
        got = alg.bracket_gen(2, 0)
        assert got == Combo.basis(-1, -(Q ** -2)) + Combo.basis(1, -(Q ** -1))

    def test_diagonal_vanishes(self):
        alg = inverse_twist_example()
        for n in range(-3, 4):
            assert alg.bracket_gen(n, n).is_zero()

    def test_twist(self):
        alg = inverse_twist_example()
        for n in range(-4, 5):
            assert alg.twist_gen(n) == Combo.basis(-n, Q ** (-n)) - Combo.basis(n)
        # the twist is the coefficient map sigma tau^-1 + delta id
        ctx = inverse_twist_context()
        from homlie.bracket import twist_coefficient

        for n in range(-4, 5):
            assert expand_in_d_basis(twist_coefficient(ctx, coefficient_of_d(n))) == alg.twist_gen(n)

    def test_hom_jacobi(self):
        assert verify_hom_jacobi(inverse_twist_example(), index_triples(2)).ok

    def test_is_the_generator_algebra_of_its_context(self):
        """The family W-inv is the inversion context's own generator
        algebra, which quasi-Jacobi on that context reads."""
        alg = inverse_twist_example()
        assert alg.name == "W-inv"
        assert alg.bracket_gen is inverse_twist_context().algebra.bracket_gen


class TestMorphisms:
    def test_witt_scale_morphism(self):
        rep = check_morphism(lambda n: Combo.basis(n, P), witt_r(), witt_pq(), 5)
        assert rep.data["weak"] and rep.data["full"]

    def test_sl2_multiplication_by_p(self):
        phi = GeneratorMap({k: Combo.basis(k, P) for k in SL2_BASIS})
        rep = check_morphism(phi, sl2_r(), sl2_pq(), 3)
        assert rep.data["full"]

    def test_sl2_family_constraint(self):
        # any scaling with a*b = p^2 and c = p intertwines
        phi = GeneratorMap({
            "e": Combo.basis("e", P ** 2),
            "f": Combo.basis("f", ONE),
            "h": Combo.basis("h", P),
        })
        assert check_morphism(phi, sl2_r(), sl2_pq(), 3).data["full"]

    def test_identity_between_general_and_forced_fails(self):
        rep = check_morphism(
            Combo.basis, witt_pq(), witt_pq_forced(), 3
        )
        assert not rep.data["weak"]

    @pytest.mark.parametrize("src,dst,phi,name", [
        (witt_pq, witt_pq_forced, Combo.basis, "d_{}"),
        (sl2_pq, sl2_pp, GeneratorMap({k: Combo.basis(k) for k in SL2_BASIS}), "{}"),
    ], ids=["witt", "sl2"])
    def test_failing_pair_is_named_in_its_witness(self, src, dst, phi, name):
        failures = check_morphism(phi, src(), dst(), 3).failures
        brackets = [e for e in failures if e.anchor == "bracket-intertwining"]
        twists = [e for e in failures if e.anchor == "twist-intertwining"]
        assert brackets and twists
        for entry in brackets:
            i, j = entry.id.removeprefix("bracket-(").removesuffix(")").split(",")
            assert entry.witness.startswith(f"phi[{name.format(i)},{name.format(j)}] = ")
        for entry in twists:
            x = name.format(entry.id.removeprefix("twist-"))
            assert entry.witness.startswith(f"phi(alpha({x})) = ")
            assert f"alpha'(phi({x})) = " in entry.witness


class TestScaleSolver:
    def test_witt_family(self):
        sols = solve_scale_isomorphism(witt_r(), witt_pq(), window=5, nu_candidates=(1,))
        sol = sols[1]
        assert sol.feasible
        assert sol.free_symbols == ["c_1"]
        # c_n = c_1^n / p^(n-1), including the negative side
        for n in range(-5, 6):
            term = sol.family[n]
            assert term.exps == ({} if n == 0 else {"c_1": n})
            assert term.mu == P ** (1 - n)

    def test_round_trip_member(self):
        sols = solve_scale_isomorphism(witt_r(), witt_pq(), window=4, nu_candidates=(1,))
        sol = sols[1]
        # substitute c_1 = p: every scale becomes p
        for n in range(-4, 5):
            value = sol.family[n].mu * P ** sol.family[n].exps.get("c_1", 0)
            assert value == P
        rep = check_morphism(lambda n: Combo.basis(n, P), witt_r(), witt_pq(), 4)
        assert rep.data["full"]

    def test_general_vs_forced_infeasible(self):
        sols = solve_scale_isomorphism(witt_pq(), witt_pq_forced(), window=4,
                                       nu_candidates=(1,))
        sol = sols[1]
        assert not sol.feasible
        assert sol.witness is not None
        first, second = sol.witness
        assert "c_0" in first.text and "c_0" in second.text

    def test_relation_among_free_symbols_is_eliminated(self):
        X = _witt_without_degree_zero()
        sol = solve_scale_isomorphism(X, X, window=3, nu_candidates=(1,))[1]
        assert sol.feasible
        assert sol.free_symbols == ["c_-1"]
        for k in range(-3, 4):
            assert sol.family[k].mu == ONE
            assert sol.family[k].exps == ({} if k == 0 else {"c_-1": -k})

    def test_zero_against_nonzero_constant_is_a_witness(self):
        sol = solve_scale_isomorphism(classical_witt(), _witt_without_degree_zero(), window=3,
                                      nu_candidates=(1,))[1]
        assert not sol.feasible
        assert [c.text for c in sol.witness] == ["s_src(-1,1) = -2", "s_dst(-1,1) = 0"]

    def test_twist_mismatch_is_a_witness(self):
        dst = families._diagonal("W3", DiagonalData(lambda n, m: (n - m) * ONE, lambda n: 3 * ONE))
        sol = solve_scale_isomorphism(classical_witt(), dst, window=3, nu_candidates=(1,))[1]
        assert not sol.feasible
        assert [c.text for c in sol.witness] == ["src twist a(-3) = 2", "dst twist a(-3) = 3"]

    @pytest.mark.parametrize("name, dst", [
        ("W-inv", inverse_twist_example),
        ("W_{p,p}[partial]", lambda: sigma_sigma_witt("partial")),
        ("W_{p,q}[perturbed@(1, 2)]",
         lambda: perturb_algebra(witt_pq(), (1, 2), Combo.basis(3))),
    ], ids=["operator-route", "shifted", "perturbed"])
    def test_algebra_without_degree_preserving_data_is_refused(self, name, dst):
        # the solver reads DiagonalData; it never probes an algebra
        with pytest.raises(ValueError, match=re.escape(name)):
            solve_scale_isomorphism(witt_pq(), dst(), window=2)

    def test_infeasible_for_all_explored_permutations(self):
        sols = solve_scale_isomorphism(witt_pq(), witt_pq_forced(), window=3)
        assert set(sols) == {1, -1, 2, -2}
        assert not any(s.feasible for s in sols.values())

    def test_lie_algebra_never_isomorphic_to_nontrivial_twist(self):
        # a Lie algebra scale-isomorphic to its rho-twist forces rho = id;
        # for rho(d_n) = p^n d_n the solver certifies infeasibility
        lie = sigma_sigma_witt("t-partial")
        sols = solve_scale_isomorphism(lie, sigma_sigma_witt_forced(), window=3)
        assert not any(s.feasible for s in sols.values())

    def test_identity_solution_on_same_algebra(self):
        sols = solve_scale_isomorphism(witt_pq(), witt_pq(), window=3, nu_candidates=(1,))
        sol = sols[1]
        assert sol.feasible
        # c_n = c_1^n with c_0 = 1; the identity is the member c_1 = 1
        assert sol.family[0].mu == ONE and sol.family[0].exps == {}
        for n in range(-3, 4):
            assert sol.family[n].exps == ({} if n == 0 else {"c_1": n})
            assert sol.family[n].mu == ONE


class TestDegenerations:
    def test_witt_p_equals_one_gives_q_witt(self):
        from homlie.scalar import pq_number_of

        w = subst_algebra(witt_pq(), ONE, Q, "W|p=1")
        for n in range(-4, 5):
            for m in range(-4, 5):
                # {n}_q - {m}_q in the single parameter q
                expect = Combo.basis(
                    n + m, pq_number_of(ONE, Q, n) - pq_number_of(ONE, Q, m)
                )
                assert w.bracket_gen(n, m) == expect

    def test_witt_classical_limit(self):
        w = witt_pq()
        for n in range(-4, 5):
            for m in range(-4, 5):
                assert w.bracket_gen(n, m).coeff(n + m).specialize(1, 1) == n - m

    def test_q_equals_p(self):
        w = subst_algebra(witt_pq(), P, P, "W|q=p")
        target = sigma_sigma_witt("t-partial")
        ok, why = algebras_equal_on_window(w, target, 4)
        assert ok, why


class TestDiagram:
    def test_all_edges(self):
        rep = diagram_report(window=3)
        assert rep.ok, rep.first_failure().witness
        assert len(rep.entries) == 12


class TestDeformedIntegersOnce:
    def test_witt_suite_computes_each_index_once(self, monkeypatch):
        """[n]/p^n is computed once per index, not once per structure
        constant that needs it, and not again by a later suite: the
        family is built once per process."""
        calls = Counter()

        def counting(a, b, n):
            calls[n] += 1
            return pq_number_of(a, b, n)

        monkeypatch.setattr(families, "pq_number_of", counting)
        families.witt_pq.cache_clear()
        families.witt_pq_coefficient.cache_clear()
        assert cli.run_suite("witt", 4).ok
        assert set(calls) >= set(range(-4, 5))
        assert max(calls.values()) == 1, calls
        calls.clear()
        assert cli.run_suite("witt", 4).ok
        assert not calls

    def test_virasoro_suite_computes_each_index_once(self, monkeypatch):
        """The Virasoro cocycle reads W_{p,q}'s [n]/p^n: each index is
        computed once over two runs, for the algebra and the cocycle
        together."""
        calls = Counter()

        def counting(a, b, n):
            calls[n] += 1
            return pq_number_of(a, b, n)

        monkeypatch.setattr(families, "pq_number_of", counting)
        families.witt_pq.cache_clear()
        families.witt_pq_coefficient.cache_clear()
        for _ in range(2):
            assert cli.run_suite("virasoro", 6).ok
        # [n-1], [n], [n+1] of the cocycle at |n| <= 6
        assert set(calls) == set(range(-7, 8))
        assert max(calls.values()) == 1, calls


FAMILY_CONSTRUCTORS = [
    witt_pq, witt_r, witt_pq_forced, classical_witt, sigma_sigma_witt,
    sigma_sigma_witt_forced, sl2_pq, sl2_r, sl2_pp, classical_sl2, sl2_pp_forced,
    inverse_twist_example,
]


class TestOneInstancePerFamily:
    """Each family is built once per process; the shared instance must
    carry no state from one run to the next."""

    @pytest.mark.parametrize("family", FAMILY_CONSTRUCTORS, ids=lambda f: f.__name__)
    def test_one_instance(self, family):
        assert family() is family()

    def test_a_perturbation_leaves_the_family_alone(self):
        closed = Combo.basis(3, pq_number_of(P, Q, 1) / P - pq_number_of(P, Q, 2) / P ** 2)
        assert witt_pq().bracket_gen(1, 2) == closed
        broken = perturb_algebra(witt_pq(), (1, 2), Combo.basis(3))
        assert not verify_hom_jacobi(broken, index_triples(2)).ok
        assert witt_pq().bracket_gen(1, 2) == closed
        assert verify_hom_jacobi(witt_pq(), index_triples(2)).ok

    def test_diagram_after_verify_all_matches_a_fresh_process(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        code = ("import json; from homlie.cli import run_suite; "
                "print(json.dumps(run_suite('diagram', 4).to_dict()))")
        fresh = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "all", "--window", "4"]) == 0
        after = json.dumps(cli.run_suite("diagram", 4).to_dict())
        assert fresh.stdout == after + "\n"


class TestStructureDataOnly:
    @pytest.mark.parametrize("family", [
        witt_pq, witt_r, witt_pq_forced, classical_witt, sigma_sigma_witt,
        sigma_sigma_witt_forced, sl2_pq, sl2_r, sl2_pp, sl2_pp_forced,
    ])
    def test_closed_form_families_build_no_context(self, monkeypatch, family):
        """A table given in closed form needs no derivation context; the
        suites take the context from ``witt_context`` or ``sl2_context``."""
        def forbidden(*args, **kwargs):
            raise AssertionError("a closed-form family built a derivation context")

        monkeypatch.setattr(families, "make_context", forbidden)
        alg = family()
        for i in alg.keys(1):
            alg.bracket_gen(i, i)


class TestPostComposed:
    @pytest.mark.parametrize("family", [witt_pq, sl2_pq])
    def test_equals_the_explicit_closures(self, family):
        alg = family()
        f = lambda combo: combo.map_scalars(lambda s: s * P + Q) - combo
        explicit = GradedAlgebra("explicit", lambda i, j: f(alg.bracket_gen(i, j)),
                                 lambda i: f(alg.twist_gen(i)), basis=alg.basis)
        got = alg.post_composed(f, "composed")
        assert got.name == "composed" and got.basis == alg.basis
        assert algebras_equal_on_window(got, explicit, 3) == (True, None)
        assert algebras_equal_on_window(got, alg, 3)[0] is False


class TestContextsBuiltOnce:
    def test_inverse_suite_makes_one_context(self, monkeypatch):
        calls = []
        real = families.make_context

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(families, "make_context", counting)
        families.inverse_twist_context.cache_clear()
        families.inverse_twist_example.cache_clear()
        assert cli.run_suite("inverse", 5).ok
        assert len(calls) == 1

