"""Acceptance suite: one test per exit criterion, exact equality throughout.

Every tolerance is exact identity in Q(p,q).  Each test prints one
pass/fail line; run with `pytest tests/test_acceptance.py -v` to see the
per-criterion outcomes.

Criterion 7 includes the generator-scaling map with f-coefficient
2p^2/(p+q).  Exact arithmetic shows that map fails bracket intertwining
at (e, f) by the factor (p+q)/(2p) (the correct scaling family has
a*b = p^2, realized by multiplication by p, which is verified to pass
here).  That sub-check is therefore expected to fail; the analysis is
recorded in the decisions ledger.
"""

import pytest

from homlie.algebra import Combo, algebras_equal_on_window
from homlie.bracket import (
    bracket_general,
    bracket_general_operator_oracle,
    index_triples,
    verify_hom_jacobi,
    verify_quasi_jacobi,
)
from homlie.cli import main as cli_main
from homlie.derivation import make_context
from homlie.extension import (
    CENTRAL,
    make_central_extension,
    verify_centrality,
    verify_cocycle_condition,
    virasoro_cocycle,
)
from homlie.families import (
    GeneratorMap,
    SL2_BASIS,
    SL2_COEFF,
    check_morphism,
    coefficient_of_d,
    forced_data,
    sigma_sigma_witt,
    sl2_context,
    sl2_expand,
    sl2_pq,
    sl2_r,
    solve_scale_isomorphism,
    subst_algebra,
    twist_algebra,
    witt_pq,
    witt_pq_forced,
    witt_r,
)
from homlie.laurent import Endo, LaurentPoly
from homlie.opcat import catalogue, seeded_corpus, verify_entry
from homlie.scalar import ONE, P, Q, Scalar, pq_number_of

t = LaurentPoly.t
two = Scalar.from_int(2)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")


@pytest.fixture(scope="module")
def witt_context():
    return make_context(Endo.dilation(P), Endo.dilation(Q))


@pytest.fixture(scope="module")
def inversion_context():
    return make_context(Endo.inversion(), Endo.dilation(Q))


def test_criterion_01_witt_structure_constants(witt_context):
    """[d_n, d_m] = ([n]/p^n - [m]/p^m) d_{n+m} for n, m in [-6, 6], with
    the operator-composition oracle cross-checked on t^j, j in [-8, 8]."""
    ctx = witt_context
    ok = True
    for n in range(-6, 7):
        for m in range(-6, 7):
            coeff = bracket_general(ctx, coefficient_of_d(n), coefficient_of_d(m))
            expected = pq_number_of(P, Q, n) / P ** n - pq_number_of(P, Q, m) / P ** m
            assert coeff == coefficient_of_d(n + m).scale(expected), (n, m)
            oracle = bracket_general_operator_oracle(
                ctx, coefficient_of_d(n), coefficient_of_d(m)
            )
            for j in range(-8, 9):
                tj = t(j)
                assert oracle(tj) == coeff * ctx.apply_generator(tj), (n, m, j)
    report("1", ok, "witt structure constants + operator oracle")


def test_criterion_02_quasi_jacobi(witt_context, inversion_context):
    """Six-term cyclic residue is identically zero for |n|,|m|,|k| <= 5 in
    both contexts; the inversion context has delta = -1."""
    assert inversion_context.delta == -LaurentPoly.one()
    for ctx in (witt_context, inversion_context):
        rep = verify_quasi_jacobi(ctx, index_triples(5))
        assert rep.ok, rep.first_failure().witness
    report("2", True, "quasi-Jacobi in (pt,qt) and (t^-1,qt) contexts")


def test_criterion_03_forced_bracket():
    """q-form equals p-form for |n|,|m| <= 8 and the forced deformation
    satisfies Hom-Jacobi with twist (p^n + q^n) d_n."""
    q_form, p_form = forced_data(P, Q, ONE).s, forced_data(Q, P, ONE).s
    for n in range(-8, 9):
        for m in range(-8, 9):
            assert q_form(n, m) == p_form(n, m), (n, m)
    alg = witt_pq_forced()
    for n in range(-5, 6):
        assert alg.twist_gen(n) == Combo.basis(n, P ** n + Q ** n)
    rep = verify_hom_jacobi(alg, index_triples(5))
    assert rep.ok, rep.first_failure().witness
    report("3", True, "forced bracket symmetry + Hom-Jacobi")


def test_criterion_04_twist_equivalence():
    """rho(d_n) = p^n d_n carries the general deformation onto the forced
    one, and the equal-parameter family onto (n-m) p^(n+m-1)."""
    rho = lambda n: Combo.basis(n, P ** n)
    twisted = twist_algebra(witt_pq(), rho, window=6)
    ok, why = algebras_equal_on_window(twisted, witt_pq_forced(), 6)
    assert ok, why

    twisted_pp = twist_algebra(sigma_sigma_witt("t-partial"), rho, window=6)
    for n in range(-6, 7):
        for m in range(-6, 7):
            expect = Combo.basis(n + m, Scalar.from_int(n - m) * P ** (n + m - 1))
            assert twisted_pp.bracket_gen(n, m) == expect, (n, m)
    report("4", True, "twist equivalences with rho(d_n) = p^n d_n")


def test_criterion_05_sl2():
    """The three-generator family from the partial-generator context:
    stated brackets, stated twists, closure with zero residue."""
    ctx = sl2_context()
    assert ctx.delta == LaurentPoly.from_scalar(Q / P)
    alg = sl2_pq()
    assert alg.bracket_gen("h", "e") == Combo.basis("e", two / P)
    assert alg.bracket_gen("h", "f") == Combo.basis("f", -(two * Q) / P ** 2)
    assert alg.bracket_gen("e", "f") == Combo.basis("h", (P + Q) / (two * P ** 2))
    r = Q / P
    assert alg.twist_gen("e") == Combo.basis("e", ONE + r)
    assert alg.twist_gen("f") == Combo.basis("f", r * (ONE + r))
    assert alg.twist_gen("h") == Combo.basis("h", two * r)
    # closure: operator-route brackets expand over {e,f,h} with no residue
    for x in SL2_BASIS:
        for y in SL2_BASIS:
            w = bracket_general(ctx, SL2_COEFF[x], SL2_COEFF[y])
            assert sl2_expand(w) == alg.bracket_gen(x, y), (x, y)
    report("5", True, "sl(2) deformation table, twists and closure")


def test_criterion_06_delta_values(witt_context, inversion_context):
    """delta = 1 for (pt, qt, p-q); q/p for the t(p-q) generator; -1 for
    (t^-1, qt)."""
    assert witt_context.delta == LaurentPoly.one()
    assert sl2_context().delta == LaurentPoly.from_scalar(Q / P)
    assert inversion_context.delta == -LaurentPoly.one()
    report("6", True, "delta values for the three contexts")


def test_criterion_07_isomorphisms_and_solver():
    """Multiplication by p intertwines the one-parameter and two-parameter
    deformations; the solver reports the family c_n = c_1^n / p^(n-1) and
    Infeasible (only consistent at p = 1) for general-vs-forced."""
    rep = check_morphism(lambda n: Combo.basis(n, P), witt_r(), witt_pq(), 6)
    assert rep.data["full"], rep.first_failure().witness

    sols = solve_scale_isomorphism(witt_r(), witt_pq(), window=6, nu_candidates=(1,))
    sol = sols[1]
    assert sol.feasible and sol.free_symbols == ["c_1"]
    for n in range(-6, 7):
        term = sol.family[n]
        assert term.exps == ({} if n == 0 else {"c_1": n})
        assert term.mu == P ** (1 - n)

    bad = solve_scale_isomorphism(witt_pq(), witt_pq_forced(), window=6,
                                  nu_candidates=(1,))[1]
    assert not bad.feasible and bad.witness is not None
    first, second = bad.witness
    assert "c_0" in first.text and "c_0" in second.text
    residual = bad.witness_residual
    assert residual is not None
    assert residual != ONE                      # contradictory for generic p
    assert residual.subst(ONE, Q) == ONE        # consistent exactly at p = 1
    report("7", True, "scale morphism, solver family, infeasibility witness")


def test_criterion_07_sl2_scaling_as_stated():
    """The generator scaling (pe, 2p^2/(p+q) f, ph) between the
    one-parameter and two-parameter three-generator families.

    Exact arithmetic refutes this map: on the pair (e, f) it multiplies
    the two sides by different scalars, off by (p+q)/(2p).  The correct
    scaling family satisfies a*b = p^2 with c = p (see the companion test
    below and the decisions ledger).  This check is kept as stated and is
    expected to fail.
    """
    phi = GeneratorMap({
        "e": Combo.basis("e", P),
        "f": Combo.basis("f", (two * P ** 2) / (P + Q)),
        "h": Combo.basis("h", P),
    })
    rep = check_morphism(phi, sl2_r(), sl2_pq(), 4)
    report("7-sl2-as-stated", rep.data["full"], "scaling with f-coefficient 2p^2/(p+q)")
    assert rep.data["full"], rep.first_failure().witness


def test_criterion_07_sl2_corrected_scaling():
    """The scaling family that does intertwine the three-generator
    deformations: c = p on h, and a*b = p^2 on (e, f); multiplication by
    p is the symmetric member."""
    for a, b in ((P, P), (P ** 2, ONE), (two * P, P / two)):
        phi = GeneratorMap({
            "e": Combo.basis("e", a),
            "f": Combo.basis("f", b),
            "h": Combo.basis("h", P),
        })
        rep = check_morphism(phi, sl2_r(), sl2_pq(), 4)
        assert rep.data["full"], (str(a), str(b))
    report("7-sl2-corrected", True, "scaling family a*b = p^2, c = p")


def test_criterion_08_virasoro(witt_context):
    """The cocycle satisfies the twisted 2-cocycle condition on all
    zero-sum triples with |n|,|m|,|k| <= 6; the extension is central and
    Hom-Jacobi."""
    g = virasoro_cocycle()
    base = witt_pq()
    rep = verify_cocycle_condition(g, base, window=6)
    assert rep.ok, rep.first_failure().witness

    ext = make_central_extension(base, g, window=6)
    cent = verify_centrality(ext, window=6)
    assert cent.ok, cent.first_failure().witness
    keys = list(range(-4, 5)) + [CENTRAL]
    jac = verify_hom_jacobi(ext, [(i, j, k) for i in keys for j in keys for k in keys])
    assert jac.ok, jac.first_failure().witness
    report("8", True, "cocycle condition, centrality, extended Hom-Jacobi")


def test_criterion_09_degenerations():
    """p = 1 turns the structure constants into q-deformed integers;
    p = q = 1 gives the classical ones; the three-generator family at
    (1,1) is the classical table."""
    w = witt_pq()
    w1 = subst_algebra(w, ONE, Q, "p=1")
    for n in range(-6, 7):
        for m in range(-6, 7):
            q_form = pq_number_of(ONE, Q, n) - pq_number_of(ONE, Q, m)
            assert w1.bracket_gen(n, m) == Combo.basis(n + m, q_form), (n, m)
            assert w.bracket_gen(n, m).coeff(n + m).specialize(1, 1) == n - m, (n, m)

    s = sl2_pq()
    assert s.bracket_gen("h", "e").coeff("e").specialize(1, 1) == 2
    assert s.bracket_gen("h", "f").coeff("f").specialize(1, 1) == -2
    assert s.bracket_gen("e", "f").coeff("h").specialize(1, 1) == 1
    for x in SL2_BASIS:
        assert s.twist_gen(x).coeff(x).specialize(1, 1) == 2
    report("9", True, "p=1 and p=q=1 degenerations")


def test_criterion_10_catalogue():
    """All eight operator rows satisfy their stated product rules on 100
    random polynomial pairs of degree <= 6, exactly."""
    rows = catalogue()
    assert len(rows) == 8
    corpus = seeded_corpus(100)
    for entry in rows:
        rep = verify_entry(entry, corpus)
        assert rep.ok, f"{entry.name}: {rep.first_failure().witness}"
    report("10", True, "eight product rules on 100 random pairs each")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "--window", "3", "--perturb", "witt:1,2"),
        ("verify", "witt-forced", "--window", "3", "--perturb", "witt-forced:2,-1"),
        ("verify", "sl2", "--window", "3", "--perturb", "sl2:h,e"),
        ("verify", "sigma-sigma", "--window", "3", "--perturb", "sigma-sigma:1,0"),
        ("verify", "inverse", "--window", "3", "--perturb", "inverse:2,0"),
        ("verify", "virasoro", "--window", "4", "--perturb", "virasoro:3"),
    ],
    ids=["all-witt", "forced", "sl2", "sigma-sigma", "inverse", "virasoro"],
)
def test_criterion_11_fault_injection(argv, capsys, tmp_path):
    """A single perturbed structure constant or cocycle value flips the
    exit code to nonzero and produces a witness."""
    path = tmp_path / "out.json"
    code = cli_main(list(argv) + ["--json", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "witness" in out
    report("11", True, f"fault {argv[-3]} rejected with witness")


def test_criterion_11_clean_run_is_green(capsys, tmp_path):
    path = tmp_path / "clean.json"
    code = cli_main(["verify", "all", "--window", "3", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    report("11", True, "unperturbed verify all exits zero")
