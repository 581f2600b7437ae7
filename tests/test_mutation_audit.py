"""Mutation audit of the three cyclic checks: quasi-Jacobi, Hom-Jacobi and
the cocycle condition.

Each mutation changes one ingredient of a true identity: delta, sigma
tau^-1 or one monomial bracket of a derivation context; one structure
constant or one twist value of an algebra; one value of the Virasoro
cocycle.  A check that stays green on a mutation would pass a false
ingredient, so every mutation turns its check red, except those listed
in ``UNSEEN`` with the reason the check cannot see them; the reason is
tested too.  Each mutation that keeps the inner bracket skew is one the
sweep's transposition rule runs on.
"""

from dataclasses import replace

import pytest

from homlie import bracket
from homlie.algebra import Combo, GradedAlgebra, perturb_algebra
from homlie.bracket import bracket_general, index_triples, verify_hom_jacobi, verify_quasi_jacobi
from homlie.derivation import DerivationContext
from homlie.extension import verify_cocycle_condition, virasoro_cocycle
from homlie.families import (
    inverse_twist_context,
    inverse_twist_example,
    sl2_context,
    sl2_pq,
    witt_context,
    witt_pq,
    witt_pq_forced,
)
from homlie.laurent import Endo, LaurentPoly, apply_endo
from homlie.scalar import P

t = LaurentPoly.t

CONTEXTS = {"witt": witt_context, "sl2": sl2_context, "inversion": inverse_twist_context}


class Mutant(DerivationContext):
    """``ctx`` rebuilt with the derived values in ``wrong`` (delta or sigma
    tau^-1) fixed when it is built, in place of those its fields give."""

    def __init__(self, ctx, **wrong):
        super().__init__(ctx.tau, ctx.sigma, ctx.g)
        vars(self).update(wrong)


def with_table_entries(ctx, monkeypatch, *changes):
    """A fresh context equal to ``ctx``, with ``bracket_general`` on the
    monomials (t^a, t^b) changed by ``extra`` for each ((a, b), extra).
    Fresh, so that brackets cached in the generator algebra of ``ctx``
    cannot hide the change."""
    real = bracket.bracket_general

    def mutated(ctx, x, y):
        got = real(ctx, x, y)
        for (a, b), extra in changes:
            if (x, y) == (t(a), t(b)):
                got = got + extra
        return got

    monkeypatch.setattr(bracket, "bracket_general", mutated)
    return replace(ctx)


QUASI_JACOBI_MUTATIONS = {
    "delta + t": lambda ctx, mp: Mutant(ctx, delta=ctx.delta + t(1)),
    "2 delta": lambda ctx, mp: Mutant(ctx, delta=2 * ctx.delta),
    "p sigma tau^-1": lambda ctx, mp: Mutant(
        ctx, sigma_tau_inv=Endo(ctx.sigma_tau_inv.c * P, ctx.sigma_tau_inv.k)),
    "one table entry": lambda ctx, mp: with_table_entries(ctx, mp, ((1, 2), t(3))),
    "one skew pair of entries": lambda ctx, mp: with_table_entries(
        ctx, mp, ((1, 2), t(3)), ((2, 1), -t(3))),
}

# (check, subject, mutation) -> why the check cannot see it
UNSEEN = {
    ("quasi-jacobi", "inversion", "delta + t"):
        "both groups vanish separately on every triple, so delta multiplies zero",
    ("quasi-jacobi", "inversion", "2 delta"):
        "both groups vanish separately on every triple, so delta multiplies zero",
    ("hom-jacobi", "sl2_pq", "one skew pair of structure constants"):
        "every residue is affine in the multiple of h that [e, f] = -[f, e] is, and "
        "vanishes at 0 and at the table's value, so at every multiple",
}


def twist_perturbed(alg: GradedAlgebra, at, delta: Combo) -> GradedAlgebra:
    """A copy of ``alg`` with ``delta`` added to the single twist value at
    ``at``."""
    return GradedAlgebra(f"{alg.name}[twist@{at}]", alg.bracket_gen,
                         lambda i: alg.twist_gen(i) + delta if i == at else alg.twist_gen(i),
                         basis=alg.basis)


def bump(alg, at):
    """The basis element a fault at the structure constant ``at`` adds."""
    return Combo.basis(next(iter(alg.bracket_gen(*at).terms), at[0]))


# family -> (algebra, a structure constant, a twist value)
FAMILIES = {
    "W_pq": (witt_pq, (1, 2), 1),
    "W_pq-forced": (witt_pq_forced, (1, 2), 1),
    "sl2_pq": (sl2_pq, ("e", "f"), "e"),
    "W-inv": (inverse_twist_example, (1, 2), 1),
}

HOM_JACOBI_MUTATIONS = {
    "one structure constant": lambda alg, at, key: perturb_algebra(alg, at, bump(alg, at)),
    "one skew pair of structure constants": lambda alg, at, key: perturb_algebra(
        perturb_algebra(alg, at, bump(alg, at)), at[::-1], -bump(alg, at)),
    "one twist value": lambda alg, at, key: twist_perturbed(alg, key, Combo.basis(key)),
}


def window_triples(alg):
    keys = alg.keys(2)
    return [(x, y, z) for x in keys for y in keys for z in keys]


def seen_cases(check, subjects, mutations):
    return [(s, m) for s in subjects for m in mutations if (check, s, m) not in UNSEEN]


@pytest.mark.parametrize("name,mutation",
                         seen_cases("quasi-jacobi", CONTEXTS, QUASI_JACOBI_MUTATIONS))
def test_quasi_jacobi_sees(name, mutation, monkeypatch):
    ctx = CONTEXTS[name]()
    assert verify_quasi_jacobi(ctx, index_triples(2)).ok
    mutated = QUASI_JACOBI_MUTATIONS[mutation](ctx, monkeypatch)
    assert not verify_quasi_jacobi(mutated, index_triples(2)).ok


@pytest.mark.parametrize("family,mutation",
                         seen_cases("hom-jacobi", FAMILIES, HOM_JACOBI_MUTATIONS))
def test_hom_jacobi_sees(family, mutation):
    make, at, key = FAMILIES[family]
    alg = make()
    assert verify_hom_jacobi(alg, window_triples(alg)).ok
    mutated = HOM_JACOBI_MUTATIONS[mutation](alg, at, key)
    assert not verify_hom_jacobi(mutated, window_triples(alg)).ok


@pytest.mark.parametrize("at,entries", [((3, -3), 37), ((1, 2), 7 ** 3)],
                         ids=["n+m=0", "n+m!=0"])
def test_cocycle_condition_sees(at, entries):
    """g at (3, -3) keeps the sweep on n + m + k = 0; a value off n + m = 0
    forces the full cube of the window."""
    assert verify_cocycle_condition(virasoro_cocycle(), witt_pq(), window=3).ok
    rep = verify_cocycle_condition(virasoro_cocycle().perturbed(at, P), witt_pq(), window=3)
    assert not rep.ok
    assert len(rep.entries) == entries


@pytest.mark.parametrize("case", UNSEEN, ids="/".join)
def test_unseen_mutation_stays_green(case, monkeypatch):
    check, name, mutation = case
    if check == "quasi-jacobi":
        mutated = QUASI_JACOBI_MUTATIONS[mutation](CONTEXTS[name](), monkeypatch)
        assert verify_quasi_jacobi(mutated, index_triples(2)).ok
    else:
        make, at, key = FAMILIES[name]
        mutated = HOM_JACOBI_MUTATIONS[mutation](make(), at, key)
        assert verify_hom_jacobi(mutated, window_triples(mutated)).ok


def test_unseen_reason_groups_vanish_separately():
    """On the inversion context, cyc [sigma tau^-1(x), [y, z]] and
    cyc [x, [y, z]] are each zero on every triple, computed afresh through
    ``bracket_general`` on -t^n; the quasi-Jacobi sum is the first plus
    delta times the second, whatever delta is."""
    ctx = inverse_twist_context()
    for a, b, c in index_triples(2):
        x, y, z = -t(a), -t(b), -t(c)
        group1 = group2 = LaurentPoly.zero()
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            inner = bracket_general(ctx, v, w)
            group1 = group1 + bracket_general(ctx, apply_endo(ctx.sigma_tau_inv, u), inner)
            group2 = group2 + bracket_general(ctx, u, inner)
        assert group1.is_zero() and group2.is_zero(), (a, b, c)


def test_unseen_reason_sl2_residues_vanish_without_e_f():
    """No rotation term [alpha(x), [y, z]] of sl(2)_{p,q} reads [e, f] in
    both brackets: alpha is diagonal, [e, f] is a multiple of h, and
    [y, z] is a multiple of e or f only for {y, z} = {e, h} or {f, h}.
    So each residue is affine in the multiple of h that [e, f] is.  It
    vanishes at the table's value and, with [e, f] and [f, e] set to
    zero, at 0."""
    alg = sl2_pq()
    assert all(len(alg.twist_gen(x).terms) == 1 and x in alg.twist_gen(x).terms for x in "efh")
    assert list(alg.bracket_gen("e", "f").terms) == ["h"]
    without = perturb_algebra(perturb_algebra(alg, ("e", "f"), -alg.bracket_gen("e", "f")),
                              ("f", "e"), -alg.bracket_gen("f", "e"))
    assert without.bracket_gen("e", "f").is_zero() and without.bracket_gen("f", "e").is_zero()
    assert verify_hom_jacobi(without, window_triples(without)).ok
