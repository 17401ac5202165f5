import itertools

import pytest

from helpers import (chain, comm, fresh, level_group,
                     reference_chief_refinement,
                     reference_chief_series, reference_induced_power_map,
                     reference_stretchings, relabel)

from residuap import catalog, filtration, groups
from residuap.filtration import (AlignmentError, Filtration,
                                 align_filtrations, central_p_step,
                                 chief_refinement,
                                 chief_series, classify_potency,
                                 dimension_series, induced_chain,
                                 is_stretching, lower_central_p_series,
                                 lower_central_series)
from residuap.groups import (CapExceeded, Homomorphism, Subgroup,
                             full_subgroup, identity_hom, subgroup_generated,
                             trivial_subgroup)


def test_gamma_p_examples():
    D8 = catalog.dihedral(4)
    F = lower_central_p_series(D8, 2)
    assert [len(t) for t in F.terms] == [8, 2, 1]
    assert F.length() == 2
    # abelian groups: gamma^p_n = p^(n-1) A
    A = catalog.abelian(4, 2)
    F = lower_central_p_series(A, 2)
    assert [len(t) for t in F.terms] == [8, 2, 1]
    A = catalog.cyclic(27)
    F = lower_central_p_series(A, 3)
    assert [len(t) for t in F.terms] == [27, 9, 3, 1]


def test_dimension_series_examples():
    C4 = catalog.cyclic(4)
    D = dimension_series(C4, 2)
    assert [len(t) for t in D.terms] == [4, 2, 1]
    with pytest.raises(ValueError):
        dimension_series(C4, 4)


@pytest.mark.parametrize("p", [2, 3])
def test_dimension_recursive_equals_lazard(p):
    # the equality is asserted inside dimension_series; run it on the catalog
    for G in catalog.property_suite(p):
        if G.order <= 64:
            dimension_series(G, p)


def test_chief_refinement():
    D8 = catalog.dihedral(4)
    Z = subgroup_generated(D8, [4])
    F = Filtration(D8, [full_subgroup(D8), Z, trivial_subgroup(D8)])
    C = chief_refinement(F)
    assert [len(t) for t in C.terms] == [8, 4, 2, 1]
    # all layers have order p and the refinement passes through Z
    assert any(t.elems == Z.elems for t in C.terms)
    C8 = catalog.cyclic(8)
    C = chief_refinement(Filtration(C8, [full_subgroup(C8),
                                         trivial_subgroup(C8)]))
    assert [len(t) for t in C.terms] == [8, 4, 2, 1]
    Cp = catalog.cyclic(3)
    F = Filtration(Cp, [full_subgroup(Cp), trivial_subgroup(Cp)])
    assert [len(t) for t in chief_refinement(F).terms] == [3, 1]
    with pytest.raises(ValueError):
        chief_refinement(Filtration(D8, [full_subgroup(D8),
                                         subgroup_generated(D8, [1]),
                                         trivial_subgroup(D8)], check=False))


def test_chief_refinement_of_p_group_is_central_p():
    for G in (catalog.dihedral(4), catalog.quaternion8(), catalog.heisenberg(3)):
        p = G.prime()
        F = Filtration(G, [full_subgroup(G), trivial_subgroup(G)])
        C = chief_refinement(F)
        assert C.is_central_p(p)
        for n in range(1, len(C.terms)):
            assert len(C.term(n)) // len(C.term(n + 1)) == p


def test_chief_series_counts():
    assert len(chief_series(catalog.dihedral(4))) == 3
    assert len(chief_series(catalog.quaternion8())) == 3
    assert len(chief_series(catalog.elementary_abelian(2, 3))) == 21
    assert len(chief_series(catalog.cyclic(16))) == 1


def _chief_groups():
    base = catalog.two_group_scan_list(16) + [catalog.heisenberg(3),
                                              catalog.c9_semi_c3()]
    return base + [relabel(G, seed) for seed, G in enumerate(base)]


@pytest.mark.parametrize("G", _chief_groups(), ids=lambda G: G.name)
def test_chief_series_matches_reference(G):
    got = [[t.elems for t in ser] for ser in chief_series(G)]
    want = [[t.elems for t in ser] for ser in reference_chief_series(G)]
    assert got == want


@pytest.mark.parametrize("G", [catalog.dihedral(4), catalog.quaternion8(),
                               catalog.abelian(4, 4), catalog.heisenberg(3)],
                         ids=lambda G: G.name)
def test_chief_refinement_matches_reference(G):
    F = lower_central_p_series(G, G.prime())
    assert [t.elems for t in chief_refinement(F).terms] == \
        reference_chief_refinement(F)


def test_chief_series_cap(monkeypatch):
    # the 315 chief series of C2^4 extend chains by normal subgroups of
    # 15 * 2 + 105 * 4 + 315 * 8 + 315 * 16 = 8010 elements in all
    G = catalog.elementary_abelian(2, 4)
    monkeypatch.setattr(groups, "SEARCH_STEP_CAP", 8010)
    assert len(chief_series(fresh(G, "C2^4~8010"))) == 315
    monkeypatch.setattr(groups, "SEARCH_STEP_CAP", 8009)
    with pytest.raises(CapExceeded,
                       match="^chief series search passed 8009 steps$"):
        chief_series(fresh(G, "C2^4~8009"))


def test_chief_series_is_kept_with_the_group():
    G = fresh(catalog.abelian(4, 2), "C4xC2~kept")
    first = chief_series(G)
    again = chief_series(G)
    want = [[t.elems for t in ser] for ser in reference_chief_series(G)]
    assert [[t.elems for t in ser] for ser in again] == want
    # every call returns a fresh list, so a caller cannot change the kept one
    assert again is not first
    first.clear()
    again.append(again[0])
    assert [[t.elems for t in ser] for ser in chief_series(G)] == want


@pytest.mark.parametrize("G", [catalog.elementary_abelian(2, 3),
                               catalog.elementary_abelian(2, 4)],
                         ids=lambda G: G.name)
def test_kept_chief_series_is_not_counted_again(G, monkeypatch):
    # a kept list was enumerated within the cap, so a later call hands it
    # out whatever the cap is now; a fresh enumeration is counted
    kept = fresh(G, G.name + "~kept")
    want = [[T.elems for T in ser] for ser in chief_series(kept)]
    monkeypatch.setattr(groups, "SEARCH_STEP_CAP", 0)
    assert [[T.elems for T in ser] for ser in chief_series(kept)] == want
    with pytest.raises(CapExceeded, match="^chief series search passed 0 steps$"):
        chief_series(fresh(G, G.name + "~fresh"))


def test_align_filtrations():
    C4, C2 = catalog.cyclic(4), catalog.cyclic(2)
    FG = chain(C4, [0, 2])
    FH = Filtration(C2, [full_subgroup(C2), trivial_subgroup(C2)])
    uG = Homomorphism(C2, C4, [0, 2])
    uH = identity_hom(C2)
    FGs, FHs = align_filtrations(FG, FH, uG, uH)
    assert induced_chain(FGs, uG) == induced_chain(FHs, uH)
    # identical filtrations come back equivalent
    FGs2, FHs2 = align_filtrations(FG, FG, identity_hom(C4),
                                   identity_hom(C4))
    assert {t.elems for t in FGs2.terms} == {t.elems for t in FG.terms}
    # non-equivalent induced chains must raise
    V = catalog.klein4()
    FV = chain(V, [0, 1])
    FV2 = chain(V, [0, 2])
    with pytest.raises(AlignmentError):
        align_filtrations(FV, FV2, identity_hom(V), identity_hom(V))


@pytest.mark.parametrize("lists", [
    ([0, 2, 4, 6], [0, 4]),
    ([0, 2, 4, 6], [0, 2, 4, 6], [0, 4], [0], [0]),
    (range(8), [0, 4]),
    (range(8), [0]),
], ids=["C8>C4>C2>1", "C8>C4=C4>C2>1=1", "C8=C8>C2>1", "C8=C8>1"])
def test_is_stretching_matches_reference(lists):
    """is_stretching agrees with the search for a strictly increasing iota
    with iota(1) = 1 on every chain of length 1-7 over the distinct terms
    of F, repeats in F included."""
    F = chain(catalog.cyclic(8), *lists)
    terms = [t.elems for t in F.terms]
    horizon = 7 + len(terms)
    want = reference_stretchings(terms, horizon)
    found = 0
    for length in range(1, 8):
        for c in itertools.product(dict.fromkeys(terms), repeat=length):
            padded = c + (c[-1],) * (horizon - length)
            assert is_stretching(c, F) == (padded in want), c
            found += padded in want
    assert found


def test_classify_potency_examples():
    C9 = catalog.cyclic(9)
    F = chain(C9, [0, 3, 6])
    rep = classify_potency(F, 3, 1)
    assert rep.strongly_p_potent and rep.uniformly_p_potent and rep.p_potent
    V = catalog.elementary_abelian(3, 2)
    F = Filtration(V, [full_subgroup(V), trivial_subgroup(V)])
    rep = classify_potency(F, 3, 1)
    assert not rep.p_potent
    assert rep.plain[0].kernel == tuple(range(9))      # power map kills all


def test_congruence_tower_is_uniformly_potent():
    # Z/p^k towers: the congruence chain of C_{p^k} at horizon k-2
    for (p, k) in ((3, 3), (2, 4)):
        G = catalog.cyclic(p ** k)
        terms = [full_subgroup(G)]
        for i in range(1, k):
            terms.append(subgroup_generated(G, [p ** i]))
        terms.append(trivial_subgroup(G))
        F = Filtration(G, terms)
        rep = classify_potency(F, p, k - 2)
        assert rep.uniformly_p_potent


def _potency_filtrations():
    """(F, p, horizon): the filtrations of the potency tests, plus gamma^p
    series of nonabelian groups, where x -> x^p is no morphism."""
    from residuap.congruence import sl2_congruence_tower
    out = [(chain(catalog.cyclic(9), [0, 3, 6]), 3, 2)]
    V = catalog.elementary_abelian(3, 2)
    out.append((Filtration(V, [full_subgroup(V), trivial_subgroup(V)]), 3, 1))
    for p, k in ((3, 3), (2, 4)):
        G = catalog.cyclic(p ** k)
        terms = [full_subgroup(G)] + [subgroup_generated(G, [p ** i])
                                      for i in range(1, k)]
        out.append((Filtration(G, terms + [trivial_subgroup(G)]), p, k - 1))
    tower = sl2_congruence_tower(3, 3)
    G1, elems = level_group(tower, 1)
    index = {m: i for i, m in enumerate(elems)}
    out.append((Filtration(G1, [Subgroup(G1, [index[m] for m in tower.levels[i]],
                                         check=False) for i in range(3)]), 3, 1))
    for G, p in ((catalog.dihedral(4), 2), (catalog.quaternion8(), 2),
                 (catalog.heisenberg(3), 3)):
        out.append((lower_central_p_series(G, p), p, 2))
    return out


def test_potency_levels_match_reference_power_map(monkeypatch):
    for F, p, horizon in _potency_filtrations():
        rep = classify_potency(F, p, horizon)
        with monkeypatch.context() as m:
            m.setattr(filtration, "_induced_power_map", reference_induced_power_map)
            want = classify_potency(F, p, horizon)
        assert (rep.plain, rep.strong) == (want.plain, want.strong)


def test_semidirect_sigma_decomposition():
    # Sigma(G) = Sigma(H) (Sigma(G) ^ B) for G = B x| H, with Sigma = gamma_n
    import numpy as np
    from residuap.groups import GroupAction, semidirect_product
    C3, C2 = catalog.cyclic(3), catalog.cyclic(2)
    inv = np.stack([np.arange(3), (-np.arange(3)) % 3])
    G, eB, eH = semidirect_product(C3, C2, GroupAction(C2, C3, inv))
    B = Subgroup(G, sorted(int(eB.map[i]) for i in range(3)))
    Hs = Subgroup(G, sorted(int(eH.map[i]) for i in range(2)))
    FG = lower_central_series(G)
    FH = lower_central_series(catalog.cyclic(2))
    for n in range(1, 4):
        sigma_G = FG.term(n)
        sigma_H_in_G = {int(eH.map[x])
                        for x in lower_central_series(C2).term(n).elems}
        rhs = subgroup_generated(G, sorted(sigma_H_in_G) +
                                 sorted(set(sigma_G.elems) & set(B.elems)))
        assert sigma_G.elems == rhs.elems


# -- paper-level property suites -------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_fastest_descent_gamma_p(p):
    # any central p-filtration constructed here lies above gamma^p
    for G in catalog.property_suite(p):
        if G.order > 32:
            continue
        gp = lower_central_p_series(G, p)
        F = chief_refinement(Filtration(G, [full_subgroup(G),
                                            trivial_subgroup(G)]))
        assert F.is_central_p(p)
        for n in range(1, max(len(gp.terms), len(F.terms)) + 1):
            assert set(gp.term(n).elems) <= set(F.term(n).elems)


@pytest.mark.parametrize("p", [2, 3])
def test_prop_lower_p(p):
    from residuap import kernels
    for G in catalog.property_suite(p):
        if G.order > 32:
            continue
        gp = lower_central_p_series(G, p)
        gamma = lower_central_series(G)
        L = len(gp.terms) + 1
        # (1) [gamma^p_m, gamma^p_n] <= gamma^p_{m+n}
        for m in range(1, L):
            for n in range(1, L):
                comm = kernels.commutators(G.mult, G.inv, gp.term(m).elems,
                                           gp.term(n).elems)
                assert set(comm) <= gp.term(m + n)._set
        # (2) gamma^p_n = gamma_1^{p^(n-1)} gamma_2^{p^(n-2)} ... gamma_n
        for n in range(1, L):
            gens = []
            for i in range(1, n + 1):
                gens += kernels.powers(G.mult, gamma.term(i).elems,
                                       p ** (n - i))
            assert subgroup_generated(G, gens).elems == gp.term(n).elems


@pytest.mark.parametrize("p", [2, 3])
def test_iterated_gamma_lemma(p):
    # gamma^p_m(F_n) <= F_{m+n-1} for central p-filtrations F
    for G in (catalog.dihedral(8), catalog.heisenberg(3), catalog.cyclic(16)):
        if not G.is_p_group(p):
            continue
        F = chief_refinement(Filtration(G, [full_subgroup(G),
                                            trivial_subgroup(G)]))
        for n in range(1, len(F.terms) + 1):
            Fn, to_parent, _ = F.term(n).as_group()
            sub_gp = lower_central_p_series(Fn, p)
            for m in range(1, len(sub_gp.terms) + 1):
                lifted = {to_parent[i] for i in sub_gp.term(m).elems}
                assert lifted <= set(F.term(m + n - 1).elems)


@pytest.mark.parametrize("p", [2, 3])
def test_hall_petrescu_congruences(p):
    for G in catalog.property_suite(p):
        gp = lower_central_p_series(G, p)
        for m in (1, 2, 3):
            mod = gp.term(m + 2)._set
            q = p ** m
            for x in range(G.order):
                for y in range(G.order):
                    lhs = G.power(G.mul(x, y), q)
                    rhs = G.mul(G.power(x, q), G.power(y, q))
                    if p == 2:
                        rhs = G.mul(rhs, G.power(comm(G, x, y), q // 2))
                    assert G.mul(G.inverse(rhs), lhs) in mod


@pytest.mark.parametrize("p", [2, 3])
def test_gamma_structure_surjectivity(p):
    # the product map Gamma_1 x ... x Gamma_n -> L^p_n(G) is onto
    from residuap import kernels
    for G in catalog.property_suite(p):
        if G.order > 32:
            continue
        gp = lower_central_p_series(G, p)
        gamma = lower_central_series(G)
        L = gp.length() or 1
        for n in range(1, L + 1):
            Ln, proj, to_parent = gp.layer(n)
            from_parent = {g: i for i, g in enumerate(to_parent)}
            # coset representatives of Gamma_i = gamma_i / gamma_i^p gamma_{i+1}
            reps = []
            for i in range(1, n + 1):
                gi = gamma.term(i)
                killer = subgroup_generated(
                    G, kernels.powers(G.mult, gi.elems, p)
                    + list(gamma.term(i + 1).elems))
                reps.append(sorted({min(G.mul(x, k) for k in killer.elems)
                                    for x in gi.elems}))
            hit = set()
            for combo in itertools.product(*reps):
                acc = 0
                for i, g in enumerate(combo, start=1):
                    acc = G.mul(acc, G.power(g, p ** (n - i)))
                assert acc in gp.term(n)
                hit.add(int(proj.map[from_parent[acc]]))
            assert len(hit) == Ln.order


@pytest.mark.parametrize("G", [catalog.elementary_abelian(2, 4),
                               catalog.dihedral(8), catalog.abelian(4, 4),
                               catalog.heisenberg(3), catalog.c9_semi_c3()],
                         ids=lambda G: G.name)
def test_kept_central_p_steps_equal_fresh_ones(G):
    R = relabel(G, seed=G.order + 7)
    terms = {T.elems: T for ser in chief_series(R) for T in ser}
    for elems, T in terms.items():
        for p in (2, 3):
            kept = central_p_step(R, T, p)
            # a group on the same table with nothing kept computes it afresh
            F = fresh(R, R.name + "~fresh")
            assert kept == central_p_step(F, Subgroup(F, elems, check=False), p)
            assert central_p_step(R, T, p) is kept


SERIES_SUITE = [(p, G) for p, bound in ((2, 64), (3, 81))
                for G in catalog.property_suite(p) if G.order <= bound]


@pytest.mark.parametrize("p,G", SERIES_SUITE,
                         ids=[f"{p}:{G.name}" for p, G in SERIES_SUITE])
def test_kept_dimension_series_equals_a_fresh_one(p, G, monkeypatch):
    """The series kept with a group, on each suite group and on a
    relabeling of it, has the terms that a new group on the same table
    computes; a second call builds nothing."""
    built = []
    lazard = filtration._lazard_series
    monkeypatch.setattr(filtration, "_lazard_series",
                        lambda *args: built.append(args[0]) or lazard(*args))
    for H in (G, relabel(G, seed=G.order + 11)):
        kept = dimension_series(H, p)
        assert all(T.parent is H for T in kept.terms)
        built.clear()
        assert dimension_series(H, p) is kept and built == []
        F = fresh(H, H.name + "~fresh")
        assert [T.elems for T in dimension_series(F, p).terms] == \
            [T.elems for T in kept.terms]
        assert built == [F]


def test_kept_dimension_series_still_checks_p():
    C4 = fresh(catalog.cyclic(4), "C4~kept")
    dimension_series(C4, 2)
    for p in (4, 3, 1):
        with pytest.raises(ValueError):
            dimension_series(C4, p)
