import itertools
import random

import pytest

from residuap import catalog, kernels
from residuap.groups import (CapExceeded, FiniteGroup, GroupAction,
                             Homomorphism, Subgroup, abelian_invariants,
                             amalgamated_sum,
                             all_subgroups, automorphism_search,
                             automorphisms, direct_product,
                             find_isomorphism, full_subgroup,
                             generating_sequence, is_isomorphic, normal_closure,
                             permutation_closure, permutation_group, quotient,
                             right_coset_reps, semidirect_product,
                             subgroup_generated, trivial_subgroup)

import numpy as np

from helpers import (forbid_tables_above_cap, fresh, reference_as_group_table,
                     reference_automorphisms, reference_isomorphism,
                     reference_quotient, relabel)

from residuap import groups
from residuap.filtration import chief_series
from residuap.smith import Presentation, smith_abelianization


CATALOG_NAMES = ["C4", "C8", "C2^3", "D8", "Q8", "D16", "SD16", "Heis27",
                 "C9:C3", "C4xC2"]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_tables_are_groups(name):
    G = catalog.by_name(name)
    # validation is exhaustive for these orders
    FiniteGroup(G.mult, validate=True)
    assert G.mul(0, 1) == 1 and G.mul(1, 0) == 1


@pytest.mark.parametrize("name", ["C100000", "C2^13", "C2^14", "C64xC128",
                                  "C2^1000000000"])
def test_catalog_refuses_orders_above_the_cap(monkeypatch, name):
    # the order is read from the name, so no table is built
    forbid_tables_above_cap(monkeypatch)
    with pytest.raises(CapExceeded, match="exceeds order cap 4096"):
        catalog.by_name(name)


@pytest.mark.parametrize("name", ["C2^0", "C3^-1", "C1^5"])
def test_catalog_refuses_powers_of_rank_below_1_or_p_below_2(name):
    with pytest.raises(ValueError, match="needs p >= 2 and r >= 1"):
        catalog.by_name(name)


def test_subgroup_generated_examples():
    C4 = catalog.cyclic(4)
    assert subgroup_generated(C4, [2]).elems == (0, 2)
    D8 = catalog.dihedral(4)
    rot = subgroup_generated(D8, [2])      # r has index 2
    assert len(rot) == 4
    assert subgroup_generated(D8, []).elems == (0,)
    with pytest.raises(ValueError):
        subgroup_generated(C4, [9])


def test_normal_closure_examples():
    D8 = catalog.dihedral(4)
    s = 1
    assert len(normal_closure(D8, [s])) == 4
    A = catalog.abelian(4, 2)
    for gens in ([1], [2], [1, 2]):
        assert normal_closure(A, gens).elems == subgroup_generated(A, gens).elems
    assert normal_closure(D8, [0]).elems == (0,)


def test_quotient_examples():
    C4 = catalog.cyclic(4)
    Q, proj = quotient(C4, subgroup_generated(C4, [2]))
    assert Q.order == 2
    Q, proj = quotient(C4, full_subgroup(C4))
    assert Q.order == 1
    # preimage of the trivial subgroup is the kernel
    D8 = catalog.dihedral(4)
    Z = subgroup_generated(D8, [4])
    Q, proj = quotient(D8, Z)
    assert proj.preimage(trivial_subgroup(Q)).elems == Z.elems
    with pytest.raises(ValueError):
        quotient(D8, subgroup_generated(D8, [1]))  # reflection: not normal


def test_quotient_of_sl2z4_by_mod2_kernel():
    from residuap.congruence import sl2_congruence_tower
    tower = sl2_congruence_tower(2, 2)
    G, elems = tower.full.as_finite_group()
    k1 = Subgroup(G, [elems.index(m) for m in tower.levels[0]])
    assert G.order == 48 and len(k1) == 8
    Q, _ = quotient(G, k1)
    assert Q.order == 6
    assert not Q.is_abelian     # SL(2, Z/2) is symmetric on 3 letters


def _assert_retraction(G, emb, coordinate):
    """emb o coordinate is a homomorphism G -> G onto the image of emb that
    fixes that image: a retraction."""
    r = Homomorphism(G, G, emb.map[coordinate])        # checked
    assert r.image().elems == tuple(sorted(emb.map.tolist()))
    assert all(r(x) == x for x in emb.map.tolist())


def test_products_and_retracts():
    C3, C2 = catalog.cyclic(3), catalog.cyclic(2)
    inv = np.stack([np.arange(3), (-np.arange(3)) % 3])
    S3, eB, eH = semidirect_product(C3, C2, GroupAction(C2, C3, inv))
    assert S3.order == 6 and not S3.is_abelian
    # H is a retract of B x| H: (b, h), B-index major, goes to h
    _assert_retraction(S3, eH, np.arange(6) % 2)
    # C2 in C4 is not a retract: an endomorphism with image in C2 sends the
    # generator 1 to c in {0, 2}, hence 2 to c^2 = 0, not to itself
    C4 = catalog.cyclic(4)
    for c in subgroup_generated(C4, [2]).elems:
        r = Homomorphism(C4, C4, [C4.power(c, k) for k in range(4)])
        assert r(2) != 2
    # coordinate projection on a direct factor
    P, eG, eH2 = direct_product(C4, C2)
    _assert_retraction(P, eG, np.arange(8) // 2)


def _reference_direct_product_row(G, H, x):
    """Row x of G x H, each cell from the pair it indexes: (g1, h1)(g2, h2)
    = (g1 g2, h1 h2), with (g, h) at g |H| + h."""
    m = H.order
    g2, h2 = np.divmod(np.arange(G.order * m), m)
    return G.mult[x // m, g2] * m + H.mult[x % m, h2]


@pytest.mark.parametrize("G, H", [
    (catalog.cyclic(1), catalog.dihedral(4)),
    (catalog.semidihedral16(), catalog.cyclic(1)),
    (catalog.dihedral(4), catalog.quaternion8()),
    (catalog.cyclic(2048), catalog.cyclic(2)),
], ids=["1xD8", "SD16x1", "D8xQ8", "C2048xC2"])
def test_direct_product_matches_elementwise_reference(G, H):
    P, eG, eH = direct_product(G, H)
    n, m = G.order, H.order
    assert P.name == f"{G.name}x{H.name}" and P.mult.shape == (n * m, n * m)
    assert P.mult.dtype == np.int64 and P.mult.flags.c_contiguous
    for x in range(n * m):
        assert np.array_equal(P.mult[x], _reference_direct_product_row(G, H, x))
    assert eG.map.tolist() == [g * m for g in range(n)]
    assert eH.map.tolist() == list(range(m))


def test_products_refuse_orders_above_the_cap_before_allocating():
    # one ceiling for every table: 4098 > DEFAULT_ORDER_CAP = 4096
    C2, C2049 = catalog.cyclic(2), catalog.cyclic(2049)
    with pytest.raises(CapExceeded,
                       match="direct product of order 4098 is too large"):
        direct_product(C2, C2049)
    inv = GroupAction(C2, C2049, [np.arange(2049), -np.arange(2049) % 2049],
                      check=False)
    with pytest.raises(CapExceeded,
                       match="semidirect product of order 4098 is too large"):
        semidirect_product(C2049, C2, inv)


@pytest.mark.parametrize("seed", range(3))
def test_amalgamated_sum_matches_the_quotient_of_the_direct_product(seed):
    """The sum is (A x B) / <a b^-1> read off the table of A x B, which
    amalgamated_sum itself never builds: the same table, name and maps, and
    the same refusal when <a b^-1> is not normal."""
    rng = random.Random(seed)
    for _ in range(40):
        A, B = (catalog.by_name(rng.choice(CATALOG_NAMES)) for _ in "AB")
        pairs = [(rng.randrange(A.order), rng.randrange(B.order))
                 for _ in range(rng.randrange(4))]
        D, eA, eB = direct_product(A, B)
        K = subgroup_generated(D, [D.mul(eA(a), D.inverse(eB(b)))
                                   for a, b in pairs])
        if not K.is_normal():
            with pytest.raises(ValueError, match="subgroup is not normal"):
                amalgamated_sum(A, B, pairs)
            continue
        Q, proj = quotient(D, K)
        S, iA, iB = amalgamated_sum(A, B, pairs)
        assert S.name == Q.name and np.array_equal(S.mult, Q.mult)
        assert np.array_equal(iA.map, proj.compose(eA).map)
        assert np.array_equal(iB.map, proj.compose(eB).map)


def test_amalgamated_sum_is_capped_by_its_own_order():
    """Only the sum's table is bounded: C2^7 + C2^6 over C2 is of order
    4096 although C2^7 x C2^6 is of order 8192, while with nothing
    identified the sum is that direct product and is refused."""
    A, B = catalog.elementary_abelian(2, 7), catalog.elementary_abelian(2, 6)
    with pytest.raises(CapExceeded,
                       match="amalgamated sum of order 8192 is too large"):
        amalgamated_sum(A, B, [])
    S, iA, iB = amalgamated_sum(A, B, [(1, 1)])
    assert S.order == 4096 and iA(1) == iB(1)


def _reference_metacyclic(n, m, k):
    """<r, s | r^n, s^m, s r s^-1 = r^k> with r^i s^j at m i + j: moving
    s^j past r^c gives r^(c k^j) s^j, so r^i s^j r^c s^l is
    r^(i + c k^j) s^(j + l)."""
    table = np.empty((n * m, n * m), dtype=np.int64)
    for i, j, c, l in itertools.product(range(n), range(m), range(n),
                                        range(m)):
        table[m * i + j, m * c + l] = (m * ((i + c * k ** j) % n)
                                       + (j + l) % m)
    return table


def _reference_quaternion8():
    """Q8 from Hamilton's product on quaternions (a, b, c, d) = a + bi + cj
    + dk, with index 2u + s for the unit u in (1, i, j, k) and sign (-1)^s."""
    def ham(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    elems = [tuple((-1) ** s * int(t == u) for t in range(4))
             for u in range(4) for s in range(2)]
    return np.array([[elems.index(ham(x, y)) for y in elems] for x in elems])


@pytest.mark.parametrize("build, name, want", [
    *[(lambda n=n: catalog.dihedral(n), f"D{2 * n}",
       lambda n=n: _reference_metacyclic(n, 2, -1)) for n in range(1, 17)],
    (catalog.semidihedral16, "SD16", lambda: _reference_metacyclic(8, 2, 3)),
    (catalog.c9_semi_c3, "C9:C3", lambda: _reference_metacyclic(9, 3, 4)),
    (catalog.quaternion8, "Q8", _reference_quaternion8),
], ids=[f"D{2 * n}" for n in range(1, 17)] + ["SD16", "C9:C3", "Q8"])
def test_catalog_tables_match_their_defining_relations(build, name, want):
    G = build()
    table = want()
    kernels.validate_table(table)
    assert G.name == name and G.mult.dtype == np.int64
    assert G.mult.tobytes() == table.astype(np.int64).tobytes()


def test_order81_semidirect_is_p_group():
    G = catalog.c9_semi_c3()
    assert G.order == 27 and G.is_p_group(3)
    big, _, _ = direct_product(G, catalog.cyclic(3))
    assert big.order == 81 and big.is_p_group(3)


def test_automorphism_groups():
    V = catalog.klein4()
    A, act, _ = permutation_group(V, automorphisms(V))
    assert A.order == 6
    C5, C8 = catalog.cyclic(5), catalog.cyclic(8)
    Ap, _, _ = permutation_group(C5, automorphisms(C5))
    assert Ap.order == 4
    A8, _, _ = permutation_group(C8, automorphisms(C8))
    assert A8.order == 4 and A8.is_abelian and A8.exponent() == 2
    # the action really is by automorphisms
    for a in range(A.order):
        perm = act.perms[a]
        V = catalog.klein4()
        for x in range(4):
            for y in range(4):
                assert perm[V.mul(x, y)] == V.mul(int(perm[x]), int(perm[y]))


def test_isomorphism_search():
    assert is_isomorphic(catalog.dihedral(4), catalog.dihedral(4))
    assert not is_isomorphic(catalog.dihedral(4), catalog.quaternion8())
    assert not is_isomorphic(catalog.cyclic(8), catalog.abelian(4, 2))
    iso = find_isomorphism(catalog.cyclic(6), catalog.abelian(2, 3))
    assert iso is not None and iso.is_injective()


SEARCH_GROUPS = ([catalog.cyclic(n) for n in range(1, 9)]
                 + [catalog.klein4(), catalog.dihedral(3), catalog.abelian(4, 2),
                    catalog.elementary_abelian(2, 3), catalog.dihedral(4),
                    catalog.quaternion8()]
                 + [G for G in catalog.two_group_scan_list(16)
                    if G.order == 16 and G.name != "C2^4"])


def _same(found, expected) -> bool:
    if found is None or expected is None:
        return found is None and expected is None
    return np.array_equal(found.map, expected)


@pytest.mark.parametrize("G", SEARCH_GROUPS, ids=lambda G: f"{G.name}")
def test_search_matches_exhaustive_reference(G):
    """The backtracking search gives exactly the seed's exhaustive results:
    the same automorphism list and isomorphism, on catalog groups and seeded
    relabelings of them."""
    R = relabel(G, seed=G.order)
    assert [a.tolist() for a in automorphisms(R)] == \
        [a.tolist() for a in reference_automorphisms(R)]
    if G.order > 8:
        return
    small = [H for H in SEARCH_GROUPS if H.order <= 8]
    for H in [R] + [relabel(H, seed=7) for H in small if H.order == G.order]:
        assert _same(find_isomorphism(G, H), reference_isomorphism(G, H))
        assert _same(find_isomorphism(H, G), reference_isomorphism(H, G))


def test_automorphism_caps_still_raise(monkeypatch):
    G = relabel(catalog.dihedral(4), seed=3)
    n_aut = len(automorphisms(G))
    assert n_aut == 8
    volume = 1
    for g in generating_sequence(G):
        volume *= G.element_orders().count(G.element_orders()[g])
    monkeypatch.setattr(groups, "AUT_SEARCH_VOLUME_CAP", volume)
    assert len(automorphisms(G)) == n_aut
    monkeypatch.setattr(groups, "AUT_SEARCH_VOLUME_CAP", volume - 1)
    with pytest.raises(CapExceeded):
        automorphisms(G)
    monkeypatch.undo()
    monkeypatch.setattr(groups, "DEFAULT_AUT_SIZE_CAP", n_aut)
    assert len(automorphisms(G)) == n_aut
    monkeypatch.setattr(groups, "DEFAULT_AUT_SIZE_CAP", n_aut - 1)
    with pytest.raises(CapExceeded):
        automorphisms(G)
    monkeypatch.undo()
    monkeypatch.setattr(groups, "DEFAULT_AUT_CAP", 7)
    with pytest.raises(CapExceeded):
        automorphisms(G)


SEEDED_SEARCH_GROUPS = list({G.name: G for G in
                             catalog.property_suite(2) + catalog.property_suite(3)
                             + catalog.two_group_scan_list(16)
                             if G.order <= 32}.values())


def _seeded_partial_maps(G, auts, rng):
    """Partial maps {x: y} of G: restrictions of automorphisms to random
    subgroups (each extends), isomorphisms between random subgroups of one
    order found by find_isomorphism (some extend, some do not), single
    random pairs."""
    subs = all_subgroups(G)
    maps = []
    for _ in range(3):
        a, U = rng.choice(auts), rng.choice(subs)
        maps.append({x: int(a[x]) for x in U.elems})
        U = rng.choice(subs)
        S = rng.choice([S for S in subs if len(S) == len(U)])
        (UG, toU, _), (SG, toS, _) = U.as_group(), S.as_group()
        iso = find_isomorphism(UG, SG)
        if iso is not None:
            maps.append({toU[x]: toS[iso(x)] for x in range(UG.order)})
        maps.append({rng.randrange(G.order): rng.randrange(G.order)})
    return maps


@pytest.mark.parametrize("G", SEEDED_SEARCH_GROUPS, ids=lambda G: G.name)
def test_seeded_search_matches_filtered_automorphisms(G):
    """automorphism_search(G, fixed) yields exactly the automorphisms of
    automorphisms(G) that agree with fixed, in the same order; a group
    beyond the search volume is refused by both with one message."""
    try:
        auts = automorphisms(G)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded, match=str(exc)):
            next(automorphism_search(G, {0: 0}))
        return
    rng = random.Random(f"seeded-search:{G.name}")
    outcomes = set()
    for fixed in _seeded_partial_maps(G, auts, rng):
        got = [a.tolist() for a in automorphism_search(G, fixed)]
        want = [a.tolist() for a in auts
                if all(int(a[x]) == y for x, y in fixed.items())]
        assert got == want, fixed
        outcomes.add(bool(got))
    assert True in outcomes


def test_generating_sequence_is_kept_with_the_group():
    G = FiniteGroup(catalog.dihedral(8).mult.copy(), name="D16~kept")
    first = generating_sequence(G)
    assert subgroup_generated(G, first).elems == tuple(range(G.order))
    # every call returns a fresh list, so a caller cannot change the kept one
    first.append(5)
    again = generating_sequence(G)
    assert again is not first and again == first[:-1]
    again.clear()
    assert generating_sequence(G) == first[:-1]


@pytest.mark.parametrize("G", SEARCH_GROUPS + [catalog.elementary_abelian(2, 4)],
                         ids=lambda G: f"{G.name}")
def test_right_coset_reps_are_coset_minima(G):
    R = relabel(G, seed=G.order)
    for S in all_subgroups(R):
        rep = right_coset_reps(R, S.elems)
        assert rep == [min(R.mul(s, g) for s in S.elems) for g in range(R.order)]


def _assert_permutation_table(A, perms):
    FiniteGroup(A.mult, validate=True)
    assert np.array_equal(perms[0], np.arange(len(perms[0])))
    for i in range(A.order):
        for j in range(A.order):
            assert np.array_equal(perms[int(A.mult[i, j])], perms[i][perms[j]])


@pytest.mark.parametrize("G", [G for G in SEARCH_GROUPS if G.order <= 8],
                         ids=lambda G: f"{G.name}")
def test_automorphism_group_table(G):
    R = relabel(G, seed=5)
    A, act, _ = permutation_group(R, automorphisms(R))
    _assert_permutation_table(A, act.perms)


def test_permutation_group_of_a_closure():
    V = catalog.elementary_abelian(2, 3)
    auts = automorphisms(V)
    perms = permutation_closure(V, [auts[1], auts[-1]])
    A, act, index = permutation_group(V, perms)
    assert A.order == len(perms) and np.array_equal(act.perms, np.stack(perms))
    assert all(index[tuple(p.tolist())] == i for i, p in enumerate(perms))
    _assert_permutation_table(A, act.perms)


def test_abelian_invariants():
    assert abelian_invariants(catalog.cyclic(12)) == [12]
    assert abelian_invariants(catalog.abelian(4, 2)) == [2, 4]
    assert abelian_invariants(catalog.elementary_abelian(2, 3)) == [2, 2, 2]
    assert abelian_invariants(catalog.abelian(2, 4, 8)) == [2, 4, 8]
    assert abelian_invariants(catalog.cyclic(1)) == []
    assert abelian_invariants(catalog.abelian(6, 2)) == [2, 6]


@pytest.mark.parametrize("orders", [(6, 10, 15), (2, 3, 4, 5), (12, 18),
                                    (4, 6), (10, 10, 2), (9, 3, 3), (1, 3),
                                    (8, 12), (5, 25)],
                         ids=lambda t: "x".join(f"C{n}" for n in t))
def test_abelian_invariants_match_smith_form(orders):
    # the product of the C_n is presented by generators x_i and relators
    # x_i^n_i; its torsion is the list of invariant factors above 1
    pres = Presentation(len(orders), tuple((i + 1,) * n
                                           for i, n in enumerate(orders)))
    want = smith_abelianization(pres).torsion
    assert abelian_invariants(catalog.abelian(*orders)) == list(want)


def test_all_subgroups_counts():
    # classical counts: D8 has 10 subgroups, Q8 has 6, C2^3 has 16
    assert len(all_subgroups(catalog.dihedral(4))) == 10
    assert len(all_subgroups(catalog.quaternion8())) == 6
    assert len(all_subgroups(catalog.elementary_abelian(2, 3))) == 16


def test_all_subgroups_closes_one_element_per_coset(monkeypatch):
    """<S, x> depends only on the right coset S x, so each subgroup S found
    is extended by one element per coset: 240 closures on C2^4, where one
    per element outside S took 765.  The catalog group may already keep
    its list, so the enumeration runs on a fresh table."""
    G = fresh(catalog.elementary_abelian(2, 4), "C2^4~subgroups")
    closure, calls = groups.kernels.closure, []
    monkeypatch.setattr(groups.kernels, "closure",
                        lambda *args: calls.append(args) or closure(*args))
    assert len(all_subgroups(G)) == 67
    assert len(calls) == 240


def test_all_subgroups_is_kept_with_the_group(monkeypatch):
    G = fresh(catalog.dihedral(8), "D16~subgroups")
    first = all_subgroups(G)
    closure, calls = groups.kernels.closure, []
    monkeypatch.setattr(groups.kernels, "closure",
                        lambda *args: calls.append(args) or closure(*args))
    second = all_subgroups(G)
    assert calls == [] and second == first and second is not first
    # each call hands out a fresh list: changing one leaves the kept one
    second.clear()
    assert all_subgroups(G) == first and len(first) == 19


def test_copy_lists_its_own_subgroups(monkeypatch):
    G = fresh(catalog.elementary_abelian(2, 3), "C2^3~subgroups")
    subs = all_subgroups(G)
    H = G.copy("C2^3~subgroups'")
    closure, calls = groups.kernels.closure, []
    monkeypatch.setattr(groups.kernels, "closure",
                        lambda *args: calls.append(args) or closure(*args))
    # the copy does not take G's list, whose subgroups point at G
    assert H._subgroups is None
    copied = all_subgroups(H)
    assert calls and all(S.parent is H for S in copied)
    assert [S.elems for S in copied] == [S.elems for S in subs]
    assert all(S.parent is G for S in all_subgroups(G))


def test_lagrange_for_produced_subgroups():
    for name in CATALOG_NAMES:
        G = catalog.by_name(name)
        for S in all_subgroups(G):
            assert G.order % len(S) == 0


@pytest.mark.parametrize(
    "G", catalog.two_group_scan_list(16)
    + [catalog.heisenberg(3), catalog.c9_semi_c3(), catalog.cyclic(6)],
    ids=lambda G: G.name)
def test_as_group_and_quotient_tables_match_reference(G):
    # on the catalog table and on a relabeled one, whose subgroups have
    # other element tuples
    for K in (G, relabel(G, seed=G.order + 3)):
        for S in all_subgroups(K):
            U, to_parent, from_parent = S.as_group()
            want = reference_as_group_table(S)
            assert U.mult.dtype == want.dtype and \
                U.mult.tobytes() == want.tobytes()
            assert to_parent == list(S.elems)
            assert from_parent == {g: i for i, g in enumerate(S.elems)}
            if S.is_normal():
                Q, proj = quotient(K, S)
                table, pmap = reference_quotient(K, S)
                assert Q.mult.dtype == table.dtype and \
                    Q.mult.tobytes() == table.tobytes()
                assert proj.map.dtype == pmap.dtype and \
                    proj.map.tobytes() == pmap.tobytes()


def test_copy_builds_each_distinct_chief_term_once(monkeypatch):
    G = fresh(catalog.elementary_abelian(2, 4), "C2^4~copy")
    series = chief_series(G)
    distinct = {T.elems for ser in series for T in ser}
    assert (len(series), len(distinct)) == (315, 67)
    built = []
    init = groups.Subgroup.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Subgroup, "__init__", counted)
    H = G.copy("C2^4~copy'")
    assert len(built) == len(distinct)
    # one Subgroup per distinct term, shared by every series that holds it
    kept = {}
    for ser in chief_series(H):
        for T in ser:
            assert T.parent is H and kept.setdefault(T.elems, T) is T
    assert len(built) == len(distinct)
    assert [[T.elems for T in ser] for ser in chief_series(H)] == \
        [[T.elems for T in ser] for ser in series]
