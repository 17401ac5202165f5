import itertools
import random

import numpy as np
import pytest

from helpers import (ELAB_SHAPES, ReferenceElabSpace, c4_amalgam, chain,
                     elab_elem, elab_group, fresh, reference_all_subspaces,
                     reference_amalgam_scan, reference_chief_trace,
                     reference_feasible_witness, reference_flag_extend,
                     reference_flag_perms, reference_predicted_higman_order,
                     random_partial_automorphism,
                     random_restricted_automorphism,
                     reference_stabilizer_choice, seeded_partial_automorphisms,
                     relabel)

from residuap import catalog, embed, groups
from residuap.embed import (Amalgam, ElabSpace, PartialAutomorphism,
                            _central_p_subchains,
                            _hyperplanes,
                            _chain_tracer, amalgam_embeddable, amalgam_scan,
                            feasible_witness, fiber_sum, higman_embed,
                            inner_extension,
                            layerwise_inner_extension, mapping_torus_check,
                            predicted_higman_order, scan_amalgam_object,
                            unipotent_flag_extend, verify_higman)
from residuap.filtration import (AlignmentError, Filtration, chief_series,
                                 lower_central_p_series)
from residuap.groups import (DEFAULT_ORDER_CAP, CapExceeded, Homomorphism,
                             Subgroup, abelian_invariants, all_subgroups,
                             automorphisms, direct_product, full_subgroup,
                             identity_hom, is_isomorphic, subgroup_generated,
                             trivial_subgroup)
from residuap.results import NO, UNKNOWN, YES, Decision


def total_pa(V, sp, mat):
    p = sp.p
    mapping = {}
    for g in range(V.order):
        vec = sp.vec(g)
        img = tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) % p
                    for i in range(len(vec)))
        mapping[g] = elab_elem(sp, img)
    return PartialAutomorphism(V, full_subgroup(V), full_subgroup(V), mapping)


# -- fiber sums --------------------------------------------------------------------

def test_fiber_sum_c4_c4_over_c2():
    C4 = catalog.cyclic(4)
    C4b = fresh(C4, "C4b")
    C2 = catalog.cyclic(2)
    S, iA, iB = fiber_sum(C4, C4b, Homomorphism(C2, C4, [0, 2]),
                          Homomorphism(C2, C4b, [0, 2]))
    assert S.order == 8
    assert abelian_invariants(S) == [2, 4]


def test_fiber_sum_elementary_abelian():
    V = catalog.elementary_abelian(3, 2)
    Vb = fresh(V, "Vb")
    C3 = catalog.cyclic(3)
    S, iA, iB = fiber_sum(V, Vb, Homomorphism(C3, V, [0, 1, 2]),
                          Homomorphism(C3, Vb, [0, 1, 2]))
    assert S.order == 27 and S.exponent() == 3


def test_fiber_sum_trivial_u():
    A, B = catalog.cyclic(2), fresh(catalog.cyclic(2), "B")
    triv = catalog.cyclic(1)
    S, iA, iB = fiber_sum(A, B, Homomorphism(triv, A, [0]),
                          Homomorphism(triv, B, [0]))
    assert S.order == 4


def test_fiber_sum_rejects_nonabelian():
    D8 = catalog.dihedral(4)
    triv = catalog.cyclic(1)
    with pytest.raises(ValueError):
        fiber_sum(D8, D8, Homomorphism(triv, D8, [0]),
                  Homomorphism(triv, D8, [0]))


# -- the amalgamation tower ----------------------------------------------------------

def test_higman_canonical_c4_example():
    am, FG, FH = c4_amalgam()
    assert predicted_higman_order(am, FG, FH) == 64
    res = higman_embed(am, FG, FH)           # verify=True re-checks everything
    assert res.embedding.W.order == 64
    assert is_isomorphic(
        res.embedding.W,
        __import__("residuap.algebra", fromlist=["wreath"]).wreath(
            catalog.cyclic(2), catalog.klein4()).group)
    # FW pulls back to stretchings of C4 > C2 > 1, which are none of C4 > 1
    with pytest.raises(AssertionError, match=r"\(A1\) fails on G"):
        verify_higman(am, chain(am.G), FH, res, 2)
    with pytest.raises(AssertionError, match=r"\(A1\) fails on H"):
        verify_higman(am, FG, chain(am.H), res, 2)


def test_higman_base_case_is_fiber_sum():
    V = catalog.elementary_abelian(2, 2)
    Vb = fresh(V, "Vb")
    C2 = catalog.cyclic(2)
    am = Amalgam(V, Vb, C2, Homomorphism(C2, V, [0, 1]),
                 Homomorphism(C2, Vb, [0, 1]))
    FG = Filtration(V, [full_subgroup(V), trivial_subgroup(V)])
    FH = Filtration(Vb, [full_subgroup(Vb), trivial_subgroup(Vb)])
    res = higman_embed(am, FG, FH)
    assert res.embedding.W.order == 8
    # FW = [W, 1] pulls back to V > 1, whose run of V is shorter than the
    # one of V = V > 1
    assert [len(t) for t in res.FW.terms] == [8, 1]
    with pytest.raises(AssertionError, match=r"\(A1\) fails on G"):
        verify_higman(am, chain(V, range(4)), FH, res, 2)


def test_higman_identical_amalgam():
    am, FG, FH = c4_amalgam()
    C4 = am.G
    ident = Amalgam(am.G, am.H, am.G, identity_hom(am.G),
                    Homomorphism(am.G, am.H, [0, 1, 2, 3]))
    res = higman_embed(ident, FG, FH)
    assert res.embedding.W.order == 4


def test_higman_cap_refusal_reports_size():
    C8 = catalog.cyclic(8)
    C8b = fresh(C8, "C8b")
    C4 = catalog.cyclic(4)
    am = Amalgam(C8, C8b, C4, Homomorphism(C4, C8, [0, 2, 4, 6]),
                 Homomorphism(C4, C8b, [0, 2, 4, 6]))
    FG = chain(C8, [0, 2, 4, 6], [0, 4])
    FH = chain(C8b, [0, 2, 4, 6], [0, 4])
    pred = predicted_higman_order(am, FG, FH)
    assert pred > 4096
    with pytest.raises(CapExceeded):
        higman_embed(am, FG, FH)


def test_higman_rejects_non_central_filtrations():
    am, FG, FH = c4_amalgam()
    bad = Filtration(am.G, [full_subgroup(am.G), trivial_subgroup(am.G)])
    with pytest.raises(ValueError):
        higman_embed(am, bad, FH)


# -- chief-filtration search -----------------------------------------------------------

def test_amalgam_embeddable_witness():
    C4, V4, C2 = catalog.cyclic(4), catalog.klein4(), catalog.cyclic(2)
    am = Amalgam(C4, V4, C2, Homomorphism(C2, C4, [0, 2]),
                 Homomorphism(C2, V4, [0, 2]))
    dec = amalgam_embeddable(am)
    assert dec.is_yes
    fw = feasible_witness(am, dec.certificate, 2)
    assert fw is not None
    res = higman_embed(am, fw[0], fw[1])
    assert res.embedding.W.is_p_group(2)


def test_amalgam_embeddable_identity_case():
    C4 = catalog.cyclic(4)
    C4b = fresh(C4, "C4b")
    am = Amalgam(C4, C4b, C4, identity_hom(C4),
                 Homomorphism(C4, C4b, [0, 1, 2, 3]))
    assert amalgam_embeddable(am).is_yes


def test_twisted_d8_amalgam_is_provably_negative():
    D8 = catalog.dihedral(4)
    D8b = fresh(D8, "D8b")
    V4 = catalog.klein4()
    uG = Homomorphism(V4, D8, [0, 4, 1, 5])
    uH = Homomorphism(V4, D8b, [0, 1, 4, 5])    # center line -> reflection line
    dec = amalgam_embeddable(Amalgam(D8, D8b, V4, uG, uH))
    assert dec.is_no
    # the untwisted identification is positive
    uH0 = Homomorphism(V4, D8b, [0, 4, 1, 5])
    assert amalgam_embeddable(Amalgam(D8, D8b, V4, uG, uH0)).is_yes


# -- flags and inner extensions ----------------------------------------------------------

def test_flag_transvection_pair_refuted():
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    phi = total_pa(V, sp, [[1, 1], [0, 1]])
    psi = total_pa(V, sp, [[1, 0], [1, 1]])
    assert unipotent_flag_extend(V, [phi]).is_yes
    assert unipotent_flag_extend(V, [psi]).is_yes
    assert unipotent_flag_extend(V, [phi, psi]).is_no


def test_flag_swap_refuted_and_shift_certified():
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    swap = total_pa(V, sp, [[0, 1], [1, 0]])
    assert unipotent_flag_extend(V, [swap]).is_no
    W = catalog.elementary_abelian(3, 3)
    sp3 = ElabSpace(W)
    A = Subgroup(W, sp3.subspace_elems([(1, 0, 0), (0, 1, 0)]))
    B = Subgroup(W, sp3.subspace_elems([(1, 0, 0), (0, 0, 1)]))
    mapping = {a: elab_elem(sp3, (sp3.vec(a)[1], 0, sp3.vec(a)[0])) for a in A.elems}
    shift = PartialAutomorphism(W, A, B, mapping)
    dec = unipotent_flag_extend(W, [shift])
    assert dec.is_yes
    dec.certificate.verify([shift])
    # the extensions generate a p-group, realized as a semidirect product
    inner = inner_extension(W, [shift])
    assert inner.is_yes and inner.certificate.Hp.order == 81


def test_inner_extension_identity_and_general_group():
    D8 = catalog.dihedral(4)
    Z = subgroup_generated(D8, [4])
    ident = PartialAutomorphism(D8, Z, Z, {0: 0, 4: 4})
    dec = inner_extension(D8, [ident])
    assert dec.is_yes and dec.certificate.Hp.order == 8
    # a nontrivial partial automorphism of a nonabelian group: r -> r^3 on <r>
    R = subgroup_generated(D8, [2])
    mapping = {0: 0, 2: 6, 4: 4, 6: 2}
    pa = PartialAutomorphism(D8, R, R, mapping)
    dec = inner_extension(D8, [pa])
    assert dec.is_yes and dec.certificate.Hp.order == 16
    assert dec.certificate.conjugators == (1,)
    dec.certificate.verify(D8, [pa], 2)


@pytest.mark.parametrize("name", ["C4xC2", "C4xC4", "C8xC2", "C4xC2xC2",
                                  "D8", "Q8", "D16", "SD16", "Heis27",
                                  "C9:C3", "C9xC3"])
def test_stabilizer_choice_matches_the_chain_filter_reference(monkeypatch,
                                                              name):
    """_extend_in_stabilizer extends each phi by the automorphism that the
    old filter (helpers.reference_stabilizer_choice) picks, along the first
    chief series and the gamma^p series; with reason "missing" when the
    reference has none for some phi."""
    G = catalog.by_name(name)
    p = G.prime()
    auts = automorphisms(G)
    chosen = []
    monkeypatch.setattr(embed, "_realize_semidirect",
                        lambda H, pas, perms, p, cap:
                        chosen.append(perms) or Decision(YES))
    rng = random.Random(f"stabilizer-choice:{name}")
    outcomes = set()
    for series in (chief_series(G)[0], lower_central_p_series(G, p).terms):
        for k in range(12):
            pas = [random_restricted_automorphism(G, auts, rng)
                   for _ in range(1 + k % 2)]
            chosen.clear()
            dec = embed._extend_in_stabilizer(G, pas, series, p,
                                              DEFAULT_ORDER_CAP, "missing")
            ref = reference_stabilizer_choice(G, auts, pas, series)
            if any(a is None for a in ref):
                assert (dec.status, dec.reason, chosen) == \
                    (UNKNOWN, "missing", [])
            else:
                assert dec.is_yes and [[list(a) for a in perms]
                                       for perms in chosen] == \
                    [[list(a) for a in ref]]
            outcomes.add(dec.status)
    assert YES in outcomes


def test_layerwise_inner_extension():
    # abelian non-elementary case through gamma^p layers
    A = catalog.cyclic(4)
    S = subgroup_generated(A, [2])
    pa = PartialAutomorphism(A, S, S, {0: 0, 2: 2})
    F = lower_central_p_series(A, 2)
    dec = layerwise_inner_extension(A, F, [pa])
    assert dec.is_yes
    # single-level filtration reduces to inner_extension
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    swap = total_pa(V, sp, [[0, 1], [1, 0]])
    F1 = Filtration(V, [full_subgroup(V), trivial_subgroup(V)])
    assert layerwise_inner_extension(V, F1, [swap]).is_no


def test_partial_automorphism_preserves():
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    axis1 = Subgroup(V, sp.subspace_elems([(1, 0)]))
    axis2 = Subgroup(V, sp.subspace_elems([(0, 1)]))
    swap = PartialAutomorphism(V, axis1, axis2, {
        a: elab_elem(sp, (0, sp.vec(a)[0])) for a in axis1.elems})
    # A & axis1 = axis1 goes to axis2, but B & axis1 is trivial
    assert not swap.preserves(axis1)
    assert swap.preserves(full_subgroup(V))
    # x -> 2x keeps every subspace but acts nontrivially on V / 0
    neg = total_pa(V, sp, [[2, 0], [0, 2]])
    assert neg.preserves(full_subgroup(V)) and neg.preserves(axis1)
    assert not neg.preserves(full_subgroup(V), trivial_subgroup(V))
    shear = total_pa(V, sp, [[1, 1], [0, 1]])
    assert shear.preserves(full_subgroup(V), axis1)
    assert not shear.preserves(full_subgroup(V), axis2)


def test_layerwise_inner_extension_rejects_non_invariant_filtration():
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    shear = total_pa(V, sp, [[1, 1], [0, 1]])
    F = chain(V, sp.subspace_elems([(0, 1)]))
    with pytest.raises(ValueError, match="not phi-invariant"):
        layerwise_inner_extension(V, F, [shear])
    assert layerwise_inner_extension(V, chain(V, sp.subspace_elems([(1, 0)])),
                                     [shear]).is_yes


def test_certificate_transport_functoriality():
    # injective intertwiners carry flag certificates to the target
    rng = random.Random(19)
    p = 3
    for _ in range(10):
        d = rng.randrange(1, 3)
        dd = d + rng.randrange(1, 2)
        V = catalog.elementary_abelian(p, d)
        W = catalog.elementary_abelian(p, dd)
        spV, spW = ElabSpace(V), ElabSpace(W)
        # random unitriangular total automorphism of V: always certified
        mat = [[1 if i == j else (rng.randrange(p) if j > i else 0)
                for j in range(d)] for i in range(d)]
        phi = total_pa(V, spV, mat)
        assert unipotent_flag_extend(V, [phi]).is_yes
        # random injective linear map V -> W: unit column echelon + padding
        emb_mat = [[0] * d for _ in range(dd)]
        rows = rng.sample(range(dd), d)
        for j, r in enumerate(sorted(rows)):
            emb_mat[r][j] = 1
        def embed_elem(x):
            vec = spV.vec(x)
            img = tuple(sum(emb_mat[i][j] * vec[j] for j in range(d)) % p
                        for i in range(dd))
            return elab_elem(spW, img)
        A2 = sorted(embed_elem(a) for a in phi.A.elems)
        mapping = {embed_elem(a): embed_elem(phi(a)) for a in phi.A.elems}
        phi2 = PartialAutomorphism(W, Subgroup(W, A2),
                                   Subgroup(W, sorted(mapping.values())),
                                   mapping)
        assert unipotent_flag_extend(W, [phi2]).is_yes


# -- candidate subspaces of the flag search ---------------------------------------------

def gaussian_binomial(d, k, p):
    """The number [d, k]_p of k-dimensional subspaces of F_p^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p,d", ELAB_SHAPES)
def test_all_subspaces_match_reference(p, d):
    # the hyperplanes of each subspace S are the (dim S - 1)-subspaces of the
    # reference inside S, in order; ElabSpace picks its basis from the
    # labels, so a relabeled copy reduces in other coordinates
    V = elab_group(p, d)
    for G in (V, relabel(V, 10 * p + d)):
        space = ElabSpace(G)
        by_dim = reference_all_subspaces(space)
        for k, subs in by_dim.items():
            for S in subs:
                want = [T for T in by_dim.get(k - 1, []) if set(T) <= set(S)]
                assert _hyperplanes(space, S) == want
                assert len(want) == (p ** k - 1) // (p - 1)


@pytest.mark.parametrize("p,dmax", [(2, 6), (3, 4), (5, 3)])
def test_all_subspaces_are_all_subgroups_of_each_order(p, dmax):
    # the descent through hyperplanes from V reaches the [d, k]_p subgroups
    # of each order p^k, so the flag search can meet every complete flag
    for d in range(dmax + 1):
        V = elab_group(p, d)
        space = ElabSpace(V)
        level = [tuple(range(V.order))]
        for k in range(d, -1, -1):
            assert len(level) == gaussian_binomial(d, k, p)
            for s in level:
                assert len(s) == p ** k and list(s) == sorted(s)
                assert set(V.mult[np.ix_(s, s)].ravel().tolist()) == set(s)
            level = sorted({h for s in level for h in _hyperplanes(space, s)})
        assert level == []


def test_flag_search_on_the_trivial_group():
    V = catalog.cyclic(1)
    ident = PartialAutomorphism(V, full_subgroup(V), full_subgroup(V), {0: 0})
    for pas in ([], [ident]):
        dec = unipotent_flag_extend(V, pas)
        assert dec.is_yes and dec.certificate.basis == ()


@pytest.mark.parametrize("p,d", ELAB_SHAPES)
def test_elab_space_matches_reference_coordinates(p, d):
    V = elab_group(p, d)
    for G in (V, relabel(V, 10 * p + d)):
        space, ref = ElabSpace(G), ReferenceElabSpace(G)
        assert space.basis == ref.basis and space.dim == ref.dim
        assert [space.vec(g) for g in range(G.order)] == \
            [ref.vec(g) for g in range(G.order)]
        assert [elab_elem(space, ref.vec(g)) for g in range(G.order)] == \
            list(range(G.order))
        rng = random.Random(p * d)
        for k in range(d + 1):
            vecs = [ref.vec(rng.randrange(G.order)) for _ in range(k)]
            assert space.subspace_elems(vecs) == ref.subspace_elems(vecs)


def template_flag_inputs():
    """Seeded inputs on the shapes of the certify templates, F_2^r (r <= 4)
    and F_3^r (r <= 3): one or two maps between s-dimensional subspaces for
    each 1 <= s <= r."""
    rng = random.Random(6)
    out = []
    for p, rmax in ((2, 4), (3, 3)):
        for r in range(1, rmax + 1):
            V = catalog.elementary_abelian(p, r)
            sp = ElabSpace(V)
            out.append((V, [[random_partial_automorphism(V, sp, rng, s)
                             for _ in range(n_pas)]
                            for s in range(1, r + 1) for n_pas in (1, 1, 2)]))
    return out


DEEP_NO_SHAPES = [(2, d) for d in range(3, 7)] + [(3, 3), (3, 4)]


def deep_no_pair(V):
    """x -> xy on <x> and y -> yx on <y>, for the first two basis vectors x
    and y of ElabSpace(V).

    A flag with trivial layer action would need y below the layer of x and x
    below the layer of y, so the answer is no. Every term that the search
    can reach contains x and y, so it reaches all of them."""
    sp = ElabSpace(V)
    x, y = (tuple(int(i == j) for j in range(sp.dim)) for i in range(2))

    def multiple(k, vec):
        return elab_elem(sp, [k * c for c in vec])

    xy = [a + b for a, b in zip(x, y)]
    pas = []
    for gen in (x, y):
        mapping = {multiple(k, gen): multiple(k, xy) for k in range(sp.p)}
        pas.append(PartialAutomorphism(V, Subgroup(V, sorted(mapping)),
                                       Subgroup(V, sorted(mapping.values())),
                                       mapping))
    return pas


def flag_inputs(kind, p, d):
    """Pairs of a group and its lists of partial automorphisms. The seeded
    shapes run on V and on a relabeled copy; the reference lists the
    subspaces of F_2^6 in seconds, so the deep-no pair runs on V alone."""
    if kind == "templates":
        return template_flag_inputs()
    V = elab_group(p, d)
    if kind == "deep-no":
        return [(V, [deep_no_pair(V)])]
    return [(G, seeded_partial_automorphisms(G, ElabSpace(G),
                                             random.Random(p + 7 * d)))
            for G in (V, relabel(V, 10 * p + d))]


FLAG_CASES = ([pytest.param("shape", p, d, id=f"{p}-{d}") for p, d in ELAB_SHAPES]
              + [pytest.param("templates", 0, 0, id="templates")]
              + [pytest.param("deep-no", p, d, id=f"deep-no-{p}-{d}")
                 for p, d in DEEP_NO_SHAPES])


@pytest.mark.parametrize("kind,p,d", FLAG_CASES)
def test_flag_extension_matches_reference(kind, p, d):
    seen = set()
    for G, pas_lists in flag_inputs(kind, p, d):
        ref = ReferenceElabSpace(G)
        by_dim = reference_all_subspaces(ref)
        for pas in pas_lists:
            dec = unipotent_flag_extend(G, pas)
            status, reason, basis, matrices = reference_flag_extend(G, pas, by_dim)
            assert (dec.status, dec.reason) == (status, reason)
            seen.add(status)
            if not dec.is_yes:
                continue
            cert = dec.certificate
            assert (cert.basis, cert.matrices) == (basis, matrices)
            assert all(type(x) is int for m in cert.matrices for r in m for x in r)
            want = reference_flag_perms(ref, basis, matrices)
            assert [q.tolist() for q in cert.perms()] == [q.tolist() for q in want]
    if kind == "shape":
        assert YES in seen
    else:
        assert seen == ({YES, NO} if kind == "templates" else {NO})


@pytest.mark.parametrize("p,d", DEEP_NO_SHAPES)
def test_flag_search_expands_each_term_once(monkeypatch, p, d):
    # the expanded terms are the subspaces that contain x and y, one for
    # each subspace of the quotient F_p^(d-2)
    V = catalog.elementary_abelian(p, d)
    hyperplanes = embed._hyperplanes
    expanded = []

    def recording(space, term):
        expanded.append(term)
        return hyperplanes(space, term)

    monkeypatch.setattr(embed, "_hyperplanes", recording)
    assert unipotent_flag_extend(V, deep_no_pair(V)).is_no
    assert len(set(expanded)) == len(expanded) == \
        sum(gaussian_binomial(d - 2, k, p) for k in range(d - 1))


def test_flag_search_cap_boundary(monkeypatch):
    # the complete search of the deep no pair tries hyperplanes of 14082
    # elements in all on F_2^6 and 166978 on F_2^7, well within the cap
    V7 = catalog.elementary_abelian(2, 7)
    assert unipotent_flag_extend(V7, deep_no_pair(V7)).is_no
    V6 = catalog.elementary_abelian(2, 6)
    monkeypatch.setattr(groups, "SEARCH_STEP_CAP", 14082)
    assert unipotent_flag_extend(V6, deep_no_pair(V6)).is_no
    monkeypatch.setattr(groups, "SEARCH_STEP_CAP", 14081)
    dec = unipotent_flag_extend(V6, deep_no_pair(V6))
    assert (dec.status, dec.reason) == (UNKNOWN, "flag search passed 14081 steps")


def test_linear_extension_rejects_inconsistent_pairs():
    space = ElabSpace(catalog.elementary_abelian(3, 2))
    with pytest.raises(AssertionError, match="inconsistent linear extension"):
        space.linear_extension([(1, 0), (2, 0)], [(1, 0), (0, 1)])
    # consistent but dependent pairs; the completion e_1 is fixed
    M = space.linear_extension([(1, 0), (2, 0)], [(1, 1), (2, 2)])
    assert M.tolist() == [[1, 1], [0, 1]]
    assert space.unit_completion([(1, 1)]) == [0]
    assert space.unit_completion([(0, 1)]) == [0]
    assert space.unit_completion([(1, 0)]) == [1]
    with pytest.raises(AssertionError, match="singular"):
        space.inverse([(1, 1), (2, 2)])


def test_inverse_refuses_singular_matrices():
    """[B | I] reduces to d rows whether or not B is invertible; a singular B
    shows only in the left block, which is then not the identity."""
    rng = random.Random(5)
    for p, d in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)):
        space = ElabSpace(catalog.elementary_abelian(p, d))
        # zero, a repeated row, and a row that is a combination of the others
        for B in ([[0] * d] * d, [[1] * d] * d,
                  [[rng.randrange(p) for _ in range(d)] for _ in range(d - 1)]):
            if len(B) < d:
                B = B + [[sum(r[j] for r in B) % p for j in range(d)]]
            with pytest.raises(AssertionError, match="singular basis matrix"):
                space.inverse(B)
        B = np.eye(d, dtype=np.int64) + np.triu(np.ones((d, d), dtype=np.int64), 1)
        assert (B @ space.inverse(B) % p == np.eye(d, dtype=np.int64)).all()


def test_perm_on_the_trivial_group():
    space = ElabSpace(catalog.cyclic(1))
    assert space.perm(()).tolist() == [0]
    assert space.linear_extension([()], [()]).shape == (0, 0)


# -- the deterministic scan ---------------------------------------------------------

def test_scan_small_is_deterministic_and_sound():
    groups = catalog.two_group_scan_list(8)
    recs = amalgam_scan(groups)
    recs2 = amalgam_scan(groups)
    assert recs == recs2
    yes = [r for r in recs if r.embeddable]
    no = [r for r in recs if not r.embeddable]
    assert yes and no
    # first negative at order <= 8 is the twisted D8 amalgam
    first = no[0]
    assert (first.g_name, first.h_name) == ("D8", "D8'")
    am = scan_amalgam_object(groups, first)
    assert amalgam_embeddable(am).is_no


@pytest.mark.parametrize("G", catalog.two_group_scan_list(16)
                         + [catalog.heisenberg(3), catalog.c9_semi_c3()],
                         ids=lambda G: G.name)
def test_central_p_subchains_match_is_central_p(G):
    p = G.prime()
    # chief series, and chains that miss their first term G
    chains = [c for ser in chief_series(G) for c in (ser, ser[1:])]
    for ser in chains:
        interior = ser[1:-1]
        want = []
        for r in range(len(interior) + 1):
            for keep in itertools.combinations(interior, r):
                F = Filtration(G, [ser[0], *keep, ser[-1]], check=False)
                if F.is_central_p(p):
                    want.append([t.elems for t in F.terms])
        got = [[t.elems for t in F.terms]
               for F in _central_p_subchains(G, ser, p)]
        assert got == want


def _decode(key: int, n: int) -> tuple:
    """A packed trace key back to its chain of sorted U-index tuples."""
    out = []
    while key:
        mask = key & ((1 << n) - 1)
        if mask:
            out.append(tuple(u for u in range(n) if mask >> u & 1))
        key >>= n
    return tuple(out)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_chain_tracer_matches_reference_trace(n):
    # |U| = 8 packs into int64; |U| = 32 needs Python-int keys, and |U| = 64
    # Python-int masks as well
    G, uG, _ = direct_product(catalog.cyclic(n), catalog.cyclic(2))
    series = chief_series(G)
    # chief series, and subchains without their second term, whose traces
    # can drop by more than one prime at a step
    chains = series + [ser[:1] + ser[2:] for ser in series]
    # a block of embeddings: uG after the automorphisms x -> a·x of C_n
    block = np.stack([uG.map[(a * np.arange(n)) % n] for a in (1, 3, 5, n - 1)])
    keys = _chain_tracer(G, chains)(block)
    assert keys.shape == (len(chains), len(block))
    for j, row in enumerate(block):
        emb = Homomorphism(uG.dom, G, row, check=False)
        assert [_decode(int(k), n) for k in keys[:, j]] == \
            [reference_chief_trace(ser, emb) for ser in chains]


def test_scan_matches_reference_and_per_record_path(monkeypatch):
    groups = catalog.two_group_scan_list(8)
    recs = amalgam_scan(groups)
    want = reference_amalgam_scan(groups)
    assert len(recs) == len(want)
    for got, ref in zip(recs, want):
        assert got == ref
    # the scan's bitmask traces agree with the per-record decision
    for rec in recs:
        am = scan_amalgam_object(groups, rec)
        assert amalgam_embeddable(am).is_yes == rec.embeddable
    # relabeled tables give other isomorphism-memo keys; all isomorphisms
    # up to order 8 give blocks of up to |Aut(C2^3)| = 168 embeddings; and
    # |U| = 16 packs its keys into Python ints
    relabeled = [relabel(G, 11 + i) for i, G in enumerate(groups)]
    pair16 = [catalog.elementary_abelian(2, 4), catalog.abelian(4, 4)]
    for args, kw in [((relabeled,), {}), ((groups,), {"all_iso_upto": 8}),
                     ((pair16,), {"max_u": 16})]:
        monkeypatch.setattr(embed, "SCAN_MAX_U", kw.get("max_u", 8))
        monkeypatch.setattr(embed, "SCAN_ALL_ISO_UPTO",
                            kw.get("all_iso_upto", 4))
        assert amalgam_scan(*args) == reference_amalgam_scan(*args, **kw)


def test_scan_searches_each_pair_of_subgroup_tables_once(monkeypatch):
    calls = []
    search = embed.find_isomorphism

    def counted(A, B):
        calls.append(1)
        return search(A, B)

    monkeypatch.setattr(embed, "find_isomorphism", counted)
    recs = amalgam_scan(catalog.two_group_scan_list(16))
    assert (len(recs), len(calls)) == (18_662, 67)
    # the memo lives for one call: a second scan searches again
    amalgam_scan(catalog.two_group_scan_list(4))
    assert len(calls) > 67


def test_scan_traces_each_subgroup_block_once(monkeypatch):
    """One tracer call per inclusion of a subgroup of order 2..8 and one
    per block: an H-side subgroup against one G-side table with an
    isomorphism onto it, whatever the number of G-side subgroups with that
    table."""
    groups = catalog.two_group_scan_list(16)
    tracer_of, rows = embed.chief_tracer, []

    def counted(G):
        tracer = tracer_of(G)
        return lambda E: rows.append(len(E)) or tracer(E)

    monkeypatch.setattr(embed, "chief_tracer", counted)
    recs = amalgam_scan(groups)
    inclusions = sum(2 <= len(S) <= embed.SCAN_MAX_U
                     for G in groups for S in all_subgroups(G))
    # 230 blocks of 580 embeddings in all give the trace sets of the
    # 18,662 records
    assert (len(recs), inclusions) == (18_662, 191)
    assert (len(rows) - inclusions, sum(rows) - inclusions) == (230, 580)


# -- mapping tori ----------------------------------------------------------------------

def test_mapping_torus_examples():
    C3 = catalog.cyclic(3)
    inv = np.array([(-x) % 3 for x in range(3)])
    assert mapping_torus_check(C3, [inv])["residually_p"] is False
    V = catalog.elementary_abelian(2, 2)
    sp = ElabSpace(V)
    tr = np.array([elab_elem(sp, ((sp.vec(g)[0] + sp.vec(g)[1]) % 2, sp.vec(g)[1]))
                   for g in range(4)])
    assert mapping_torus_check(V, [tr])["residually_p"] is True
    H27 = catalog.heisenberg(3)
    inners = [np.array([H27.conj(g, x) for x in range(27)])
              for g in range(27)]
    rep = mapping_torus_check(H27, inners)
    assert rep["residually_p"] is True
    assert all(l["p_group"] for l in rep["levels"])


def test_mapping_torus_conjugation_invariance():
    V = catalog.elementary_abelian(2, 2)
    sp = ElabSpace(V)
    tr = np.array([elab_elem(sp, ((sp.vec(g)[0] + sp.vec(g)[1]) % 2, sp.vec(g)[1]))
                   for g in range(4)])
    base = mapping_torus_check(V, [tr])["residually_p"]
    # conjugate by every automorphism of V
    from residuap.groups import automorphisms
    for a in automorphisms(V):
        inv_a = np.argsort(a)
        conj = a[tr[inv_a]]
        assert mapping_torus_check(V, [np.asarray(conj)])["residually_p"] == base


def test_mapping_torus_rejects_non_automorphism():
    C3 = catalog.cyclic(3)
    with pytest.raises(ValueError):
        mapping_torus_check(C3, [np.array([0, 0, 0])])


def _builds_elab_space(G):
    try:
        ElabSpace(G)
    except ValueError:
        return False
    return True


def test_is_elementary_abelian_matches_elab_space():
    groups = (catalog.property_suite(2) + catalog.property_suite(3)
              + catalog.property_suite(5) + catalog.two_group_scan_list(16)
              + [catalog.by_name(name) for name in ("D8", "D16", "Q8", "SD16",
                                                    "Heis27", "C9:C3", "C4xC2")]
              + [catalog.cyclic(1), catalog.cyclic(6), catalog.abelian(6, 2),
                 catalog.elementary_abelian(7, 2)])
    for G in groups:
        assert G.is_elementary_abelian() == _builds_elab_space(G), G.name
    assert sum(G.is_elementary_abelian() for G in groups) > 0
    assert not all(G.is_elementary_abelian() for G in groups)


# -- the tower prediction from term orders, and the facts kept with a group -----------

def _yes_amalgams(groups):
    for rec in amalgam_scan(groups):
        if rec.embeddable:
            am = scan_amalgam_object(groups, rec)
            yield am, amalgam_embeddable(am).certificate


def _alignment(fn, *args):
    """fn(*args), or the message of the AlignmentError it raises."""
    try:
        return fn(*args)
    except AlignmentError as exc:
        return f"AlignmentError: {exc}"


def test_predicted_order_from_sizes_matches_aligned_filtrations():
    # every pair of central p-subchains of every yes witness: the matching
    # pairs give the same prediction, the others the same AlignmentError
    raised = 0
    for am, (serG, serH) in _yes_amalgams(catalog.two_group_scan_list(8)):
        for FG in _central_p_subchains(am.G, serG, 2):
            for FH in _central_p_subchains(am.H, serH, 2):
                want = _alignment(reference_predicted_higman_order, am, FG, FH)
                assert _alignment(predicted_higman_order, am, FG, FH) == want
                raised += isinstance(want, str)
    assert raised > 0


def test_predicted_order_raises_as_alignment_does():
    am, FG, FH = c4_amalgam()
    G, H = am.G, am.H
    # C4 > 1 > C4 > 1 is no filtration (built unchecked): it induces U, 1,
    # U, 1 on U = C2, the same distinct terms as FH in more runs, so only
    # the segment count tells them apart
    odd = Filtration(G, [full_subgroup(G), trivial_subgroup(G),
                         full_subgroup(G), trivial_subgroup(G)], check=False)
    # H alone induces U alone, which is not equivalent to U > 1
    top = Filtration(H, [full_subgroup(H)])
    # C2^3 u C2^3' over C2^2: chains through two different subgroups of
    # order 2 induce chains of equal orders on U, yet not the same chain
    E = catalog.elementary_abelian(2, 3)
    E2 = fresh(E, "C2^3'")
    V, toV, _ = Subgroup(E, [0, 1, 2, 3]).as_group()
    amE = Amalgam(E, E2, V, Homomorphism(V, E, toV), Homomorphism(V, E2, toV))
    for am_, FG_, FH_, message in [
            (am, odd, FH, "segment structure"),
            (am, FG, top, "equivalent chains"),
            (amE, chain(E, [0, 1, 2, 3], [0, 1]), chain(E2, [0, 1, 2, 3], [0, 2]),
             "equivalent chains")]:
        with pytest.raises(AlignmentError, match=message):
            predicted_higman_order(am_, FG_, FH_)
        with pytest.raises(AlignmentError, match=message):
            reference_predicted_higman_order(am_, FG_, FH_)


def test_feasible_witness_matches_reference():
    def terms(fw):
        return fw and ([T.elems for T in fw[0].terms],
                       [T.elems for T in fw[1].terms], fw[2])

    # the scan's cap on every other record, a cap of 64 that refuses more
    # candidates on the rest
    count = 0
    for am, witness in _yes_amalgams(catalog.two_group_scan_list(8)):
        cap = (2048, 64)[count % 2]
        assert terms(feasible_witness(am, witness, 2, cap=cap)) == \
            terms(reference_feasible_witness(am, witness, 2, cap))
        count += 1
    assert count == 887
    # |U| = 8 in C2^4 u C2^4': subchains of the two witness series induce
    # chains on U of the same length that differ, such as U > (0, 1, 2, 3) > 1
    # and U > (0, 1) > 1, and must not be paired
    rec = embed.ScanRecord("C2^4", "C2^4'", (0, 3, 4, 7, 8, 11, 12, 15),
                           tuple(range(8)), tuple(range(8)), True)
    am = scan_amalgam_object([catalog.elementary_abelian(2, 4)], rec)
    witness = amalgam_embeddable(am).certificate
    assert terms(feasible_witness(am, witness, 2, cap=2048)) == \
        terms(reference_feasible_witness(am, witness, 2, 2048))


def test_chief_tracer_is_built_once_per_group(monkeypatch):
    built = []
    build = embed._chain_tracer
    monkeypatch.setattr(embed, "_chain_tracer",
                        lambda G, chains: built.append(G) or build(G, chains))
    D8, C2 = fresh(catalog.dihedral(4), "D8~t"), catalog.cyclic(2)
    V4 = fresh(catalog.klein4(), "V4~t")
    am = Amalgam(D8, V4, C2, Homomorphism(C2, D8, [0, 4]),
                 Homomorphism(C2, V4, [0, 1]))
    decisions = [amalgam_embeddable(am) for _ in range(4)]
    assert sorted(built, key=id) == sorted([D8, V4], key=id)
    assert all(d.status == decisions[0].status for d in decisions)
    # the copy shares the tracer, so an amalgam over it builds none
    D8c = D8.copy("D8~t'")
    assert D8c._chief_tracer is D8._chief_tracer
    twin = Amalgam(D8, D8c, C2, Homomorphism(C2, D8, [0, 4]),
                   Homomorphism(C2, D8c, [0, 4]))
    assert amalgam_embeddable(twin).is_yes
    assert len(built) == 2
