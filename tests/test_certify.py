import math
import random

import numpy as np
import pytest

from helpers import (Letter, axis_swap_loop, c4_star_c4, chain, d8_center_hnn,
                     elab_elem, evaluate, forbid_tables_above_cap, fresh,
                     free_product, random_amalgam, random_hnn_loop,
                     reference_colimit_sigma, reference_direct_sum,
                     reference_gamma_gog_filtration, shift_loop, swap_loop,
                     theta_graph, word_to_path)

from residuap import catalog, certify, embed, groups, serialize
from residuap.certify import (Certificate, certify_residually_p,
                              colimit_sigma, homology_fiber_sum_check,
                              orientation, partial_abelianization,
                              reduction_certify, separating_level)
from residuap.embed import ElabSpace
from residuap.filtration import lower_central_p_series
from residuap.graphs import (GogFiltration, Graph, GraphOfGroups,
                             NormalFormContext, maximal_subtree, unfold_gog)
from residuap.groups import (Homomorphism, Subgroup, abelian_invariants,
                             is_isomorphic, subgroup_generated)
from residuap.results import NO, UNKNOWN, YES


def test_colimit_examples():
    gog = c4_star_c4()
    col = colimit_sigma(gog, maximal_subtree(gog.graph))
    assert col.sigma.order == 8
    assert abelian_invariants(col.sigma) == [2, 4]
    assert all(i.is_injective() for i in col.injections)
    # tree of two F_p^2 over F_p: F_p^3
    V = catalog.elementary_abelian(3, 2)
    Vb = fresh(V, "Vb")
    C3 = catalog.cyclic(3)
    Y = Graph.from_topological(2, [(0, 1)])
    tg = GraphOfGroups(Y, [V, Vb], [C3, C3],
                       [Homomorphism(C3, Vb, [0, 1, 2]),
                        Homomorphism(C3, V, [0, 1, 2])])
    col = colimit_sigma(tg, maximal_subtree(tg.graph))
    assert col.sigma.order == 27 and col.sigma.exponent() == 3
    # path of three C4's glued over C2's: order 16 abelian, injective iotas
    C4 = catalog.cyclic(4)
    C4b, C4c = fresh(C4, "C4b"), fresh(C4, "C4c")
    C2 = catalog.cyclic(2)
    Y3 = Graph.from_topological(3, [(0, 1), (1, 2)])
    path_gog = GraphOfGroups(
        Y3, [C4, C4b, C4c], [C2, C2, C2, C2],
        [Homomorphism(C2, C4b, [0, 2]), Homomorphism(C2, C4, [0, 2]),
         Homomorphism(C2, C4c, [0, 2]), Homomorphism(C2, C4b, [0, 2])])
    col = colimit_sigma(path_gog, maximal_subtree(path_gog.graph))
    assert col.sigma.order == 16
    assert all(i.is_injective() for i in col.injections)


def test_partial_abelianization_shapes():
    pab = partial_abelianization(shift_loop(), frozenset())
    assert pab.colimit.sigma.order == 27
    assert len(pab.pas) == 1 and len(pab.pas[0].A) == 9
    gog = c4_star_c4()
    pab = partial_abelianization(gog, maximal_subtree(gog.graph))
    assert pab.pas == ()        # a tree has no stable letters


def test_certify_c4_star_c4():
    gog = c4_star_c4()
    dec = certify_residually_p(gog, 2)
    assert dec.is_yes
    cert = dec.certificate
    cert.verify()
    assert cert.target.order == 8
    # the certified map evaluates the defining relation correctly: a^2 = b^2
    tree = maximal_subtree(gog.graph)
    w1 = word_to_path(gog, tree, 0, [Letter("g", 0, 2)])
    w2 = word_to_path(gog, tree, 0, [Letter("g", 1, 2)])
    assert evaluate(cert, w1) == evaluate(cert, w2)


def test_certify_free_products():
    D8 = catalog.dihedral(4)
    for factors in ((catalog.cyclic(3), fresh(catalog.cyclic(3), "C3b")),
                    (D8, fresh(D8, "D8b")),
                    (D8, catalog.quaternion8(), catalog.cyclic(2))):
        p = factors[0].prime()
        gog = free_product(*factors)
        dec = certify_residually_p(gog, p)
        assert dec.is_yes
        dec.certificate.verify()
        # the target is the direct product, built the old way in one table
        total, maps = reference_direct_sum(factors)
        P = dec.certificate.target
        assert P.name == total.name and np.array_equal(P.mult, total.mult)
        assert all(np.array_equal(psi.map, m)
                   for psi, m in zip(dec.certificate.vertex_maps, maps))


def test_five_vertex_free_product_stops_at_the_cap(monkeypatch):
    # the direct product of five F_2^3 has order 32768: an 8 GiB table
    forbid_tables_above_cap(monkeypatch)
    E8 = catalog.elementary_abelian(2, 3)
    gog = free_product(*(fresh(E8, f"E{i}") for i in range(5)))
    dec = certify_residually_p(gog, 2)
    assert dec.status == UNKNOWN
    assert dec.reason == "amalgamated sum of order 32768 is too large"


def test_vertex_sum_is_bounded_by_its_own_order(monkeypatch):
    # C2^7 and C2^6 over C2: the step's direct product has order 8192, but
    # the sum, Sigma, has order 4096 and is built
    forbid_tables_above_cap(monkeypatch)
    A, B = catalog.elementary_abelian(2, 7), catalog.elementary_abelian(2, 6)
    C2 = catalog.cyclic(2)
    gog = GraphOfGroups(Graph.from_topological(2, [(0, 1)]), [A, B], [C2, C2],
                        [Homomorphism(C2, B, [0, 1]), Homomorphism(C2, A, [0, 1])])
    dec = certify_residually_p(gog, 2)
    assert dec.is_yes and dec.certificate.target.order == 4096
    dec.certificate.verify()


def _unfold_along_cn(gog: GraphOfGroups, n: int) -> GraphOfGroups:
    """The unfolding of gog along psi = a generator of C_n on every
    non-tree edge."""
    Y = gog.graph
    tree = maximal_subtree(Y)
    psi = [0] * Y.ne
    for e in orientation(Y, tree):
        psi[e], psi[Y.bar[e]] = 1, n - 1
    return unfold_gog(gog, tree, psi, catalog.cyclic(n))[0]


def test_unfoldings_of_a_loop_over_f2_cubed_sum_within_the_cap(monkeypatch):
    # the stable letter acts by a matrix of order 7, so the C_n unfolding is
    # residually 2 exactly when 7 divides n; Sigma has order 8 each time,
    # while the full direct sum has order 8^n (8 GiB of table at n = 5)
    forbid_tables_above_cap(monkeypatch)
    E8 = catalog.elementary_abelian(2, 3)
    sp = ElabSpace(E8)
    M = ((0, 1, 0), (0, 0, 1), (1, 1, 0))
    A = [elab_elem(sp, [sum(a * x for a, x in zip(row, sp.vec(g)))
                        for row in M]) for g in range(8)]
    loop = GraphOfGroups(Graph.from_topological(1, [(0, 0)]), [E8], [E8, E8],
                         [Homomorphism(E8, E8, list(range(8))),
                          Homomorphism(E8, E8, A)])
    assert certify_residually_p(_unfold_along_cn(loop, 5), 2).is_no
    dec = certify_residually_p(_unfold_along_cn(loop, 7), 2)
    assert dec.is_yes and dec.certificate.target.order == 8
    dec.certificate.verify()


def _colimit_inputs():
    """The helper gogs over abelian groups, and the C2 and C3 unfoldings of
    those with a non-tree edge whose full direct sum has order <= 4096."""
    gogs = [c4_star_c4(), shift_loop(), swap_loop(), axis_swap_loop(),
            theta_graph(),
            free_product(catalog.cyclic(3), fresh(catalog.cyclic(3), "C3b"))]
    for gog in gogs[1:5]:
        for n in (2, 3):
            cover = _unfold_along_cn(gog, n)
            if math.prod(G.order for G in cover.vgroups) <= 4096:
                gogs.append(cover)
    return gogs


def test_colimit_matches_the_direct_sum_reference():
    inputs = _colimit_inputs()
    assert len(inputs) == 13
    for gog in inputs:
        tree = maximal_subtree(gog.graph)
        col = colimit_sigma(gog, tree)
        S, maps = reference_colimit_sigma(gog, sorted(tree))
        assert col.sigma.name == S.name
        assert np.array_equal(col.sigma.mult, S.mult)
        assert all(np.array_equal(i.map, m)
                   for i, m in zip(col.injections, maps))


def test_certify_shift_loop_yes_swap_loop_no():
    dec = certify_residually_p(shift_loop(), 3)
    assert dec.is_yes and dec.certificate.target.order == 81
    dec = certify_residually_p(swap_loop(), 3)
    assert dec.is_no


def test_reduction_certify_c4():
    gog = c4_star_c4()
    gfilt = GogFiltration(gog, tuple(lower_central_p_series(gog.vgroups[v], 2)
                                     for v in range(2)))
    dec = reduction_certify(gog, gfilt, None, 2)
    assert dec.is_yes
    dec.certificate.verify()
    assert dec.certificate.target.order <= 2 ** 20


def test_reduction_certify_elab_tree_base_case():
    V = catalog.elementary_abelian(2, 2)
    Vb = fresh(V, "Vb")
    C2 = catalog.cyclic(2)
    Y = Graph.from_topological(2, [(0, 1)])
    tg = GraphOfGroups(Y, [V, Vb], [C2, C2],
                       [Homomorphism(C2, Vb, [0, 1]),
                        Homomorphism(C2, V, [0, 1])])
    gfilt = GogFiltration(tg, tuple(lower_central_p_series(tg.vgroups[v], 2)
                                    for v in range(2)))
    dec = reduction_certify(tg, gfilt, None, 2)
    assert dec.is_yes and dec.certificate.target.order == 8


def test_reduction_certify_shift_loop():
    gog = shift_loop()
    gfilt = GogFiltration(gog, (lower_central_p_series(gog.vgroups[0], 3),))
    dec = reduction_certify(gog, gfilt, None, 3)
    assert dec.is_yes and dec.certificate.target.order == 81


def test_separating_lemmas_on_unfolding():
    # pullback along the unfolding morphism (bijective on vertex and edge
    # groups) preserves, edge by edge: finite-length separation, the
    # edge-separating product at the last level, the gamma^p trace of the
    # edge image, and the potency classification of the induced edge chain.
    # Both loops unfold along psi = (1, 1) into A = C2; for the axis swap
    # these are the psi and the order-2 A of its completion over Sigma.
    for build, p in ((axis_swap_loop, 3), (d8_center_hnn, 2)):
        gog = build()
        tr = maximal_subtree(gog.graph)
        cover, mor = unfold_gog(gog, tr, [1, 1], catalog.cyclic(2))
        eproj = list(mor.edge_map)
        base_f = GogFiltration(gog, tuple(
            lower_central_p_series(gog.vgroups[v], p)
            for v in range(gog.graph.nv)))
        pulled = GogFiltration(cover, tuple(
            lower_central_p_series(cover.vgroups[v], p)
            for v in range(cover.graph.nv)))
        for v in range(cover.graph.nv):
            assert pulled.filtrations[v].length() is not None
        def edge_profile(g, gf, e):
            F = gf.filtrations[g.graph.term[e]]
            img = g.edge_image(e)
            Gv = g.vgroups[g.graph.term[e]]
            trace = tuple(tuple(sorted(set(F.term(n).elems) & img._set))
                          for n in range(1, len(F.terms) + 1))
            last = F.term(len(F.terms))
            closed = sorted({Gv.mul(f, a) for f in last.elems
                             for a in img.elems})
            return trace, tuple(closed) == img.elems
        for e in range(cover.graph.ne):
            assert edge_profile(cover, pulled, e) == \
                edge_profile(gog, base_f, eproj[e])


def test_homology_fiber_sum_examples():
    r = homology_fiber_sum_check(c4_star_c4())
    assert r["hypothesis"] and r["match"]
    assert r["H1_torsion"] == [2, 4] and r["H1_free_rank"] == 0
    # tree of two F_p^2 over F_p
    V = catalog.elementary_abelian(2, 2)
    Vb = fresh(V, "Vb")
    C2 = catalog.cyclic(2)
    Y = Graph.from_topological(2, [(0, 1)])
    tg = GraphOfGroups(Y, [V, Vb], [C2, C2],
                       [Homomorphism(C2, Vb, [0, 1]),
                        Homomorphism(C2, V, [0, 1])])
    r = homology_fiber_sum_check(tg)
    assert r["match"] and r["H1_torsion"] == [2, 2, 2]
    # loop over F_p with identity: Sigma + Z
    F3 = catalog.cyclic(3)
    Yl = Graph.from_topological(1, [(0, 0)])
    ide = Homomorphism(F3, F3, [0, 1, 2])
    idloop = GraphOfGroups(Yl, [F3], [F3, F3], [ide, ide])
    r = homology_fiber_sum_check(idloop)
    assert r["match"] and r["H1_free_rank"] == 1 and r["H1_torsion"] == [3]
    # swap loop: hypothesis fails, reported but not an error
    r = homology_fiber_sum_check(swap_loop())
    assert r["hypothesis"] is False and r["match"] is None


def test_homology_presents_vertex_groups_by_generators(monkeypatch):
    # loop over F_3^3 with the identity: one relator [x][s] = [xs] per
    # nonzero x and s in generating_sequence, and one row per nonzero edge
    # element; all (|G| - 1)^2 products would give 676 + 26 rows
    G = catalog.elementary_abelian(3, 3)
    ide = Homomorphism(G, G, list(range(27)))
    loop = GraphOfGroups(Graph.from_topological(1, [(0, 0)]), [G], [G, G],
                         [ide, ide])
    counts, real = [], certify.smith_abelianization

    def recording(pres):
        counts.append(len(pres.relators))
        return real(pres)
    monkeypatch.setattr(certify, "smith_abelianization", recording)
    r = homology_fiber_sum_check(loop)
    assert counts == [26 * len(groups.generating_sequence(G)) + 26] == [104]
    assert r["match"] and r["H1_free_rank"] == 1 and r["H1_torsion"] == [3, 3, 3]


def test_separating_level():
    gog = c4_star_c4()
    gfilt = GogFiltration(gog, tuple(lower_central_p_series(gog.vgroups[v], 2)
                                     for v in range(2)))
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    com = ctx.normal_form(word_to_path(
        gog, tree, 0, [Letter("g", 0, 1), Letter("g", 1, 1),
                       Letter("g", 0, 3), Letter("g", 1, 3)]))
    assert separating_level(gog, gfilt, com, ctx)["level"] == 2
    # a length-0 word g0 inside gamma^2_2 needs a deeper level
    w = ctx.normal_form(word_to_path(gog, tree, 0, [Letter("g", 0, 2)]))
    assert separating_level(gog, gfilt, w, ctx)["level"] == 3
    with pytest.raises(ValueError):
        separating_level(gog, gfilt,
                         word_to_path(gog, tree, 0, [Letter("g", 0, 0)]), ctx)


def test_certificate_never_used_as_equality_oracle():
    # the commutator of the two C4 generators is nontrivial in pi_1 but dies
    # in the abelian certificate target: normal forms decide equality, the
    # certificate only separates what it separates
    gog = c4_star_c4()
    dec = certify_residually_p(gog, 2)
    cert = dec.certificate
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    com = word_to_path(gog, tree, 0, [Letter("g", 0, 1), Letter("g", 1, 1),
                                      Letter("g", 0, 3), Letter("g", 1, 3)])
    assert ctx.normal_form(com) != ctx.identity(0)
    assert evaluate(cert, com) == 0       # killed by the abelian target


def test_theta_graph_routes():
    # the theta graph certifies through partial abelianization and through
    # the reduction route, whose stabilizer search finds its extensions
    # within a few candidates
    tg = theta_graph()
    dec = certify_residually_p(tg, 2)
    assert dec.is_yes and dec.certificate.target.order == 8
    dec.certificate.verify()
    gfilt = GogFiltration(tg, tuple(lower_central_p_series(g, 2)
                                    for g in tg.vgroups))
    dec2 = reduction_certify(tg, gfilt, None, 2)
    assert dec2.is_yes and dec2.certificate.target.order == 64
    dec2.certificate.verify()


def test_reduction_unknown_on_long_tree():
    # a path of three C4's makes the predicted tower astronomically large;
    # the pipeline must refuse via the cap, instantly and honestly
    C4 = catalog.cyclic(4)
    C4b, C4c = fresh(C4, "C4b"), fresh(C4, "C4c")
    C2 = catalog.cyclic(2)
    Y = Graph.from_topological(3, [(0, 1), (1, 2)])
    gog = GraphOfGroups(
        Y, [C4, C4b, C4c], [C2, C2, C2, C2],
        [Homomorphism(C2, C4b, [0, 2]), Homomorphism(C2, C4, [0, 2]),
         Homomorphism(C2, C4c, [0, 2]), Homomorphism(C2, C4b, [0, 2])])
    gfilt = GogFiltration(gog, tuple(lower_central_p_series(g, 2)
                                     for g in gog.vgroups))
    dec = reduction_certify(gog, gfilt, None, 2)
    # the prediction is clamped at 2^62 and shown as that bound
    assert dec.status == UNKNOWN
    assert dec.reason == ("tree amalgamation failed: "
                          "predicted |W| ≥ 2^62 exceeds cap 4096")


def test_colimit_loop_with_trivial_edge_group():
    # single vertex A with a trivial-edge loop: Sigma(G) = A even with the
    # loop relations included
    A = catalog.abelian(4, 2)
    triv = catalog.cyclic(1)
    Y = Graph.from_topological(1, [(0, 0)])
    f = Homomorphism(triv, A, [0])
    gog = GraphOfGroups(Y, [A], [triv, triv], [f, f])
    col = colimit_sigma(gog, maximal_subtree(gog.graph))
    assert col.sigma.order == 8 and col.injections[0].is_injective()


def test_separating_level_trivial_edge_graph():
    # free product of two C_3's: any nonempty reduced word separates at the
    # first level past the top of a chief-type filtration
    gog = free_product(catalog.cyclic(3), fresh(catalog.cyclic(3), "C3b"))
    gfilt = GogFiltration(gog, tuple(lower_central_p_series(g, 3)
                                     for g in gog.vgroups))
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    w = ctx.normal_form(word_to_path(gog, tree, 0, [Letter("g", 0, 1),
                                                    Letter("g", 1, 2)]))
    assert separating_level(gog, gfilt, w, ctx)["level"] == 2


def test_certify_nonabelian_amalgams():
    # gamma^p collections are incompatible here; the fastest compatible
    # central-p collection (fixpoint enlargement along edges) certifies
    D8 = catalog.dihedral(4)
    C2 = catalog.cyclic(2)
    C2b = fresh(C2, "C2b")
    Y = Graph.from_topological(2, [(0, 1)])
    gog = GraphOfGroups(Y, [D8, C2b], [C2, C2],
                        [Homomorphism(C2, C2b, [0, 1]),
                         Homomorphism(C2, D8, [0, 4])])
    dec = certify_residually_p(gog, 2)
    assert dec.is_yes and dec.certificate.target.order == 64
    dec.certificate.verify()
    Q8 = catalog.quaternion8()
    C4 = catalog.cyclic(4)
    gog2 = GraphOfGroups(Y, [Q8, C4], [C2, C2],
                         [Homomorphism(C2, C4, [0, 2]),
                          Homomorphism(C2, Q8, [0, 1])])
    dec2 = certify_residually_p(gog2, 2)
    assert dec2.is_yes and dec2.certificate.target.order == 2048
    dec2.certificate.verify()


def test_compatible_gamma_collection_properties():
    from residuap.certify import compatible_gamma_collection
    D8 = catalog.dihedral(4)
    C2 = catalog.cyclic(2)
    C2b = fresh(C2, "C2b")
    Y = Graph.from_topological(2, [(0, 1)])
    gog = GraphOfGroups(Y, [D8, C2b], [C2, C2],
                        [Homomorphism(C2, C2b, [0, 1]),
                         Homomorphism(C2, D8, [0, 4])])
    gf = compatible_gamma_collection(gog, 2)
    assert gf is not None
    for v in range(2):
        F = gf.filtrations[v]
        assert F.is_central_p(2) and F.length() is not None
        # fastest-descent: the collection lies above gamma^p termwise
        gp = lower_central_p_series(gog.vgroups[v], 2)
        for n in range(1, len(F.terms) + 1):
            assert set(gp.term(n).elems) <= set(F.term(n).elems)


GAMMA_REFERENCE_GROUPS = {
    2: ["C4", "C2^2", "C8", "C4xC2", "C2^3", "D8", "Q8", "C4xC4", "D16",
        "SD16"],
    3: ["C9", "C3^2", "C9xC3", "Heis27", "C9:C3"]}


def test_gamma_collection_matches_the_two_route_reference():
    """compatible_gamma_collection against the gamma^p series with the old
    fallback (helpers.reference_gamma_gog_filtration) on seeded amalgams and
    HNN loops: None on the same inputs, else the same terms at every level
    up to the deeper of the two.  Some inputs have gamma^p series that are
    not compatible, and on some of those the result is None."""
    rng = random.Random("gamma-collection-reference")
    seen = set()
    for k in range(120):
        p = 2 if k % 4 < 2 else 3
        names = GAMMA_REFERENCE_GROUPS[p]
        G = catalog.by_name(rng.choice(names))
        gog = (random_hnn_loop(G, rng) if k % 2 else
               random_amalgam(G, catalog.by_name(rng.choice(names)), rng))
        if gog is None:
            continue
        ref = reference_gamma_gog_filtration(gog, p)
        new = certify.compatible_gamma_collection(gog, p)
        try:
            GogFiltration(gog, tuple(lower_central_p_series(G, p)
                                     for G in gog.vgroups))
            fast = True
        except ValueError:
            fast = False
        seen.add((fast, new is None))
        assert (ref is None) == (new is None)
        if new is None:
            continue
        depth = max(ref.depth(), new.depth())
        for Fr, Fn in zip(ref.filtrations, new.filtrations):
            assert [Fr.term(n).elems for n in range(1, depth + 1)] == \
                [Fn.term(n).elems for n in range(1, depth + 1)]
    assert seen == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("name", ["C4xC2", "C8xC2", "C4xC2xC2", "C9xC3"])
def test_hnn_loops_over_abelian_groups_give_a_decision(name):
    G = catalog.by_name(name)
    rng = random.Random(f"hnn-loops:{name}")
    for _ in range(12):
        dec = certify_residually_p(random_hnn_loop(G, rng), G.prime())
        assert dec.status in (YES, NO, UNKNOWN)
        if dec.is_yes:
            dec.certificate.verify()


def test_stabilizer_search_stops_at_the_first_extension(monkeypatch):
    """C8 amalgamated with F_2^4 over C2, plus a loop with trivial edge
    group at vertex 0: Sigma = C8 x C2^3 of order 64, and the loop gives the
    identity on {0}.  The first automorphism that extends it, the identity,
    preserves any chain, so the stabilizer search needs one yield of the
    homomorphism search, not all 43,008 automorphisms of Sigma."""
    c8 = {"order": 8, "name": "C8",
          "mult": [[(i + j) % 8 for j in range(8)] for i in range(8)]}
    f16 = {"order": 16, "name": "F2^4",
           "mult": [[i ^ j for j in range(16)] for i in range(16)]}
    gog = serialize.gog_from_obj({
        "graph": {"nv": 2, "bar": [1, 0, 3, 2], "orig": [0, 1, 0, 0],
                  "term": [1, 0, 0, 0]},
        "vgroups": [c8, f16], "egroup_of_edge": [0, 0, 1, 1],
        "egroups": [{"order": 2, "mult": [[0, 1], [1, 0]], "name": "C2"},
                    {"order": 1, "mult": [[0]], "name": "1"}],
        "emaps": [[0, 1], [0, 4], [0], [0]]})
    search = groups._homomorphisms
    yields = []

    def bounded(*args):
        for m in search(*args):
            yields.append(1)
            if len(yields) > 10:
                raise AssertionError("more than 10 yields of the search")
            yield m

    monkeypatch.setattr(groups, "_homomorphisms", bounded)
    dec = certify_residually_p(gog, 2)
    assert dec.is_yes and dec.certificate.target.order == 64
    dec.certificate.verify()
    assert len(yields) == 1


def test_sigma_coordinates_are_built_once(monkeypatch):
    from residuap import certify, embed
    built, sigmas = [], []
    init, colimit = embed.ElabSpace.__init__, certify.colimit_sigma

    def counting_init(self, V):
        built.append(V)
        init(self, V)

    def recording_colimit(*args):
        col = colimit(*args)
        sigmas.append(col.sigma)
        return col
    monkeypatch.setattr(embed.ElabSpace, "__init__", counting_init)
    monkeypatch.setattr(certify, "colimit_sigma", recording_colimit)
    assert certify_residually_p(shift_loop(), 3).is_yes
    (sigma,) = sigmas
    assert sum(V is sigma for V in built) == 1
