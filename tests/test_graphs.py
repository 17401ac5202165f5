import random

import pytest

from helpers import (Letter, axis_swap_loop, c4_star_c4, d8_center_hnn, fresh,
                     free_product, inverse, multiply, nf_test_graphs,
                     random_closed_word, theta_graph, tree_geodesic,
                     word_to_path)

from residuap import catalog
from residuap.filtration import lower_central_p_series
from residuap.graphs import (GogFiltration, Graph, GraphOfGroups,
                             NormalFormContext, common_cover, maximal_subtree,
                             path_word, quotient_gog, unfold_gog, unfold_graph)
from residuap.groups import Homomorphism, Subgroup, subgroup_generated


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [0, 1], [0, 1], [1, 0])       # bar not fixed-point-free
    with pytest.raises(ValueError):
        Graph(2, [1, 0], [0, 0], [1, 1])       # orig(e) != term(bar e)
    with pytest.raises(ValueError):
        Graph.from_topological(3, [(0, 1)])    # disconnected
    Y = Graph.from_topological(2, [(0, 1), (1, 1)])
    assert Y.betti() == 1


def test_maximal_subtree():
    Y = Graph.from_topological(3, [(0, 1), (1, 2), (2, 0)])
    tree = maximal_subtree(Y)
    assert len(tree) == 4                       # 2 topological edges
    loop = Graph.from_topological(1, [(0, 0)])
    assert maximal_subtree(loop) == frozenset()
    wedge = Graph.from_topological(1, [(0, 0), (0, 0)])
    assert maximal_subtree(wedge) == frozenset()
    # the BFS tree of the triangle joins 0 to 2 directly
    assert len(tree_geodesic(Y, tree, 0, 2)) == 1
    P = Graph.from_topological(3, [(0, 1), (1, 2)])
    tp = maximal_subtree(P)
    assert len(tree_geodesic(P, tp, 0, 2)) == 2


def test_normal_form_a2_equals_b2():
    gog = c4_star_c4()
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    w1 = word_to_path(gog, tree, 0, [Letter("g", 0, 2)])
    w2 = word_to_path(gog, tree, 0, [Letter("g", 1, 2)])
    assert ctx.normal_form(w1) == ctx.normal_form(w2)
    com = word_to_path(gog, tree, 0, [Letter("g", 0, 1), Letter("g", 1, 1),
                                      Letter("g", 0, 3), Letter("g", 1, 3)])
    nf = ctx.normal_form(com)
    assert nf != ctx.identity(0) and ctx.is_reduced(nf)


def test_free_product_words():
    gog = free_product(catalog.cyclic(2), fresh(catalog.cyclic(2), "C2b"))
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    aa = word_to_path(gog, tree, 0, [Letter("g", 0, 1), Letter("g", 0, 1)])
    assert ctx.normal_form(aa) == ctx.identity(0)
    ab = word_to_path(gog, tree, 0, [Letter("g", 0, 1), Letter("g", 1, 1)])
    nf = ctx.normal_form(ab)
    assert nf != ctx.identity(0) and nf.length() == 2


@pytest.mark.parametrize("idx", range(5))
def test_normal_form_round_trips_and_congruence(idx):
    gog = nf_test_graphs()[idx]
    ctx = NormalFormContext(gog)
    tree = maximal_subtree(gog.graph)
    rng = random.Random(100 + idx)
    for _ in range(150):
        w = random_closed_word(gog, tree, 0, rng)
        winv = inverse(gog, w)
        assert ctx.normal_form(multiply(gog, w, winv)) == ctx.identity(0)
        u = random_closed_word(gog, tree, 0, rng)
        lhs = ctx.normal_form(multiply(gog, w, u))
        rhs = ctx.normal_form(multiply(gog, ctx.normal_form(w),
                                       ctx.normal_form(u)))
        assert lhs == rhs


def test_base_point_independence():
    gog = c4_star_c4()
    ctx = NormalFormContext(gog)
    Y = gog.graph
    tree = maximal_subtree(Y)
    rng = random.Random(5)
    # conjugation by the geodesic from v1 to v0 gives a bijection of classes
    geo = path_word(gog, 1, 0, [(e, 0) for e in tree_geodesic(Y, tree, 1, 0)])
    geo_inv = inverse(gog, geo)
    for _ in range(50):
        u = random_closed_word(gog, tree, 0, rng)
        v = random_closed_word(gog, tree, 0, rng)
        u1 = multiply(gog, multiply(gog, geo, u), geo_inv)
        v1 = multiply(gog, multiply(gog, geo, v), geo_inv)
        assert (ctx.normal_form(u) == ctx.normal_form(v)) == \
            (ctx.normal_form(u1) == ctx.normal_form(v1))


def test_quotient_gog():
    gog = c4_star_c4()
    # level-2 collection of the gamma^2 series: edge group collapses
    subs = [subgroup_generated(gog.vgroups[0], [2]),
            subgroup_generated(gog.vgroups[1], [2])]
    q, mor = quotient_gog(gog, subs)
    assert [g.order for g in q.vgroups] == [2, 2]
    assert q.egroups[0].order == 1
    # trivial collection: original group sizes
    subs0 = [subgroup_generated(gog.vgroups[0], []),
             subgroup_generated(gog.vgroups[1], [])]
    q0, _ = quotient_gog(gog, subs0)
    assert [g.order for g in q0.vgroups] == [4, 4]
    # full collection: graph of trivial groups
    from residuap.groups import full_subgroup
    qf, _ = quotient_gog(gog, [full_subgroup(gog.vgroups[0]),
                               full_subgroup(gog.vgroups[1])])
    assert all(g.order == 1 for g in qf.vgroups)


def test_quotient_gog_rejects_incompatible():
    gog = c4_star_c4()
    subs = [subgroup_generated(gog.vgroups[0], [2]),
            subgroup_generated(gog.vgroups[1], [])]
    with pytest.raises(ValueError):
        quotient_gog(gog, subs)


def test_common_cover_two_vertices():
    gog = c4_star_c4()
    subs = [subgroup_generated(gog.vgroups[0], [2]),
            subgroup_generated(gog.vgroups[1], [2])]
    cover, mor, deg = common_cover(gog, subs)
    assert deg == 2
    assert cover.graph.is_connected()
    for i, g in enumerate(cover.vgroups):
        assert g.order == 2
    # degree is a power of p when all indices are p-powers
    assert deg & (deg - 1) == 0


def test_common_cover_identity():
    gog = d8_center_hnn()
    from residuap.groups import full_subgroup
    cover, mor, deg = common_cover(gog, [full_subgroup(gog.vgroups[0])])
    assert deg == 1 and cover.graph.nv == 1


def test_unfold_graph_shapes():
    loop = Graph.from_topological(1, [(0, 0)])
    tree = maximal_subtree(loop)
    for s in (2, 3, 5):
        A = catalog.cyclic(s)
        cov, _, _ = unfold_graph(loop, tree, [1, (s - 1) % s], A)
        assert cov.nv == s and cov.ne == 2 * s and cov.betti() == 1
    # a tree unfolds to itself
    Y = Graph.from_topological(3, [(0, 1), (1, 2)])
    t = maximal_subtree(Y)
    cov, _, _ = unfold_graph(Y, t, [0] * Y.ne, catalog.cyclic(1))
    assert cov.nv == 3 and cov.ne == 4


def test_unfold_involution_laws_and_generation_error():
    Y = Graph.from_topological(1, [(0, 0), (0, 0)])
    tree = maximal_subtree(Y)
    C2 = catalog.cyclic(2)
    cov, _, _ = unfold_graph(Y, tree, [1, 1, 0, 0], C2)
    for e in range(cov.ne):
        assert cov.bar[cov.bar[e]] == e and cov.bar[e] != e
        assert cov.orig[e] == cov.term[cov.bar[e]]
    C4 = catalog.cyclic(4)
    with pytest.raises(ValueError):
        unfold_graph(Y, tree, [2, 2, 0, 0], C4)     # psi(E) generates C2 < C4


def test_unfold_quotient_commutes():
    # unfold(G/H) == unfold(G)/pullback(H), componentwise
    rng = random.Random(23)
    for trial in range(10):
        gog = axis_swap_loop() if trial % 2 == 0 else d8_center_hnn()
        Y = gog.graph
        tree = maximal_subtree(Y)
        A = catalog.cyclic(2)
        psi = [0] * Y.ne
        non_tree = [e for e in range(Y.ne) if e not in tree and e < Y.bar[e]]
        for e in non_tree:
            psi[e] = 1
            psi[Y.bar[e]] = 1
        if trial % 2 == 0:
            subs = [subgroup_generated(gog.vgroups[0], [])]
            p = 3
        else:
            subs = [subgroup_generated(gog.vgroups[0], [4])]
            p = 2
        # route 1: quotient then unfold
        q, _ = quotient_gog(gog, subs)
        uq, _ = unfold_gog(q, tree, psi, A)
        # route 2: unfold then quotient by the pulled-back collection
        ug, mor = unfold_gog(gog, tree, psi, A)
        pulled = [Subgroup(ug.vgroups[i],
                           subs[mor.vertex_map[i]].elems, check=False)
                  for i in range(ug.graph.nv)]
        qu, _ = quotient_gog(ug, pulled)
        assert uq.graph.bar == qu.graph.bar
        assert uq.graph.orig == qu.graph.orig
        for i in range(uq.graph.nv):
            assert (uq.vgroups[i].mult == qu.vgroups[i].mult).all()
        for e in range(uq.graph.ne):
            assert (uq.emaps[e].map == qu.emaps[e].map).all()


def test_gog_filtration_compatibility():
    gog = c4_star_c4()
    filts = tuple(lower_central_p_series(gog.vgroups[v], 2) for v in range(2))
    gf = GogFiltration(gog, filts)
    # the chain the vertex filtration at term(e) induces on the edge group
    edge_f = [gog.emaps[0].preimage(filts[gog.graph.term[0]].term(n))
              for n in range(1, gf.depth() + 1)]
    assert [len(t) for t in edge_f] == [2, 2, 1]


def test_common_cover_trivial_vertex_groups():
    triv = catalog.cyclic(1)
    Y = Graph.from_topological(2, [(0, 1), (0, 1)])
    f = Homomorphism(triv, triv, [0])
    gog = GraphOfGroups(Y, [triv, triv], [triv] * 4, [f, f, f, f])
    from residuap.groups import full_subgroup
    cover, mor, deg = common_cover(gog, [full_subgroup(triv)] * 2)
    assert deg == 1 and cover.graph.nv == 2


def test_reduced_nontriviality_and_idempotence():
    # nonempty normal forms are reduced, nontrivial, and fixed points
    for idx, gog in enumerate(nf_test_graphs()):
        ctx = NormalFormContext(gog)
        tree = maximal_subtree(gog.graph)
        rng = random.Random(400 + idx)
        nonempty = 0
        for _ in range(120):
            w = ctx.normal_form(random_closed_word(gog, tree, 0, rng))
            assert ctx.normal_form(w) == w
            if w.length() > 0:
                nonempty += 1
                assert ctx.is_reduced(w)
                assert w != ctx.identity(0)
        assert nonempty > 0
