"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime when it completes within the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from helpers import (axis_swap_loop, c4_star_c4, chain, comm, d8_center_hnn,
                     elab_elem, fresh, free_product, inverse, multiply,
                     nf_test_graphs, random_closed_word, shift_loop, swap_loop,
                     theta_graph)

from residuap import catalog, serialize
from residuap.algebra import (augmentation_ideal_powers, buckley_check,
                              jennings_series, wreath_class_formula)
from residuap.certify import certify_residually_p
from residuap.cli import main as cli_main
from residuap.congruence import (congruence_layer_check, matrix_p_filtration,
                                 MatrixGroupSpec, power_map_injectivity,
                                 sl2_congruence_tower, TSpec,
                                 unitriangular_order)
from residuap.embed import (Amalgam, ElabSpace, PartialAutomorphism,
                            amalgam_embeddable, amalgam_scan,
                            feasible_witness, higman_embed,
                            scan_amalgam_object, unipotent_flag_extend)
from residuap.filtration import dimension_series, lower_central_series
from residuap.graphs import (Graph, GraphOfGroups, maximal_subtree,
                             NormalFormContext, quotient_gog, unfold_graph,
                             unfold_gog)
from residuap.groups import (FiniteGroup, Homomorphism, Subgroup,
                             subgroup_generated)
from residuap.smith import Presentation


def report(num, label, t0, budget=None):
    dt = time.time() - t0
    line = f"ACCEPTANCE {num:02d} {label}: PASS ({dt:.1f}s"
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget"
        line += f" < {budget}s"
    print(line + ")")


def test_criterion_01_jennings_identity():
    t0 = time.time()
    for p, bound in ((2, 64), (3, 81)):
        for G in catalog.property_suite(p):
            if G.order > bound:
                continue
            jen = jennings_series(G, p)          # asserts == dimension series
            dim = dimension_series(G, p)         # asserts recursive == Lazard
            for n in range(1, max(len(jen.terms), len(dim.terms)) + 1):
                assert jen.term(n).elems == dim.term(n).elems
            _, _, d = augmentation_ideal_powers(G, p)
            total = 0
            n = 1
            while len(dim.term(n)) > 1:
                k = int(round(math.log(
                    len(dim.term(n)) // len(dim.term(n + 1)), p)))
                total += n * k
                n += 1
            assert d == (p - 1) * total
    report(1, "Jennings identity over the catalog", t0, budget=60)


def test_criterion_02_buckley_equalities():
    t0 = time.time()
    cases = [(2, catalog.cyclic(2)), (2, catalog.cyclic(4)),
             (2, catalog.klein4()), (3, catalog.cyclic(3))]
    for p, H in cases:
        _, _, d = augmentation_ideal_powers(H, p)
        rep = buckley_check(p, H, n_max=d + 1)
        assert rep["ok"], rep
    report(2, "Buckley base-intersection equalities", t0, budget=120)


def test_criterion_03_wreath_class_formula():
    t0 = time.time()
    for p in (2, 3):
        rep = wreath_class_formula(p, catalog.cyclic(p))
        assert rep["class_gamma"] == p
        assert rep["agree"]
    report(3, "class(F_p wr C_p) = p", t0)


def test_criterion_04_section22_examples(tmp_path):
    t0 = time.time()
    # positive: the F_3^3 shift loop certifies (exit 0 through the CLI)
    pos = tmp_path / "shift.json"
    pos.write_text(serialize.dumps({"gog": serialize.gog_to_obj(shift_loop())}))
    assert cli_main(["gog", "certify", "--file", str(pos), "--p", "3",
                     "--json"]) == 0
    # negative: the F_3^2 swap loop refutes (exit 10)
    neg = tmp_path / "swap.json"
    neg.write_text(serialize.dumps({"gog": serialize.gog_to_obj(swap_loop())}))
    assert cli_main(["gog", "certify", "--file", str(neg), "--p", "3",
                     "--json"]) == 10
    # negative: the transvection pair on F_p^2 (exit 10 through embed flag)
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)

    def mat_map(mat):
        out = {}
        for g in range(V.order):
            vec = sp.vec(g)
            img = tuple(sum(mat[i][j] * vec[j] for j in range(2)) % 3
                        for i in range(2))
            out[g] = elab_elem(sp, img)
        return [[k, v] for k, v in sorted(out.items())]

    f = tmp_path / "transvections.json"
    f.write_text(serialize.dumps({
        "group": serialize.group_to_obj(V),
        "partial_automorphisms": [{"map": mat_map([[1, 1], [0, 1]])},
                                  {"map": mat_map([[1, 0], [1, 1]])}]}))
    assert cli_main(["embed", "flag", "--file", str(f), "--json"]) == 10
    report(4, "the three worked examples reproduce exactly", t0)


def _suite_amalgams():
    """Eleven 2-group amalgams of order <= 8 with explicit central chains."""
    C2 = catalog.cyclic(2)
    C4 = catalog.cyclic(4)
    V4 = catalog.klein4()
    C8 = catalog.cyclic(8)
    E8 = catalog.elementary_abelian(2, 3)
    D8 = catalog.dihedral(4)
    Q8 = catalog.quaternion8()
    M8 = catalog.abelian(4, 2)
    triv = catalog.cyclic(1)
    out = []

    def add(label, G, H, U, ug, uh, fg_lists, fh_lists):
        Hc = fresh(H, H.name + "'")
        am = Amalgam(G, Hc, U, Homomorphism(U, G, ug),
                     Homomorphism(U, Hc, uh))
        out.append((label, am, chain(G, *fg_lists), chain(Hc, *fh_lists)))

    add("C4 u C4 | C2", C4, C4, C2, [0, 2], [0, 2], ([0, 2],), ([0, 2],))
    add("C2 u C2 | 1", C2, C2, triv, [0], [0], (), ())
    add("C2^2 u C2^2 | C2 axes", V4, V4, C2, [0, 1], [0, 1],
        ([0, 1],), ([0, 1],))
    add("C2^3 u C2^2 | C2^2", E8, V4, V4, [0, 1, 2, 3], [0, 1, 2, 3], (), ())
    add("C4 u C2^2 | C2", C4, V4, C2, [0, 2], [0, 1], ([0, 2],), ([0, 1],))
    add("C4 u C2 | C2", C4, C2, C2, [0, 2], [0, 1],
        ([0, 2],), ([0, 1], [0, 1]))
    add("D8 u C2 | Z", D8, C2, C2, [0, 4], [0, 1],
        ([0, 4],), ([0, 1], [0, 1]))
    add("Q8 u C4 | C2", Q8, C4, C2, [0, 1], [0, 2], ([0, 1],), ([0, 2],))
    add("D8 u C4 | C2", D8, C4, C2, [0, 4], [0, 2], ([0, 4],), ([0, 2],))
    add("C2^2 u C2^2 | C2 diagonal", V4, V4, C2, [0, 3], [0, 1],
        ([0, 3],), ([0, 1],))
    # the C4-factor of C4xC2 has its square at index 4 (C4-major indexing)
    add("C4xC2 u C4 | C2", M8, C4, C2, [0, 4], [0, 2],
        ([0, 4],), ([0, 2],))
    return out


def test_criterion_05_higman_suite():
    t0 = time.time()
    suite = _suite_amalgams()
    assert len(suite) >= 10
    orders = {}
    for label, am, FG, FH in suite:
        res = higman_embed(am, FG, FH, cap=4096, verify=True)
        orders[label] = res.embedding.W.order
    assert orders["C4 u C4 | C2"] == 64
    report(5, f"higman suite of {len(suite)} amalgams "
              f"(orders {sorted(set(orders.values()))})", t0, budget=300)


def test_criterion_06_scan_cross_check():
    t0 = time.time()
    groups = catalog.two_group_scan_list(16)
    recs = amalgam_scan(groups)
    yes = [r for r in recs if r.embeddable]
    no = [r for r in recs if not r.embeddable]
    assert yes and no
    # golden negative: the first provably-no instance under the fixed
    # enumeration is the twisted D8 u D8 | V4 amalgam
    first = no[0]
    assert (first.g_name, first.h_name, first.u_g, first.u_h, first.iso) == \
        ("D8", "D8'", (0, 1, 4, 5), (0, 1, 4, 5), (0, 1, 3, 2))
    # cross-check on a deterministic sample: every feasible yes runs green,
    # every sampled no has no aligned pair at all
    rng = random.Random(0)
    sample_yes = yes[:20] + [yes[i] for i in
                             sorted(rng.sample(range(len(yes)), 20))]
    verified = infeasible = 0
    for rec in sample_yes:
        am = scan_amalgam_object(groups, rec)
        dec = amalgam_embeddable(am)
        assert dec.is_yes
        fw = feasible_witness(am, dec.certificate, 2, cap=2048)
        if fw is None:
            infeasible += 1
            continue
        higman_embed(am, fw[0], fw[1], cap=2048, verify=True)
        verified += 1
    for rec in no[:10] + [no[i] for i in
                          sorted(rng.sample(range(len(no)), 10))]:
        am = scan_amalgam_object(groups, rec)
        assert amalgam_embeddable(am).is_no
    assert verified >= 20
    report(6, f"scan of {len(recs)} amalgams: {len(yes)} yes / {len(no)} no, "
              f"{verified} higman-verified, {infeasible} beyond cap", t0)


def test_criterion_07_unfolding():
    t0 = time.time()
    # loop unfolds to an s-cycle
    loop = Graph.from_topological(1, [(0, 0)])
    tree = maximal_subtree(loop)
    for s in (2, 3, 5):
        A = catalog.cyclic(s)
        cov, _, _ = unfold_graph(loop, tree, [1, (s - 1) % s], A)
        assert cov.nv == s and cov.ne == 2 * s and cov.betti() == 1
    # Betti identity on 20 seeded (Y, psi)
    rng = random.Random(2026)
    done = 0
    while done < 20:
        nv = rng.randrange(1, 4)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        edges += [(rng.randrange(nv), rng.randrange(nv))
                  for _ in range(rng.randrange(1, 3))]
        Y = Graph.from_topological(nv, edges)
        tr = maximal_subtree(Y)
        s = rng.choice([2, 3, 5])
        A = catalog.cyclic(s)
        psi = [0] * Y.ne
        non_tree = [e for e in range(Y.ne) if e not in tr and e < Y.bar[e]]
        if not non_tree:
            continue
        for i, e in enumerate(non_tree):
            val = 1 if i == 0 else rng.randrange(s)
            psi[e], psi[Y.bar[e]] = val, (-val) % s
        cov, _, _ = unfold_graph(Y, tr, psi, A)
        assert cov.betti() == 1 + s * (Y.betti() - 1)
        done += 1
    # unfold then quotient == quotient then unfold on 10 seeded instances
    for trial in range(10):
        gog = axis_swap_loop() if trial % 2 == 0 else d8_center_hnn()
        Y = gog.graph
        tr = maximal_subtree(Y)
        A = catalog.cyclic(2)
        psi = [0] * Y.ne
        for e in range(Y.ne):
            if e not in tr:
                psi[e] = 1
        subs = ([subgroup_generated(gog.vgroups[0], [])] if trial % 2 == 0
                else [subgroup_generated(gog.vgroups[0], [4])])
        q, _ = quotient_gog(gog, subs)
        uq, _ = unfold_gog(q, tr, psi, A)
        ug, mor = unfold_gog(gog, tr, psi, A)
        pulled = [Subgroup(ug.vgroups[i], subs[mor.vertex_map[i]].elems,
                           check=False) for i in range(ug.graph.nv)]
        qu, _ = quotient_gog(ug, pulled)
        assert uq.graph.bar == qu.graph.bar and uq.graph.term == qu.graph.term
        for i in range(uq.graph.nv):
            assert (uq.vgroups[i].mult == qu.vgroups[i].mult).all()
        for e in range(uq.graph.ne):
            assert (uq.emaps[e].map == qu.emaps[e].map).all()
    report(7, "unfolding: s-cycles, Betti identity, quotient commutation", t0)


def test_criterion_08_certification(tmp_path):
    t0 = time.time()
    # C4 *_C2 C4: residually 2 with target of order 8
    dec = certify_residually_p(c4_star_c4(), 2)
    assert dec.is_yes and dec.certificate.target.order == 8
    emitted = [dec]
    # free products of catalog p-groups: target is the direct product
    for G, H in ((catalog.cyclic(3), fresh(catalog.cyclic(3), "C3b")),
                 (catalog.dihedral(4), fresh(catalog.dihedral(4), "D8b")),
                 (catalog.quaternion8(), fresh(catalog.cyclic(4), "C4b"))):
        d = certify_residually_p(free_product(G, H), G.prime())
        assert d.is_yes and d.certificate.target.order == G.order * H.order
        emitted.append(d)
    emitted.append(certify_residually_p(shift_loop(), 3))
    # every emitted certificate round-trips through `verify`
    for i, d in enumerate(emitted):
        f = tmp_path / f"cert{i}.json"
        f.write_text(serialize.dumps(
            serialize.certificate_to_obj(d.certificate)))
        assert cli_main(["verify", "--file", str(f), "--json"]) == 0
    report(8, f"certification with {len(emitted)} verified certificates", t0)


def test_criterion_09_congruence():
    t0 = time.time()
    for p in (2, 3):
        for k in (1, 2, 3):
            tower = sl2_congruence_tower(p, k)
            assert tower.full.order == p ** (3 * k - 2) * (p * p - 1)
    rep = congruence_layer_check(2, 3)
    assert rep["commutator_ok"] and \
        all(l["elementary_abelian_p3"] for l in rep["layers"])
    rep = congruence_layer_check(3, 3)
    assert rep["commutator_ok"] and \
        all(l["elementary_abelian_p3"] for l in rep["layers"])
    for k in (3, 4):
        rep = power_map_injectivity(3, k)
        assert rep["all_injective"]
    assert unitriangular_order(2, 3, 2, [[0, 1], [0, 0]]) == 9
    report(9, "congruence tower facts", t0, budget=180)


def test_criterion_10_matrix_p_filtration():
    t0 = time.time()
    spec = MatrixGroupSpec(
        generators=(((1, 1), (0, 1)),),
        presentation=Presentation(1, ()),
        subgroups=(TSpec(((1,),)), TSpec(((1, 1),))))
    rep = matrix_p_filtration(spec, 3, 3)
    assert rep["subgroups"][0]["level"] == 1
    assert all(e["level"] == 1 for e in rep["subgroups"][0]["per_k"])
    rep = matrix_p_filtration(spec, 2, 3)
    assert rep["subgroups"][1]["level"] == 0      # level-0 behavior at p = 2
    report(10, "matrix p-filtration levels (1 at p=3, 0 at p=2)", t0)


def test_criterion_11_normal_form_congruence():
    t0 = time.time()
    graphs5 = nf_test_graphs()
    for idx, gog in enumerate(graphs5):
        ctx = NormalFormContext(gog)
        tree = maximal_subtree(gog.graph)
        rng = random.Random(1000 + idx)
        for _ in range(1000):
            w = random_closed_word(gog, tree, 0, rng, max_letters=5)
            assert ctx.normal_form(multiply(gog, w, inverse(gog, w))) == \
                ctx.identity(0)
        rng = random.Random(2000 + idx)
        for _ in range(200):
            u = random_closed_word(gog, tree, 0, rng, max_letters=4)
            v = random_closed_word(gog, tree, 0, rng, max_letters=4)
            lhs = ctx.normal_form(multiply(gog, u, v))
            rhs = ctx.normal_form(multiply(gog, ctx.normal_form(u),
                                           ctx.normal_form(v)))
            assert lhs == rhs
    report(11, "normal-form congruence: 5000 round trips, 1000 pairs", t0)


def test_criterion_12_hall_petrescu():
    t0 = time.time()
    for p in (2, 3):
        from residuap.filtration import lower_central_p_series
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
    report(12, "Hall-Petrescu congruences, m <= 3, all catalog groups", t0)
