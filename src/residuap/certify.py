"""Residually-p certification for graphs of finite p-groups: colimits,
partial abelianization, unfolding witnesses, and the reduction pipeline.

Every certificate-producing operation re-verifies the homomorphism property
on all defining relations and injectivity on all vertex groups before
returning; a certificate is a morphism to a p-group and can be re-checked
from scratch at any time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embed import (Amalgam, ElabSpace, PartialAutomorphism, higman_embed,
                    inner_extension, layerwise_inner_extension)
from .filtration import AlignmentError, lower_central_p_series
from .graphs import (GogFiltration, Graph, GraphOfGroups, NormalFormContext,
                     PathWord, maximal_subtree, unfold_gog)
from .groups import (CapExceeded, FiniteGroup, Homomorphism, Subgroup,
                     direct_product, permutation_closure, permutation_group,
                     quotient, require_prime, subgroup_generated)
from .results import NO, UNKNOWN, YES, Decision
from .smith import Presentation, smith_abelianization


# -- colimits of graphs of abelian groups ----------------------------------------

@dataclass
class ColimitData:
    sigma: FiniteGroup
    injections: tuple[Homomorphism, ...]    # one per vertex of the subgraph
    vertices: tuple[int, ...]               # subgraph vertices, in order


def colimit_sigma(gog: GraphOfGroups, edges: Optional[Sequence[int]] = None,
                  vertices: Optional[Sequence[int]] = None) -> ColimitData:
    """The colimit of a (sub)graph of abelian groups: the quotient of the
    direct sum of the vertex groups by the edge relations f_e(g) - f_bar(e)(g).
    """
    Y = gog.graph
    verts = tuple(vertices) if vertices is not None else tuple(range(Y.nv))
    eset = tuple(edges) if edges is not None else tuple(range(Y.ne))
    for v in verts:
        if not gog.vgroups[v].is_abelian:
            raise ValueError("colimits need abelian vertex groups")
    pos = {v: i for i, v in enumerate(verts)}
    total, embeds = _direct_sum([gog.vgroups[v] for v in verts])
    gens = []
    for e in eset:
        if Y.term[e] not in pos or Y.orig[e] not in pos:
            raise ValueError("edge leaves the chosen vertex set")
        fe = gog.emaps[e]
        fb = gog.emaps[Y.bar[e]]
        for x in range(gog.egroups[e].order):
            a = embeds[pos[Y.term[e]]](fe(x))
            b = embeds[pos[Y.term[Y.bar[e]]]](fb(x))
            gens.append(total.mul(a, total.inverse(b)))
    K = subgroup_generated(total, gens)
    S, proj = quotient(total, K)
    injections = tuple(proj.compose(embeds[pos[v]]) for v in verts)
    return ColimitData(S, injections, verts)


def _direct_sum(groups: Sequence[FiniteGroup]):
    total = groups[0]
    embeds = [None] * len(groups)
    maps = [np.arange(groups[0].order)]
    for i in range(1, len(groups)):
        total, eL, eR = direct_product(total, groups[i])
        maps = [eL.map[m] for m in maps]
        maps.append(eR.map)
    embeds = [Homomorphism(groups[i], total, maps[i], check=False)
              for i in range(len(groups))]
    return total, embeds


def colimit_factor(data: ColimitData, targets: Sequence[Homomorphism],
                   target_group: FiniteGroup) -> Homomorphism:
    """The unique morphism through the colimit for a compatible family."""
    # sigma is generated by the injected vertex groups; propagate products
    known = {0: 0}
    frontier = [0]
    gens = []
    for inj, psi in zip(data.injections, targets):
        for x in range(inj.dom.order):
            gens.append((inj(x), psi(x)))
    while frontier:
        new = []
        for s, t in list(known.items()):
            for gs, gt in gens:
                ns = data.sigma.mul(s, gs)
                nt = target_group.mul(t, gt)
                if ns in known:
                    if known[ns] != nt:
                        raise ValueError("family is not compatible: no factoring "
                                         "morphism exists")
                else:
                    known[ns] = nt
                    new.append(ns)
        frontier = new
    if len(known) != data.sigma.order:
        raise AssertionError("injections do not generate the colimit")
    return Homomorphism(data.sigma, target_group,
                        [known[i] for i in range(data.sigma.order)])


# -- partial abelianization -------------------------------------------------------

@dataclass
class PartialAbelianization:
    """Sigma(G|T) plus the HNN data of the non-tree edges as partial
    automorphisms of Sigma."""
    gog: GraphOfGroups
    tree: frozenset[int]
    oriented: tuple[int, ...]       # one edge per non-tree topological edge
    colimit: ColimitData
    pas: tuple[PartialAutomorphism, ...]


def orientation(Y: Graph, tree: frozenset[int]) -> tuple[int, ...]:
    """Non-tree edges with index(e) < index(bar e), ascending."""
    return tuple(e for e in range(Y.ne)
                 if e not in tree and e < Y.bar[e])


def partial_abelianization(gog: GraphOfGroups,
                           tree: frozenset[int]) -> PartialAbelianization:
    """Sigma(G|T) together with phi_e = f_bar(e) o f_e^{-1} for non-tree edges,
    realized as partial automorphisms of Sigma."""
    col = colimit_sigma(gog, edges=tuple(sorted(tree)))
    oriented = orientation(gog.graph, tree)
    pas = _edge_partial_automorphisms(gog, oriented, col.sigma, col.injections)
    return PartialAbelianization(gog, tree, oriented, col, pas)


def _edge_partial_automorphisms(gog: GraphOfGroups, oriented: Sequence[int],
                                target: FiniteGroup,
                                vmaps: Sequence[Homomorphism]):
    """phi_e = vmaps[term(bar e)] o f_bar(e) o (vmaps[term(e)] o f_e)^{-1}
    for each oriented edge e, as partial automorphisms of target."""
    Y = gog.graph
    pas = []
    for e in oriented:
        fe, fb = gog.emaps[e], gog.emaps[Y.bar[e]]
        vt, vo = vmaps[Y.term[e]], vmaps[Y.term[Y.bar[e]]]
        A = sorted({vt(fe(x)) for x in range(gog.egroups[e].order)})
        B = sorted({vo(fb(x)) for x in range(gog.egroups[e].order)})
        mapping = {vt(fe(x)): vo(fb(x)) for x in range(gog.egroups[e].order)}
        if len(mapping) != len(A):
            raise AssertionError("edge group does not embed into the target")
        pas.append(PartialAutomorphism(target, Subgroup(target, A, check=False),
                                       Subgroup(target, B, check=False),
                                       mapping))
    return tuple(pas)


# -- certificates ------------------------------------------------------------------

@dataclass
class Certificate:
    """A morphism pi_1(G, T) -> P, injective on every vertex group.

    Data: the target p-group, one map per vertex group, and the image of
    every edge (tree edges map to the identity).
    """
    gog: GraphOfGroups
    tree: frozenset[int]
    target: FiniteGroup
    vertex_maps: tuple[Homomorphism, ...]
    edge_images: tuple[int, ...]
    p: int

    def verify(self) -> None:
        Y = self.gog.graph
        P = self.target
        if not P.is_p_group(self.p):
            raise AssertionError("certificate target is not a p-group")
        for v, psi in enumerate(self.vertex_maps):
            if psi.dom is not self.gog.vgroups[v] or psi.cod is not P:
                raise AssertionError("vertex map endpoints are wrong")
            if not psi.is_injective():
                raise AssertionError(f"certificate is not injective on vertex {v}")
        for e in range(Y.ne):
            if e in self.tree and self.edge_images[e] != 0:
                raise AssertionError("tree edges must map to the identity")
            if P.mul(self.edge_images[e], self.edge_images[Y.bar[e]]) != 0:
                raise AssertionError("edge images must invert under bar")
            he = self.edge_images[e]
            fe, fb = self.gog.emaps[e], self.gog.emaps[Y.bar[e]]
            pt, po = self.vertex_maps[Y.term[e]], self.vertex_maps[Y.term[Y.bar[e]]]
            for x in range(self.gog.egroups[e].order):
                # relation e f_e(x) e^-1 = f_bar(e)(x)
                if P.conj(he, pt(fe(x))) != po(fb(x)):
                    raise AssertionError("certificate violates an edge relation")

    def evaluate(self, w: PathWord) -> int:
        """Image of a closed path under the certificate morphism."""
        Y = self.gog.graph
        P = self.target
        acc = self.vertex_maps[w.base](w.g0)
        for e, g in w.steps:
            acc = P.mul(acc, self.edge_images[e])
            acc = P.mul(acc, self.vertex_maps[Y.term[e]](g))
        return acc


# -- the certification pipeline -----------------------------------------------------

def certify_residually_p(gog: GraphOfGroups, p: int,
                         tree: Optional[frozenset[int]] = None,
                         cap: int = 4096) -> Decision:
    """A certificate that pi_1(G, T) is residually p, a refutation, or unknown.

    Pipeline: abelian vertex groups go through partial abelianization and the
    flag method; the general case runs the reduction pipeline along the
    lower central p-filtrations when they form a compatible collection.
    """
    require_prime(p)
    Y = gog.graph
    for v in range(Y.nv):
        if not gog.vgroups[v].is_p_group(p):
            raise ValueError("vertex groups must be p-groups")
    tree = tree if tree is not None else maximal_subtree(Y, 0)
    if all(gog.egroups[e].order == 1 for e in range(Y.ne)):
        return _certify_trivial_edges(gog, p, tree)
    if all(gog.vgroups[v].is_abelian for v in range(Y.nv)):
        return _certify_abelian(gog, p, tree, cap)
    gfilt = _gamma_gog_filtration(gog, p)
    if gfilt is None:
        return Decision(UNKNOWN, reason="lower central p-filtrations are not "
                                        "a compatible collection")
    return reduction_certify(gog, gfilt, tree, p, cap=cap)


def _certify_trivial_edges(gog: GraphOfGroups, p: int,
                           tree: frozenset[int]) -> Decision:
    """Free-product shape: the direct product of the vertex groups certifies,
    with all stable letters mapped to the identity."""
    total, embeds = _direct_sum(list(gog.vgroups))
    if not total.is_p_group(p):
        raise ValueError("vertex groups must be p-groups")
    cert = Certificate(gog, tree, total, tuple(embeds),
                       tuple(0 for _ in range(gog.graph.ne)), p)
    cert.verify()
    return Decision(YES, certificate=cert)


def _gamma_gog_filtration(gog: GraphOfGroups, p: int) -> Optional[GogFiltration]:
    filts = tuple(lower_central_p_series(gog.vgroups[v], p)
                  for v in range(gog.graph.nv))
    try:
        return GogFiltration(gog, filts)
    except ValueError:
        return compatible_gamma_collection(gog, p)


def compatible_gamma_collection(gog: GraphOfGroups, p: int,
                                max_depth: int = 24) -> Optional[GogFiltration]:
    """The fastest compatible central-p filtration of the graph of groups.

    Level by level, start from the gamma^p step of the current terms and
    enlarge along the edges until every edge pulls back equally from both
    ends (a monotone fixpoint in a finite lattice, so this terminates and
    stays descending and central-p).  Returns None when the chain stabilizes
    above the trivial subgroup, which the caller reports as unknown.
    """
    from . import kernels
    from .filtration import Filtration
    from .groups import full_subgroup, subgroup_generated
    Y = gog.graph
    levels = [[full_subgroup(gog.vgroups[v]) for v in range(Y.nv)]]
    for _ in range(max_depth):
        cur = levels[-1]
        nxt = []
        for v in range(Y.nv):
            G = gog.vgroups[v]
            gens = kernels.commutators(G.mult, G.inv, range(G.order),
                                       cur[v].elems)
            gens += kernels.powers(G.mult, cur[v].elems, p)
            nxt.append(subgroup_generated(G, gens))
        changed = True
        while changed:
            changed = False
            for e in range(Y.ne):
                vt, vo = Y.term[e], Y.term[Y.bar[e]]
                A = gog.emaps[e].preimage(nxt[vt])
                B = gog.emaps[Y.bar[e]].preimage(nxt[vo])
                if A.elems == B.elems:
                    continue
                union = sorted(A._set | B._set)
                C = subgroup_generated(gog.egroups[e], union)
                lifted_t = [gog.emaps[e](x) for x in C.elems]
                lifted_o = [gog.emaps[Y.bar[e]](x) for x in C.elems]
                new_t = subgroup_generated(gog.vgroups[vt],
                                           list(nxt[vt].elems) + lifted_t)
                new_o = subgroup_generated(gog.vgroups[vo],
                                           list(nxt[vo].elems) + lifted_o)
                if new_t.elems != nxt[vt].elems or new_o.elems != nxt[vo].elems:
                    nxt[vt], nxt[vo] = new_t, new_o
                    changed = True
        if [s.elems for s in nxt] == [s.elems for s in cur]:
            return None      # stabilized above the trivial collection
        levels.append(nxt)
        if all(s.is_trivial() for s in nxt):
            break
    else:
        return None
    filts = tuple(Filtration(gog.vgroups[v], [lev[v] for lev in levels],
                             check=False) for v in range(Y.nv))
    gf = GogFiltration(gog, filts)
    for v in range(Y.nv):
        if not filts[v].is_central_p(p):
            return None
    return gf


def _certify_abelian(gog: GraphOfGroups, p: int, tree: frozenset[int],
                     cap: int) -> Decision:
    pab = partial_abelianization(gog, tree)
    sigma = pab.colimit.sigma
    for inj in pab.colimit.injections:
        if not inj.is_injective():
            return Decision(UNKNOWN,
                            reason="a vertex group does not embed into Sigma")
    if not pab.pas:
        cert = Certificate(gog, tree, sigma, pab.colimit.injections,
                           tuple(0 for _ in range(gog.graph.ne)), p)
        cert.verify()
        return Decision(YES, certificate=cert)
    inner = _inner_for_sigma(sigma, pab.pas, p, cap)
    if not inner.is_yes:
        return inner
    ext = inner.certificate
    Q = ext.Hp
    vmaps = tuple(ext.embedding.compose(inj) for inj in pab.colimit.injections)
    edge_images = [0] * gog.graph.ne
    for e, t in zip(pab.oriented, ext.conjugators):
        edge_images[e] = t
        edge_images[gog.graph.bar[e]] = Q.inverse(t)
    cert = Certificate(gog, tree, Q, vmaps, tuple(edge_images), p)
    cert.verify()
    return Decision(YES, certificate=cert)


def _inner_for_sigma(sigma: FiniteGroup, pas, p: int, cap: int) -> Decision:
    if sigma.is_elementary_abelian():
        return inner_extension(sigma, pas, size_cap=cap)
    # abelian but not elementary abelian: go through the gamma^p layers
    F = lower_central_p_series(sigma, p)
    return layerwise_inner_extension(sigma, F, pas, size_cap=cap)


def reduction_certify(gog: GraphOfGroups, gfilt: GogFiltration,
                      tree: Optional[frozenset[int]], p: int,
                      cap: int = 4096) -> Decision:
    """The reduction pipeline: iterated amalgamation along the tree, then
    layerwise inner extensions for the non-tree edges."""
    Y = gog.graph
    tree = tree if tree is not None else maximal_subtree(Y, 0)
    for v in range(Y.nv):
        if not gog.vgroups[v].is_p_group(p):
            raise ValueError("vertex groups must be p-groups")
        if gfilt.filtrations[v].length() is None:
            raise ValueError("filtrations must have finite length")
        if not gfilt.filtrations[v].is_central_p(p):
            raise ValueError("filtrations must be central p-filtrations")
    try:
        P, FP, psis = _tree_tower(gog, gfilt, tree, p, cap)
    except (CapExceeded, AlignmentError, ValueError) as exc:
        return Decision(UNKNOWN, reason=f"tree amalgamation failed: {exc}")
    oriented = orientation(Y, tree)
    if not oriented:
        cert = Certificate(gog, tree, P, tuple(psis),
                           tuple(0 for _ in range(Y.ne)), p)
        cert.verify()
        return Decision(YES, certificate=cert)
    # non-tree edges become partial automorphisms of P
    pas = _edge_partial_automorphisms(gog, oriented, P, psis)
    if not all(phi.preserves(term) for term in FP.terms for phi in pas):
        return Decision(UNKNOWN, reason="tower filtration is not "
                                        "invariant under an edge map")
    ext = layerwise_inner_extension(P, FP, pas, size_cap=cap)
    if not ext.is_yes:
        return ext
    cert_ext = ext.certificate
    Q = cert_ext.Hp
    vmaps = tuple(cert_ext.embedding.compose(psi) for psi in psis)
    edge_images = [0] * Y.ne
    for e, t in zip(oriented, cert_ext.conjugators):
        edge_images[e] = t
        edge_images[Y.bar[e]] = Q.inverse(t)
    cert = Certificate(gog, tree, Q, vmaps, tuple(edge_images), p)
    cert.verify()
    return Decision(YES, certificate=cert)


def _tree_tower(gog: GraphOfGroups, gfilt: GogFiltration,
                tree: frozenset[int], p: int, cap: int):
    """Iterate higman_embed along the tree; returns (P, FP, per-vertex maps)."""
    Y = gog.graph
    root = 0
    P = gog.vgroups[root]
    FP = gfilt.filtrations[root]
    psis: dict[int, Homomorphism] = {root: Homomorphism(
        P, P, np.arange(P.order), check=False)}
    attached = {root}
    while len(attached) < Y.nv:
        progress = False
        for e in sorted(tree):
            u, w = Y.orig[e], Y.term[e]
            if u in attached and w not in attached:
                U = gog.egroups[e]
                uP = psis[u].compose(gog.emaps[Y.bar[e]])
                uW = gog.emaps[e]
                am = Amalgam(P, gog.vgroups[w], U, uP, uW)
                res = higman_embed(am, FP, gfilt.filtrations[w], cap=cap)
                for v in list(attached):
                    psis[v] = res.embedding.alpha.compose(psis[v])
                psis[w] = res.embedding.beta
                P = res.embedding.W
                FP = res.FW
                attached.add(w)
                progress = True
        if not progress:
            raise AssertionError("tree is not spanning")
    return P, FP, [psis[v] for v in range(Y.nv)]


# -- the unfolding witness ----------------------------------------------------------

@dataclass
class SigmaWitness:
    """An unfolding of the graph of groups together with a morphism of the
    unfolded fundamental group onto Sigma, injective on all vertex groups."""
    aut_group: FiniteGroup
    aut_perms: tuple
    unfolded: GraphOfGroups
    morphism_data: dict
    psi_edges: tuple[int, ...]


def sigma_witness(gog: GraphOfGroups, tree: Optional[frozenset[int]] = None,
                  aut_cap: int = 200_000) -> SigmaWitness:
    """Extend each non-tree edge map to an automorphism sigma_e of
    Sigma(G|T), unfold along e -> sigma_e, and produce the evaluation
    morphism mu: pi_1(unfolded) -> Sigma; injectivity on every vertex group
    of the unfolding is verified exhaustively."""
    Y = gog.graph
    tree = tree if tree is not None else maximal_subtree(Y, 0)
    pab = partial_abelianization(gog, tree)
    sigma = pab.colimit.sigma
    space = ElabSpace(sigma)
    perms = []
    for phi in pab.pas:
        perms.append(_complete_partial_linear(space, phi))
    A_perms = permutation_closure(sigma, perms, size_cap=aut_cap)
    A, _, index = permutation_group(sigma, A_perms)
    psi = [0] * Y.ne
    for e, q in zip(pab.oriented, perms):
        psi[e] = index[tuple(int(x) for x in q)]
        psi[Y.bar[e]] = A.inverse(psi[e])
    unfolded, mor = unfold_gog(gog, tree, psi, A)
    wit = SigmaWitness(A, tuple(A_perms), unfolded,
                       {"pab": pab, "base_gog": gog, "tree": tree}, tuple(psi))
    _verify_sigma_witness(wit)
    return wit


def _complete_partial_linear(space: ElabSpace, phi: PartialAutomorphism) -> np.ndarray:
    """Extend a partial isomorphism of an elementary abelian group to a full
    automorphism that sends the least-index unit completion of A to that of
    B, in order."""
    coords = space.coords
    comp_b = space.unit_completion(coords[list(phi.B.elems)])
    M = space.linear_extension(coords[list(phi.A.elems)],
                               coords[[phi(a) for a in phi.A.elems]],
                               np.eye(space.dim, dtype=np.int64)[comp_b])
    arr = space.perm(M)
    if len(np.unique(arr)) != space.V.order:
        raise AssertionError("completion is not bijective")
    if any(int(arr[a]) != phi(a) for a in phi.A.elems):
        raise AssertionError("completion does not extend phi")
    return arr


def _verify_sigma_witness(wit: SigmaWitness) -> None:
    pab: PartialAbelianization = wit.morphism_data["pab"]
    gog: GraphOfGroups = wit.morphism_data["base_gog"]
    sigma = pab.colimit.sigma
    A = wit.aut_group
    Y = gog.graph
    cover = wit.unfolded.graph
    # mu on a vertex copy (alpha, v): x -> alpha^{-1}-twisted injection of x;
    # evaluate through the semidirect action and check injectivity exactly
    for vc in range(cover.nv):
        alpha, v = divmod(vc, Y.nv)
        seen = set()
        for x in range(wit.unfolded.vgroups[vc].order):
            s = pab.colimit.injections[v](x)
            twisted = int(wit.aut_perms[A.inverse(alpha)][s])
            if twisted in seen:
                raise AssertionError("mu is not injective on a vertex copy")
            seen.add(twisted)


def evaluate_sigma_witness(wit: SigmaWitness, w: PathWord) -> tuple[int, int]:
    """Evaluate a closed path of the base gog through A |x Sigma.

    Returns (a, s): the automorphism part and the Sigma part.
    """
    pab: PartialAbelianization = wit.morphism_data["pab"]
    gog: GraphOfGroups = wit.morphism_data["base_gog"]
    sigma = pab.colimit.sigma
    A = wit.aut_group
    Y = gog.graph
    a, s = 0, 0
    def mul_elem(a, s, v, g):
        inj = pab.colimit.injections[v](g)
        return a, sigma.mul(s, int(wit.aut_perms[A.inverse(a)][inj]))
    a, s = mul_elem(a, s, w.base, w.g0)
    for e, g in w.steps:
        a = A.mul(a, wit.psi_edges[e])
        a, s = mul_elem(a, s, Y.term[e], g)
    return a, s


# -- homology and separation ---------------------------------------------------------

def homology_fiber_sum_check(gog: GraphOfGroups,
                             tree: Optional[frozenset[int]] = None) -> dict:
    """H_1 of pi_1(G, T) from its presentation (Smith form) against
    Sigma(G|T) + Z^e, under the commuting hypothesis on non-tree edges."""
    Y = gog.graph
    tree = tree if tree is not None else maximal_subtree(Y, 0)
    for v in range(Y.nv):
        if not gog.vgroups[v].is_abelian:
            raise ValueError("the check needs abelian vertex groups")
    col = colimit_sigma(gog, edges=tuple(sorted(tree)))
    non_tree = orientation(Y, tree)
    hyp = True
    for e in non_tree:
        fe, fb = gog.emaps[e], gog.emaps[Y.bar[e]]
        it, io = col.injections[Y.term[e]], col.injections[Y.term[Y.bar[e]]]
        for x in range(gog.egroups[e].order):
            if it(fe(x)) != io(fb(x)):
                hyp = False
    # presentation: generators = vertex elements (nonzero) + stable letters
    offs = []
    ngens = 0
    for v in range(Y.nv):
        offs.append(ngens)
        ngens += gog.vgroups[v].order - 1
    eoff = {}
    for e in non_tree:
        eoff[e] = ngens
        ngens += 1

    def gen_of(v, x):
        if x == 0:
            return None
        return offs[v] + x - 1

    rels = []
    for v in range(Y.nv):
        Gv = gog.vgroups[v]
        for x in range(1, Gv.order):
            for y in range(1, Gv.order):
                z = Gv.mul(x, y)
                rel = [gen_of(v, x) + 1, gen_of(v, y) + 1]
                if z != 0:
                    rel.append(-(gen_of(v, z) + 1))
                rels.append(tuple(rel))
    for e in range(Y.ne):
        if e >= Y.bar[e]:
            continue
        fe, fb = gog.emaps[e], gog.emaps[Y.bar[e]]
        vt, vo = Y.term[e], Y.term[Y.bar[e]]
        for x in range(1, gog.egroups[e].order):
            rel = []
            a = fe(x)
            b = fb(x)
            if gen_of(vt, a) is not None:
                rel.append(gen_of(vt, a) + 1)
            if gen_of(vo, b) is not None:
                rel.append(-(gen_of(vo, b) + 1))
            if rel:
                rels.append(tuple(rel))
    pres = Presentation(ngens, tuple(rels))
    ab = smith_abelianization(pres)
    from .groups import abelian_invariants
    sig_inv = abelian_invariants(col.sigma)
    expected_rank = len(non_tree)
    match = (ab.free_rank == expected_rank
             and list(ab.torsion) == [d for d in sig_inv if d > 1])
    return {"hypothesis": hyp, "H1_free_rank": ab.free_rank,
            "H1_torsion": list(ab.torsion),
            "sigma_invariants": [d for d in sig_inv if d > 1],
            "expected_free_rank": expected_rank,
            "match": match if hyp else None}


def separating_level(gog: GraphOfGroups, gfilt: GogFiltration, w: PathWord,
                     ctx: Optional[NormalFormContext] = None,
                     single_position: Optional[int] = None) -> dict:
    """Least level n >= 2 such that the image of the reduced path w in
    G / F_n is still reduced.

    The default checks every pinch position of the word at once (the
    multi-edge form of the criterion).  `single_position` restricts the
    check to one pinch position; it is exposed for experimentation only,
    since whether the single-edge form suffices in general is open.
    """
    ctx = ctx or NormalFormContext(gog)
    if not ctx.is_reduced(w):
        raise ValueError("the input path must be reduced")
    Y = gog.graph
    depth = gfilt.depth()
    failing = None
    for n in range(2, depth + 1):
        ok = True
        if not w.steps:
            if w.g0 in gfilt.filtrations[w.base].term(n):
                ok = False
                failing = {"condition": "A", "vertex": w.base, "elem": w.g0, "n": n}
        else:
            for i in range(len(w.steps) - 1):
                if single_position is not None and i != single_position:
                    continue
                e, g = w.steps[i]
                if w.steps[i + 1][0] != Y.bar[e]:
                    continue
                v = Y.term[e]
                Fv = gfilt.filtrations[v].term(n)
                img = gog.edge_image(e)
                Gv = gog.vgroups[v]
                coset_hit = any(Gv.mul(f, a) == g for f in Fv.elems
                                for a in img.elems)
                if coset_hit:
                    ok = False
                    failing = {"condition": "B", "position": i, "elem": g, "n": n}
                    break
        if ok:
            return {"level": n}
    return {"level": None, "failing": failing,
            "reason": "no separating level within the filtration depth"}


def mu_of_unfolded_path(wit: SigmaWitness, w_tilde: PathWord) -> int:
    """mu of a closed path of the unfolded graph of groups: evaluate its
    projection through A |x Sigma and project to Sigma.

    The automorphism part must come out trivial for lifted paths; this is
    asserted.
    """
    from .graphs import project_path
    gog: GraphOfGroups = wit.morphism_data["base_gog"]
    w = project_path(gog, wit.unfolded, w_tilde)
    a, s = evaluate_sigma_witness(wit, w)
    if a != 0:
        raise AssertionError("path does not lie in the unfolding kernel")
    return s
