"""Residually-p certification for graphs of finite p-groups: colimits,
partial abelianization, and the reduction pipeline.

Every certificate-producing operation re-verifies the homomorphism property
on all defining relations and injectivity on all vertex groups before
returning; a certificate is a morphism to a p-group and can be re-checked
from scratch at any time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embed import (Amalgam, InnerExtension, PartialAutomorphism,
                    higman_embed, layerwise_inner_extension)
from .filtration import (AlignmentError, Filtration, central_p_step,
                         lower_central_p_series)
from .graphs import (GogFiltration, Graph, GraphOfGroups, NormalFormContext,
                     PathWord, maximal_subtree)
from .groups import (DEFAULT_ORDER_CAP, CapExceeded, FiniteGroup,
                     Homomorphism, Subgroup, abelian_invariants,
                     amalgamated_sum, full_subgroup, generating_sequence,
                     normal_closure, require_prime, subgroup_generated,
                     trivial_group)
from .results import UNKNOWN, YES, Decision
from .smith import Presentation, smith_abelianization


# -- colimits of graphs of abelian groups ----------------------------------------

@dataclass
class ColimitData:
    sigma: FiniteGroup
    injections: tuple[Homomorphism, ...]    # one per vertex


def colimit_sigma(gog: GraphOfGroups, tree: frozenset[int]) -> ColimitData:
    """Sigma(G|T) for abelian vertex groups: their sum modulo the relations
    f_e(g) = f_bar(e)(g) of the tree edges, named "G0xG1x.../N<k>" for the
    order k of the relation subgroup of the full direct sum."""
    if not all(G.is_abelian for G in gog.vgroups):
        raise ValueError("colimits need abelian vertex groups")
    S, injections = _vertex_sum(gog, tree)
    S.name += f"/N{math.prod(G.order for G in gog.vgroups) // S.order}"
    return ColimitData(S, injections)


def _vertex_sum(gog: GraphOfGroups, tree: frozenset[int]):
    """The vertex groups summed one at a time in index order, each along the
    tree edges back to earlier vertices (an amalgamated_sum per vertex).

    The elements are those of the quotient of the full direct sum (vertex 0
    major), ordered by their least element, and the sum is named
    "G0xG1x...".  A step whose sum would pass DEFAULT_ORDER_CAP raises
    CapExceeded (from amalgamated_sum) before its table is built.  Returns
    (sum, one injection per vertex).
    """
    Y = gog.graph
    S, maps = trivial_group(), []
    for v, G in enumerate(gog.vgroups):
        pairs = [(maps[Y.orig[e]](gog.emaps[Y.bar[e]](x)), gog.emaps[e](x))
                 for e in tree if Y.term[e] == v and Y.orig[e] < v
                 for x in range(gog.egroups[e].order)]
        S, iota_S, iota_v = amalgamated_sum(S, G, pairs)
        maps = [iota_S.compose(m) for m in maps] + [iota_v]
    S.name = "x".join(G.name for G in gog.vgroups)
    return S, tuple(maps)


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
    col = colimit_sigma(gog, tree)
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


# -- the certification pipeline -----------------------------------------------------

def certify_residually_p(gog: GraphOfGroups, p: int,
                         tree: Optional[frozenset[int]] = None,
                         cap: int = DEFAULT_ORDER_CAP) -> Decision:
    """A certificate that pi_1(G, T) is residually p, a refutation, or unknown.

    Pipeline: abelian vertex groups go through partial abelianization and the
    flag method; the general case runs the reduction pipeline along the
    lower central p-filtrations when they form a compatible collection.  A
    cap met on the free-product or abelian branch gives unknown.
    """
    require_prime(p)
    Y = gog.graph
    for v in range(Y.nv):
        if not gog.vgroups[v].is_p_group(p):
            raise ValueError("vertex groups must be p-groups")
    tree = tree if tree is not None else maximal_subtree(Y)
    try:
        if all(gog.egroups[e].order == 1 for e in range(Y.ne)):
            return _certified(gog, tree, *_vertex_sum(gog, tree), p)
        if all(gog.vgroups[v].is_abelian for v in range(Y.nv)):
            return _certify_abelian(gog, p, tree, cap)
    except CapExceeded as exc:
        return Decision(UNKNOWN, reason=str(exc))
    gfilt = compatible_gamma_collection(gog, p)
    if gfilt is None:
        return Decision(UNKNOWN, reason="lower central p-filtrations are not "
                                        "a compatible collection")
    return reduction_certify(gog, gfilt, tree, p, cap=cap)


def compatible_gamma_collection(gog: GraphOfGroups,
                                p: int) -> Optional[GogFiltration]:
    """The fastest compatible central-p filtration of the graph of groups.

    Level by level, start from the gamma^p step of the current terms (the
    step of lower_central_p_series) and enlarge along the edges until every
    edge pulls back equally from both ends (a monotone fixpoint in a finite
    lattice).  When the gamma^p series already form a compatible
    collection, the levels are their terms.  Returns None when a level is
    not strictly inside the one before, so the loop ends within
    sum_v log_p |G_v| levels, or when the chain is not central-p (an
    enlarged term that is not normal), which the caller reports as unknown.
    """
    Y = gog.graph
    levels = [[full_subgroup(G) for G in gog.vgroups]]
    while True:
        cur = levels[-1]
        nxt = [normal_closure(G, central_p_step(G, T, p))
               for G, T in zip(gog.vgroups, cur)]
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
        if not (all(s <= t for s, t in zip(nxt, cur))
                and any(len(s) < len(t) for s, t in zip(nxt, cur))):
            return None      # not a strict descent
        levels.append(nxt)
        if all(s.is_trivial() for s in nxt):
            break
    filts = tuple(Filtration(gog.vgroups[v], [lev[v] for lev in levels],
                             check=False) for v in range(Y.nv))
    if not all(F.is_central_p(p) for F in filts):
        return None
    return GogFiltration(gog, filts)


def _certify_abelian(gog: GraphOfGroups, p: int, tree: frozenset[int],
                     cap: int) -> Decision:
    col = colimit_sigma(gog, tree)
    if not all(inj.is_injective() for inj in col.injections):
        return Decision(UNKNOWN,
                        reason="a vertex group does not embed into Sigma")
    return _extend_to_certificate(gog, tree, col.sigma,
                                  lower_central_p_series(col.sigma, p),
                                  col.injections, p, cap, "Sigma")


def reduction_certify(gog: GraphOfGroups, gfilt: GogFiltration,
                      tree: Optional[frozenset[int]], p: int,
                      cap: int = DEFAULT_ORDER_CAP) -> Decision:
    """The reduction pipeline: iterated amalgamation along the tree, then
    layerwise inner extensions for the non-tree edges."""
    Y = gog.graph
    tree = tree if tree is not None else maximal_subtree(Y)
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
    return _extend_to_certificate(gog, tree, P, FP, psis, p, cap, "tower")


def _extend_to_certificate(gog: GraphOfGroups, tree: frozenset[int],
                           P: FiniteGroup, FP: Filtration,
                           maps: Sequence[Homomorphism],
                           p: int, cap: int, what: str) -> Decision:
    """The step shared by both branches once the tree is amalgamated into P
    (by maps, one per vertex): the non-tree edges become partial
    automorphisms of P, which layerwise_inner_extension makes inner along
    FP.  Unknown, naming ``what``, when FP is not invariant under them."""
    oriented = orientation(gog.graph, tree)
    if not oriented:
        return _certified(gog, tree, P, maps, p)
    pas = _edge_partial_automorphisms(gog, oriented, P, maps)
    if not all(phi.preserves(term) for term in FP.terms for phi in pas):
        return Decision(UNKNOWN, reason=f"{what} filtration is not "
                                        "invariant under an edge map")
    ext = layerwise_inner_extension(P, FP, pas, size_cap=cap)
    if not ext.is_yes:
        return ext
    return _certified(gog, tree, P, maps, p, oriented, ext.certificate)


def _certified(gog: GraphOfGroups, tree: frozenset[int], P: FiniteGroup,
               maps: Sequence[Homomorphism], p: int,
               oriented: Sequence[int] = (),
               ext: Optional[InnerExtension] = None) -> Decision:
    """The verified certificate with target P, the given vertex maps and
    every edge mapped to the identity; with an inner extension ext of P
    realizing the oriented edges, the target is ext.Hp, the maps go through
    its embedding and each oriented edge maps to its conjugator."""
    edge_images = [0] * gog.graph.ne
    if ext is not None:
        P = ext.Hp
        maps = [ext.embedding.compose(m) for m in maps]
        for e, t in zip(oriented, ext.conjugators):
            edge_images[e] = t
            edge_images[gog.graph.bar[e]] = P.inverse(t)
    cert = Certificate(gog, tree, P, tuple(maps), tuple(edge_images), p)
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


# -- homology and separation ---------------------------------------------------------

def homology_fiber_sum_check(gog: GraphOfGroups,
                             tree: Optional[frozenset[int]] = None) -> dict:
    """H_1 of pi_1(G, T) from its presentation (Smith form) against
    Sigma(G|T) + Z^e, under the commuting hypothesis on non-tree edges."""
    Y = gog.graph
    tree = tree if tree is not None else maximal_subtree(Y)
    for v in range(Y.nv):
        if not gog.vgroups[v].is_abelian:
            raise ValueError("the check needs abelian vertex groups")
    col = colimit_sigma(gog, tree)
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

    # [x][s] = [xs] for s in a generating sequence S presents G_v: x -> [x]
    # is then a morphism, by induction on words in S (which generate G_v as
    # a monoid, G_v being finite)
    rels = []
    for v in range(Y.nv):
        Gv = gog.vgroups[v]
        for x in range(1, Gv.order):
            for s in generating_sequence(Gv):
                z = Gv.mul(x, s)
                rel = [gen_of(v, x) + 1, gen_of(v, s) + 1]
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
                     ctx: Optional[NormalFormContext] = None) -> dict:
    """Least level n >= 2 such that the image of the reduced path w in
    G / F_n is still reduced.

    Every pinch position of the word is checked at once (the multi-edge
    form of the criterion).
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
