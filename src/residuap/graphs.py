"""Graphs of groups: incidence structure, path words with Britton normal
forms, maximal subtrees, quotients, finite covers and unfoldings.

Word equality in the fundamental group is decided only by normal forms with
fixed minimal-index transversals; certificates produced elsewhere are never
used as equality oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .groups import (FiniteGroup, Homomorphism, Subgroup, induced_hom,
                     quotient, right_coset_reps, subgroup_generated)


class Graph:
    """A finite graph with involutive edges: bar(bar e) = e != bar e,
    orig(e) = term(bar e)."""

    __slots__ = ("nv", "ne", "bar", "orig", "term")

    def __init__(self, nv: int, bar: Sequence[int], orig: Sequence[int],
                 term: Sequence[int], require_connected: bool = True):
        self.nv = int(nv)
        self.bar = tuple(int(x) for x in bar)
        self.orig = tuple(int(x) for x in orig)
        self.term = tuple(int(x) for x in term)
        self.ne = len(self.bar)
        if not (len(self.orig) == len(self.term) == self.ne):
            raise ValueError("edge arrays must have equal length")
        for e in range(self.ne):
            if self.bar[self.bar[e]] != e or self.bar[e] == e:
                raise ValueError("bar is not a fixed-point-free involution")
            if self.orig[e] != self.term[self.bar[e]]:
                raise ValueError("orig(e) must equal term(bar e)")
        if require_connected and not self.is_connected():
            raise ValueError("graph must be connected")

    @staticmethod
    def from_topological(nv: int, edges: Sequence[tuple[int, int]],
                         require_connected: bool = True) -> "Graph":
        """Build from undirected edges (u, v): edge 2i runs u->v, 2i+1 back."""
        bar, orig, term = [], [], []
        for i, (u, v) in enumerate(edges):
            bar += [2 * i + 1, 2 * i]
            orig += [u, v]
            term += [v, u]
        return Graph(nv, bar, orig, term, require_connected=require_connected)

    def is_connected(self) -> bool:
        if self.nv == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            new = []
            for e in range(self.ne):
                if self.orig[e] in seen and self.term[e] not in seen:
                    seen.add(self.term[e])
                    new.append(self.term[e])
            frontier = new
        return len(seen) == self.nv

    def betti(self) -> int:
        """First Betti number |E|/2 - |V| + 1 for a connected graph."""
        return self.ne // 2 - self.nv + 1


def maximal_subtree(Y: Graph) -> frozenset[int]:
    """Breadth-first spanning tree from vertex 0, lowest edge index first.

    Returns the set of tree edges, closed under bar.
    """
    if not Y.is_connected():
        raise ValueError("maximal subtree needs a connected graph")
    seen = {0}
    tree: set[int] = set()
    frontier = [0]
    while frontier:
        new = []
        for e in range(Y.ne):
            if Y.orig[e] in frontier and Y.term[e] not in seen:
                seen.add(Y.term[e])
                tree.add(e)
                tree.add(Y.bar[e])
                new.append(Y.term[e])
        frontier = new
    return frozenset(tree)


class GraphOfGroups:
    """Vertex and edge groups over a graph, with injective edge morphisms
    f_e: G_e -> G_{term(e)} and G_{bar e} = G_e."""

    __slots__ = ("graph", "vgroups", "egroups", "emaps")

    def __init__(self, graph: Graph, vgroups: Sequence[FiniteGroup],
                 egroups: Sequence[FiniteGroup], emaps: Sequence[Homomorphism]):
        if len(vgroups) != graph.nv or len(egroups) != graph.ne or \
                len(emaps) != graph.ne:
            raise ValueError("group data sizes do not match the graph")
        for e in range(graph.ne):
            if egroups[e] is not egroups[graph.bar[e]]:
                raise ValueError("edge groups must satisfy G_{bar e} = G_e")
            if emaps[e].dom is not egroups[e] or \
                    emaps[e].cod is not vgroups[graph.term[e]]:
                raise ValueError("edge map endpoints are wrong")
            if not emaps[e].is_injective():
                raise ValueError("edge maps must be injective")
        self.graph = graph
        self.vgroups = tuple(vgroups)
        self.egroups = tuple(egroups)
        self.emaps = tuple(emaps)

    def edge_image(self, e: int) -> Subgroup:
        return self.emaps[e].image()


@dataclass(frozen=True)
class PathWord:
    """A path (g_0, e_1, g_1, ..., e_n, g_n) in a graph of groups."""
    base: int
    g0: int
    steps: tuple[tuple[int, int], ...]   # (edge, following group element)

    def length(self) -> int:
        return len(self.steps)


def path_word(gog: GraphOfGroups, base: int, g0: int,
              steps: Sequence[tuple[int, int]]) -> PathWord:
    """Validated constructor: enforces vertex, edge and element ranges and
    edge incidences."""
    cur = base
    if not 0 <= base < gog.graph.nv:
        raise ValueError("base vertex out of range")
    if not 0 <= g0 < gog.vgroups[base].order:
        raise ValueError("g0 out of range")
    for e, g in steps:
        if not 0 <= e < gog.graph.ne:
            raise ValueError("edge index out of range")
        if gog.graph.orig[e] != cur:
            raise ValueError("edge path is not consecutive")
        cur = gog.graph.term[e]
        if not 0 <= g < gog.vgroups[cur].order:
            raise ValueError("group element out of range")
    return PathWord(base, g0, tuple((int(e), int(g)) for e, g in steps))


def _transversal(gog: GraphOfGroups, e: int):
    """Right-coset data for f_e(G_e) <= G_{term(e)} with minimal-index reps.

    Returns (rep, factor) with g = f_e(factor[g]) * rep[g].
    """
    Gv = gog.vgroups[gog.graph.term[e]]
    img = gog.emaps[e].image().elems
    img_of = {int(gog.emaps[e].map[h]): h for h in range(gog.egroups[e].order)}
    rep = right_coset_reps(Gv, img)
    factor = [img_of[Gv.mul(g, Gv.inverse(rep[g]))] for g in range(Gv.order)]
    return rep, factor


class NormalFormContext:
    """Cached transversal data for one graph of groups."""

    def __init__(self, gog: GraphOfGroups):
        self.gog = gog
        self._trans = {}

    def transversal(self, e: int):
        if e not in self._trans:
            self._trans[e] = _transversal(self.gog, e)
        return self._trans[e]

    def normal_form(self, w: PathWord) -> PathWord:
        """Britton-reduce and normalize coset representatives.

        Two closed paths at the same base represent the same element of the
        fundamental group iff their normal forms coincide.
        """
        gog = self.gog
        Y = gog.graph
        g0, steps = w.g0, list(w.steps)
        # iterate: push coset factors left, then remove pinches
        changed = True
        while changed:
            changed = False
            # right-to-left representative normalization
            for i in range(len(steps) - 1, -1, -1):
                e, g = steps[i]
                rep, factor = self.transversal(e)
                h = factor[g]
                if h:
                    s = rep[g]
                    steps[i] = (e, s)
                    carried = int(gog.emaps[Y.bar[e]].map[h])
                    if i == 0:
                        g0 = gog.vgroups[w.base].mul(g0, carried)
                    else:
                        pe, pg = steps[i - 1]
                        steps[i - 1] = (pe, gog.vgroups[Y.term[pe]].mul(pg, carried))
            # pinch removal: ... e, g, bar(e) ... with g in f_e(G_e)
            for i in range(len(steps) - 1):
                e, g = steps[i]
                e2, g2 = steps[i + 1]
                if e2 != Y.bar[e]:
                    continue
                rep, factor = self.transversal(e)
                if rep[g] != 0:
                    continue
                h = factor[g]    # g = f_e(h)
                carried = int(gog.emaps[Y.bar[e]].map[h])
                v = Y.orig[e]
                merged = gog.vgroups[v].word([carried, g2])
                if i == 0:
                    g0 = gog.vgroups[w.base].mul(g0, merged)
                else:
                    pe, pg = steps[i - 1]
                    steps[i - 1] = (pe, gog.vgroups[Y.term[pe]].mul(pg, merged))
                del steps[i:i + 2]
                changed = True
                break
        return PathWord(w.base, g0, tuple(steps))

    def is_reduced(self, w: PathWord) -> bool:
        gog = self.gog
        Y = gog.graph
        if not w.steps:
            return w.g0 != 0
        for i in range(len(w.steps) - 1):
            e, g = w.steps[i]
            e2, _ = w.steps[i + 1]
            if e2 == Y.bar[e] and g in gog.edge_image(e):
                return False
        return True

    def identity(self, base: int) -> PathWord:
        return PathWord(base, 0, ())


# -- quotients and covers ------------------------------------------------------

@dataclass
class GogMorphism:
    """A morphism of graphs of groups, with twisting elements recorded as
    vertex-group elements delta_e in the target (g_v = 1 normalization)."""
    source: GraphOfGroups
    target: GraphOfGroups
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    vhoms: tuple[Homomorphism, ...]
    ehoms: tuple[Homomorphism, ...]
    delta: tuple[int, ...]     # delta_e in G'_{phi(term e)}

    def verify(self) -> None:
        src, dst = self.source, self.target
        Y, Z = src.graph, dst.graph
        for e in range(Y.ne):
            if Z.bar[self.edge_map[e]] != self.edge_map[Y.bar[e]]:
                raise AssertionError("edge map does not respect bar")
            if self.vertex_map[Y.term[e]] != Z.term[self.edge_map[e]]:
                raise AssertionError("edge map does not respect incidence")
            if self.ehoms[e] is not self.ehoms[Y.bar[e]]:
                raise AssertionError("edge homs must agree on bar")
            v = Y.term[e]
            tv = self.vertex_map[v]
            Gt = dst.vgroups[tv]
            d = self.delta[e]
            for x in range(src.egroups[e].order):
                lhs = int(self.vhoms[v].map[src.emaps[e](x)])
                rhs = Gt.conj(d, int(dst.emaps[self.edge_map[e]].map[
                    int(self.ehoms[e].map[x])]))
                if lhs != rhs:
                    raise AssertionError("morphism diagram does not commute")


def compatible(gog: GraphOfGroups, subs: Sequence[Subgroup]) -> bool:
    """f_e^{-1}(H_{t(e)}) = f_{bar e}^{-1}(H_{t(bar e)}) for all e."""
    Y = gog.graph
    for e in range(Y.ne):
        a = gog.emaps[e].preimage(subs[Y.term[e]])
        b = gog.emaps[Y.bar[e]].preimage(subs[Y.term[Y.bar[e]]])
        if a.elems != b.elems:
            return False
    return True


def quotient_gog(gog: GraphOfGroups, subs: Sequence[Subgroup]):
    """Quotient graph of groups by a compatible collection of normal
    subgroups, plus the canonical morphism."""
    Y = gog.graph
    for v, s in enumerate(subs):
        if s.parent is not gog.vgroups[v] or not s.is_normal():
            raise ValueError("need normal subgroups of the vertex groups")
    if not compatible(gog, subs):
        raise ValueError("collection is not compatible")
    vq, vproj = [], []
    for v in range(Y.nv):
        Q, proj = quotient(gog.vgroups[v], subs[v])
        vq.append(Q)
        vproj.append(proj)
    eq, eproj, emq = [None] * Y.ne, [None] * Y.ne, [None] * Y.ne
    for e in range(Y.ne):
        if eq[e] is not None:
            continue
        He = gog.emaps[e].preimage(subs[Y.term[e]])
        Qe, proje = quotient(gog.egroups[e], He)
        for f in (e, Y.bar[e]):
            eq[f] = Qe
            eproj[f] = proje
    for e in range(Y.ne):
        # induced injective map G_e/H_e -> G_v/H_v
        emq[e] = induced_hom(gog.emaps[e], eproj[e], vproj[Y.term[e]])
        if not emq[e].is_injective():
            raise AssertionError("quotient edge map not injective "
                                 "(compatibility should prevent this)")
    qgog = GraphOfGroups(Y, vq, eq, emq)
    mor = GogMorphism(gog, qgog, tuple(range(Y.nv)), tuple(range(Y.ne)),
                      tuple(vproj), tuple(eproj), tuple(0 for _ in range(Y.ne)))
    mor.verify()
    return qgog, mor


@dataclass
class GogFiltration:
    """Per-vertex filtrations forming a compatible collection at each level."""
    gog: GraphOfGroups
    filtrations: tuple

    def __post_init__(self):
        depth = self.depth()
        for n in range(1, depth + 1):
            if not compatible(self.gog,
                              [F.term(n) for F in self.filtrations]):
                raise ValueError(f"level {n} is not a compatible collection")

    def depth(self) -> int:
        return max(len(F.terms) for F in self.filtrations)


# -- common covers ---------------------------------------------------------------

def common_cover(gog: GraphOfGroups, subs: Sequence[Subgroup]):
    """A finite-degree covering graph of groups whose vertex and edge groups
    map isomorphically onto the given compatible finite-index normal
    subgroups, glued edge by edge with cyclic-shift matchings.

    Returns (cover, morphism, degree).  There is no guarantee that the cover
    is regular (that the image of its fundamental group is normal), and no
    attempt is made to regularize it; unfoldings, by contrast, always
    realize a kernel and are regular by construction.
    """
    Y = gog.graph
    for v, s in enumerate(subs):
        if not s.is_normal():
            raise ValueError("cover needs normal subgroups")
    if not compatible(gog, subs):
        raise ValueError("collection is not compatible")
    # degree: lcm of the vertex indices times enough to glue; use the uniform
    # sheet count d = lcm_v [G_v : H_v] scaled so every edge matches.
    d = math.lcm(*(gog.vgroups[v].order // len(subs[v])
                   for v in range(Y.nv)))
    # vertex copies: m_v = d / [G_v:H_v]; edge copies: m_e = d / [G_e:H_e]
    He = {}
    for e in range(Y.ne):
        He[e] = gog.emaps[e].preimage(subs[Y.term[e]])
    mv = {v: d // (gog.vgroups[v].order // len(subs[v])) for v in range(Y.nv)}
    me = {}
    for e in range(Y.ne):
        idx = gog.egroups[e].order // len(He[e])
        me[e] = d // idx
    # slots on side e: (vertex copy, double coset H_v g A_e); A_e = image
    slot_lists = {}
    for e in range(Y.ne):
        v = Y.term[e]
        A = gog.edge_image(e)
        Gv = gog.vgroups[v]
        # double cosets H_v \ G_v / A, as minimal representatives
        seen = set()
        reps = []
        for g in range(Gv.order):
            if g in seen:
                continue
            orbit = {Gv.word([h, g, a]) for h in subs[v].elems for a in A.elems}
            reps.append(g)
            seen |= orbit
        slots = [(c, r) for c in range(mv[v]) for r in reps]
        if len(slots) != me[e]:
            raise AssertionError("slot count mismatch in cover construction")
        slot_lists[e] = slots
    # build the cover graph: vertices (v, copy); for each topological edge
    # {e, bar e} with e < bar e, me[e] copies matched by a cyclic shift, or
    # by the identity when the shift leaves the cover disconnected
    vmap = {}
    nv2 = 0
    for v in range(Y.nv):
        for c in range(mv[v]):
            vmap[(v, c)] = nv2
            nv2 += 1
    for shift in (1, 0):
        edges2 = []
        edata = []    # (e, slot_e, slot_bar)
        for e in range(Y.ne):
            if Y.bar[e] < e:
                continue
            for j in range(me[e]):
                se = slot_lists[e][j]
                sb = slot_lists[Y.bar[e]][(j + shift) % me[e]]
                edges2.append((vmap[(Y.term[Y.bar[e]], sb[0])],
                               vmap[(Y.term[e], se[0])]))
                edata.append((e, se, sb))
        cover_graph = Graph.from_topological(nv2, edges2, require_connected=False)
        if cover_graph.is_connected():
            break
    else:
        raise AssertionError("cover construction produced a disconnected graph")
    # groups
    v_of_copy = {}
    for v in range(Y.nv):
        Hv, to_parent, _ = subs[v].as_group()
        for c in range(mv[v]):
            v_of_copy[vmap[(v, c)]] = (v, Hv, to_parent)
    vgroups2 = [None] * nv2
    vh_inc = [None] * nv2
    for idx, (v, Hv, to_parent) in v_of_copy.items():
        vgroups2[idx] = Hv
        vh_inc[idx] = Homomorphism(Hv, gog.vgroups[v], to_parent, check=False)
    egroups2 = [None] * cover_graph.ne
    emaps2 = [None] * cover_graph.ne
    ehoms = [None] * cover_graph.ne
    deltas = [0] * cover_graph.ne
    emap_idx = [0] * cover_graph.ne
    for i, (e, se, sb) in enumerate(edata):
        fwd = 2 * i       # runs toward term(e) copy
        bwd = 2 * i + 1
        Ke, to_parentE, _ = He[e].as_group()
        shared_ehom = Homomorphism(Ke, gog.egroups[e], to_parentE, check=False)
        for (half, ee, slot) in ((fwd, e, se), (bwd, Y.bar[e], sb)):
            v = Y.term[ee]
            tv = cover_graph.term[half]
            _, Hv, to_parentV = v_of_copy[tv]
            from_parentV = {g: i2 for i2, g in enumerate(to_parentV)}
            Gv = gog.vgroups[v]
            rep = slot[1]
            arr = []
            for x in range(Ke.order):
                val = Gv.conj(rep, gog.emaps[ee](to_parentE[x]))
                if val not in from_parentV:
                    raise AssertionError("conjugated edge image leaves H_v")
                arr.append(from_parentV[val])
            egroups2[half] = Ke
            emaps2[half] = Homomorphism(Ke, vgroups2[tv], arr)
            ehoms[half] = shared_ehom
            deltas[half] = rep
            emap_idx[half] = ee
    cover = GraphOfGroups(cover_graph, vgroups2, egroups2, emaps2)
    vmap_arr = tuple(v_of_copy[i][0] for i in range(nv2))
    mor = GogMorphism(cover, gog, vmap_arr, tuple(emap_idx),
                      tuple(vh_inc), tuple(ehoms), tuple(deltas))
    mor.verify()
    return cover, mor, d


# -- unfolding --------------------------------------------------------------------

def unfold_graph(Y: Graph, tree: frozenset[int], psi: Sequence[int],
                 A: FiniteGroup):
    """The unfolding of Y along an edge assignment psi into a finite group A.

    psi(e) = identity on tree edges and psi(bar e) = psi(e)^-1 are enforced.
    Incidences: o(a,e) = (a, o(e)), t(a,e) = (a*psi(e), t(e)),
    bar(a,e) = (a*psi(e), bar e) -- the alpha coordinate accumulates edge
    labels on the right, so a closed path lifts iff the ordered product of
    its psi labels is trivial.
    """
    if not isinstance(psi, (list, tuple)) or len(psi) != Y.ne:
        raise ValueError("psi must assign a value to every edge")
    if not all(isinstance(a, int) and 0 <= a < A.order for a in psi):
        raise ValueError("psi values must be elements of A")
    for e in range(Y.ne):
        if e in tree and psi[e] != 0:
            raise ValueError("psi must be trivial on tree edges")
        if A.mul(psi[e], psi[Y.bar[e]]) != 0:
            raise ValueError("psi(bar e) must invert psi(e)")
    gen = subgroup_generated(A, [psi[e] for e in range(Y.ne)])
    if len(gen) != A.order:
        comp = sorted(gen.elems)
        raise ValueError(f"psi(E) does not generate A; the unfolding would be "
                         f"disconnected with component over {comp}")
    nA = A.order
    bar, orig, term = [], [], []
    for a in range(nA):
        for e in range(Y.ne):
            shifted = A.mul(a, psi[e])
            bar.append(shifted * Y.ne + Y.bar[e])
            orig.append(a * Y.nv + Y.orig[e])
            term.append(shifted * Y.nv + Y.term[e])
    cover = Graph(nA * Y.nv, bar, orig, term)
    vproj = tuple(i % Y.nv for i in range(nA * Y.nv))
    eproj = tuple(i % Y.ne for i in range(nA * Y.ne))
    return cover, vproj, eproj


def unfold_gog(gog: GraphOfGroups, tree: frozenset[int], psi: Sequence[int],
               A: FiniteGroup):
    """Unfold a graph of groups along psi; vertex and edge groups are copied.

    Returns (cover_gog, morphism).
    """
    Y = gog.graph
    cover, vproj, eproj = unfold_graph(Y, tree, psi, A)
    vgroups = [gog.vgroups[vproj[i]] for i in range(cover.nv)]
    egroups = [gog.egroups[eproj[i]] for i in range(cover.ne)]
    emaps = []
    for i in range(cover.ne):
        e = eproj[i]
        emaps.append(Homomorphism(egroups[i], vgroups[cover.term[i]],
                                  gog.emaps[e].map, check=False))
    ggog = GraphOfGroups(cover, vgroups, egroups, emaps)
    vh = tuple(Homomorphism(vgroups[i], gog.vgroups[vproj[i]],
                            list(range(vgroups[i].order)), check=False)
               for i in range(cover.nv))
    eh = []
    done = {}
    for i in range(cover.ne):
        key = min(i, cover.bar[i])
        if key not in done:
            done[key] = Homomorphism(egroups[key], gog.egroups[eproj[key]],
                                     list(range(egroups[key].order)), check=False)
        eh.append(done[key])
    mor = GogMorphism(ggog, gog, vproj, eproj, vh, tuple(eh),
                      tuple(0 for _ in range(cover.ne)))
    mor.verify()
    return ggog, mor
