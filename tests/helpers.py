"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from residuap import algebra, catalog, certify, embed, graphs, groups, kernels
from residuap.filtration import (Filtration, align_filtrations,
                                 induced_chain, lower_central_p_series)
from residuap.graphs import GraphOfGroups, PathWord
from residuap.groups import (CapExceeded, FiniteGroup, Homomorphism, Subgroup,
                             all_subgroups, automorphisms, direct_product,
                             find_isomorphism, full_subgroup,
                             generating_sequence, normal_closure, quotient,
                             subgroup_generated, trivial_subgroup)


def comm(G: FiniteGroup, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b in G."""
    return G.word([G.inverse(a), G.inverse(b), a, b])


def fresh(G: FiniteGroup, name: str) -> FiniteGroup:
    """An independent copy, so a gog can use 'two different' vertex groups."""
    return FiniteGroup(G.mult.copy(), name=name, validate=False)


def elab_elem(sp: embed.ElabSpace, vec) -> int:
    """The element of sp.V whose coordinate row is vec, entries taken mod p."""
    if len(vec) != sp.dim:
        raise KeyError(tuple(vec))
    return int(sp.index[sum(int(x) % sp.p * sp.p ** i for i, x in enumerate(vec))])


def chain(G: FiniteGroup, *element_lists) -> Filtration:
    """Filtration G >= <L1> >= <L2> >= ... >= 1 from explicit element lists."""
    terms = [full_subgroup(G)]
    for elems in element_lists:
        terms.append(Subgroup(G, elems))
    if not terms[-1].is_trivial():
        terms.append(trivial_subgroup(G))
    return Filtration(G, terms)


def c4_amalgam():
    """C4 u C4 | C2 with the squares identified, plus gamma^2 chains."""
    C4 = catalog.cyclic(4)
    C4b = fresh(C4, "C4b")
    C2 = catalog.cyclic(2)
    am = embed.Amalgam(C4, C4b, C2,
                       Homomorphism(C2, C4, [0, 2]),
                       Homomorphism(C2, C4b, [0, 2]))
    FG = chain(C4, [0, 2])
    FH = chain(C4b, [0, 2])
    return am, FG, FH


def c4_star_c4():
    """The graph of groups for C4 *_{C2} C4."""
    C4 = catalog.cyclic(4)
    C4b = fresh(C4, "C4b")
    C2 = catalog.cyclic(2)
    Y = graphs.Graph.from_topological(2, [(0, 1)])
    f0 = Homomorphism(C2, C4b, [0, 2])
    f1 = Homomorphism(C2, C4, [0, 2])
    return graphs.GraphOfGroups(Y, [C4, C4b], [C2, C2], [f0, f1])


def free_product(*groups: FiniteGroup):
    """The free product of the groups as a path of vertices 0 - 1 - 2 ...
    joined by trivial edge groups."""
    triv = catalog.cyclic(1)
    n = len(groups)
    Y = graphs.Graph.from_topological(n, [(i, i + 1) for i in range(n - 1)])
    return graphs.GraphOfGroups(
        Y, groups, [triv] * Y.ne,
        [Homomorphism(triv, groups[Y.term[e]], [0]) for e in range(Y.ne)])


def forbid_tables_above_cap(monkeypatch):
    """Make direct_product, in every module that holds it by name, and
    catalog.cyclic fail, before they allocate, on any table of order above
    DEFAULT_ORDER_CAP."""
    cap = groups.DEFAULT_ORDER_CAP
    product, cyclic = groups.direct_product, catalog.cyclic

    def guarded_product(G, H):
        assert G.order * H.order <= cap, \
            f"a direct product of order {G.order * H.order} was built"
        return product(G, H)

    def guarded_cyclic(n):
        assert n <= cap, f"a cyclic group of order {n} was built"
        return cyclic(n)

    for module in (groups, algebra, certify, embed, catalog):
        if hasattr(module, "direct_product"):
            monkeypatch.setattr(module, "direct_product", guarded_product)
    monkeypatch.setattr(catalog, "cyclic", guarded_cyclic)


def _random_edge(G: FiniteGroup, H: FiniteGroup, rng: random.Random):
    """A random proper subgroup U of G as a group of its own, its inclusion
    into G, and a map of U onto a random proper subgroup of H isomorphic to
    U through find_isomorphism (None when H has none)."""
    U = rng.choice([S for S in all_subgroups(G) if len(S) < G.order])
    UG, to_parent, _ = U.as_group()
    onto = []
    for S in all_subgroups(H):
        if len(S) == H.order:
            continue
        SG, s_parent, _ = S.as_group()
        iso = find_isomorphism(UG, SG)
        if iso is not None:
            onto.append([s_parent[int(y)] for y in iso.map])
    return (UG, Homomorphism(UG, G, to_parent),
            Homomorphism(UG, H, rng.choice(onto)) if onto else None)


def random_hnn_loop(G: FiniteGroup, rng: random.Random) -> graphs.GraphOfGroups:
    """A loop over G whose edge group is a random proper subgroup U: f_e is
    the inclusion of U, and f_bar(e) maps U onto a random subgroup of G
    isomorphic to U through find_isomorphism."""
    UG, into, onto = _random_edge(G, G, rng)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    return graphs.GraphOfGroups(Y, [G], [UG, UG], [into, onto])


def random_amalgam(G: FiniteGroup, H: FiniteGroup,
                   rng: random.Random) -> Optional[graphs.GraphOfGroups]:
    """G and H amalgamated along a random proper subgroup U of G, mapped onto
    a random subgroup of H isomorphic to U; None when H has none."""
    UG, into, onto = _random_edge(G, H, rng)
    if onto is None:
        return None
    Y = graphs.Graph.from_topological(2, [(0, 1)])
    return graphs.GraphOfGroups(Y, [G, H], [UG, UG], [onto, into])


def c4xc2_loop():
    """Loop over C4 x C2 = <x> x <y> whose edge C2 maps to x^2 and to y.
    Gamma^p of C4 x C2 is <x^2>, which the edge map x^2 -> y does not keep."""
    G = catalog.abelian(4, 2)           # x = (1, 0) is 2, y = (0, 1) is 1
    C2 = catalog.cyclic(2)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    return graphs.GraphOfGroups(Y, [G], [C2, C2], [Homomorphism(C2, G, [0, 4]),
                                                   Homomorphism(C2, G, [0, 1])])


def shift_loop():
    """Loop over F_3^3 with the partial shift (x,y,0) -> (y,0,x)."""
    V27 = catalog.elementary_abelian(3, 3)
    V9 = catalog.elementary_abelian(3, 2)
    sp = embed.ElabSpace(V27)
    sp9 = embed.ElabSpace(V9)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    fe = Homomorphism(V9, V27, [elab_elem(sp, (sp9.vec(g)[0], sp9.vec(g)[1], 0))
                                for g in range(9)])
    fb = Homomorphism(V9, V27, [elab_elem(sp, (sp9.vec(g)[1], 0, sp9.vec(g)[0]))
                                for g in range(9)])
    return graphs.GraphOfGroups(Y, [V27], [V9, V9], [fe, fb])


def swap_loop():
    """Loop over F_3^2 with the total coordinate swap (the negative example)."""
    V9 = catalog.elementary_abelian(3, 2)
    sp9 = embed.ElabSpace(V9)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    ide = Homomorphism(V9, V9, list(range(9)))
    swap = Homomorphism(V9, V9, [elab_elem(sp9, (sp9.vec(g)[1], sp9.vec(g)[0]))
                                 for g in range(9)])
    return graphs.GraphOfGroups(Y, [V9], [V9, V9], [ide, swap])


def axis_swap_loop():
    """Loop over F_3^2 with the partial axis swap (first axis to second)."""
    V9 = catalog.elementary_abelian(3, 2)
    C3 = catalog.cyclic(3)
    sp9 = embed.ElabSpace(V9)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    A_ax = Homomorphism(C3, V9, [elab_elem(sp9, (x, 0)) for x in range(3)])
    B_ax = Homomorphism(C3, V9, [elab_elem(sp9, (0, x)) for x in range(3)])
    return graphs.GraphOfGroups(Y, [V9], [C3, C3], [A_ax, B_ax])


def theta_graph():
    """Two C4 vertices joined by two topological edges over C2."""
    C4 = catalog.cyclic(4)
    C4b = fresh(C4, "C4b")
    C2 = catalog.cyclic(2)
    Y = graphs.Graph.from_topological(2, [(0, 1), (0, 1)])
    maps = [Homomorphism(C2, C4b, [0, 2]), Homomorphism(C2, C4, [0, 2]),
            Homomorphism(C2, C4b, [0, 2]), Homomorphism(C2, C4, [0, 2])]
    return graphs.GraphOfGroups(Y, [C4, C4b], [C2, C2, C2, C2], maps)


def d8_center_hnn():
    """Single vertex D8 with a loop over its center."""
    D8 = catalog.dihedral(4)
    C2 = catalog.cyclic(2)
    Y = graphs.Graph.from_topological(1, [(0, 0)])
    f = Homomorphism(C2, D8, [0, 4])
    return graphs.GraphOfGroups(Y, [D8], [C2, C2], [f, f])


def nf_test_graphs():
    """The five graphs used for the normal-form property suites."""
    return [c4_star_c4(),
            free_product(catalog.cyclic(3),
                         fresh(catalog.cyclic(3), "C3b")),
            axis_swap_loop(),
            theta_graph(),
            d8_center_hnn()]


# -- products of path words --------------------------------------------------

def path_end(gog: GraphOfGroups, a: PathWord) -> int:
    """The vertex where the path a ends."""
    return gog.graph.term[a.steps[-1][0]] if a.steps else a.base


def multiply(gog: GraphOfGroups, a: PathWord, b: PathWord) -> PathWord:
    """The path a followed by the path b."""
    if path_end(gog, a) != b.base:
        raise ValueError("paths are not composable")
    if not b.steps:
        if not a.steps:
            return PathWord(a.base, gog.vgroups[a.base].mul(a.g0, b.g0), ())
        steps = list(a.steps)
        e, g = steps[-1]
        steps[-1] = (e, gog.vgroups[gog.graph.term[e]].mul(g, b.g0))
        return PathWord(a.base, a.g0, tuple(steps))
    if not a.steps:
        return PathWord(a.base, gog.vgroups[a.base].mul(a.g0, b.g0), b.steps)
    steps = list(a.steps)
    e, g = steps[-1]
    mid = gog.vgroups[gog.graph.term[e]].mul(g, b.g0)
    steps[-1] = (e, mid)
    return PathWord(a.base, a.g0, tuple(steps) + b.steps)


def inverse(gog: GraphOfGroups, a: PathWord) -> PathWord:
    """The path a walked backwards, with inverted elements."""
    if not a.steps:
        return PathWord(a.base, gog.vgroups[a.base].inverse(a.g0), ())
    Y = gog.graph
    g0 = gog.vgroups[path_end(gog, a)].inverse(a.steps[-1][1])
    steps = []
    items = [(None, a.g0)] + list(a.steps)
    for i in range(len(a.steps), 0, -1):
        e, _ = items[i]
        prev_g = items[i - 1][1]
        v = Y.orig[e]
        steps.append((Y.bar[e], gog.vgroups[v].inverse(prev_g)))
    return PathWord(path_end(gog, a), g0, tuple(steps))


# -- closed path words -------------------------------------------------------
#
# Test inputs in pi_1(G, T): words in vertex elements and stable letters,
# turned into closed paths at a base vertex.

@dataclass
class Letter:
    """A generator letter of pi_1(G, T): a vertex element or a stable edge."""
    kind: str            # "g" or "e"
    vertex: int = 0
    elem: int = 0
    edge: int = 0


def tree_geodesic(Y: graphs.Graph, tree: frozenset[int], src: int,
                  dst: int) -> list[int]:
    """Edge path inside the tree from src to dst."""
    if src == dst:
        return []
    prev: dict[int, tuple[int, int]] = {}
    seen = {src}
    frontier = [src]
    while frontier:
        new = []
        for e in sorted(tree):
            if Y.orig[e] in seen and Y.term[e] not in seen:
                prev[Y.term[e]] = (Y.orig[e], e)
                seen.add(Y.term[e])
                new.append(Y.term[e])
        if dst in seen:
            break
        frontier = new
        if not new:
            raise ValueError("tree does not span both vertices")
    path = []
    cur = dst
    while cur != src:
        v, e = prev[cur]
        path.append(e)
        cur = v
    return list(reversed(path))


def word_to_path(gog: graphs.GraphOfGroups, tree: frozenset[int], base: int,
                 letters: Sequence[Letter]) -> graphs.PathWord:
    """The canonical closed path at `base` representing a word in pi_1(G, T).

    Tree edges are inserted as geodesics with trivial labels; this realizes
    the isomorphism of pi_1(G, T) with pi_1(G, base).
    """
    Y = gog.graph
    cur = base
    ctx_steps: list[tuple[int, int]] = []

    def hop(to_vertex: int):
        nonlocal cur
        for e in tree_geodesic(Y, tree, cur, to_vertex):
            ctx_steps.append((e, 0))
        cur = to_vertex

    g0 = 0
    for let in letters:
        if let.kind == "g":
            hop(let.vertex)
            if not ctx_steps:
                # no movement happened, so the letter lives at the base
                g0 = gog.vgroups[base].mul(g0, let.elem)
            else:
                e, g = ctx_steps[-1]
                ctx_steps[-1] = (e, gog.vgroups[Y.term[e]].mul(g, let.elem))
        elif let.kind == "e":
            hop(Y.orig[let.edge])
            ctx_steps.append((let.edge, 0))
            cur = Y.term[let.edge]
        else:
            raise ValueError(f"unknown letter kind {let.kind!r}")
    hop(base)
    return graphs.path_word(gog, base, g0, ctx_steps)


def random_closed_word(gog: graphs.GraphOfGroups, tree: frozenset[int],
                       base: int, rng: random.Random,
                       max_letters: int = 6) -> graphs.PathWord:
    letters: list[Letter] = []
    nletters = rng.randrange(1, max_letters + 1)
    non_tree = [e for e in range(gog.graph.ne) if e not in tree]
    for _ in range(nletters):
        if non_tree and rng.random() < 0.4:
            letters.append(Letter("e", edge=rng.choice(non_tree)))
        else:
            v = rng.randrange(gog.graph.nv)
            letters.append(Letter("g", vertex=v,
                                  elem=rng.randrange(gog.vgroups[v].order)))
    return word_to_path(gog, tree, base, letters)


def evaluate(cert, w: graphs.PathWord) -> int:
    """Image of a closed path under the morphism of a certify.Certificate."""
    Y = cert.gog.graph
    P = cert.target
    acc = cert.vertex_maps[w.base](w.g0)
    for e, g in w.steps:
        acc = P.mul(acc, cert.edge_images[e])
        acc = P.mul(acc, cert.vertex_maps[Y.term[e]](g))
    return acc


# -- reference homomorphism search --------------------------------------------
#
# The exhaustive search that groups.py used before its backtracking search:
# every tuple of generator images in itertools.product order, each extended
# to a map on the whole group and then filtered.  The differential tests
# require the backtracking search to give exactly these results.

def _extend_map(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                images: Sequence[int]) -> Optional[np.ndarray]:
    """Try to extend gens -> images to a homomorphism on <gens>; None if inconsistent.

    The returned array maps every element of <gens> (entries outside stay -1).
    """
    m = np.full(G.order, -1, dtype=np.int64)
    m[0] = 0
    frontier = [0]
    for g, im in zip(gens, images):
        if m[g] == -1:
            m[g] = im
            frontier.append(g)
        elif m[g] != im:
            return None
    known = [x for x in range(G.order) if m[x] != -1]
    while frontier:
        new = []
        for x in known:
            for y in frontier:
                for a, b in ((x, y), (y, x)):
                    z = int(G.mult[a, b])
                    w = int(H.mult[m[a], m[b]])
                    if m[z] == -1:
                        m[z] = w
                        new.append(z)
                    elif m[z] != w:
                        return None
        known.extend(new)
        frontier = new
    return m


def _reference_search(G: FiniteGroup, H: FiniteGroup, cands, accept):
    gens = generating_sequence(G)
    for images in itertools.product(*cands(gens)):
        m = _extend_map(G, H, gens, images)
        if m is None or (m == -1).any() or not accept(m):
            continue
        if kernels.is_homomorphism(G.mult, H.mult, m):
            yield m


def _bijective(m: np.ndarray) -> bool:
    return len(set(int(x) for x in m)) == len(m)


def _by_order(G: FiniteGroup) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for x, o in enumerate(G.element_orders()):
        out.setdefault(o, []).append(x)
    return out


def reference_automorphisms(G: FiniteGroup,
                            size_cap: int = 200_000,
                            search_cap: int = 2_000_000) -> list[np.ndarray]:
    o, by_order = G.element_orders(), _by_order(G)
    volume = 1
    for g in generating_sequence(G):
        volume *= len(by_order[o[g]])
    if volume > search_cap:
        raise CapExceeded(f"automorphism search space {volume} beyond cap")
    out = []
    for m in _reference_search(G, G, lambda gens: [by_order[o[g]] for g in gens],
                               _bijective):
        out.append(m)
        if len(out) > size_cap:
            raise CapExceeded("automorphism group larger than size cap")
    out.sort(key=lambda a: tuple(int(x) for x in a))
    return out


def reference_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[np.ndarray]:
    if (G.order != H.order
            or sorted(G.element_orders()) != sorted(H.element_orders())
            or G.is_abelian != H.is_abelian):
        return None
    o, by_order = G.element_orders(), _by_order(H)
    found = _reference_search(G, H, lambda gens: [by_order[o[g]] for g in gens],
                              _bijective)
    return next(found, None)


def relabel(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G with its non-identity elements renumbered by a seeded permutation."""
    rng = np.random.default_rng(seed)
    pi = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(pi)
    return FiniteGroup(pi[G.mult[np.ix_(inv, inv)]], name=f"{G.name}~{seed}")


# -- reference chief series ----------------------------------------------------
#
# The enumeration that filtration.py used before its per-call finder: every
# prefix of every chain recomputes ncl(x) for each x and closes floor u ncl(x)
# from scratch.  The differential tests require chief_series and
# chief_refinement to give exactly these chains, in this order.

def _reference_minimal_normal_over(G: FiniteGroup, floor: Subgroup,
                                   ceil: Subgroup) -> list[Subgroup]:
    """All minimal members of {N normal in G : floor < N <= ceil}, sorted."""
    cands: dict[tuple, Subgroup] = {}
    for x in ceil.elems:
        if x in floor._set:
            continue
        N = subgroup_generated(G, list(floor.elems)
                               + list(normal_closure(G, [x]).elems))
        if not set(N.elems) <= ceil._set:
            continue
        cands[N.elems] = N
    mins = []
    for key, N in cands.items():
        if not any(set(other) < set(key) for other in cands if other != key):
            mins.append(N)
    mins.sort(key=lambda s: (len(s), s.elems))
    return mins


def reference_chief_series(G: FiniteGroup,
                           cap: int = 100_000) -> list[tuple[Subgroup, ...]]:
    out: list[tuple[Subgroup, ...]] = []

    def ascend(chain: list[Subgroup]):
        if len(out) > cap:
            raise ValueError("chief series enumeration cap exceeded")
        if chain[-1].elems == tuple(range(G.order)):
            out.append(tuple(reversed(chain)))
            return
        for N in _reference_minimal_normal_over(G, chain[-1], full_subgroup(G)):
            ascend(chain + [N])

    ascend([trivial_subgroup(G)])
    return out


def reference_chief_refinement(F: Filtration) -> list[tuple[int, ...]]:
    """The terms of the chief refinement of a normal filtration of finite length."""
    G = F.group
    stored = list(F.terms)
    if len(stored[0]) != G.order:
        stored.insert(0, full_subgroup(G))
    chain = [stored[0]]
    for upper, lower in zip(stored, stored[1:]):
        if upper.elems == lower.elems:
            continue
        seg = [lower]
        while seg[-1].elems != upper.elems:
            seg.append(_reference_minimal_normal_over(G, seg[-1], upper)[0])
        chain.extend(reversed(seg[:-1]))
    if not chain[-1].is_trivial():
        chain.append(trivial_subgroup(G))
    return [t.elems for t in chain]


# -- reference amalgam scan ------------------------------------------------------
#
# The scan that embed.py ran before it kept per-group facts: chief series
# through a per-call cache, Aut(U_G) and U_H rebuilt for every pair, and
# each trace as a tuple of sorted U-index tuples.  It takes its chief series
# from reference_chief_series, so it shares no kept state with the groups.
# The differential test requires amalgam_scan to give exactly these records.

def reference_chief_trace(series: Sequence[Subgroup], emb: Homomorphism) -> tuple:
    image = {int(emb.map[u]): u for u in range(emb.dom.order)}
    out = []
    for term in series:
        level = tuple(sorted(image[g] for g in term.elems if g in image))
        if not out or out[-1] != level:
            out.append(level)
    return tuple(out)


def _reference_isomorphisms_between(A: FiniteGroup, B: FiniteGroup,
                                    limit_all: bool):
    base = find_isomorphism(A, B)
    if base is None:
        return []
    if not limit_all:
        return [base.map]
    out = []
    for a in automorphisms(A):
        out.append(base.map[a])
    uniq = sorted({tuple(int(x) for x in m) for m in out})
    return [np.asarray(m, dtype=np.int64) for m in uniq]


def reference_amalgam_scan(groups: Sequence[FiniteGroup], max_u: int = 8,
                           all_iso_upto: int = 4) -> list[embed.ScanRecord]:
    records: list[embed.ScanRecord] = []
    trace_cache: dict[tuple[int, tuple], frozenset] = {}
    series_cache: dict[int, list] = {}

    def series_of(G):
        if id(G) not in series_cache:
            series_cache[id(G)] = reference_chief_series(G)
        return series_cache[id(G)]

    def trace_set(G, u_emb):
        key = (id(G), tuple(int(x) for x in u_emb.map))
        if key not in trace_cache:
            trace_cache[key] = frozenset(
                reference_chief_trace(ser, u_emb) for ser in series_of(G))
        return trace_cache[key]

    subs_cache = {}

    def subs_of(G):
        if id(G) not in subs_cache:
            subs_cache[id(G)] = [s for s in all_subgroups(G)
                                 if 2 <= len(s) <= max_u]
        return subs_cache[id(G)]

    for i, G in enumerate(groups):
        for j in range(i, len(groups)):
            H = groups[j]
            if j == i:
                H = FiniteGroup(G.mult.copy(), name=G.name + "'", validate=False)
            for SG in subs_of(G):
                UG, toUG, _ = SG.as_group()
                for SH in subs_of(H):
                    if len(SH) != len(SG):
                        continue
                    UH, toUH, _ = SH.as_group()
                    isos = _reference_isomorphisms_between(
                        UG, UH, len(SG) <= all_iso_upto)
                    for iso in isos:
                        uG = Homomorphism(UG, G, toUG, check=False)
                        uH = Homomorphism(UG, H,
                                          [toUH[int(iso[x])]
                                           for x in range(UG.order)],
                                          check=False)
                        tG = trace_set(G, uG)
                        tH = trace_set(H, uH)
                        records.append(embed.ScanRecord(
                            G.name, H.name, SG.elems, SH.elems,
                            tuple(int(x) for x in iso),
                            bool(tG & tH)))
    return records


# -- reference subspace lists -------------------------------------------------
#
# Every subgroup of the elementary abelian group from the generic
# all_subgroups, bucketed by dimension.  The differential tests require the
# hyperplanes of embed._hyperplanes, and the flag search that descends
# through them, to agree with these lists.

def reference_all_subspaces(space: embed.ElabSpace) -> dict[int, list[tuple[int, ...]]]:
    """Subspaces of space.V grouped by dimension, each list sorted."""
    by_dim: dict[int, list] = {}
    for elems in {s.elems for s in all_subgroups(space.V)}:
        d = 0
        n = len(elems)
        while n > 1:
            n //= space.p
            d += 1
        by_dim.setdefault(d, []).append(tuple(elems))
    for d in by_dim:
        by_dim[d].sort()
    return by_dim


# -- wreath tables -----------------------------------------------------------------
#
# algebra.wreath builds its table by formula and does not validate it.
# conftest.py puts checked_wreath in its place for the whole suite, so every
# wreath table of order <= 256 that a test builds, directly or inside a
# Higman tower, passes the exhaustive kernels.validate_table.

build_wreath = algebra.wreath


def checked_wreath(*args, **kwargs) -> algebra.WreathProduct:
    wp = build_wreath(*args, **kwargs)
    if wp.group.order <= 256:
        kernels.validate_table(wp.group.mult)
    return wp


# -- reference ideal products ------------------------------------------------------
#
# The general product that algebra.IdealBasis.multiply computed before it
# used I * omega = sum_x I (x - 1) over a generating sequence: every basis
# row of I times every basis row of J, with no use of J being omega.  Row r
# times row s is sum_g r_g (g s), and (g s)[t[g, h]] = s[h]; all rows s are
# moved at once for each (r, g).

def reference_ideal_multiply(I: algebra.IdealBasis,
                             J: algebra.IdealBasis) -> algebra.IdealBasis:
    """The ideal I * J, from all products of basis rows."""
    t = I.group.mult
    S = np.array(J.rows, dtype=np.int64).reshape(J.dim, I.group.order)
    prods = []
    for r in I.rows:
        out = np.zeros_like(S)
        for g in np.flatnonzero(r):
            out[:, t[g]] += r[g] * S
        prods.append(out)
    rows = np.vstack(prods) if prods else S[:0]
    return algebra.IdealBasis(I.group, I.p, rows)


# -- reference 2x2 matrix loops ----------------------------------------------------
#
# The loops congruence.py ran before its array form: enumeration over every
# entry 4-tuple, Cayley tables from one product and one dict lookup per cell,
# and the layer checks one matrix (or one pair of matrices) at a time.  The
# products and inverses are written out for 2x2 matrices.

def _ref_mul(x, y, q):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (((a * e + b * g) % q, (a * f + b * h) % q),
            ((c * e + d * g) % q, (c * f + d * h) % q))


def _ref_inverse(m, q):
    (a, b), (c, d) = m
    dinv = pow((a * d - b * c) % q, -1, q)
    return ((d * dinv % q, -b * dinv % q), (-c * dinv % q, a * dinv % q))


def reference_sl2_elements(mod: int) -> list[tuple]:
    """SL(2, Z/mod), identity first, lexicographic on entries after."""
    ident = ((1, 0), (0, 1))
    out = [ident]
    for a, b, c, d in itertools.product(range(mod), repeat=4):
        if (a * d - b * c) % mod == 1 and ((a, b), (c, d)) != ident:
            out.append(((a, b), (c, d)))
    return out


def level_group(tower, i: int):
    """G_i of an SL(2, Z/p^k) congruence tower as (Cayley group, elements)."""
    from residuap.congruence import MatrixGroup
    mg = MatrixGroup(tower.levels[i - 1], tower.full.mod,
                     name=f"SL2^{i}(Z/{tower.full.mod})")
    return mg.as_finite_group()


def reference_as_finite_group(elements: Sequence[tuple], mod: int) -> list[list[int]]:
    """The Cayley table of a list of 2x2 matrices mod `mod`, as lists."""
    index = {m: i for i, m in enumerate(elements)}
    return [[index[_ref_mul(a, b, mod)] for b in elements] for a in elements]


def reference_layer_check(p: int, k: int) -> dict:
    """congruence_layer_check, one matrix and one pair at a time, on the
    tower that congruence.sl2_congruence_tower returns."""
    from residuap import congruence
    tower = congruence.sl2_congruence_tower(p, k)
    mod = p ** k
    ident = ((1, 0), (0, 1))
    report = {"p": p, "k": k, "order": tower.full.order,
              "order_formula": tower.order_formula_holds(),
              "layers": [], "commutator_ok": True}
    for i in range(1, k):
        gi, gi1 = tower.levels[i - 1], tower.levels[i]
        count = len(gi) // len(gi1)
        q = p ** (i + 1)
        ok_exp = True
        for m in gi:
            acc = ident
            for _ in range(p):
                acc = _ref_mul(acc, m, mod)
            ok_exp = ok_exp and tuple(tuple(x % q for x in row) for row in acc) == ident
        report["layers"].append({"i": i, "order": count,
                                 "elementary_abelian_p3": count == p ** 3 and ok_exp})
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i + j > k:
                continue
            target = set(tower.levels[i + j - 1])
            for a in tower.levels[i - 1]:
                ai = _ref_inverse(a, mod)
                for b in tower.levels[j - 1]:
                    comm = _ref_mul(_ref_mul(ai, _ref_inverse(b, mod), mod),
                                    _ref_mul(a, b, mod), mod)
                    if comm not in target:
                        report["commutator_ok"] = False
                        report["commutator_failure"] = {"i": i, "j": j}
                        return report
    return report


# -- reference n x n matrix loops mod p^k -------------------------------------------
#
# The tuple loops congruence.py ran for the power map, the finite images of
# integer matrix groups and the orders before its array form: one product at
# a time, the image closed under the generators and their inverses, and the
# image table from one product and one dict lookup per cell.

def _ref_mat_mul(a, b, mod):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % mod
                       for j in range(n)) for i in range(n))


def _ref_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _ref_reduce(m, q):
    return tuple(tuple(x % q for x in row) for row in m)


def _ref_mat_pow(a, e, mod):
    acc, base = _ref_identity(len(a)), _ref_reduce(a, mod)
    while e:
        if e & 1:
            acc = _ref_mat_mul(acc, base, mod)
        base = _ref_mat_mul(base, base, mod)
        e >>= 1
    return acc


def reference_matrix_order(m, mod: int) -> int:
    """The least e >= 1 with m^e = 1 mod `mod`, one product at a time."""
    ident, acc, e = _ref_identity(len(m)), _ref_reduce(m, mod), 1
    while acc != ident:
        acc, e = _ref_mat_mul(acc, m, mod), e + 1
    return e


def _ref_pow2(a, e, q):
    acc = ((1, 0), (0, 1))
    for _ in range(e):
        acc = _ref_mul(acc, a, q)
    return acc


def reference_power_map_injectivity(p: int, k: int) -> dict:
    """congruence.power_map_injectivity on 2x2 tuples, with a dict from
    each layer class to its representative."""
    levels = []
    all_ok = True
    for i in range(1, k - 1):
        q1, q2 = p ** (i + 1), p ** (i + 2)
        reps = [(((1 + p ** i * a) % q1, (p ** i * b) % q1),
                 ((p ** i * c) % q1, (1 - p ** i * a) % q1))
                for a, b, c in itertools.product(range(p), repeat=3)]
        rep_by_class = {_ref_reduce(m, q1): m for m in reps}
        images = {key: _ref_pow2(m, p, q2) for key, m in rep_by_class.items()}
        well_defined = all(
            _ref_pow2(tuple(tuple((x + q1) % q2 for x in row) for row in m), p, q2)
            == images[key] for key, m in rep_by_class.items())
        inj = len(set(images.values())) == len(reps)
        hom = all(images[_ref_mul(m1, m2, q1)]
                  == _ref_mul(images[k1], images[k2], q2)
                  for k1, m1 in rep_by_class.items() for k2, m2 in rep_by_class.items())
        levels.append({"i": i, "layer_order": len(reps), "well_defined": well_defined,
                       "homomorphism": hom, "injective": inj})
        all_ok = all_ok and inj and hom and well_defined
    return {"p": p, "k": k, "levels": levels, "all_injective": all_ok}


def reference_image_closure(spec, p: int, k: int, cap: int):
    """The image of spec's group in GL(n, Z/p^k) x (Z/p^k)^r as a set of
    (matrix, theta) pairs, closed under the generators and their inverses;
    the reached size (cap + 1) once it passes the cap."""
    from residuap.congruence import _int_inverse
    from residuap.smith import theta_map
    mod = p ** k
    _, theta_rows = theta_map(spec.presentation)
    steps = []
    for g, th in zip(spec.generators, theta_rows):
        steps.append((_ref_reduce(g, mod), tuple(x % mod for x in th)))
        steps.append((_ref_reduce(_int_inverse(g), mod), tuple(-x % mod for x in th)))
    start = (_ref_identity(spec.dim), (0,) * len(theta_rows[0]))
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for m, th in frontier:
            for gm, gth in steps:
                key = (_ref_mat_mul(m, gm, mod),
                       tuple((a + b) % mod for a, b in zip(th, gth)))
                if key not in seen:
                    seen.add(key)
                    new.append(key)
                    if len(seen) > cap:
                        return len(seen)
        frontier = new
    return seen


def reference_t_lattice(t_mats, t_theta, p: int, k: int) -> int:
    """The index congruence._t_intersection_lattice returns.  For cyclic T
    the least multiple from the order of m and the theta condition; for
    r >= 2 the size of the exponent box [0, p^k)^r, each T(e) formed one
    product at a time, over the number of e with T(e) = 1 and
    e theta = 0 mod p^k."""
    mod = p ** k
    n = len(t_mats[0])
    if len(t_mats) == 1:
        nz = [abs(x) for x in t_theta[0] if x]
        theta_step = mod // math.gcd(mod, math.gcd(*nz)) if nz else 1
        o = reference_matrix_order(t_mats[0], mod)
        return o * theta_step // math.gcd(o, theta_step)
    count = 0
    for exps in itertools.product(range(mod), repeat=len(t_mats)):
        acc = _ref_identity(n)
        for m, e in zip(t_mats, exps):
            acc = _ref_mat_mul(acc, _ref_mat_pow(m, e, mod), mod)
        th = [sum(e * te[i] for te, e in zip(t_theta, exps)) for i in range(len(t_theta[0]))]
        count += acc == _ref_identity(n) and all(x % mod == 0 for x in th)
    return mod ** len(t_mats) // count


# -- seeded partial automorphisms of F_p^d ------------------------------------------

# the shapes the differential tests of the flag search and completions cover
ELAB_SHAPES = ([(2, d) for d in range(6)] + [(3, d) for d in range(4)]
               + [(5, 1), (5, 2)])


def elab_group(p: int, d: int) -> FiniteGroup:
    return catalog.elementary_abelian(p, d) if d else catalog.cyclic(1)


def random_partial_automorphism(V, sp, rng, s):
    """The linear map between two random s-dimensional subspaces that sends
    one random basis to the other."""
    def frame():
        vecs = []
        while len(vecs) < s:
            span = set(sp.subspace_elems(vecs))
            vecs.append(sp.vec(rng.choice(
                [g for g in range(V.order) if g not in span])))
        return vecs

    def combine(coeffs, vecs):
        return elab_elem(sp, [sum(c * v[i] for c, v in zip(coeffs, vecs))
                        for i in range(sp.dim)])

    src, dst = frame(), frame()
    mapping = {combine(c, src): combine(c, dst)
               for c in itertools.product(range(sp.p), repeat=s)}
    return embed.PartialAutomorphism(V, Subgroup(V, sorted(mapping)),
                                     Subgroup(V, sorted(mapping.values())), mapping)


def seeded_partial_automorphisms(V, sp, rng):
    """Lists of one and of two random partial automorphisms, for every
    dimension s of their domains."""
    return [[random_partial_automorphism(V, sp, rng, s) for _ in range(n)]
            for s in range(sp.dim + 1) for n in (1, 1, 2)]


# -- reference F_p coordinates, flags and completions ------------------------------
#
# The routines embed.py and certify.py ran before one coordinate layer
# (ElabSpace.perm, inverse, unit_completion, linear_extension) replaced them:
# coordinates as dicts, flag coordinates by elimination against reduced
# [B | I] per vector, the flag extension by enumerating the whole span of the
# known pairs, greedy completions by one reduction per unit vector, and
# permutations by one solve per element.  The differential tests require the
# new code to give the same coordinates, decisions, bases, matrices and
# permutations.

class ReferenceElabSpace:
    """Coordinates on an elementary abelian group, built with dicts."""

    def __init__(self, V: FiniteGroup):
        self.V = V
        self.p = V.prime() or 2
        basis = []
        span = {0}
        coords = {0: ()}
        while len(span) < V.order:
            x = min(y for y in range(V.order) if y not in span)
            basis.append(x)
            new = {}
            for g, c in coords.items():
                acc = g
                for e in range(self.p):
                    new[acc] = c + (e,)
                    acc = V.mul(acc, x)
            coords = new
            span = set(coords)
        self.basis = basis
        self.dim = d = len(basis)
        self.coords = {g: tuple(c) + (0,) * (d - len(c)) for g, c in coords.items()}
        self.by_coord = {c: g for g, c in self.coords.items()}

    def vec(self, g: int) -> tuple[int, ...]:
        return self.coords[g]

    def elem(self, vec) -> int:
        return self.by_coord[tuple(int(x) % self.p for x in vec)]

    def subspace_elems(self, vectors) -> list[int]:
        span = {(0,) * self.dim}
        for v in vectors:
            v = tuple(int(x) % self.p for x in v)
            span = {tuple((a + c * b) % self.p for a, b in zip(s, v))
                    for s in span for c in range(self.p)}
        return sorted(self.by_coord[s] for s in span)


def _reference_to_flag(space, basis, vec):
    p, d = space.p, space.dim
    rows = [list(b) + [int(i == j) for j in range(d)] for i, b in enumerate(basis)]
    reduced = [(r.index(1), r) for r in kernels.pybackend.rref_mod_p(rows, p)
               if any(r[:d])]
    target = [int(x) % p for x in vec] + [0] * d
    for lead, r in reduced:
        c = target[lead]
        if c:
            target = [(a - c * b) % p for a, b in zip(target, r)]
    if any(target[:d]):
        raise AssertionError("vector outside the span of the basis")
    return tuple((-x) % p for x in target[d:])


def _reference_from_flag(space, basis, coeffs):
    p, d = space.p, space.dim
    out = [0] * d
    for c, b in zip(coeffs, basis):
        for i in range(d):
            out[i] = (out[i] + c * b[i]) % p
    return tuple(out)


def reference_extend_in_flag(space, basis, phi) -> tuple:
    """The unitriangular matrix of phi in the adapted basis, from the span of
    the known pairs in flag coordinates."""
    p, d = space.p, space.dim
    known = {(0,) * d: (0,) * d}

    def add_pair(src, dst):
        for s0, d0 in list(known.items()):
            cs, cd = s0, d0
            for _ in range(1, p):
                cs = tuple((a + b) % p for a, b in zip(cs, src))
                cd = tuple((a + b) % p for a, b in zip(cd, dst))
                if cs in known:
                    if known[cs] != cd:
                        raise AssertionError("inconsistent linear extension")
                else:
                    known[cs] = cd

    for a in phi.A.elems:
        add_pair(_reference_to_flag(space, basis, space.vec(a)),
                 _reference_to_flag(space, basis, space.vec(phi(a))))
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    for e_j in units:
        if e_j not in known:
            add_pair(e_j, e_j)
    return tuple(tuple(known[units[j]][i] for j in range(d)) for i in range(d))


def reference_flag_extend(V: FiniteGroup, pas, by_dim) -> tuple:
    """(status, reason, basis, matrices) of the flag search, on dict
    coordinates and the subspace lists by_dim of reference_all_subspaces;
    basis and matrices are None unless the status is yes."""
    from residuap.results import NO, YES
    space = ReferenceElabSpace(V)
    d = space.dim
    found = None

    def descend(chain):
        nonlocal found
        if found is not None:
            return
        if len(chain[-1]) == 1:
            found = list(chain)
            return
        cur_set = set(chain[-1])
        for nxt in by_dim[d - len(chain)]:
            if found is not None:
                return
            nxt_set = set(nxt)
            if nxt_set <= cur_set and all(phi.preserves(cur_set, nxt_set)
                                          for phi in pas):
                descend(chain + [nxt])

    descend([tuple(range(V.order))])
    if found is None:
        return NO, "no invariant flag with trivial layer action", None, None
    basis = []
    picked = {0}
    for term in reversed(found[:-1]):
        basis.append(space.vec(min(x for x in term if x not in picked)))
        picked = set(space.subspace_elems(basis))
    basis = tuple(basis)
    return YES, "", basis, tuple(reference_extend_in_flag(space, basis, phi)
                                   for phi in pas)


def reference_flag_perms(space, basis, matrices) -> list[np.ndarray]:
    """Each flag matrix as a permutation, one element at a time."""
    p, d = space.p, space.dim
    perms = []
    for mat in matrices:
        arr = np.empty(space.V.order, dtype=np.int64)
        for g in range(space.V.order):
            c = _reference_to_flag(space, basis, space.vec(g))
            img = tuple(sum(mat[i][j] * c[j] for j in range(d)) % p for i in range(d))
            arr[g] = space.elem(_reference_from_flag(space, basis, img))
        perms.append(arr)
    return perms


# -- reference power-map classification --------------------------------------------
#
# filtration._induced_power_map as it checked the morphism property before its
# array comparison: one FiniteGroup.mul per pair of domain elements.

def reference_induced_power_map(G: FiniteGroup, dom: Subgroup, e: int,
                                mid: Subgroup, low: Subgroup):
    from residuap.groups import quotient
    top, to_parent, from_parent = mid.as_group()
    low_local = Subgroup(top, [from_parent[g] for g in low.elems], check=False)
    Q, proj = quotient(top, low_local)
    images = {}
    for x in dom.elems:
        px = G.power(x, e)
        if px not in mid:
            return False, None, False
        images[x] = proj(from_parent[px])
    t = G.mult
    for a in dom.elems:
        for b in dom.elems:
            if images[int(t[a, b])] != Q.mul(images[a], images[b]):
                return False, None, False
    kernel = tuple(sorted(x for x in dom.elems if images[x] == 0))
    surjective = len(set(images.values())) == Q.order
    return True, kernel, surjective


# -- reference routines of the Higman tower -----------------------------------------
#
# The whole-group sweeps that the tower used before it worked from
# generating sequences: the frontier closure of npbackend, the central-p step
# over every element of G, the gamma series as subgroups generated by all
# commutators [g, t], and the wreath table filled one column at a time.  The
# differential tests require the generator-based routines to give exactly
# these sets and tables.

def reference_closure(mult, inv, gens) -> list[int]:
    """<gens>: all products of the members found so far with the newest
    ones, on both sides, until no new element appears."""
    t = np.asarray(mult, dtype=np.int64)
    inv = np.asarray(inv, dtype=np.int64)
    member = np.zeros(t.shape[0], dtype=bool)
    member[0] = True
    gens = np.asarray(sorted({int(g) for g in gens}), dtype=np.int64)
    if gens.size:
        member[gens] = True
        member[inv[gens]] = True
    frontier = cur = np.flatnonzero(member)
    while frontier.size:
        prods = np.unique(np.concatenate([t[np.ix_(cur, frontier)].ravel(),
                                          t[np.ix_(frontier, cur)].ravel()]))
        frontier = prods[~member[prods]]
        member[frontier] = True
        cur = np.flatnonzero(member)
    return [int(x) for x in cur]


def reference_central_p_step(G: FiniteGroup, T: Subgroup, p: int) -> set[int]:
    """The commutators [g, t] for every g in G and t in T, and the t^p."""
    return (set(kernels.commutators(G.mult, G.inv, range(G.order), T.elems))
            | set(kernels.powers(G.mult, T.elems, p)))


def reference_is_central_p(F: Filtration, p: int) -> bool:
    """F starts at G, descends, and every term holds the reference step of
    the term above it (the last term tested against itself)."""
    terms = F.terms
    return (len(terms[0]) == F.group.order
            and all(b._set <= a._set for a, b in zip(terms, terms[1:]))
            and all(reference_central_p_step(F.group, a, p) <= b._set
                    for a, b in zip(terms, terms[1:] + terms[-1:])))


def reference_gamma_series(G: FiniteGroup, p: Optional[int] = None) -> list[tuple]:
    """The gamma series (p None) or the gamma^p series of G, as element
    tuples: each next term generated by all [g, t] for g in G and t in the
    term, and by the t^p when p is given."""
    terms = [tuple(range(G.order))]
    while True:
        gens = kernels.commutators(G.mult, G.inv, range(G.order), terms[-1])
        if p is not None:
            gens += kernels.powers(G.mult, terms[-1], p)
        nxt = tuple(reference_closure(G.mult, G.inv, gens))
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def reference_wreath_table(X: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    """The Cayley table of X wr H, one column (h2, f2) at a time:
    (h1, f1)(h2, f2) = (h1 h2, f1^{h2} f2) with f^h(k) = f(hk)."""
    nx, nh = X.order, H.order
    nbase = nx ** nh
    order = nbase * nh
    radix = nx ** np.arange(nh)
    all_digits = np.empty((order, nh), dtype=np.int64)
    rem = np.arange(order) % nbase
    for k in range(nh):
        all_digits[:, k] = rem % nx
        rem //= nx
    tops = np.arange(order) // nbase
    table = np.empty((order, order), dtype=np.int64)
    for y in range(order):
        h2, f2 = int(tops[y]), all_digits[y]
        twisted = all_digits[:, H.mult[h2]]
        prod_digits = X.mult[twisted, f2[None, :]]
        table[:, y] = H.mult[tops, h2] * nbase + prod_digits @ radix
    return table


# -- reference subgroup and quotient tables -----------------------------------------
#
# The loops Subgroup.as_group and quotient ran before one searchsorted per
# table: one dict lookup per cell, a row at a time.

def reference_as_group_table(S: Subgroup) -> np.ndarray:
    """The table of S on its own indices, the rank of each element in S.elems."""
    G = S.parent
    to_parent = list(S.elems)
    from_parent = {g: i for i, g in enumerate(to_parent)}
    n = len(to_parent)
    table = np.empty((n, n), dtype=np.int64)
    sub = G.mult[np.ix_(to_parent, to_parent)]
    for i in range(n):
        table[i] = [from_parent[int(x)] for x in sub[i]]
    return table


def reference_quotient(G: FiniteGroup, N: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The table of G/N on the minimal coset representatives, in increasing
    order, and the projection G -> G/N as an index array."""
    narr = np.asarray(N.elems, dtype=np.int64)
    rep = G.mult[:, narr].min(axis=1)
    reps = sorted(set(int(x) for x in rep))
    index_of = {r: i for i, r in enumerate(reps)}
    q = len(reps)
    table = np.empty((q, q), dtype=np.int64)
    for i, r in enumerate(reps):
        table[i] = [index_of[int(rep[G.mult[r, s]])] for s in reps]
    proj = np.array([index_of[int(rep[g])] for g in range(G.order)],
                    dtype=np.int64)
    return table, proj


# -- reference colimit ------------------------------------------------------------
#
# Sigma(G|T) as certify.colimit_sigma built it before it summed one vertex
# at a time: the full direct sum of the vertex groups in one table, then
# the quotient by the relations of the given edges.

def reference_direct_sum(groups: Sequence[FiniteGroup]):
    """The direct product of the groups, group 0 major, as (table, name,
    one embedding index array per group)."""
    total, maps = groups[0], [np.arange(groups[0].order)]
    for G in groups[1:]:
        total, eL, eR = direct_product(total, G)
        maps = [eL.map[m] for m in maps] + [eR.map]
    return total, maps


def reference_colimit_sigma(gog: graphs.GraphOfGroups, edges):
    """(Sigma, one injection index array per vertex) for abelian vertex
    groups, from the full direct sum."""
    Y = gog.graph
    total, maps = reference_direct_sum(gog.vgroups)
    gens = []
    for e in edges:
        for x in range(gog.egroups[e].order):
            a = int(maps[Y.term[e]][gog.emaps[e](x)])
            b = int(maps[Y.orig[e]][gog.emaps[Y.bar[e]](x)])
            gens.append(total.mul(a, total.inverse(b)))
    S, proj = quotient(total, subgroup_generated(total, gens))
    return S, [proj.map[m] for m in maps]


# -- reference stretchings ---------------------------------------------------------
#
# The stretching along an explicit index map, as the Higman tower built it
# before filtration.is_stretching replaced its index maps.

def stretch(terms: Sequence, iota: Sequence[int], total: int) -> tuple:
    """The first `total` terms of the stretching of terms along iota: term m
    is terms[j] (1-based, trailing convention) for iota(j) <= m < iota(j+1),
    with iota continued past its stored values in steps of 1."""
    def at(n: int) -> int:
        return iota[n - 1] if n <= len(iota) else iota[-1] + n - len(iota)
    out, j = [], 1
    for m in range(1, total + 1):
        while at(j + 1) <= m:
            j += 1
        out.append(terms[min(j, len(terms)) - 1])
    return tuple(out)


def reference_stretchings(terms: Sequence, horizon: int) -> set[tuple]:
    """The first `horizon` terms of the stretchings of terms along every
    strictly increasing iota with iota(1) = 1 and iota(len(terms)) <=
    horizon.  A chain of length L <= horizon - len(terms) + 1, repeated to
    `horizon` terms, is in this set exactly when it is a stretching of terms
    (both read with the trailing convention): an iota for it can place the
    indices of the last run of terms one apart, from where the chain first
    reaches that run, at or before L."""
    return {stretch(terms, (1,) + rest, horizon)
            for rest in itertools.combinations(range(2, horizon + 1),
                                               len(terms) - 1)}


# -- reference Higman tower prediction ------------------------------------------------
#
# The prediction embed.predicted_higman_order made before it worked on term
# orders: the two filtrations aligned as Filtrations by align_filtrations
# (which raises AlignmentError), then the orders of the aligned terms and of
# the chain they induce on U.

def reference_predicted_higman_order(am, FG: Filtration, FH: Filtration) -> int:
    if am.uG.is_surjective() and am.uH.is_surjective():
        return am.G.order
    FGs, FHs = align_filtrations(FG, FH, am.uG, am.uH)
    return embed._predict([len(t) for t in FGs.terms],
                          [len(t) for t in FHs.terms],
                          [len(lv) for lv in induced_chain(FGs, am.uG)])


def reference_feasible_witness(am, witness, p: int, cap: int):
    """The search feasible_witness ran before it worked on term orders:
    every pair of central p-subchains of the witness series (interior terms
    deleted, tested by reference_is_central_p) that induce the same chain
    on U, each pair predicted by reference_predicted_higman_order; the
    first pair of least prediction within the cap, as (FG, FH, predicted)."""
    def subchains(G, series):
        if len(series[0]) != G.order:
            return []
        last = len(series) - 1
        out = []
        for r in range(last):
            for keep in itertools.combinations(range(1, last), r):
                F = Filtration(G, [series[i] for i in (0, *keep, last)],
                               check=False)
                if reference_is_central_p(F, p):
                    out.append(F)
        return out

    best = None
    for FG in subchains(am.G, witness[0]):
        for FH in subchains(am.H, witness[1]):
            if reference_chief_trace(FG.terms, am.uG) != \
                    reference_chief_trace(FH.terms, am.uH):
                continue
            pred = reference_predicted_higman_order(am, FG, FH)
            if pred <= cap and (best is None or pred < best[2]):
                best = (FG, FH, pred)
    return best


# -- reference gamma^p collection and stabilizer choice ------------------------
#
# certify.certify_residually_p used to try the gamma^p series of the vertex
# groups first and fall back to compatible_gamma_collection when they were
# not a compatible collection; the fallback's level step was the subgroup
# generated by [x, t] for every x in G and the t^p.  embed's
# _extend_in_stabilizer used to keep the automorphisms that stabilize the
# chain with trivial layer action (a loop of its own) before taking, for each
# phi, the first one that restricts to phi.

def reference_gamma_gog_filtration(gog: graphs.GraphOfGroups,
                                   p: int) -> Optional[graphs.GogFiltration]:
    filts = tuple(lower_central_p_series(G, p) for G in gog.vgroups)
    try:
        return graphs.GogFiltration(gog, filts)
    except ValueError:
        return reference_compatible_gamma_collection(gog, p)


def reference_compatible_gamma_collection(gog: graphs.GraphOfGroups,
                                          p: int) -> Optional[graphs.GogFiltration]:
    Y = gog.graph
    levels = [[full_subgroup(gog.vgroups[v]) for v in range(Y.nv)]]
    for _ in range(24):
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
                C = subgroup_generated(gog.egroups[e], sorted(A._set | B._set))
                new_t = subgroup_generated(gog.vgroups[vt], list(nxt[vt].elems)
                                           + [gog.emaps[e](x) for x in C.elems])
                new_o = subgroup_generated(gog.vgroups[vo], list(nxt[vo].elems)
                                           + [gog.emaps[Y.bar[e]](x)
                                              for x in C.elems])
                if new_t.elems != nxt[vt].elems or new_o.elems != nxt[vo].elems:
                    nxt[vt], nxt[vo] = new_t, new_o
                    changed = True
        if [s.elems for s in nxt] == [s.elems for s in cur]:
            return None
        levels.append(nxt)
        if all(s.is_trivial() for s in nxt):
            break
    else:
        return None
    filts = tuple(Filtration(gog.vgroups[v], [lev[v] for lev in levels],
                             check=False) for v in range(Y.nv))
    gf = graphs.GogFiltration(gog, filts)
    if not all(F.is_central_p(p) for F in filts):
        return None
    return gf


def _reference_stabilizes_chain(G: FiniteGroup, perm, series) -> bool:
    for upper, lower in zip(series, series[1:]):
        for x in upper.elems:
            y = int(perm[x])
            if y not in upper:
                return False
            if G.mul(y, G.inverse(x)) not in lower:
                return False
    return True


def reference_stabilizer_choice(G: FiniteGroup, auts, pas, series) -> list:
    """For each phi, the first of the automorphisms auts of G (sorted) that
    stabilizes series with trivial layer action and restricts to phi, or
    None."""
    stab = [a for a in auts if _reference_stabilizes_chain(G, a, series)]
    return [next((a for a in stab
                  if all(int(a[x]) == phi(x) for x in phi.A.elems)), None)
            for phi in pas]


def random_restricted_automorphism(G: FiniteGroup, auts,
                                   rng: random.Random) -> embed.PartialAutomorphism:
    """A random automorphism among auts, restricted to a random subgroup."""
    a = rng.choice(auts)
    U = rng.choice(all_subgroups(G))
    mapping = {x: int(a[x]) for x in U.elems}
    return embed.PartialAutomorphism(G, U, Subgroup(G, sorted(mapping.values())),
                                     mapping)


def reference_is_partial_morphism(G: FiniteGroup, A: Sequence[int],
                                  mapping: dict[int, int]) -> bool:
    """The pairwise reference for PartialAutomorphism's morphism check:
    mapping[ab] == mapping[a] mapping[b] for every pair of A, tested in
    turn; a product outside A fails."""
    t = G.mult
    for a in A:
        for b in A:
            ab = int(t[a, b])
            if ab not in mapping or mapping[ab] != t[mapping[a], mapping[b]]:
                return False
    return True
