"""JSON serialization with exact round-trips for groups, subgroups,
homomorphisms, filtrations, graphs of groups, words and certificates."""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .certify import Certificate
from .filtration import Filtration
from .graphs import Graph, GraphOfGroups, PathWord, path_word
from .groups import FiniteGroup, Homomorphism, Subgroup, require_prime


def group_to_obj(G: FiniteGroup) -> dict:
    return {"order": G.order,
            "mult": G.mult.tolist(),
            "name": G.name}


def group_from_obj(obj: dict) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise ValueError("a group must be a JSON object")
    mult = np.asarray(obj["mult"])
    if mult.dtype.kind not in "iu":
        # a float entry such as 2.9 is refused, not truncated to 2
        raise ValueError("group table entries must be integers")
    G = FiniteGroup(mult, name=obj.get("name", "G"))
    if G.order != obj["order"]:
        raise ValueError("declared order does not match the table")
    return G


def subgroup_to_obj(S: Subgroup) -> list[int]:
    return list(S.elems)


def subgroup_from_obj(G: FiniteGroup, obj) -> Subgroup:
    if not _all_indices(obj, G.order):
        raise ValueError(f"a subgroup of {G.name} must list element indices "
                         f"0..{G.order - 1}")
    return Subgroup(G, obj)


def hom_to_obj(h: Homomorphism) -> list[int]:
    return [int(x) for x in h.map]


def hom_from_obj(dom: FiniteGroup, cod: FiniteGroup, obj) -> Homomorphism:
    if not _all_indices(obj, cod.order):
        raise ValueError(f"a map into {cod.name} must list element indices "
                         f"0..{cod.order - 1}")
    return Homomorphism(dom, cod, obj)


def filtration_to_obj(F: Filtration) -> dict:
    return {"group": group_to_obj(F.group),
            "terms": [subgroup_to_obj(t) for t in F.terms]}


def filtration_from_obj(obj: dict) -> Filtration:
    G = group_from_obj(_field(obj, "group", dict, "filtration"))
    return Filtration(G, [subgroup_from_obj(G, t) for t in
                          _field(obj, "terms", list, "filtration")])


def graph_to_obj(Y: Graph) -> dict:
    return {"nv": Y.nv, "bar": list(Y.bar), "orig": list(Y.orig),
            "term": list(Y.term)}


def graph_from_obj(obj: dict) -> Graph:
    nv = _field(obj, "nv", int, "graph")
    bar, orig, term = (_field(obj, key, list, "graph")
                       for key in ("bar", "orig", "term"))
    if not (_all_indices(bar, len(bar)) and _all_indices(orig, nv)
            and _all_indices(term, nv)):
        raise ValueError("graph edge arrays must hold edge and vertex indices")
    return Graph(nv, bar, orig, term)


def gog_to_obj(gog: GraphOfGroups) -> dict:
    Y = gog.graph
    egroup_ids = []
    distinct = []
    seen: dict[int, int] = {}
    for e in range(Y.ne):
        key = id(gog.egroups[e])
        if key not in seen:
            seen[key] = len(distinct)
            distinct.append(gog.egroups[e])
        egroup_ids.append(seen[key])
    return {"graph": graph_to_obj(Y),
            "vgroups": [group_to_obj(g) for g in gog.vgroups],
            "egroup_of_edge": egroup_ids,
            "egroups": [group_to_obj(g) for g in distinct],
            "emaps": [hom_to_obj(m) for m in gog.emaps]}


def gog_from_obj(obj: dict) -> GraphOfGroups:
    if not isinstance(obj, dict):
        raise ValueError("a graph of groups must be a JSON object")
    Y = graph_from_obj(_field(obj, "graph", dict, "gog"))
    vgroups = [group_from_obj(g)
               for g in _list_field(obj, "vgroups", dict, Y.nv)]
    distinct = [group_from_obj(g) for g in _list_field(obj, "egroups", dict)]
    ids = _list_field(obj, "egroup_of_edge", int, Y.ne)
    if not _all_indices(ids, len(distinct)):
        raise ValueError("gog field 'egroup_of_edge' must index 'egroups'")
    egroups = [distinct[i] for i in ids]
    maps = _list_field(obj, "emaps", list, Y.ne)
    emaps = []
    for e in range(Y.ne):
        cod = vgroups[Y.term[e]]
        if not _all_indices(maps[e], cod.order):
            raise ValueError(f"gog edge map {e} must list elements of "
                             f"vertex group {Y.term[e]}")
        emaps.append(Homomorphism(egroups[e], cod, maps[e]))
    return GraphOfGroups(Y, vgroups, egroups, emaps)


def word_to_obj(w: PathWord) -> dict:
    return {"base": w.base, "g0": w.g0,
            "steps": [[e, g] for e, g in w.steps]}


def word_from_obj(gog: GraphOfGroups, obj: dict) -> PathWord:
    if not isinstance(obj, dict):
        raise ValueError("a word must be a JSON object")
    base, g0 = _field(obj, "base", int, "word"), _field(obj, "g0", int, "word")
    steps = _field(obj, "steps", list, "word")
    if not all(isinstance(s, list) and len(s) == 2
               and all(isinstance(x, int) for x in s) for s in steps):
        raise ValueError("word steps must be [edge, element] pairs of ints")
    return path_word(gog, base, g0, [tuple(s) for s in steps])


def certificate_to_obj(cert: Certificate) -> dict:
    return {"kind": "residually-p-certificate",
            "p": cert.p,
            "gog": gog_to_obj(cert.gog),
            "tree": sorted(cert.tree),
            "target": group_to_obj(cert.target),
            "vertex_maps": [hom_to_obj(h) for h in cert.vertex_maps],
            "edge_images": list(cert.edge_images)}


def certificate_from_obj(obj: dict) -> Certificate:
    p = _field(obj, "p", int)
    require_prime(p)
    gog = gog_from_obj(_field(obj, "gog", dict))
    target = group_from_obj(_field(obj, "target", dict))
    Y = gog.graph
    vertex_maps = _field(obj, "vertex_maps", list)
    edge_images = _field(obj, "edge_images", list)
    if len(vertex_maps) != Y.nv:
        raise ValueError(f"certificate has {len(vertex_maps)} vertex "
                         f"maps for {Y.nv} vertices")
    if len(edge_images) != Y.ne:
        raise ValueError(f"certificate has {len(edge_images)} edge "
                         f"images for {Y.ne} edges")
    if not _all_indices(edge_images, target.order):
        raise ValueError("certificate edge images must be target elements")
    tree = _spanning_tree(Y, _field(obj, "tree", list))
    vmaps = tuple(hom_from_obj(gog.vgroups[v], target, vertex_maps[v])
                  for v in range(Y.nv))
    return Certificate(gog, tree, target, vmaps, tuple(edge_images), p)


def _field(obj: dict, key: str, kind: type, owner: str = "certificate"):
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"{owner} field {key!r} must be of type "
                         f"{kind.__name__}")
    return value


def _list_field(obj: dict, key: str, item: type,
                length: Optional[int] = None) -> list:
    """A gog field that must be a list of items of one JSON type, of the
    given length when one is given."""
    xs = _field(obj, key, list, "gog")
    if length is not None and len(xs) != length:
        raise ValueError(f"gog field {key!r} must have {length} entries, "
                         f"not {len(xs)}")
    if not all(isinstance(x, item) for x in xs):
        raise ValueError(f"gog field {key!r} must hold {item.__name__} values")
    return xs


def _all_indices(xs, n: int) -> bool:
    """Whether xs is a list of element indices 0..n-1: the one index check
    of the JSON readers, so that a float such as 2.9 is refused, not
    truncated to 2."""
    return isinstance(xs, list) and all(
        isinstance(x, int) and 0 <= x < n for x in xs)


def _spanning_tree(Y: Graph, edges: list) -> frozenset[int]:
    """The edge set of a certificate tree, checked to be a spanning tree of
    Y: distinct edge indices, closed under bar, 2(nv - 1) of them, reaching
    every vertex from vertex 0."""
    if not _all_indices(edges, Y.ne) or len(set(edges)) != len(edges):
        raise ValueError("certificate tree must list distinct edge indices")
    tree = frozenset(edges)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {Y.term[e] for e in tree if Y.orig[e] in frontier} - reached
        reached |= frontier
    if len(tree) != 2 * (Y.nv - 1) or len(reached) != Y.nv \
            or any(Y.bar[e] not in tree for e in tree):
        raise ValueError("certificate tree is not a spanning tree of the graph")
    return tree


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
