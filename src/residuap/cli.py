"""The residuap command line: compute, certify, verify, report.

Exit codes: 0 success / certificate found, 10 provably-no, 20
unknown-at-depth, 1 error with diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, catalog, certify, congruence, embed, filtration, graphs
from . import serialize
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, full_subgroup,
                     trivial_subgroup)
from .results import Decision
from .smith import Presentation, smith_abelianization

EXIT_ERROR = 1


def _load_group(spec: str) -> FiniteGroup:
    if spec.startswith("catalog:"):
        name = spec.split(":", 1)[1]
        override = os.environ.get("RESIDUAP_CATALOG")
        if not override:
            return catalog.by_name(name)
        spec = os.path.join(override, name + ".json")
    return serialize.group_from_obj(_read_object(spec))


def _read_object(path) -> dict:
    """The JSON object in the file at path (a command's --file)."""
    if path is None:
        raise ValueError("this command needs --file")
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return data


def _emit(args, payload: dict, code: int = 0) -> int:
    if getattr(args, "json", False):
        print(serialize.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return code


def _decision_exit(args, dec: Decision, extra: dict | None = None) -> int:
    payload = {"status": dec.status}
    if dec.reason:
        payload["reason"] = dec.reason
    if extra:
        payload.update(extra)
    return _emit(args, payload, dec.exit_code())


# -- subcommand implementations -----------------------------------------------

def cmd_group(args) -> int:
    G = _load_group(args.group)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize.dumps(serialize.group_to_obj(G)))
    payload = {"name": G.name, "order": G.order, "abelian": G.is_abelian,
               "exponent": G.exponent()}
    p = G.prime()
    if p:
        payload["p"] = p
    return _emit(args, payload)


def cmd_filtration(args) -> int:
    G = _load_group(args.group)
    p = args.p
    if args.series == "gamma":
        F = filtration.lower_central_series(G)
    elif args.series == "gamma_p":
        F = filtration.lower_central_p_series(G, p)
    elif args.series == "dimension":
        F = filtration.dimension_series(G, p)
    elif args.series == "chief":
        base = filtration.Filtration(G, [full_subgroup(G), trivial_subgroup(G)],
                                     check=False)
        F = filtration.chief_refinement(base)
    else:
        raise ValueError(f"unknown series {args.series!r}")
    payload = {"series": args.series, "orders": [len(t) for t in F.terms]}
    if args.potency_horizon:
        rep = filtration.classify_potency(F, p, args.potency_horizon)
        payload["p_potent"] = rep.p_potent
        payload["strongly_p_potent"] = rep.strongly_p_potent
        payload["uniformly_p_potent"] = rep.uniformly_p_potent
        payload["levels"] = [
            {"n": lvl.n, "morphism": lvl.is_morphism,
             "kernel_matches": lvl.kernel_matches,
             "phi_injective": lvl.phi_injective,
             "phi_bijective": lvl.phi_bijective}
            for lvl in rep.strong]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize.dumps(serialize.filtration_to_obj(F)))
    return _emit(args, payload)


def cmd_algebra(args) -> int:
    G = _load_group(args.group)
    p = args.p
    if args.what == "omega":
        _, dims, d = algebra.augmentation_ideal_powers(G, p)
        return _emit(args, {"dims": dims, "nilpotency_class": d})
    if args.what == "jennings":
        F = algebra.jennings_series(G, p)
        _, _, d = algebra.augmentation_ideal_powers(G, p)
        return _emit(args, {"orders": [len(t) for t in F.terms],
                            "omega_class": d})
    if args.what == "buckley":
        rep = algebra.buckley_check(p, G, args.nmax)
        return _emit(args, rep, 0 if rep["ok"] else EXIT_ERROR)
    if args.what == "wreath-class":
        rep = algebra.wreath_class_formula(p, G)
        return _emit(args, rep, 0 if rep["agree"] else EXIT_ERROR)
    raise ValueError(f"unknown algebra operation {args.what!r}")


def cmd_embed(args) -> int:
    if args.what == "fibersum":
        data = _read_object(args.file)
        A = serialize.group_from_obj(data["A"])
        B = serialize.group_from_obj(data["B"])
        U = serialize.group_from_obj(data["U"])
        phi = serialize.hom_from_obj(U, A, data["phi"])
        psi = serialize.hom_from_obj(U, B, data["psi"])
        S, iA, iB = embed.fiber_sum(A, B, phi, psi)
        return _emit(args, {"order": S.order,
                            "iota_A": serialize.hom_to_obj(iA),
                            "iota_B": serialize.hom_to_obj(iB)})
    if args.what == "higman":
        data = _read_object(args.file)
        am, FG, FH = _amalgam_from_obj(data)
        res = embed.higman_embed(am, FG, FH, cap=args.cap_wreath)
        payload = {"W_order": res.embedding.W.order,
                   "W_filtration": [len(t) for t in res.FW.terms]}
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(serialize.dumps({
                    "W": serialize.group_to_obj(res.embedding.W),
                    "alpha": serialize.hom_to_obj(res.embedding.alpha),
                    "beta": serialize.hom_to_obj(res.embedding.beta)}))
        return _emit(args, payload)
    if args.what == "flag":
        data = _read_object(args.file)
        V = serialize.group_from_obj(data["group"])
        pas = _pas_from_obj(V, data["partial_automorphisms"])
        dec = embed.unipotent_flag_extend(V, pas)
        extra = {}
        if dec.is_yes:
            extra["basis"] = [list(b) for b in dec.certificate.basis]
            extra["matrices"] = [[list(r) for r in m]
                                 for m in dec.certificate.matrices]
        return _decision_exit(args, dec, extra)
    if args.what == "inner":
        data = _read_object(args.file)
        V = serialize.group_from_obj(data["group"])
        pas = _pas_from_obj(V, data["partial_automorphisms"])
        dec = embed.inner_extension(V, pas)
        extra = {}
        if dec.is_yes:
            extra["Hp_order"] = dec.certificate.Hp.order
            extra["conjugators"] = list(dec.certificate.conjugators)
        return _decision_exit(args, dec, extra)
    if args.what == "mapping-torus":
        data = _read_object(args.file)
        G = serialize.group_from_obj(data["group"])
        rep = embed.mapping_torus_check(
            G, [serialize.hom_from_obj(G, G, a).map
                for a in _list(data["automorphisms"], "automorphisms")])
        code = 0 if rep["residually_p"] else 10
        return _emit(args, {"residually_p": rep["residually_p"],
                            "levels": rep["levels"]}, code)
    raise ValueError(f"unknown embed operation {args.what!r}")


def _amalgam_from_obj(data):
    G = serialize.group_from_obj(data["G"])
    H = serialize.group_from_obj(data["H"])
    U = serialize.group_from_obj(data["U"])
    am = embed.Amalgam(G, H, U, serialize.hom_from_obj(U, G, data["uG"]),
                       serialize.hom_from_obj(U, H, data["uH"]))
    FG = filtration.Filtration(G, [serialize.subgroup_from_obj(G, t)
                                   for t in _list(data["FG"], "FG")])
    FH = filtration.Filtration(H, [serialize.subgroup_from_obj(H, t)
                                   for t in _list(data["FH"], "FH")])
    return am, FG, FH


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _pas_from_obj(V, items):
    out = []
    for item in _list(items, "partial_automorphisms"):
        pairs = item.get("map") if isinstance(item, dict) else None
        if isinstance(pairs, dict):
            # JSON object keys are strings; int() refuses "2.9"
            pairs = [[int(k), v] for k, v in pairs.items()]
        if not (isinstance(pairs, list) and all(
                isinstance(kv, list) and len(kv) == 2
                and all(isinstance(x, int) for x in kv) for kv in pairs)):
            raise ValueError("a partial automorphism needs a \"map\": an "
                             "object or a list of [element, image] integers")
        mapping = dict(pairs)
        A = Subgroup(V, sorted(mapping))
        B = Subgroup(V, sorted(mapping.values()))
        out.append(embed.PartialAutomorphism(V, A, B, mapping))
    return out


def cmd_gog(args) -> int:
    data = _read_object(args.file)
    gog = serialize.gog_from_obj(data["gog"] if "gog" in data else data)
    tree = graphs.maximal_subtree(gog.graph)
    if args.what == "normal-form":
        ctx = graphs.NormalFormContext(gog)
        w = serialize.word_from_obj(gog, data["word"])
        nf = ctx.normal_form(w)
        return _emit(args, {"normal_form": serialize.word_to_obj(nf),
                            "trivial": nf == ctx.identity(w.base)})
    if args.what == "sigma":
        col = certify.colimit_sigma(gog, tree)
        return _emit(args, {"order": col.sigma.order,
                            "injective": [i.is_injective()
                                          for i in col.injections]})
    if args.what == "certify":
        dec = certify.certify_residually_p(gog, args.p, tree, cap=args.cap_wreath)
        extra = {}
        if dec.is_yes:
            extra["target_order"] = dec.certificate.target.order
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(serialize.dumps(
                        serialize.certificate_to_obj(dec.certificate)))
        return _decision_exit(args, dec, extra)
    if args.what == "partial-ab":
        pab = certify.partial_abelianization(gog, tree)
        return _emit(args, {"sigma_order": pab.colimit.sigma.order,
                            "stable_letters": len(pab.oriented)})
    if args.what == "quotient":
        q, mor = graphs.quotient_gog(gog, _collection(gog, data))
        return _emit(args, {"vertex_orders": [g.order for g in q.vgroups],
                            "edge_orders": [g.order for g in q.egroups]})
    if args.what == "cover":
        cover, mor, deg = graphs.common_cover(gog, _collection(gog, data))
        return _emit(args, {"degree": deg, "vertices": cover.graph.nv,
                            "edges": cover.graph.ne})
    if args.what == "unfold":
        A = _load_group(args.aut_group)
        psi = data["psi"]
        cover, mor = graphs.unfold_gog(gog, tree, psi, A)
        return _emit(args, {"vertices": cover.graph.nv,
                            "edges": cover.graph.ne,
                            "betti": cover.graph.betti()})
    if args.what == "homology":
        rep = certify.homology_fiber_sum_check(gog, tree)
        return _emit(args, rep)
    if args.what == "separate":
        filts = tuple(filtration.lower_central_p_series(gog.vgroups[v], args.p)
                      for v in range(gog.graph.nv))
        gfilt = graphs.GogFiltration(gog, filts)
        ctx = graphs.NormalFormContext(gog)
        w = ctx.normal_form(serialize.word_from_obj(gog, data["word"]))
        rep = certify.separating_level(gog, gfilt, w, ctx)
        return _emit(args, rep, 0 if rep["level"] else EXIT_ERROR)
    raise ValueError(f"unknown gog operation {args.what!r}")


def _collection(gog, data) -> list[Subgroup]:
    """The subgroups of a gog file's "collection": one element list per vertex."""
    coll = data["collection"]
    if not (isinstance(coll, list) and len(coll) == gog.graph.nv):
        raise ValueError(f"collection must be a list of {gog.graph.nv} lists "
                         f"of element indices")
    return [serialize.subgroup_from_obj(gog.vgroups[v], c)
            for v, c in enumerate(coll)]


def cmd_congruence(args) -> int:
    if args.what == "tower":
        p, k = _parse_pk(args.pk)
        tower = congruence.sl2_congruence_tower(p, k)
        return _emit(args, {"order": tower.full.order,
                            "levels": [len(l) for l in tower.levels],
                            "formula": tower.order_formula_holds()})
    if args.what == "layers":
        p, k = _parse_pk(args.pk)
        rep = congruence.congruence_layer_check(p, k)
        return _emit(args, rep, 0 if rep["commutator_ok"] else EXIT_ERROR)
    if args.what == "powermap":
        p, k = _parse_pk(args.pk)
        rep = congruence.power_map_injectivity(p, k)
        return _emit(args, rep, 0 if rep["all_injective"] else EXIT_ERROR)
    if args.what == "utorder":
        data = _read_object(args.file)
        order = congruence.unitriangular_order(
            _ints(data, "n"), _ints(data, "p"), _ints(data, "d"),
            _ints(data, "N", 2))
        return _emit(args, {"order": order})
    if args.what == "smith":
        data = _read_object(args.file)
        pres = Presentation(_ints(data, "ngens"), _ints(data, "relators", 2))
        ab = smith_abelianization(pres)
        return _emit(args, {"free_rank": ab.free_rank,
                            "torsion": list(ab.torsion)})
    if args.what == "matrixfilt":
        data = _read_object(args.file)
        spec = congruence.MatrixGroupSpec(
            generators=_ints(data, "generators", 3),
            presentation=Presentation(_ints(data, "ngens"),
                                      _ints(data, "relators", 2)),
            subgroups=tuple(map(congruence.TSpec, _ints(data, "subgroups", 3)
                                if "subgroups" in data else ())))
        rep = congruence.matrix_p_filtration(spec, args.p, args.kmax)
        return _emit(args, rep)
    raise ValueError(f"unknown congruence operation {args.what!r}")


def _ints(data: dict, key: str, depth: int = 0):
    """data[key] as an integer (depth 0) or as tuples of integers nested
    depth deep; any other value is refused, as serialize._field refuses a
    field of the wrong type."""
    def read(x, d):
        if d == 0 and isinstance(x, int):
            return x
        if d > 0 and isinstance(x, list):
            return tuple(read(y, d - 1) for y in x)
        raise ValueError(f"congruence field {key!r} must be " + (
            "an integer" if depth == 0 else f"integer lists nested {depth} deep"))
    return read(data[key], depth)


def _parse_pk(text: str) -> tuple[int, int]:
    p, k = text.split(":")
    return int(p), int(k)


def cmd_verify(args) -> int:
    data = _read_object(args.file)
    kind = data.get("kind")
    if kind == "residually-p-certificate":
        cert = serialize.certificate_from_obj(data)
        try:
            cert.verify()
        except AssertionError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_ERROR
        return _emit(args, {"verified": True, "target_order": cert.target.order})
    print(f"error: unknown certificate kind {kind!r}", file=sys.stderr)
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    def add_common(parser):
        parser.add_argument("--json", action="store_true",
                            default=argparse.SUPPRESS, help="machine output")
        parser.add_argument("--cap-wreath", type=int, default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(prog="residuap",
                                 description="desk-scale residually-p workbench")
    add_common(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        parser = sub.add_parser(name, **kw)
        add_common(parser)
        return parser

    g = add("group", help="construct and inspect groups")
    g.add_argument("--group", required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_group)

    f = add("filtration", help="series and potency reports")
    f.add_argument("series", choices=["gamma", "gamma_p", "dimension", "chief"])
    f.add_argument("--group", required=True)
    f.add_argument("--p", type=int, default=2)
    f.add_argument("--potency-horizon", type=int, default=0)
    f.add_argument("--out")
    f.set_defaults(fn=cmd_filtration)

    a = add("algebra", help="group algebra computations")
    a.add_argument("what", choices=["omega", "jennings", "buckley", "wreath-class"])
    a.add_argument("--group", required=True)
    a.add_argument("--p", type=int, default=2)
    a.add_argument("--nmax", type=int, default=3)
    a.set_defaults(fn=cmd_algebra)

    e = add("embed", help="embedding constructions")
    e.add_argument("what", choices=["fibersum", "higman", "flag", "inner",
                                    "mapping-torus"])
    e.add_argument("--file", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_embed)

    gg = add("gog", help="graphs of groups")
    gg.add_argument("what", choices=["normal-form", "quotient", "cover",
                                     "sigma", "certify", "partial-ab",
                                     "unfold", "homology", "separate"])
    gg.add_argument("--file", required=True)
    gg.add_argument("--p", type=int, default=2)
    gg.add_argument("--aut-group", default="catalog:C2")
    gg.add_argument("--out")
    gg.set_defaults(fn=cmd_gog)

    c = add("congruence", help="congruence towers and Smith forms")
    c.add_argument("what", choices=["tower", "layers", "powermap", "utorder",
                                    "smith", "matrixfilt"])
    c.add_argument("--pk", default="2:2", help="prime:level, e.g. 3:2")
    c.add_argument("--p", type=int, default=3)
    c.add_argument("--kmax", type=int, default=3)
    c.add_argument("--file")
    c.set_defaults(fn=cmd_congruence)

    v = add("verify", help="re-check serialized certificates")
    v.add_argument("--file", required=True)
    v.set_defaults(fn=cmd_verify)
    return ap


_DEFAULTS = {"json": False, "cap_wreath": DEFAULT_ORDER_CAP}
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    for key, value in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not 1 <= args.cap_wreath <= DEFAULT_ORDER_CAP:
        print(f"error: --cap-wreath must be between 1 and {DEFAULT_ORDER_CAP}",
              file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
