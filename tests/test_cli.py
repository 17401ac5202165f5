import json
import os
import subprocess
import sys

import pytest

from helpers import (c4_star_c4, c4xc2_loop, elab_elem,
                     forbid_tables_above_cap, shift_loop, swap_loop,
                     theta_graph)

import residuap
from residuap import algebra, catalog, cli, embed, filtration, serialize
from residuap.cli import main
from residuap.embed import ElabSpace
from residuap.groups import Homomorphism


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_and_catalog(capsys):
    code, out = run(capsys, "group", "--group", "catalog:C4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4 and data["p"] == 2


def test_filtration_and_algebra(capsys):
    code, out = run(capsys, "filtration", "gamma_p", "--group", "catalog:D8",
                    "--p", "2", "--json")
    assert code == 0 and json.loads(out)["orders"] == [8, 2, 1]
    code, out = run(capsys, "algebra", "jennings", "--group", "catalog:C4",
                    "--p", "2", "--json")
    assert code == 0 and json.loads(out)["orders"] == [4, 2, 1]
    code, out = run(capsys, "algebra", "wreath-class", "--group", "catalog:C3",
                    "--p", "3", "--json")
    assert code == 0 and json.loads(out)["class_gamma"] == 3


def test_algebra_jennings_builds_each_omega_power_once(capsys, tmp_path,
                                                     monkeypatch):
    """One request builds omega^2, ..., omega^(d+1) once each (the last is
    zero) and the dimension series once, though jennings_series and the
    omega class both need them."""
    f = tmp_path / "d16.json"
    f.write_text(serialize.dumps(serialize.group_to_obj(catalog.dihedral(8))))
    products, lazard = [], []
    multiply = algebra.IdealBasis.multiply
    monkeypatch.setattr(algebra.IdealBasis, "multiply",
                        lambda I, J: products.append(I.dim) or multiply(I, J))
    series = filtration._lazard_series
    monkeypatch.setattr(filtration, "_lazard_series",
                        lambda *args: lazard.append(1) or series(*args))
    code, out = run(capsys, "algebra", "jennings", "--group", str(f),
                    "--p", "2", "--json")
    assert code == 0
    d = json.loads(out)["omega_class"]
    assert d == 8 and len(products) == d and len(set(products)) == d
    assert len(lazard) == 1


def test_congruence_commands(capsys, tmp_path):
    code, out = run(capsys, "congruence", "tower", "--pk", "3:2", "--json")
    assert code == 0 and json.loads(out)["order"] == 648
    code, out = run(capsys, "congruence", "powermap", "--pk", "3:3", "--json")
    assert code == 0 and json.loads(out)["all_injective"]
    f = tmp_path / "ut.json"
    f.write_text(json.dumps({"n": 2, "p": 3, "d": 2, "N": [[0, 1], [0, 0]]}))
    code, out = run(capsys, "congruence", "utorder", "--file", str(f), "--json")
    assert code == 0 and json.loads(out)["order"] == 9
    f2 = tmp_path / "pres.json"
    f2.write_text(json.dumps({"ngens": 2, "relators": [[1, 1, -2, -2, -2]]}))
    code, out = run(capsys, "congruence", "smith", "--file", str(f2), "--json")
    assert code == 0 and json.loads(out)["free_rank"] == 1


def test_gog_certify_exit_codes(capsys, tmp_path):
    # positive instance: exit 0 and a verifiable certificate file
    pos = tmp_path / "shift.json"
    pos.write_text(serialize.dumps({"gog": serialize.gog_to_obj(shift_loop())}))
    cert_file = tmp_path / "cert.json"
    code, out = run(capsys, "gog", "certify", "--file", str(pos), "--p", "3",
                    "--json", "--out", str(cert_file))
    assert code == 0 and json.loads(out)["target_order"] == 81
    code, out = run(capsys, "verify", "--file", str(cert_file), "--json")
    assert code == 0 and json.loads(out)["verified"]
    # negative instance: exit 10
    neg = tmp_path / "swap.json"
    neg.write_text(serialize.dumps({"gog": serialize.gog_to_obj(swap_loop())}))
    code, out = run(capsys, "gog", "certify", "--file", str(neg), "--p", "3",
                    "--json")
    assert code == 10


def test_gog_certify_sigma_filtration_not_invariant_exits_20(capsys, tmp_path):
    f = tmp_path / "c4xc2.json"
    f.write_text(serialize.dumps({"gog": serialize.gog_to_obj(c4xc2_loop())}))
    code = main(["gog", "certify", "--file", str(f), "--p", "2"])
    captured = capsys.readouterr()
    assert code == 20 and captured.err == ""
    assert captured.out == ("status: unknown\nreason: Sigma filtration is not "
                            "invariant under an edge map\n")


def test_catalog_name_above_the_cap_exits_1(capsys, monkeypatch):
    forbid_tables_above_cap(monkeypatch)
    assert main(["group", "--group", "catalog:C100000"]) == 1
    err = capsys.readouterr().err
    assert err == "error: CapExceeded: catalog group C100000 exceeds order " \
                  "cap 4096\n"


def test_embed_flag_exit_codes(capsys, tmp_path):
    V = catalog.elementary_abelian(3, 2)
    sp = ElabSpace(V)
    swap_map = {g: elab_elem(sp, (sp.vec(g)[1], sp.vec(g)[0])) for g in range(9)}
    f = tmp_path / "swap-f3.json"
    f.write_text(serialize.dumps({
        "group": serialize.group_to_obj(V),
        "partial_automorphisms": [{"map": [[k, v] for k, v in
                                           sorted(swap_map.items())]}]}))
    code, _ = run(capsys, "embed", "flag", "--file", str(f), "--json")
    assert code == 10


def test_embed_higman(capsys, tmp_path):
    C4 = catalog.cyclic(4)
    C2 = catalog.cyclic(2)
    data = {
        "G": serialize.group_to_obj(C4),
        "H": serialize.group_to_obj(C4),
        "U": serialize.group_to_obj(C2),
        "uG": [0, 2], "uH": [0, 2],
        "FG": [[0, 1, 2, 3], [0, 2], [0]],
        "FH": [[0, 1, 2, 3], [0, 2], [0]],
    }
    f = tmp_path / "am.json"
    f.write_text(json.dumps(data))
    code, out = run(capsys, "embed", "higman", "--file", str(f), "--json")
    assert code == 0 and json.loads(out)["W_order"] == 64


@pytest.mark.parametrize("what", ["fibersum", "higman"])
def test_embed_builds_sums_of_order_4096_at_the_default_cap(capsys, tmp_path,
                                                            what):
    """C2^7 and C2^6 over C2: the sum, and the tower |W| = 128 64 / 2, are
    of order 4096 = DEFAULT_ORDER_CAP although C2^7 x C2^6 is of order
    8192."""
    A, B = catalog.elementary_abelian(2, 7), catalog.elementary_abelian(2, 6)
    U = catalog.cyclic(2)
    if what == "fibersum":
        data = {"A": serialize.group_to_obj(A), "B": serialize.group_to_obj(B),
                "U": serialize.group_to_obj(U), "phi": [0, 1], "psi": [0, 1]}
    else:
        data = {"G": serialize.group_to_obj(A), "H": serialize.group_to_obj(B),
                "U": serialize.group_to_obj(U), "uG": [0, 1], "uH": [0, 1],
                "FG": [list(range(128)), [0]], "FH": [list(range(64)), [0]]}
    f = tmp_path / "am.json"
    f.write_text(json.dumps(data))
    code, out = run(capsys, "embed", what, "--file", str(f), "--json")
    rep = json.loads(out)
    assert code == 0 and rep["W_order" if what == "higman" else "order"] == 4096


def test_gog_quotient_and_cover(capsys, tmp_path):
    gog = c4_star_c4()
    f = tmp_path / "gog.json"
    f.write_text(serialize.dumps({"gog": serialize.gog_to_obj(gog),
                                  "collection": [[0, 2], [0, 2]]}))
    code, out = run(capsys, "gog", "quotient", "--file", str(f), "--json")
    assert code == 0 and json.loads(out)["vertex_orders"] == [2, 2]
    code, out = run(capsys, "gog", "cover", "--file", str(f), "--json")
    assert code == 0 and json.loads(out)["degree"] == 2


def test_catalog_env_override(capsys, tmp_path, monkeypatch):
    custom = tmp_path / "cat"
    custom.mkdir()
    G = catalog.cyclic(6)
    (custom / "Weird.json").write_text(serialize.dumps(serialize.group_to_obj(G)))
    monkeypatch.setenv("RESIDUAP_CATALOG", str(custom))
    code, out = run(capsys, "group", "--group", "catalog:Weird", "--json")
    assert code == 0 and json.loads(out)["order"] == 6


def test_malformed_input_exits_1(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code = main(["gog", "certify", "--file", str(f)])
    assert code == 1
    code = main(["group", "--group", str(tmp_path / "missing.json")])
    assert code == 1
    gog = serialize.gog_to_obj(shift_loop())
    gog["egroup_of_edge"] = [7, 7]
    f.write_text(serialize.dumps({"gog": gog}))
    capsys.readouterr()
    assert main(["gog", "certify", "--file", str(f), "--p", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_reuses_one_parser(monkeypatch):
    def refuse():
        raise AssertionError("the parser is built again")
    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["group", "--group", "catalog:C4"]) == 0


def test_matrixfilt_rejects_noncommuting_t(capsys, tmp_path):
    f = tmp_path / "t.json"
    f.write_text(json.dumps({"generators": [[[1, 10 ** 9], [0, 1]], [[1, 0], [1, 1]]],
                             "ngens": 2, "relators": [], "subgroups": [[[1], [2]]]}))
    capsys.readouterr()
    assert main(["congruence", "matrixfilt", "--file", str(f), "--p", "2",
                 "--kmax", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "do not commute" in err


def run_process(*argv):
    """The residuap command in a child process, stopped after 20 s."""
    src = os.path.dirname(os.path.dirname(residuap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "residuap.cli", *argv],
                          capture_output=True, text=True, timeout=20, env=env)


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_gog_certify_rejects_non_prime_p(tmp_path, p):
    f = tmp_path / "c4.json"
    f.write_text(serialize.dumps({"gog": serialize.gog_to_obj(c4_star_c4())}))
    proc = run_process("gog", "certify", "--file", str(f), "--p", p)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_large_semiprime_p_is_rejected_quickly():
    proc = run_process("filtration", "gamma_p", "--group", "catalog:D8",
                       "--p", str(1000000007 * 1000000009))
    assert proc.returncode == 1
    assert proc.stderr == "error: ValueError: 1000000016000000063 is not prime\n"


CERTIFIABLE = {"shift": (shift_loop, "3"), "c4": (c4_star_c4, "2"),
               "theta": (theta_graph, "2")}


@pytest.mark.parametrize("source,field,change", [
    ("shift", "edge_images", lambda xs: xs[:-1]),
    ("shift", "edge_images", lambda xs: xs + [0]),
    ("shift", "edge_images", lambda xs: xs[:-1] + [10 ** 6]),
    ("shift", "vertex_maps", lambda xs: xs[:-1]),
    ("c4", "tree", lambda xs: []),
    ("c4", "tree", lambda xs: [99]),
    ("c4", "tree", lambda xs: [0, 0]),
    ("theta", "tree", lambda xs: [0, 2]),
    ("shift", "tree", lambda xs: "ab"),
    ("shift", "tree", lambda xs: None),
    ("shift", "vertex_maps", lambda xs: 5),
    ("c4", "vertex_maps", lambda xs: [[x + 0.4 for x in m] for m in xs]),
    ("shift", "p", lambda xs: "x"),
    ("shift", "gog", lambda xs: 5),
    ("shift", "target", lambda xs: []),
    ("shift", None, lambda cert: [cert]),
    ("shift", "gog", lambda gog: {**gog, "graph": 5}),
    ("shift", "gog", lambda gog: {**gog, "vgroups": 5}),
    ("shift", "gog", lambda gog: {**gog, "egroup_of_edge": [7, 7]}),
], ids=["edges-short", "edges-long", "edge-out-of-range", "vertices-short",
        "tree-empty", "tree-out-of-range", "tree-repeated", "tree-not-bar-closed",
        "tree-string", "tree-null", "vertex-maps-int", "vertex-maps-float",
        "p-string", "gog-int", "target-list", "top-level-array",
        "gog-graph-int", "gog-vgroups-int", "gog-egroup-out-of-range"])
def test_verify_rejects_malformed_certificate(capsys, tmp_path, source, field,
                                              change):
    build, p = CERTIFIABLE[source]
    src = tmp_path / "gog.json"
    src.write_text(serialize.dumps({"gog": serialize.gog_to_obj(build())}))
    cert_file = tmp_path / "cert.json"
    assert main(["gog", "certify", "--file", str(src), "--p", p,
                 "--out", str(cert_file)]) == 0
    cert = json.loads(cert_file.read_text())
    if field is None:
        cert = change(cert)
    else:
        cert[field] = change(cert[field])
    cert_file.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", "--file", str(cert_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_unknown_kind(capsys, tmp_path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"kind": "other"}))
    assert main(["verify", "--file", str(f)]) == 1


def test_dimension_series_rejects_a_non_p_group():
    # the recursion never reaches 1 on C27 at p = 2
    proc = run_process("filtration", "dimension", "--group", "catalog:C27", "--p", "2")
    assert proc.returncode == 1
    assert proc.stderr == "error: ValueError: C27 is not a 2-group\n"


def test_utorder_of_order_3_to_the_20_returns(tmp_path):
    # one product per step took 3^20 steps; p-th powers take 20
    f = tmp_path / "ut.json"
    f.write_text(json.dumps({"n": 2, "p": 3, "d": 20, "N": [[0, 1], [0, 0]]}))
    proc = run_process("congruence", "utorder", "--file", str(f), "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"order": 3 ** 20}


def _gog_input(build, **fields):
    return lambda: {"gog": serialize.gog_to_obj(build()), **fields}


def _cyclic(n):
    return serialize.group_to_obj(catalog.cyclic(n))


def _c4_amalgam(**changes):
    return lambda: {"G": _cyclic(4), "H": _cyclic(4), "U": _cyclic(2),
                    "uG": [0, 2], "uH": [0, 2],
                    "FG": [[0, 1, 2, 3], [0, 2], [0]],
                    "FH": [[0, 1, 2, 3], [0, 2], [0]], **changes}


def _c4_data(**fields):
    return lambda: {"group": _cyclic(4), **fields}


def _word(word):
    return _gog_input(shift_loop, word=word)


BAD_INPUTS = {
    # elements outside 0..order-1
    "quotient-element": (["gog", "quotient"],
                         _gog_input(c4_star_c4, collection=[[0, 99], [0, 2]])),
    "quotient-short": (["gog", "quotient"],
                       _gog_input(c4_star_c4, collection=[[0, 99]])),
    "cover-element": (["gog", "cover"],
                      _gog_input(c4_star_c4, collection=[[0, 99], [0, 2]])),
    # a tower predicted past --cap-wreath
    "higman-cap": (["embed", "higman", "--cap-wreath", "16"], _c4_amalgam()),
    # --cap-wreath outside 1..DEFAULT_ORDER_CAP, refused before any table
    "higman-cap-above-4096": (["embed", "higman", "--cap-wreath", "100000"],
                              _c4_amalgam()),
    "higman-cap-zero": (["embed", "higman", "--cap-wreath", "0"],
                        _c4_amalgam()),
    "higman-term": (["embed", "higman"],
                    _c4_amalgam(FG=[[0, 1, 2, 3], [0, 2, 9], [0]])),
    "flag-key": (["embed", "flag"],
                 _c4_data(partial_automorphisms=[{"map": [[0, 0], [9, 9]]}])),
    "inner-key": (["embed", "inner"],
                  _c4_data(partial_automorphisms=[{"map": [[0, 0], [9, 9]]}])),
    "fibersum-phi": (["embed", "fibersum"],
                     lambda: {"A": _cyclic(4), "B": _cyclic(4), "U": _cyclic(2),
                              "phi": [0, 9], "psi": [0, 2]}),
    "mapping-torus": (["embed", "mapping-torus"],
                      _c4_data(automorphisms=[[0, 3, 2, 9]])),
    # element indices that are not integers, which were truncated
    "higman-float": (["embed", "higman"], _c4_amalgam(uG=[0, 2.9])),
    "higman-float-term": (["embed", "higman"],
                          _c4_amalgam(FG=[[0, 1, 2, 3], [0, 2.5], [0]])),
    "fibersum-float": (["embed", "fibersum"],
                       lambda: {"A": _cyclic(4), "B": _cyclic(4),
                                "U": _cyclic(2), "phi": [0, 2.5],
                                "psi": [0, 2]}),
    "mapping-torus-float": (["embed", "mapping-torus"],
                            _c4_data(automorphisms=[[0, 1.5, 2, 3]])),
    "flag-table-float": (["embed", "flag"], lambda: {
        "group": {"order": 2, "mult": [[0, 1], [1, 0.5]], "name": "C2"},
        "partial_automorphisms": []}),
    # partial automorphisms of the wrong shape
    "flag-pas-int": (["embed", "flag"], _c4_data(partial_automorphisms=5)),
    "inner-pas-int": (["embed", "inner"], _c4_data(partial_automorphisms=5)),
    "flag-map-int": (["embed", "flag"],
                     _c4_data(partial_automorphisms=[{"map": 5}])),
    "inner-map-int": (["embed", "inner"],
                      _c4_data(partial_automorphisms=[{"map": 5}])),
    "inner-map-float": (["embed", "inner"], _c4_data(
        partial_automorphisms=[{"map": {"0": 0, "2": 2.5}}])),
    # path words, psi and collections of the wrong shape
    "normal-form-int": (["gog", "normal-form"], _word(5)),
    "normal-form-base": (["gog", "normal-form"],
                         _word({"base": 3, "g0": 0, "steps": []})),
    "normal-form-edge": (["gog", "normal-form"],
                         _word({"base": 0, "g0": 0, "steps": [[5, 0]]})),
    "separate-int": (["gog", "separate", "--p", "3"], _word(5)),
    "separate-base": (["gog", "separate", "--p", "3"],
                      _word({"base": 3, "g0": 0, "steps": []})),
    "separate-edge": (["gog", "separate", "--p", "3"],
                      _word({"base": 0, "g0": 1, "steps": [[5, 0]]})),
    "unfold-large": (["gog", "unfold"], _gog_input(shift_loop, psi=[0, 7])),
    "unfold-negative": (["gog", "unfold"], _gog_input(shift_loop, psi=[-5, 0])),
    "unfold-strings": (["gog", "unfold"],
                       _gog_input(shift_loop, psi=["a", "b"])),
    "unfold-null": (["gog", "unfold"], _gog_input(shift_loop, psi=None)),
    "quotient-int": (["gog", "quotient"], _gog_input(c4_star_c4, collection=5)),
    # a file that holds a JSON list, not an object
    **{f"{what}-top-level-list": ([command, what], lambda: [1])
       for command, what in [("embed", "fibersum"), ("embed", "higman"),
                             ("embed", "flag"), ("embed", "inner"),
                             ("embed", "mapping-torus"),
                             ("congruence", "utorder"),
                             ("congruence", "smith"),
                             ("congruence", "matrixfilt")]},
    "flag-group-list": (["embed", "flag"],
                        lambda: {"group": [1], "partial_automorphisms": []}),
    # congruence fields of the wrong type or shape
    "utorder-n-string": (["congruence", "utorder"], lambda: {
        "n": "3", "p": 3, "d": 2, "N": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}),
    "utorder-N-short": (["congruence", "utorder"],
                        lambda: {"n": 3, "p": 3, "d": 2, "N": [[0, 1, 0]]}),
    "smith-relator-int": (["congruence", "smith"],
                          lambda: {"ngens": 2, "relators": [1]}),
    "matrixfilt-generator-int": (["congruence", "matrixfilt"], lambda: {
        "generators": [1], "ngens": 1, "relators": []}),
    # well-typed congruence fields out of range
    "matrixfilt-no-generators": (["congruence", "matrixfilt"], lambda: {
        "generators": [], "ngens": 0, "relators": []}),
    "matrixfilt-subgroup-letter": (["congruence", "matrixfilt"], lambda: {
        "generators": [[[1]]], "ngens": 1, "relators": [],
        "subgroups": [[[5]]]}),
    "smith-negative-ngens": (["congruence", "smith"],
                             lambda: {"ngens": -1, "relators": []}),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_one_line(capsys, tmp_path, name):
    """Input that indexes past a table, is not a JSON object, or does not
    have the shape of a word, psi, collection or congruence field ends in
    exit 1 and one diagnostic line, not an IndexError or TypeError
    traceback."""
    command, build = BAD_INPUTS[name]
    f = tmp_path / "input.json"
    f.write_text(json.dumps(build()))
    capsys.readouterr()
    assert main([*command[:2], "--file", str(f), *command[2:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-1", "4097", "100000"])
def test_cap_wreath_outside_1_to_the_order_cap_is_refused(capsys, tmp_path,
                                                          cap):
    """--cap-wreath can only lower DEFAULT_ORDER_CAP: a larger cap would let
    a predicted tower of any order be built."""
    f = tmp_path / "input.json"
    f.write_text(json.dumps(_c4_amalgam()()))
    capsys.readouterr()
    assert main(["embed", "higman", "--file", str(f), "--cap-wreath", cap]) == 1
    assert capsys.readouterr() == (
        "", "error: --cap-wreath must be between 1 and 4096\n")


def test_embed_higman_failed_self_check_propagates(tmp_path, monkeypatch):
    """A tower that fails its own verification is a defect, not bad input:
    the AssertionError leaves main instead of ending as one error line."""
    def fail(*args):
        raise AssertionError("(A1) fails on G")
    monkeypatch.setattr(embed, "verify_higman", fail)
    f = tmp_path / "input.json"
    f.write_text(json.dumps(_c4_amalgam()()))
    with pytest.raises(AssertionError, match="fails on G"):
        main(["embed", "higman", "--file", str(f)])


def _one_error_line(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify", "--file"], ["gog", "certify", "--file"],
    ["embed", "flag", "--file"], ["congruence", "smith", "--file"],
    ["group", "--group"]], ids=lambda command: "-".join(command[:-1]))
def test_a_directory_as_input_exits_1_with_one_line(capsys, tmp_path, command):
    _one_error_line(capsys, [*command, str(tmp_path)])


@pytest.mark.parametrize("what", ["utorder", "smith", "matrixfilt"])
def test_congruence_without_a_file_exits_1_with_one_line(capsys, what):
    _one_error_line(capsys, ["congruence", what])
