import json

import pytest

from helpers import Letter, c4_star_c4, shift_loop, word_to_path

from residuap import catalog, serialize
from residuap.certify import certify_residually_p
from residuap.filtration import lower_central_p_series
from residuap.graphs import maximal_subtree
from residuap.groups import Homomorphism, Subgroup, subgroup_generated


def roundtrip(obj):
    return json.loads(serialize.dumps(obj))


def test_group_roundtrip_exact():
    for name in ("C4", "D8", "Heis27"):
        G = catalog.by_name(name)
        obj = serialize.group_to_obj(G)
        text = serialize.dumps(obj)
        back = serialize.group_from_obj(json.loads(text))
        assert serialize.dumps(serialize.group_to_obj(back)) == text


def test_subgroup_and_hom_roundtrip():
    C4 = catalog.cyclic(4)
    S = subgroup_generated(C4, [2])
    assert serialize.subgroup_from_obj(C4, roundtrip(
        serialize.subgroup_to_obj(S))).elems == S.elems
    C2 = catalog.cyclic(2)
    h = Homomorphism(C4, C2, [0, 1, 0, 1])
    back = serialize.hom_from_obj(C4, C2, roundtrip(serialize.hom_to_obj(h)))
    assert back == h


@pytest.mark.parametrize("read", [
    lambda C4: serialize.subgroup_from_obj(C4, [0, 2.5]),
    lambda C4: serialize.hom_from_obj(catalog.cyclic(2), C4, [0, 2.5]),
    lambda C4: serialize.filtration_from_obj(
        {"group": serialize.group_to_obj(C4),
         "terms": [[0, 1, 2, 3], [0, 2.5], [0]]}),
], ids=["subgroup", "hom", "filtration"])
def test_readers_refuse_non_integer_indices(read):
    # 2.5 was read as element 2
    with pytest.raises(ValueError, match="element indices"):
        read(catalog.cyclic(4))


def test_filtration_roundtrip():
    F = lower_central_p_series(catalog.dihedral(4), 2)
    obj = roundtrip(serialize.filtration_to_obj(F))
    back = serialize.filtration_from_obj(obj)
    assert [t.elems for t in back.terms] == [t.elems for t in F.terms]


def test_gog_and_word_roundtrip():
    gog = c4_star_c4()
    obj = roundtrip(serialize.gog_to_obj(gog))
    back = serialize.gog_from_obj(obj)
    assert back.graph.bar == gog.graph.bar
    for e in range(gog.graph.ne):
        assert (back.emaps[e].map == gog.emaps[e].map).all()
    # shared edge-group objects survive the round trip
    assert back.egroups[0] is back.egroups[1]
    tree = maximal_subtree(gog.graph)
    w = word_to_path(gog, tree, 0, [Letter("g", 0, 1), Letter("g", 1, 2)])
    w2 = serialize.word_from_obj(back, roundtrip(serialize.word_to_obj(w)))
    assert w2.base == w.base and w2.g0 == w.g0 and w2.steps == w.steps


def test_certificate_roundtrip_and_verify():
    for gog, p in ((c4_star_c4(), 2), (shift_loop(), 3)):
        dec = certify_residually_p(gog, p)
        assert dec.is_yes
        obj = roundtrip(serialize.certificate_to_obj(dec.certificate))
        back = serialize.certificate_from_obj(obj)
        back.verify()


def test_dumps_deterministic():
    gog = c4_star_c4()
    a = serialize.dumps(serialize.gog_to_obj(gog))
    b = serialize.dumps(serialize.gog_to_obj(c4_star_c4()))
    assert a == b


def test_tampered_certificate_fails():
    dec = certify_residually_p(c4_star_c4(), 2)
    obj = json.loads(serialize.dumps(
        serialize.certificate_to_obj(dec.certificate)))
    obj["vertex_maps"][0][1] = 0      # break injectivity
    with pytest.raises((AssertionError, ValueError)):
        serialize.certificate_from_obj(obj).verify()


def test_group_to_obj_holds_plain_ints():
    G = catalog.by_name("SD16")
    mult = serialize.group_to_obj(G)["mult"]
    assert mult == [[int(x) for x in row] for row in G.mult]
    assert all(type(x) is int for row in mult for x in row)
