import json
import random

import numpy as np
import pytest

import helpers

from residuap import congruence
from residuap.congruence import (CongruenceTower, MatrixGroupSpec, TSpec,
                                 congruence_layer_check, matrix_p_filtration,
                                 power_map_injectivity, sl2_congruence_tower,
                                 unitriangular_order)
from residuap.groups import CapExceeded, Subgroup
from residuap.smith import Presentation, theta_map


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_tower_order_formula(p, k):
    tower = sl2_congruence_tower(p, k)
    assert tower.order_formula_holds()
    assert tower.full.order == p ** (3 * k - 2) * (p * p - 1)
    for i, lvl in enumerate(tower.levels, start=1):
        assert len(lvl) == p ** (3 * (k - i))


def test_tower_cap():
    with pytest.raises(CapExceeded):
        sl2_congruence_tower(5, 3)


def test_cayley_table_cap_is_the_order_cap(monkeypatch):
    # SL(2, Z/17) has order 4896: the tower is listed, but its table is
    # refused before any product is encoded
    full = sl2_congruence_tower(17, 1).full
    assert full.order == 4896

    def refuse(rows, mod):
        raise AssertionError("a product was encoded")

    monkeypatch.setattr(congruence, "_codes", refuse)
    with pytest.raises(CapExceeded,
                       match="^Cayley table of order 4896 exceeds cap 4096$"):
        full.as_finite_group()


def test_layer_checks_small():
    rep = congruence_layer_check(2, 3)
    assert rep["commutator_ok"]
    assert all(l["elementary_abelian_p3"] for l in rep["layers"])
    rep = congruence_layer_check(3, 2)
    assert rep["commutator_ok"]
    rep = congruence_layer_check(3, 1)
    assert rep["layers"] == []


def test_power_map_injectivity():
    rep = power_map_injectivity(3, 3)
    assert rep["all_injective"] and [l["i"] for l in rep["levels"]] == [1]
    rep = power_map_injectivity(3, 4)
    assert rep["all_injective"] and [l["i"] for l in rep["levels"]] == [1, 2]
    for lvl in rep["levels"]:
        assert lvl["layer_order"] == 27
    with pytest.raises(ValueError):
        power_map_injectivity(2, 3)


def test_unitriangular_orders():
    assert unitriangular_order(2, 3, 2, [[0, 1], [0, 0]]) == 9
    assert unitriangular_order(2, 3, 2, [[0, 3], [0, 0]]) == 3
    assert unitriangular_order(2, 3, 2, [[0, 0], [0, 0]]) == 1
    assert unitriangular_order(3, 3, 1, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]) == 3
    with pytest.raises(ValueError):
        unitriangular_order(3, 2, 2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])


UNIPOTENT = ((1, 1), (0, 1))


def zspec(*subgroup_words):
    return MatrixGroupSpec(generators=(UNIPOTENT,),
                           presentation=Presentation(1, ()),
                           subgroups=tuple(TSpec(w) for w in subgroup_words))


def test_matrix_p_filtration_levels():
    spec = zspec(((1,),), ((1, 1),))
    rep = matrix_p_filtration(spec, 3, 3)
    assert rep["subgroups"][0]["level"] == 1
    rep = matrix_p_filtration(spec, 2, 3)
    assert rep["subgroups"][0]["level"] == 1       # T = G itself
    assert rep["subgroups"][1]["level"] == 0       # T = <A^2>: non-unit entry


def test_matrix_p_filtration_two_generators():
    # free-looking pair mod 5: finite images computed, within cap
    spec = MatrixGroupSpec(
        generators=(((1, 2), (0, 1)), ((1, 0), (2, 1))),
        presentation=Presentation(2, ()),
        subgroups=(TSpec(((1,),)),))
    rep = matrix_p_filtration(spec, 5, 2)
    assert rep["subgroups"][0]["per_k"][0]["level"] is not None
    assert all(not lvl["capped"] or lvl["image_order"] > 0
               for lvl in rep["levels"])


def test_matrix_p_filtration_checks_commutation_exactly():
    # ab and ba agree modulo 10^9 but not over Z
    a, b = ((1, 10 ** 9), (0, 1)), ((1, 0), (1, 1))
    spec = MatrixGroupSpec(generators=(a, b), presentation=Presentation(2, ()),
                           subgroups=(TSpec(((1,), (2,))),))
    with pytest.raises(ValueError, match="do not commute"):
        matrix_p_filtration(spec, 2, 2)


def test_matrix_spec_validation():
    with pytest.raises(ValueError):
        MatrixGroupSpec(generators=(((2, 0), (0, 1)),),
                        presentation=Presentation(1, ()))
    with pytest.raises(ValueError):
        MatrixGroupSpec(generators=(UNIPOTENT,),
                        presentation=Presentation(1, ((1, 1),)))
    with pytest.raises(ValueError):
        # non-unipotent T generator
        spec = MatrixGroupSpec(generators=(((0, -1), (1, 0)),),
                               presentation=Presentation(1, ((1,) * 4,)),
                               subgroups=(TSpec(((1,),)),))
        matrix_p_filtration(spec, 3, 1)


def _elementary_product(n, rng):
    """A product of elementary integer matrices of size n: row additions,
    row swaps and row negations, all invertible over Z."""
    m = np.eye(n, dtype=object)
    for _ in range(rng.randrange(12)):
        e = np.eye(n, dtype=object)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            e[i, j] = rng.randint(-3, 3)
        elif kind == 1:
            e[[i, j]] = e[[j, i]]
        else:
            e[i, i] = -1
        m = m @ e
    return m


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_inverse_of_elementary_products(n):
    rng = random.Random(n)
    for _ in range(25):
        m = _elementary_product(n, rng)
        inv = np.array(congruence._int_inverse(m.tolist()), dtype=object)
        assert (m @ inv == np.eye(n, dtype=object)).all()
        assert all(type(x) is int for x in inv.flat)


@pytest.mark.parametrize("m", [[[2, 0], [0, 1]], [[1, 2], [3, 4]],
                               [[1, 1], [1, 1]], [[0, 0], [0, 0]]],
                         ids=["det-2", "det-minus-2", "singular", "zero"])
def test_int_inverse_refuses_matrices_not_invertible_over_z(m):
    with pytest.raises(ValueError, match="not invertible over Z"):
        congruence._int_inverse(m)


def test_tower_level1_is_uniformly_potent():
    # the congruence chain of SL(2, Z/27), as a filtration of G_1, is
    # uniformly 3-potent up to horizon k - 2 = 1
    from residuap.filtration import Filtration, classify_potency
    from residuap.groups import Subgroup
    tower = sl2_congruence_tower(3, 3)
    G1, elems = helpers.level_group(tower, 1)
    index = {m: i for i, m in enumerate(elems)}
    terms = [Subgroup(G1, [index[m] for m in tower.levels[i]], check=False)
             for i in range(0, 3)]
    F = Filtration(G1, terms)
    assert F.is_central_p(3)
    rep = classify_potency(F, 3, 1)
    assert rep.uniformly_p_potent


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_sl2_elements_and_tables_match_reference(p, k):
    from residuap.congruence import sl2_elements
    tower = sl2_congruence_tower(p, k)
    assert sl2_elements(p ** k) == helpers.reference_sl2_elements(p ** k)
    assert tower.full.elements == helpers.reference_sl2_elements(p ** k)
    G, elems = tower.full.as_finite_group()
    assert elems == tower.full.elements
    assert G.mult.tolist() == helpers.reference_as_finite_group(elems, p ** k)


def test_level_group_table_matches_reference():
    tower = sl2_congruence_tower(3, 3)
    G1, elems = helpers.level_group(tower, 1)
    assert elems == tower.levels[0] and G1.order == 729
    assert G1.mult.tolist() == helpers.reference_as_finite_group(elems, 27)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_layer_check_matches_reference(p, k):
    rep = congruence_layer_check(p, k)
    assert rep == helpers.reference_layer_check(p, k)
    assert rep["commutator_ok"]


def _tower_without(level, matrix, monkeypatch):
    """Make sl2_congruence_tower drop one matrix from G_level."""
    build = congruence.sl2_congruence_tower

    def broken(p, k):
        tower = build(p, k)
        tower.levels[level - 1].remove(matrix)
        return tower
    monkeypatch.setattr(congruence, "sl2_congruence_tower", broken)


# each removed matrix is a commutator of G_1 with G_{level - 1}: for p = 2
# (in these towers) those commutators meet G_level only in 1 and (1 + p^level) I
@pytest.mark.parametrize("p,k,level,matrix,failure", [
    (2, 4, 3, ((9, 0), (0, 9)), (1, 2)),
    (2, 3, 2, ((5, 0), (0, 5)), (1, 1)),
    (3, 3, 2, ((19, 18), (18, 10)), (1, 1)),
])
def test_layer_check_reports_the_reference_failure(p, k, level, matrix, failure,
                                                   monkeypatch):
    _tower_without(level, matrix, monkeypatch)
    rep = congruence_layer_check(p, k)
    assert rep == helpers.reference_layer_check(p, k)
    assert not rep["commutator_ok"]
    assert rep["commutator_failure"] == {"i": failure[0], "j": failure[1]}


def test_layer_check_requires_determinant_one(monkeypatch):
    build = congruence.sl2_congruence_tower

    def broken(p, k):
        tower = build(p, k)
        tower.levels[0] = tower.levels[0] + [((3, 0), (0, 1))]
        return tower
    monkeypatch.setattr(congruence, "sl2_congruence_tower", broken)
    with pytest.raises(AssertionError, match="det"):
        congruence_layer_check(2, 3)


# -- the array forms against the tuple loops of tests/helpers.py ----------------

HEIS_X = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
HEIS_Y = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
HEIS_Z = ((1, 0, 1), (0, 1, 0), (0, 0, 1))

MATRIX_SPECS = {
    "cyclic": zspec(((1,),), ((1, 1),)),
    "two_generators": MatrixGroupSpec(
        generators=(((1, 2), (0, 1)), ((1, 0), (2, 1))),
        presentation=Presentation(2, ()), subgroups=(TSpec(((1,),)),)),
    # [x, y] = z central: the relators kill z in H, so r = 2
    "heisenberg": MatrixGroupSpec(
        generators=(HEIS_X, HEIS_Y, HEIS_Z),
        presentation=Presentation(3, ((-1, -2, 1, 2, -3), (-1, -3, 1, 3),
                                      (-2, -3, 2, 3))),
        subgroups=(TSpec(((3,),)), TSpec(((1,), (3,))))),
    "negative_letters": MatrixGroupSpec(
        generators=(UNIPOTENT, ((1, 0), (3, 1))),
        presentation=Presentation(2, ()),
        subgroups=(TSpec(((-1, -1),)), TSpec(((-2,),)))),
    # T = <u, u^2>: the exponent box of the r >= 2 branch
    "box": zspec(((1,), (1, 1))),
}


@pytest.mark.parametrize("p,k", [(3, 3), (3, 4), (3, 5), (5, 4), (7, 3),
                                 (3, 22), (5, 16)])
def test_power_map_matches_reference(p, k):
    # (3, 22) and (5, 16) multiply past int64 at their deeper layers
    rep = power_map_injectivity(p, k)
    assert json.dumps(rep) == json.dumps(helpers.reference_power_map_injectivity(p, k))
    assert rep["all_injective"]


@pytest.mark.parametrize("name", sorted(MATRIX_SPECS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_p_filtration_matches_reference(name, p, monkeypatch):
    spec, cap = MATRIX_SPECS[name], 2000
    monkeypatch.setattr(congruence, "MATRIX_IMAGE_CAP", cap)
    rep = matrix_p_filtration(spec, p, 3)
    json.dumps(rep)                       # plain ints and bools throughout
    ref_levels = []
    for k in (1, 2, 3):
        closure = helpers.reference_image_closure(spec, p, k, cap)
        capped = isinstance(closure, int)
        ref_levels.append({"k": k, "capped": capped,
                           "image_order": closure if capped else len(closure)})
    assert rep["levels"] == ref_levels
    _, theta_rows = theta_map(spec.presentation)
    for tspec, trep in zip(spec.subgroups, rep["subgroups"]):
        t_mats = [tuple(map(tuple, np.asarray(congruence._eval_word_int(
            spec.generators, w)).tolist())) for w in tspec.words]
        t_theta = [congruence._theta_of_word(theta_rows, w) for w in tspec.words]
        # the reference box walk is slow past p^k = 27
        ks = [k for k in (1, 2, 3) if p ** k <= 27]
        assert [trep["per_k"][k - 1]["intersection_index"] for k in ks] == \
            [helpers.reference_t_lattice(t_mats, t_theta, p, k) for k in ks]


def test_capped_levels_report_cap_plus_one(monkeypatch):
    monkeypatch.setattr(congruence, "MATRIX_IMAGE_CAP", 500)
    rep = matrix_p_filtration(MATRIX_SPECS["two_generators"], 5, 2)
    assert rep["levels"] == [{"k": 1, "image_order": 501, "capped": True},
                             {"k": 2, "image_order": 501, "capped": True}]
    monkeypatch.undo()
    rep = matrix_p_filtration(MATRIX_SPECS["two_generators"], 5, 1)
    assert rep["levels"] == [{"k": 1, "image_order": 3000, "capped": False}]


def test_exponent_box_branch():
    # u^e1 u^(2 e2) = 1 and e1 + 2 e2 = 0 mod p^k cut out index p^k: level 1
    rep = matrix_p_filtration(MATRIX_SPECS["box"], 3, 3)
    (trep,) = rep["subgroups"]
    assert [e["intersection_index"] for e in trep["per_k"]] == [3, 9, 27]
    assert trep["level"] == 1


@pytest.mark.parametrize("n,p,d,N", [
    (2, 3, 2, [[0, 1], [0, 0]]), (2, 5, 2, [[0, -1], [0, 0]]),
    (3, 3, 2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    (3, 5, 2, [[0, 5, 1], [0, 0, 5], [0, 0, 0]]),
    (3, 3, 3, [[0, 3, 1], [0, 0, 9], [0, 0, 0]]),
    # 3^20 passes the int64 bound on products: exact Python ints
    (2, 3, 20, [[0, 3 ** 19], [0, 0]]),
    (3, 3, 40, [[0, 3 ** 39, 0], [0, 0, 3 ** 38], [0, 0, 0]]),
])
def test_unitriangular_order_matches_reference(n, p, d, N):
    M = tuple(tuple(N[i][j] + (i == j) for j in range(n)) for i in range(n))
    assert unitriangular_order(n, p, d, N) == helpers.reference_matrix_order(M, p ** d)
