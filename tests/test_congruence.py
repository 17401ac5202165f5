import pytest

import helpers

from residuap import congruence
from residuap.congruence import (CongruenceTower, MatrixGroupSpec, TSpec,
                                 congruence_layer_check, matrix_p_filtration,
                                 power_map_injectivity, sl2_congruence_tower,
                                 unitriangular_order)
from residuap.groups import CapExceeded
from residuap.smith import Presentation


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


def test_tower_level1_is_uniformly_potent():
    # the congruence chain of SL(2, Z/27), as a filtration of G_1, is
    # uniformly 3-potent up to horizon k - 2 = 1
    from residuap.filtration import Filtration, classify_potency
    from residuap.groups import Subgroup
    tower = sl2_congruence_tower(3, 3)
    G1, elems = tower.level_group(1)
    index = {m: i for i, m in enumerate(elems)}
    terms = [Subgroup(G1, [index[m] for m in tower.levels[i]], check=False)
             for i in range(0, 3)]
    F = Filtration(G1, terms)
    assert F.is_central_p(3)
    rep = classify_potency(F, 3, 1)
    assert rep.uniformly_p_potent


def test_image_filtration_is_central_p():
    from residuap.congruence import image_filtration
    spec = zspec(((1,),))
    for p in (2, 3):
        G_img, filt, elems = image_filtration(spec, p, 3)
        assert G_img.order == p ** 3
        assert filt.is_central_p(p)


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
    G1, elems = tower.level_group(1)
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

    def broken(p, k, cap=congruence.DEFAULT_TOWER_CAP):
        tower = build(p, k, cap=cap)
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

    def broken(p, k, cap=congruence.DEFAULT_TOWER_CAP):
        tower = build(p, k, cap=cap)
        tower.levels[0] = tower.levels[0] + [((3, 0), (0, 1))]
        return tower
    monkeypatch.setattr(congruence, "sl2_congruence_tower", broken)
    with pytest.raises(AssertionError, match="det"):
        congruence_layer_check(2, 3)
