import dataclasses

import numpy as np
import pytest

import helpers
from helpers import checked_wreath

from residuap import algebra, catalog, embed
from residuap.algebra import (IdealBasis, augmentation_ideal,
                              augmentation_ideal_powers, buckley_check,
                              jennings_series, wreath, wreath_class_formula)
from residuap.filtration import (Filtration, dimension_series,
                                 lower_central_p_series,
                                 lower_central_series)
from residuap.groups import CapExceeded, FiniteGroup, Subgroup, is_isomorphic


def test_omega_powers_examples():
    _, dims, d = augmentation_ideal_powers(catalog.cyclic(4), 2)
    assert dims == [3, 2, 1, 0] and d == 3
    for p in (3, 5):
        _, _, d = augmentation_ideal_powers(catalog.cyclic(p), p)
        assert d == p - 1
    _, dims, d = augmentation_ideal_powers(catalog.cyclic(1), 2)
    assert d == 0 and dims == [0]
    with pytest.raises(ValueError):
        augmentation_ideal_powers(catalog.cyclic(6), 2)


def test_jennings_series_examples():
    F = jennings_series(catalog.cyclic(4), 2)
    assert [len(t) for t in F.terms] == [4, 2, 1]
    F = jennings_series(catalog.elementary_abelian(3, 2), 3)
    assert [len(t) for t in F.terms] == [9, 1]
    F = jennings_series(catalog.dihedral(4), 2)
    D = dimension_series(catalog.dihedral(4), 2)
    for n in range(1, 5):
        assert F.term(n).elems == D.term(n).elems


def test_wreath_c2_c2_is_d8():
    wp = wreath(catalog.cyclic(2), catalog.cyclic(2))
    assert wp.group.order == 8
    assert is_isomorphic(wp.group, catalog.dihedral(4))
    # the base and the top (h, 0) meet only in the identity
    base = set(wp.base_subgroup().elems)
    top = {wp.index_of(h, (0,) * 2) for h in range(2)}
    assert len(base) == 4 and len(top) == 2 and base & top == {0}


def test_wreath_cap():
    with pytest.raises(CapExceeded):
        wreath(catalog.cyclic(4), catalog.dihedral(4), cap=4096)
    # no cap lifts the ceiling of DEFAULT_ORDER_CAP on every table
    with pytest.raises(CapExceeded,
                       match="wreath product of order 49152 exceeds cap 4096"):
        wreath(catalog.cyclic(2), catalog.cyclic(12), cap=10 ** 6)


def test_wreath_over_the_trivial_group_is_the_top_group():
    C8 = catalog.cyclic(8)
    W = wreath(catalog.cyclic(1), C8).group
    assert np.array_equal(W.mult, C8.mult) and W.mult is not C8.mult


def test_wreath_tables_of_the_suite_are_validated(monkeypatch):
    """wreath does not validate its own table; conftest.py puts
    helpers.checked_wreath in its place, which validates every wreath table
    of order <= 256 that a test builds, exhaustively."""
    assert algebra.wreath is embed.wreath is wreath is checked_wreath
    wp = wreath(catalog.cyclic(2), catalog.klein4())
    bad = wp.group.mult.copy()
    bad[3, [5, 9]] = bad[3, [9, 5]]             # columns 5 and 9 repeat a value
    broken = dataclasses.replace(wp, group=FiniteGroup(bad, validate=False))
    monkeypatch.setattr(helpers, "build_wreath", lambda *args: broken)
    with pytest.raises(ValueError, match="latin square"):
        wreath(catalog.cyclic(2), catalog.klein4())


def test_wreath_class_formula():
    assert wreath_class_formula(2, catalog.cyclic(2))["agree"]
    r = wreath_class_formula(3, catalog.cyclic(3))
    assert r["agree"] and r["class_gamma"] == 3
    r = wreath_class_formula(2, catalog.cyclic(2))
    assert r["class_gamma"] == 2


@pytest.mark.parametrize("H,p,nmax", [
    (catalog.cyclic(2), 2, 2),
    (catalog.cyclic(4), 2, 3),
    (catalog.klein4(), 2, 3),
    (catalog.cyclic(3), 3, 3),
])
def test_buckley_equalities(H, p, nmax):
    rep = buckley_check(p, H, nmax)
    assert rep["ok"], rep


def test_buckley_trivial_top():
    rep = buckley_check(2, catalog.cyclic(1), 1)
    assert rep["ok"]


def test_buckley_reports_the_first_unequal_level(monkeypatch):
    # with its third term dropped, the dimension series of C2 wr C4 meets
    # the base in omega^(n+1) from level 2 on, where omega^n is expected
    def skipping(G, p):
        terms = dimension_series(G, p).terms
        return Filtration(G, terms[:2] + terms[3:])

    monkeypatch.setattr(algebra, "dimension_series", skipping)
    rep = buckley_check(2, catalog.cyclic(4), 3)
    assert not rep["ok"]
    assert [lvl["equal"] for lvl in rep["levels"]] == [True, True, False, False]
    sizes = [(lvl["sizes"]["dim"], lvl["sizes"]["gamma"], lvl["expected_size"])
             for lvl in rep["levels"]]
    assert sizes == [(16, 16, 16), (8, 8, 8), (2, 4, 4), (1, 2, 2)]


def test_fully_invariant_intersection_is_left_ideal():
    # gamma_n(W) ^ base is a left ideal equal to the base projection
    wp = wreath(catalog.cyclic(2), catalog.klein4())
    W = wp.group
    H = wp.H
    p = 2
    gamma = lower_central_series(W)
    gp = lower_central_p_series(W, p)
    nbase = 2 ** 4
    for filt in (gamma, gp):
        for n in range(2, len(filt.terms) + 1):
            term = filt.term(n)
            inter = [g for g in term.elems if g < nbase]
            proj = sorted({wp.index_of(0, wp.decompose(g)[1])
                           for g in term.elems})
            assert sorted(inter) == proj
            vecs = {wp.base_vector(g) for g in inter}
            # closed under left multiplication by H and by scalars
            for v in list(vecs):
                for h in range(H.order):
                    shifted = [0] * H.order
                    for k in range(H.order):
                        shifted[H.mul(h, k)] = v[k]
                    assert tuple(shifted) in vecs


def test_jennings_class_formula_catalog():
    for p in (2, 3):
        for G in catalog.property_suite(p):
            if G.order > 32:
                continue
            _, _, d = augmentation_ideal_powers(G, p)
            D = dimension_series(G, p)
            total = 0
            n = 1
            while len(D.term(n)) > 1:
                import math
                k = int(round(math.log(len(D.term(n)) // len(D.term(n + 1)), p)))
                total += n * k
                n += 1
            assert d == (p - 1) * total


OMEGA_SUITE = [(p, G) for p, bound in ((2, 64), (3, 81), (5, 25))
               for G in catalog.property_suite(p) if G.order <= bound]


@pytest.mark.parametrize("p,G", OMEGA_SUITE,
                         ids=[f"{p}:{G.name}" for p, G in OMEGA_SUITE])
def test_omega_powers_match_reference_product(p, G):
    """Every omega^n from the generator gathers has the rows of the general
    product of all basis rows, on each group and on a relabeling of it."""
    for H in (G, helpers.relabel(G, 5)):
        bases, dims, d = augmentation_ideal_powers(H, p)
        omega = augmentation_ideal(H, p)
        cur, ref = omega, []
        while cur.dim > 0:
            ref.append(cur.rows)
            cur = helpers.reference_ideal_multiply(cur, omega)
        assert [b.rows for b in bases] == ref
        assert dims == [len(r) for r in ref] + [0] and d == len(ref)


@pytest.mark.parametrize("p,G", OMEGA_SUITE,
                         ids=[f"{p}:{G.name}" for p, G in OMEGA_SUITE])
def test_kept_omega_powers_equal_fresh_ones(p, G, monkeypatch):
    """The powers kept with a group, on each suite group and on a relabeling
    of it, have the rows that a new group on the same table computes; a
    second call, and jennings_series after it, build nothing."""
    products = []
    multiply = IdealBasis.multiply
    monkeypatch.setattr(IdealBasis, "multiply",
                        lambda I, J: products.append(I) or multiply(I, J))
    for H in (G, helpers.relabel(G, G.order + 13)):
        bases, dims, d = augmentation_ideal_powers(H, p)
        assert all(b.group is H for b in bases)
        products.clear()
        again = augmentation_ideal_powers(H, p)
        assert again == (bases, dims, d) and again[0] is not bases
        jennings_series(H, p)
        assert products == []
        F = helpers.fresh(H, H.name + "~fresh")
        fbases, fdims, fd = augmentation_ideal_powers(F, p)
        assert [b.rows for b in fbases] == [b.rows for b in bases]
        assert (fdims, fd) == (dims, d) and len(products) == d


def test_kept_omega_powers_are_returned_in_fresh_lists():
    G = helpers.fresh(catalog.dihedral(4), "D8~lists")
    bases, dims, d = augmentation_ideal_powers(G, 2)
    want = [b.rows for b in bases], list(dims)
    bases.clear()
    dims.append(9)
    bases, dims, _ = augmentation_ideal_powers(G, 2)
    assert ([b.rows for b in bases], dims) == want


def test_jennings_compares_on_every_call():
    """Only the series are kept: the comparison with the dimension series
    runs on every call, so a kept series that differs is caught."""
    G = helpers.fresh(catalog.dihedral(4), "D8~jen")
    D = dimension_series(helpers.fresh(G, "D8~ref"), 2)
    terms = [Subgroup(G, T.elems, check=False) for T in D.terms]
    G.fact(("dimension_series", 2),
           lambda: Filtration(G, terms[:1] + terms[2:]))
    with pytest.raises(AssertionError, match="differs"):
        jennings_series(G, 2)


def test_kept_omega_powers_still_check_p():
    C4 = helpers.fresh(catalog.cyclic(4), "C4~kept")
    augmentation_ideal_powers(C4, 2)
    for p in (4, 3, 1):
        for f in (augmentation_ideal_powers, jennings_series):
            with pytest.raises(ValueError):
                f(C4, p)


def test_multiply_requires_omega():
    D8 = catalog.dihedral(4)
    omega = augmentation_ideal(D8, 2)
    square = omega.multiply(omega)
    assert square == helpers.reference_ideal_multiply(omega, omega)
    not_omega = [
        square,                                              # too small
        augmentation_ideal(helpers.fresh(D8, "D8b"), 2),     # another group
        augmentation_ideal(D8, 3),                           # another p
        IdealBasis(D8, 2, [[int(j == g) for j in range(8)]   # dim 7, sums 1
                           for g in range(1, 8)]),
    ]
    for other in not_omega:
        with pytest.raises(ValueError, match="augmentation ideal"):
            omega.multiply(other)


def test_membership_matches_row_reduction():
    """contains_rows agrees with a rank test on every 1 - g and every basis
    vector e_g, for each power of omega of D16 and C3^2."""
    from residuap import kernels
    for G, p in ((catalog.dihedral(8), 2), (catalog.elementary_abelian(3, 2), 3)):
        n = G.order
        vecs = [[int(j == 0) - int(j == g) for j in range(n)] for g in range(n)]
        vecs += [[int(j == g) for j in range(n)] for g in range(n)]
        for basis in augmentation_ideal_powers(G, p)[0]:
            got = basis.contains_rows(vecs)
            for v, member in zip(vecs, got):
                rank = len(kernels.rref_mod_p(list(basis.rows) + [v], p))
                assert bool(member) == (rank == basis.dim)
