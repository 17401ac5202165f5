"""Differential tests of the Higman tower's generator-based routines: the
coset-enumeration closure, the central-p test, the gamma series and the
block-built wreath table against the whole-group references of helpers."""

import itertools
import random

import pytest

from helpers import (build_wreath, reference_central_p_step, reference_closure,
                     reference_gamma_series, reference_is_central_p,
                     reference_wreath_table, relabel)

from residuap import catalog, embed
from residuap.filtration import (Filtration, chief_series,
                                 lower_central_p_series, lower_central_series)
from residuap.groups import (full_subgroup, generating_sequence,
                             subgroup_generated, trivial_subgroup)


@pytest.fixture(scope="module")
def scan_towers():
    """The Higman results of the scan's first 20 yes records and of every
    400th yes record of C2^4 u C2^4', with the (T, K) pair of every wreath
    product their towers build."""
    groups = catalog.two_group_scan_list(16)
    yes = [r for r in embed.amalgam_scan(groups) if r.embeddable]
    block = [r for r in yes if (r.g_name, r.h_name) == ("C2^4", "C2^4'")]
    pairs = []
    wreath = embed.wreath

    def recording(X, H, cap):
        pairs.append((X, H))
        return wreath(X, H, cap=cap)

    towers = []
    embed.wreath = recording
    try:
        for i, rec in enumerate(yes[:20] + block[::400]):
            am = embed.scan_amalgam_object(groups, rec)
            dec = embed.amalgam_embeddable(am)
            fw = embed.feasible_witness(am, dec.certificate, 2, cap=2048)
            if fw is not None:
                res = embed.higman_embed(am, fw[0], fw[1], cap=2048)
                towers.append((i < 20, res))
    finally:
        embed.wreath = wreath
    return towers, pairs


def _tower_2048(scan_towers):
    Ws = [res.embedding.W for _, res in scan_towers[0]
          if res.embedding.W.order == 2048]
    assert len(Ws) == 1
    return Ws[0]


# -- closure ------------------------------------------------------------------------

def test_closure_on_the_order_2048_tower(scan_towers):
    W = _tower_2048(scan_towers)
    S = generating_sequence(W)
    # most lists of a few random elements generate W; the reference takes
    # about 0.6 s for each of those
    rng = random.Random("closure:W")
    gens = [rng.randrange(W.order) for _ in range(4)]
    lists = [[], [0], S, S[:4], S[6:], list(range(1, 6)), [2047], [1024, 2047],
             gens + [int(W.mult[gens[0], gens[-1]])]]
    for gens in lists:
        assert subgroup_generated(W, gens).elems == \
            tuple(reference_closure(W.mult, W.inv, gens))


# -- the central-p test ---------------------------------------------------------------

@pytest.mark.parametrize("G", catalog.two_group_scan_list(16),
                         ids=lambda G: G.name)
def test_is_central_p_on_chief_subchains(G):
    # every subchain of every chief series, with and without its first term G
    for ser in chief_series(G):
        for start in (0, 1):
            for r in range(len(ser) + 1 - start):
                for keep in itertools.combinations(ser[start:], r):
                    if not keep:
                        continue
                    F = Filtration(G, keep, check=False)
                    assert F.is_central_p(2) == reference_is_central_p(F, 2)


def test_is_central_p_on_tower_filtrations(scan_towers):
    checked = 0
    for first20, res in scan_towers[0]:
        if not first20:
            continue
        FW = res.FW
        W = FW.group
        assert FW.is_central_p(2) and reference_is_central_p(FW, 2)
        checked += 1
        if W.order > 256:
            continue
        # negative cases: chains with one interior term deleted, and chains
        # with two adjacent terms swapped (not descending)
        terms = list(FW.terms)
        for i in range(1, len(terms) - 1):
            F = Filtration(W, terms[:i] + terms[i + 1:], check=False)
            assert F.is_central_p(2) == reference_is_central_p(F, 2)
            if terms[i].elems != terms[i + 1].elems:
                swapped = terms[:i] + [terms[i + 1], terms[i]] + terms[i + 2:]
                F = Filtration(W, swapped, check=False)
                assert not F.is_central_p(2)
                assert not reference_is_central_p(F, 2)
    assert checked == 20


def test_is_central_p_rejects_a_chain_that_does_not_descend():
    # in C2 x C2 every step [G, T] T^2 is trivial, so only the descent check
    # rejects G > A, B > 1 with A and B two different subgroups of order 2
    V = catalog.klein4()
    A, B = subgroup_generated(V, [1]), subgroup_generated(V, [2])
    F = Filtration(V, [full_subgroup(V), A, B, trivial_subgroup(V)],
                   check=False)
    assert all(reference_central_p_step(V, T, 2) == {0} for T in F.terms)
    assert not F.is_central_p(2)
    assert not reference_is_central_p(F, 2)


def test_is_central_p_rejects_non_central_steps():
    # G > <x> > 1 in D8 is central p exactly when x is central
    D8 = catalog.dihedral(4)
    got = []
    for x in range(1, 8):
        F = Filtration(D8, [full_subgroup(D8), subgroup_generated(D8, [x]),
                            trivial_subgroup(D8)], check=False)
        got.append(F.is_central_p(2))
        assert got[-1] == reference_is_central_p(F, 2)
    assert got.count(True) == 1


# -- the gamma series -----------------------------------------------------------------

def _catalog_p_groups():
    seen = {}
    for G in (catalog.property_suite(2) + catalog.property_suite(3)
              + catalog.property_suite(5) + catalog.two_group_scan_list(16)):
        if G.order <= 81:
            seen.setdefault(G.name, G)
    groups = list(seen.values())
    return groups + [relabel(G, 5) for G in groups if not G.is_abelian]


@pytest.mark.parametrize("G", _catalog_p_groups(), ids=lambda G: G.name)
def test_gamma_series_match_reference(G):
    p = G.prime()
    assert [T.elems for T in lower_central_series(G).terms] == \
        reference_gamma_series(G)
    assert [T.elems for T in lower_central_p_series(G, p).terms] == \
        reference_gamma_series(G, p)


def test_gamma_series_on_the_order_2048_tower(scan_towers):
    W = _tower_2048(scan_towers)
    assert [T.elems for T in lower_central_series(W).terms] == \
        reference_gamma_series(W)
    assert [T.elems for T in lower_central_p_series(W, 2).terms] == \
        reference_gamma_series(W, 2)


# -- the wreath table -----------------------------------------------------------------

def test_wreath_tables_match_reference(scan_towers):
    pairs = scan_towers[1]
    assert {(X.order, H.order) for X, H in pairs} >= {(2, 8), (64, 1)}
    for X, H in pairs:
        got = build_wreath(X, H).group.mult
        want = reference_wreath_table(X, H)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
