"""Differential tests: the numpy and pure-Python kernels must agree."""

import random

import numpy as np
import pytest

from helpers import reference_closure

from residuap import algebra, catalog
from residuap.groups import FiniteGroup
from residuap.kernels import npbackend, pybackend


GROUPS = [catalog.cyclic(6), catalog.dihedral(4), catalog.quaternion8(),
          catalog.abelian(4, 2), catalog.heisenberg(3)]


@pytest.mark.parametrize("G", GROUPS, ids=lambda g: g.name)
def test_backends_agree(G):
    rng = random.Random(7)
    t = G.mult
    npbackend.validate_table(t)
    pybackend.validate_table([[int(x) for x in row] for row in t])
    inv_np = list(npbackend.inverse_table(t))
    inv_py = pybackend.inverse_table([[int(x) for x in row] for row in t])
    assert [int(x) for x in inv_np] == inv_py
    for _ in range(10):
        gens = [rng.randrange(G.order) for _ in range(rng.randrange(1, 3))]
        assert npbackend.closure(t, inv_np, gens) == \
            pybackend.closure(t, inv_py, gens)
        xs = [rng.randrange(G.order) for _ in range(4)]
        ys = [rng.randrange(G.order) for _ in range(4)]
        assert npbackend.bulk_mult(t, xs, ys) == pybackend.bulk_mult(t, xs, ys)
        assert npbackend.commutators(t, inv_np, xs, ys) == \
            pybackend.commutators(t, inv_py, xs, ys)
        assert npbackend.powers(t, xs, 3) == pybackend.powers(t, xs, 3)
        assert npbackend.conjugates(t, inv_np, xs, ys) == \
            pybackend.conjugates(t, inv_py, xs, ys)


def test_homomorphism_check_agrees():
    C4 = catalog.cyclic(4)
    C2 = catalog.cyclic(2)
    good = [0, 1, 0, 1]
    bad = [0, 1, 1, 0]
    for m in (good, bad):
        a = npbackend.is_homomorphism(C4.mult, C2.mult, m)
        b = pybackend.is_homomorphism([[int(x) for x in r] for r in C4.mult],
                                      [[int(x) for x in r] for r in C2.mult], m)
        assert a == b
    assert npbackend.is_homomorphism(C4.mult, C2.mult, good)
    assert not npbackend.is_homomorphism(C4.mult, C2.mult, bad)


def _rref_cases(rng, p):
    """Small random matrices, tall and wide ones, all-zero rows, and matrices
    of rank below their width (repeated rows, combinations of rows)."""
    def rand(r, c):
        return [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
    for _ in range(50):
        yield rand(rng.randrange(1, 6), 5)
    yield rand(200, 8)
    yield rand(8, 200)
    yield rand(3, 9) + [[0] * 9] + rand(2, 9) + [[0] * 9]
    yield [[0] * 7 for _ in range(4)]
    base = rand(3, 10)
    yield [[(a * x + b * y) % p for x, y in zip(base[0], base[1])]
           for a in range(3) for b in range(3)] + base + base
    yield [r[:] for r in rand(1, 6) * 5]


def test_rref_agrees_and_is_canonical():
    rng = random.Random(3)
    for p in (2, 3, 5, 7, 4093):
        for rows in _rref_cases(rng, p):
            a = npbackend.rref_mod_p(rows, p)
            b = pybackend.rref_mod_p(rows, p)
            assert a == b
            assert npbackend.rref_mod_p(np.array(rows, dtype=np.int64), p) == a
            assert all(type(x) is int for r in a for x in r)
            # entries outside [0, p): the same classes, shifted by multiples of p
            shifted = [[x + p * rng.randrange(-3, 3) for x in r] for r in rows]
            assert npbackend.rref_mod_p(shifted, p) == a
            assert npbackend.rref_mod_p(np.array(shifted), p) == a
            huge = [[x + p * (2 ** 64 + rng.randrange(9)) for x in r] for r in rows]
            assert npbackend.rref_mod_p(huge, p) == a == pybackend.rref_mod_p(huge, p)
            # canonical: re-reducing is a fixed point
            assert npbackend.rref_mod_p(a, p) == a


def test_rref_applies_row_operations_to_augmented_columns():
    rows = [[1, 1, 1, 0], [0, 1, 0, 1]]
    want = [[1, 0, 1, 1], [0, 1, 0, 1]]
    assert pybackend.rref_mod_p(rows, 2) == want
    assert npbackend.rref_mod_p(rows, 2) == want


def test_rref_reduces_unsigned_and_empty_input():
    big = np.array([[2 ** 63 + 5, 1], [2 ** 64 - 1, 0]], dtype=np.uint64)
    rows = [[int(x) for x in r] for r in big]
    for p in (2, 3, 7, 4093):
        assert npbackend.rref_mod_p(big, p) == pybackend.rref_mod_p(rows, p)
    assert npbackend.rref_mod_p([], 3) == []
    assert npbackend.rref_mod_p(np.zeros((0, 4), dtype=np.int64), 3) == []
    assert npbackend.rref_mod_p([[0, 0, 0]], 3) == []


@pytest.mark.parametrize("p", [4294967291, 2 ** 61 - 1])
def test_rref_is_exact_at_large_primes(p):
    """Products of two entries pass 64 bits here, so an int64 elimination
    overflows."""
    rng = random.Random(p % 1009)
    for _ in range(20):
        rows = [[rng.randrange(p) for _ in range(5)] for _ in range(4)]
        want = pybackend.rref_mod_p(rows, p)
        assert npbackend.rref_mod_p(rows, p) == want
        assert npbackend.rref_mod_p(np.array(rows, dtype=np.int64), p) == want


def _rank_below(rng, p, nrows, ncols, rank):
    """A random nrows x ncols matrix whose rows span a rank-dimensional space,
    its entries shifted by multiples of p."""
    mat = rng.integers(0, p, (nrows, rank)) @ rng.integers(0, p, (rank, ncols)) % p
    return mat + p * rng.integers(-2, 3, mat.shape)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4093, 8191])
def test_packed_rref_matches_reference(p):
    """Widths on both sides of a byte and of a 64-bit word, short and tall
    matrices, dense, sparse and of rank below their width (a tall dense
    matrix is of full rank, as its sparse form is already)."""
    rng = np.random.default_rng(p)
    shapes = [(nrows, ncols) for ncols in (1, 7, 8, 9, 63, 64, 65, 200)
              for nrows in (1, 6, 13)] + [(400, 64), (400, 81)]
    for nrows, ncols in shapes:
        dense = rng.integers(0, p, (nrows, ncols))
        sparse = dense * (rng.random((nrows, ncols)) < 0.1)
        low = _rank_below(rng, p, nrows, ncols, max(1, min(nrows, ncols) - 5))
        for mat in (dense, sparse, low)[nrows > ncols:]:
            want = pybackend.rref_mod_p(mat.tolist(), p)
            assert npbackend.rref_mod_p(mat, p) == want
            assert npbackend.rref_mod_p(mat.tolist(), p) == want


def test_omega_chains_match_reference(monkeypatch):
    """The augmentation-ideal powers of the property suites, reduced by the
    packed kernel and by the reference, are the same bases."""
    def chains():
        out = {}
        for p, bound in ((2, 64), (3, 81)):
            for G in catalog.property_suite(p):
                if G.order <= bound:
                    H = FiniteGroup(G.mult, name=G.name, validate=False)
                    bases, dims, d = algebra.augmentation_ideal_powers(H, p)
                    out[p, G.name] = [b.rows for b in bases], dims, d
        return out

    got = chains()
    assert ((3, "C3^4") in got and
            got[2, "C2^6"][1] == [63, 57, 42, 22, 7, 1, 0])
    monkeypatch.setattr(algebra.kernels, "rref_mod_p", pybackend.rref_mod_p)
    assert chains() == got


def test_validate_rejects_bad_tables():
    with pytest.raises(ValueError):
        npbackend.validate_table([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        pybackend.validate_table([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        npbackend.validate_table([[1, 0], [0, 1]])


@pytest.mark.parametrize("entry", [4, 5, 99, -1, -4])
def test_validate_rejects_an_out_of_range_entry(entry):
    # C2^2 with one interior entry outside 0..3: a ValueError from both
    # backends, never an IndexError, and no negative entry read as an index
    # from the end
    t = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    t[2][3] = entry
    with pytest.raises(ValueError, match="latin square"):
        npbackend.validate_table(t)
    with pytest.raises(ValueError, match="not a permutation"):
        pybackend.validate_table(t)
    with pytest.raises(ValueError, match="latin square"):
        FiniteGroup(t)


def _seeded_generator_lists(G, rng):
    """Generator lists of 0 to 5 elements: the empty list, lists with the
    identity, repeats, and elements already spanned by earlier ones."""
    n = G.order
    yield []
    yield [0]
    for _ in range(12):
        gens = [rng.randrange(n) for _ in range(rng.randrange(1, 6))]
        yield gens
        yield gens[:1] * 2 + [0]
        # a product of two earlier generators lies in their span
        yield gens[:2] + [int(G.mult[gens[0], gens[-1]])]


@pytest.mark.parametrize(
    "G", catalog.two_group_scan_list(16)
    + [catalog.cyclic(3), catalog.cyclic(9), catalog.heisenberg(3)],
    ids=lambda g: g.name)
def test_closure_matches_reference(G):
    rng = random.Random(f"closure:{G.name}")
    tl = G.mult.tolist()
    inv_py = pybackend.inverse_table(tl)
    for gens in _seeded_generator_lists(G, rng):
        want = reference_closure(G.mult, G.inv, gens)
        assert npbackend.closure(G.mult, G.inv, gens) == want
        assert pybackend.closure(tl, inv_py, gens) == want


@pytest.mark.parametrize("gens", [[1], [3, 5]])
def test_closure_on_c1024(gens):
    C = catalog.cyclic(1024)
    got = npbackend.closure(C.mult, C.inv, gens)
    assert got == reference_closure(C.mult, C.inv, gens) == list(range(1024))
    assert npbackend.closure(C.mult, C.inv, [512, 256]) == \
        reference_closure(C.mult, C.inv, [512, 256]) == list(range(0, 1024, 256))


@pytest.mark.parametrize("backend", ["np", "py"])
def test_validate_rejects_one_swapped_intercalate_at_order_2048(backend):
    # C2^11 (x·y = x xor y) with the intercalate on rows 1, 2 and columns
    # 4, 7 swapped: still a latin square with identity 0 and two-sided
    # inverses, but (6·1)·4 = 7·4 = 3 while 6·(1·4) = 6·6 = 0.  The seeded
    # sample of 65,536 triples that both backends ran above order 256
    # accepted this table.
    n = 2048
    idx = np.arange(n)
    t = idx[:, None] ^ idx[None, :]
    t[1, 4] = t[2, 7] = 6
    t[1, 7] = t[2, 4] = 5
    with pytest.raises(ValueError, match="associativity fails"):
        if backend == "np":
            FiniteGroup(t)
        else:
            pybackend.validate_table(t.tolist())
    # the table it was made from passes
    if backend == "np":
        npbackend.validate_table(idx[:, None] ^ idx[None, :])
