"""Congruence filtrations of SL(2, Z/p^k), unitriangular orders, and the
p-compatible filtration of finitely generated integer matrix groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import DEFAULT_ORDER_CAP, CapExceeded, FiniteGroup, require_prime
from .smith import (Presentation, det_unimodular, smith_normal_form,
                    theta_map)

DEFAULT_TOWER_CAP = 3 ** 9
# the most elements matrix_p_filtration lists of one image mod p^k
MATRIX_IMAGE_CAP = 200_000


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _dtype(n: int, mod: int):
    """int64 while a product of two n x n matrices with entries in [0, mod)
    cannot overflow it, else exact Python ints (dtype object)."""
    return np.int64 if n * (mod - 1) ** 2 < 2 ** 63 else object


def _mod_array(m, mod: int) -> np.ndarray:
    """An integer matrix, or a stack of them, reduced mod `mod` in the dtype
    `_dtype` picks for its size."""
    a = np.array(m, dtype=object) % mod
    return a.astype(_dtype(a.shape[-1], mod))


def _power(mats: np.ndarray, e: int, mod: int) -> np.ndarray:
    """mats^e mod `mod` for every matrix of a (..., n, n) stack, by repeated
    squaring."""
    acc = np.eye(mats.shape[-1], dtype=mats.dtype)
    while e:
        if e & 1:
            acc = acc @ mats % mod
        mats = mats @ mats % mod
        e >>= 1
    return acc


def _unipotent_order(m: np.ndarray, p: int, mod: int) -> int:
    """The order of a unipotent m mod `mod` = p^k.  It is a power of p, at
    most p^k·(n - 1) for n x n matrices, so it is the least p^e with
    m^(p^e) = 1, found by p-th powers."""
    eye = np.eye(len(m), dtype=m.dtype)
    order = 1
    while (m != eye).any():
        if order >= mod * len(m):
            raise AssertionError("the matrix is not unipotent")
        m = _power(m, p, mod)
        order *= p
    return order


# products are formed in row blocks of about this many matrices at a time
_BLOCK = 1 << 15


def _codes(rows: np.ndarray, mod: int) -> np.ndarray:
    """Each row of a (..., w) array with entries in [0, mod) as one integer:
    its entries as the digits base mod, most significant first, so codes
    order rows lexicographically.  Python ints once mod^w passes int64."""
    w = rows.shape[-1]
    if mod ** w > 2 ** 63:
        weights = np.array([mod ** e for e in range(w - 1, -1, -1)], dtype=object)
        return rows.astype(object) @ weights
    return rows @ (mod ** np.arange(w - 1, -1, -1))


class MatrixGroup:
    """A finite matrix group over Z/mod as a list of matrices (tuples of
    rows), identity first; ``mats`` holds them as an (n, k, k) array."""

    def __init__(self, elements: Sequence[tuple], mod: int, name: str = "M"):
        self.elements = list(elements)
        self.mod = mod
        self.name = name
        if _identity(len(self.elements[0])) != self.elements[0]:
            raise ValueError("element 0 must be the identity matrix")
        self.mats = np.array(self.elements, dtype=np.int64)

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_finite_group(self) -> tuple[FiniteGroup, list]:
        """The Cayley table, built in row blocks: each product is encoded by
        ``_codes`` and looked up in a code -> index array."""
        n, q = self.order, self.mod
        if n > DEFAULT_ORDER_CAP:
            raise CapExceeded(f"Cayley table of order {n} exceeds cap {DEFAULT_ORDER_CAP}")
        index = np.full(q ** self.mats[0].size, -1, dtype=np.int32)
        index[_codes(self.mats.reshape(n, -1), q)] = np.arange(n)
        table = np.empty((n, n), dtype=np.int64)
        step = max(1, _BLOCK // n)
        for i in range(0, n, step):
            prods = self.mats[i:i + step, None] @ self.mats % q
            table[i:i + step] = index[_codes(prods.reshape(len(prods), n, -1), q)]
        if (table < 0).any():
            raise ValueError("the matrices are not closed under multiplication")
        return FiniteGroup(table, name=self.name, validate=False), list(self.elements)


def sl2_elements(mod: int) -> list[tuple]:
    """All of SL(2, Z/mod), identity first, lexicographic on entries after.

    One (c, d) grid per leading pair (a, b), so no array exceeds mod^2."""
    c, d = np.divmod(np.arange(mod * mod), mod)
    ident = _identity(2)
    out = [ident]
    for a, b in itertools.product(range(mod), repeat=2):
        hit = np.flatnonzero((a * d - b * c) % mod == 1)
        out += [((a, b), (x, y)) for x, y in zip(c[hit].tolist(), d[hit].tolist())
                if ((a, b), (x, y)) != ident]
    return out


@dataclass
class CongruenceTower:
    """SL(2, Z/p^k) with its chain of congruence subgroups G_1 >= ... >= G_k."""
    p: int
    k: int
    full: MatrixGroup
    levels: list[list[tuple]]     # levels[i-1] = elements of G_i (matrices mod p^k)

    def order_formula_holds(self) -> bool:
        p, k = self.p, self.k
        return self.full.order == p ** (3 * k - 2) * (p * p - 1)


def sl2_congruence_tower(p: int, k: int) -> CongruenceTower:
    """Enumerate SL(2, Z/p^k) and its congruence subgroups G_i (1 <= i <= k)."""
    require_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    if p ** (3 * k) > DEFAULT_TOWER_CAP:
        raise CapExceeded(f"p^(3k) = {p ** (3 * k)} beyond the tower cap "
                          f"{DEFAULT_TOWER_CAP}")
    mod = p ** k
    elems = sl2_elements(mod)
    full = MatrixGroup(elems, mod, name=f"SL(2,Z/{mod})")
    if len(elems) != p ** (3 * k - 2) * (p * p - 1):
        raise AssertionError("SL(2, Z/p^k) order formula violated")
    off_identity = full.mats - np.eye(2, dtype=np.int64)
    levels = []
    for i in range(1, k + 1):
        hit = np.flatnonzero(~(off_identity % p ** i).any(axis=(1, 2)))
        levels.append([elems[h] for h in hit.tolist()])
    return CongruenceTower(p, k, full, levels)


def congruence_layer_check(p: int, k: int) -> dict:
    """Layer isomorphism types and [G_i, G_j] <= G_{i+j} for the tower mod p^k.

    Both tests are exhaustive and run on arrays: every commutator
    a^-1 b^-1 a b = (b a)^-1 (a b) of G_i x G_j, one block of a at a time,
    is looked up in G_{i+j} by its code.  The elements have det 1, so each
    inverse is the adjugate, tr(M) I - M for a 2x2 matrix M."""
    tower = sl2_congruence_tower(p, k)
    mod = p ** k
    report = {"p": p, "k": k, "order": tower.full.order,
              "order_formula": tower.order_formula_holds(),
              "layers": [], "commutator_ok": True}
    levels = [np.array(lvl, dtype=np.int64).reshape(-1, 2, 2) for lvl in tower.levels]
    eye = np.eye(2, dtype=np.int64)
    for lvl in levels:
        det = lvl[:, 0, 0] * lvl[:, 1, 1] - lvl[:, 0, 1] * lvl[:, 1, 0]
        if (det % mod != 1).any():
            raise AssertionError("a congruence subgroup element has det != 1")
    for i in range(1, k):
        gi = levels[i - 1]
        count = len(gi) // len(levels[i])
        # the layer is elementary abelian of order p^3: verify exponent and size
        ok_size = count == p ** 3
        ok_exp = not ((_power(gi, p, mod) - eye) % p ** (i + 1)).any()
        report["layers"].append({"i": i, "order": count,
                                 "elementary_abelian_p3": ok_size and ok_exp})
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i + j > k:
                continue
            target = np.zeros(mod ** 4, dtype=bool)
            target[_codes(levels[i + j - 1].reshape(-1, 4), mod)] = True
            gi, gj = levels[i - 1], levels[j - 1]
            step = max(1, _BLOCK // max(1, len(gj)))
            for s in range(0, len(gi), step):
                a = gi[s:s + step, None]
                ba = gj @ a % mod
                ba_inv = np.trace(ba, axis1=2, axis2=3)[..., None, None] * eye - ba
                comm = ba_inv @ (a @ gj) % mod
                if not target[_codes(comm.reshape(comm.shape[:2] + (4,)), mod)].all():
                    report["commutator_ok"] = False
                    report["commutator_failure"] = {"i": i, "j": j}
                    return report
    return report


def power_map_injectivity(p: int, k: int) -> dict:
    """For odd p, verify that M -> M^p induces injective morphisms
    G_i/G_{i+1} -> G_{i+1}/G_{i+2} for 1 <= i <= k-2.

    Works on the p^3 canonical layer representatives I + p^i A, tr(A) = 0
    mod p, as one array; no full tower enumeration.  The product of the
    representatives of A and A' is I + p^i(A + A') mod p^{i+1}, since
    2i >= i + 1, so its class is read from its entries.
    """
    require_prime(p)
    if p == 2:
        raise ValueError("the power-map layer lemma requires p odd")
    if k < 3:
        return {"p": p, "k": k, "levels": [], "all_injective": True}
    levels = []
    all_ok = True
    for i in range(1, k - 1):
        q1 = p ** (i + 1)          # cosets of G_{i+1} live mod p^{i+1}
        q2 = p ** (i + 2)          # image cosets of G_{i+2} live mod p^{i+2}
        dt = _dtype(2, q2)
        eye = np.eye(2, dtype=dt)
        # A = [[a, b], [c, -a]] mod p gives det(I + p^i A) = 1 mod p^{i+1};
        # representative a p^2 + b p + c has digits (a, b, c)
        a, b, c = np.indices((p, p, p)).reshape(3, -1).astype(dt)
        reps = (eye + p ** i * np.stack([a, b, c, -a], axis=1).reshape(-1, 2, 2)) % q1
        images = _power(reps, p, q2)
        # well-definedness: another lift of the same G_{i+1}-coset must give
        # the same G_{i+2}-coset of the p-th power
        well_defined = np.array_equal(_power((reps + q1) % q2, p, q2), images)
        inj = len({tuple(x) for x in images.reshape(-1, 4).tolist()}) == len(reps)
        prods = reps[:, None] @ reps % q1
        digits = (prods - eye)[..., [0, 0, 1], [0, 1, 0]] // p ** i
        prod_class = (digits @ np.array([p * p, p, 1])).astype(np.int64)
        hom = np.array_equal(images[prod_class], images[:, None] @ images % q2)
        levels.append({"i": i, "layer_order": len(reps), "well_defined": well_defined,
                       "homomorphism": hom, "injective": inj})
        all_ok = all_ok and inj and hom and well_defined
    return {"p": p, "k": k, "levels": levels, "all_injective": all_ok}


def unitriangular_order(n: int, p: int, d: int, N: Sequence[Sequence[int]]) -> int:
    """Order of id + N in UT_1(n, Z/p^d); asserts the exponent bound and the
    exactness clause when the first nonzero codiagonal has a unit entry."""
    require_prime(p)
    if p < n:
        raise ValueError("the lemma requires p >= n")
    mod = p ** d
    N = [list(map(int, row)) for row in N]
    if len(N) != n or any(len(row) != n for row in N):
        raise ValueError("N must be an n x n matrix")
    for i in range(n):
        for j in range(0, i + 1):
            if N[i][j] % mod:
                raise ValueError("N must be strictly upper triangular")
    M = _mod_array([[N[i][j] + (i == j) for j in range(n)] for i in range(n)], mod)
    order = _unipotent_order(M, p, mod)
    if order > mod:
        raise AssertionError("order does not divide p^d")
    # exactness clause
    first_nonzero = None
    for c in range(1, n):
        codiag = [N[j][j + c] % mod for j in range(n - c)]
        if any(codiag):
            first_nonzero = codiag
            break
    if first_nonzero is not None and any(math.gcd(x, mod) == 1 for x in first_nonzero):
        if order != mod:
            raise AssertionError("unit codiagonal should force order p^d")
    return order


# -- p-compatible filtrations of integer matrix groups --------------------------


@dataclass
class TSpec:
    """A distinguished abelian unipotent subgroup, generators given as words
    over the ambient group's generators (letters +-(i+1))."""
    words: tuple[tuple[int, ...], ...]


@dataclass
class MatrixGroupSpec:
    """Generators of an integer matrix group with a trusted-but-verified
    presentation and distinguished subgroups."""
    generators: tuple               # tuple of integer matrices
    presentation: Presentation
    subgroups: tuple[TSpec, ...] = ()

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a matrix group needs at least one generator")
        n = len(self.generators[0])
        for g in self.generators:
            if len(g) != n or any(len(r) != n for r in g):
                raise ValueError("generators must be square of equal size")
            if det_unimodular(g) not in (1, -1):
                raise ValueError("generators must have determinant +-1")
        if self.presentation.ngens != len(self.generators):
            raise ValueError("presentation generator count mismatch")
        for rel in self.presentation.relators:
            if (_eval_word_int(self.generators, rel) != np.eye(n, dtype=object)).any():
                raise ValueError("a relator does not evaluate to the identity")
        for T in self.subgroups:
            for word in T.words:
                for letter in word:
                    if letter == 0 or abs(letter) > len(self.generators):
                        raise ValueError(f"subgroup letter {letter} out of range")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def _eval_word_int(gens, word) -> np.ndarray:
    """The matrix of a word over Z, exactly: an array of Python ints."""
    acc = np.eye(len(gens[0]), dtype=object)
    for letter in word:
        g = [[int(x) for x in row] for row in gens[abs(letter) - 1]]
        acc = acc @ np.array(g if letter > 0 else _int_inverse(g), dtype=object)
    return acc


def _int_inverse(m):
    """m^-1 over Z: the Smith form D = U m V is the identity exactly when m
    is invertible over Z, and then m^-1 = V U."""
    D, U, V = smith_normal_form(m)
    n = len(D)
    if D != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise ValueError("matrix is not invertible over Z")
    return tuple(tuple(sum(V[i][k] * U[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def matrix_p_filtration(spec: MatrixGroupSpec, p: int, k_max: int) -> dict:
    """The mod-p^k finite quotients G -> SL(n, Z/p^k) x H/p^k H and the exact
    intersection levels G_k ^ T for the distinguished subgroups.

    For each T given by generator words, the subgroup G_k ^ T is computed by
    solving the power congruences of the T-generators exactly (supported for
    cyclic T; small abelian T are handled by bounded enumeration), and the
    report states the least l in {0, 1} with G_k ^ T = gamma^p_{k+l}(T),
    or None when neither matches.
    """
    require_prime(p)
    rank, theta_rows = theta_map(spec.presentation)
    report = {"p": p, "rank_H": rank, "levels": [], "subgroups": []}
    for k in range(1, k_max + 1):
        size = len(_image_closure(spec, theta_rows, p ** k, MATRIX_IMAGE_CAP))
        report["levels"].append({"k": k, "image_order": size, "capped": size > MATRIX_IMAGE_CAP})
    for t_index, tspec in enumerate(spec.subgroups):
        tReport = {"index": t_index, "per_k": []}
        tw = tspec.words
        t_mats = [_eval_word_int(spec.generators, w) for w in tw]
        # T must be abelian (exactly, over Z) and unipotent
        for a in t_mats:
            for b in t_mats:
                if (a @ b != b @ a).any():
                    raise ValueError("T generators do not commute")
        for a in t_mats:
            if not _is_unipotent_int(a):
                raise ValueError("T generator is not unipotent")
        t_theta = [_theta_of_word(theta_rows, w) for w in tw]
        for k in range(1, k_max + 1):
            lattice = _t_intersection_lattice(t_mats, t_theta, p, k)
            # gamma^p_{k+l}(T) = p^(k+l-1) T on exponent vectors
            want1 = p ** k          # level 1
            want0 = p ** (k - 1)    # level 0
            if lattice == want1:
                level = 1
            elif lattice == want0:
                level = 0
            else:
                level = None
            tReport["per_k"].append({"k": k, "intersection_index": lattice,
                                     "level": level})
        levels = {e["level"] for e in tReport["per_k"]}
        tReport["level"] = levels.pop() if len(levels) == 1 else None
        report["subgroups"].append(tReport)
    return report


def _is_unipotent_int(m: np.ndarray) -> bool:
    """(m - id)^n = 0 over Z."""
    a = m - np.eye(len(m), dtype=object)
    acc = a
    for _ in range(len(m) - 1):
        acc = acc @ a
    return not (acc != 0).any()


def _theta_of_word(theta_rows, word):
    r = len(theta_rows[0]) if theta_rows else 0
    acc = [0] * r
    for letter in word:
        sgn = 1 if letter > 0 else -1
        row = theta_rows[abs(letter) - 1]
        for i in range(r):
            acc[i] += sgn * row[i]
    return tuple(acc)


def _t_intersection_lattice(t_mats, t_theta, p: int, k: int) -> int:
    """Index of {e in Z^r : T(e) in G_k} inside Z^r, where T(e) is the
    product of the powers m_j^e_j of the T-generators, theta part included.

    For cyclic T (r = 1) it is the least e with m^e = 1 mod p^k and
    e theta = 0 mod p^k; for r >= 2 it is counted over the exponent box
    [0, p^k)^r, all of it at once as arrays."""
    mod = p ** k
    n = len(t_mats[0])
    mats = [_mod_array(m, mod) for m in t_mats]
    if len(mats) == 1:
        theta_step = mod // math.gcd(mod, *t_theta[0])
        return math.lcm(_unipotent_order(mats[0], p, mod), theta_step)
    eye = np.eye(n, dtype=mats[0].dtype)
    acc = eye[None]
    th = np.zeros((1, len(t_theta[0])), dtype=eye.dtype)
    for m, te in zip(mats, t_theta):
        powers = [eye]
        for _ in range(mod - 1):
            powers.append(powers[-1] @ m % mod)
        acc = (acc[:, None] @ np.stack(powers) % mod).reshape(-1, n, n)
        steps = (np.arange(mod)[:, None] * np.array(te, dtype=object) % mod).astype(eye.dtype)
        th = ((th[:, None] + steps) % mod).reshape(len(acc), len(te))
    count = int(((acc == eye).all(axis=(1, 2)) & (th == 0).all(axis=1)).sum())
    return mod ** len(mats) // count


def _image_closure(spec: MatrixGroupSpec, theta_rows, mod: int, cap: int) -> np.ndarray:
    """The image of G in GL(n, Z/mod) x (Z/mod)^r, one row [entries of M |
    theta part] per element, identity first.

    Breadth first from the identity, multiplying on the right by the
    generator images only: the image is finite, so every inverse is a
    positive power.  Each round's new rows come in code order.  Once more
    than `cap` elements are found the search stops and returns cap + 1 rows.
    """
    n, g = spec.dim, len(spec.generators)
    gens = _mod_array(spec.generators, mod)
    thetas = (np.array(theta_rows, dtype=object) % mod).astype(gens.dtype)
    r = thetas.shape[1]
    frontier = np.concatenate([np.eye(n, dtype=gens.dtype).ravel(),
                               np.zeros(r, dtype=gens.dtype)])[None]
    found, known = [frontier], _codes(frontier, mod)
    while len(frontier) and len(known) <= cap:
        f = len(frontier)
        mats = frontier[:, :n * n].reshape(f, 1, n, n) @ gens % mod
        ths = (frontier[:, None, n * n:] + thetas) % mod
        cand = np.concatenate([mats.reshape(f * g, n * n), ths.reshape(f * g, r)], axis=1)
        codes, first = np.unique(_codes(cand, mod), return_index=True)
        fresh = known[np.minimum(np.searchsorted(known, codes), len(known) - 1)] != codes
        frontier = cand[first[fresh]]
        found.append(frontier)
        known = np.sort(np.concatenate([known, codes[fresh]]))
    return np.concatenate(found)[:cap + 1]
