"""Congruence filtrations of SL(2, Z/p^k), unitriangular orders, and the
p-compatible filtration of finitely generated integer matrix groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import CapExceeded, FiniteGroup, require_prime
from .smith import Presentation, theta_map

DEFAULT_TOWER_CAP = 3 ** 9


def _mat_mul(a, b, mod):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % mod
                       for j in range(n)) for i in range(n))


def _mat_pow(a, e, mod):
    n = len(a)
    acc = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    base = tuple(tuple(x % mod for x in row) for row in a)
    while e:
        if e & 1:
            acc = _mat_mul(acc, base, mod)
        base = _mat_mul(base, base, mod)
        e >>= 1
    return acc


def _det2(a, mod):
    return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % mod


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# products are formed in row blocks of about this many matrices at a time
_BLOCK = 1 << 15


def _codes(mats: np.ndarray, mod: int) -> np.ndarray:
    """Each matrix of a (..., k, k) array with entries in [0, mod) as one
    integer: its entries, row by row, as the digits base mod."""
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    return flat @ (mod ** np.arange(flat.shape[-1] - 1, -1, -1))


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

    def as_finite_group(self, cap: int = 5000) -> tuple[FiniteGroup, list]:
        """The Cayley table, built in row blocks: each product is encoded by
        ``_codes`` and looked up in a code -> index array."""
        n, q = self.order, self.mod
        if n > cap:
            raise CapExceeded(f"Cayley table of order {n} exceeds cap {cap}")
        index = np.full(q ** self.mats[0].size, -1, dtype=np.int32)
        index[_codes(self.mats, q)] = np.arange(n)
        table = np.empty((n, n), dtype=np.int64)
        step = max(1, _BLOCK // n)
        for i in range(0, n, step):
            prods = self.mats[i:i + step, None] @ self.mats % q
            table[i:i + step] = index[_codes(prods, q)]
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

    def level_group(self, i: int, cap: int = 5000) -> tuple[FiniteGroup, list]:
        mg = MatrixGroup(self.levels[i - 1], self.full.mod, name=f"SL2^{i}(Z/{self.full.mod})")
        return mg.as_finite_group(cap=cap)


def sl2_congruence_tower(p: int, k: int, cap: int = DEFAULT_TOWER_CAP) -> CongruenceTower:
    """Enumerate SL(2, Z/p^k) and its congruence subgroups G_i (1 <= i <= k)."""
    require_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    if p ** (3 * k) > cap:
        raise CapExceeded(f"p^(3k) = {p ** (3 * k)} beyond the tower cap {cap}")
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


def congruence_layer_check(p: int, k: int, cap: int = DEFAULT_TOWER_CAP) -> dict:
    """Layer isomorphism types and [G_i, G_j] <= G_{i+j} for the tower mod p^k.

    Both tests are exhaustive and run on arrays: every commutator
    a^-1 b^-1 a b = (b a)^-1 (a b) of G_i x G_j, one block of a at a time,
    is looked up in G_{i+j} by its code.  The elements have det 1, so each
    inverse is the adjugate, tr(M) I - M for a 2x2 matrix M."""
    tower = sl2_congruence_tower(p, k, cap=cap)
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
        power = gi
        for _ in range(p - 1):
            power = power @ gi % mod
        ok_exp = not ((power - eye) % p ** (i + 1)).any()
        report["layers"].append({"i": i, "order": count,
                                 "elementary_abelian_p3": ok_size and ok_exp})
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i + j > k:
                continue
            target = np.zeros(mod ** 4, dtype=bool)
            target[_codes(levels[i + j - 1], mod)] = True
            gi, gj = levels[i - 1], levels[j - 1]
            step = max(1, _BLOCK // max(1, len(gj)))
            for s in range(0, len(gi), step):
                a = gi[s:s + step, None]
                ba = gj @ a % mod
                ba_inv = np.trace(ba, axis1=2, axis2=3)[..., None, None] * eye - ba
                comm = ba_inv @ (a @ gj) % mod
                if not target[_codes(comm, mod)].all():
                    report["commutator_ok"] = False
                    report["commutator_failure"] = {"i": i, "j": j}
                    return report
    return report


def _reduce(m, q):
    return tuple(tuple(x % q for x in row) for row in m)


def _layer_representatives(p: int, i: int) -> list[tuple]:
    """Representatives of G_i/G_{i+1} as matrices mod p^{i+1}: I + p^i A with
    tr(A) = 0 mod p (det condition), one per residue class."""
    q = p ** (i + 1)
    reps = []
    for a, b, c in itertools.product(range(p), repeat=3):
        # A = [[a, b], [c, -a]] mod p gives det(I + p^i A) = 1 mod p^{i+1}
        m = ((1 + p ** i * a) % q, (p ** i * b) % q), \
            ((p ** i * c) % q, (1 - p ** i * a) % q)
        reps.append(m)
    return reps


def power_map_injectivity(p: int, k: int) -> dict:
    """For odd p, verify that M -> M^p induces injective morphisms
    G_i/G_{i+1} -> G_{i+1}/G_{i+2} for 1 <= i <= k-2.

    Works on canonical layer representatives; no full tower enumeration.
    """
    require_prime(p)
    if p == 2:
        raise ValueError("the power-map layer lemma requires p odd")
    if k < 3:
        return {"p": p, "k": k, "levels": [], "all_injective": True}
    levels = []
    all_ok = True
    for i in range(1, k - 1):
        reps = _layer_representatives(p, i)
        q1 = p ** (i + 1)          # cosets of G_{i+1} live mod p^{i+1}
        q2 = p ** (i + 2)          # image cosets of G_{i+2} live mod p^{i+2}
        rep_by_class = {_reduce(m, q1): m for m in reps}
        images = {key: _reduce(_mat_pow(m, p, q2), q2)
                  for key, m in rep_by_class.items()}
        # well-definedness: another lift of the same G_{i+1}-coset must give
        # the same G_{i+2}-coset of the p-th power
        well_defined = True
        for key, m in rep_by_class.items():
            shifted = tuple(tuple((x + q1) % q2 for x in row) for row in m)
            if _reduce(_mat_pow(shifted, p, q2), q2) != images[key]:
                well_defined = False
        inj = len(set(images.values())) == len(reps)
        hom = True
        for k1, m1 in rep_by_class.items():
            for k2, m2 in rep_by_class.items():
                prod_class = _reduce(_mat_mul(m1, m2, q1), q1)
                lhs = images[prod_class]
                rhs = _reduce(_mat_mul(images[k1], images[k2], q2), q2)
                if lhs != rhs:
                    hom = False
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
    for i in range(n):
        for j in range(0, i + 1):
            if N[i][j] % mod:
                raise ValueError("N must be strictly upper triangular")
    M = tuple(tuple((N[i][j] + (1 if i == j else 0)) % mod for j in range(n))
              for i in range(n))
    acc = M
    order = 1
    while acc != _identity(n):
        acc = _mat_mul(acc, M, mod)
        order += 1
        if order > mod * n:
            raise AssertionError("runaway order computation")
    if mod % order != 0 or order > mod:
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
        n = len(self.generators[0])
        for g in self.generators:
            if len(g) != n or any(len(r) != n for r in g):
                raise ValueError("generators must be square of equal size")
            d = _int_det(g)
            if d not in (1, -1):
                raise ValueError("generators must have determinant +-1")
        if self.presentation.ngens != len(self.generators):
            raise ValueError("presentation generator count mismatch")
        for rel in self.presentation.relators:
            if _eval_word_int(self.generators, rel) != _identity(n):
                raise ValueError("a relator does not evaluate to the identity")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def _int_det(m) -> int:
    from .smith import det_unimodular
    return det_unimodular(m)


def _eval_word_int(gens, word):
    n = len(gens[0])
    acc = _identity(n)
    for letter in word:
        g = [list(map(int, row)) for row in gens[abs(letter) - 1]]
        if letter < 0:
            g = _int_inverse(g)
        acc = tuple(tuple(sum(acc[i][k] * g[k][j] for k in range(n))
                          for j in range(n)) for i in range(n))
    return acc


def _int_inverse(m):
    n = len(m)
    from fractions import Fraction
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = a[i][n + j]
            if v.denominator != 1:
                raise ValueError("matrix is not invertible over Z")
            row.append(int(v))
        out.append(tuple(row))
    return tuple(out)


def _mat_inverse_mod(m, mod):
    n = len(m)
    if n == 2:
        det = _det2(m, mod)
        dinv = pow(det, -1, mod)
        return ((m[1][1] * dinv % mod, -m[0][1] * dinv % mod),
                (-m[1][0] * dinv % mod, m[0][0] * dinv % mod))
    inv = _int_inverse(m)
    return _reduce(inv, mod)


def matrix_p_filtration(spec: MatrixGroupSpec, p: int, k_max: int,
                        image_cap: int = 200_000) -> dict:
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
        mod = p ** k
        gens_mod = [_reduce(g, mod) for g in spec.generators]
        closure = _closure_mod(gens_mod, theta_rows, mod, p ** k, image_cap)
        report["levels"].append({
            "k": k,
            "image_order": closure if isinstance(closure, int) else len(closure),
            "capped": isinstance(closure, int),
        })
    for t_index, tspec in enumerate(spec.subgroups):
        tReport = {"index": t_index, "per_k": []}
        tw = tspec.words
        t_mats = [_eval_word_int(spec.generators, w) for w in tw]
        # T must be abelian (exactly, over Z) and unipotent
        for a in t_mats:
            for b in t_mats:
                if _eval_word_int((a, b), (1, 2)) != _eval_word_int((a, b), (2, 1)):
                    raise ValueError("T generators do not commute")
        for a in t_mats:
            if not _is_unipotent_int(a):
                raise ValueError("T generator is not unipotent")
        t_theta = [_theta_of_word(theta_rows, w) for w in tw]
        for k in range(1, k_max + 1):
            mod = p ** k
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


def _is_unipotent_int(m) -> bool:
    """(m - id)^n = 0 over Z."""
    n = len(m)
    a = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    acc = a
    for _ in range(n - 1):
        acc = [[sum(acc[i][k] * a[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return all(x == 0 for row in acc for x in row)


def _theta_of_word(theta_rows, word):
    r = len(theta_rows[0]) if theta_rows else 0
    acc = [0] * r
    for letter in word:
        sgn = 1 if letter > 0 else -1
        row = theta_rows[abs(letter) - 1]
        for i in range(r):
            acc[i] += sgn * row[i]
    return tuple(acc)


def _t_intersection_lattice(t_mats, t_theta, p: int, k: int):
    """Index of {m in Z^r : T(m) in G_k} inside Z^r ... supported exactly for
    cyclic T (r = 1), where the index returned is the generator multiple."""
    mod = p ** k
    if len(t_mats) == 1:
        m = t_mats[0]
        # order of m mod p^k
        o = 1
        acc = _reduce(m, mod)
        ident = _identity(len(m))
        while acc != ident:
            acc = _mat_mul(acc, m, mod)
            o += 1
            if o > mod ** (len(m) ** 2):
                raise AssertionError("runaway unipotent order")
        # theta condition: e * theta = 0 mod p^k componentwise
        th = t_theta[0]
        t_ord = mod
        nz = [abs(x) for x in th if x]
        if not nz:
            theta_step = 1
        else:
            g = 0
            for x in nz:
                g = math.gcd(g, x)
            theta_step = mod // math.gcd(mod, g)
        step = o * theta_step // math.gcd(o, theta_step)
        return step
    # small abelian T: enumerate exponent boxes
    r = len(t_mats)
    best = None
    count = 0
    total = 0
    for exps in itertools.product(range(p ** k), repeat=r):
        total += 1
        acc = _identity(len(t_mats[0]))
        for m, e in zip(t_mats, exps):
            acc = _mat_mul(acc, _mat_pow(m, e, p ** k), p ** k)
        th = [0] * len(t_theta[0])
        for te, e in zip(t_theta, exps):
            for i in range(len(th)):
                th[i] += e * te[i]
        if acc == _identity(len(t_mats[0])) and all(x % p ** k == 0 for x in th):
            count += 1
    return total // count if count else None


def _closure_mod(gens_mod, theta_rows, mod, theta_mod, cap):
    """Closure of the generator images in SL(n,Z/mod) x Z^r/theta_mod.

    Returns the element set, or the reached size (int) if the cap is hit.
    """
    r = len(theta_rows[0]) if theta_rows else 0
    start = (_identity(len(gens_mod[0])), (0,) * r)
    items = [(g, tuple(x % theta_mod for x in theta_rows[i]))
             for i, g in enumerate(gens_mod)]
    inv_items = [(_mat_inverse_mod(g, mod),
                  tuple(-x % theta_mod for x in theta_rows[i]))
                 for i, g in enumerate(gens_mod)]
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for m, th in frontier:
            for gm, gth in items + inv_items:
                nm = _mat_mul(m, gm, mod)
                nth = tuple((a + b) % theta_mod for a, b in zip(th, gth))
                key = (nm, nth)
                if key not in seen:
                    seen.add(key)
                    new.append(key)
                    if len(seen) > cap:
                        return len(seen)
        frontier = new
    return seen


def image_filtration(spec: MatrixGroupSpec, p: int, k: int,
                     image_cap: int = 20_000):
    """The finite image of G at level k with the images of the deeper G_j.

    Returns (image_group, filtration, elems) where the filtration's term j
    collects the image elements that are trivial at level j; its first term
    is the image of G_1.  The terms form a central p-filtration of the
    level-1 kernel image (checked by callers through the filtration module).
    """
    from .filtration import Filtration
    from .groups import Subgroup as _Subgroup
    rank, theta_rows = theta_map(spec.presentation)
    mod = p ** k
    gens_mod = [_reduce(g, mod) for g in spec.generators]
    closure = _closure_mod(gens_mod, theta_rows, mod, mod, image_cap)
    if isinstance(closure, int):
        raise CapExceeded("finite image beyond the cap")
    elems = sorted(closure)
    ident = (_identity(spec.dim), (0,) * (len(theta_rows[0]) if theta_rows else 0))
    elems.remove(ident)
    elems.insert(0, ident)
    index = {m: i for i, m in enumerate(elems)}
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, (ma, ta) in enumerate(elems):
        for j, (mb, tb) in enumerate(elems):
            key = (_mat_mul(ma, mb, mod),
                   tuple((x + y) % mod for x, y in zip(ta, tb)))
            table[i, j] = index[key]
    G_img = FiniteGroup(table, name=f"image mod {p}^{k}", validate=False)
    levels = []
    for j in range(1, k + 1):
        q = p ** j
        levels.append([i for i, (m, t) in enumerate(elems)
                       if all((m[r][c] - (1 if r == c else 0)) % q == 0
                              for r in range(spec.dim) for c in range(spec.dim))
                       and all(x % q == 0 for x in t)])
    # the filtration lives on the image of G_1, realized as its own group
    G1, to_parent, from_parent = _Subgroup(G_img, levels[0], check=False).as_group()
    terms = [_Subgroup(G1, [from_parent[g] for g in lv], check=False)
             for lv in levels]
    filt = Filtration(G1, terms, check=False)
    return G_img, filt, elems
