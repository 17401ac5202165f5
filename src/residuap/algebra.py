"""Modular group algebras F_p[G], augmentation-ideal powers, Jennings'
filtration, wreath products, and the identities relating ideal powers to
central series of wreath products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .filtration import Filtration, dimension_series, lower_central_p_series, \
    lower_central_series
from .groups import (DEFAULT_ORDER_CAP, CapExceeded, FiniteGroup, Subgroup,
                     direct_product, generating_sequence, require_p_group,
                     require_prime, trivial_subgroup)


class IdealBasis:
    """A right ideal of F_p[G] (two-sided where it is built here) as the rows
    of its reduced echelon basis, which depend only on the row space.  The
    rows are a tuple of tuples, so a basis kept with its group cannot be
    changed through a caller."""

    __slots__ = ("group", "p", "rows")

    def __init__(self, group: FiniteGroup, p: int, rows):
        self.group = group
        self.p = p
        self.rows = tuple(map(tuple, kernels.rref_mod_p(rows, p)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def matrix(self) -> np.ndarray:
        """The basis rows as a dim x |G| array."""
        return np.array(self.rows, dtype=np.int64).reshape(self.dim, self.group.order)

    def contains_rows(self, vecs) -> np.ndarray:
        """For each row v of vecs, whether v lies in the ideal.

        R is reduced, so R[:, pivots] is the identity and v is in the row
        space exactly when v = v[pivots] @ R (mod p)."""
        R = self.matrix()
        vecs = np.asarray(vecs, dtype=np.int64) % self.p
        pivots = [r.index(1) for r in self.rows]       # each leading entry is 1
        residue = (vecs - vecs[:, pivots] @ R) % self.p
        return ~residue.any(axis=1)

    def multiply(self, other: "IdealBasis") -> "IdealBasis":
        """Basis of the product I * omega, where other must be omega.

        For x in S = generating_sequence(G), I * omega = sum_x I (x - 1): a
        word in S telescopes as x y - 1 = x (y - 1) + (x - 1), I is a right
        ideal, and G is finite, so words without inverses reach every g.
        Right multiplication by x sends coordinate h to h x, so
        I (x - 1) is spanned by the rows of R[:, t[:, x^-1]] - R.
        """
        G, n = self.group, self.group.order
        if not (other.group is G and other.p == self.p and other.dim == n - 1
                and all(sum(r) % self.p == 0 for r in other.rows)):
            raise ValueError("multiply needs the augmentation ideal of the same "
                             "group and p")
        R = self.matrix()
        blocks = [R[:, G.mult[:, G.inv[x]]] - R for x in generating_sequence(G)]
        return IdealBasis(G, self.p, np.vstack(blocks) if blocks else R[:0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, IdealBasis) and self.group is other.group
                and self.p == other.p and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"IdealBasis(dim={self.dim} in F_{self.p}[{self.group.name}])"


def _one_minus_g(n: int) -> np.ndarray:
    """Row g - 1 holds e_0 - e_g, the coefficient vector of 1 - g (0 < g < n)."""
    vecs = np.zeros((n - 1, n), dtype=np.int64)
    vecs[:, 0] = 1
    vecs[np.arange(n - 1), np.arange(1, n)] = -1
    return vecs


def augmentation_ideal(G: FiniteGroup, p: int) -> IdealBasis:
    return IdealBasis(G, p, _one_minus_g(G.order))


def augmentation_ideal_powers(G: FiniteGroup, p: int):
    """Bases of omega, omega^2, ... down to zero; returns (bases, dims, d).

    d is the nilpotency class of omega: the largest n with omega^n != 0.
    The bases are computed once per (G, p) and kept with G; each call
    returns fresh lists.
    """
    require_prime(p)
    require_p_group(G, p)
    key = ("augmentation_ideal_powers", p)
    if key not in G._by_p:
        omega = augmentation_ideal(G, p)
        bases = []
        cur = omega
        while cur.dim > 0:
            bases.append(cur)
            cur = cur.multiply(omega)
        G._by_p[key] = tuple(bases)
    bases = G._by_p[key]
    return list(bases), [b.dim for b in bases] + [0], len(bases)


def jennings_series(G: FiniteGroup, p: int) -> Filtration:
    """The filtration {g : 1 - g in omega^n}; must equal the dimension series,
    which is checked on every call."""
    bases, _, d = augmentation_ideal_powers(G, p)
    one_minus_g = _one_minus_g(G.order)
    terms = []
    for basis in bases:
        members = np.flatnonzero(basis.contains_rows(one_minus_g)) + 1
        elems = [0] + members.tolist()
        terms.append(Subgroup(G, elems))
        if terms[-1].is_trivial():
            break
    if not terms or not terms[-1].is_trivial():
        terms.append(trivial_subgroup(G))
    jen = Filtration(G, terms, check=False)
    dim = dimension_series(G, p)
    upto = max(len(jen.terms), len(dim.terms)) + 1
    for n in range(1, upto):
        if jen.term(n).elems != dim.term(n).elems:
            raise AssertionError(f"Jennings filtration differs from the "
                                 f"dimension series at level {n}")
    return jen


# -- wreath products -----------------------------------------------------------

@dataclass
class WreathProduct:
    """The wreath product X wr H as a Cayley group, with structure maps.

    Elements are pairs (top, f) with top in H and f: H -> X, indexed
    top-major: index = top * |X|^|H| + sum_k f(k) |X|^k.
    """
    group: FiniteGroup
    X: FiniteGroup
    H: FiniteGroup

    def index_of(self, top: int, digits: Sequence[int]) -> int:
        nx = self.X.order
        base = 0
        for k in reversed(range(self.H.order)):
            base = base * nx + int(digits[k])
        return top * nx ** self.H.order + base

    def decompose(self, w: int) -> tuple[int, tuple[int, ...]]:
        nx, nh = self.X.order, self.H.order
        top, base = divmod(int(w), nx ** nh)
        digits = []
        for _ in range(nh):
            base, d = divmod(base, nx)
            digits.append(d)
        return top, tuple(digits)

    def base_subgroup(self) -> Subgroup:
        nx, nh = self.X.order, self.H.order
        return Subgroup(self.group, range(nx ** nh), check=False)

    def base_vector(self, w: int) -> tuple[int, ...]:
        top, digits = self.decompose(w)
        if top != 0:
            raise ValueError("not a base element")
        return digits


def wreath(X: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_ORDER_CAP) -> WreathProduct:
    """Build X wr H with multiplication (h1,f1)(h2,f2) = (h1 h2, f1^h2 f2),
    where f^h(k) = f(hk).  Orders above `cap`, or above DEFAULT_ORDER_CAP
    whatever `cap` is, raise CapExceeded before any table is built."""
    nx, nh = X.order, H.order
    order = nx ** nh * nh
    cap = min(cap, DEFAULT_ORDER_CAP)
    if order > cap:
        raise CapExceeded(f"wreath product of order {order} exceeds cap {cap}")
    if nx == 1:
        # 1 wr H is H; the broadcast below would gather order^2 entries
        table = H.mult.copy()
    else:
        nbase = nx ** nh
        # X^nh with little-endian digits: each product puts the new factor
        # in the most significant digit, so digit k of f has weight nx^k
        BaseG = X
        for _ in range(nh - 1):
            BaseG, _, _ = direct_product(X, BaseG)
        radix = nx ** np.arange(nh)
        digits = np.arange(nbase)[:, None] // radix % nx
        # (h1, f1)(h2, f2) has top h1 h2 and base f1^{h2} f2, where
        # twist[f, h2] is the index of f^{h2} = f(h2 .); the base does not
        # depend on h1, so axes (h1, f1, h2, f2) take it by broadcasting
        twist = digits[:, H.mult] @ radix
        table = (H.mult[:, None, :, None] * nbase
                 + BaseG.mult[twist][None]).reshape(order, order)
    # correct by construction, so not validated here; the test suite
    # validates every wreath table it builds up to order 256
    W = FiniteGroup(table, name=f"{X.name}wr{H.name}", validate=False)
    return WreathProduct(W, X, H)


# -- Buckley-type identities ----------------------------------------------------

def buckley_check(p: int, H: FiniteGroup, n_max: int) -> dict:
    """For W = F_p wr H, verify for 0 <= n <= n_max the chain of equalities

        D^p_{n+1}(W) ^ base = gamma^p_{n+1}(W) ^ base
                            = gamma_{n+1}(W) ^ base = omega^n,

    where base is the additive group of F_p[H] inside W.
    """
    from .catalog import cyclic
    require_p_group(H, p)
    wp = wreath(cyclic(p), H)
    W = wp.group
    base = wp.base_subgroup()
    gamma = lower_central_series(W)
    gamma_p = lower_central_p_series(W, p)
    dim = dimension_series(W, p)
    powers, _, _ = augmentation_ideal_powers(H, p)
    full = IdealBasis(H, p, np.eye(H.order, dtype=np.int64))
    zero = IdealBasis(H, p, [])
    levels = []
    ok_all = True
    for n in range(0, n_max + 1):
        ideal = full if n == 0 else powers[n - 1] if n <= len(powers) else zero
        got = {}
        for nm, filt in (("gamma", gamma), ("gamma_p", gamma_p), ("dim", dim)):
            got[nm] = [wp.base_vector(g) for g in filt.term(n + 1).elems
                       if g in base]
        # distinct elements have distinct base vectors, so the vectors are
        # the ideal exactly when there are p^dim of them, all inside it
        ok = all(len(v) == p ** ideal.dim and ideal.contains_rows(v).all()
                 for v in got.values())
        ok_all = ok_all and ok
        levels.append({"n": n, "omega_dim": ideal.dim, "equal": ok,
                       "sizes": {k: len(v) for k, v in got.items()},
                       "expected_size": p ** ideal.dim})
    return {"group": W.name, "ok": ok_all, "levels": levels}


def wreath_class_formula(p: int, H: FiniteGroup) -> dict:
    """Nilpotency class of F_p wr H, via the gamma series and via Jennings."""
    from .catalog import cyclic
    wp = wreath(cyclic(p), H)
    gamma = lower_central_series(wp.group)
    cls = len(gamma.terms) - 1 if gamma.terms[-1].is_trivial() else None
    _, dims, d = augmentation_ideal_powers(H, p)
    dimser = dimension_series(H, p)
    total = 0
    n = 1
    while len(dimser.term(n)) > 1 or n == 1:
        dn = len(dimser.term(n))
        dn1 = len(dimser.term(n + 1))
        k = 0
        q = dn // dn1
        while q > 1:
            q //= p
            k += 1
        total += n * k
        if dn1 == 1:
            break
        n += 1
    predicted = 1 + (p - 1) * total
    return {"class_gamma": cls, "class_formula": predicted,
            "omega_class": d, "agree": cls == predicted == 1 + d}
