"""Bundled desk-scale groups used by the property suites and the CLI.

Everything is constructed internally from first principles (cyclic tables,
products, explicit semidirect data); nothing is read from disk.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .groups import (DEFAULT_ORDER_CAP, CapExceeded, FiniteGroup, GroupAction,
                     direct_product, semidirect_product)


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n <= 0:
        raise ValueError("cyclic group order must be positive")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"C{n}",
                       validate=False)


@lru_cache(maxsize=None)
def elementary_abelian(p: int, rank: int) -> FiniteGroup:
    G = cyclic(p)
    for _ in range(rank - 1):
        G, _, _ = direct_product(G, cyclic(p))
    G.name = f"C{p}^{rank}" if rank > 1 else f"C{p}"
    return G


@lru_cache(maxsize=None)
def abelian(*orders: int) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    G = cyclic(orders[0])
    for n in orders[1:]:
        G, _, _ = direct_product(G, cyclic(n))
    G.name = "x".join(f"C{n}" for n in orders)
    return G


def _metacyclic(n: int, m: int, k: int, name: str) -> FiniteGroup:
    """C_n x| C_m, the generator s of C_m acting as r -> r^k (k^m = 1 mod
    n); elements r^i s^j with indices m i + j."""
    perms = np.stack([np.arange(n) * pow(k, a, n) % n for a in range(m)])
    G, _, _ = semidirect_product(cyclic(n), cyclic(m),
                                 GroupAction(cyclic(m), cyclic(n), perms))
    G.name = name
    return G


@lru_cache(maxsize=None)
def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; elements r^i s^j with indices 2i+j."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _metacyclic(n, 2, -1, f"D{2 * n}")


# _QNEG[u][v] = 1 when the product of units u, v in (1, i, j, k) is negative
_QNEG = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


@lru_cache(maxsize=None)
def quaternion8() -> FiniteGroup:
    """Q_8 = {1,-1,i,-i,j,-j,k,-k} with index order 1,-1,i,-i,j,-j,k,-k:
    index 2u + s for the unit u in (1, i, j, k) and the sign s, and the
    units multiply as u XOR v up to sign."""
    u, s = np.divmod(np.arange(8), 2)
    table = 2 * (u[:, None] ^ u) + (s[:, None] ^ s ^ _QNEG[u[:, None], u])
    return FiniteGroup(table, name="Q8", validate=False)


@lru_cache(maxsize=None)
def semidihedral16() -> FiniteGroup:
    """SD_16: r^8 = s^2 = 1, s r s = r^3; indices 2i+j for r^i s^j."""
    return _metacyclic(8, 2, 3, "SD16")


@lru_cache(maxsize=None)
def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p (order p^3, exponent p for odd p)."""
    trip = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {t: i for i, t in enumerate(trip)}
    table = np.empty((p ** 3, p ** 3), dtype=np.int64)
    for x, (a, b, c) in enumerate(trip):
        for y, (d, e, f) in enumerate(trip):
            # (1 a c; 0 1 b; 0 0 1)(1 d f; 0 1 e; 0 0 1)
            table[x, y] = index[((a + d) % p, (b + e) % p, (c + f + a * e) % p)]
    return FiniteGroup(table, name=f"Heis{p**3}", validate=False)


@lru_cache(maxsize=None)
def c9_semi_c3() -> FiniteGroup:
    """The nonabelian group C9 x| C3 of order 27 and exponent 9."""
    return _metacyclic(9, 3, 4, "C9:C3")


@lru_cache(maxsize=None)
def klein4() -> FiniteGroup:
    return elementary_abelian(2, 2)


_BUILDERS = {
    "D8": lambda: dihedral(4),
    "D16": lambda: dihedral(8),
    "Q8": quaternion8,
    "SD16": semidihedral16,
    "Heis27": lambda: heisenberg(3),
    "C9:C3": c9_semi_c3,
    "C4xC2": lambda: abelian(4, 2),
}


def by_name(name: str) -> FiniteGroup:
    """Resolve a catalog name like 'C4', 'C2^3', 'D8', 'Heis27', 'C4xC2'.

    The order of a 'C' name is read from the name, and a name of order above
    DEFAULT_ORDER_CAP raises CapExceeded before any table is built."""
    key = name.strip()
    if key in _BUILDERS:
        return _BUILDERS[key]()
    if not key.startswith("C"):
        raise ValueError(f"unknown catalog group {name!r}")
    if "^" in key:
        p, r = (int(t) for t in key[1:].split("^"))
        if p < 2 or r < 1:
            raise ValueError(f"catalog group {name!r} needs p >= 2 and r >= 1")
        factors = itertools.repeat(p, r)
    else:
        factors = [int(part[1:]) for part in key.split("x")]
    order = 1
    for n in factors:
        order *= n
        if order > DEFAULT_ORDER_CAP:
            raise CapExceeded(f"catalog group {key} exceeds order cap "
                              f"{DEFAULT_ORDER_CAP}")
    if "^" in key:
        return elementary_abelian(p, r)
    if "x" in key:
        return abelian(*factors)
    return cyclic(factors[0])


def property_suite(p: int) -> list[FiniteGroup]:
    """The bundled groups exercised by the p-specific property suites:
    cyclics to order 32, elementary abelians to order 81, C4xC2, the dihedral,
    quaternion and semidihedral 2-groups, and the two nonabelian order-27
    groups."""
    if p == 2:
        return [cyclic(2), cyclic(4), cyclic(8), cyclic(16), cyclic(32),
                elementary_abelian(2, 2), elementary_abelian(2, 3),
                elementary_abelian(2, 4), elementary_abelian(2, 5),
                elementary_abelian(2, 6),
                abelian(4, 2), dihedral(4), quaternion8(), dihedral(8),
                semidihedral16()]
    if p == 3:
        return [cyclic(3), cyclic(9), cyclic(27), elementary_abelian(3, 2),
                elementary_abelian(3, 3), elementary_abelian(3, 4),
                heisenberg(3), c9_semi_c3()]
    return [cyclic(p), cyclic(p * p), elementary_abelian(p, 2)]


def two_group_scan_list(max_order: int = 16) -> list[FiniteGroup]:
    """Deterministic list of catalog 2-groups for the amalgam scan."""
    out = [cyclic(2), cyclic(4), klein4(), cyclic(8), abelian(4, 2),
           elementary_abelian(2, 3), dihedral(4), quaternion8(),
           cyclic(16), abelian(8, 2), abelian(4, 4), abelian(4, 2, 2),
           elementary_abelian(2, 4), dihedral(8), semidihedral16()]
    return [G for G in out if G.order <= max_order]
