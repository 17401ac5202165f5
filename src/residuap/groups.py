"""Concrete finite groups as Cayley tables, with subgroups, quotients and
homomorphisms.

Conventions used throughout the package:

* elements of a group of order n are the indices ``0..n-1``;
* index 0 is always the identity;
* all values are immutable after construction and every operation is a pure
  function of its inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from . import kernels

DEFAULT_ORDER_CAP = 4096
DEFAULT_AUT_CAP = 256
DEFAULT_AUT_SIZE_CAP = 200_000
# the largest product of the generators' candidate-list lengths searched
AUT_SEARCH_VOLUME_CAP = 2_000_000
# the most subgroups all_subgroups lists
SUBGROUP_CAP = 100_000


class CapExceeded(ValueError):
    """A construction would exceed the configured desk-scale cap."""


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table must not be changed after construction: these facts are
    computed once from it, when first asked for, and kept with the group:

    * whether it is abelian, the element orders, ``generating_sequence``;
    * ``all_subgroups``, handed out as a fresh list on each call;
    * ``chief_series`` and the chain tracer of those series
      (``embed.chief_tracer``);
    * ``central_p_step(G, T, p)`` per (T.elems, p);
    * ``dimension_series(G, p)`` and ``augmentation_ideal_powers(G, p)``
      per p, in ``_by_p`` under the keys ("dimension_series", p) and
      ("augmentation_ideal_powers", p).

    ``copy`` shares the other facts with the copy, whose table is equal;
    the chief series are re-parented onto it, one Subgroup per distinct
    term.  The facts kept per p are not passed on: their subgroups and ideal
    bases belong to this group, and the copy builds its own.  Nor is the
    subgroup list, whose Subgroups point at this group: the copy lists its
    own when asked.
    """

    __slots__ = ("order", "mult", "inv", "name", "_abelian", "_orders",
                 "_gens", "_subgroups", "_chief_series", "_chief_tracer",
                 "_central_steps", "_by_p")

    def __init__(self, mult, name: str = "G", validate: bool = True):
        t = np.ascontiguousarray(np.asarray(mult, dtype=np.int64))
        if validate:
            kernels.validate_table(t)
        self.mult = t
        self.order = int(t.shape[0])
        self.inv = np.asarray(kernels.inverse_table(t), dtype=np.int64)
        self.name = name
        self._abelian: Optional[bool] = None
        self._orders: Optional[list[int]] = None
        self._gens: Optional[list[int]] = None
        self._subgroups: Optional[list] = None
        self._chief_series: Optional[list] = None
        self._chief_tracer = None
        self._central_steps: dict[tuple, frozenset[int]] = {}
        self._by_p: dict[tuple[str, int], object] = {}

    # -- basic element arithmetic ------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inverse(a), -e)
        acc, base = 0, a
        while e:
            if e & 1:
                acc = int(self.mult[acc, base])
            base = int(self.mult[base, base])
            e >>= 1
        return acc

    def word(self, letters: Iterable[int]) -> int:
        acc = 0
        for x in letters:
            acc = int(self.mult[acc, x])
        return acc

    def element_orders(self) -> list[int]:
        if self._orders is None:
            orders = [1] * self.order
            for a in range(1, self.order):
                x, n = a, 1
                while x != 0:
                    x = int(self.mult[x, a])
                    n += 1
                orders[a] = n
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*set(self.element_orders()))

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.mult, self.mult.T))
        return self._abelian

    def is_p_group(self, p: int) -> bool:
        return is_p_power(self.order, p)

    def prime(self) -> Optional[int]:
        """The prime p when the order is a nontrivial p-power, else None."""
        n = self.order
        if n == 1:
            return None
        p = _least_prime_factor(n)
        return p if self.is_p_group(p) else None

    def is_elementary_abelian(self) -> bool:
        """Abelian with every element of order 1 or p, for one prime p; the
        trivial group counts."""
        if self.order == 1:
            return True
        p = self.prime()
        return (p is not None and self.is_abelian
                and all(o in (1, p) for o in self.element_orders()))

    def copy(self, name: str) -> "FiniteGroup":
        """An independent group on a copy of the table, sharing the facts
        found so far except the subgroup list and those kept per p: the
        chief series are re-parented, one Subgroup per distinct term; the
        rest depend only on the table and are never changed, so are shared."""
        H = FiniteGroup(self.mult.copy(), name=name, validate=False)
        H._abelian = self._abelian
        H._orders, H._gens = self._orders, self._gens
        H._chief_tracer = self._chief_tracer
        H._central_steps = self._central_steps
        if self._chief_series is not None:
            terms = {e: Subgroup(H, e, check=False) for e in dict.fromkeys(
                T.elems for chain in self._chief_series for T in chain)}
            H._chief_series = [tuple(terms[T.elems] for T in chain)
                               for chain in self._chief_series]
        return H

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def is_p_power(n: int, p: int) -> bool:
    """Whether n is a power of p (p^0 = 1 included)."""
    if p < 2:
        raise ValueError(f"{p} is not prime")
    while n % p == 0:
        n //= p
    return n == 1


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def require_prime(p: int) -> None:
    if p >= _MR_EXACT_BELOW:
        raise ValueError("p too large: primality is decided exactly only "
                         "below 3.3e24")
    if p < 2 or not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_p_group(G: FiniteGroup, p: int) -> None:
    if not G.is_p_group(p):
        raise ValueError(f"{G.name} is not a {p}-group")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_EXACT_BELOW."""
    if n in _MR_BASES:
        return True
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a strictly increasing index list."""

    __slots__ = ("parent", "elems", "_set")

    def __init__(self, parent: FiniteGroup, elems: Sequence[int], check: bool = True):
        elems = tuple(sorted({int(x) for x in elems}))
        if check:
            if not elems or elems[0] != 0:
                raise ValueError("subgroup must contain the identity 0")
            if elems[-1] >= parent.order:
                raise ValueError(f"subgroup element {elems[-1]} out of range "
                                 f"for order {parent.order}")
            es = set(elems)
            for a in elems:
                if int(parent.inv[a]) not in es:
                    raise ValueError("not closed under inverse")
            prods = kernels.bulk_mult(parent.mult, elems, elems)
            if not set(prods) <= es:
                raise ValueError("not closed under multiplication")
            if parent.order % len(elems) != 0:
                raise ValueError("Lagrange violation (corrupt table?)")
        self.parent = parent
        self.elems = elems
        self._set = frozenset(elems)

    def __contains__(self, x: int) -> bool:
        return int(x) in self._set

    def __len__(self) -> int:
        return len(self.elems)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.elems == other.elems)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elems))

    def __le__(self, other: "Subgroup") -> bool:
        return self._set <= other._set

    def is_normal(self) -> bool:
        G = self.parent
        conj = kernels.conjugates(G.mult, G.inv, self.elems, range(G.order))
        return set(conj) <= self._set

    def is_trivial(self) -> bool:
        return len(self.elems) == 1

    def as_group(self):
        """The subgroup as a FiniteGroup of its own, with index maps.

        Returns (group, to_parent, from_parent) where to_parent[i] is the
        parent index of local element i and from_parent maps back.
        """
        G = self.parent
        to_parent = list(self.elems)
        from_parent = {g: i for i, g in enumerate(to_parent)}
        n = len(to_parent)
        # the elements are sorted, so a parent index's rank is its local index
        elems = np.asarray(to_parent, dtype=np.int64)
        table = np.searchsorted(elems, G.mult[np.ix_(elems, elems)])
        G_sub = FiniteGroup(table, name=f"{G.name}|sub{n}", validate=False)
        return G_sub, to_parent, from_parent

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.elems)} of {self.parent.name})"


def trivial_group() -> FiniteGroup:
    return FiniteGroup(np.zeros((1, 1), dtype=np.int64), name="1",
                       validate=False)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (0,), check=False)


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order), check=False)


class Homomorphism:
    """A verified group homomorphism, stored as an index array."""

    __slots__ = ("dom", "cod", "map")

    def __init__(self, dom: FiniteGroup, cod: FiniteGroup, mapping, check: bool = True):
        m = np.asarray(mapping, dtype=np.int64)
        if m.shape != (dom.order,):
            raise ValueError("map length must equal the domain order")
        if check:
            if not (m.min() >= 0 and m.max() < cod.order):
                raise ValueError(f"map values must be elements 0..{cod.order - 1} "
                                 f"of the codomain")
            if not kernels.is_homomorphism(dom.mult, cod.mult, m):
                raise ValueError("not a homomorphism")
        self.dom = dom
        self.cod = cod
        self.map = m

    def __call__(self, x: int) -> int:
        return int(self.map[x])

    def is_injective(self) -> bool:
        return len(set(int(x) for x in self.map)) == self.dom.order

    def is_surjective(self) -> bool:
        return len(set(int(x) for x in self.map)) == self.cod.order

    def image(self) -> Subgroup:
        return Subgroup(self.cod, sorted(set(int(x) for x in self.map)), check=False)

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self o inner (inner applied first)."""
        if inner.cod is not self.dom:
            raise ValueError("composition domain mismatch")
        return Homomorphism(inner.dom, self.cod, self.map[inner.map], check=False)

    def preimage(self, sub: Subgroup) -> Subgroup:
        inside = sub._set
        return Subgroup(self.dom,
                        [i for i in range(self.dom.order) if int(self.map[i]) in inside],
                        check=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Homomorphism) and self.dom is other.dom
                and self.cod is other.cod and np.array_equal(self.map, other.map))

    def __repr__(self) -> str:
        return f"Homomorphism({self.dom.name} -> {self.cod.name})"


def identity_hom(G: FiniteGroup) -> Homomorphism:
    return Homomorphism(G, G, np.arange(G.order), check=False)


# -- subgroup constructions -------------------------------------------------

def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"generator index {g} out of range")
    return Subgroup(G, kernels.closure(G.mult, G.inv, gens), check=False)


def normal_closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The least normal subgroup of G containing gens, conjugated by
    generating_sequence(G) only: a subgroup that each conjugation by a
    generator maps into (so, being finite, onto) itself is normal."""
    gens = {int(g) for g in gens}
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"generator index {g} out of range")
    S = generating_sequence(G)
    elems = kernels.closure(G.mult, G.inv, gens)
    while True:
        fresh = set(kernels.conjugates(G.mult, G.inv, elems, S)) - set(elems)
        if not fresh:
            break
        gens |= fresh
        elems = kernels.closure(G.mult, G.inv, gens)
    return Subgroup(G, elems, check=False)


# -- quotients ---------------------------------------------------------------

def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """The quotient G/N with minimal-index coset representatives."""
    if N.parent is not G:
        raise ValueError("subgroup of a different group")
    if not N.is_normal():
        raise ValueError("subgroup is not normal")
    narr = np.asarray(N.elems, dtype=np.int64)
    rep = G.mult[:, narr].min(axis=1)          # rep[g] = min(gN)
    reps = np.unique(rep)                      # sorted; coset i is reps[i]
    table = np.searchsorted(reps, rep[G.mult[np.ix_(reps, reps)]])
    Q = FiniteGroup(table, name=f"{G.name}/N{len(N)}", validate=False)
    proj = Homomorphism(G, Q, np.searchsorted(reps, rep), check=False)
    return Q, proj


def induced_hom(f: Homomorphism, src: Homomorphism,
                dst: Homomorphism) -> Homomorphism:
    """The map src.cod -> dst.cod induced by f: src.dom -> dst.dom for
    surjective src, read at the least preimage of each class under src.  It
    is checked to be a homomorphism; it is well defined when f sends the
    kernel of src into the kernel of dst."""
    _, least = np.unique(src.map, return_index=True)
    return Homomorphism(src.cod, dst.cod, dst.map[f.map[least]])


def right_coset_reps(G: FiniteGroup, elems: Sequence[int]) -> list[int]:
    """Minimal right-coset representatives of the subgroup S with the given
    elements: rep[g] = min(S g) for every g in G."""
    return G.mult[np.asarray(elems, dtype=np.int64)].min(axis=0).tolist()


# -- products ----------------------------------------------------------------

def direct_product(G: FiniteGroup, H: FiniteGroup
                   ) -> tuple[FiniteGroup, Homomorphism, Homomorphism]:
    """G x H with lexicographic indexing (G-index major).

    Returns (product, embed_G, embed_H).
    """
    n, m = G.order, H.order
    if n * m > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"direct product of order {n*m} is too large")
    # axes (g1, h1, g2, h2): row g1 m + h1, column g2 m + h2
    table = (G.mult[:, None, :, None] * m
             + H.mult[None, :, None, :]).reshape(n * m, n * m)
    P = FiniteGroup(table, name=f"{G.name}x{H.name}", validate=False)
    eg = Homomorphism(G, P, np.arange(n) * m, check=False)
    eh = Homomorphism(H, P, np.arange(m), check=False)
    return P, eg, eh


def amalgamated_sum(A: FiniteGroup, B: FiniteGroup,
                    pairs: Iterable[tuple[int, int]],
                    ) -> tuple[FiniteGroup, Homomorphism, Homomorphism]:
    """(A x B) / <a b^-1 : (a, b) in pairs>, which needs the a b^-1 to
    generate a normal subgroup (always so for abelian A and B).

    Its elements are the cosets of direct_product(A, B), ordered by their
    least element, but the table of A x B is never built: an element (a, b)
    is the code a |B| + b, and only the sum's own table is allocated, so
    sums of order at most DEFAULT_ORDER_CAP are built whatever |A| |B| is.
    Returns (sum, iota_A, iota_B).
    """
    n, m = A.order, B.order
    ga, gb = np.array([(a, B.inv[b]) for a, b in pairs],
                      dtype=np.int64).reshape(-1, 2).T
    # K = <(a, b^-1)>: the right multiples of 1 by the generators, as codes
    inK = np.zeros(n * m, dtype=bool)
    inK[0] = True
    fresh = np.zeros(1, dtype=np.int64)
    while fresh.size:
        fa, fb = np.divmod(fresh, m)
        prod = (A.mult[fa[:, None], ga] * m + B.mult[fb[:, None], gb]).ravel()
        fresh = np.unique(prod[~inK[prod]])
        inK[fresh] = True
    K = np.flatnonzero(inK)
    order = n * m // len(K)
    if order > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"amalgamated sum of order {order} is too large")
    ka, kb = np.divmod(K, m)
    if not (A.is_abelian and B.is_abelian):
        # normal when conjugation by each generator of A x B keeps K
        g, h = (np.array(generating_sequence(X), dtype=np.int64) for X in (A, B))
        if not (inK[A.mult[A.mult[g[:, None], ka], A.inv[g, None]] * m + kb].all()
                and inK[ka * m + B.mult[B.mult[h[:, None], kb], B.inv[h, None]]].all()):
            raise ValueError("subgroup is not normal")
    # min((a, b) K): the least a ka over the projection KA of K, then the
    # least b t c over c in KB = K n (1 x B), t any partner of that ka in K
    KA, first = np.unique(ka, return_index=True)
    j = A.mult[:, KA].argmin(axis=1)
    least_b = B.mult[:, kb[ka == 0]].min(axis=1)
    rep = (A.mult[np.arange(n), KA[j]][:, None] * m
           + least_b[B.mult[:, kb[first][j]].T]).ravel()
    reps = np.unique(rep)                      # sorted; coset i is reps[i]
    ra, rb = np.divmod(reps, m)
    table = np.searchsorted(reps, rep[A.mult[ra[:, None], ra] * m
                                      + B.mult[rb[:, None], rb]])
    S = FiniteGroup(table, name=f"{A.name}x{B.name}/N{len(K)}", validate=False)
    proj = np.searchsorted(reps, rep).reshape(n, m)
    return (S, Homomorphism(A, S, proj[:, 0], check=False),
            Homomorphism(B, S, proj[0], check=False))


class GroupAction:
    """An action of `actor` on `target` by automorphisms.

    perms[a] is the permutation of target indices given by the element a of
    the actor; the assignment a -> perms[a] must be a homomorphism into the
    symmetric group and each perms[a] an automorphism of target.
    """

    __slots__ = ("actor", "target", "perms")

    def __init__(self, actor: FiniteGroup, target: FiniteGroup, perms, check: bool = True):
        perms = np.asarray(perms, dtype=np.int64)
        if perms.shape != (actor.order, target.order):
            raise ValueError("perms must be actor.order x target.order")
        if check:
            for a in range(actor.order):
                if not kernels.is_homomorphism(target.mult, target.mult, perms[a]):
                    raise ValueError(f"act({a}) is not an endomorphism")
                if len(set(int(x) for x in perms[a])) != target.order:
                    raise ValueError(f"act({a}) is not bijective")
            for a in range(actor.order):
                for b in range(actor.order):
                    c = int(actor.mult[a, b])
                    if not np.array_equal(perms[a][perms[b]], perms[c]):
                        raise ValueError("action is not a homomorphism")
        self.actor = actor
        self.target = target
        self.perms = perms


def semidirect_product(B: FiniteGroup, H: FiniteGroup, action: GroupAction
                       ) -> tuple[FiniteGroup, Homomorphism, Homomorphism]:
    """B x| H for an action of H on B; B-index-major lexicographic indexing.

    Product rule (b1,h1)(b2,h2) = (b1 * h1(b2), h1 h2).  Returns the group
    together with the canonical embeddings of B (normal) and H.
    """
    if action.actor is not H or action.target is not B:
        raise ValueError("action must be of H on B")
    nb, nh = B.order, H.order
    n = nb * nh
    if n > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"semidirect product of order {n} is too large")
    # axes (b1, h1, b2, h2): row b1 nh + h1, column b2 nh + h2
    table = (B.mult[:, action.perms][:, :, :, None] * nh
             + H.mult[None, :, None, :]).reshape(n, n)
    P = FiniteGroup(table, name=f"{B.name}:{H.name}", validate=False)
    eb = Homomorphism(B, P, np.arange(nb) * nh, check=False)
    eh = Homomorphism(H, P, np.arange(nh), check=False)
    return P, eb, eh


# -- generating sets, automorphisms, isomorphism -----------------------------

def generating_sequence(G: FiniteGroup) -> list[int]:
    """A small generating sequence picked greedily by index, computed once
    per group; each call returns a fresh list."""
    if G._gens is None:
        gens: list[int] = []
        cur = {0}
        while len(cur) < G.order:
            nxt = min(x for x in range(G.order) if x not in cur)
            gens.append(nxt)
            cur = set(kernels.closure(G.mult, G.inv, gens))
        G._gens = gens
    return list(G._gens)


def _homomorphisms(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                   cands: Sequence[Sequence[int]],
                   seed: Iterable[tuple[int, int]]):
    """Yield every injective homomorphism G -> H, as an index array, that
    sends x to y for each pair (x, y) of seed and gens[i] into cands[i], in
    itertools.product order of the generator images.

    Backtrack search (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005): the seed pairs are assigned first and closed under
    products, so a seed that is not a partial injective morphism yields
    nothing; gens[i] then gets its image only after gens[:i] have theirs,
    and the partial map on <gens[:i]> is extended to <gens[:i+1]> by
    closing it under products.  A branch is pruned as soon as a product is
    sent to two different images or two elements share an image.  No pruned
    branch holds an injective homomorphism that agrees with the seed, so the
    output equals that of testing every tuple of images in turn.  gens must
    generate G.  Both tables are read as Python lists, which keeps the work
    per node small.
    """
    gm = G.mult.tolist()
    hm = H.mult.tolist()
    m = [-1] * G.order           # the partial map; -1 marks unmapped
    used = [False] * H.order     # the images taken so far
    m[0], used[0] = 0, True
    known = [0]                  # the mapped elements, in the order mapped

    def assign(z: int, w: int) -> bool:
        mz = m[z]
        if mz >= 0:
            return mz == w
        if used[w]:
            return False
        m[z], used[w] = w, True
        known.append(z)
        return True

    def extend(g: int, c: int) -> bool:
        """Send g to c, then close under products; False on a conflict."""
        i = len(known)
        if not assign(g, c):
            return False
        while i < len(known):
            y = known[i]
            i += 1
            gy, my = gm[y], m[y]
            hy = hm[my]
            for x in known[:i]:
                mx = m[x]
                if not (assign(gm[x][y], hm[mx][my]) and assign(gy[x], hy[mx])):
                    return False
        return True

    def undo(start: int) -> None:
        for z in known[start:]:
            used[m[z]] = False
            m[z] = -1
        del known[start:]

    def descend(level: int):
        if level == len(gens):
            arr = np.array(m, dtype=np.int64)
            if kernels.is_homomorphism(G.mult, H.mult, arr):
                yield arr
            return
        start = len(known)
        for c in cands[level]:
            if extend(gens[level], c):
                yield from descend(level + 1)
            undo(start)

    for x, y in seed:
        if not extend(x, y):
            return
    yield from descend(0)


def automorphism_search(G: FiniteGroup, fixed: dict[int, int]):
    """Yield the automorphisms of G that send each key x of fixed to
    fixed[x], as permutation arrays in lexicographic order: the greedy
    generating_sequence puts every element below gens[i] in <gens[:i]>, so
    two automorphisms first differ at a generator.  The order cap and the
    search volume, counted without the pins of fixed, are checked first."""
    if G.order > DEFAULT_AUT_CAP:
        raise CapExceeded(f"automorphism enumeration capped at order {DEFAULT_AUT_CAP}")
    gens = generating_sequence(G)
    orders = G.element_orders()
    by_order: dict[int, list[int]] = {}
    for x in range(G.order):
        by_order.setdefault(orders[x], []).append(x)
    volume = 1
    for g in gens:
        volume *= len(by_order[orders[g]])
    if volume > AUT_SEARCH_VOLUME_CAP:
        raise CapExceeded(f"automorphism search space {volume} beyond cap")
    yield from _homomorphisms(G, G, gens, [by_order[orders[g]] for g in gens],
                              fixed.items())


def automorphisms(G: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms of G as permutation arrays, in lexicographic
    order."""
    out = []
    for m in automorphism_search(G, {}):
        out.append(m)
        if len(out) > DEFAULT_AUT_SIZE_CAP:
            raise CapExceeded("automorphism group larger than size cap")
    return out


def permutation_group(G: FiniteGroup, perms: Sequence[np.ndarray]):
    """The group formed by a lexicographically sorted list of permutations of
    G that is closed under composition, as (A, action on G, index).

    Element i of A is perms[i], A.mult[i, j] is the index of perms[i][perms[j]],
    and index maps each permutation, as a tuple, to its element of A. The
    identity permutation is the lexicographic minimum of all permutations, so
    a sorted list starts with it and element 0 of A is the identity.
    """
    stacked = np.stack(perms).astype(np.int64, copy=False)
    if not np.array_equal(stacked[0], np.arange(G.order)):
        raise AssertionError("the first permutation must be the identity")
    index = {tuple(row): i for i, row in enumerate(stacked.tolist())}
    table = np.array([[index[tuple(row)] for row in p[stacked].tolist()]
                      for p in stacked], dtype=np.int64)
    A = FiniteGroup(table, name="A", validate=False)
    return A, GroupAction(A, G, stacked, check=False), index


def permutation_closure(G: FiniteGroup, perms: Sequence[np.ndarray]):
    """Subgroup of Sym(G) generated by permutation arrays; returns the list."""
    ident = tuple(range(G.order))
    seen = {ident}
    out = [np.arange(G.order, dtype=np.int64)]
    frontier = []
    for p in perms:
        key = tuple(int(x) for x in p)
        if key not in seen:
            seen.add(key)
            out.append(np.asarray(p, dtype=np.int64))
            frontier.append(np.asarray(p, dtype=np.int64))
    gens = list(frontier)
    while frontier:
        new = []
        for p in list(out):
            for q in gens:
                r = q[p]
                key = tuple(int(x) for x in r)
                if key not in seen:
                    seen.add(key)
                    out.append(r)
                    new.append(r)
                    if len(out) > DEFAULT_AUT_SIZE_CAP:
                        raise CapExceeded("permutation closure exceeds size cap")
        frontier = new
    out.sort(key=lambda a: tuple(int(x) for x in a))
    return out


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[Homomorphism]:
    """An isomorphism G -> H, or None: the first in lexicographic order of the
    images of generating_sequence(G), after invariant checks."""
    if G.order != H.order:
        return None
    if sorted(G.element_orders()) != sorted(H.element_orders()):
        return None
    if G.is_abelian != H.is_abelian:
        return None
    gens = generating_sequence(G)
    orders_G = G.element_orders()
    orders_H = H.element_orders()
    by_order: dict[int, list[int]] = {}
    for x in range(H.order):
        by_order.setdefault(orders_H[x], []).append(x)
    cands = [by_order[orders_G[g]] for g in gens]
    for m in _homomorphisms(G, H, gens, cands, ()):
        return Homomorphism(G, H, m, check=False)
    return None


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, as sorted element tuples in lexicographic order.

    Breadth-first closure: repeatedly extend known subgroups by one
    generator.  Desk-scale only (the count explodes beyond order ~64).
    Computed once and kept with G; each call returns a fresh list.
    """
    if G._subgroups is not None:
        return list(G._subgroups)
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        new = []
        for elems in frontier:
            # <S, x> depends only on the right coset S x
            for x in sorted(set(right_coset_reps(G, elems)) - {0}):
                bigger = tuple(kernels.closure(G.mult, G.inv, list(elems) + [x]))
                if bigger not in seen:
                    seen.add(bigger)
                    new.append(bigger)
                    if len(seen) > SUBGROUP_CAP:
                        raise CapExceeded("subgroup enumeration cap exceeded")
        frontier = new
    G._subgroups = [Subgroup(G, e, check=False) for e in sorted(seen)]
    return list(G._subgroups)


def abelian_invariants(G: FiniteGroup) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of a finite abelian group.

    A cyclic subgroup of largest order is a direct summand, so its order is
    the last factor and the others are those of the quotient by it."""
    if not G.is_abelian:
        raise ValueError("abelian_invariants needs an abelian group")
    factors = []
    while G.order > 1:
        orders = G.element_orders()
        g = orders.index(max(orders))
        factors.append(orders[g])
        G, _ = quotient(G, subgroup_generated(G, [g]))
    return factors[::-1]
