"""Filtrations of finite groups: gamma series, dimension subgroups, chief
refinements, stretchings and potency reports.

A filtration is a descending chain G_1 >= G_2 >= ... of subgroups with the
trailing-term convention: the stored sequence is read as continuing with its
last term forever, so "finite length" means the last stored term is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .groups import (FiniteGroup, Homomorphism, Steps, Subgroup,
                     full_subgroup, generating_sequence, normal_closure,
                     quotient, require_p_group, require_prime,
                     subgroup_generated, trivial_subgroup)


class Filtration:
    """A descending chain of subgroups of one group (1-based indexing)."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteGroup, terms: Sequence[Subgroup], check: bool = True):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a filtration needs at least one term")
        if check:
            for t in terms:
                if t.parent is not group:
                    raise ValueError("term belongs to a different group")
            for a, b in zip(terms, terms[1:]):
                if not b <= a:
                    raise ValueError("terms must be descending")
        self.group = group
        self.terms = terms

    def term(self, n: int) -> Subgroup:
        """G_n with the trailing convention (n >= 1)."""
        if n < 1:
            raise ValueError("terms are indexed from 1")
        return self.terms[min(n, len(self.terms)) - 1]

    @property
    def complete(self) -> bool:
        return len(self.terms[0]) == self.group.order

    def is_normal(self) -> bool:
        return all(t.is_normal() for t in self.terms)

    def length(self) -> Optional[int]:
        """Smallest n with G_{n+1} = 1, or None if the tail is nontrivial."""
        if not self.terms[-1].is_trivial():
            return None
        n = len(self.terms)
        while n >= 2 and self.terms[n - 2].is_trivial():
            n -= 1
        return n - 1

    def is_central_p(self, p: int) -> bool:
        """Whether the chain starts at G, descends, and [G, G_n] G_n^p <= G_{n+1}
        for every n (the last term against itself).  Taking [x, t] only for x
        in S = generating_sequence(G) is exact on a descending chain: level
        n+1's test puts [x, t] in G_{n+2} <= G_{n+1} for t in G_{n+1}, so S
        conjugates G_{n+1} into itself, G_{n+1} is normal, and
        [xy, t] = [x, t]^y [y, t] gives every [g, t] from the [x, t]."""
        if not self.complete:
            return False
        terms = self.terms
        return (all(b <= a for a, b in zip(terms, terms[1:]))
                and all(central_p_step(self.group, self.term(n), p)
                        <= self.term(n + 1)._set
                        for n in range(1, len(terms) + 1)))

    def layer(self, n: int):
        """The layer G_n / G_{n+1}.

        Returns (Q, proj, to_parent): Q the quotient group, proj the
        projection from G_n realized as its own group, and to_parent the list
        sending local G_n indices to parent indices.
        """
        top, to_parent, from_parent = self.term(n).as_group()
        below = [from_parent[g] for g in self.term(n + 1).elems]
        Q, proj = quotient(top, Subgroup(top, below, check=False))
        return Q, proj, to_parent

    def __eq__(self, other) -> bool:
        return (isinstance(other, Filtration) and self.group is other.group
                and self.terms == other.terms)

    def __repr__(self) -> str:
        sizes = ">=".join(str(len(t)) for t in self.terms)
        return f"Filtration({self.group.name}: {sizes})"


def central_p_step(G: FiniteGroup, T: Subgroup, p: int) -> frozenset[int]:
    """The [x, t] for x in generating_sequence(G) and t in T, and the t^p: a
    normal subgroup holds [G, T] T^p exactly when it holds this set.  Kept
    with G per (T.elems, p)."""
    return G.fact(("central_p_step", T.elems, p), lambda: frozenset(
        kernels.commutators(G.mult, G.inv, generating_sequence(G), T.elems)
        + kernels.powers(G.mult, T.elems, p)))


# -- canonical series ---------------------------------------------------------

def _descend(G: FiniteGroup, p: Optional[int]) -> Filtration:
    """G = T_1 > T_2 > ... to stabilization, T_{n+1} the normal closure of
    the [x, t] for x in S = generating_sequence(G) and t in T_n (and of the
    t^p when p is given).  That is [G, T_n] (T_n^p): [G, T] is normal and
    [xy, t] = [x, t]^y [y, t]; the t^p of a normal T_n are a normal set."""
    S = generating_sequence(G)
    terms = [full_subgroup(G)]
    while True:
        cur = terms[-1]
        gens = kernels.commutators(G.mult, G.inv, S, cur.elems)
        if p is not None:
            gens += kernels.powers(G.mult, cur.elems, p)
        nxt = normal_closure(G, gens)
        if nxt.elems == cur.elems:
            break
        terms.append(nxt)
    return Filtration(G, terms, check=False)


def lower_central_series(G: FiniteGroup) -> Filtration:
    """gamma_1 = G, gamma_{n+1} = [G, gamma_n], computed to stabilization."""
    return _descend(G, None)


def lower_central_p_series(G: FiniteGroup, p: int) -> Filtration:
    """gamma^p_1 = G, gamma^p_{n+1} = [G, gamma^p_n] (gamma^p_n)^p."""
    require_prime(p)
    return _descend(G, p)


def dimension_series(G: FiniteGroup, p: int) -> Filtration:
    """Dimension subgroups in characteristic p.

    Computed by the recursive definition
    D_1 = G, D_n = (D_ceil(n/p))^p prod_{i+j=n} [D_i, D_j]
    and cross-checked against Lazard's closed formula
    D_n = prod_{i p^j >= n} gamma_i(G)^(p^j); the two must agree.
    G must be a p-group: otherwise the series never reaches 1.  The series
    is computed and cross-checked once per (G, p) and kept with G.
    """
    require_prime(p)
    require_p_group(G, p)
    return G.fact(("dimension_series", p), lambda: _dimension_series(G, p))


def _dimension_series(G: FiniteGroup, p: int) -> Filtration:
    D = [full_subgroup(G)]  # D[k] = D_{k+1}
    n = 2
    while not D[-1].is_trivial():
        ceil_np = (n + p - 1) // p
        gens = kernels.powers(G.mult, D[ceil_np - 1].elems, p)
        for i in range(1, n):
            j = n - i
            gens += kernels.commutators(G.mult, G.inv, D[i - 1].elems, D[j - 1].elems)
        D.append(subgroup_generated(G, gens))
        n += 1
    rec = Filtration(G, D, check=False)
    laz = _lazard_series(G, p, len(D))
    for k in range(1, len(D) + 1):
        if rec.term(k).elems != laz.term(k).elems:
            raise AssertionError(
                f"dimension series mismatch at n={k}: recursive vs Lazard")
    return rec


def _lazard_series(G: FiniteGroup, p: int, upto: int) -> Filtration:
    gamma = lower_central_series(G)
    gmax = len(gamma.terms)
    terms = []
    for n in range(1, upto + 1):
        gens: list[int] = []
        for i in range(1, gmax + 1):
            j = 0
            while i * p ** j < n:
                j += 1
            gens += kernels.powers(G.mult, gamma.term(i).elems, p ** j)
        terms.append(subgroup_generated(G, gens))
    return Filtration(G, terms, check=False)


# -- chief filtrations ---------------------------------------------------------

def _minimal_normal_finder(G: FiniteGroup):
    """A function (floor, ceil) -> all minimal members of
    {N normal in G : floor < N <= ceil}, sorted by (order, elements).

    floor must be normal in G.  Each candidate is the product floor.ncl(x)
    for an x of ceil outside floor; both factors are normal, so their product
    is the subgroup they generate.  Each ncl(x) and each answer is computed
    once and kept only as long as the returned function.
    """
    ncl: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple, list[Subgroup]] = {}

    def minimal(floor: Subgroup, ceil: Subgroup) -> list[Subgroup]:
        key = (floor.elems, ceil.elems)
        if key in memo:
            return memo[key]
        cands: set[frozenset] = set()
        for x in ceil.elems:
            if x in floor._set:
                continue
            if x not in ncl:
                ncl[x] = normal_closure(G, [x]).elems
            N = frozenset(kernels.bulk_mult(G.mult, floor.elems, ncl[x]))
            if N <= ceil._set:
                cands.add(N)
        mins = [Subgroup(G, N, check=False) for N in cands
                if not any(M < N for M in cands)]
        mins.sort(key=lambda s: (len(s), s.elems))
        memo[key] = mins
        return mins

    return minimal


def chief_refinement(F: Filtration) -> Filtration:
    """Refine a normal finite-length filtration to a chief filtration.

    Between consecutive terms a maximal chain of subgroups normal in G is
    inserted, ascending from the lower term; at every step the
    lexicographically least minimal candidate is chosen.
    """
    if not F.is_normal():
        raise ValueError("chief refinement needs a normal filtration")
    if F.length() is None:
        raise ValueError("chief refinement needs finite length")
    G = F.group
    stored = list(F.terms)
    if len(stored[0]) != G.order:
        stored.insert(0, full_subgroup(G))
    minimal = _minimal_normal_finder(G)
    chain = [stored[0]]
    for upper, lower in zip(stored, stored[1:]):
        if upper.elems == lower.elems:
            continue
        # climb from lower towards upper, then emit the segment descending
        seg = [lower]
        while seg[-1].elems != upper.elems:
            seg.append(minimal(seg[-1], upper)[0])
        chain.extend(reversed(seg[:-1]))
    if not chain[-1].is_trivial():
        chain.append(trivial_subgroup(G))
    return Filtration(G, chain, check=False)


def chief_series(G: FiniteGroup) -> list[tuple[Subgroup, ...]]:
    """All chief filtrations of G, each as a descending tuple G > ... > 1.

    The list is computed once per group and kept with it; each call returns
    a fresh list.  A step of the enumeration is one element of a normal
    subgroup that extends a chain.
    """
    return list(G.fact("chief_series", lambda: _chief_series(G)))


def _chief_series(G: FiniteGroup) -> list[tuple[Subgroup, ...]]:
    out: list[tuple[Subgroup, ...]] = []
    minimal = _minimal_normal_finder(G)
    steps = Steps("chief series search")

    def ascend(chain: list[Subgroup]):
        if chain[-1].elems == tuple(range(G.order)):
            out.append(tuple(reversed(chain)))
            return
        for N in minimal(chain[-1], full_subgroup(G)):
            steps.take(len(N))
            ascend(chain + [N])

    ascend([trivial_subgroup(G)])
    return out


# -- alignment ----------------------------------------------------------------

class AlignmentError(ValueError):
    pass


def induced_chain(F: Filtration, emb: Homomorphism) -> list[tuple[int, ...]]:
    """Per-level pullbacks of F under an injective map U -> F.group, as U-index tuples."""
    image = {int(emb.map[u]): u for u in range(emb.dom.order)}
    chain = []
    for n in range(1, len(F.terms) + 1):
        chain.append(tuple(sorted(image[g] for g in F.term(n).elems if g in image)))
    return chain


def _runs(chain: Sequence) -> list[tuple[int, int]]:
    """The runs of equal consecutive entries of chain, as 1-based
    (first, last) index pairs."""
    runs = []
    start = 0
    for i in range(1, len(chain) + 1):
        if i == len(chain) or chain[i] != chain[start]:
            runs.append((start + 1, i))
            start = i
    return runs


def aligned_slots(cG: Sequence, cH: Sequence) -> list[tuple[int, int]]:
    """The term indices (jG, jH), 1-based, of the two aligned filtrations,
    slot by slot, from the chains cG and cH they induce on U: the runs of
    equal entries are paired in order, the shorter of a pair padded by
    repeating its last term.  Raises AlignmentError unless the chains are
    equivalent: the same distinct entries in the same order (the trailing
    convention repeats the last), in the same number of runs."""
    if list(dict.fromkeys(cG)) != list(dict.fromkeys(cH)):
        raise AlignmentError("filtrations do not induce equivalent chains on U")
    runsG, runsH = _runs(cG), _runs(cH)
    if len(runsG) != len(runsH):
        raise AlignmentError("induced chains have different segment structure")
    return [(min(ag + k, bg), min(ah + k, bh))
            for (ag, bg), (ah, bh) in zip(runsG, runsH)
            for k in range(max(bg - ag, bh - ah) + 1)]


def is_stretching(chain: Sequence, F: Filtration) -> bool:
    """Whether chain, a sequence of element tuples, is a stretching of F:
    its term m is F_j for iota(j) <= m < iota(j+1), for some strictly
    increasing iota with iota(1) = 1, both read with the trailing
    convention.  That holds exactly when the runs of equal terms of chain
    are those of F in the same order, and every run but the last is at
    least as long as F's."""
    terms = [T.elems for T in F.terms]
    own, runs = _runs(chain), _runs(terms)
    return ([chain[a - 1] for a, _ in own] == [terms[a - 1] for a, _ in runs]
            and all(b - a >= d - c for (a, b), (c, d) in zip(own[:-1], runs)))


def align_filtrations(FG: Filtration, FH: Filtration,
                      uG: Homomorphism, uH: Homomorphism,
                      ) -> tuple[Filtration, Filtration]:
    """Stretch two filtrations so they intersect to the same chain on U.

    uG and uH are the injective maps of the common subgroup U into the two
    groups.  Raises AlignmentError when the induced filtrations on U are not
    equivalent.
    """
    slots = aligned_slots(induced_chain(FG, uG), induced_chain(FH, uH))
    FGs = Filtration(FG.group, [FG.term(jG) for jG, _ in slots], check=False)
    FHs = Filtration(FH.group, [FH.term(jH) for _, jH in slots], check=False)
    if induced_chain(FGs, uG) != induced_chain(FHs, uH):
        raise AssertionError("alignment failed to equalize induced chains")
    return FGs, FHs


# -- potency ------------------------------------------------------------------

@dataclass
class PotencyLevel:
    n: int
    is_morphism: bool
    kernel: Optional[tuple[int, ...]]
    kernel_matches: bool
    phi_injective: bool
    phi_bijective: bool


@dataclass
class PotencyReport:
    """Potency of a central p-filtration up to an explicit finite horizon.

    The notions are horizon-relative because no nontrivial finite group
    satisfies them at all levels; this finite semantics is a deliberate
    choice of the workbench.
    """
    p: int
    horizon: int
    plain: list[PotencyLevel] = field(default_factory=list)
    strong: list[PotencyLevel] = field(default_factory=list)

    @property
    def p_potent(self) -> bool:
        return all(l.is_morphism and l.kernel_matches for l in self.plain)

    @property
    def strongly_p_potent(self) -> bool:
        return all(l.is_morphism and l.kernel_matches for l in self.strong)

    @property
    def uniformly_p_potent(self) -> bool:
        return self.strongly_p_potent and all(l.phi_bijective for l in self.strong)


def _induced_power_map(G: FiniteGroup, dom: Subgroup, e: int,
                       mid: Subgroup, low: Subgroup):
    """Classify x -> x^e as a map dom -> mid/low.

    Returns (is_morphism, kernel_elems_or_None, surjective).
    """
    top, to_parent, from_parent = mid.as_group()
    low_local = Subgroup(top, [from_parent[g] for g in low.elems], check=False)
    Q, proj = quotient(top, low_local)
    images = np.zeros(G.order, dtype=np.int64)
    for x in dom.elems:
        px = G.power(x, e)
        if px not in mid:
            return False, None, False
        images[x] = proj(from_parent[px])
    # morphism: images[ab] = images[a] images[b], compared in row blocks of
    # about 2^20 pairs (one block up to |dom| = 1024)
    d = np.asarray(dom.elems, dtype=np.int64)
    step = max(1, (1 << 20) // len(d))
    for i in range(0, len(d), step):
        rows = d[i:i + step]
        if not np.array_equal(images[G.mult[np.ix_(rows, d)]],
                              Q.mult[np.ix_(images[rows], images[d])]):
            return False, None, False
    kernel = tuple(int(x) for x in d[images[d] == 0])
    surjective = len(np.unique(images[d])) == Q.order
    return True, kernel, surjective


def classify_potency(F: Filtration, p: int, horizon: int) -> PotencyReport:
    """Report p-potency, strong and uniform p-potency of F up to a horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not F.is_central_p(p):
        raise ValueError("classify_potency needs a complete central p-filtration")
    G = F.group
    rep = PotencyReport(p=p, horizon=horizon)
    for n in range(1, horizon + 1):
        ok, ker, surj = _induced_power_map(G, F.term(1), p ** n,
                                           F.term(n + 1), F.term(n + 2))
        matches = ok and ker == F.term(2).elems
        rep.plain.append(PotencyLevel(n, ok, ker, matches,
                                      phi_injective=matches,
                                      phi_bijective=matches and surj))
        ok, ker, surj = _induced_power_map(G, F.term(n), p,
                                           F.term(n + 1), F.term(n + 2))
        matches = ok and ker == F.term(n + 1).elems
        rep.strong.append(PotencyLevel(n, ok, ker, matches,
                                       phi_injective=matches,
                                       phi_bijective=matches and surj))
    return rep
