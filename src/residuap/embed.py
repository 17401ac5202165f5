"""Embedding constructions for finite p-groups: fiber sums, amalgamation of
filtered p-groups into wreath towers, extension of partial automorphisms to
inner automorphisms, and mapping-torus criteria.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernels
from .algebra import WreathProduct, wreath
from .filtration import (Filtration, align_filtrations, aligned_slots,
                         central_p_step, chief_series, induced_chain,
                         is_stretching, lower_central_p_series)
from .groups import (DEFAULT_ORDER_CAP, CapExceeded, FiniteGroup,
                     Homomorphism, Steps, Subgroup, all_subgroups,
                     amalgamated_sum, automorphism_search, automorphisms,
                     find_isomorphism, full_subgroup, generating_sequence,
                     identity_hom, induced_hom, is_p_power,
                     permutation_closure, permutation_group, quotient,
                     right_coset_reps, semidirect_product, trivial_group,
                     trivial_subgroup)
from .results import NO, UNKNOWN, YES, Decision

# amalgam_scan: the largest |U| scanned, and the largest |U| for which every
# isomorphism U_G -> U_H is listed (above it, only the first found)
SCAN_MAX_U = 8
SCAN_ALL_ISO_UPTO = 4


@dataclass
class Amalgam:
    """Two groups with a common subgroup realized by explicit embeddings."""
    G: FiniteGroup
    H: FiniteGroup
    U: FiniteGroup
    uG: Homomorphism
    uH: Homomorphism

    def __post_init__(self):
        if self.uG.dom is not self.U or self.uH.dom is not self.U:
            raise ValueError("amalgam embeddings must start at U")
        if self.uG.cod is not self.G or self.uH.cod is not self.H:
            raise ValueError("amalgam embeddings must land in G and H")
        if not (self.uG.is_injective() and self.uH.is_injective()):
            raise ValueError("amalgam embeddings must be injective")


@dataclass
class StrongEmbedding:
    """A verified strong embedding of an amalgam into W."""
    W: FiniteGroup
    alpha: Homomorphism
    beta: Homomorphism

    def verify(self, am: Amalgam) -> None:
        if not self.alpha.is_injective():
            raise AssertionError("alpha is not injective")
        if not self.beta.is_injective():
            raise AssertionError("beta is not injective")
        for u in range(am.U.order):
            if self.alpha(am.uG(u)) != self.beta(am.uH(u)):
                raise AssertionError("alpha and beta disagree on U")
        ia = {int(self.alpha.map[g]) for g in range(am.G.order)}
        ib = {int(self.beta.map[h]) for h in range(am.H.order)}
        iu = {int(self.alpha.map[am.uG(u)]) for u in range(am.U.order)}
        if ia & ib != iu:
            raise AssertionError("images do not intersect exactly in U")


# -- fiber sums -----------------------------------------------------------------

def fiber_sum(A: FiniteGroup, B: FiniteGroup, phi: Homomorphism,
              psi: Homomorphism):
    """(A + B) / {phi(u) - psi(u)} for injective phi: U -> A, psi: U -> B.

    Returns (S, iota_A, iota_B); the canonical maps are verified injective and
    their images intersect exactly in the image of U.
    """
    if not (A.is_abelian and B.is_abelian):
        raise ValueError("fiber sums need abelian inputs")
    if phi.cod is not A or psi.cod is not B or phi.dom is not psi.dom:
        raise ValueError("mismatched fiber sum data")
    if not (phi.is_injective() and psi.is_injective()):
        raise ValueError("fiber sum identifications must be injective")
    U = phi.dom
    S, iota_A, iota_B = amalgamated_sum(
        A, B, [(phi(u), psi(u)) for u in range(U.order)])
    StrongEmbedding(S, iota_A, iota_B).verify(Amalgam(A, B, U, phi, psi))
    return S, iota_A, iota_B


# -- the amalgamation tower ------------------------------------------------------

@dataclass
class HigmanResult:
    embedding: StrongEmbedding
    FW: Filtration


def predicted_higman_order(am: Amalgam, FG: Filtration, FH: Filtration) -> int:
    """Predicted |W| for the wreath tower, computed on term orders only.
    Raises AlignmentError exactly when align_filtrations(FG, FH, uG, uH)
    does: that is decided on the induced chains as element tuples."""
    if am.uG.is_surjective() and am.uH.is_surjective():
        return am.G.order
    cG, cH = induced_chain(FG, am.uG), induced_chain(FH, am.uH)
    return _aligned_prediction([len(T) for T in FG.terms],
                               [len(T) for T in FH.terms],
                               [len(c) for c in cG], aligned_slots(cG, cH))


def _aligned_prediction(iG: list[int], iH: list[int], cG: list[int],
                        slots: list[tuple[int, int]]) -> int:
    """_predict on the aligned filtrations, from the orders iG and iH of the
    terms of FG and FH, the orders cG of their intersections with U on the
    G side, and the aligned_slots of the two."""
    return _predict([iG[j - 1] for j, _ in slots],
                    [iH[j - 1] for _, j in slots],
                    [cG[j - 1] for j, _ in slots])


def _term_of(sizes: list[int], n: int) -> int:
    return sizes[min(n, len(sizes)) - 1]


def _length_of(sizes: list[int]) -> int:
    if sizes[-1] != 1:
        return len(sizes)     # conservative; trailing convention
    n = len(sizes)
    while n >= 2 and sizes[n - 2] == 1:
        n -= 1
    return n - 1


PREDICTION_CEILING = 1 << 62


def _predict(iG: list[int], iH: list[int], cU: list[int]) -> int:
    """Tower-order prediction, clamped: the true value is doubly exponential
    in the chain length, so anything past the ceiling is reported as the
    ceiling (every cap in use is far below it)."""
    lG, lH = _length_of(iG), _length_of(iH)
    if lG == 0 and lH == 0:
        return 1
    n = max(lG, lH, 1)
    x, y, v = _term_of(iG, n), _term_of(iH, n), _term_of(cU, n)
    t = x * y // v
    k = _predict([max(o // x, 1) for o in iG[:n]] + [1],
                 [max(o // y, 1) for o in iH[:n]] + [1],
                 [max(o // v, 1) for o in cU[:n]] + [1])
    if k >= PREDICTION_CEILING:
        return PREDICTION_CEILING
    if t > 1 and k * max(t.bit_length() - 1, 1) >= 63:
        return PREDICTION_CEILING
    size = (t ** k) * k
    return min(size, PREDICTION_CEILING)


def higman_embed(am: Amalgam, FG: Filtration, FH: Filtration,
                 cap: int = DEFAULT_ORDER_CAP, verify: bool = True) -> HigmanResult:
    """Strong embedding of a p-group amalgam into a p-group W, with a central
    p-filtration of W inducing compatible stretchings of the inputs.

    The construction is the layerwise wreath-tower recursion: the base case
    is the fiber sum of elementary abelian groups, the inductive step embeds
    the factor amalgam into K, forms W = T wr K with T the fiber sum of the
    last terms, and uses matched standard embeddings built from a shared
    countermap on U.  The predicted order of W is checked against `cap`,
    or DEFAULT_ORDER_CAP when that is less, before anything is built, and
    all output conditions are re-verified.
    """
    p = am.G.prime() or am.H.prime() or 2
    if not (am.G.is_p_group(p) and am.H.is_p_group(p) and am.U.is_p_group(p)):
        raise ValueError("amalgam groups must be p-groups for one prime")
    if FG.length() is None or FH.length() is None:
        raise ValueError("filtrations must have finite length")
    if not (FG.is_central_p(p) and FH.is_central_p(p)):
        raise ValueError("filtrations must be central p-filtrations")
    predicted = predicted_higman_order(am, FG, FH)
    cap = min(cap, DEFAULT_ORDER_CAP)
    if predicted > cap:
        # the ceiling is a clamp, so it is shown as the bound it is
        shown = (f"≥ 2^{PREDICTION_CEILING.bit_length() - 1}"
                 if predicted == PREDICTION_CEILING
                 else f"= {predicted}")
        raise CapExceeded(f"predicted |W| {shown} exceeds cap {cap}")
    FGs, FHs = align_filtrations(FG, FH, am.uG, am.uH)
    W, alpha, beta, FW = _higman_rec(am.G, am.H, am.U, am.uG, am.uH,
                                     FGs, FHs, p, cap)
    res = HigmanResult(StrongEmbedding(W, alpha, beta), FW)
    if verify:
        verify_higman(am, FG, FH, res, p)
    return res


def _higman_rec(G, H, U, uG, uH, FG, FH, p, cap):
    """Recursive tower step; filtrations must intersect to the same chain on U.

    Returns (W, alpha, beta, FW).
    """
    if G.order == 1 and H.order == 1:
        W = trivial_group()
        hom = Homomorphism(G, W, [0], check=False)
        return (W, hom, Homomorphism(H, W, [0], check=False),
                Filtration(W, [full_subgroup(W)], check=False))
    # identical amalgam shortcut: U = G = H via the embeddings
    if uG.is_surjective() and uH.is_surjective():
        beta_map = [0] * H.order
        for u in range(U.order):
            beta_map[int(uH.map[u])] = int(uG.map[u])
        beta = Homomorphism(H, G, beta_map)
        return G, identity_hom(G), beta, FG
    nG = FG.length()
    nH = FH.length()
    n = max(nG, nH, 1)
    X = FG.term(n)
    Y = FH.term(n)
    Vu = [u for u in range(U.order) if uG(u) in X]
    Vu_h = [u for u in range(U.order) if uH(u) in Y]
    if Vu != Vu_h:
        raise AssertionError("filtrations lost alignment at the last level")
    # elementary abelian central last terms
    _check_central_elab(G, X, p)
    _check_central_elab(H, Y, p)
    Xg, toX, fromX = X.as_group()
    Yg, toY, fromY = Y.as_group()
    Vsub_U = Subgroup(U, Vu, check=False)
    Vg, toV, fromV = Vsub_U.as_group()
    phi = Homomorphism(Vg, Xg, [fromX[uG(toV[i])] for i in range(Vg.order)])
    psi = Homomorphism(Vg, Yg, [fromY[uH(toV[i])] for i in range(Vg.order)])
    T, iX, iY = fiber_sum(Xg, Yg, phi, psi)
    # factor amalgam
    Gq, projG = quotient(G, X)
    Hq, projH = quotient(H, Y)
    Uq, projU = quotient(U, Vsub_U)
    uGq = induced_hom(uG, projU, projG)
    uHq = induced_hom(uH, projU, projH)
    if not (uGq.is_injective() and uHq.is_injective()):
        raise AssertionError("induced embedding on the factor amalgam "
                             "not injective")
    FGq = Filtration(Gq, [_push_subgroup(projG, FG.term(i)) for i in range(1, n + 1)],
                     check=False)
    FHq = Filtration(Hq, [_push_subgroup(projH, FH.term(i)) for i in range(1, n + 1)],
                     check=False)
    K, abar, bbar, FK = _higman_rec(Gq, Hq, Uq, uGq, uHq, FGq, FHq, p, cap)
    theta = abar.compose(projG)
    phiH = bbar.compose(projH)
    wp = wreath(T, K, cap=cap)
    alpha = _tower_embedding(G, uG, theta, wp, X, iX, fromX, K)
    betaH = _tower_embedding(H, uH, phiH, wp, Y, iY, fromY, K)
    return wp.group, alpha, betaH, _tower_filtration(wp, FK, p)


def _check_central_elab(G: FiniteGroup, X: Subgroup, p: int):
    if kernels.powers(G.mult, X.elems, p) != [0]:
        raise AssertionError("last filtration term is not exponent p")
    if set(kernels.commutators(G.mult, G.inv, generating_sequence(G), X.elems)) - {0}:
        raise AssertionError("last filtration term is not central")


def _push_subgroup(proj: Homomorphism, sub: Subgroup) -> Subgroup:
    return Subgroup(proj.cod, sorted({int(proj.map[x]) for x in sub.elems}),
                    check=False)


def _tower_embedding(G, u_emb, theta, wp: WreathProduct, X: Subgroup,
                     iX: Homomorphism, fromX, K: FiniteGroup) -> Homomorphism:
    """Standard embedding G -> T wr K from the shared countermap on U.

    theta: G -> K has kernel X; u_emb: U -> G; iX embeds X's group into T.
    """
    # countermap for theta|U: minimal U-index preimage per value, minimal
    # right coset representatives; both choices are shared by the two sides
    thetaU_img, pre_u = np.unique(theta.map[u_emb.map], return_index=True)
    min_pre_u = dict(zip(thetaU_img.tolist(), pre_u.tolist()))
    repU = right_coset_reps(K, thetaU_img)
    counter_u = {}
    for k in range(K.order):
        s = repU[k]
        v = int(K.mult[k, K.inverse(s)])
        counter_u[k] = u_emb(min_pre_u[v])
    # per right-coset-of-theta(G) correction mu, constant on theta(U)-cosets
    img_g, pre_g = np.unique(theta.map, return_index=True)
    min_pre_g = dict(zip(img_g.tolist(), pre_g.tolist()))
    repG = right_coset_reps(K, img_g)
    mu = {}
    for k in range(K.order):
        c_big = repG[k]          # minimal element of the theta(G)-coset
        c_small = repU[k]        # minimal element of the theta(U)-coset
        anchor = repU[c_big]     # theta(U)-coset rep of the G-coset minimum
        ratio = int(K.mult[c_small, K.inverse(anchor)])
        if ratio not in min_pre_g:
            raise AssertionError("coset correction leaves theta(G)")
        mu[c_small] = min_pre_g[ratio]
    counter1 = {k: G.mul(counter_u[k], mu[repU[k]]) for k in range(K.order)}
    rows = []
    xset = X._set
    for g in range(G.order):
        top = int(theta.map[g])
        digits = [0] * K.order
        for k in range(K.order):
            tk = int(K.mult[top, k])
            val = G.word([G.inverse(counter1[tk]), g, counter1[k]])
            if val not in xset:
                raise AssertionError("countermap defect: value outside the kernel")
            digits[k] = int(iX.map[fromX[val]])
        rows.append(wp.index_of(top, digits))
    hom = Homomorphism(G, wp.group, rows)
    if not hom.is_injective():
        raise AssertionError("tower embedding is not injective")
    return hom


def _tower_filtration(wp: WreathProduct, FK: Filtration, p: int) -> Filtration:
    """W_i = K_i T^K for i <= m, then T^K ^ gamma^p_i(W)."""
    W = wp.group
    K = wp.H
    nbase = wp.X.order ** K.order
    m = FK.length()
    terms = []
    for i in range(1, m + 1):
        ki = FK.term(i).elems
        elems = sorted(top * nbase + b for top in ki for b in range(nbase))
        terms.append(Subgroup(W, elems, check=False))
    gp = lower_central_p_series(W, p)
    base = set(range(nbase))
    l = gp.length()
    if l is None:
        raise AssertionError("wreath tower is not a p-group")
    for i in range(1, l + 1):
        elems = sorted(set(gp.term(i).elems) & base)
        terms.append(Subgroup(W, elems, check=False))
    if not terms or not terms[-1].is_trivial():
        terms.append(trivial_subgroup(W))
    return Filtration(W, terms, check=False)


def verify_higman(am: Amalgam, FG: Filtration, FH: Filtration,
                  res: HigmanResult, p: int) -> None:
    """Re-check every contract of the amalgamation output from scratch."""
    res.embedding.verify(am)
    W = res.embedding.W
    if not W.is_p_group(p):
        raise AssertionError("W is not a p-group")
    FW = res.FW
    if FW.length() is None or not FW.is_central_p(p):
        raise AssertionError("W filtration is not central-p of finite length")
    # (A1): the W filtration pulls back to stretchings of the inputs
    alpha, beta = res.embedding.alpha, res.embedding.beta
    pullG = [tuple(np.flatnonzero(np.isin(alpha.map, T.elems)).tolist())
             for T in FW.terms]
    pullH = [tuple(np.flatnonzero(np.isin(beta.map, T.elems)).tolist())
             for T in FW.terms]
    if not is_stretching(pullG, FG):
        raise AssertionError("(A1) fails on G")
    if not is_stretching(pullH, FH):
        raise AssertionError("(A1) fails on H")
    # (A2): layers of the pullbacks meet exactly in the U layer inside L_i(W)
    for i, (gi, hi) in enumerate(zip(pullG, pullH), start=1):
        wnext = FW.term(i + 1)._set
        gset = set(gi)
        ui = [u for u in range(am.U.order) if am.uG(u) in gset]
        for g in gi:
            for h in hi:
                d = W.mul(int(alpha.map[g]), W.inverse(int(beta.map[h])))
                if d not in wnext:
                    continue
                hit = any(W.mul(int(alpha.map[g]),
                                W.inverse(int(alpha.map[am.uG(u)]))) in wnext
                          for u in ui)
                if not hit:
                    raise AssertionError(f"(A2) fails at level {i}")


# -- search over chief filtrations ------------------------------------------------

def _prime_factor_count(n: int) -> int:
    """The number of prime factors of n, counted with multiplicity."""
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


@functools.cache
def _field_shifts(n: int) -> np.ndarray:
    """shift[s] = n·Ω(n/s) for each divisor s of n, else 0: the bit at which
    a trace key holds the mask of a term that meets U (|U| = n) in s
    elements."""
    shifts = np.array([n * _prime_factor_count(n // s) if s and n % s == 0
                       else 0 for s in range(n + 1)], dtype=np.int64)
    shifts.flags.writeable = False
    return shifts


def _chain_tracer(G: FiniteGroup, chains: Sequence[Sequence[Subgroup]]):
    """A function E -> the chains that the descending chains of G induce on
    U, for a (k, |U|) block E of injective maps U -> G given as index rows.

    Term T gives the bitmask of {u : E[j, u] in T}.  The terms of a chain
    are nested, so its distinct masks have distinct sizes s, and the chain
    it induces on U is the list of these masks by decreasing size.  A key
    packs that list into one integer: the mask of size s at bit |U|·Ω(|U|/s)
    (Ω counts prime factors with multiplicity; log_p(|U|/s) for a p-group,
    which is the mask's position when every term has index p in the one
    before), OR-ed over the chain, so repeated masks fall on themselves.
    The result is a (chains, k) array of keys; two chains induce the same
    filtration on U through E[j] exactly when their keys in column j are
    equal.  Keys are int64 while |U|·(Ω(|U|) + 1) < 63 and Python ints
    above that.  The 0/1 membership matrix of the distinct terms is built
    once, with one zero row that pads the shorter chains; its mask 0 adds
    nothing, and no term gives mask 0, since every term holds the identity.
    """
    rows: dict[tuple[int, ...], int] = {}
    chain_rows = [[rows.setdefault(t.elems, len(rows)) for t in chain]
                  for chain in chains]
    pad = len(rows)
    member = np.zeros((pad + 1, G.order), dtype=np.int64)
    member[[r for elems, r in rows.items() for _ in elems],
           [g for elems in rows for g in elems]] = 1
    width = max(map(len, chain_rows), default=0)
    index = np.array([r + [pad] * (width - len(r)) for r in chain_rows],
                     dtype=np.int64).reshape(len(chain_rows), width)

    def trace(E: np.ndarray) -> np.ndarray:
        n = E.shape[1]
        # int64 holds a mask of at most 62 bits; Python ints hold any
        bits = (1 << np.arange(n, dtype=np.int64) if n < 63
                else np.array([1 << u for u in range(n)], dtype=object))
        inside = member[:, E]                          # (terms, k, |U|)
        masks = inside @ bits
        shifts = _field_shifts(n)[inside.sum(axis=2)]
        if n * (_prime_factor_count(n) + 1) >= 63:
            masks, shifts = masks.astype(object), shifts.astype(object)
        return np.bitwise_or.reduce((masks << shifts)[index], axis=1)

    return trace


def chief_tracer(G: FiniteGroup):
    """_chain_tracer(G, chief_series(G)), built once and kept with G."""
    if G._chief_tracer is None:
        G._chief_tracer = _chain_tracer(G, chief_series(G))
    return G._chief_tracer


def amalgam_embeddable(am: Amalgam) -> Decision:
    """Search chief filtrations of G and H (up to stretching) for a pair
    inducing the same filtration on U; exhaustive, so absence is definitive."""
    p = am.G.prime()
    q = am.H.prime()
    if p is None and am.G.order > 1 or q is None and am.H.order > 1 or \
            (p and q and p != q):
        raise ValueError("amalgam_embeddable expects p-groups for one prime")
    sG = chief_series(am.G)
    sH = chief_series(am.H)
    keysG, keysH = (chief_tracer(X)(u.map[None])[:, 0].tolist()
                    for X, u in ((am.G, am.uG), (am.H, am.uH)))
    h_by_trace: dict[int, tuple] = {}
    for tr, ser in zip(keysH, sH):
        h_by_trace.setdefault(tr, ser)
    for tr, ser in zip(keysG, sG):
        if tr in h_by_trace:
            return Decision(YES, certificate=(ser, h_by_trace[tr]))
    return Decision(NO, reason="no chief filtrations induce the same chain on U")


def _central_p_subchains(G: FiniteGroup, series: Sequence[Subgroup], p: int):
    """Central p-filtrations obtained by deleting interior terms of a chief
    series; Filtration.is_central_p's test, from one central_p_step per term."""
    if len(series[0]) != G.order:
        return []
    step = [central_p_step(G, T, p) for T in series]
    last = len(series) - 1
    interior = range(1, last)
    out = []
    for r in range(len(interior) + 1):
        for keep in itertools.combinations(interior, r):
            idx = [0, *keep, last]
            # is_central_p also tests the last term against itself, which a
            # normal subgroup always passes
            if all(step[a] <= series[b]._set for a, b in zip(idx, idx[1:])):
                out.append(Filtration(G, [series[i] for i in idx],
                                      check=False))
    return out


def feasible_witness(am: Amalgam, witness, p: int, cap: int = DEFAULT_ORDER_CAP):
    """Cheapest aligned central-p pair derived from a chief witness pair.

    Scans subchains of the witness chief series (still inducing equal chains
    on U) and returns (FG, FH, predicted) minimizing the predicted tower
    order, or None when every candidate exceeds the cap.
    """
    def candidates(G, series, u):
        # per subchain: the filtration, its induced chain on U as distinct
        # sorted U-index tuples, its term orders and their intersection orders
        image = {g: x for x, g in enumerate(u.map.tolist())}
        meet = {T.elems: tuple(sorted(image[g] for g in T.elems if g in image))
                for T in series}
        out = []
        for F in _central_p_subchains(G, series, p):
            chain = [meet[T.elems] for T in F.terms]
            out.append((F, list(dict.fromkeys(chain)),
                        [len(T) for T in F.terms], [len(c) for c in chain]))
        return out

    serG, serH = witness
    identical = am.uG.is_surjective() and am.uH.is_surjective()
    subH = candidates(am.H, serH, am.uH)
    best = None
    for FG, trG, iG, cG in candidates(am.G, serG, am.uG):
        for FH, trH, iH, cH in subH:
            if trG != trH:
                continue
            # the pair matched on element tuples; along the nested chains
            # the runs of equal intersections are the runs of equal orders
            pred = am.G.order if identical else _aligned_prediction(
                iG, iH, cG, aligned_slots(cG, cH))
            if pred <= cap and (best is None or pred < best[2]):
                best = (FG, FH, pred)
    return best


# -- elementary abelian coordinates and flags --------------------------------------

class ElabSpace:
    """Coordinates on an elementary abelian p-group: indices <-> F_p^d vectors.

    The basis is chosen greedily, each time the least index not yet spanned.
    ``coords[g]`` is the coordinate row of g, and ``index[code]`` the element
    whose row has the base-p code sum_i c_i p^i.  Linear maps act on rows:
    ``perm(M)`` is v -> vM.
    """

    def __init__(self, V: FiniteGroup):
        p = V.prime()
        if not V.is_elementary_abelian():
            raise ValueError("not a p-group" if p is None else "not elementary abelian")
        self.V = V
        self.p = p = p if p is not None else 2
        basis = []
        span = np.zeros(1, dtype=np.int64)      # spanned elements, row by row
        rows = np.zeros((1, 0), dtype=np.int64)
        while len(span) < V.order:
            spanned = np.zeros(V.order, dtype=bool)
            spanned[span] = True
            x = int(np.argmin(spanned))
            basis.append(x)
            layers = [span]
            for _ in range(1, p):
                layers.append(V.mult[layers[-1], x])
            span = np.concatenate(layers)
            rows = np.vstack([np.column_stack([rows, np.full(len(rows), e)])
                              for e in range(p)])
        self.basis = basis
        self.dim = d = len(basis)
        self.coords = np.zeros((V.order, d), dtype=np.int64)
        self.coords[span] = rows
        self._weights = p ** np.arange(d, dtype=np.int64)
        self.index = np.zeros(V.order, dtype=np.int64)
        self.index[rows @ self._weights] = span

    def vec(self, g: int) -> tuple[int, ...]:
        return tuple(self.coords[g].tolist())

    def subspace_elems(self, vectors) -> list[int]:
        """All elements in the span of at most d coordinate vectors."""
        p, k = self.p, len(vectors)
        if k > self.dim:
            raise ValueError("more vectors than the dimension")
        rows = np.array([[int(x) % p for x in v] for v in vectors],
                        dtype=np.int64).reshape(k, self.dim)
        coeffs = np.indices((p,) * k).reshape(k, p ** k).T     # all of F_p^k
        return np.unique(self.index[coeffs @ rows % p @ self._weights]).tolist()

    def perm(self, M) -> np.ndarray:
        """The linear map v -> vM as a permutation of V's element indices."""
        M = np.asarray(M, dtype=np.int64).reshape(self.dim, self.dim)
        return self.index[self.coords @ M % self.p @ self._weights]

    def inverse(self, B) -> np.ndarray:
        """B^-1 over F_p for an invertible d x d matrix: one reduction of
        [B | I], which is [I | B^-1] exactly when B is invertible."""
        d = self.dim
        eye = np.eye(d, dtype=np.int64)
        aug = np.hstack([np.asarray(B, dtype=np.int64).reshape(d, d), eye])
        red = np.array(kernels.rref_mod_p(aug, self.p),
                       dtype=np.int64).reshape(d, 2 * d)
        if not np.array_equal(red[:, :d], eye):
            raise AssertionError("singular basis matrix")
        return red[:, d:]

    def unit_completion(self, rows) -> list[int]:
        """The least-index greedy completion of the span of rows: e_j is taken
        when it lies outside the span of the rows and of the e_i taken before.

        That happens exactly when no vector of the span has its last nonzero
        coordinate at j, so one reduction of the rows with their columns
        reversed finds them all."""
        d = self.dim
        rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), d)
        red = kernels.rref_mod_p(rows[:, ::-1], self.p)
        last = {d - 1 - r.index(1) for r in red}
        return [j for j in range(d) if j not in last]

    def linear_extension(self, src, dst) -> np.ndarray:
        """The d x d matrix M with sM = t for the row pairs (s, t) of src and
        dst, fixing each e_j of the unit completion of src's span.

        [src | dst] is reduced once; a reduced row with zero src part means
        the pairs do not come from a linear map."""
        p, d = self.p, self.dim
        pairs = np.hstack([np.asarray(src, dtype=np.int64).reshape(len(src), d),
                           np.asarray(dst, dtype=np.int64).reshape(len(dst), d)])
        red = kernels.rref_mod_p(pairs, p)
        red = np.array(red, dtype=np.int64).reshape(len(red), 2 * d)
        if not red[:, :d].any(axis=1).all():
            raise AssertionError("inconsistent linear extension")
        unit = np.eye(d, dtype=np.int64)[self.unit_completion(red[:, :d])]
        S, T = np.vstack([red[:, :d], unit]), np.vstack([red[:, d:], unit])
        return self.inverse(S) @ T % p


@dataclass
class PartialAutomorphism:
    """An isomorphism between subgroups A -> B of one group, as an index map."""
    group: FiniteGroup
    A: Subgroup
    B: Subgroup
    mapping: dict[int, int]      # parent index -> parent index

    def __post_init__(self):
        if set(self.mapping) != self.A._set or \
                set(self.mapping.values()) != self.B._set:
            raise ValueError("partial automorphism must biject A onto B")
        t = self.group.mult
        for a in self.A.elems:
            for b in self.A.elems:
                if self.mapping[int(t[a, b])] != t[self.mapping[a], self.mapping[b]]:
                    raise ValueError("partial automorphism is not a morphism")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def preserves(self, upper, lower=None) -> bool:
        """Whether phi maps A & upper onto B & upper and, when lower is
        given, phi(a) a^-1 lies in lower for every a in A & upper."""
        au = [a for a in self.A.elems if a in upper]
        if sorted(self.mapping[a] for a in au) != \
                [b for b in self.B.elems if b in upper]:
            return False
        G = self.group
        return lower is None or all(
            G.mul(self.mapping[a], G.inverse(a)) in lower for a in au)

    def preserves_chain(self, chain) -> bool:
        """preserves(upper, lower) for each consecutive pair of chain: phi
        keeps every term and acts trivially on every layer."""
        return all(self.preserves(upper, lower)
                   for upper, lower in zip(chain, chain[1:]))


@dataclass
class FlagCertificate:
    """An adapted basis v_1..v_d (ascending flag = spans of prefixes) together
    with upper-unitriangular extensions of the partial automorphisms.

    Flag coordinates of v are vB^-1 for the basis matrix B; each matrix sends
    the flag coordinate column c to (matrix) c."""
    space: ElabSpace
    basis: tuple[tuple[int, ...], ...]
    matrices: tuple             # one unitriangular matrix per partial automorphism

    def verify(self, pas: Sequence[PartialAutomorphism]) -> None:
        p, d = self.space.p, self.space.dim
        for mat, perm, phi in zip(self.matrices, self.perms(), pas):
            mat = np.asarray(mat, dtype=np.int64).reshape(d, d) % p
            if (np.diag(mat) != 1).any():
                raise AssertionError("diagonal entry not 1")
            if np.tril(mat, -1).any():
                raise AssertionError("matrix not upper unitriangular")
            if any(int(perm[a]) != phi(a) for a in phi.A.elems):
                raise AssertionError("extension does not restrict to phi")

    @cached_property
    def basis_inverse(self) -> np.ndarray:
        """B^-1, computed once per certificate."""
        return self.space.inverse(self.basis)

    def perms(self) -> list[np.ndarray]:
        """Each matrix as a permutation of V's element indices: in coordinate
        rows it is v -> v B^-1 (matrix)^T B."""
        d = self.space.dim
        B = np.asarray(self.basis, dtype=np.int64).reshape(d, d)
        return [self.space.perm(self.basis_inverse @ np.asarray(
                    mat, dtype=np.int64).reshape(d, d).T @ B)
                for mat in self.matrices]


def _hyperplanes(space: ElabSpace, term: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The hyperplanes of the subspace term, each a sorted element tuple, in
    sorted order.

    With E the reduced echelon basis of term, they are the kernels of the
    functionals f with first nonzero coefficient f_i = 1, and such a kernel
    is spanned by the E_j with j < i and the E_j - f_j E_i with j > i."""
    E = np.array(kernels.rref_mod_p(space.coords[list(term)], space.p),
                 dtype=np.int64)
    k = len(E)
    return sorted(tuple(space.subspace_elems(
                      np.vstack([E[:i], E[i + 1:] - np.outer(f, E[i])])))
                  for i in range(k)
                  for f in itertools.product(range(space.p), repeat=k - 1 - i))


def unipotent_flag_extend(V: FiniteGroup,
                          pas: Sequence[PartialAutomorphism]) -> Decision:
    """A complete flag invariant under every partial automorphism with trivial
    layer action, plus unitriangular extensions; exhaustive, so 'no' is proof.
    A step of the search is one element of a hyperplane tried; past
    SEARCH_STEP_CAP steps the answer is unknown.
    """
    space = ElabSpace(V)
    for phi in pas:
        if phi.group is not V:
            raise ValueError("partial automorphisms must live on V")
    dead: set[tuple[int, ...]] = set()     # terms that no invariant flag passes
    steps = Steps("flag search")

    def descend(chain: list[tuple]):
        """The first invariant complete flag that continues chain, or None."""
        cur = chain[-1]
        if len(cur) == 1:
            return chain
        cur_set = set(cur)
        for nxt in _hyperplanes(space, cur):
            steps.take(len(nxt))
            if nxt not in dead and all(phi.preserves(cur_set, set(nxt))
                                       for phi in pas):
                flag = descend(chain + [nxt])
                if flag is not None:
                    return flag
        dead.add(cur)
        return None

    try:
        found = descend([tuple(range(V.order))])
    except CapExceeded as exc:
        return Decision(UNKNOWN, reason=str(exc))
    if found is None:
        return Decision(NO, reason="no invariant flag with trivial layer action")
    # adapted basis: v_1 spans the last nontrivial flag term, etc.
    flag = found                      # descending: V = F[0] > F[1] > ... > {0}
    basis_vecs = []
    picked = {0}
    for term in reversed(flag[:-1]):
        cand = min(x for x in term if x not in picked)
        basis_vecs.append(space.vec(cand))
        picked = set(space.subspace_elems(basis_vecs))
    cert = FlagCertificate(space, tuple(basis_vecs), ())
    cert.matrices = tuple(_extend_in_flag(cert, phi) for phi in pas)
    cert.verify(pas)
    return Decision(YES, certificate=cert)


def _extend_in_flag(cert: FlagCertificate, phi: PartialAutomorphism):
    """Extend phi to an upper-unitriangular matrix in the adapted basis.

    In flag coordinates the extension equals phi on A and fixes the
    least-index unit directions that complete A; the matrix holds the image
    of e_j in its column j.
    """
    coords, inv = cert.space.coords, cert.basis_inverse
    M = cert.space.linear_extension(coords[list(phi.A.elems)] @ inv,
                                    coords[[phi(a) for a in phi.A.elems]] @ inv)
    return tuple(tuple(row) for row in M.T.tolist())


# -- inner extensions ----------------------------------------------------------------

@dataclass
class InnerExtension:
    """A p-group Hp >= G with conjugators realizing the partial automorphisms."""
    Hp: FiniteGroup
    embedding: Homomorphism      # G -> Hp
    conjugators: tuple[int, ...]

    def verify(self, G: FiniteGroup, pas: Sequence[PartialAutomorphism], p: int):
        if not self.Hp.is_p_group(p):
            raise AssertionError("Hp is not a p-group")
        if not self.embedding.is_injective():
            raise AssertionError("embedding is not injective")
        for t, phi in zip(self.conjugators, pas):
            for a in phi.A.elems:
                lhs = self.Hp.conj(t, self.embedding(a))
                if lhs != self.embedding(phi(a)):
                    raise AssertionError("conjugator does not realize phi")


def inner_extension(G: FiniteGroup, pas: Sequence[PartialAutomorphism],
                    size_cap: int = DEFAULT_ORDER_CAP) -> Decision:
    """A p-group Hp >= G in which every phi_i becomes inner, or a proof of
    absence, or unknown-at-depth.

    Elementary abelian G goes through the complete flag search; general
    p-groups search chief filtrations for the invariance criterion and then
    try to realize extensions inside Aut(G) acting trivially on the layers.
    """
    p = G.prime()
    if p is None and G.order > 1:
        raise ValueError("G must be a p-group")
    if p is None:
        p = 2
    if all(phi(a) == a for phi in pas for a in phi.A.elems):
        # identity partial automorphisms: G itself works with trivial conjugators
        dec = Decision(YES, certificate=InnerExtension(
            G, identity_hom(G), tuple(0 for _ in pas)))
        dec.certificate.verify(G, pas, p)
        return dec
    if G.is_elementary_abelian():
        flag = unipotent_flag_extend(G, pas)
        if flag.is_no:
            return Decision(NO, reason=flag.reason)
        if flag.status == UNKNOWN:
            return flag
        return _realize_semidirect(G, pas, flag.certificate.perms(), p, size_cap)
    # general p-group: chief filtrations satisfying the invariance criterion
    witness = None
    for ser in chief_series(G):
        if all(phi.preserves_chain(ser) for phi in pas):
            witness = ser
            break
    if witness is None:
        return Decision(NO, reason="no invariant chief filtration with "
                                   "trivial layer action")
    return _extend_in_stabilizer(G, pas, witness, p, size_cap,
                                 "no layer-trivial extension of a partial "
                                 "automorphism in Aut(G)")


def _extend_in_stabilizer(G, pas, series, p, size_cap, missing: str) -> Decision:
    """Extend each phi by the first automorphism of G (in lexicographic
    order) that restricts to phi and, as a partial automorphism on all of G,
    preserves the chain series; then realize the extensions.  Unknown with
    reason ``missing`` when some phi has none."""
    full = full_subgroup(G)
    perms = []
    for phi in pas:
        try:
            found = next((a for a in automorphism_search(G, phi.mapping)
                          if PartialAutomorphism(G, full, full, dict(
                              enumerate(a.tolist()))).preserves_chain(series)),
                         None)
        except CapExceeded as exc:
            return Decision(UNKNOWN, reason=str(exc))
        if found is None:
            return Decision(UNKNOWN, reason=missing)
        perms.append(found)
    return _realize_semidirect(G, pas, perms, p, size_cap)


def _realize_semidirect(G, pas, perms, p, size_cap) -> Decision:
    """Hp = G x| <perms>, with conjugators the chosen automorphisms."""
    closure = permutation_closure(G, perms)
    if len(closure) * G.order > size_cap:
        return Decision(UNKNOWN, reason="semidirect product beyond size cap")
    if not is_p_power(len(closure), p):
        # other extension choices might still work, so this is not a proof
        return Decision(UNKNOWN, reason="chosen extensions generate a non-p group")
    A, action, index = permutation_group(G, closure)
    Hp, eG, eA = semidirect_product(G, A, action)
    conj = tuple(int(eA.map[index[tuple(int(x) for x in q)]]) for q in perms)
    cert = InnerExtension(Hp, eG, conj)
    cert.verify(G, pas, p)
    return Decision(YES, certificate=cert)


def layerwise_inner_extension(G: FiniteGroup, F: Filtration,
                              pas: Sequence[PartialAutomorphism],
                              size_cap: int = DEFAULT_ORDER_CAP) -> Decision:
    """Assemble per-layer flag certificates along a phi-invariant central
    filtration into a global inner-extension certificate.

    Elementary abelian G goes to inner_extension, whose flag search covers
    every flag.  Otherwise each layer must be elementary abelian (true for
    central p-filtrations); a layer refutation propagates to a definite 'no'
    only when the layer search is complete, otherwise 'unknown'.  The chain
    of lifted flags is realized in the automorphisms of G that stabilize it.
    """
    p = G.prime()
    if p is None and G.order > 1:
        raise ValueError("G must be a p-group")
    if p is None:
        p = 2
    if F.length() is None:
        raise ValueError("the filtration must have finite length")
    if not all(phi.preserves(term) for term in F.terms for phi in pas):
        raise ValueError("filtration is not phi-invariant")
    if G.is_elementary_abelian():
        return inner_extension(G, pas, size_cap=size_cap)
    # refine F through per-layer flags
    chain: list[Subgroup] = [F.term(1)]
    for n in range(1, F.length() + 1):
        Ln, proj, to_parent = F.layer(n)
        if Ln.order == 1:
            continue
        if not Ln.is_elementary_abelian():
            return Decision(UNKNOWN, reason=f"layer {n} is not elementary abelian")
        layer_pas = []
        for phi in pas:
            mapping = _layer_map(proj, to_parent, [
                (a, phi(a)) for a in phi.A.elems if a in F.term(n)])
            if mapping is None:
                return Decision(UNKNOWN,
                                reason="induced layer map not well defined")
            layer_pas.append(PartialAutomorphism(
                Ln, Subgroup(Ln, sorted(mapping), check=False),
                Subgroup(Ln, sorted(set(mapping.values())), check=False),
                mapping))
        res = unipotent_flag_extend(Ln, layer_pas)
        if res.is_no:
            return Decision(NO, reason=f"layer {n}: {res.reason}")
        if res.status == UNKNOWN:
            return res
        cert: FlagCertificate = res.certificate
        # lift the flag to subgroups between F_n and F_{n+1}
        for k in range(cert.space.dim - 1, 0, -1):
            sub_elems = set(cert.space.subspace_elems(cert.basis[:k]))
            lifted = sorted({to_parent[i] for i in range(len(to_parent))
                             if int(proj.map[i]) in sub_elems})
            chain.append(Subgroup(G, lifted, check=False))
        chain.append(F.term(n + 1))
    if not all(phi.preserves_chain(chain) for phi in pas):
        return Decision(UNKNOWN, reason="assembled chain fails the trivial-"
                                        "action criterion")
    return _extend_in_stabilizer(G, pas, chain, p, size_cap,
                                 "no chain-unipotent extension found")


def _layer_map(proj: Homomorphism, to_parent: Sequence[int], pairs):
    """The map of a filtration layer F_n / F_n+1 induced by x -> y for the
    pairs (x, y) of elements of F_n, as {class of x: class of y}; None when
    two x of one class go to different classes.  proj and to_parent are as
    returned by Filtration.layer."""
    from_parent = {g: i for i, g in enumerate(to_parent)}
    mapping: dict[int, int] = {}
    for x, y in pairs:
        q = int(proj.map[from_parent[y]])
        if mapping.setdefault(int(proj.map[from_parent[x]]), q) != q:
            return None
    return mapping


# -- mapping tori -----------------------------------------------------------------

def mapping_torus_check(G: FiniteGroup, autos: Sequence[np.ndarray]) -> dict:
    """Is the mapping torus of the given automorphisms residually p?

    True iff the induced automorphisms of H_1(G; F_p) = L^p_1(G) generate a
    p-group; when they do, the induced subgroups of Aut(L^p_n(G)) are checked
    to be p-groups for every n up to the p-length.
    """
    p = G.prime()
    if p is None and G.order > 1:
        raise ValueError("G must be a nontrivial p-group")
    for a in autos:
        if sorted(int(x) for x in a) != list(range(G.order)) or \
                not kernels.is_homomorphism(G.mult, G.mult, a):
            raise ValueError("inputs must be automorphisms")
    gp = lower_central_p_series(G, p)
    report = {"p": p, "levels": [], "residually_p": None}
    for n in range(1, (gp.length() or 1) + 1):
        Ln, proj, to_parent = gp.layer(n)
        induced = []
        for a in autos:
            mapping = _layer_map(proj, to_parent,
                                 [(g, int(a[g])) for g in to_parent])
            if mapping is None:
                raise AssertionError("automorphism does not preserve the layer")
            induced.append(np.array([mapping[q] for q in range(Ln.order)],
                                    dtype=np.int64))
        closure = permutation_closure(Ln, induced)
        is_p = is_p_power(len(closure), p)
        report["levels"].append({"n": n, "induced_order": len(closure),
                                 "p_group": is_p})
        if n == 1:
            report["residually_p"] = is_p
            if not is_p:
                break
    if report["residually_p"]:
        if not all(l["p_group"] for l in report["levels"]):
            raise AssertionError("level-1 p-group but a higher layer is not")
    return report


# -- the exhaustive amalgam scan -----------------------------------------------------

@dataclass
class ScanRecord:
    g_name: str
    h_name: str
    u_g: tuple[int, ...]
    u_h: tuple[int, ...]
    iso: tuple[int, ...]        # U_G-group index -> U_H-group index
    embeddable: bool


def amalgam_scan(groups: Sequence[FiniteGroup]):
    """Deterministic scan over amalgams built from the given 2-groups.

    Enumeration: unordered pairs (G, H) in list order (diagonal included,
    with an independent copy of H); subgroup pairs (U_G, U_H) of equal order
    2 <= |U| <= SCAN_MAX_U in lexicographic element order; identifications:
    all isomorphisms when |U| <= SCAN_ALL_ISO_UPTO, else the first found.

    Returns the list of ScanRecords in enumeration order.
    """
    records: list[ScanRecord] = []
    # equal subgroup tables share one small int id; tables[id] is the first
    tables: list[FiniteGroup] = []
    table_ids: dict[bytes, int] = {}
    # per group (keyed by identity): its chain tracer and, per subgroup S,
    # the tuple (S, the id of its table U, the parent index of each element
    # of U, the trace set of that inclusion, traced), listed in order and
    # bucketed by |S|; on the H side, traced maps a G-side table id to the
    # pairs (iso, trace set of U -> S through iso), one per isomorphism onto
    # U.  The diagonal copy H' shares G's.
    facts: dict[FiniteGroup, tuple] = {}
    # the isomorphisms U_G -> U_H depend only on the two tables; this memo
    # lives for one call, so every scan pays for its own searches
    isos: dict[tuple[int, int], tuple] = {}

    def facts_of(G):
        if G not in facts:
            tracer, subs, by_order = chief_tracer(G), [], {}
            for S in all_subgroups(G):
                if 2 <= len(S) <= SCAN_MAX_U:
                    U, toU, _ = S.as_group()
                    toU = np.asarray(toU, dtype=np.int64)
                    key = U.mult.tobytes()
                    if key not in table_ids:
                        table_ids[key] = len(tables)
                        tables.append(U)
                    subs.append((S, table_ids[key], toU,
                                 frozenset(tracer(toU[None])[:, 0].tolist()),
                                 {}))
                    by_order.setdefault(len(S), []).append(subs[-1])
            facts[G] = (tracer, subs, by_order)
        return facts[G]

    def isomorphisms(uG, uH):
        # all isomorphisms UG -> UH, sorted, up to SCAN_ALL_ISO_UPTO; else the
        # first found; as the rows of a (k, |U|) array and as tuples
        if (uG, uH) not in isos:
            UG = tables[uG]
            base = find_isomorphism(UG, tables[uH])
            if base is None:
                block = np.zeros((0, UG.order), dtype=np.int64)
            elif UG.order > SCAN_ALL_ISO_UPTO:
                block = base.map[None]
            else:
                block = np.unique(base.map[np.stack(automorphisms(UG))], axis=0)
            isos[uG, uH] = (block, [tuple(m) for m in block.tolist()])
        return isos[uG, uH]

    for i, G in enumerate(groups):
        for j in range(i, len(groups)):
            H = groups[j]
            if j == i:
                H = G.copy(G.name + "'")
                # the facts read only the table, which H shares with G
                facts[H] = facts_of(G)
            tracer, _, subsH = facts_of(H)
            for SG, uG, _, tG, _ in facts_of(G)[1]:
                # the embeddings of both sides start at the G-side copy of
                # U, so both trace sets live in the same coordinates; the
                # k embeddings U -> SH are traced as one block, once per
                # G-side table
                for SH, uH, toUH, _, traced in subsH.get(len(SG), ()):
                    if uG not in traced:
                        block, maps = isomorphisms(uG, uH)
                        keys = tracer(toUH[block]).T.tolist() if maps else []
                        traced[uG] = list(zip(maps, map(frozenset, keys)))
                    for iso, tH in traced[uG]:
                        records.append(ScanRecord(
                            G.name, H.name, SG.elems, SH.elems, iso,
                            not tG.isdisjoint(tH)))
    return records


def scan_amalgam_object(groups: Sequence[FiniteGroup], rec: ScanRecord) -> Amalgam:
    """Rebuild the Amalgam described by a ScanRecord."""
    by_name = {G.name: G for G in groups}
    G = by_name[rec.g_name]
    if rec.h_name.endswith("'"):
        H = by_name[rec.h_name[:-1]].copy(rec.h_name)
    else:
        H = by_name[rec.h_name]
    SG = Subgroup(G, rec.u_g, check=False)
    SH = Subgroup(H, rec.u_h, check=False)
    UG, toUG, _ = SG.as_group()
    UH, toUH, _ = SH.as_group()
    uG = Homomorphism(UG, G, toUG, check=False)
    uH = Homomorphism(UG, H, [toUH[rec.iso[x]] for x in range(UG.order)],
                      check=False)
    return Amalgam(G, H, UG, uG, uH)
