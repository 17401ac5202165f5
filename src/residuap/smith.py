"""Exact Smith normal form over Z, with unimodular transforms, and
presentation abelianization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Compute D = U M V with U, V unimodular and D in Smith normal form.

    Returns (D, U, V) as lists of lists of python ints; the diagonal of D
    satisfies d_i | d_{i+1} and all d_i >= 0.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, c):
        for r in m:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < rows and t < cols:
        # find a pivot of least nonzero absolute value
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, piv = v, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            changed = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    addmul_row(i, t, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        changed = True
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    addmul_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        changed = True
            if not changed and all(m[i][t] == 0 for i in range(t + 1, rows)) \
                    and all(m[t][j] == 0 for j in range(t + 1, cols)):
                break
        if m[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce divisibility d_i | d_{i+1}
    r = t
    for i in range(r):
        for j in range(i + 1, r):
            if m[i][i] == 0:
                continue
            if m[j][j] % m[i][i] != 0:
                addmul_col(i, j, 1)
                # re-clear the 2x2 block (i, j)
                while m[j][i] or m[i][j]:
                    if m[i][i]:
                        q = m[j][i] // m[i][i]
                        addmul_row(j, i, -q)
                    if m[j][i]:
                        swap_rows(i, j)
                    if m[i][i]:
                        q = m[i][j] // m[i][i]
                        addmul_col(j, i, -q)
                    if m[i][j]:
                        swap_cols(i, j)
                if m[i][i] < 0:
                    negate_row(i)
                if m[j][j] < 0:
                    negate_row(j)
    return m, U, V


def det_unimodular(mat: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free elimination (Bareiss)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ngens generators, relators as words.

    A relator is a sequence of nonzero integers: letter +k means generator
    k-1, letter -k its inverse.
    """
    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ngens < 0:
            raise ValueError(f"ngens must be nonnegative, not {self.ngens}")
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > self.ngens:
                    raise ValueError(f"relator letter {letter} out of range")

    def relation_matrix(self) -> list[list[int]]:
        rows = []
        for rel in self.relators:
            row = [0] * self.ngens
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows


@dataclass(frozen=True)
class AbelianizationResult:
    free_rank: int
    torsion: tuple[int, ...]     # invariant factors > 1, each dividing the next


def smith_abelianization(pres: Presentation) -> AbelianizationResult:
    """Invariant factors of the abelianization of a presentation.

    The transformation matrices are verified unimodular and the divisibility
    chain is asserted.
    """
    mat = pres.relation_matrix()
    if not mat:
        return AbelianizationResult(pres.ngens, ())
    D, U, V = smith_normal_form(mat)
    if abs(det_unimodular(U)) != 1 or abs(det_unimodular(V)) != 1:
        raise AssertionError("transformation matrices are not unimodular")
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    nz = [d for d in diag if d != 0]
    for a, b in zip(nz, nz[1:]):
        if b % a != 0:
            raise AssertionError("divisibility chain violated in Smith form")
    rank = len(nz)
    free_rank = pres.ngens - rank
    torsion = tuple(d for d in nz if d > 1)
    return AbelianizationResult(free_rank, torsion)


def theta_map(pres: Presentation):
    """The map to the free part H = Z^r of the abelianization.

    Returns (r, rows) where rows[i] is the image in Z^r of generator i:
    the composite of abelianization with projection modulo torsion.
    """
    mat = pres.relation_matrix()
    ngens = pres.ngens
    if not mat:
        return ngens, [[int(i == j) for j in range(ngens)] for i in range(ngens)]
    D, U, V = smith_normal_form(mat)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    rank = sum(1 for d in diag if d != 0)
    # With D = U M V, the coordinate change x |-> V^T x identifies the
    # abelianization with (+) Z/d_i (+) Z^(n-rank); the free part of the
    # image of generator e_i is row i of V restricted to columns past rank.
    r = ngens - rank
    rows = [list(V[i][rank:]) for i in range(ngens)]
    for rel in pres.relation_matrix():
        acc = [0] * r
        for i, c in enumerate(rel):
            for k in range(r):
                acc[k] += c * rows[i][k]
        if any(acc):
            raise AssertionError("theta does not kill a relator")
    return r, rows
