"""Vectorized kernel implementations on numpy integer tables."""

import numpy as np


def _as_table(mult):
    t = np.asarray(mult, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("multiplication table must be square")
    return t


def _right_generators(t):
    """Greedy S such that right products by S, starting from 0, reach every
    element: each time the least element not yet reached."""
    n = t.shape[0]
    seen = [False] * n
    seen[0] = True
    reached, gens, cols = [0], [], []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        cols.append(t[:, g].tolist())
        # everything reached so far times g, then every new element times
        # all generators
        queue = []
        for x in reached:
            y = cols[-1][x]
            if not seen[y]:
                seen[y] = True
                queue.append(y)
        for x in queue:
            for col in cols:
                y = col[x]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        reached += queue
    return gens


def _is_latin(t):
    """Whether every row and every column of t, whose entries lie in
    0..n-1, is a permutation: each row i marks the cells i·n + t[i, j] of a
    seen-array of n² cells, then each column j the cells t[i, j]·n + j, and
    each time every cell must be marked.  O(n²), without sorting."""
    n = t.shape[0]
    seen = np.zeros(n * n, dtype=bool)
    seen[t + np.arange(0, n * n, n)[:, None]] = True
    if not seen.all():
        return False
    seen[:] = False
    seen[t * n + np.arange(n)] = True
    return bool(seen.all())


def validate_table(mult):
    t = _as_table(mult)
    n = t.shape[0]
    idx = np.arange(n)
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        raise ValueError("index 0 is not an identity")
    if not (0 <= t.min() and t.max() < n and _is_latin(t)):
        raise ValueError("table is not a latin square")
    inv = (t == 0).argmax(axis=1)
    if not (np.array_equal(t[idx, inv], np.zeros(n, dtype=np.int64))
            and np.array_equal(t[inv, idx], np.zeros(n, dtype=np.int64))):
        raise ValueError("missing two-sided inverses")
    # Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    # 1961): the a with (x·a)·y = x·(a·y) for all x, y are closed under
    # products, so checking a generating set is exact.  The rows x go in
    # blocks of about 2^20 cells, gathered in the narrowest dtype.
    small = t.astype(np.min_scalar_type(n - 1))
    step = max(1, (1 << 20) // n)
    for a in _right_generators(t):
        xa, ay = t[:, a], t[a]
        for r in range(0, n, step):
            # (x·a)·y against x·(a·y)
            if not np.array_equal(small.take(xa[r:r + step], axis=0),
                                  small[r:r + step].take(ay, axis=1)):
                raise ValueError(f"associativity fails at a = {a}")


def inverse_table(mult):
    t = _as_table(mult)
    return (t == 0).argmax(axis=1)


def closure(mult, inv, gens):
    """Sorted <gens> by Dimino's coset enumeration (Butler, Fundamental
    Algorithms for Permutation Groups, 1991, ch. 6).  Each new generator g,
    in increasing order, extends H: coset representatives r are walked
    breadth first, times every generator s so far, adding H r s when r s is
    new.  The union is closed under right multiplication by the generators,
    so it is the finite group <H, g>; inv is not needed."""
    t = _as_table(mult)
    member = np.zeros(t.shape[0], dtype=bool)
    member[0] = True
    H = np.zeros(1, dtype=np.int64)
    taken = []
    for g in sorted({int(x) for x in gens}):
        if member[g]:
            continue
        taken.append(g)
        reps = [0]
        for r in reps:
            row = t[r]
            for s in taken:
                x = row[s]
                if not member[x]:
                    member[t[H, x]] = True
                    reps.append(x)
        H = np.flatnonzero(member)
    return H.tolist()


def bulk_mult(mult, xs, ys):
    t = _as_table(mult)
    xs = np.asarray(list(xs), dtype=np.int64)
    ys = np.asarray(list(ys), dtype=np.int64)
    if xs.size == 0 or ys.size == 0:
        return []
    return [int(v) for v in np.unique(t[np.ix_(xs, ys)])]


def commutators(mult, inv, xs, ys):
    t = _as_table(mult)
    inv = np.asarray(inv, dtype=np.int64)
    xs = np.asarray(list(xs), dtype=np.int64)
    ys = np.asarray(list(ys), dtype=np.int64)
    if xs.size == 0 or ys.size == 0:
        return []
    a = t[np.ix_(inv[xs], inv[ys])]          # x^-1 y^-1
    b = t[a, xs[:, None]]                    # x^-1 y^-1 x
    c = t[b, ys[None, :]]                    # x^-1 y^-1 x y
    return [int(v) for v in np.unique(c)]


def powers(mult, xs, e):
    t = _as_table(mult)
    xs = np.asarray(list(xs), dtype=np.int64)
    if xs.size == 0:
        return []
    acc = np.zeros(len(xs), dtype=np.int64)
    for _ in range(e):
        acc = t[acc, xs]
    return [int(v) for v in np.unique(acc)]


def conjugates(mult, inv, xs, gs):
    t = _as_table(mult)
    inv = np.asarray(inv, dtype=np.int64)
    xs = np.asarray(list(xs), dtype=np.int64)
    gs = np.asarray(list(gs), dtype=np.int64)
    if xs.size == 0 or gs.size == 0:
        return []
    gx = t[np.ix_(gs, xs)]
    out = t[gx, inv[gs][:, None]]
    return [int(v) for v in np.unique(out)]


def is_homomorphism(mult_dom, mult_cod, mapping):
    td = _as_table(mult_dom)
    tc = _as_table(mult_cod)
    m = np.asarray(mapping, dtype=np.int64)
    if m[0] != 0:
        return False
    return bool(np.array_equal(m[td], tc[m[:, None], m[None, :]]))


def rref_mod_p(rows, p, ncols=None):
    """Reduced row echelon form over F_p; returns the nonzero rows as lists.

    rows is a list of rows or an integer ndarray; every entry is reduced mod
    p first (Python ints of any size included).  Pivots are sought in the
    first ncols columns; the pivot is the first nonzero entry from the rank
    down, as in the reference, since with ncols short of the width the
    columns after ncols depend on that choice.  A pivot entry of 1 needs no
    scaling.  Each step eliminates only the other rows with a nonzero entry
    in the pivot column, and the sweep stops once every row holds a pivot.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        mat = (rows % p).astype(np.int64)
    else:
        mat = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
    if mat.size == 0:
        return []
    nrows = mat.shape[0]
    m = ncols if ncols is not None else mat.shape[1]
    rank = 0
    for col in range(m):
        if rank == nrows:
            break
        nonzero = mat[rank:, col] != 0
        off = int(nonzero.argmax())
        if not nonzero[off]:
            continue
        piv = rank + off
        lead = int(mat[piv, col])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        row = mat[rank]
        if lead != 1:
            row = mat[rank] = row * pow(lead, -1, p) % p
        hit = np.flatnonzero(mat[:, col])
        if hit.size > 1:
            hit = hit[hit != rank]
            mat[hit] = (mat[hit] - np.outer(mat[hit, col], row)) % p
        rank += 1
    return mat[:rank].tolist()
