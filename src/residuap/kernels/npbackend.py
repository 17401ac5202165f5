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


def _pack(mat, p, w):
    """Each row of mat (entries in [0, p)) as one Python int, entry j in the
    w bits from bit j * w."""
    if p == 2:
        data = np.packbits(mat, axis=1, bitorder="little")
        nb = data.shape[1]
    elif w <= 64:
        nb = mat.shape[1] * w // 8
        data = mat.astype("<u8").view(np.uint8).reshape(*mat.shape, 8)[..., :w // 8]
    else:
        mat = mat.tolist() if isinstance(mat, np.ndarray) else mat
        return [int.from_bytes(b"".join(x.to_bytes(w // 8, "little") for x in r),
                               "little") for r in mat]
    data = data.tobytes()
    return [int.from_bytes(data[i:i + nb], "little")
            for i in range(0, len(data), nb)]


def _unpack(vs, ncols, p, w):
    """The rows packed by _pack, as lists of Python ints."""
    nb = -(-ncols * w // 8)
    data = b"".join(v.to_bytes(nb, "little") for v in vs)
    if p == 2:
        buf = np.frombuffer(data, dtype=np.uint8).reshape(len(vs), nb)
        return np.unpackbits(buf, axis=1, count=ncols, bitorder="little").tolist()
    wb = w // 8
    if w <= 64:
        out = np.zeros((len(vs), ncols, 8), dtype=np.uint8)
        out[..., :wb] = np.frombuffer(data, dtype=np.uint8).reshape(len(vs), ncols, wb)
        return out.view("<u8").reshape(len(vs), ncols).tolist()
    return [[int.from_bytes(data[i:i + wb], "little")
             for i in range(j, j + nb, wb)] for j in range(0, len(data), nb)]


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p; returns the nonzero rows as lists.

    rows is a list of rows or an integer ndarray; every entry is reduced mod
    p first (Python ints of any size included).  Each row is packed into one
    Python int with entry j in the w bits from bit j * w, so a row step is a
    few big-int operations: v ^= b at p = 2 (w = 1), and at odd p
    v += (p - e) * b followed by a reduction of every field at once.  There
    each field holds at most p (p - 1) after a step; with s the bit length of
    p^2 (p - 1) and m = 2^s // p + 1, (x * m) >> s is exactly x // p for such
    x, and x * m needs at most s + bitlen(p) bits, the field width rounded up
    to whole bytes.  So the low bitlen(p - 1) bits of each field of
    (v * m) >> s hold the quotients, and v - p * quotients is v mod p.

    Rows enter a basis keyed by leading column one at a time, each reduced
    against it until it is zero or leads a new column; a back-substitution
    then clears every pivot column from the other basis rows.  The reduced
    echelon form of a row space is unique, so the result does not depend on
    the order of the rows or of the steps.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and p < 1 << 63:
        mat = rows % p
    else:
        mat = [[int(x) % p for x in r] for r in rows]
        if p < 1 << 63:
            mat = np.array(mat, dtype=np.int64)
    if not len(mat) or not len(mat[0]):
        return []
    ncols = len(mat[0])
    if p == 2:
        w = 1
    else:
        s = (p * p * (p - 1)).bit_length()
        m = (1 << s) // p + 1
        w = -(-(s + p.bit_length()) // 8) * 8
        qmask = int.from_bytes(((1 << (p - 1).bit_length()) - 1)
                               .to_bytes(w // 8, "little") * ncols, "little")
    fmask = (1 << w) - 1
    basis = {}                 # leading column -> row whose leading entry is 1
    for v in _pack(mat, p, w):
        while v:
            col = ((v & -v).bit_length() - 1) // w
            b = basis.get(col)
            if p == 2:
                if b is None:
                    basis[col] = v
                    break
                v ^= b
                continue
            e = (v >> col * w) & fmask
            if b is None:
                if e != 1:
                    v *= pow(e, -1, p)
                    v -= p * (((v * m) >> s) & qmask)
                basis[col] = v
                break
            v += (p - e) * b
            v -= p * (((v * m) >> s) & qmask)
        if len(basis) == ncols:
            break
    cols = sorted(basis)
    done = 0                   # the fields of the pivot columns reduced so far
    for col in reversed(cols):
        v = basis[col]
        hit = v & done
        while hit:
            c = ((hit & -hit).bit_length() - 1) // w
            if p == 2:
                v ^= basis[c]
            else:
                v += (p - ((v >> c * w) & fmask)) * basis[c]
                v -= p * (((v * m) >> s) & qmask)
            hit = v & done
        basis[col] = v
        done |= fmask << col * w
    return _unpack([basis[c] for c in cols], ncols, p, w)
