"""Pure-Python kernel implementations.

Reference semantics for the vectorized backend; every function here must
agree with its counterpart in ``npbackend`` on all inputs.  Tables are
indexable 2-d structures (nested sequences or numpy arrays) over element
indices ``0..n-1`` with the identity at index 0.
"""


def _right_generators(mult):
    """Greedy S such that right products by S, starting from 0, reach every
    element: each time the least element not yet reached."""
    n = len(mult)
    seen = [False] * n
    seen[0] = True
    reached, gens, cols = [0], [], []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        cols.append([int(row[g]) for row in mult])
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


def validate_table(mult):
    """Check the Cayley-table group axioms, raising ValueError on failure.

    Identity at index 0, rows/columns are permutations, every element has a
    two-sided inverse, and associativity by Light's test: the a with
    (x·a)·y = x·(a·y) for all x, y are closed under products, so checking
    each a of a generating set is exact.
    """
    n = len(mult)
    rng = range(n)
    full = set(rng)
    for g in rng:
        if mult[0][g] != g or mult[g][0] != g:
            raise ValueError(f"index 0 is not an identity at {g}")
    for i in rng:
        if set(int(x) for x in mult[i]) != full:
            raise ValueError(f"row {i} is not a permutation")
        if set(int(mult[j][i]) for j in rng) != full:
            raise ValueError(f"column {i} is not a permutation")
    inv = inverse_table(mult)
    for g in rng:
        if mult[g][inv[g]] != 0 or mult[inv[g]][g] != 0:
            raise ValueError(f"element {g} has no two-sided inverse")
    for a in _right_generators(mult):
        row_a = [int(x) for x in mult[a]]
        for x in rng:
            left = mult[int(mult[x][a])]
            right = mult[x]
            for y in rng:
                if left[y] != right[row_a[y]]:
                    raise ValueError(f"associativity fails at ({x},{a},{y})")


def inverse_table(mult):
    n = len(mult)
    inv = [0] * n
    for g in range(n):
        row = mult[g]
        for h in range(n):
            if row[h] == 0:
                inv[g] = h
                break
    return inv


def closure(mult, inv, gens):
    """Smallest subset containing 0 and gens, closed under mult and inverse."""
    elems = {0}
    frontier = []
    for g in gens:
        g = int(g)
        if g not in elems:
            elems.add(g)
            frontier.append(g)
        gi = int(inv[g])
        if gi not in elems:
            elems.add(gi)
            frontier.append(gi)
    while frontier:
        new = []
        base = sorted(elems)
        for a in base:
            row = mult[a]
            for b in frontier:
                c = int(row[b])
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        for b in frontier:
            row = mult[b]
            for a in base:
                c = int(row[a])
                if c not in elems:
                    elems.add(c)
                    new.append(c)
        frontier = new
    return sorted(elems)


def bulk_mult(mult, xs, ys):
    """All products x*y for x in xs, y in ys, as a sorted deduplicated list."""
    out = set()
    for x in xs:
        row = mult[int(x)]
        for y in ys:
            out.add(int(row[int(y)]))
    return sorted(out)


def commutators(mult, inv, xs, ys):
    """Sorted set of [x,y] = x^-1 y^-1 x y over the two index sets."""
    out = set()
    for x in xs:
        x = int(x)
        xi = int(inv[x])
        for y in ys:
            y = int(y)
            yi = int(inv[y])
            out.add(int(mult[int(mult[int(mult[xi][yi])][x])][y]))
    return sorted(out)


def powers(mult, xs, e):
    """Sorted set of x^e (e >= 0) for x in xs."""
    out = set()
    for x in xs:
        x = int(x)
        acc = 0
        for _ in range(e):
            acc = int(mult[acc][x])
        out.add(acc)
    return sorted(out)


def conjugates(mult, inv, xs, gs):
    """Sorted set of g x g^-1 for x in xs, g in gs."""
    out = set()
    for g in gs:
        g = int(g)
        gi = int(inv[g])
        for x in xs:
            out.add(int(mult[int(mult[g][int(x)])][gi]))
    return sorted(out)


def is_homomorphism(mult_dom, mult_cod, mapping):
    n = len(mult_dom)
    if mapping[0] != 0:
        return False
    for x in range(n):
        row = mult_dom[x]
        mx = int(mapping[x])
        crow = mult_cod[mx]
        for y in range(n):
            if mapping[int(row[y])] != crow[int(mapping[y])]:
                return False
    return True


def rref_mod_p(rows, p):
    """Reduced row echelon form over F_p; returns list of nonzero rows.
    The pivot of each column is the first nonzero row from the rank down,
    swapped up."""
    mat = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        cinv = pow(mat[rank][col], -1, p)
        row = mat[rank] = [cinv * x % p for x in mat[rank]]
        for i, r in enumerate(mat):
            c = r[col]
            if c and i != rank:
                mat[i] = [(x - c * y) % p for x, y in zip(r, row)]
        rank += 1
    return mat[:rank]
