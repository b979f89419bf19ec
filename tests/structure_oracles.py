"""Structure builders as they were before they were vectorised, kept as oracles.

`dmagma.rings` builds matrix rings from per-position digit columns,
`dmagma.groups` builds permutation-group tables by a column recurrence over
the closure's breadth-first tree, the metacyclic, Heisenberg and product
tables as broadcast sums of parts, and the subgroup series from generators of
each term. The oracles are the code they replaced, unchanged apart from
returning plain tables and member sets: the einsum matrix-ring builder, the
permutation closure that composes every pair of elements in Python, and the
set-based commutator, closure and series code; and scalar builders that fill
the metacyclic, Heisenberg and product tables one cell at a time from their
defining formulas. They share no code with the builders they check.
"""

import re

import numpy as np


def einsum_matrix_ring(k, n, positions):
    """(add, mul, names) of the k x k matrices mod n supported on `positions`."""
    d = len(positions)
    order = n**d
    idx = np.arange(order, dtype=np.int64)
    mats = np.zeros((order, k, k), dtype=np.int64)
    rest = idx.copy()
    for slot in range(d - 1, -1, -1):
        i, j = positions[slot]
        mats[:, i, j] = rest % n
        rest //= n
    weights = np.zeros((k, k), dtype=np.int64)
    for slot, (i, j) in enumerate(positions):
        weights[i, j] = n ** (d - 1 - slot)

    def encode(ms):
        return np.tensordot(ms % n, weights, axes=([-2, -1], [0, 1]))

    add = encode(mats[:, None] + mats[None, :])
    mul = encode(np.einsum("aij,bjk->abik", mats, mats))
    names = []
    for e in range(order):
        rows = [",".join(str(int(v)) for v in mats[e, i]) for i in range(k)]
        names.append("[" + ";".join(rows) + "]")
    return add, mul, names


def ring_oracle(spec):
    """(add, mul, names) of a `matrix:k,n` or `uppertri:k,n` spec."""
    head, _, args = spec.partition(":")
    k, n = (int(a) for a in args.split(","))
    if head == "matrix":
        positions = [(i, j) for i in range(k) for j in range(k)]
    else:
        positions = [(i, j) for i in range(k) for j in range(i, k)]
    return einsum_matrix_ring(k, n, positions)


def _power(letter, e):
    return "" if e == 0 else letter if e == 1 else f"{letter}{e}"


def metacyclic_oracle(m, n, r):
    """(mul, names) of a^i b^j, indexed j*m + i: (i, j)(k, l) = (i + k r^j mod m, j + l mod n)."""
    order = m * n
    mul = np.empty((order, order), dtype=np.int32)
    for x in range(order):
        j, i = divmod(x, m)
        for y in range(order):
            l, k = divmod(y, m)
            mul[x, y] = (j + l) % n * m + (i + k * r**j) % m
    names = [_power("a", e % m) + _power("b", e // m) or "1" for e in range(order)]
    return mul, names


def dihedral_oracle(m):
    """(mul, names) of the dihedral group of order 2m: b a b^-1 = a^(m-1)."""
    return metacyclic_oracle(m, 2, m - 1)


def heisenberg_oracle(p):
    """(mul, names) of (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2) mod p.

    Triples are indexed (x*p + y)*p + z.
    """
    order = p**3
    triples = [(e // (p * p), e // p % p, e % p) for e in range(order)]
    mul = np.empty((order, order), dtype=np.int32)
    for a, (x1, y1, z1) in enumerate(triples):
        for b, (x2, y2, z2) in enumerate(triples):
            mul[a, b] = ((x1 + x2) % p * p + (y1 + y2) % p) * p + (z1 + z2 + x1 * y2) % p
    names = ["1"] + [f"({x},{y},{z})" for x, y, z in triples[1:]]
    return mul, names


def product_oracle(left, right):
    """(mul, names) of the direct product of two (mul, names) groups, pairs indexed g*|H| + h."""
    (gm, gn), (hm, hn) = left, right
    size = len(hn)
    order = len(gn) * size
    mul = np.empty((order, order), dtype=np.int32)
    for x in range(order):
        for y in range(order):
            mul[x, y] = gm[x // size, y // size] * size + hm[x % size, y % size]
    names = ["1"] + [f"({gn[e // size]},{hn[e % size]})" for e in range(1, order)]
    return mul, names


def _cycle_name(images0):
    """Canonical cycle notation (1-based, fixed points omitted); identity is '1'."""
    seen = [False] * len(images0)
    cycles = []
    for start in range(len(images0)):
        if seen[start]:
            continue
        cur, cycle = start, []
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = images0[cur]
        if len(cycle) > 1:
            cycles.append(cycle)
    if not cycles:
        return "1"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)


def composed_permutation_group(generators):
    """(mul, names) of the closure of 1-based image tuples, every product composed in Python."""
    gens = []
    k = 0
    for g in generators:
        g = tuple(int(v) for v in g)
        k = max(k, len(g))
        gens.append(g)
    gens = [tuple(v - 1 for v in g) + tuple(range(len(g), k)) for g in gens]
    identity = tuple(range(k))
    elements = [identity]
    index = {identity: 0}
    cursor = 0
    while cursor < len(elements):
        cur = elements[cursor]
        cursor += 1
        for g in gens:
            prod = tuple(cur[g[i]] for i in range(k)) if k else ()
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int32)
    for a, pa in enumerate(elements):
        for b, pb in enumerate(elements):
            mul[a, b] = index[tuple(pa[pb[i]] for i in range(k)) if k else ()]
    names = [_cycle_name(p) for p in elements]
    return mul, names


def perm_oracle(spec):
    """(mul, names) of a `perm:` spec, over the points 1..(largest point written)."""
    generators = [re.findall(r"\(([^)]*)\)", part) for part in spec[len("perm:"):].split(",")]
    cycles = [[[int(p) for p in c.split()] for c in gen] for gen in generators if gen]
    k = max((p for gen in cycles for c in gen for p in c), default=0)
    images = []
    for gen in cycles:
        image = list(range(1, k + 1))
        for c in gen:
            for a, b in zip(c, c[1:] + c[:1]):
                image[a - 1] = b
        images.append(image)
    return composed_permutation_group(images)


def set_subgroup_closure(g, seed):
    """Members of the smallest subgroup containing `seed`."""
    cur = np.unique(np.fromiter(list(seed) + [g.identity], dtype=np.int64))
    while True:
        prods = g.mul[np.ix_(cur, cur)].ravel()
        nxt = np.unique(np.concatenate([cur, prods, g.inv[cur]]))
        if len(nxt) == len(cur):
            return frozenset(int(x) for x in cur)
        cur = nxt


def set_normal_closure(g, seed):
    """Members of the smallest normal subgroup containing `seed`."""
    seed = sorted(set(seed))
    if not seed:
        return frozenset({g.identity})
    s = np.asarray(seed, dtype=np.int64)
    cols = np.arange(g.order, dtype=np.int64)[:, None]
    conj = g.mul[g.mul[g.inv[cols], s[None, :]], cols]  # [y, i] -> y^-1 s_i y
    return set_subgroup_closure(g, np.unique(conj).tolist())


def set_commutators(g, left, right):
    """All [x, y] with x in `left`, y in `right`, as a unique index array."""
    xs = np.asarray(sorted(left), dtype=np.int64)[:, None]
    ys = np.asarray(sorted(right), dtype=np.int64)[None, :]
    comm = g.mul[g.mul[g.inv[xs], g.inv[ys]], g.mul[xs, ys]]
    return np.unique(comm)


def _set_series(g, right):
    terms = [frozenset(range(g.order))]
    while True:
        cur = terms[-1]
        nxt = set_normal_closure(g, set_commutators(g, cur, right(cur)).tolist())
        if nxt == cur:
            return terms
        terms.append(nxt)


def set_derived_series(g):
    """Member sets of [G, G', G'', ...] until stable."""
    return _set_series(g, lambda cur: cur)


def set_lower_central_series(g):
    """Member sets of gamma_1 = G, gamma_{k+1} = <[gamma_k, G]>, until stable."""
    return _set_series(g, lambda cur: range(g.order))


def set_closure_error(g, members):
    """The error `SubgroupSet` raised for a member set, checked by Python sets; None if closed."""
    if g.identity not in members:
        return "subgroup must contain the identity"
    idx = np.fromiter(sorted(members), dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= g.order):
        return "subgroup members out of range"
    prods = set(g.mul[np.ix_(idx, idx)].ravel().tolist())
    invs = set(g.inv[idx].tolist())
    if not (prods <= members and invs <= members):
        return "member set is not closed under product and inverse"
    return None
