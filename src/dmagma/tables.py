"""Low-level chunked scans over dense operation tables.

Everything here works on plain ``n x n`` integer arrays whose entries are
element indices, so the same scans back groups, rings and bare magmas.
Scans report the lexicographically first failing tuple, which keeps
witnesses deterministic regardless of slice size. The generator-based tests
(`magma_generators`, `light_associative`) only answer yes or no; callers that
need a witness fall back to the full scans. `magma_generators` tries element
0 last and grows what it reaches semi-naively, so a group's identity is never
a generator and a cyclic run is reached in log n rounds; the constructors
validate with its generators, and the subgroup series take the few
generators of a large term from it. Builders index flat tables through
`flat_cells`, in int32 while the n^2 cells fit; scans gather through
`gather`, in intp.

Every exhaustive scan visits one representative per class of
indistinguishable elements, and one function derives the classes of every
scan (`class_reps`) from the (table, axis) lines each variable is read
through. Whether (xy)z = x(yz) fails depends on x only through its row, on y
only through its row and its column, and on z only through its column; for
the interchange law (w*x)•(y*z) = (w•y)*(x•z), w enters through its star and
bullet rows, x through its star column and bullet row, y through its star row
and bullet column, and z through both columns. Elements with equal lines in
those places give equal checks. Replacing any coordinate of the
lexicographically first failing tuple by the smallest element of its class
gives a tuple that still fails and is no larger, so that coordinate is its
own representative: the first failure lies on the grid of representatives,
and scanning that grid in lexicographic order (`first_failure`) returns it.
The verdict remains a brute-force statement about the table alone; only
checks that repeat an earlier one are skipped.

Group and ring laws are scanned the same way (`words._law_scan`): a law reads
a variable that is an argument of a bracket or conjugate through that table's
row or column (`words.Lowering.lines`), so the same argument makes the first
failure a tuple of representatives. `evaluations` stays the witness's position
in the full n^k grid, or n^k when the law holds, as if every tuple was visited.
"""

from __future__ import annotations

import itertools

import numpy as np

# Most tuples one slice of a lexicographic scan (`first_failure`) holds. A
# slice's intp temporaries (`gather`) take fresh pages on every slice from
# 2^15 cells on: dihedral:16 CI had 320-350 page faults and took 1.3-1.5 ms
# per scan at 2^15-2^16, none and 0.52 ms at 2^14, and 0.61 and 0.90 ms at
# 2^13 and 2^12 (more slices; 2 vCPUs of an Intel Xeon, numpy 2.4).
SCAN_CELLS = 1 << 14

# Most full trailing axes a `first_failure` slice spans (numpy allows 64).
MAX_AXES = 32

# Largest carrier the group and ring constructors build by default.
DEFAULT_ORDER_BUDGET = 1024


def check_order_budget(order: int, budget: int, what: str) -> None:
    if order > budget:
        raise ValueError(f"{what} has order {order}, exceeding the order budget {budget}")


def check_power_budget(base: int, exp: int, budget: int, what: str) -> None:
    """check_order_budget for order base**exp, without computing a power sure to exceed it.

    With base >= 2, base**exp >= 2**exp > budget once exp reaches the budget's
    bit length. From exponent 64 on, such an order is named as base^exp;
    smaller powers are computed and named in full.
    """
    if base > 1 and exp >= max(budget.bit_length(), 64):
        raise ValueError(f"{what} has order {base}^{exp}, exceeding the order budget {budget}")
    check_order_budget(base**exp, budget, what)


def carrier_names(names, order: int) -> tuple[str, ...]:
    """Display names as strings, checked to be one per element and pairwise distinct."""
    names = tuple(str(s) for s in names)
    if len(names) != order:
        raise ValueError(f"got {len(names)} names for order {order}")
    if len(set(names)) != order:
        raise ValueError("element names must be pairwise distinct")
    return names


def as_table(op, order: int | None = None) -> np.ndarray:
    """Coerce to a read-only square int32 table and range-check entries."""
    table = np.ascontiguousarray(np.asarray(op, dtype=np.int32))
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"operation table must be square, got shape {table.shape}")
    n = table.shape[0]
    if order is not None and n != order:
        raise ValueError(f"table has order {n}, expected {order}")
    if n == 0:
        raise ValueError("empty carrier")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("table entries must be element indices in [0, order)")
    table.setflags(write=False)
    return table


def gather(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for broadcastable index arrays, as one take from the flat table.

    `a` is cast to intp (no copy when it already is), so the flat index cannot
    overflow. Scans pass intp tables, whose values then need no cast. On
    dihedral:16 slices of 2^12-2^14 cells the take cost 2.6-3.7 ns per cell and
    table[a, b] 6.9-7.6.
    """
    return np.take(table.reshape(-1), np.asarray(a, dtype=np.intp) * table.shape[1] + b)


def flat_cells(a: np.ndarray, b, n: int) -> np.ndarray:
    """a * n + b, the cells of a flattened n x n table for index arrays a and b.

    `a` is int32 or intp. The arithmetic stays in int32 while n * n <= 2^31,
    where the largest cell, n * n - 1, cannot overflow, and is intp beyond.
    Builders index with it: 2-D fancy indexing of an int32 table casts each
    index array to a fresh intp one, and the extra pages cost time.
    """
    return (a if n * n <= 2**31 else a.astype(np.intp)) * n + b


def is_latin(table: np.ndarray) -> bool:
    """True iff every row and every column is a permutation of 0..n-1.

    Columns are sorted as the rows of a contiguous transpose: sorting along
    axis 0 reads the table with a stride of one row per element.
    """
    idx = np.arange(table.shape[0], dtype=table.dtype)
    return bool(
        np.all(np.sort(table, axis=1) == idx)
        and np.all(np.sort(np.ascontiguousarray(table.T), axis=1) == idx)
    )


def class_reps(tables, lines, n: int) -> list[np.ndarray]:
    """Ascending indices of the smallest element of each class, one array per variable.

    `lines` holds, per variable, the set of (key, axis) lines it is read
    through: row i (axis 0) or column i (axis 1) of the n x n array
    tables[key] is a line of element i. Elements whose lines all agree,
    compared exactly as raw bytes, form one class. None keeps every element,
    and an empty set makes one class. Each line is keyed once per call, and
    variables with the same set share one array.
    """
    lines = [None if s is None else frozenset(s) for s in lines]
    keys: dict = {}
    found: dict = {None: np.arange(n), frozenset(): np.arange(1)}
    for line_set in lines:
        if line_set in found:
            continue
        for key, axis in line_set - keys.keys():
            t = np.ascontiguousarray(tables[key] if axis == 0 else tables[key].T)
            keys[key, axis] = t.view(np.dtype((np.void, t.itemsize * n))).ravel().tolist()
        first: dict = {}
        line_keys = [keys[line] for line in line_set]
        for i, key in enumerate(line_keys[0] if len(line_keys) == 1 else zip(*line_keys)):
            first.setdefault(key, i)
        found[line_set] = np.fromiter(first.values(), np.intp, len(first))
    return [found[s] for s in lines]


def first_failure(reps, failing, cells: int = SCAN_CELLS) -> tuple[int, ...] | None:
    """Lexicographically first tuple of reps[0] x ... x reps[k-1] where `failing` holds.

    `reps` holds one ascending index array per variable. `failing(axes)` gets
    one broadcastable index array per variable and returns a boolean array,
    broadcastable to the grid they span, that is true where the check fails.
    The trailing variables (at most `MAX_AXES`) get one full axis each, so a
    subterm costs the product of its own variables' ranges; the leading ones
    are fixed as scalars, and the one in between is cut into blocks, so one
    slice holds at most `cells` tuples. Slices are visited in lexicographic
    order, and the first true cell of the C-order ravel of the first failing
    slice is the answer. With no variables, `failing([])` is called once and
    the empty tuple is the only candidate.
    """
    k = len(reps)
    if k == 0:
        return () if np.any(failing([])) else None
    free, trail = 0, 1  # full trailing axes, and the tuples they span
    while free < min(k - 1, MAX_AXES) and trail * len(reps[k - 1 - free]) <= cells:
        free, trail = free + 1, trail * len(reps[k - 1 - free])
    lead = k - 1 - free
    width = max(1, cells // trail)
    tail = [r.reshape((-1,) + (1,) * (k - 1 - i)) for i, r in enumerate(reps) if i > lead]
    for prefix in itertools.product(*reps[:lead]):
        for lo in range(0, len(reps[lead]), width):
            axes = [*prefix, reps[lead][lo : lo + width].reshape((-1,) + (1,) * free), *tail]
            bad = failing(axes)
            if bad.any():
                shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
                hit = int(np.argmax(np.broadcast_to(bad, shape)))
                return tuple(int(np.broadcast_to(a, shape).flat[hit]) for a in axes)
    return None


def first_associativity_failure(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z), lexicographic, with (xy)z != x(yz)."""
    reps = class_reps({"*": table}, [{("*", 0)}, {("*", 0), ("*", 1)}, {("*", 1)}], len(table))
    t = table.astype(np.intp)

    def failing(axes):
        x, y, z = axes
        return gather(t, gather(t, x, y), z) != gather(t, x, gather(t, y, z))

    return first_failure(reps, failing)


def first_interchange_failure(s: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    """First (w, x, y, z), lexicographic, with (w*x)•(y*z) != (w•y)*(x•z).

    `s` is the star table (*) and `b` the bullet table (•).
    """
    lines = [{("*", i), ("•", j)} for j in (0, 1) for i in (0, 1)]  # w, x, y, z
    reps = class_reps({"*": s, "•": b}, lines, len(s))
    s, b = s.astype(np.intp), b.astype(np.intp)

    def failing(axes):
        w, x, y, z = axes
        lhs = gather(b, gather(s, w, x), gather(s, y, z))
        return lhs != gather(s, gather(b, w, y), gather(b, x, z))

    return first_failure(reps, failing)


def magma_generators(table: np.ndarray) -> list[int]:
    """A generating set, built greedily in the index order 1, 2, ..., n-1, 0.

    Take the first element not yet reached, then grow the reached set
    semi-naively: each round adds the products x*y of a frontier element x
    (reached in the previous round) with every reached y, and the new products
    form the next frontier. Every reached element is thus a product of
    generators, and a cyclic frontier doubles each round instead of growing
    by one. Repeat until everything is reached. Element 0 comes last because
    in a group, or the additive group of a ring, it is the identity, which
    every other generator already reaches.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not reached.all():
        unreached = np.flatnonzero(~reached[1:]) + 1
        gens.append(int(unreached[0]) if unreached.size else 0)
        reached[gens[-1]] = True
        frontier = np.asarray(gens[-1:])
        while frontier.size and not reached.all():
            fresh = np.zeros(n, dtype=bool)
            fresh[np.compress(reached, table[frontier], axis=1)] = True  # frontier x reached
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def light_associative(table: np.ndarray, gens) -> bool:
    """Light's test: (xa)y == x(ay) for all x, y and every a in `gens`.

    Exact when `gens` generates the magma, because the elements a passing the
    test are closed under the product (Clifford & Preston, The Algebraic
    Theory of Semigroups I, 1961). Costs O(|gens| n^2) instead of O(n^3).
    """
    return all(np.array_equal(table[table[:, a]], table[:, table[a]]) for a in gens)


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first true entry of a flat boolean array, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, int] | None:
    """First (x, y), lexicographic, where the two tables differ."""
    flat = _first_true((a != b).ravel())
    return None if flat is None else divmod(flat, a.shape[0])


def two_sided_identity(table: np.ndarray) -> int | None:
    """The unique two-sided identity element e (row e and column e are 0..n-1), if any."""
    idx = np.arange(table.shape[0], dtype=table.dtype)
    return _first_true(np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1))


def two_sided_zero(table: np.ndarray) -> int | None:
    """The first element z with z*x = x*z = z for all x (row z and column z all z), if any."""
    idx = np.arange(table.shape[0], dtype=table.dtype)[:, None]
    return _first_true(np.all(table == idx, axis=1) & np.all(table.T == idx, axis=1))
