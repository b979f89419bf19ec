"""Low-level sliced scans over dense operation tables.

Everything here works on plain ``n x n`` integer arrays whose entries are
element indices, so the same scans back groups, rings and bare magmas.
Scans report the lexicographically first failing tuple, which keeps
witnesses deterministic regardless of slice size, the one constant
`SCAN_CELLS`; whether a grid is scanned at all is `decide`'s rule. The
generator-based tests (`magma_generators`, `light_associative`) only answer
yes or no; a constructor that must name a non-associative triple runs the
full scan (`first_associativity_failure`) on the table that failed them.
Constructors refuse a carrier over `DEFAULT_ORDER_BUDGET` elements before
building it (`check_order`, `check_power_order`), and spec parsers a number
of more than `MAX_SPEC_DIGITS` digits (`spec_number`). `magma_generators`
tries element 0 last and grows what it reaches semi-naively, so a group's
identity is never a generator and a cyclic run is reached in log n rounds;
the constructors validate with its generators, and the subgroup series take
the few generators of a large term from it. Builders index flat tables
through `flat_cells`, in int32 while the n^2 cells fit. Every op of a scan is
one `gather`, a single `take` from the flat intp table at the intp cells
a * n + b, and a failing slice's first cell is decoded from the slice's own
axes: the prefix scalars, the lead block and the representative arrays.

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

A group law also skips tuples by conjugation. Conjugation by g is an
automorphism, so every word w satisfies w(x1^g, ..., xk^g) = w(x1, ..., xk)^g,
and a tuple fails the law exactly when each of its simultaneous conjugates
does. `first_failure` fixes the leading variables of each slice as scalars;
call such a prefix clean once every continuation of it on the grid of
representatives held. By the class argument above, a clean prefix P then holds
with every continuation in G^(k-L), and conjugating by g maps the
continuations of P onto those of P^g, so P^g cannot hold a failure either.
The walker skips a prefix whose orbit under simultaneous conjugation
(`orbit_keys`) already holds a clean prefix: the first failure, its position
and the verdict are those of the full scan, found in one pass. Only group-law
scans pass the conjugate table, one of the group's own `law_tables`: (R,+) of
a ring law has no conjugation to use, and the table scans (interchange,
associativity) stay independent of G.

One rule (`decide`) admits every budgeted scan, of the group laws of `words`,
the ring laws of `rings` and the interchange of `magmas`: a grid of n^k <=
budget tuples is scanned by `first_failure`, a larger one is sampled
(`scan_sampled`) when a sample count and seed are given, and otherwise refused
before anything is built. A sampled scan first scans a small class grid, whose
clean pass settles the verdict, or else draws a seeded stream whose witness
depends on (seed, count) alone; a clean pass is evidence, not proof. Every
scan ends in a `Verdict` (`exhaustive_verdict`, `scan_sampled`), and
`DEFAULT_EVAL_BUDGET`, `DEFAULT_SAMPLES` and `DEFAULT_SEED` are every caller's
defaults. The table route (`magmas`) takes its verdicts from here, never from
the word language.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, SpecError

# Most tuples one slice of a scan holds, read whenever a scan runs. A slice's
# intp temporaries (`gather`) take fresh pages on every slice from 2^15 cells
# on: dihedral:16 CI had 320-350 page faults and took 1.3-1.5 ms per scan at
# 2^15-2^16, none and 0.52 ms at 2^14, and 0.61 and 0.90 ms at 2^13 and 2^12
# (more slices; 2 vCPUs of an Intel Xeon, numpy 2.4).
SCAN_CELLS = 1 << 14

# Most full trailing axes a `first_failure` slice spans (numpy allows 64).
MAX_AXES = 32

# Most tuples a budgeted scan visits before it is sampled or refused (`decide`),
# and the sample count and seed of a sampled scan, unless the caller sets them.
DEFAULT_EVAL_BUDGET = 10**8
DEFAULT_SAMPLES = 10**6
DEFAULT_SEED = 1

# A sampled law scan first scans the grid of class representatives when that
# grid has at most this many tuples per requested sample (`scan_sampled`).
# Measured on 2 vCPUs of an Intel Xeon (Python 3.11, numpy 2.4): the grid
# costs 7-11 ns per tuple (metacyclic:7,3,2 L3: 21^5 tuples in 31 ms) and a
# drawn row 66-102 ns (10^6 rows of L2 in 66 ms, of L3 in 94-102 ms), so a
# clean grid scan costs no more than the sampling it replaces.
_GRID_PER_SAMPLE = 8
# Rows of a sampled scan's first draw; each later one doubles (`scan_sampled`).
_FIRST_DRAW = 64

# Largest carrier the group and ring constructors build.
DEFAULT_ORDER_BUDGET = 1024

# Most digits of a number in a group or ring spec; int() refuses past 4300.
MAX_SPEC_DIGITS = 100


def check_order(order: int, what: str) -> None:
    if order > DEFAULT_ORDER_BUDGET:
        raise ValueError(f"{what} has order {order}, exceeding the order budget {DEFAULT_ORDER_BUDGET}")


def check_power_order(base: int, exp: int, what: str) -> None:
    """check_order for order base**exp, without computing a power sure to exceed it.

    With base >= 2 and exp >= 64, base**exp >= 2**64 is far over the budget;
    such an order is named as base^exp. Smaller powers are computed and named
    in full.
    """
    if base > 1 and exp >= 64:
        raise ValueError(f"{what} has order {base}^{exp}, exceeding the order budget {DEFAULT_ORDER_BUDGET}")
    check_order(base**exp, what)


def spec_number(digits: str, what: str) -> int:
    """int(digits) for a run of decimal digits, refused past `MAX_SPEC_DIGITS` before converting."""
    if len(digits) > MAX_SPEC_DIGITS:
        raise SpecError(f"{what} has {len(digits)} digits, more than the limit of {MAX_SPEC_DIGITS}")
    return int(digits)


def carrier_names(names, order: int) -> tuple[str, ...]:
    """Display names as strings, checked to be one per element and pairwise distinct."""
    names = tuple(str(s) for s in names)
    if len(names) != order:
        raise ValueError(f"got {len(names)} names for order {order}")
    if len(set(names)) != order:
        raise ValueError("element names must be pairwise distinct")
    return names


def as_table(op, order: int | None = None) -> np.ndarray:
    """A read-only square int32 copy of a table of element indices. Entries must be
    integers, not bools, and are range-checked before the cast, which could wrap or
    raise. The copy leaves the caller's array writable and apart from the table."""
    table = np.asarray(op)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"operation table must be square, got shape {table.shape}")
    n = table.shape[0]
    if order is not None and n != order:
        raise ValueError(f"table has order {n}, expected {order}")
    if n == 0:
        raise ValueError("empty carrier")
    # Read as unsigned, a negative entry is huge, so one max checks both bounds.
    if table.dtype.kind not in "iu" or table.view(table.dtype.str.replace("i", "u")).max() >= n:
        raise ValueError("table entries must be element indices in [0, order)")
    table = np.array(table, dtype=np.int32, order="C")
    table.setflags(write=False)
    return table


def gather(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for broadcastable index arrays or scalars, as one take from the flat table.

    Scans pass intp tables and intp indices, so the flat index a * n + b cannot
    overflow and the values taken are intp indices already. Measured on
    dihedral:16's intp table (2 vCPUs of an Intel Xeon, numpy 2.4), one call
    costs 1.8-2.2 us on one cell, where `np.take` with an `np.asarray` cast
    cost 3.4-3.9 us, and 1.40-1.45 ns per cell on 2^14 cells (1.46-1.52).
    """
    return table.ravel().take(a * table.shape[1] + b)


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


def class_reps(tables, lines, n: int, known: dict | None = None) -> list[np.ndarray]:
    """Ascending indices of the smallest element of each class, one array per variable.

    `lines` holds, per variable, the set of (key, axis) lines it is read
    through: row i (axis 0) or column i (axis 1) of the n x n array
    tables[key] is a line of element i. Elements whose lines all agree,
    compared exactly as raw bytes, form one class. None keeps every element,
    and an empty set makes one class. Each line is keyed once per call, and
    variables with the same set share one array. `known`, a dict the caller
    keeps for one set of tables, maps each line set to its classes: it is
    read, and filled with the sets this call derives.
    """
    lines = [None if s is None else frozenset(s) for s in lines]
    keys: dict = {}
    found: dict = {} if known is None else known
    if not found:
        found.update({None: np.arange(n), frozenset(): np.arange(1)})
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


def orbit_keys(conj: np.ndarray, length: int):
    """key(prefix) for tuples of `length` elements, equal exactly for simultaneous conjugates.

    conj[x, g] = x^g is the conjugate table of a group of order n. The key of
    (x1, ..., xL) is its smallest code sum(xi^g * n^(L-i)) over g in G. The
    codes of one head (x1, ..., x_(L-1)) and every last element are one O(n^2)
    row, kept per head. Returns None when n^L >= 2^62, where a code might not
    fit in int64.
    """
    n = len(conj)
    if n**length >= 1 << 62:
        return None
    conj = conj.astype(np.int64, copy=False)
    rows: dict = {}

    def key(prefix) -> int:
        head = prefix[:-1]
        row = rows.get(head)
        if row is None:
            code = np.zeros(n, dtype=np.int64)  # the head's code under each g
            for x in head:
                code = code * n + conj[x]
            row = rows[head] = (conj + code * n).min(axis=1).tolist()
        return row[prefix[-1]]

    return key


def first_failure(reps, failing, conjugates=None) -> tuple[int, ...] | None:
    """Lexicographically first tuple of reps[0] x ... x reps[k-1] where `failing` holds.

    `reps` holds one ascending index array per variable. `failing(axes)` gets
    one broadcastable index array per variable and returns a boolean array,
    broadcastable to the grid they span, that is true where the check fails.
    The trailing variables (at most `MAX_AXES`) get one full axis each, so a
    subterm costs the product of its own variables' ranges; the leading ones
    are fixed as scalars, and the one in between is cut into blocks, so one
    slice holds at most `SCAN_CELLS` tuples, read at each call (a block of one
    element is a scalar too). Slices are visited in lexicographic order, and
    the first true cell of the C-order ravel of the first failing slice is the
    answer, read from the prefix, the block and the representative arrays at
    that cell's coordinates. With no variables, `failing([])` is called once
    and the empty tuple is the only candidate.

    `conjugates`, for a group law only, is the conjugate table
    conj[x, g] = x^g of the group. A prefix of scalars whose orbit under
    simultaneous conjugation holds one already scanned clean is then skipped
    (see the module docstring). The orbit keys are first computed once the
    first prefix has scanned clean, so a failure in it computes none.
    """
    k, cells = len(reps), SCAN_CELLS
    if k == 0:
        return () if np.any(failing([])) else None
    free, trail = 0, 1  # full trailing axes, and the tuples they span
    while free < min(k - 1, MAX_AXES) and trail * len(reps[k - 1 - free]) <= cells:
        free, trail = free + 1, trail * len(reps[k - 1 - free])
    lead = k - 1 - free
    width = max(1, cells // trail)
    tail = [r.reshape((-1,) + (1,) * (k - 1 - i)) for i, r in enumerate(reps) if i > lead]
    if width == 1:
        fixed, blocks = lead + 1, [[]]
    else:
        fixed = lead
        blocks = [
            [reps[lead][lo : lo + width].reshape((-1,) + (1,) * free)]
            for lo in range(0, len(reps[lead]), width)
        ]
    if math.prod(map(len, reps[:fixed])) < 2:  # one prefix: nothing to skip
        conjugates = None
    keys = clean = None  # the orbit keys, and those of the prefixes scanned clean
    for prefix in itertools.product(*reps[:fixed]):
        if clean is not None:
            key = keys(prefix)
            if key in clean:
                continue
        for block in blocks:
            axes = [*prefix, *block, *tail]
            bad = failing(axes)
            if bad.any():
                # The slice's axes are the block's and the tail's. `bad` may span
                # fewer, or length 1 where it does not vary: index 0 there.
                lines = [*(a.ravel() for a in block), *reps[lead + 1 :]]
                hit = np.unravel_index(int(bad.argmax()), bad.shape)
                hit = (0,) * (len(lines) - bad.ndim) + hit
                return (*map(int, prefix), *(int(v[i]) for v, i in zip(lines, hit)))
        if clean is not None:
            clean.add(key)
        elif conjugates is not None:  # the first prefix scanned clean
            keys, conjugates = orbit_keys(conjugates, fixed), None
            if keys is not None:
                clean = {keys(prefix)}
    return None


# ---------------------------------------------------------------------------
# verdicts, sampling and admission
# ---------------------------------------------------------------------------

HOLDS_EXHAUSTIVE = "holds-exhaustive"
HOLDS_SAMPLED = "holds-sampled"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a universally quantified check.

    For counterexamples found by exhaustive scans the witness is the
    lexicographically smallest failing assignment and `evaluations` is its
    1-based position in lexicographic order (deterministic regardless of
    slice size); for clean exhaustive passes it is the full count.
    """

    status: str
    evaluations: int
    witness: dict[str, str] | None = None
    sample_count: int | None = None
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return self.status != COUNTEREXAMPLE

    def to_dict(self) -> dict:
        out: dict = {"status": self.status, "evaluations": self.evaluations}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.sample_count is not None:
            out["sample_count"] = self.sample_count
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def describe(self) -> str:
        if self.status == COUNTEREXAMPLE:
            bindings = ", ".join(f"{k}={v}" for k, v in self.witness.items())
            mode = f" (sampled, seed={self.seed})" if self.seed is not None else ""
            return f"counterexample{mode} after {self.evaluations} evaluations: {bindings}"
        if self.status == HOLDS_SAMPLED:
            return f"holds-sampled (count={self.sample_count}, seed={self.seed}; not a proof)"
        return f"holds-exhaustive ({self.evaluations} evaluations)"


def _witness_dict(variables: tuple[str, ...], digits, names) -> dict[str, str]:
    return {v: names[int(d)] for v, d in zip(variables, digits)}


def exhaustive_verdict(bad, variables, names) -> Verdict:
    """Verdict of a lexicographic scan over names^k that first failed at `bad`, or never.

    `bad` is a tuple of element indices, one per variable, or None
    (`first_failure`); `evaluations` is its 1-based position in the full
    grid, or the size of the grid when nothing failed.
    """
    n = len(names)
    if bad is None:
        return Verdict(HOLDS_EXHAUSTIVE, evaluations=n ** len(variables))
    pos = 0
    for d in bad:
        pos = pos * n + d
    witness = _witness_dict(variables, bad, names)
    return Verdict(COUNTEREXAMPLE, evaluations=pos + 1, witness=witness)


def check_sampling(count: int, seed: int) -> None:
    """Refuse a sample count below 1 or a negative seed, before any path decides whether to draw."""
    if count < 1:
        raise ValueError("sample count must be at least 1")
    if seed < 0:
        raise ValueError(f"sampling seed must be non-negative, got {seed}")


def scan_sampled(variables: tuple[str, ...], names, failing, count: int, seed: int, reps,
                 conjugates) -> Verdict:
    """Scan `count` seeded pseudo-random assignments of range(n)^k for a failure, n = len(names).

    `failing(axes)` gets one index array per variable and returns a boolean
    array, broadcastable to the shape they span, that is true where the law
    fails. Assignments are the rows of `rng.integers` draws of `_FIRST_DRAW`
    rows, then twice as many each time up to `SCAN_CELLS`, so an early
    failure costs a short draw; the rows do not depend on the cuts, so the
    witness and the evaluation count depend on (seed, count) only. A found
    counterexample is definitive; a clean pass is evidence, not proof.

    `reps` holds the law's class representatives (`words._law_scan`). When their
    grid has at most `_GRID_PER_SAMPLE` * count tuples, it is scanned first,
    skipping prefixes by `conjugates` as `first_failure` does: if none fails,
    no tuple of range(n)^k fails, so no drawn row could, and the
    verdict the stream would give is returned without drawing it.
    """
    check_sampling(count, seed)
    passed = Verdict(HOLDS_SAMPLED, evaluations=count, sample_count=count, seed=seed)
    small = math.prod(map(len, reps)) <= _GRID_PER_SAMPLE * count
    if small and first_failure(reps, failing, conjugates) is None:
        return passed
    rng, cap = np.random.default_rng(seed), SCAN_CELLS
    done, step = 0, min(_FIRST_DRAW, cap)
    while done < count:
        size = min(step, count - done)
        step = min(2 * step, cap)
        sample = rng.integers(0, len(names), size=(size, len(variables)), dtype=np.int64)
        bad = np.broadcast_to(failing(list(sample.T)), (size,))
        if bad.any():
            hit = int(np.argmax(bad))
            witness = _witness_dict(variables, sample[hit], names)
            return Verdict(COUNTEREXAMPLE, done + hit + 1, witness, count, seed)
        done += size
    return passed


def decide(variables, names, budget: int, refusal, scan, sampling=None) -> Verdict:
    """Verdict of a brute-force check over names^k, k = len(variables), under `budget`.

    The one rule that admits a scan: a grid of n^k <= budget assignments is
    scanned exhaustively (`first_failure`, `exhaustive_verdict`); a larger
    one is sampled (`scan_sampled`) when `sampling` = (count, seed) is
    given, and otherwise refused with BudgetExceededError(refusal(n^k))
    before `scan` is called. `scan()` builds what the scan reads and returns
    (reps, failing, conjugates): the conjugate table of a group law, by which
    the scan skips prefixes, or None.
    """
    total = len(names) ** len(variables)
    if total > budget and sampling is None:
        raise BudgetExceededError(refusal(total))
    reps, failing, conjugates = scan()
    if total > budget:
        return scan_sampled(variables, names, failing, *sampling, reps, conjugates)
    return exhaustive_verdict(first_failure(reps, failing, conjugates), variables, names)


def first_associativity_failure(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (x, y, z), lexicographic, with (xy)z != x(yz)."""
    reps = class_reps({"*": table}, [{("*", 0)}, {("*", 0), ("*", 1)}, {("*", 1)}], len(table))
    t = table.astype(np.intp)

    def failing(axes):
        x, y, z = axes
        return gather(t, gather(t, x, y), z) != gather(t, x, gather(t, y, z))

    return first_failure(reps, failing)


def interchange_scan(s: np.ndarray, b: np.ndarray):
    """(reps, failing, None) of the interchange scan, as `decide` takes them.

    `reps` holds the class representatives of (w, x, y, z), and `failing` is
    true where (w*x)•(y*z) != (w•y)*(x•z), for the star table `s` (*) and the
    bullet table `b` (•); `first_failure` on them gives the first failing
    quadruple, lexicographic. Nothing but the two tables is read, so no
    conjugate table is passed.
    """
    lines = [{("*", i), ("•", j)} for j in (0, 1) for i in (0, 1)]  # w, x, y, z
    reps = class_reps({"*": s, "•": b}, lines, len(s))
    s, b = s.astype(np.intp), b.astype(np.intp)

    def failing(axes):
        w, x, y, z = axes
        lhs = gather(b, gather(s, w, x), gather(s, y, z))
        return lhs != gather(s, gather(b, w, y), gather(b, x, z))

    return reps, failing, None


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
    The left side gathers rows xa of the table; the right side gathers its
    columns ay, by `take` along axis 1.
    """
    return all(np.array_equal(table[table[:, a]], np.take(table, table[a], axis=1)) for a in gens)


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first true entry of a flat boolean array, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, int] | None:
    """First (x, y), lexicographic, where the two tables differ."""
    flat = _first_true((a != b).ravel())
    return None if flat is None else divmod(flat, a.shape[0])


def right_inverses(table: np.ndarray, e: int) -> np.ndarray | None:
    """For each x the first y with xy = e, as read-only int32, or None if a row lacks e."""
    hits = table == e
    inv = np.argmax(hits, axis=1)
    if not hits[np.arange(len(table)), inv].all():
        return None
    inv = inv.astype(np.int32)
    inv.setflags(write=False)
    return inv


def _first_column_match(table: np.ndarray, rows: np.ndarray, want) -> int | None:
    """The first r of `rows` whose column of `table` equals `want`, broadcast over those columns."""
    cols = np.take(table, rows, axis=1)  # [x, i] -> table[x, rows[i]]
    hit = _first_true(np.all(cols == want, axis=0))
    return None if hit is None else int(rows[hit])


def two_sided_identity(table: np.ndarray) -> int | None:
    """The unique two-sided identity element e (row e and column e are 0..n-1), if any.

    Rows are compared first, reading the table in order; only the columns of
    the rows that pass are read.
    """
    idx = np.arange(table.shape[0], dtype=table.dtype)
    rows = np.flatnonzero(np.all(table == idx, axis=1))
    return _first_column_match(table, rows, idx[:, None])


def two_sided_zero(table: np.ndarray) -> int | None:
    """The first element z with z*x = x*z = z for all x (row z and column z all z), if any.

    Rows are compared first, reading the table in order; only the columns of
    the rows that pass are read.
    """
    idx = np.arange(table.shape[0], dtype=table.dtype)
    rows = np.flatnonzero(np.all(table == idx[:, None], axis=1))
    return _first_column_match(table, rows, rows)
