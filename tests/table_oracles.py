"""Plain full table scans, kept as oracles for the representative scans in `tables`.

These are the scans `tables.first_associativity_failure` and
`magmas.satisfies_interchange` ran before they visited one element per class
of indistinguishable lines: every triple or quadruple, in row blocks, in
lexicographic order. `cubic_ring_error` checks every ring axiom the same way,
against the generator checks of `FiniteRing`. They share no code with the
scans they check.
"""

import numpy as np

# Cells per block of the full scans.
BLOCK = 1 << 22


def cubic_associativity_scan(table):
    """First (x, y, z), lexicographic, with (xy)z != x(yz), over all n^3 triples."""
    n = table.shape[0]
    blk = max(1, BLOCK // (n * n))
    for x0 in range(0, n, blk):
        rows = table[x0 : x0 + blk]
        lhs = table[rows]  # [x, y, z] -> table[table[x, y], z]
        rhs = rows[:, table]  # [x, y, z] -> table[x, table[y, z]]
        neq = lhs != rhs
        if neq.any():
            b, y, z = np.unravel_index(int(np.argmax(neq)), neq.shape)
            return (x0 + int(b), int(y), int(z))
    return None


def cubic_ring_error(add, mul) -> str | None:
    """The first ring axiom the tables fail, worded as `FiniteRing` words it, or None.

    Every law is checked over all of its triples, in a fixed order: addition
    Latin, commutative, associative and with a zero; then the product
    associative, naming its first failing triple; then x(y+z) = xy + xz (left
    distributive), then (y+z)x = yx + zx (right distributive).
    """
    add, mul = np.asarray(add, dtype=np.int32), np.asarray(mul, dtype=np.int32)
    n = add.shape[0]
    idx = np.arange(n)
    if not (np.all(np.sort(add, axis=1) == idx) and np.all(np.sort(add, axis=0) == idx[:, None])):
        return "addition table is not a Latin square"
    if not np.array_equal(add, add.T):
        return "addition must be commutative"
    if cubic_associativity_scan(add) is not None:
        return "addition must be associative"
    if not np.all(add == idx, axis=1).any():
        return "addition has no zero element"
    bad = cubic_associativity_scan(mul)
    if bad is not None:
        return f"multiplication is not associative at {bad}"
    blk = max(1, BLOCK // (n * n))
    # part[x, y] is xy for the left law and yx for the right one
    for side, part in (("left", mul), ("right", mul.T)):
        for x0 in range(0, n, blk):
            rows = part[x0 : x0 + blk]
            if not np.array_equal(rows[:, add], add[rows[:, :, None], rows[:, None, :]]):
                return f"multiplication does not {side}-distribute over addition"
    return None


def quartic_interchange_scan(s, b):
    """First (w, x, y, z), lexicographic, with (w*x)•(y*z) != (w•y)*(x•z), over all n^4."""
    n = s.shape[0]
    blk = max(1, BLOCK // n**3)
    for w0 in range(0, n, blk):
        sw = s[w0 : w0 + blk]  # [w, x] -> w*x
        bw = b[w0 : w0 + blk]  # [w, y] -> w•y
        lhs = b[sw[:, :, None, None], s[None, None, :, :]]
        rhs = s[bw[:, None, :, None], b[None, :, None, :]]
        neq = lhs != rhs
        if neq.any():
            w, x, y, z = np.unravel_index(int(np.argmax(neq)), neq.shape)
            return (w0 + int(w), int(x), int(y), int(z))
    return None


def scan_verdict(bad, variables, names) -> dict:
    """Verdict fields of a lexicographic scan over names^k that first failed at `bad`."""
    n = len(names)
    if bad is None:
        return {"status": "holds-exhaustive", "evaluations": n ** len(variables)}
    position = sum(d * n ** (len(bad) - 1 - i) for i, d in enumerate(bad))
    return {
        "status": "counterexample",
        "evaluations": position + 1,
        "witness": {v: names[d] for v, d in zip(variables, bad)},
    }
