"""Plain full table scans, kept as oracles for the representative scans in `tables`.

These are the scans `tables.first_associativity_failure` and
`magmas.satisfies_interchange` ran before they visited one element per class
of indistinguishable lines: every triple or quadruple, in row blocks, in
lexicographic order. They share no code with the scans they check.
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
