"""Plain word-law scans, kept as oracles for the law checker in `words`.

`naive_check` evaluates every assignment with the scalar `evaluate`;
`flat_index_scan` is the scan the broadcast grid replaced, with brackets,
conjugates and powers written out from `mul` and `inv`. Both visit the full
n^k grid in lexicographic order and share no code with the scans they check.
`stream_scan` walks the seeded sample stream of `check_law_sampled` row by
row with the scalar `evaluate`.
"""

import itertools

import numpy as np

from dmagma.tables import COUNTEREXAMPLE, HOLDS_EXHAUSTIVE, HOLDS_SAMPLED, Verdict
from dmagma.words import (
    Bracket,
    Conjugate,
    IdentityLiteral,
    IntPower,
    Inverse,
    Product,
    Variable,
    evaluate,
)


def naive_check(group, law):
    """Oracle: plain nested loops in lexicographic order, scalar evaluation."""
    k = len(law.variables)
    for pos, combo in enumerate(itertools.product(range(group.order), repeat=k)):
        env = dict(zip(law.variables, combo))
        if evaluate(law.lhs, group, env) != evaluate(law.rhs, group, env):
            witness = {v: group.names[i] for v, i in env.items()}
            return Verdict("counterexample", evaluations=pos + 1, witness=witness)
    return Verdict("holds-exhaustive", evaluations=group.order**k)


def formula_eval(term, group, env, size):
    """Oracle: batch evaluation straight from mul and inv, with no derived tables.

    Brackets and conjugates use the products that define them, and a power
    multiplies its base |k| times.
    """
    mul, inv = group.mul, group.inv

    def ev(t):
        if isinstance(t, Variable):
            return env[t.name]
        if isinstance(t, IdentityLiteral):
            return np.zeros(size, dtype=np.int32)
        if isinstance(t, Inverse):
            return inv[ev(t.base)]
        if isinstance(t, Product):
            return mul[ev(t.left), ev(t.right)]
        if isinstance(t, Conjugate):
            x, y = ev(t.base), ev(t.by)
            return mul[mul[inv[y], x], y]
        if isinstance(t, Bracket):
            x, y = ev(t.left), ev(t.right)
            return mul[mul[inv[x], inv[y]], mul[x, y]]
        if isinstance(t, IntPower):
            base = ev(t.base) if t.exponent >= 0 else inv[ev(t.base)]
            acc = np.zeros(size, dtype=np.int32)
            for _ in range(abs(t.exponent)):
                acc = mul[acc, base]
            return acc
        raise TypeError(t)

    return ev(term)


def flat_index_scan(group, law):
    """Oracle: the scan the broadcast grid replaced.

    Every chunk of assignments is a flat int64 index range; each variable is
    decoded from it with // and %, and every subterm is evaluated at full
    chunk size by `formula_eval`.
    """
    n, k = group.order, len(law.variables)
    total = n**k
    weights = [n ** (k - 1 - i) for i in range(k)]
    chunk = 1 << 20
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop, dtype=np.int64)
        env = {v: ((flat // w) % n).astype(np.int32) for v, w in zip(law.variables, weights)}
        size = stop - start
        neq = formula_eval(law.lhs, group, env, size) != formula_eval(law.rhs, group, env, size)
        if neq.any():
            pos = start + int(np.argmax(neq))
            witness = {v: group.names[pos // w % n] for v, w in zip(law.variables, weights)}
            return Verdict(COUNTEREXAMPLE, evaluations=pos + 1, witness=witness)
    return Verdict(HOLDS_EXHAUSTIVE, evaluations=total)


def stream_scan(group, law, count, seed):
    """Oracle: draw the seeded rows of a sampled check and evaluate each with scalar lookups.

    All `count` rows come from one `rng.integers` draw; the sampled check
    draws them in slices, which yields the same rows.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, group.order, size=(count, len(law.variables)), dtype=np.int64)
    for pos, row in enumerate(rows):
        env = {v: int(i) for v, i in zip(law.variables, row)}
        if evaluate(law.lhs, group, env) != evaluate(law.rhs, group, env):
            witness = {v: group.names[i] for v, i in env.items()}
            return Verdict(COUNTEREXAMPLE, pos + 1, witness, count, seed)
    return Verdict(HOLDS_SAMPLED, count, None, count, seed)
