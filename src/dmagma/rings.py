"""Finite rings as paired addition/multiplication tables, with Lie-bracket laws.

The bracket <x,y> = xy - yx drives everything here. The registry's bracket
laws are builtin commutator laws of `words` read in the Lie ring: (R,+)
stands for the group, with <x,y> in place of [x,y], so the one word-law
evaluator decides them. Iterated brackets nest to the left,
<x,y,z> = <<x,y>,z>, as on the group side.

Matrix rings are built one supported entry at a time from per-entry digit
columns (`_matrix_ring_from_entries`), after their order n^d and their d
entries per element have both passed the order budget.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecError
from .tables import (
    DEFAULT_ORDER_BUDGET,
    SCAN_CELLS,
    as_table,
    carrier_names,
    check_order_budget,
    check_power_budget,
    first_associativity_failure,
    first_failure,
    gather,
    is_latin,
    light_associative,
    magma_generators,
    two_sided_identity,
)
from .words import (
    DEFAULT_EVAL_BUDGET,
    Bracket,
    IdentityLiteral,
    IntPower,
    Inverse,
    Product,
    Verdict,
    _law_scan,
    builtin_law,
    check_sampling,
    exhaustive_verdict,
    scan_sampled,
)

_DEFAULT_SAMPLES = 10**6

# Each ring law is a builtin commutator law read in the Lie ring: <x,y> for [x,y].
RING_WORD_LAWS = {
    "RCI": "CI",
    "ALT3M": "3M_I",
    "DOUBLE2": "SQUARE",
    "NILP2": "CLASS2",
    "PROPER_WITNESS": "COMM_SQ",
}
RING_LAWS = tuple(RING_WORD_LAWS)


def _generator_checks_pass(add: np.ndarray, mul: np.ndarray) -> bool:
    """Ring axioms past the Latin and commutativity checks, in O(|A| n^2).

    A generates (R,+). Addition is associative by Light's test over A. A map f
    with f(y+a) = f(y) + f(a) for all y and every a in A is additive, which
    gives both distributive laws from their instances at the generators; the
    associator is then additive in each argument, so A^3 decides
    associativity of the product.
    """
    gens = magma_generators(add)
    if not light_associative(add, gens):
        return False
    for a in gens:
        if not np.array_equal(mul[:, add[:, a]], add[mul, mul[:, a][:, None]]):  # x(y+a) = xy + xa
            return False
        if not np.array_equal(mul[add[:, a]], add[mul, mul[a][None, :]]):  # (y+a)x = yx + ax
            return False
    g = np.asarray(gens)
    ab = mul[np.ix_(g, g)]
    return np.array_equal(mul[ab][:, :, g], mul[g][:, ab])  # (ab)c = a(bc)


class FiniteRing:
    """A finite (not necessarily unital) ring given by dense add and mul tables.

    Tables are validated in O(|A| n^2) for a generating set A of (R,+). A
    table that fails is rescanned in full, so the error names the first
    failing axiom in the fixed order below and, for the product, the first
    non-associative triple.
    """

    def __init__(self, add, mul, names, label: str | None = None):
        add = as_table(add)
        n = add.shape[0]
        mul = as_table(mul, n)
        names = carrier_names(names, n)
        if not is_latin(add):
            raise ValueError("addition table is not a Latin square")
        if not np.array_equal(add, add.T):
            raise ValueError("addition must be commutative")
        valid = _generator_checks_pass(add, mul)
        if not valid and first_associativity_failure(add) is not None:
            raise ValueError("addition must be associative")
        zero = two_sided_identity(add)
        if zero is None:
            raise ValueError("addition has no zero element")
        neg = np.argmax(add == zero, axis=1).astype(np.int32)
        neg.setflags(write=False)
        if not valid:
            bad = first_associativity_failure(mul)
            if bad is not None:
                raise ValueError(f"multiplication is not associative at {bad}")
        self.order = n
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero = zero
        self._bracket = add[mul, neg[mul.T]]
        self._bracket.setflags(write=False)
        self.names = names
        self.label = label if label is not None else f"ring-of-order-{n}"
        if not valid:
            self._check_distributive()

    def _check_distributive(self):
        a, m = self.add.astype(np.intp), self.mul.astype(np.intp)
        reps = [np.arange(self.order)] * 3

        def left(axes):  # x*(y+z) == x*y + x*z
            x, y, z = axes
            return gather(m, x, gather(a, y, z)) != gather(a, gather(m, x, y), gather(m, x, z))

        def right(axes):  # (x+y)*z == x*z + y*z
            x, y, z = axes
            return gather(m, gather(a, x, y), z) != gather(a, gather(m, x, z), gather(m, y, z))

        if first_failure(reps, left) is not None:
            raise ValueError("multiplication does not left-distribute over addition")
        if first_failure(reps, right) is not None:
            raise ValueError("multiplication does not right-distribute over addition")

    def __repr__(self):
        return f"FiniteRing({self.label!r}, order={self.order})"

    def name(self, x: int) -> str:
        return self.names[x]

    def bracket_table(self) -> np.ndarray:
        """Read-only table of <x,y> = xy - yx, computed once per ring."""
        return self._bracket


def lie_bracket(r: FiniteRing, x: int, y: int) -> int:
    """<x,y> = xy - yx via table lookups."""
    return int(r.add[r.mul[x, y], r.neg[r.mul[y, x]]])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_zmod(n: int, order_budget: int = DEFAULT_ORDER_BUDGET) -> FiniteRing:
    """Integers mod n with the usual tables."""
    if n < 1:
        raise ValueError("modulus must be at least 1")
    check_order_budget(n, order_budget, "zmod ring")
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, [str(i) for i in range(n)], label=f"zmod:{n}")


def _matrix_ring_from_entries(kind: str, k: int, n: int, order_budget: int) -> FiniteRing:
    """Ring `kind:k,n` of all ("matrix") or upper-triangular ("uppertri") k x k matrices mod n.

    Its d supported positions (k^2, or k(k+1)/2) are held to the order budget
    before anything is built, and so is its order n^d: with n = 1 the order is
    1 for every d, but each element's name still lists d entries.

    Element e has digit (e // n^(d-1-s)) % n at positions[s], row-major. Both
    tables are sums, over the supported positions (i, j) = positions[s], of
    n^(d-1-s) times that entry of the result: (e_ij(a) + e_ij(b)) % n for the
    sum and (sum_m e_im(a) e_mj(b)) % n for the product, one order x order
    layer per position.
    """
    label, upper = f"{kind}:{k},{n}", kind == "uppertri"
    d = k * (k + 1) // 2 if upper else k * k
    check_power_budget(n, d, order_budget, label)
    if d > order_budget:
        raise ValueError(f"{label} has {d} entries per element, exceeding the order budget {order_budget}")
    positions = [(i, j) for i in range(k) for j in range(i if upper else 0, k)]
    order = n**d
    # No partial value reaches max(order, k * n * n); int32 arithmetic is several times faster.
    dtype = np.int32 if max(order, k * n * n) < 2**31 else np.int64
    idx = np.arange(order, dtype=np.int64)
    entry = {pos: ((idx // n ** (d - 1 - s)) % n).astype(dtype) for s, pos in enumerate(positions)}
    add = np.zeros((order, order), dtype=dtype)
    mul = np.zeros((order, order), dtype=dtype)
    # With n = 1 every entry is 0 and both tables are [[0]], whatever k is.
    for s, (i, j) in enumerate(positions if n > 1 else []):
        weight = n ** (d - 1 - s)
        e = entry[i, j]
        add += (np.add.outer(e, e) % n) * weight
        dot = sum(np.multiply.outer(entry[i, m], entry[m, j])
                  for m in range(k) if (i, m) in entry and (m, j) in entry)
        mul += (dot % n) * weight
    zero = np.zeros(order, dtype=dtype)
    rows = [[entry.get((i, j), zero).tolist() for j in range(k)] for i in range(k)]
    names = ["[" + ";".join(",".join(str(row[j][e]) for j in range(k)) for row in rows) + "]"
             for e in range(order)]
    return FiniteRing(add, mul, names, label=label)


def make_matrix_ring(k: int, n: int, order_budget: int = DEFAULT_ORDER_BUDGET) -> FiniteRing:
    """Full ring of k x k matrices over the integers mod n."""
    if k < 1 or n < 1:
        raise ValueError("matrix ring needs k >= 1 and n >= 1")
    return _matrix_ring_from_entries("matrix", k, n, order_budget)


def make_upper_triangular(k: int, n: int, order_budget: int = DEFAULT_ORDER_BUDGET) -> FiniteRing:
    """Subring of upper-triangular k x k matrices over the integers mod n."""
    if k < 1 or n < 1:
        raise ValueError("upper-triangular ring needs k >= 1 and n >= 1")
    return _matrix_ring_from_entries("uppertri", k, n, order_budget)


def parse_ring_spec(spec: str, order_budget: int = DEFAULT_ORDER_BUDGET) -> FiniteRing:
    """Build a ring from its mini-syntax: zmod:n | matrix:k,n | uppertri:k,n."""
    text = spec.strip()
    head, sep, args = text.partition(":")
    if not sep:
        raise SpecError(f"ring spec {spec!r} needs the form name:args")
    try:
        numbers = [int(a) for a in args.split(",")] if args else []
    except ValueError:
        raise SpecError(f"ring spec {spec!r}: arguments must be integers") from None
    try:
        if head == "zmod" and len(numbers) == 1:
            return make_zmod(numbers[0], order_budget)
        if head == "matrix" and len(numbers) == 2:
            return make_matrix_ring(*numbers, order_budget=order_budget)
        if head == "uppertri" and len(numbers) == 2:
            return make_upper_triangular(*numbers, order_budget=order_budget)
    except ValueError as e:
        raise SpecError(f"{spec!r}: {e}") from None
    raise SpecError(
        f"unknown ring spec {spec!r} (expected zmod:n, matrix:k,n, or uppertri:k,n)"
    )


# ---------------------------------------------------------------------------
# bracket laws
# ---------------------------------------------------------------------------


def check_ring_law(
    r: FiniteRing,
    name: str,
    budget: int = DEFAULT_EVAL_BUDGET,
    sample_count: int = _DEFAULT_SAMPLES,
    seed: int = 1,
) -> Verdict:
    """Decide one of the registry laws on the ring by brute force.

    RCI    : <w,x;y,z> = <w,y;x,z>   (CI)
    ALT3M  : <x,y;x,z> = 0           (3M_I)
    DOUBLE2: 2<w,x;y,z> = 0          (SQUARE)
    NILP2  : <x,y,z> = 0             (CLASS2)
    PROPER_WITNESS scans the law 2<x,y> = 0 (COMM_SQ); a counterexample is
    exactly a pair witnessing that the commutation double magma on R is proper.

    Each is the builtin word law named in parentheses (`RING_WORD_LAWS`),
    read in (R,+) with the Lie bracket as its commutator, and scanned on one
    representative per class of elements with equal bracket rows and columns
    (`words._law_scan`). A law of k variables with n^k > budget is sampled
    instead (`words.scan_sampled`).
    """
    check_sampling(sample_count, seed)
    if name not in RING_WORD_LAWS:
        known = ", ".join(RING_LAWS)
        raise SpecError(f"unknown ring law {name!r}; known laws: {known}")
    law = builtin_law(RING_WORD_LAWS[name])
    lie = {Product: r.add, Inverse: r.neg, IdentityLiteral: np.asarray(r.zero, dtype=np.intp),
           Bracket: r.bracket_table(), IntPower: r.add.diagonal()}
    reps, failing = _law_scan(law, lie, r.order, SCAN_CELLS)
    if r.order ** len(law.variables) > budget:
        return scan_sampled(law.variables, r.names, failing, sample_count, seed, reps)
    return exhaustive_verdict(first_failure(reps, failing), law.variables, r.names)
