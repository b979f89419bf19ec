"""Finite rings as paired addition/multiplication tables, with Lie-bracket laws.

The bracket <x,y> = xy - yx drives everything here. The registry's bracket
laws are builtin commutator laws of `words` read in the Lie ring: (R,+)
stands for the group, with <x,y> in place of [x,y], so the one word-law
evaluator decides them. Iterated brackets nest to the left,
<x,y,z> = <<x,y>,z>, as on the group side. Law scans read a ring's
`law_tables` and `law_classes`, as on a group (`words._law_scan`).

The constructor accepts (R,+) as an abelian group without sorting: a
two-sided zero, a symmetric table, a zero in every row and Light's test over
generators of (R,+) make it a commutative monoid in which every element has
an inverse. Only a refused addition is diagnosed in the fixed order Latin,
commutative, associative, so each error message is the one those checks give.

Matrix rings are built one supported entry at a time, each a broadcast term
over the digits it reads (`_matrix_ring_from_entries`), after their order n^d
and their d entries per element have both passed the fixed order budget.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial

import numpy as np

from .errors import SpecError
from .tables import (
    DEFAULT_EVAL_BUDGET,
    DEFAULT_ORDER_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Verdict,
    as_table,
    carrier_names,
    check_order,
    check_power_order,
    check_sampling,
    decide,
    first_associativity_failure,
    flat_cells,
    is_latin,
    light_associative,
    magma_generators,
    right_inverses,
    spec_number,
    two_sided_identity,
)
from .words import Bracket, IdentityLiteral, Inverse, Product, _law_scan, builtin_law

# Each ring law is a builtin commutator law read in the Lie ring: <x,y> for [x,y].
RING_WORD_LAWS = {
    "RCI": "CI",
    "ALT3M": "3M_I",
    "DOUBLE2": "SQUARE",
    "NILP2": "CLASS2",
    "PROPER_WITNESS": "COMM_SQ",
}
RING_LAWS = tuple(RING_WORD_LAWS)


def _right_distributes(add: np.ndarray, mul: np.ndarray, gens) -> bool:
    """(y+a)x = yx + ax for all x, y and each a in `gens`, in O(|gens| n^2).

    Over generators of (R,+) this is the right distributive law, since a map f
    with f(y+a) = f(y) + f(a) for every generator a is additive; on the
    transpose of `mul` it is the left law.
    """
    flat = add.reshape(-1)  # add is commutative, so row a of add maps y to y+a
    return all(np.array_equal(mul[add[a]], flat[flat_cells(mul, mul[a], len(add))]) for a in gens)


def _generator_checks_pass(add: np.ndarray, mul: np.ndarray, gens) -> bool:
    """The product's ring axioms over generators A of an abelian (R,+), in O(|A| n^2).

    The right distributive law is `_right_distributes`. Then x -> x(y+a) -
    xy - xa is additive too, so the left law needs only x in A: b(y+a) = by +
    ba for all y and b, a in A. The associator is then additive in each
    argument, so A^3 decides associativity of the product.
    """
    if not _right_distributes(add, mul, gens):
        return False
    g = np.asarray(gens)
    rows = mul[g]  # [b, y] -> by
    if not np.array_equal(rows[:, add[g]], add[rows[:, None, :], rows[:, g][:, :, None]]):  # b(y+a)
        return False
    ab = mul[np.ix_(g, g)]
    return np.array_equal(mul[ab][:, :, g], rows[:, ab])  # (ab)c = a(bc)


def _addition_error(add: np.ndarray, symmetric: bool) -> str:
    """Why a refused addition table is no abelian group, checked in a fixed order.

    A commutative Latin table is refused only by Light's test: an associative
    Latin square is a group, with a zero in every row.
    """
    if not is_latin(add):
        return "addition table is not a Latin square"
    if not symmetric:
        return "addition must be commutative"
    return "addition must be associative"


class FiniteRing:
    """A finite (not necessarily unital) ring given by dense add and mul tables.

    Tables are validated in O(|A| n^2) for a generating set A of (R,+), and
    the error names the first failing axiom in the fixed order below. The
    addition is accepted as a group the way `FiniteGroup` accepts one: a
    two-sided zero, a symmetric table, a zero in every row and Light's test
    over A. Only a refused addition is sorted to test the Latin property. Only
    a product that fails is scanned in full, to name its first non-associative
    triple; a distributive law is then named by its exact check over A.
    """

    def __init__(self, add, mul, names, label: str | None = None):
        add = as_table(add)
        n = add.shape[0]
        mul = as_table(mul, n)
        names = carrier_names(names, n)
        zero = two_sided_identity(add)
        # A commutative monoid whose every row holds its zero is an abelian group.
        symmetric = np.array_equal(add, add.T)
        neg = right_inverses(add, zero) if zero is not None and symmetric else None
        gens = magma_generators(add)
        if neg is None or not light_associative(add, gens):
            raise ValueError(_addition_error(add, symmetric))
        if not _generator_checks_pass(add, mul, gens):
            bad = first_associativity_failure(mul)
            if bad is not None:
                raise ValueError(f"multiplication is not associative at {bad}")
            side = "right" if _right_distributes(add, np.ascontiguousarray(mul.T), gens) else "left"
            raise ValueError(f"multiplication does not {side}-distribute over addition")
        self.order = n
        self.add = add
        self.mul = mul
        self.neg = neg
        self.zero = zero
        self.names = names
        self.label = label if label is not None else f"ring-of-order-{n}"

    def __repr__(self):
        return f"FiniteRing({self.label!r}, order={self.order})"

    @cached_property
    def law_tables(self) -> dict:
        """The op tables of ring-law scans by node type, in read-only intp: (R,+)
        as the group, and the Lie bracket <x,y> = xy + (-yx) as its commutator."""
        add, neg = self.add.astype(np.intp), self.neg.astype(np.intp)
        tables = {Product: add, Inverse: neg, IdentityLiteral: np.asarray(self.zero, dtype=np.intp),
                  Bracket: add.reshape(-1)[flat_cells(self.mul, neg[self.mul.T], self.order)]}
        for table in tables.values():
            table.setflags(write=False)
        return tables

    @cached_property
    def law_classes(self) -> dict:
        """Class representatives of ring-law scans by line set (`tables.class_reps`)."""
        return {}

    def bracket_table(self) -> np.ndarray:
        """Read-only intp table of <x,y> = xy - yx, the one the ring laws scan."""
        return self.law_tables[Bracket]


def lie_bracket(r: FiniteRing, x: int, y: int) -> int:
    """<x,y> = xy - yx via table lookups."""
    return int(r.add[r.mul[x, y], r.neg[r.mul[y, x]]])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_zmod(n: int) -> FiniteRing:
    """Integers mod n with the usual tables."""
    if n < 1:
        raise ValueError("modulus must be at least 1")
    check_order(n, "zmod ring")
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, [str(i) for i in range(n)], label=f"zmod:{n}")


def _matrix_ring_from_entries(kind: str, k: int, n: int) -> FiniteRing:
    """Ring `kind:k,n` of all ("matrix") or upper-triangular ("uppertri") k x k matrices mod n.

    Its d supported positions (k^2, or k(k+1)/2) are held to the order budget
    before anything is built, and so is its order n^d: with n = 1 the order is
    1 for every d, but each element's name still lists d entries.

    Element e has digit (e // n^(d-1-s)) % n at positions[s], row-major, so
    both tables are built as 2d-dimensional arrays with one axis per digit of
    each factor. They are sums, over the supported positions (i, j) =
    positions[s], of n^(d-1-s) times that entry of the result:
    (a_ij + b_ij) % n for the sum and (sum_m a_im b_mj) % n for the product.
    Each term spans only the axes of the digits it reads, at most n^(2k)
    cells, and is added into the order x order table by broadcasting.
    """
    label, upper = f"{kind}:{k},{n}", kind == "uppertri"
    d = k * (k + 1) // 2 if upper else k * k
    check_power_order(n, d, label)
    if d > DEFAULT_ORDER_BUDGET:
        raise ValueError(f"{label} has {d} entries per element, exceeding the order budget {DEFAULT_ORDER_BUDGET}")
    positions = [(i, j) for i in range(k) for j in range(i if upper else 0, k)]
    slot = {pos: s for s, pos in enumerate(positions)}
    order = n**d
    template = "[" + ";".join(",".join("{%d}" % slot[i, j] if (i, j) in slot else "0"
                                       for j in range(k)) for i in range(k)) + "]"
    names = [template.format(*e) for e in itertools.product([str(v) for v in range(n)], repeat=d)]
    if n == 1:  # every entry is 0 and both tables are [[0]], whatever k is
        return FiniteRing([[0]], [[0]], names, label=label)
    # In int32, several times faster than int64: under the order budget no
    # partial value reaches max(order, k * n * n) <= 2^20.
    def entry(pos, side):  # entry pos of the left (side 0) or right (side 1) factor, on its axis
        shape = [1] * (2 * d)
        shape[side * d + slot[pos]] = n
        return np.arange(n, dtype=np.int32).reshape(shape)

    add = np.zeros((n,) * (2 * d), dtype=np.int32)
    mul = np.zeros((n,) * (2 * d), dtype=np.int32)
    for s, (i, j) in enumerate(positions):
        weight = n ** (d - 1 - s)
        add += (entry((i, j), 0) + entry((i, j), 1)) % n * weight
        dot = sum(entry((i, m), 0) * entry((m, j), 1)
                  for m in range(k) if (i, m) in slot and (m, j) in slot)
        mul += dot % n * weight
    return FiniteRing(add.reshape(order, order), mul.reshape(order, order), names, label=label)


def make_matrix_ring(k: int, n: int) -> FiniteRing:
    """Full ring of k x k matrices over the integers mod n."""
    if k < 1 or n < 1:
        raise ValueError("matrix ring needs k >= 1 and n >= 1")
    return _matrix_ring_from_entries("matrix", k, n)


def make_upper_triangular(k: int, n: int) -> FiniteRing:
    """Subring of upper-triangular k x k matrices over the integers mod n."""
    if k < 1 or n < 1:
        raise ValueError("upper-triangular ring needs k >= 1 and n >= 1")
    return _matrix_ring_from_entries("uppertri", k, n)


def parse_ring_spec(spec: str) -> FiniteRing:
    """Build a ring from its mini-syntax: zmod:n | matrix:k,n | uppertri:k,n."""
    text = spec.strip()
    head, sep, args = text.partition(":")
    if not sep:
        raise SpecError(f"ring spec {spec!r} needs the form name:args")
    words = [a.strip() for a in args.split(",")] if args else []
    if not all(a.isdecimal() for a in words):  # as in group specs; int() also takes a sign or "_"
        raise SpecError(f"ring spec {spec!r}: arguments must be integers")
    numbers = [spec_number(a, f"ring spec argument {i}") for i, a in enumerate(words, 1)]
    try:
        if head == "zmod" and len(numbers) == 1:
            return make_zmod(*numbers)
        if head == "matrix" and len(numbers) == 2:
            return make_matrix_ring(*numbers)
        if head == "uppertri" and len(numbers) == 2:
            return make_upper_triangular(*numbers)
    except ValueError as e:
        raise SpecError(f"{spec!r}: {e}") from None
    raise SpecError(
        f"unknown ring spec {spec!r} (expected zmod:n, matrix:k,n, or uppertri:k,n)"
    )


# ---------------------------------------------------------------------------
# bracket laws
# ---------------------------------------------------------------------------


def check_ring_law(r: FiniteRing, name: str, budget: int = DEFAULT_EVAL_BUDGET,
                   sample_count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> Verdict:
    """Decide one of the registry laws on the ring by brute force.

    RCI    : <w,x;y,z> = <w,y;x,z>   (CI)
    ALT3M  : <x,y;x,z> = 0           (3M_I)
    DOUBLE2: 2<w,x;y,z> = 0          (SQUARE)
    NILP2  : <x,y,z> = 0             (CLASS2)
    PROPER_WITNESS scans the law 2<x,y> = 0 (COMM_SQ); a counterexample is
    exactly a pair witnessing that the commutation double magma on R is proper.

    Each is the builtin word law named in parentheses (`RING_WORD_LAWS`),
    read in (R,+) with the Lie bracket as its commutator (`r.law_tables`),
    and scanned on one representative per class of elements with equal
    bracket rows and columns (`words._law_scan`), kept in `r.law_classes`.
    A law of k variables with n^k > budget is sampled instead, from
    `sample_count` rows of `seed` (`tables.decide`).
    """
    check_sampling(sample_count, seed)
    if name not in RING_WORD_LAWS:
        known = ", ".join(RING_LAWS)
        raise SpecError(f"unknown ring law {name!r}; known laws: {known}")
    law = builtin_law(RING_WORD_LAWS[name])
    return decide(law.variables, r.names, budget, None, partial(_law_scan, law, r), (sample_count, seed))
