"""Finite groups as dense multiplication tables.

Elements are plain integer indices 0..n-1 with the identity pinned at index 0,
so every group operation is a table lookup. Constructors validate the table
eagerly and accept it when element 0 is a two-sided identity, every row holds
it, and Light's test over a small generating set S passes, in O(|S| n^2).
That is exact: Light's test makes the table a monoid, and in a finite monoid
xy = e and yz = e give x = x(yz) = (xy)z = z, so every element is invertible
and the table, a group's, is a Latin square. A refused table is diagnosed in
the fixed order Latin (by sorting), identity, associative, so its message is
the one those full checks give; only one that reaches the last pays for the
O(n^3) scan that names the first failing (x, y, z). Downstream brute-force
scans can then trust the tables blindly.

Each constructor checks its order against the order budget before it builds
anything. Tables are built by array arithmetic into int32 arrays, the
metacyclic, Heisenberg and product tables as one broadcast sum of parts with
fewer cells; a permutation group's table follows from its breadth-first
closure by the column recurrence mul[:, b] = R_g[mul[:, parent(b)]] (see
`_permutation_group`).

Subgroups rest on one closure step, `_grow`, which adds all products and
inverses to a member set in a boolean mask: a set is a subgroup iff the step
adds nothing, and closures repeat it to a fixed point. A public `SubgroupSet`
runs that test on construction; the closures and series build their terms
unchecked (`_trusted`), since their last step already added nothing. Series
terms are closures of the commutators of generators of the previous term,
already normal, so no normal closure is taken (see
`_commutator_series`). Each group computes its derived and lower central
series once, on first use, and keeps them (two cached properties); the
lower central series starts from the derived series' G'. The series read
only `mul` and `inv`.

Word-law scans read `law_tables` and `law_classes`, as on a ring
(`words._law_scan`). The constructor builds neither; the first law scan
builds all five op tables at once, the bracket and conjugate tables included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecError
from .tables import (
    DEFAULT_ORDER_BUDGET,
    as_table,
    carrier_names,
    check_order,
    first_associativity_failure,
    gather,
    is_latin,
    light_associative,
    magma_generators,
    right_inverses,
    spec_number,
)
from .words import Bracket, Conjugate, IdentityLiteral, Inverse, Product


class FiniteGroup:
    """A finite group on indices 0..order-1 given by its multiplication table.

    ``mul[x, y]`` is the product xy, ``inv[x]`` the inverse, and ``names[x]``
    a display string (``names[0]`` is always ``"1"``). Instances are immutable
    after construction and safe to share across workers; the subgroup series
    and the tables and classes of law scans are computed on first use and kept
    on the instance.
    """

    def __init__(self, mul, names, label: str | None = None):
        table = as_table(mul)
        n = table.shape[0]
        names = carrier_names(names, n)
        if names[0] != "1":
            raise ValueError("the identity (element 0) must be named '1'")
        idx = np.arange(n, dtype=table.dtype)
        identity = np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)
        # A monoid whose every row holds the identity is a group (module docstring).
        inv = right_inverses(table, 0) if identity else None
        if inv is None or not light_associative(table, magma_generators(table)):
            raise ValueError(_table_error(table, identity))
        self.order = n
        self.mul = table
        self.inv = inv
        self.names = names
        self.identity = 0
        self.label = label if label is not None else f"group-of-order-{n}"
        self._name_index = {s: i for i, s in enumerate(names)}

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValueError(f"no element named {name!r}") from None

    def product(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def conjugate(self, x: int, y: int) -> int:
        """x^y = y^-1 x y."""
        m = self.mul
        return int(m[m[self.inv[y], x], y])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        m = self.mul
        return int(m[m[self.inv[x], self.inv[y]], m[x, y]])

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = int(self.inv[x]), -k
        acc, cur = 0, x
        while k:
            if k & 1:
                acc = int(self.mul[acc, cur])
            k >>= 1
            if k:
                cur = int(self.mul[cur, cur])
        return acc

    def element_order(self, x: int) -> int:
        k, cur = 1, x
        while cur != 0:
            cur = int(self.mul[cur, x])
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property
    def law_tables(self) -> dict:
        """The op tables of word-law scans by node type, in read-only intp: G's own
        product, inverse and identity, and comm[x,y] = [x,y] and conj[x,y] = x^y =
        y^-1 x y derived from those two alone. The table route
        (`constructions.commutator_double`) builds its own commutator table, so
        the two routes stay independent."""
        mul, inv = self.mul.astype(np.intp), self.inv.astype(np.intp)
        x = np.arange(self.order)[:, None]
        y = x.T
        tables = {Product: mul, Inverse: inv, IdentityLiteral: np.asarray(self.identity, dtype=np.intp),
                  Bracket: mul[mul[inv[x], inv[y]], mul], Conjugate: mul[mul[inv[y], x], y]}
        for table in tables.values():
            table.setflags(write=False)
        return tables

    @cached_property
    def law_classes(self) -> dict:
        """Class representatives of word-law scans by line set (`tables.class_reps`)."""
        return {}

    @cached_property
    def _derived_series(self) -> tuple[SubgroupSet, ...]:
        """G, G', G'', ... until stable, computed on first use."""
        whole = _trusted(self, np.arange(self.order))
        return _commutator_series(self, [whole], lambda cur: cur)

    @cached_property
    def _lower_central_series(self) -> tuple[SubgroupSet, ...]:
        """G, [G, G], [[G, G], G], ... until stable, continued from the derived series' G'.

        gamma_2 = [G, G] = G', so the first two terms are the derived series' own.
        """
        head = self._derived_series[:2]
        if len(head) == 1:
            return head
        everything = np.arange(self.order, dtype=np.int64)
        return _commutator_series(self, head, lambda cur: everything)


def _table_error(table: np.ndarray, identity: bool) -> str:
    """Why a refused multiplication table is no group, checked in a fixed order.

    A Latin table with identity 0 is refused only by Light's test, so it is
    not associative and the full scan names a failing triple.
    """
    if not is_latin(table):
        return "multiplication table is not a Latin square"
    if not identity:
        return "element 0 is not a two-sided identity"
    return f"multiplication is not associative at {first_associativity_failure(table)}"


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup given as a plain member set, verified closed on construction."""

    members: frozenset[int]
    owner: FiniteGroup

    def __post_init__(self):
        g = self.owner
        idx = _indices(self.members)
        if g.identity not in self.members:
            raise ValueError("subgroup must contain the identity")
        if idx.min() < 0 or idx.max() >= g.order:
            raise ValueError("subgroup members out of range")
        if len(_grow(g, idx)) != len(idx):
            raise ValueError("member set is not closed under product and inverse")

    def __len__(self):
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


def _indices(members) -> np.ndarray:
    """Subgroup members as an int64 index array; each must be a Python or numpy integer."""
    members = tuple(members)
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, members))):
        raise ValueError("subgroup members must be integers")
    try:
        return np.fromiter(members, dtype=np.int64, count=len(members))
    except OverflowError:  # beyond int64, so beyond every order
        raise ValueError("subgroup members out of range") from None


def _grow(g: FiniteGroup, idx: np.ndarray) -> np.ndarray:
    """The members of `idx` with all their products and inverses, as a sorted index array.

    This is the one closure step: a set of distinct members is closed under
    product and inverse iff growing it adds nothing.
    """
    mask = np.zeros(g.order, dtype=bool)
    mask[idx] = True
    mask[gather(g.mul, idx[:, None], idx)] = True
    mask[g.inv[idx]] = True
    return np.flatnonzero(mask)


def _trusted(g: FiniteGroup, idx: np.ndarray) -> SubgroupSet:
    """The SubgroupSet of the distinct in-range indices `idx`, known closed, built unchecked.

    For member sets the caller has just grown until `_grow` added nothing:
    `SubgroupSet.__post_init__` would only repeat that step.
    """
    s = object.__new__(SubgroupSet)
    object.__setattr__(s, "members", frozenset(idx.tolist()))
    object.__setattr__(s, "owner", g)
    return s


def _closure(g: FiniteGroup, seed: np.ndarray) -> SubgroupSet:
    """The subgroup generated by the members of the index array `seed` and the identity."""
    if seed.size and (seed.min() < 0 or seed.max() >= g.order):
        raise ValueError("subgroup members out of range")
    mask = np.zeros(g.order, dtype=bool)
    mask[seed] = True
    mask[g.identity] = True
    cur = np.flatnonzero(mask)
    while len(nxt := _grow(g, cur)) != len(cur):
        cur = nxt
    return _trusted(g, cur)


def subgroup_closure(g: FiniteGroup, seed) -> SubgroupSet:
    """Smallest subgroup containing `seed` (always includes the identity)."""
    return _closure(g, _indices(seed))


def normal_closure(g: FiniteGroup, seed) -> SubgroupSet:
    """Smallest normal subgroup containing `seed`.

    The G-conjugates of the subgroup generated by `seed` form a
    conjugation-stable set, whose generated subgroup is automatically normal.
    """
    h = _indices(subgroup_closure(g, seed).members)
    ys = np.arange(g.order, dtype=np.int64)[:, None]
    return _closure(g, gather(g.mul, gather(g.mul, g.inv[ys], h), ys))  # [y, i] -> y^-1 h_i y


# A series step pairs every member of H with R while it takes fewer than this
# many commutators |H| |R|: below it, finding generators of H costs more than
# it saves. Timed per step over the default and benchmark groups, all members
# were as fast or faster on every step under 8192 commutators (by up to
# 110 us), generators won every step from 16384 (by 40 us to 18 ms), and the
# steps between were split.
_ALL_MEMBERS_BELOW = 1 << 14


def _generators(g: FiniteGroup, members: np.ndarray) -> np.ndarray:
    """A generating set of the subgroup whose sorted member indices are `members`.

    `magma_generators` of the subgroup's own table picks a few (2 or 3 for the
    benchmark groups), so the next series term costs |S| n commutators
    instead of |H| n. For G itself that table is `mul`: relabelling a copy of
    it doubled the time of both series of dihedral:256 (3.6 -> 7.1 ms) and
    their allocation peak (0.4 -> 2.1 MiB).
    """
    if len(members) == g.order:
        return np.asarray(magma_generators(g.mul), dtype=np.int64)
    local = np.zeros(g.order, dtype=np.int32)
    local[members] = np.arange(len(members), dtype=np.int32)
    return members[magma_generators(local[g.mul[np.ix_(members, members)]])]


def _commutator_series(g: FiniteGroup, terms, right) -> tuple[SubgroupSet, ...]:
    """`terms` continued by H_{k+1} = [H_k, right(H_k)] until stable.

    H_k is the last term, and R = right(H_k) is H_k or G, a normal subgroup
    containing H_k. Only a generating set S of H_k is needed: by
    [s, y]^z = [s, z]^-1 [s, yz], each <[s, y] : y in R> is normalized by R,
    and [st, y] = [s, y]^t [t, y] then puts every [x, y] with x in H_k into
    K = <[s, y] : s in S, y in R>, so K = [H_k, R]. No term needs a normal
    closure: G is normal, and if H_k and R are, [x, y]^z = [x^z, y^z] makes
    [H_k, R] normal too (D. J. S. Robinson, A Course in the Theory of Groups,
    ch. 5).
    """
    mul, inv = g.mul, g.inv
    terms = list(terms)
    cur = _indices(terms[-1].members)
    while True:
        ys = right(cur)
        xs = (cur if len(cur) * len(ys) < _ALL_MEMBERS_BELOW else _generators(g, cur))[:, None]
        nxt = _closure(g, mul[mul[inv[xs], inv[ys]], mul[xs, ys]])
        if len(nxt) == len(cur):
            return tuple(terms)
        terms.append(nxt)
        cur = _indices(nxt.members)


def derived_series(g: FiniteGroup) -> list[SubgroupSet]:
    """[G, G', G'', ...] until stabilization.

    Each successive term is the subgroup generated by the commutators of the
    previous term; for metabelian groups the series ends [..., {1}] at or
    before the third entry.
    """
    return list(g._derived_series)


def lower_central_series(g: FiniteGroup) -> list[SubgroupSet]:
    """gamma_1 = G, gamma_{k+1} = <[gamma_k, G]>, until stable."""
    return list(g._lower_central_series)


def nilpotency_class(g: FiniteGroup) -> int | None:
    """n with gamma_{n+1} = {1}, or None if the series stabilizes above {1}."""
    series = g._lower_central_series
    if series[-1].members == {g.identity}:
        return len(series) - 1
    return None


def derived_subgroup(g: FiniteGroup) -> SubgroupSet:
    series = g._derived_series
    return series[1] if len(series) > 1 else series[0]


def is_metabelian(g: FiniteGroup) -> bool:
    """True iff the second derived group is trivial."""
    series = g._derived_series
    return len(series) <= 3 and series[-1].members == {g.identity}


def has_exponent_2(s: SubgroupSet) -> bool:
    """True iff every member squares to the identity."""
    g = s.owner
    idx = _indices(s.members)
    return bool((g.mul[idx, idx] == g.identity).all())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _power_name(letter: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return letter
    return f"{letter}{e}"


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with names 1, a, a2, ..."""
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    check_order(n, "cyclic group")
    mul = np.add.outer(np.arange(n, dtype=np.int32), np.arange(n, dtype=np.int32))
    mul %= n
    names = ["1"] + [_power_name("a", i) for i in range(1, n)]
    return FiniteGroup(mul, names, label=f"cyclic:{n}")


def make_metacyclic(m: int, n: int, r: int) -> FiniteGroup:
    """Group of order m*n on elements a^i b^j with b a b^-1 = a^r.

    The product is (i, j)(k, l) = (i + k*r^j mod m, j + l mod n); elements are
    indexed j*m + i so the names run 1, a, ..., a^{m-1}, b, ab, ...
    """
    if m < 1 or n < 1:
        raise ValueError("metacyclic parameters m, n must be at least 1")
    r %= m
    if math.gcd(r, m) != 1:
        raise ValueError(f"metacyclic twist r={r} must be a unit mod m={m}")
    rn = pow(r, n, m)
    if rn != 1 % m:
        raise ValueError(
            f"metacyclic parameters need r^n = 1 (mod m); got {r}^{n} = {rn} (mod {m})"
        )
    order = m * n
    check_order(order, "metacyclic group")
    # As a 4-D array [j, i, l, k]: ((j + l) mod n) * m + (i + k*r^j) mod m, built
    # from an n x n and an n x m x m part, in int32: under the order budget no
    # partial value reaches m*m <= 2^20.
    i, j = np.arange(m, dtype=np.int32), np.arange(n, dtype=np.int32)
    rpow = np.array([pow(r, e, m) for e in range(n)], dtype=np.int32)
    high = np.add.outer(j, j) % n * m  # [j, l]
    low = np.multiply.outer(rpow, i)[:, None, :] + i[:, None]  # [j, i, k]
    low %= m
    mul = np.empty((n, m, n, m), dtype=np.int32)
    np.add(high[:, None, :, None], low[:, :, None, :], out=mul)
    mul = mul.reshape(order, order)
    names = []
    for e in range(order):
        s = _power_name("a", e % m) + _power_name("b", e // m)
        names.append(s if s else "1")
    return FiniteGroup(mul, names, label=f"metacyclic:{m},{n},{r}")


def make_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m, as the metacyclic group with b a b^-1 = a^{m-1}."""
    if m < 1:
        raise ValueError("dihedral parameter must be at least 1")
    g = make_metacyclic(m, 2, m - 1 if m > 1 else 0)
    g.label = f"dihedral:{m}"
    return g


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def make_heisenberg(p: int) -> FiniteGroup:
    """Nonabelian group of order p^3 on triples with a shear in the last slot.

    (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2), all mod p.
    """
    order = p**3
    check_order(order, "heisenberg group")
    if not _is_prime(p):
        raise ValueError(f"heisenberg parameter must be prime, got {p}")
    # As a 6-D array [x1, y1, z1, x2, y2, z2], from a part in x and y and one in x1, z, y2.
    c = np.arange(p, dtype=np.int32)
    cycle = np.add.outer(c, c) % p
    xy = (cycle * (p * p))[:, None, :, None] + (cycle * p)[None, :, None, :]  # [x1, y1, x2, y2]
    z = np.multiply.outer(c, c)[:, None, :, None] + c[:, None, None] + c  # [x1, z1, y2, z2]
    z %= p
    mul = np.empty((p,) * 6, dtype=np.int32)
    np.add(xy[:, :, None, :, :, None], z[:, None, :, None, :, :], out=mul)
    mul = mul.reshape(order, order)
    names = ["1"] + [f"({e // (p * p)},{e // p % p},{e % p})" for e in range(1, order)]
    return FiniteGroup(mul, names, label=f"heisenberg:{p}")


def perm_from_cycles(cycles, k: int | None = None) -> tuple[int, ...]:
    """Build a permutation of {1..k} (as a 1-based image tuple) from disjoint cycles."""
    points = [p for c in cycles for p in c]
    if any(not isinstance(p, int) or p < 1 for p in points):
        raise ValueError("cycle points must be positive integers")
    if len(points) != len(set(points)):
        raise ValueError("cycles must be disjoint (a point repeats)")
    size = max(points, default=0)
    if k is None:
        k = size
    elif k < size:
        raise ValueError(f"cycle point {size} exceeds domain size {k}")
    images = list(range(1, k + 1))
    for c in cycles:
        for a, b in zip(c, list(c[1:]) + [c[0]]):
            images[a - 1] = b
    return tuple(images)


def _cycle_name(images0, labels) -> str:
    """Canonical cycle notation of a 0-based image list (fixed points omitted); identity is '1'.

    Point i is written as labels[i].
    """
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
    return "".join("(" + " ".join(str(labels[p]) for p in c) + ")" for c in cycles)


def make_from_permutations(generators) -> FiniteGroup:
    """Closure of the given permutations under composition.

    Each generator is a 1-based image tuple over {1..k} (see perm_from_cycles).
    Products compose as functions, (p*q)(i) = p(q(i)); element 0 is the
    identity and names are cycle notations.
    """
    gens = []
    k = 0
    for g in generators:
        g = tuple(int(v) for v in g)
        if sorted(g) != list(range(1, len(g) + 1)):
            raise ValueError(f"malformed permutation {g}: not a bijection on 1..{len(g)}")
        k = max(k, len(g))
        gens.append(g)
    gens = [tuple(v - 1 for v in g) + tuple(range(len(g), k)) for g in gens]
    return _permutation_group(gens, range(1, k + 1))


def _permutation_group(gens, labels) -> FiniteGroup:
    """The group generated by 0-based image tuples over the points 0..len(labels)-1.

    The closure runs breadth first, one level at a time: element b enters as
    parent(b) * g for the first (parent, generator) pair that reaches it, and
    each level's products give the right multiplications R_g[x] = x * g. The
    table then follows column by column from the recurrence
    mul[:, b] = R_g[mul[:, parent(b)]], one level of columns per step.
    """
    k = len(labels)
    gen_images = np.array(gens, dtype=np.int64).reshape(len(gens), k)
    perms = [np.arange(k, dtype=np.int32)[None, :]]
    index = {perms[0].tobytes(): 0}
    right = []  # per level: [x, g] -> index of x * g
    parent, via = [0], [0]
    start = 0
    while start < len(index):
        frontier = perms[-1]
        prods = frontier[:, gen_images].reshape(len(frontier) * len(gens), k)  # x*g at x*|gens| + g
        buf, width = prods.tobytes(), prods.itemsize * k
        cells = np.empty(len(prods), dtype=np.int64)
        new = []
        for c in range(len(prods)):
            key = buf[c * width : (c + 1) * width]
            b = index.get(key)
            if b is None:
                if len(index) >= DEFAULT_ORDER_BUDGET:
                    raise ValueError(
                        f"permutation closure exceeds order budget {DEFAULT_ORDER_BUDGET} "
                        f"(partial size {len(index) + 1})"
                    )
                b = index[key] = len(index)
                new.append(c)
                parent.append(start + c // len(gens))
                via.append(c % len(gens))
            cells[c] = b
        right.append(cells.reshape(len(frontier), len(gens)))
        start += len(frontier)
        perms.append(prods[new])
    n = len(index)
    right_maps = np.concatenate(right).T  # [g, x] -> x * g
    parent, via = np.array(parent), np.array(via)
    cols = np.empty((n, n), dtype=np.int32)  # cols[b] = mul[:, b]
    cols[0] = np.arange(n)
    lo = 1
    for level in perms[1:]:
        hi = lo + len(level)
        cols[lo:hi] = right_maps[via[lo:hi, None], cols[parent[lo:hi]]]
        lo = hi
    elements = np.concatenate(perms).tolist()
    names = [_cycle_name(p, labels) for p in elements]
    return FiniteGroup(cols.T, names, label="perm-closure")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, indexed g*|H| + h."""
    order = g.order * h.order
    check_order(order, "direct product")
    mul = np.empty((g.order, h.order, g.order, h.order), dtype=np.int32)  # [a1, b1, a2, b2]
    np.multiply(g.mul[:, None, :, None], h.order, out=mul)
    mul += h.mul[:, None, :]
    mul = mul.reshape(order, order)
    names = ["1"] + [f"({g.names[e // h.order]},{h.names[e % h.order]})" for e in range(1, order)]
    return FiniteGroup(mul, names, label=f"product:{g.label},{h.label}")


# ---------------------------------------------------------------------------
# specification mini-syntax
# ---------------------------------------------------------------------------
#
#   cyclic:n | dihedral:m | metacyclic:m,n,r | heisenberg:p
#   perm:(1 2),(1 2 3 4)          cycles juxtaposed within one generator,
#                                 generators separated by commas
#   product:<spec>,<spec>


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise SpecError(f"expected '{ch}' at position {self.pos} in {self.text!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise SpecError(f"expected a name at position {start} in {self.text!r}")
        return self.text[start : self.pos]

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise SpecError(f"expected a number at position {start} in {self.text!r}")
        return spec_number(self.text[start : self.pos], f"the number at position {start}")


def _parse_perm_generators(cur: _Cursor) -> tuple[list[tuple[int, ...]], list[int]]:
    """The generators of a perm spec as image tuples over the written points, and those points."""
    generators = []
    while cur.peek() == "(":
        cycles = []
        while cur.peek() == "(":
            cur.expect("(")
            cycle = [cur.number()]
            while cur.peek() not in (")", ""):
                cycle.append(cur.number())
            cur.expect(")")
            cycles.append(cycle)
        generators.append(cycles)
        # a comma continues with the next generator only if one follows
        mark = cur.pos
        if cur.peek() == ",":
            cur.expect(",")
            if cur.peek() != "(":
                cur.pos = mark
                break
        else:
            break
    # Only the points written matter: relabel them 1..k in ascending order,
    # which keeps the closure order and the cycle names, and name them back.
    points = sorted({p for cycles in generators for c in cycles for p in c})
    if points and points[0] < 1:
        raise ValueError("cycle points must be positive integers")
    rank = {p: i + 1 for i, p in enumerate(points)}
    gens = [perm_from_cycles([[rank[p] for p in c] for c in cycles], len(points))
            for cycles in generators]
    return gens, points


def _parse_spec(cur: _Cursor) -> FiniteGroup:
    head = cur.word()
    cur.expect(":")
    if head == "cyclic":
        return make_cyclic(cur.number())
    if head == "dihedral":
        return make_dihedral(cur.number())
    if head == "metacyclic":
        m = cur.number()
        cur.expect(",")
        n = cur.number()
        cur.expect(",")
        r = cur.number()
        return make_metacyclic(m, n, r)
    if head == "heisenberg":
        return make_heisenberg(cur.number())
    if head == "perm":
        try:
            gens, points = _parse_perm_generators(cur)
            return _permutation_group([tuple(v - 1 for v in g) for g in gens], points)
        except ValueError as e:
            raise SpecError(str(e)) from None
    if head == "product":
        left = _parse_spec(cur)
        cur.expect(",")
        right = _parse_spec(cur)
        return direct_product(left, right)
    raise SpecError(
        f"unknown group spec '{head}' "
        "(expected cyclic, dihedral, metacyclic, heisenberg, perm, or product)"
    )


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from its mini-syntax string, e.g. 'dihedral:8'."""
    cur = _Cursor(spec)
    try:
        g = _parse_spec(cur)
    except ValueError as e:
        if isinstance(e, SpecError):
            raise
        raise SpecError(f"{spec!r}: {e}") from None
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise SpecError(f"trailing input at position {cur.pos} in {spec!r}")
    g.label = spec.strip()
    return g
