"""Group construction, element algebra, and subgroup machinery.

Derived expectations are computed by independent oracles inside the tests
(raw table lookups, itertools closures, parity counts) rather than by the
code paths under test.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmagma.groups
from dmagma.errors import SpecError
from dmagma.groups import (
    FiniteGroup,
    SubgroupSet,
    derived_series,
    derived_subgroup,
    direct_product,
    has_exponent_2,
    is_metabelian,
    lower_central_series,
    make_cyclic,
    make_dihedral,
    make_from_permutations,
    make_heisenberg,
    make_metacyclic,
    nilpotency_class,
    normal_closure,
    parse_group_spec,
    perm_from_cycles,
    subgroup_closure,
)
from dmagma.rings import parse_ring_spec
from dmagma.tables import is_latin
from table_oracles import cubic_associativity_scan


def raw_commutator(mul, x, y):
    """[x, y] from the bare table: find inverses by scanning for the identity."""
    inv = lambda a: next(b for b in range(len(mul)) if mul[a][b] == 0)
    return mul[mul[inv(x)][inv(y)]][mul[x][y]]


# --- cyclic ---------------------------------------------------------------


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.names == ("1",)
    assert g.product(0, 0) == 0


def test_cyclic_3_relation():
    g = make_cyclic(3)
    # a * a2 = 1
    assert g.product(g.index_of("a"), g.index_of("a2")) == g.identity


def test_cyclic_12_orders_and_inverses():
    g = make_cyclic(12)
    a6 = g.index_of("a6")
    assert g.product(a6, a6) == g.identity
    assert g.element_order(a6) == 2
    assert g.inverse(g.index_of("a5")) == g.index_of("a7")


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        make_cyclic(0)


# --- metacyclic / dihedral --------------------------------------------------


def test_metacyclic_21_commutator_square_nontrivial():
    g = make_metacyclic(7, 3, 2)
    assert g.order == 21
    mul = g.mul.tolist()
    c = raw_commutator(mul, g.index_of("a"), g.index_of("b"))
    assert mul[c][c] != g.identity


def test_metacyclic_d3_commutator_square():
    g = make_metacyclic(3, 2, 2)
    c = g.commutator(g.index_of("a"), g.index_of("b"))
    assert g.product(c, c) == g.index_of("a2")


def test_metacyclic_degenerate_is_cyclic():
    g = make_metacyclic(5, 1, 1)
    assert g.order == 5
    assert g.is_abelian()
    assert np.array_equal(g.mul, make_cyclic(5).mul)


def test_metacyclic_and_dihedral_reject_parameters_below_1():
    for m, n in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match="^metacyclic parameters m, n must be at least 1$"):
            make_metacyclic(m, n, 1)
    with pytest.raises(ValueError, match="^dihedral parameter must be at least 1$"):
        make_dihedral(0)


def test_metacyclic_rejects_bad_congruence():
    with pytest.raises(ValueError, match=r"2\^3"):
        make_metacyclic(5, 3, 2)
    with pytest.raises(ValueError):
        make_metacyclic(4, 2, 2)  # r not a unit


def test_dihedral_8_commutator_relations():
    g = make_dihedral(8)
    assert g.order == 16
    a, b = g.index_of("a"), g.index_of("b")
    assert g.names[g.commutator(a, b)] == "a6"
    assert g.names[g.commutator(b, a)] == "a2"
    assert g.names[g.conjugate(a, b)] == "a7"  # from b a = a7 b
    c = g.commutator(a, b)
    assert g.names[g.product(c, c)] == "a4"


def test_dihedral_edge_cases():
    g = make_dihedral(1)
    assert g.order == 2 and g.is_abelian()
    g4 = make_dihedral(4)
    d = derived_subgroup(g4)
    assert sorted(g4.names[x] for x in d.members) == ["1", "a2"]
    assert has_exponent_2(d)


# --- heisenberg -------------------------------------------------------------


def test_heisenberg_3():
    g = make_heisenberg(3)
    assert g.order == 27
    assert not g.is_abelian()
    assert nilpotency_class(g) == 2
    d = derived_subgroup(g)
    assert len(d) == 3
    assert not has_exponent_2(d)


def test_heisenberg_2_derived_exponent_2():
    g = make_heisenberg(2)
    assert g.order == 8
    d = derived_subgroup(g)
    assert has_exponent_2(d)


def test_heisenberg_rejects_composite():
    with pytest.raises(ValueError):
        make_heisenberg(4)
    with pytest.raises(ValueError):
        make_heisenberg(1)


# --- permutation closures ----------------------------------------------------


def brute_closure(gens, k):
    """Independent BFS closure over image tuples using plain dict/set logic."""
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(k))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_perm_single_transposition():
    g = make_from_permutations([(2, 1)])
    assert g.order == 2
    assert g.names == ("1", "(1 2)")


def test_perm_s4_closure_count():
    gens = [perm_from_cycles([[1, 2]], 4), perm_from_cycles([[1, 2, 3, 4]], 4)]
    expected = brute_closure([tuple(v - 1 for v in g) for g in gens], 4)
    assert len(expected) == 24
    g = make_from_permutations(gens)
    assert g.order == 24


def test_perm_empty_generators():
    g = make_from_permutations([])
    assert g.order == 1


def test_perm_budget_reports_partial_size():
    # S7 has order 5040; the closure stops at the first element past the budget of 1024
    gens = [perm_from_cycles([[1, 2]], 7), perm_from_cycles([[1, 2, 3, 4, 5, 6, 7]], 7)]
    with pytest.raises(ValueError, match=r"^permutation closure exceeds order budget 1024 \(partial size 1025\)$"):
        make_from_permutations(gens)
    with pytest.raises(SpecError, match=r"partial size 1025\)$"):
        parse_group_spec("perm:(1 2),(1 2 3 4 5 6 7)")


def test_perm_spec_degree_is_the_number_of_points_written():
    g = parse_group_spec("perm:(1 20000000)")
    assert g.order == 2
    assert g.names == ("1", "(1 20000000)")
    # points written as 10, 20, 30, 40 act as 1, 2, 3, 4 would, under their own names
    g = parse_group_spec("perm:(10 30 20),(20 40)")
    small = parse_group_spec("perm:(1 3 2),(2 4)")
    assert np.array_equal(g.mul, small.mul)
    relabel = str.maketrans({"1": "10", "2": "20", "3": "30", "4": "40"})
    assert g.names == ("1", *(s.translate(relabel) for s in small.names[1:]))
    for bad, why in (("perm:(0 3)", "positive"), ("perm:(1 2)(2 3)", "disjoint")):
        with pytest.raises(SpecError, match=why):
            parse_group_spec(bad)


def test_heisenberg_budget_comes_before_the_primality_test():
    with pytest.raises(ValueError, match="heisenberg group has order 10{17}9.*exceeding the order budget"):
        make_heisenberg(1000000000000000003)


def test_perm_malformed():
    with pytest.raises(ValueError):
        make_from_permutations([(2, 2)])
    with pytest.raises(ValueError):
        perm_from_cycles([[1, 2], [2, 3]])  # overlapping cycles


def test_q8_structure():
    g = parse_group_spec("perm:(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)")
    assert g.order == 8
    assert not g.is_abelian()
    involutions = [x for x in g.elements() if x != 0 and g.product(x, x) == 0]
    assert len(involutions) == 1  # unique involution pins down the quaternion group
    assert has_exponent_2(derived_subgroup(g))


# --- direct products ----------------------------------------------------------


def test_klein_four():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    assert g.order == 4
    assert g.is_abelian()
    assert all(g.product(x, x) == 0 for x in g.elements())


def test_product_with_trivial_is_same_table():
    h = make_dihedral(3)
    g = direct_product(make_cyclic(1), h)
    assert np.array_equal(g.mul, h.mul)


def test_product_derived_subgroup_embeds():
    d3 = make_dihedral(3)
    g = direct_product(d3, make_cyclic(2))
    assert g.order == 12
    want = {x * 2 for x in derived_subgroup(d3).members}  # (g, 1) has index 2g
    assert derived_subgroup(g).members == want


def test_product_budget():
    with pytest.raises(ValueError, match="budget"):
        direct_product(make_cyclic(33), make_cyclic(32))


# --- element algebra and identities ----------------------------------------


def test_commutator_of_equal_elements_trivial():
    g = make_dihedral(8)
    assert all(g.commutator(x, x) == 0 for x in g.elements())


def test_conjugation_in_abelian_group_is_trivial():
    g = make_cyclic(12)
    assert all(g.conjugate(x, y) == x for x in g.elements() for y in g.elements())


def test_conjugate_by_identity():
    g = make_dihedral(4)
    assert all(g.conjugate(x, 0) == x for x in g.elements())


def test_power_matches_iteration():
    g = make_dihedral(6)
    for x in (1, 5, 7):
        acc = 0
        for k in range(8):
            assert g.power(x, k) == acc
            acc = g.product(acc, x)
        assert g.power(x, -3) == g.inverse(g.power(x, 3))


# --- subgroup machinery ------------------------------------------------------


def test_subgroup_closure_examples():
    g = make_dihedral(8)
    assert subgroup_closure(g, []).members == {0}
    got = subgroup_closure(g, [g.index_of("a2")])
    assert sorted(g.names[x] for x in got.members) == ["1", "a2", "a4", "a6"]
    assert subgroup_closure(g, list(g.elements())).members == set(g.elements())


def perm_parity(images):
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(images)), 2)
        if images[i] > images[j]
    )
    return inversions % 2


def test_normal_closure_of_3_cycle_is_alternating():
    g = parse_group_spec("perm:(1 2),(1 2 3 4)")
    three_cycle = g.index_of("(1 2 3)")
    got = normal_closure(g, [three_cycle])
    assert len(got) == 12
    # independent parity oracle: every member must be an even permutation,
    # reconstructed by multiplying the name's cycles back together
    for x in got.sorted_members():
        name = g.names[x]
        if name == "1":
            continue
        cycles = [
            [int(p) for p in c.split()] for c in name.strip("()").split(")(")
        ]
        images = perm_from_cycles(cycles, 4)
        assert perm_parity(images) == 0


def test_closures_reject_seeds_out_of_range():
    g = make_dihedral(4)
    # members beyond int64 are out of range too, not an OverflowError
    for bad in (-1, g.order, 2**63, 2**70, -(2**70)):
        for closure in (subgroup_closure, normal_closure):
            with pytest.raises(ValueError, match="^subgroup members out of range$"):
                closure(g, [bad])
        with pytest.raises(ValueError, match="^subgroup members out of range$"):
            SubgroupSet(frozenset({0, bad}), g)


def test_subgroup_sets_and_element_names_are_checked():
    g = make_dihedral(4)
    with pytest.raises(ValueError, match="^subgroup must contain the identity$"):
        SubgroupSet(frozenset({1}), g)
    assert g.index_of(g.names[3]) == 3
    with pytest.raises(ValueError, match="^no element named 'zz'$"):
        g.index_of("zz")


def test_subgroup_members_must_be_integers():
    # a float or a string is refused, never truncated to an index
    g = make_cyclic(6)
    for bad in (2.7, 3.0, "1"):
        for closure in (subgroup_closure, normal_closure):
            with pytest.raises(ValueError, match="^subgroup members must be integers$"):
                closure(g, [bad])
        with pytest.raises(ValueError, match="^subgroup members must be integers$"):
            SubgroupSet(frozenset({0, bad}), g)
    two = np.int64(2)
    assert subgroup_closure(g, [two]).members == normal_closure(g, [two]).members == {0, 2, 4}
    h = SubgroupSet(frozenset({0, 2, np.int64(4)}), g)
    assert h.members == {0, 2, 4} and 4 in h and 3 not in h


def test_normal_closure_abelian_equals_subgroup_closure():
    g = make_cyclic(12)
    seed = [3, 8]
    assert normal_closure(g, seed).members == subgroup_closure(g, seed).members


def test_derived_series_examples():
    assert [len(t) for t in derived_series(make_cyclic(6))] == [6, 1]
    d8 = make_dihedral(8)
    series = derived_series(d8)
    assert [len(t) for t in series] == [16, 4, 1]
    assert sorted(d8.names[x] for x in series[1].members) == ["1", "a2", "a4", "a6"]
    assert is_metabelian(d8)
    s4 = parse_group_spec("perm:(1 2),(1 2 3 4)")
    s4_series = derived_series(s4)
    assert len(s4_series[2]) > 1  # second derived group nontrivial
    assert not is_metabelian(s4)


def test_derived_subgroup_matches_raw_commutator_oracle():
    # On D4 and D8 the set of raw-table commutators is already a normal
    # subgroup, so the derived subgroup must equal it exactly.
    for g in (make_dihedral(4), make_dihedral(8)):
        mul = g.mul.tolist()
        comms = {
            raw_commutator(mul, x, y) for x in g.elements() for y in g.elements()
        }
        assert derived_subgroup(g).members == comms


def test_lower_central_series_examples():
    assert [len(t) for t in lower_central_series(make_cyclic(5))] == [5, 1]
    assert [len(t) for t in lower_central_series(make_heisenberg(3))] == [27, 3, 1]
    d8 = lower_central_series(make_dihedral(8))
    sizes = [len(t) for t in d8]
    assert sizes[0] == 16 and sizes[-1] == 1
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


G1024 = "perm:(1 2),(3 4),(1 3)(2 4),(5 6),(1 5)(2 6)(3 7)(4 8),(9 10),(9 11)(10 12)"


@pytest.mark.parametrize("spec", ["dihedral:256", G1024])
def test_series_find_generators_of_ascending_member_arrays(monkeypatch, spec):
    # `_generators` relabels a term by its members' order; the closures hand
    # it their own ascending arrays, never a frozenset's iteration order
    seen, real = [], dmagma.groups._generators

    def recording_generators(g, members):
        seen.append(members.copy())
        return real(g, members)

    monkeypatch.setattr(dmagma.groups, "_generators", recording_generators)
    g = parse_group_spec(spec)
    derived_series(g)
    lower_central_series(g)
    assert seen and all(np.all(np.diff(m) > 0) for m in seen)


def test_nilpotency_class_examples():
    assert nilpotency_class(make_cyclic(7)) == 1
    assert nilpotency_class(make_cyclic(1)) == 0
    assert nilpotency_class(make_heisenberg(3)) == 2
    assert nilpotency_class(make_dihedral(8)) == 3
    assert nilpotency_class(parse_group_spec("perm:(1 2),(1 2 3 4)")) is None
    assert nilpotency_class(make_metacyclic(7, 3, 2)) is None


def test_heisenberg_class_two_for_every_prime_in_budget():
    for p in (2, 3, 5, 7):
        assert nilpotency_class(make_heisenberg(p)) == 2, p


def test_derived_subgroup_is_normal_closure_of_all_commutators(corpus_groups):
    for spec, g in corpus_groups:
        comms = {g.commutator(x, y) for x in g.elements() for y in g.elements()}
        assert derived_subgroup(g).members == normal_closure(g, comms).members, spec


def test_has_exponent_2_examples():
    g = make_dihedral(8)
    assert has_exponent_2(subgroup_closure(g, []))
    assert has_exponent_2(derived_subgroup(make_dihedral(4)))
    assert not has_exponent_2(derived_subgroup(g))


# --- table invariants ---------------------------------------------------------


def test_constructed_tables_satisfy_invariants(corpus_groups):
    for spec, g in corpus_groups:
        n = g.order
        mul = g.mul
        assert mul.shape == (n, n)
        idx = np.arange(n)
        assert np.array_equal(np.sort(mul, axis=1), np.tile(idx, (n, 1))), spec
        assert np.array_equal(np.sort(mul, axis=0), np.tile(idx[:, None], (1, n))), spec
        assert np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx), spec
        assert all(mul[x, g.inv[x]] == 0 for x in range(n)), spec
        assert len(set(g.names)) == n and g.names[0] == "1", spec


def test_perm_from_cycles_errors():
    assert perm_from_cycles([(1, 2)], 3) == (2, 1, 3)
    assert perm_from_cycles([(1, 3)]) == (3, 2, 1)  # the domain ends at the largest point
    with pytest.raises(ValueError, match="^cycle points must be positive integers$"):
        perm_from_cycles([(0, 1)])
    with pytest.raises(ValueError, match="^cycles must be disjoint"):
        perm_from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="^cycle point 5 exceeds domain size 3$"):
        perm_from_cycles([(1, 5)], 3)


def test_rejects_non_group_tables():
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([[0, 0], [0, 0]], ["1", "x"])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]], ["1", "x"])
    # rock-paper-scissors-like table: Latin with identity but not associative
    with pytest.raises(ValueError):
        FiniteGroup(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
            ["1", "p", "q", "r", "s"],
        )
    with pytest.raises(ValueError, match="named '1'"):
        FiniteGroup([[0, 1], [1, 0]], ["e", "x"])
    with pytest.raises(ValueError, match="distinct"):
        FiniteGroup([[0, 1], [1, 0]], ["1", "1"])


# --- spec strings --------------------------------------------------------------


def test_parse_group_spec_forms():
    assert parse_group_spec("cyclic:6").order == 6
    assert parse_group_spec("dihedral:3").order == 6
    assert parse_group_spec("metacyclic:7,3,2").order == 21
    assert parse_group_spec("heisenberg:3").order == 27
    assert parse_group_spec("perm:(1 2),(1 2 3 4)").order == 24
    assert parse_group_spec("product:cyclic:2,cyclic:3").order == 6
    nested = parse_group_spec("product:product:cyclic:2,cyclic:2,cyclic:2")
    assert nested.order == 8


def test_parse_group_spec_perm_inside_product():
    g = parse_group_spec("product:perm:(1 2),(1 2 3),cyclic:2")
    assert g.order == 12  # S3 x C2


def test_parse_group_spec_errors():
    for bad in ("nope:3", "cyclic", "cyclic:x", "cyclic:3trailing", "cyclic:0", "product:cyclic:2",
                "cyclic:1_0", "cyclic:+6"):
        with pytest.raises(SpecError):
            parse_group_spec(bad)


def test_group_spec_numbers_are_decimal_digits():
    # "²" is a digit to str.isdigit but not to int(); it is no number at all
    for spec, pos in (("cyclic:²", 7), ("perm:(1 ²)", 8), ("dihedral:4²", 10)):
        with pytest.raises(SpecError, match=f"position {pos}"):
            parse_group_spec(spec)


# --- fast table validation against the full scans --------------------------------


def full_scan_group_error(mul) -> str | None:
    """The message of the O(n^3) check sequence FiniteGroup used to run, or None."""
    t = np.asarray(mul, dtype=np.int32)
    if not is_latin(t):
        return "multiplication table is not a Latin square"
    idx = np.arange(len(t))
    if not (np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        return "element 0 is not a two-sided identity"
    bad = cubic_associativity_scan(t)
    return None if bad is None else f"multiplication is not associative at {bad}"


def assert_group_validation_matches(mul):
    want = full_scan_group_error(mul)
    names = ["1"] + [f"g{i}" for i in range(1, len(mul))]
    if want is None:
        FiniteGroup(mul, names)
    else:
        with pytest.raises(ValueError) as err:
            FiniteGroup(mul, names)
        assert str(err.value) == want
    return want


def random_reduced_latin_square(n: int, rng: random.Random) -> np.ndarray:
    """A random Latin square whose row 0 and column 0 are 0..n-1 (a loop)."""
    t = np.full((n, n), -1)
    t[0], t[:, 0] = np.arange(n), np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        free = sorted(set(range(n)) - set(t[i, :j].tolist()) - set(t[:i, j].tolist()))
        rng.shuffle(free)
        for v in free:
            t[i, j] = v
            if fill(k + 1):
                return True
        t[i, j] = -1
        return False

    assert fill(0)
    return t


def perturbations(table: np.ndarray, rng: random.Random, count: int):
    """`count` one-cell and `count` two-cell random edits of a table."""
    n = len(table)
    for cells in (1, 2):
        for _ in range(count):
            t = table.copy()
            for _ in range(cells):
                x, y = rng.randrange(n), rng.randrange(n)
                t[x, y] = (t[x, y] + rng.randrange(1, n)) % n
            yield t


def intercalate_switches(table: np.ndarray):
    """Latin-preserving edits: swap a and b in each 2x2 subsquare [[a, b], [b, a]]."""
    n = len(table)
    for x1, x2 in itertools.combinations(range(n), 2):
        for y1, y2 in itertools.combinations(range(n), 2):
            a, b = table[x1, y1], table[x1, y2]
            if table[x2, y1] == b and table[x2, y2] == a:
                t = table.copy()
                t[x1, y1] = t[x2, y2] = b
                t[x1, y2] = t[x2, y1] = a
                yield t


def test_fast_validation_on_random_loops():
    rng = random.Random(5)
    outcomes = set()
    for n in (5, 6, 7):
        for _ in range(40):
            want = assert_group_validation_matches(random_reduced_latin_square(n, rng))
            outcomes.add(want is None)
    assert outcomes == {True, False}  # both groups and non-associative loops occur


@pytest.mark.parametrize("spec", ["zmod:8", "zmod:12", "matrix:2,2", "uppertri:2,3"])
def test_fast_validation_on_perturbed_tables(spec):
    rng = random.Random(spec)
    add = np.array(parse_ring_spec(spec).add)
    for t in perturbations(add, rng, 30):
        assert_group_validation_matches(t)
    errors = {assert_group_validation_matches(t) for t in intercalate_switches(add)}
    if len(add) % 2 == 0:  # a group of odd order has no 2x2 subsquares
        # switches away from row and column 0 keep a loop that is not a group
        assert any(e and "associative at" in e for e in errors)


def test_fast_validation_on_every_constructor(corpus_groups):
    specs = [spec for spec, _ in corpus_groups] + [
        "metacyclic:9,3,4", "heisenberg:5", "product:dihedral:4,cyclic:3",
        "perm:(1 2 3),(3 4 5)",
    ]
    for spec in specs:
        assert full_scan_group_error(parse_group_spec(spec).mul) is None, spec


def swap_two_cells(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """The table with the entries of two random cells holding different values swapped."""
    n = len(table)
    while True:
        (x1, y1), (x2, y2) = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        if table[x1, y1] != table[x2, y2]:
            t = table.copy()
            t[x1, y1], t[x2, y2] = table[x2, y2], table[x1, y1]
            return t


def switch_an_intercalate(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """A Latin-preserving edit away from row 0 and column 0: swap a and b in a [[a, b], [b, a]].

    In a group table, rows x, xt and columns y, ty form one for every involution t.
    """
    n = len(table)
    involutions = [t for t in range(1, n) if table[t, t] == 0]
    while True:
        x, y, t = rng.randrange(1, n), rng.randrange(1, n), rng.choice(involutions)
        x2, y2 = table[x, t], table[t, y]
        if 0 not in (x2, y2):
            a, b = table[x, y], table[x, y2]  # a = xy, b = xty = (xt)y, and (xt)(ty) = a
            edited = table.copy()
            edited[x, y] = edited[x2, y2] = b
            edited[x, y2] = edited[x2, y] = a
            return edited


@pytest.mark.parametrize("spec", ["dihedral:8", "perm:(1 2),(1 2 3 4)", "dihedral:128",
                                  "product:cyclic:16,cyclic:16"])
def test_swapped_cells_fail_validation_on_constructed_groups(spec):
    # At order 256 a valid table takes only the generator checks. A swap breaks
    # the Latin square; an intercalate switch keeps it, and the loop it leaves
    # is caught by Light's test and named by the cubic scan.
    mul = np.array(parse_group_spec(spec).mul)
    rng = random.Random(spec)
    for _ in range(3):
        assert assert_group_validation_matches(swap_two_cells(mul, rng)) == (
            "multiplication table is not a Latin square")
    errors = [assert_group_validation_matches(switch_an_intercalate(mul, rng)) for _ in range(3)]
    assert all(e and "not associative at" in e for e in errors)


def test_a_monoid_without_inverses_is_refused_as_not_latin():
    # 0 is a two-sided identity and the table is associative, but row 1 has no 0:
    # the accept test needs every row to hold the identity.
    assert assert_group_validation_matches([[0, 1], [1, 1]]) == (
        "multiplication table is not a Latin square")


def test_every_order_3_table_with_an_identity_border_gets_the_full_scan_message():
    outcomes = set()
    for cells in itertools.product(range(3), repeat=4):
        mul = np.array([[0, 1, 2], [1, *cells[:2]], [2, *cells[2:]]])
        outcomes.add(assert_group_validation_matches(mul))
    assert outcomes == {None, "multiplication table is not a Latin square"}


@st.composite
def bordered_tables(draw):
    """A table of order 4-6 with row and column 0 equal to 0..n-1 and a 0 in every row."""
    n = draw(st.integers(4, 6))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1) ** 2, max_size=(n - 1) ** 2))
    zeros = draw(st.lists(st.integers(1, n - 1), min_size=n - 1, max_size=n - 1))
    t = np.zeros((n, n), dtype=np.int64)
    t[0], t[:, 0] = np.arange(n), np.arange(n)
    t[1:, 1:] = np.reshape(cells, (n - 1, n - 1))
    t[np.arange(1, n), zeros] = 0
    return t


@given(bordered_tables())
@settings(max_examples=200, deadline=None)
def test_bordered_tables_with_a_zero_in_every_row_get_the_full_scan_message(mul):
    assert_group_validation_matches(mul)


def test_valid_group_tables_skip_the_cubic_scan(monkeypatch):
    def cubic_scan(table):
        raise AssertionError("valid table reached the O(n^3) associativity scan")

    monkeypatch.setattr(dmagma.groups, "first_associativity_failure", cubic_scan)
    assert parse_group_spec("product:dihedral:8,cyclic:4").order == 64
