"""Representative table scans against the plain full scans.

`first_associativity_failure` and the interchange scan (`interchange_scan`)
visit one element per class of indistinguishable lines. The oracles in
`table_oracles` visit every triple or quadruple; both must report the same
first failure, so the verdicts agree in status, evaluations and witness.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

import dmagma.groups
import dmagma.tables
import dmagma.words
from dmagma.constructions import commutator_double, ring_commutator_double, word_double
from dmagma.groups import FiniteGroup, parse_group_spec
from dmagma.magmas import DoubleMagma, Magma, is_associative, satisfies_interchange
from dmagma.rings import RING_LAWS, FiniteRing, check_ring_law, parse_ring_spec
from dmagma.tables import (
    COUNTEREXAMPLE,
    HOLDS_EXHAUSTIVE,
    SCAN_CELLS,
    Verdict,
    as_table,
    class_reps,
    first_associativity_failure,
    first_failure,
    interchange_scan,
    orbit_keys,
)
from dmagma.words import check_law_exhaustive, check_law_sampled, parse_law
from table_oracles import cubic_associativity_scan, quartic_interchange_scan, scan_verdict
from test_properties import perm_groups


def double(s, b, names=None) -> DoubleMagma:
    names = names or [f"e{i}" for i in range(len(s))]
    return DoubleMagma(Magma(s, names, "*"), Magma(b, names, "•"))


def assert_scans_match(d: DoubleMagma, interchange: bool = True):
    for m in (d.star, d.bullet):
        want = scan_verdict(cubic_associativity_scan(m.op), "xyz", d.names)
        assert is_associative(m).to_dict() == want
    if interchange:
        want = scan_verdict(quartic_interchange_scan(d.star.op, d.bullet.op), "wxyz", d.names)
        assert satisfies_interchange(d).to_dict() == want


def test_class_reps_keeps_the_first_element_of_each_class():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        a, b = rng.integers(0, 2, size=(2, n, n))
        tables = {"a": a, "b": b}
        line_sets = [{("a", 0)}, {("a", 0), ("b", 1)}, {("a", 1), ("b", 0)}]
        want = []
        for lines in ((a,), (a, b.T), (a.T, b)):
            first = {}
            for i in range(n):
                first.setdefault(tuple(np.concatenate([t[i] for t in lines])), i)
            want.append(sorted(first.values()))
        # None keeps every element, an empty set is one class
        got = class_reps(tables, [*line_sets, None, set()], n)
        assert [r.tolist() for r in got] == [*want, list(range(n)), [0]]


def test_class_reps_keys_each_line_once_per_call():
    reads = []

    class Tables(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    t = np.array([[0, 1], [0, 1]], dtype=np.int32)  # equal rows, distinct columns
    # four variables, three distinct line sets, two distinct lines
    lines = [{("*", 0)}, {("*", 1)}, {("*", 0), ("*", 1)}, {("*", 0)}]
    reps = class_reps(Tables({"*": t}), lines, 2)
    assert [r.tolist() for r in reps] == [[0], [0, 1], [0, 1], [0]]
    assert reads == ["*", "*"]


ORDER_TWO = [
    np.array(t, dtype=np.int32).reshape(2, 2) for t in itertools.product(range(2), repeat=4)
]


def test_order_two_tables_and_pairs():
    for s, b in itertools.product(ORDER_TWO, repeat=2):
        assert first_failure(*interchange_scan(s, b)) == quartic_interchange_scan(s, b)
    for t in ORDER_TWO:
        assert_scans_match(double(t, t))


def inflate(base: np.ndarray, row_classes, col_classes, lift) -> np.ndarray:
    """t[i, j] = lift[base[row_classes[i], col_classes[j]]].

    Elements with one row class share their row, elements with one column
    class share their column.
    """
    r, c = np.asarray(row_classes), np.asarray(col_classes)
    return np.asarray(lift, dtype=np.int32)[base[r[:, None], c[None, :]]]


def random_inflated(rng: random.Random, n: int, maps) -> np.ndarray:
    k = max(max(m) for m in maps) + 1
    base = np.array([[rng.randrange(k) for _ in range(k)] for _ in range(k)])
    return inflate(base, *maps, [rng.randrange(n) for _ in range(k)])


def perturb(t: np.ndarray, rng: random.Random) -> np.ndarray:
    t = t.copy()
    n = len(t)
    t[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    return t


def test_inflated_tables_with_and_without_a_perturbed_cell():
    rng = random.Random(7)
    outcomes, reduced = set(), 0
    for _ in range(150):
        n = rng.randint(2, 12)
        # class maps with 1 to n classes; s and b share some or none of them
        maps = [[rng.randrange(k) for _ in range(n)] for k in rng.choices(range(1, n + 1), k=4)]
        s_maps = maps[:2]
        b_maps = rng.choice([maps[:2], maps[2:], maps[1::-1]])
        s, b = random_inflated(rng, n, s_maps), random_inflated(rng, n, b_maps)
        for pair in ((s, b), (perturb(s, rng), b), (s, perturb(b, rng))):
            d = double(*pair)
            assert_scans_match(d)
            outcomes.add(satisfies_interchange(d).holds)
            outcomes.add(is_associative(d.star).holds)
            reduced += len(class_reps({0: pair[0]}, [{(0, 0)}], n)[0]) < n
    assert outcomes == {True, False}
    assert reduced > 150  # most cases really skip elements


def test_zero_bands_hold_with_one_representative_per_side():
    for n in (1, 2, 5, 12):
        rows, cols = (t.astype(np.int32) for t in np.indices((n, n)))  # xy = x, xy = y
        assert_scans_match(double(rows, cols))
        assert [len(r) for r in class_reps({0: rows, 1: cols}, [{(0, 1)}, {(1, 0)}], n)] == [1, 1]
        assert is_associative(Magma(rows, range(n))).holds


# Pairs (star, bullet) of order 4 whose first interchange failure has, in the
# named variable, an element that shares the named line with an earlier element
# but not its other line: a scan that classed that variable by the one line
# alone would skip the witness.
LINE_CASES = {
    ("w", "star row"): ([[0, 0, 0, 0], [0, 0, 0, 0], [1, 3, 0, 0], [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 2], [3, 2, 0, 2]]),
    ("w", "bullet row"): ([[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 2, 0, 2]],
                          [[0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 0]]),
    ("x", "star column"): ([[0, 0, 0, 3], [0, 1, 0, 0], [0, 0, 0, 2], [3, 1, 3, 0]],
                           [[0, 0, 0, 0], [0, 0, 1, 2], [3, 3, 0, 0], [2, 3, 0, 2]]),
    ("x", "bullet row"): ([[0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]],
                          [[0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]]),
    ("y", "star row"): ([[0, 0, 1, 0], [1, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
                        [[1, 1, 0, 1], [0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1]]),
    ("y", "bullet column"): ([[0, 1, 0, 0], [0, 0, 3, 0], [2, 0, 0, 1], [0, 3, 2, 2]],
                             [[0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2]]),
    ("z", "star column"): ([[1, 0, 1, 0], [1, 0, 1, 1], [1, 0, 1, 1], [1, 0, 1, 1]],
                           [[0, 0, 1, 0], [1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]]),
    ("z", "bullet column"): ([[0, 0, 0, 3], [0, 0, 0, 0], [0, 3, 3, 0], [0, 1, 0, 0]],
                             [[0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1], [1, 0, 1, 0]]),
}


def line(s, b, name):
    table = s if name.startswith("star") else b
    return table if name.endswith("row") else table.T


@pytest.mark.parametrize("variable,shared", LINE_CASES, ids="-".join)
def test_interchange_witness_needs_both_lines_of_its_variable(variable, shared):
    s, b = (np.array(t, dtype=np.int32) for t in LINE_CASES[variable, shared])
    want = quartic_interchange_scan(s, b)
    assert first_failure(*interchange_scan(s, b)) == want
    names = ("star row", "bullet row", "star column", "bullet column")
    lines_of = {"w": names[:2], "x": names[1:3], "y": (names[0], names[3]), "z": names[2:]}
    other = next(m for m in lines_of[variable] if m != shared)
    e = want["wxyz".index(variable)]
    a, o = line(s, b, shared), line(s, b, other)
    assert any(np.array_equal(a[f], a[e]) and not np.array_equal(o[f], o[e]) for f in range(e))


@pytest.mark.parametrize(
    "table,shared",
    [
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 2, 0], [3, 0, 0, 0]], "row"),
        ([[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 3, 1, 0]], "column"),
    ],
)
def test_associativity_witness_needs_both_lines_of_y(table, shared):
    t = np.array(table, dtype=np.int32)
    want = cubic_associativity_scan(t)
    assert first_associativity_failure(t) == want
    a, o = (t, t.T) if shared == "row" else (t.T, t)
    y = want[1]
    assert any(np.array_equal(a[f], a[y]) and not np.array_equal(o[f], o[y]) for f in range(y))


WORDS = ("a*b^-1", "[a,b;a]")


def test_commutator_and_word_doubles_of_every_default_group(corpus_groups):
    for spec, g in corpus_groups:
        for d in (commutator_double(g), *(word_double(g, w) for w in WORDS)):
            assert_scans_match(d)


def test_commutator_doubles_of_every_default_ring(corpus_rings):
    for spec, r in corpus_rings:
        assert_scans_match(ring_commutator_double(r))


@given(perm_groups)
@settings(max_examples=25, deadline=None)
def test_commutator_doubles_of_random_permutation_groups(g):
    assert_scans_match(commutator_double(g), interchange=g.order**4 <= 10**6)


def test_witness_in_the_last_cell():
    t = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2]], dtype=np.int32)
    assert cubic_associativity_scan(t) == first_associativity_failure(t) == (3, 3, 3)
    assert is_associative(Magma(t, "abcd")).evaluations == 4**3
    s = np.array([[0, 0, 0], [1, 0, 1], [0, 0, 1]], dtype=np.int32)
    b = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 2]], dtype=np.int32)
    assert quartic_interchange_scan(s, b) == first_failure(*interchange_scan(s, b)) == (2, 2, 2, 2)
    assert satisfies_interchange(double(s, b)).evaluations == 3**4


@pytest.mark.parametrize(
    "sizes,cells",
    [((3, 3, 3), 1), ((2, 5, 3), 7), ((4, 1, 6), 30), ((5, 2), 100), ((3,), 2), ((), 1)],
)
def test_slices_tile_the_representative_grid_in_lexicographic_order(monkeypatch, sizes, cells):
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", cells)
    rng = np.random.default_rng(len(sizes) * cells)
    reps = [np.sort(rng.choice(9, size=m, replace=False)) for m in sizes]
    grid = list(itertools.product(*(r.tolist() for r in reps)))
    seen = []

    def record(axes):
        shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
        assert 1 <= np.prod(shape) <= cells
        cols = [np.broadcast_to(a, shape) for a in axes]
        seen.extend(tuple(int(c[i]) for c in cols) for i in np.ndindex(shape))
        return np.zeros(shape, dtype=bool)

    assert first_failure(reps, record) is None
    assert seen == grid
    for target in (grid[0], grid[len(grid) // 2], grid[-1]):
        def fails_from(axes):
            shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
            key = np.zeros(shape, dtype=np.int64)
            for a in axes:
                key = key * 9 + a
            return key >= sum(d * 9 ** (len(target) - 1 - i) for i, d in enumerate(target))

        assert first_failure(reps, fails_from) == target


@pytest.mark.parametrize("length", [1, 2, 3])
def test_orbit_keys_are_equal_exactly_for_simultaneous_conjugates(length):
    g = parse_group_spec("perm:(1 2),(1 2 3 4)")
    conj = np.array([[g.conjugate(x, h) for h in g.elements()] for x in g.elements()])
    key = orbit_keys(conj, length)
    prefixes = set(itertools.product(range(6) if length == 3 else g.elements(), repeat=length))
    same_key: dict = {}
    for p in prefixes:
        same_key.setdefault(key(p), set()).add(p)
    for p in prefixes:
        orbit = {tuple(g.conjugate(x, h) for x in p) for h in g.elements()}
        assert same_key[key(p)] == orbit & prefixes, p


def test_orbit_keys_stop_where_a_code_might_overflow():
    conj = np.array([[0, 0], [1, 1]])  # C2: each element is its only conjugate
    assert orbit_keys(conj, 61) is not None
    assert orbit_keys(conj, 62) is None  # 2^62 codes


def test_no_table_scan_slice_exceeds_the_cell_cap(monkeypatch):
    sizes = []

    def recording_first_failure(reps, failing, conjugates=None):
        assert conjugates is None  # the table route reads nothing of G

        def wrapped(axes):
            sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in axes)))))
            return failing(axes)

        return first_failure(reps, wrapped)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    g = parse_group_spec("cyclic:42")
    assert first_associativity_failure(g.mul) is None  # 42^3 > SCAN_CELLS
    assert dmagma.tables.first_failure(*interchange_scan(g.mul, g.mul)) is None
    assert sum(sizes) == 42**3 + 42**4
    assert max(sizes) <= SCAN_CELLS


def test_every_scan_takes_intp_cells_with_intp_indices(monkeypatch):
    # An int32 index is converted on every take, and int32 index arithmetic
    # overflows once n * n exceeds 2^31 (n > 46340). The tables are intp
    # copies, so that the values taken are intp indices already. The spy
    # stands in for `gather` wherever the scans look it up, and records the
    # table, both indices and the flat cell index of every read.
    gather, dtypes = dmagma.tables.gather, []

    def spy(table, a, b):
        dtypes.extend((table.dtype, np.asarray(a).dtype, np.asarray(b).dtype,
                       np.asarray(a * table.shape[1] + b).dtype))
        return gather(table, a, b)

    for module in (dmagma.tables, dmagma.words, dmagma.groups):
        monkeypatch.setattr(module, "gather", spy)

    def takes(*scans) -> list:
        dtypes.clear()
        for scan in scans:
            scan()
        assert dtypes  # the scans reached the spy
        return sorted(set(map(str, dtypes)))

    intp = [str(np.dtype(np.intp))]
    g = parse_group_spec("dihedral:16")
    laws = [parse_law(t) for t in ("[w,x;y,z]=[w,y;x,z]", "x*y^-1*[x,y]^z*x^3=1", "[x,y,z]=1")]
    assert takes(*(lambda law=law: check_law_exhaustive(g, law) for law in laws),
                 lambda: check_law_sampled(g, laws[1], 10**4, 3)) == intp
    r = parse_ring_spec("uppertri:2,3")
    assert takes(*(lambda name=name: check_ring_law(r, name) for name in RING_LAWS),
                 lambda: check_ring_law(r, "RCI", budget=10, sample_count=10**4)) == intp
    d = commutator_double(g)
    z3 = np.add.outer(np.arange(3), np.arange(3)) % 3

    def bad_ring():  # associative, not distributive: the full table scans run
        with pytest.raises(ValueError, match="left-distribute"):
            FiniteRing(z3, np.ones((3, 3), dtype=int), ["0", "1", "2"])

    assert takes(lambda: is_associative(d.star), lambda: satisfies_interchange(d),
                 lambda: first_associativity_failure(d.bullet.op), bad_ring) == intp


def test_laws_with_more_variables_than_numpy_has_dimensions():
    # a slice spans at most MAX_AXES full trailing axes; the rest are scalars
    product = lambda k: parse_law("*".join(f"x{i}" for i in range(k)) + "=1")  # noqa: E731
    assert check_law_exhaustive(parse_group_spec("cyclic:1"), product(70)) == Verdict(
        HOLDS_EXHAUSTIVE, 1
    )
    got = check_law_exhaustive(parse_group_spec("cyclic:2"), product(40), budget=2**40)
    assert got == Verdict(COUNTEREXAMPLE, 2, {f"x{i}": "1" for i in range(39)} | {"x39": "a"})


# --- large verdicts, pinned to the values of the full scans ---------------------------


def test_large_associativity_verdicts_are_pinned():
    for spec, order in (("product:cyclic:16,cyclic:16", 256), ("heisenberg:7", 343)):
        star = commutator_double(parse_group_spec(spec)).star
        assert is_associative(star).to_dict() == {
            "status": "holds-exhaustive", "evaluations": order**3
        }, spec
    star = commutator_double(parse_group_spec("dihedral:256")).star
    assert is_associative(star).to_dict() == {
        "status": "counterexample", "evaluations": 393473,
        "witness": {"x": "a", "y": "b", "z": "b"},
    }


def test_large_interchange_verdict_is_pinned():
    d = commutator_double(parse_group_spec("dihedral:32"))
    assert satisfies_interchange(d).to_dict() == {
        "status": "holds-exhaustive", "evaluations": 64**4
    }


@pytest.mark.parametrize(
    "spec,square,triple",
    [
        ("dihedral:32", (47, 63, 47, 63), (1, 46, 47)),
        ("product:cyclic:8,cyclic:8", (59, 63, 59, 63), (1, 58, 59)),
    ],
)
def test_rejected_group_table_keeps_its_error_text(spec, square, triple):
    g = parse_group_spec(spec)
    t = np.array(g.mul)
    x1, x2, y1, y2 = square
    a, b = t[x1, y1], t[x1, y2]
    assert t[x2, y1] == b and t[x2, y2] == a  # a 2x2 subsquare [[a, b], [b, a]]
    t[x1, y1] = t[x2, y2] = b
    t[x1, y2] = t[x2, y1] = a  # still a loop with identity 0, no longer a group
    with pytest.raises(ValueError) as err:
        FiniteGroup(t, g.names)
    assert str(err.value) == f"multiplication is not associative at {triple}"


def test_rejected_ring_table_keeps_its_error_text():
    r = parse_ring_spec("matrix:2,3")
    with pytest.raises(ValueError) as err:
        FiniteRing(r.add, r.bracket_table(), r.names)
    assert str(err.value) == "multiplication is not associative at (1, 1, 3)"


ENTRIES = "table entries must be element indices in [0, order)"


@pytest.mark.parametrize("op", [
    [[0.7, 1.2], [1, 0]],  # floats, which an int32 cast would truncate to [[0, 1], [1, 0]]
    [[0, 1.9], [1, 0]],
    [["0", "1"], ["1", "0"]],
    [[False, True], [True, False]],
    [[0, 2**40], [1, 0]],  # past int32, where the cast would raise OverflowError
    [[0, 2**70], [1, 0]],  # past int64: an object array
    [[0, -1], [1, 0]],
    [[0, 2], [1, 0]],
], ids=["floats", "one-float", "strings", "bools", "past-int32", "past-int64", "negative", "too-large"])
def test_table_entries_must_be_integer_element_indices(op):
    with pytest.raises(ValueError) as err:
        Magma(op, ("1", "a"))
    assert str(err.value) == ENTRIES
    with pytest.raises(ValueError) as err:
        FiniteGroup(op, ("1", "a"))
    assert str(err.value) == ENTRIES


def test_tables_of_every_integer_dtype_are_read_as_int32():
    for dtype in (np.int8, np.uint8, np.int64, np.uint64, ">i4"):
        m = Magma(np.array([[0, 1], [1, 0]], dtype=dtype), ("1", "a"))
        assert m.op.dtype == np.int32 and m.op.tolist() == [[0, 1], [1, 0]]
        assert not m.op.flags.writeable
        bad = [[0, 2], [1, 0]] if np.dtype(dtype).kind == "u" else [[0, -1], [1, 0]]
        with pytest.raises(ValueError, match=r"^table entries must be element indices"):
            Magma(np.array(bad, dtype=dtype), ("1", "a"))


def test_structures_copy_the_callers_tables():
    # an int32, C-contiguous table needs no cast, but is still copied
    add = np.array([[0, 1], [1, 0]], dtype=np.int32)
    mul = np.array([[0, 0], [0, 1]], dtype=np.int32)
    r = FiniteRing(add, mul, ("0", "1"))
    built = [(Magma(add, ("1", "a")).op, add), (FiniteGroup(add, ("1", "a")).mul, add),
             (r.add, add), (r.mul, mul)]
    add[0, 0], mul[1, 1] = 1, 0  # the caller's arrays stay writable
    for table, own in built:
        assert not np.shares_memory(table, own) and not table.flags.writeable
    assert [t.tolist() for t, _ in built] == [[[0, 1], [1, 0]]] * 3 + [[[0, 0], [0, 1]]]


@pytest.mark.parametrize("op,order,message", [
    ([0, 1], None, "operation table must be square, got shape (2,)"),
    ([[0, 1, 0], [1, 0, 1]], None, "operation table must be square, got shape (2, 3)"),
    ([[0]], 2, "table has order 1, expected 2"),
    (np.zeros((0, 0), dtype=int), None, "empty carrier"),
])
def test_table_shape_errors(op, order, message):
    with pytest.raises(ValueError) as err:
        as_table(op, order)
    assert str(err.value) == message


def test_a_table_of_over_2_31_cells_is_refused_before_its_entries_are_read():
    # The int32 cells a * n + b that `gather` takes overflow past order 46340.
    # The broadcast views allocate nothing. Their entries are all out of range,
    # so a range check made before the bound gives its own message, and so
    # does a missing bound, without copying the table to 8.6 GB of int32.
    with pytest.raises(ValueError, match=r"^table has order 46341; an order over 46340 has"):
        as_table(np.broadcast_to(np.int32(-1), (46341, 46341)))
    with pytest.raises(ValueError, match=r"^table entries must be element indices"):
        as_table(np.broadcast_to(np.int32(-1), (46340, 46340)))  # the largest order passes the bound
