"""Finite ring constructors, the Lie bracket, and the bracket-law registry."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import dmagma.rings
import dmagma.tables
import dmagma.words
from dmagma.errors import SpecError
from dmagma.groups import FiniteGroup, parse_group_spec
from dmagma.magmas import Magma
from dmagma.rings import (
    RING_LAWS,
    FiniteRing,
    check_ring_law,
    lie_bracket,
    make_matrix_ring,
    make_upper_triangular,
    make_zmod,
    parse_ring_spec,
)
from dmagma.tables import SCAN_CELLS, first_failure
from dmagma.words import builtin_law, check_law_exhaustive
from table_oracles import cubic_associativity_scan, cubic_ring_error
from test_groups import swap_two_cells


def decode_matrix(r, index, k, n, upper=False):
    """Rebuild the matrix behind an element index, independent of ring internals."""
    if upper:
        positions = [(i, j) for i in range(k) for j in range(i, k)]
    else:
        positions = [(i, j) for i in range(k) for j in range(k)]
    m = np.zeros((k, k), dtype=int)
    for i, j in reversed(positions):
        m[i, j] = index % n
        index //= n
    return m


def encode_matrix(m, k, n):
    index = 0
    for i in range(k):
        for j in range(k):
            index = index * n + int(m[i, j]) % n
    return index


# --- constructors -----------------------------------------------------------


def test_zmod_basics():
    r = make_zmod(1)
    assert r.order == 1 and r.zero == 0
    r6 = make_zmod(6)
    assert repr(r6) == "FiniteRing('zmod:6', order=6)"
    assert np.all(r6.bracket_table() == 0)
    r4 = make_zmod(4)
    assert r4.mul[2, 2] == 0


def test_zmod_rejects_zero():
    with pytest.raises(ValueError):
        make_zmod(0)


def test_matrix_ring_m2z2():
    r = make_matrix_ring(2, 2)
    assert r.order == 16
    noncomm = any(
        r.mul[x, y] != r.mul[y, x] for x in range(16) for y in range(16)
    )
    assert noncomm
    # <E12, E21> = E11 + E22, recomputed from raw matrices
    e12 = encode_matrix(np.array([[0, 1], [0, 0]]), 2, 2)
    e21 = encode_matrix(np.array([[0, 0], [1, 0]]), 2, 2)
    m12, m21 = (decode_matrix(r, e, 2, 2) for e in (e12, e21))
    want = encode_matrix((m12 @ m21 - m21 @ m12) % 2, 2, 2)
    assert lie_bracket(r, e12, e21) == want
    assert decode_matrix(r, want, 2, 2).tolist() == [[1, 0], [0, 1]]


def test_one_by_one_matrices_match_zmod():
    m = make_matrix_ring(1, 5)
    z = make_zmod(5)
    assert np.array_equal(m.add, z.add)
    assert np.array_equal(m.mul, z.mul)


def test_matrix_mul_table_matches_raw_matrix_product():
    r = make_matrix_ring(2, 3)
    rng = np.random.default_rng(0)
    for x, y in rng.integers(0, 81, size=(25, 2)):
        mx, my = decode_matrix(r, int(x), 2, 3), decode_matrix(r, int(y), 2, 3)
        assert int(r.mul[x, y]) == encode_matrix((mx @ my) % 3, 2, 3)


def test_upper_triangular_orders():
    assert make_upper_triangular(2, 2).order == 8
    assert make_upper_triangular(2, 3).order == 27
    u17 = make_upper_triangular(1, 7)
    assert np.all(u17.bracket_table() == 0)


def test_budget_checks():
    with pytest.raises(ValueError, match="budget"):
        make_matrix_ring(5, 3)
    with pytest.raises(ValueError, match="budget"):
        make_upper_triangular(2, 40)


def test_budget_refuses_before_building():
    # An order n^d whose exponent reaches 64 is over budget for any n >= 2;
    # it is named as n^d, never computed.
    with pytest.raises(SpecError, match=r"has order 99999\^4999999999950000000000, exceeding"):
        parse_ring_spec("uppertri:99999999999,99999")
    with pytest.raises(SpecError, match=r"has order 2\^9999999999800000000001, exceeding"):
        parse_ring_spec("matrix:99999999999,2")
    with pytest.raises(ValueError, match=r"^uppertri:11,2 has order 2\^66, exceeding the order budget 1024$"):
        make_upper_triangular(11, 2)
    # Smaller exponents are computed and named as before.
    with pytest.raises(SpecError, match=r"^'matrix:4,2': matrix:4,2 has order 65536, exceeding"):
        parse_ring_spec("matrix:4,2")
    with pytest.raises(ValueError, match=r"^matrix:2,1000 has order 1000000000000, exceeding the order budget 1024$"):
        make_matrix_ring(2, 1000)


def test_order_1_matrix_rings_hold_their_entries_to_the_budget():
    # Over Z_1 every matrix ring has order 1, but each element's name lists
    # its d entries, so d is held to the order budget: 32^2 = 1024 builds,
    # 33^2 does not; 44*45/2 = 990 builds, 45*46/2 = 1035 does not.
    for k, build in ((32, make_matrix_ring), (44, make_upper_triangular)):
        r = build(k, 1)
        assert r.order == 1 and r.names[0].count("0") == k * k
    for k, build, d in ((33, make_matrix_ring, 1089), (45, make_upper_triangular, 1035)):
        with pytest.raises(ValueError, match=rf"has {d} entries per element, exceeding the order budget 1024$"):
            build(k, 1)


@pytest.mark.parametrize("build", [
    lambda names: FiniteGroup([[0, 1], [1, 0]], names),
    lambda names: Magma([[0, 1], [1, 0]], names),
    lambda names: FiniteRing([[0, 1], [1, 0]], [[0, 0], [0, 1]], names),
], ids=["group", "magma", "ring"])
def test_carriers_check_their_names_alike(build):
    assert build([1, "a"]).names == ("1", "a")
    with pytest.raises(ValueError, match=r"^got 3 names for order 2$"):
        build(["1", "a", "b"])
    with pytest.raises(ValueError, match=r"^element names must be pairwise distinct$"):
        build(["1", "1"])


def test_ring_validation_rejects_bad_tables():
    with pytest.raises(ValueError, match="Latin"):
        FiniteRing([[0, 0], [0, 0]], [[0, 0], [0, 0]], ["0", "1"])
    # additive group of Z2 but a multiplication that fails distributivity
    with pytest.raises(ValueError, match="distribute"):
        FiniteRing([[0, 1], [1, 0]], [[1, 1], [1, 1]], ["0", "1"])
    # S3's product is a Latin square, but no ring's addition
    s3 = parse_group_spec("dihedral:3").mul
    with pytest.raises(ValueError, match="^addition must be commutative$"):
        FiniteRing(s3, np.zeros_like(s3), [str(i) for i in range(6)])


def test_parse_ring_spec():
    assert parse_ring_spec("zmod:6").order == 6
    assert parse_ring_spec("matrix:2,2").order == 16
    assert parse_ring_spec("uppertri:2,3").order == 27
    assert parse_ring_spec("matrix:2, 2").order == 16
    for bad in ("nope:2", "zmod", "zmod:x", "matrix:2", "zmod:0"):
        with pytest.raises(SpecError):
            parse_ring_spec(bad)
    with pytest.raises(SpecError, match=r"^'matrix:0,2': matrix ring needs k >= 1 and n >= 1$"):
        parse_ring_spec("matrix:0,2")
    with pytest.raises(SpecError, match=r"^'uppertri:0,2': upper-triangular ring needs k >= 1 and n >= 1$"):
        parse_ring_spec("uppertri:0,2")
    # Arguments are decimal digits only, as in group specs: int() alone would
    # read "1_0" as 10 and "+6" as 6, and "²" is no digit to int().
    for bad, message in (
        ("zmod:1_0", "trailing input at position 6 in 'zmod:1_0'"),
        ("zmod:+6", "expected a number at position 5 in 'zmod:+6'"),
        ("zmod:-6", "expected a number at position 5 in 'zmod:-6'"),
        ("matrix:2,+2", "expected a number at position 9 in 'matrix:2,+2'"),
        ("uppertri:2_0,2", "expected ',' at position 10 in 'uppertri:2_0,2'"),
        ("zmod:²", "expected a number at position 5 in 'zmod:²'"),
    ):
        with pytest.raises(SpecError) as e:
            parse_ring_spec(bad)
        assert str(e.value) == message
    # A number is held to the digit limit before int(), which refuses past 4300 digits.
    with pytest.raises(SpecError) as e:
        parse_ring_spec("zmod:" + "9" * 5000)
    assert str(e.value) == "the number at position 5 has 5000 digits, more than the limit of 100"


# Every refusal text of the ring-spec reader, position included: ring specs are
# read by the group-spec cursor, and each text reaches the user verbatim as the
# CLI's "error: ..." line.
@pytest.mark.parametrize("spec,message", [
    ("", "expected a name at position 0 in ''"),
    ("  ", "expected a name at position 2 in '  '"),
    ("zmod", "expected ':' at position 4 in 'zmod'"),
    ("z mod:6", "expected ':' at position 2 in 'z mod:6'"),
    ("zmod: ", "expected a number at position 6 in 'zmod: '"),
    ("zmod:x", "expected a number at position 5 in 'zmod:x'"),
    ("zmod:6,", "trailing input at position 6 in 'zmod:6,'"),
    ("zmod:6,7", "trailing input at position 6 in 'zmod:6,7'"),
    ("zmod:6 x", "trailing input at position 7 in 'zmod:6 x'"),
    ("matrix:2", "expected ',' at position 8 in 'matrix:2'"),
    ("matrix:2,", "expected a number at position 9 in 'matrix:2,'"),
    ("uppertri:2 3", "expected ',' at position 11 in 'uppertri:2 3'"),
    ("matrix:2,3,4", "trailing input at position 10 in 'matrix:2,3,4'"),
    ("nope:2", "unknown ring spec 'nope:2' (expected zmod:n, matrix:k,n, or uppertri:k,n)"),
    ("Zmod:6", "unknown ring spec 'Zmod:6' (expected zmod:n, matrix:k,n, or uppertri:k,n)"),
    ("zmod:" + "9" * 101, "the number at position 5 has 101 digits, more than the limit of 100"),
    ("zmod:0", "'zmod:0': modulus must be at least 1"),
    ("uppertri:2,0", "'uppertri:2,0': upper-triangular ring needs k >= 1 and n >= 1"),
    ("zmod:1025", "'zmod:1025': zmod ring has order 1025, exceeding the order budget 1024"),
])
def test_every_ring_spec_refusal_has_its_exact_text(spec, message):
    with pytest.raises(SpecError) as e:
        parse_ring_spec(spec)
    assert str(e.value) == message


def test_ring_specs_take_blanks_as_group_specs_do():
    for spec, plain in ((" zmod :6 ", "zmod:6"), ("matrix : 2 , 2", "matrix:2,2"),
                        ("\tuppertri:\t2,3", "uppertri:2,3")):
        r, want = parse_ring_spec(spec), parse_ring_spec(plain)
        assert (r.label, r.names) == (want.label, want.names), spec
        assert np.array_equal(r.add, want.add) and np.array_equal(r.mul, want.mul), spec


# --- bracket structure ----------------------------------------------------------


def test_bracket_of_element_with_itself_is_zero(corpus_rings):
    for spec, r in corpus_rings:
        assert np.all(np.diagonal(r.bracket_table()) == r.zero), spec


def test_bracket_antisymmetry(corpus_rings):
    for spec, r in corpus_rings:
        bk = r.bracket_table()
        assert np.array_equal(bk, r.neg[bk.T]), spec


def test_bracket_table_is_built_once_and_read_only():
    r = make_upper_triangular(2, 3)
    bk = r.bracket_table()
    assert r.bracket_table() is bk
    with pytest.raises(ValueError):
        bk[0, 0] = 1
    pairs = itertools.product(range(r.order), repeat=2)
    assert all(bk[x, y] == lie_bracket(r, x, y) for x, y in pairs)


def test_a_ring_keeps_its_law_classes_between_calls(law_scan_builds):
    r = parse_ring_spec("matrix:2,3")
    first = {name: check_ring_law(r, name) for name in RING_LAWS}
    fresh = {name: check_ring_law(parse_ring_spec("matrix:2,3"), name) for name in RING_LAWS}
    law_scan_builds.clear()
    again = {name: check_ring_law(r, name) for name in RING_LAWS}
    assert law_scan_builds == []  # no class derived and no walk built again
    assert again == first == fresh


def test_bracket_jacobi_identity():
    for r in (make_zmod(4), make_upper_triangular(2, 2), make_matrix_ring(2, 2)):
        bk = r.bracket_table()
        n = r.order
        # <<x,y>,z> + <<y,z>,x> + <<z,x>,y> = 0 over all triples
        t1 = bk[bk[:, :, None], np.arange(n)[None, None, :]]
        t2 = np.transpose(t1, (2, 0, 1))  # <<y,z>,x> at position [x,y,z]
        t3 = np.transpose(t1, (1, 2, 0))  # <<z,x>,y> at position [x,y,z]
        total = r.add[r.add[t1, t2], t3]
        assert np.all(total == r.zero)


# --- the law registry -------------------------------------------------------------


def test_commutative_ring_satisfies_everything():
    r = make_zmod(6)
    for name in ("RCI", "ALT3M", "DOUBLE2", "NILP2"):
        assert check_ring_law(r, name).holds, name
    assert check_ring_law(r, "PROPER_WITNESS").holds  # no witness pair


def test_m2z2_has_no_properness_witness():
    r = make_matrix_ring(2, 2)
    v = check_ring_law(r, "PROPER_WITNESS")
    assert v.status == "holds-exhaustive"


def test_m2z3_has_properness_witness():
    r = make_matrix_ring(2, 3)
    v = check_ring_law(r, "PROPER_WITNESS")
    assert v.status == "counterexample"
    x, y = (r.names.index(v.witness[k]) for k in ("x", "y"))
    b = lie_bracket(r, x, y)
    assert int(r.add[b, b]) != r.zero


def test_rci_equivalence_on_corpus(corpus_rings):
    for spec, r in corpus_rings:
        rci = check_ring_law(r, "RCI").holds
        alt = check_ring_law(r, "ALT3M").holds
        dbl = check_ring_law(r, "DOUBLE2").holds
        assert rci == (alt and dbl), spec


def test_law_witnesses_verify_by_scalar_recomputation():
    r = make_matrix_ring(2, 3)
    v = check_ring_law(r, "RCI")
    assert v.status == "counterexample"
    w, x, y, z = (r.names.index(v.witness[k]) for k in ("w", "x", "y", "z"))
    lhs = lie_bracket(r, lie_bracket(r, w, x), lie_bracket(r, y, z))
    rhs = lie_bracket(r, lie_bracket(r, w, y), lie_bracket(r, x, z))
    assert lhs != rhs
    v = check_ring_law(r, "NILP2")
    assert v.status == "counterexample"
    x, y, z = (r.names.index(v.witness[k]) for k in ("x", "y", "z"))
    assert lie_bracket(r, lie_bracket(r, x, y), z) != r.zero


def _scalar_ring_law(r, name):
    """Variables and zero-tested value of a registry law, by scalar lie_bracket."""
    b = lambda x, y: lie_bracket(r, x, y)  # noqa: E731
    twice = lambda v: int(r.add[v, v])  # noqa: E731
    return {
        "RCI": ("wxyz", lambda w, x, y, z: int(
            r.add[b(b(w, x), b(y, z)), r.neg[b(b(w, y), b(x, z))]])),
        "ALT3M": ("xyz", lambda x, y, z: b(b(x, y), b(x, z))),
        "DOUBLE2": ("wxyz", lambda w, x, y, z: twice(b(b(w, x), b(y, z)))),
        "NILP2": ("xyz", lambda x, y, z: b(b(x, y), z)),
        "PROPER_WITNESS": ("xy", lambda x, y: twice(b(x, y))),
    }[name]


def _scalar_ring_scan(r, name):
    """Oracle: plain nested loops in lexicographic order over every assignment."""
    variables, value = _scalar_ring_law(r, name)
    combos = itertools.product(range(r.order), repeat=len(variables))
    for pos, combo in enumerate(combos):
        if value(*combo) != r.zero:
            witness = {v: r.names[i] for v, i in zip(variables, combo)}
            return dmagma.tables.Verdict("counterexample", pos + 1, witness)
    return dmagma.tables.Verdict("holds-exhaustive", r.order ** len(variables))


def _scalar_ring_stream(r, name, count, seed):
    """Oracle: the seeded rows of the sampled fallback, walked with scalar lie_bracket."""
    variables, value = _scalar_ring_law(r, name)
    rows = np.random.default_rng(seed).integers(0, r.order, size=(count, len(variables)),
                                                dtype=np.int64)
    for pos, row in enumerate(rows):
        if value(*(int(a) for a in row)) != r.zero:
            witness = {v: r.names[i] for v, i in zip(variables, row)}
            return dmagma.tables.Verdict("counterexample", pos + 1, witness, count, seed)
    return dmagma.tables.Verdict("holds-sampled", count, None, count, seed)


def reversed_labels(r):
    """The same ring with element i relabelled n-1-i, which moves zero off index 0."""
    rev = np.arange(r.order)[::-1]
    cells = np.ix_(rev, rev)
    return FiniteRing(rev[r.add[cells]], rev[r.mul[cells]], r.names[::-1], f"reversed:{r.label}")


@pytest.mark.parametrize("spec", [
    "zmod:6", "uppertri:2,2", "matrix:2,2", "matrix:2,3", "reversed:zmod:6", "reversed:uppertri:2,2",
])
def test_ring_scans_match_scalar_nested_loops(spec):
    r = parse_ring_spec(spec.removeprefix("reversed:"))
    if spec.startswith("reversed:"):
        r = reversed_labels(r)
        assert r.zero == r.order - 1
    scanned = []
    for name in dmagma.rings.RING_LAWS:
        variables, _ = _scalar_ring_law(r, name)
        if r.order ** len(variables) > 7000:  # keeps the scalar loops quick
            continue
        assert check_ring_law(r, name) == _scalar_ring_scan(r, name), name
        scanned.append(name)
    assert "PROPER_WITNESS" in scanned


# Verdicts of scans that span many slices of SCAN_CELLS = 2^14 assignments, read
# from the full scans before ring laws shared the table-scan walker.
MULTI_SLICE_RING_VERDICTS = (
    ("uppertri:2,4", "ALT3M", "holds-exhaustive", 64**3, None),
    ("uppertri:2,5", "ALT3M", "holds-exhaustive", 125**3, None),
    ("uppertri:2,4", "DOUBLE2", "holds-exhaustive", 64**4, None),
    ("matrix:2,4", "ALT3M", "counterexample", 66577,
     {"x": "[0,0;0,1]", "y": "[0,0;1,0]", "z": "[0,1;0,0]"}),
    ("uppertri:3,2", "RCI", "counterexample", 270609,
     {"w": "[0,0,0;0,0,0;0,0,1]", "x": "[0,0,0;0,0,1;0,0,0]",
      "y": "[0,0,0;0,1,0;0,0,0]", "z": "[0,1,0;0,0,0;0,0,0]"}),
    ("matrix:2,3", "RCI", "counterexample", 538255,
     {"w": "[0,0;0,1]", "x": "[0,0;0,1]", "y": "[0,0;1,0]", "z": "[0,1;0,0]"}),
)


@pytest.mark.parametrize("spec,name,status,evaluations,witness", MULTI_SLICE_RING_VERDICTS)
def test_multi_slice_ring_verdicts_are_pinned(spec, name, status, evaluations, witness):
    want = dmagma.tables.Verdict(status, evaluations, witness)
    assert check_ring_law(parse_ring_spec(spec), name) == want


@pytest.mark.parametrize(
    "spec,name,status,evaluations,witness",
    [case for case in MULTI_SLICE_RING_VERDICTS if case[2] == "counterexample"],
)
def test_dropping_a_line_of_a_ring_law_derivation_is_caught(
    monkeypatch, spec, name, status, evaluations, witness
):
    r = parse_ring_spec(spec)
    want = dmagma.tables.Verdict(status, evaluations, witness)
    law = builtin_law(dmagma.rings.RING_WORD_LAWS[name])
    lines = law.lowering.lines
    for v, ls in lines.items():
        for line in ls:
            with monkeypatch.context() as m:
                drop_line(m, law, v, line)
                # <x,y> = -<y,x>, so bracket rows and columns split R alike: dropping
                # one of a variable's two lines changes nothing, dropping its only one does
                assert (check_ring_law(r, name) != want) == (len(ls) == 1), (v, line)


def drop_line(monkeypatch, law, variable, line):
    """Make `law`'s lowering forget that it reads `variable` through `line`."""
    low = law.lowering
    mutant = {**low.lines, variable: low.lines[variable] - {line}}
    assert mutant != low.lines
    monkeypatch.setitem(law.__dict__, "lowering", dataclasses.replace(low, lines=mutant))


def line_class_counts(table) -> tuple[int, int]:
    """Numbers of distinct rows and of distinct columns of a table."""
    return len(np.unique(table, axis=0)), np.unique(table, axis=1).shape[1]


def class_smallest(table, axis) -> list[int]:
    """The smallest element of each class of equal rows (axis 0) or columns (axis 1)."""
    return sorted(np.unique(np.asarray(table), axis=axis, return_index=True)[1].tolist())


def test_no_law_scan_slice_exceeds_the_cell_cap(monkeypatch):
    sizes, hooks, scalars = [], [], []

    def recording_first_failure(reps, failing, conjugates=None):
        hooks.append(conjugates)
        cells = dmagma.tables.SCAN_CELLS  # the slice size this scan reads

        def wrapped(axes):
            sizes.append((cells, int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in axes))))))
            scalars.append(sum(np.ndim(a) == 0 for a in axes))
            return failing(axes)

        return first_failure(reps, wrapped, conjugates)

    # the walker every law scan reaches, ring laws included, through `tables.decide`
    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    # Both hold, so every slice of the grid of class representatives is visited:
    # ALT3M <x,y;x,z> reads x by its bracket row and y, z by their columns,
    # DOUBLE2 2<w,x;y,z> reads w, y by their rows and x, z by their columns.
    # (R,+) has no conjugation, so a ring law skips no prefix.
    r = parse_ring_spec("uppertri:2,4")
    rows, cols = line_class_counts(r.bracket_table())
    for name, classes, k in (("ALT3M", rows * cols**2, 3), ("DOUBLE2", (rows * cols) ** 2, 4)):
        sizes.clear()
        hooks.clear()
        assert check_ring_law(r, name).evaluations == r.order**k
        assert sum(size for _, size in sizes) == classes < r.order**k
        assert {cap for cap, _ in sizes} == {SCAN_CELLS}
        assert max(size for _, size in sizes) <= SCAN_CELLS
        assert hooks == [None]
    # CI [w,x;y,z] = [w,y;x,z] reads w by its commutator row, x and y by both
    # lines and z by its column; [x,y]^-1 = [y,x], so rows and columns make the
    # same classes. CI holds, so the grid of class representatives is visited
    # except for the prefixes of scalars (w, ...) conjugate to an earlier one:
    # every slice of the first prefix of each simultaneous-conjugation orbit.
    cases = (
        ("dihedral:16", SCAN_CELLS), ("dihedral:16", 1000), ("dihedral:4", 7),
        ("metacyclic:7,3,2", SCAN_CELLS), ("metacyclic:7,3,2", 500),
    )
    for spec, chunk in cases:
        g = parse_group_spec(spec)
        comm = np.array([[g.commutator(x, y) for y in range(g.order)] for x in range(g.order)])
        reps = class_smallest(comm, 0)
        assert reps == class_smallest(comm, 1)
        sizes.clear()
        scalars.clear()
        monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", chunk)
        verdict = check_law_exhaustive(g, builtin_law("CI"))  # CI holds
        assert verdict.evaluations == g.order**4
        fixed = scalars[0]  # the slices' scalar prefix length, the same in every slice
        assert set(scalars) == {fixed}
        grid = [reps] * 4
        orbits = {
            min(tuple(g.conjugate(x, h) for x in prefix) for h in g.elements())
            for prefix in itertools.product(*grid[:fixed])
        }
        per_prefix = int(np.prod([len(c) for c in grid[fixed:]]))
        assert sum(size for _, size in sizes) == len(orbits) * per_prefix <= len(reps) ** 4
        assert {cap for cap, _ in sizes} == {chunk}
        assert max(size for _, size in sizes) <= chunk
        if chunk < SCAN_CELLS:
            assert sum(size for _, size in sizes) > chunk
    # metacyclic:7,3,2 has trivial centre (21 classes of one element), and a
    # prefix is skipped at both chunks
    assert len(orbits) < len(reps) ** fixed


def test_sampled_fallback_past_budget():
    r = make_upper_triangular(2, 2)  # RCI holds here
    v = check_ring_law(r, "RCI", budget=100, sample_count=5000, seed=9)
    assert v.status == "holds-sampled"
    assert v.sample_count == 5000 and v.seed == 9
    bad = make_matrix_ring(2, 3)  # RCI fails; sampling must find a witness
    v = check_ring_law(bad, "RCI", budget=100, sample_count=100_000, seed=3)
    assert v.status == "counterexample"


def test_sampled_ring_scan_matches_a_scalar_walk_of_the_stream():
    r = make_matrix_ring(2, 3)  # RCI fails
    v = check_ring_law(r, "RCI", budget=100, sample_count=100_000, seed=3)
    rows = np.random.default_rng(3).integers(0, r.order, size=(100_000, 4), dtype=np.int64)

    def b(x, y):
        return lie_bracket(r, int(x), int(y))

    pos = next(i for i, (w, x, y, z) in enumerate(rows) if b(b(w, x), b(y, z)) != b(b(w, y), b(x, z)))
    assert v.status == "counterexample" and v.evaluations == pos + 1
    assert v.witness == {name: r.names[i] for name, i in zip("wxyz", rows[pos])}


# (ring, law, seed, 1-based stream position of the first counterexample): the
# fallback must report the first failing drawn row, not merely a failing one.
LATE_SAMPLED_COUNTEREXAMPLES = (
    ("matrix:2,3", "RCI", 5, 3),
    ("matrix:2,3", "DOUBLE2", 34, 4),
    ("uppertri:3,2", "RCI", 7, 7),
    ("uppertri:3,2", "RCI", 22, 9),
)


@pytest.mark.parametrize("spec,name,seed,position", LATE_SAMPLED_COUNTEREXAMPLES)
def test_sampled_fallback_reports_the_first_failing_row_of_the_stream(spec, name, seed, position):
    r = parse_ring_spec(spec)
    v = check_ring_law(r, name, budget=100, sample_count=100_000, seed=seed)
    rows = np.random.default_rng(seed).integers(0, r.order, size=(100_000, 4), dtype=np.int64)
    variables, value = _scalar_ring_law(r, name)
    pos = next(i for i, row in enumerate(rows) if value(*(int(a) for a in row)) != r.zero)
    assert pos + 1 == position
    witness = {var: r.names[i] for var, i in zip(variables, rows[pos])}
    assert v == dmagma.tables.Verdict("counterexample", position, witness, 100_000, seed)


@pytest.mark.parametrize("name,status", [("RCI", "counterexample"), ("DOUBLE2", "holds-sampled")])
def test_sampled_scan_of_a_relabelled_ring_matches_a_scalar_walk_of_the_stream(name, status):
    r = reversed_labels(make_upper_triangular(3, 2))  # zero is element 63
    v = check_ring_law(r, name, budget=1, sample_count=20_000, seed=2)
    assert v.status == status
    rows = np.random.default_rng(2).integers(0, r.order, size=(20_000, 4), dtype=np.int64)
    variables, value = _scalar_ring_law(r, name)
    pos = next((i for i, row in enumerate(rows) if value(*(int(a) for a in row)) != r.zero), None)
    if pos is None:
        assert v == dmagma.tables.Verdict("holds-sampled", 20_000, None, 20_000, 2)
    else:
        witness = {var: r.names[i] for var, i in zip(variables, rows[pos])}
        assert v == dmagma.tables.Verdict("counterexample", pos + 1, witness, 20_000, 2)


# (ring, law, sample count, seed, whether the stream is drawn): a commutative
# ring's bracket is zero, so its class grid is one tuple; uppertri:3,2 and
# matrix:2,3 have 32^4 = 8 * 131072 and 27^4 class tuples, and RCI fails on both.
# The three- and two-variable laws fall back to sampling past the budget too:
# ALT3M and NILP2 fail on both, PROPER_WITNESS fails on matrix:2,3 and holds
# on matrix:2,2, whose 16^2 pairs fit one slice and are scanned whole.
SAMPLED_FALLBACKS = (
    ("zmod:125", "RCI", 5000, 2, False),
    ("zmod:125", "DOUBLE2", 5000, 7, False),
    ("reversed:uppertri:3,2", "DOUBLE2", 5000, 2, True),
    ("reversed:uppertri:3,2", "DOUBLE2", 131_072, 7, False),
    ("reversed:uppertri:3,2", "RCI", 131_072, 2, True),
    ("matrix:2,3", "RCI", 5000, 7, True),
    ("matrix:2,3", "DOUBLE2", 5000, 2, True),
    ("zmod:125", "ALT3M", 5000, 3, False),
    ("zmod:125", "NILP2", 5000, 3, False),
    ("matrix:2,3", "ALT3M", 5000, 4, True),
    ("reversed:uppertri:3,2", "NILP2", 5000, 5, True),
    ("matrix:2,2", "PROPER_WITNESS", 5000, 6, False),
    ("matrix:2,3", "PROPER_WITNESS", 100, 8, True),
)


@pytest.mark.parametrize("spec,name,count,seed,drawn", SAMPLED_FALLBACKS)
def test_sampled_fallback_matches_a_scalar_walk_of_the_stream(drawn_seeds, spec, name, count, seed,
                                                              drawn):
    r = parse_ring_spec(spec.removeprefix("reversed:"))
    if spec.startswith("reversed:"):
        r = reversed_labels(r)
    want = _scalar_ring_stream(r, name, count, seed)
    drawn_seeds.clear()
    assert check_ring_law(r, name, budget=1, sample_count=count, seed=seed) == want
    assert drawn_seeds == ([seed] if drawn else [])


@pytest.mark.parametrize("name", RING_LAWS)
def test_every_ring_law_samples_exactly_past_its_budget(name):
    r = make_zmod(6)
    k = len(builtin_law(dmagma.rings.RING_WORD_LAWS[name]).variables)
    assert check_ring_law(r, name, budget=6**k) == dmagma.tables.Verdict("holds-exhaustive", 6**k)
    got = check_ring_law(r, name, budget=6**k - 1, sample_count=50, seed=4)
    assert got == dmagma.tables.Verdict("holds-sampled", 50, None, 50, 4)


@pytest.mark.parametrize("name", ["RCI", "DOUBLE2"])
def test_a_clean_class_grid_settles_the_sampled_fallback_without_drawing(no_sample_stream, name):
    r = make_zmod(125)
    want = dmagma.tables.Verdict("holds-sampled", 10**6, None, 10**6, 1)
    assert check_ring_law(r, name, budget=1) == want


def test_unknown_ring_law():
    with pytest.raises(SpecError, match="RCI"):
        check_ring_law(make_zmod(2), "NOPE")


# --- fast table validation against the full scans --------------------------------


def assert_ring_validation_matches(add, mul):
    want = cubic_ring_error(add, mul)
    names = [str(i) for i in range(len(add))]
    if want is None:
        FiniteRing(add, mul, names)
    else:
        with pytest.raises(ValueError) as err:
            FiniteRing(add, mul, names)
        assert str(err.value) == want
    return want


@pytest.mark.parametrize("add", [
    [[0, 1, 2], [1, 0, 0], [2, 0, 0]],  # symmetric, a zero, a 0 in every row, not Latin
    [[0, 1], [1, 1]],  # a commutative monoid whose row 1 has no zero
])
def test_a_refused_addition_keeps_the_latin_message(add):
    mul = np.zeros((len(add), len(add)), dtype=np.int64)
    assert assert_ring_validation_matches(add, mul) == "addition table is not a Latin square"


def random_commutative_loop(n: int, rng: random.Random) -> np.ndarray:
    """A random symmetric Latin square whose row and column 0 are 0..n-1."""
    t = np.full((n, n), -1)
    t[0], t[:, 0] = np.arange(n), np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        free = sorted(set(range(n)) - set(t[i].tolist()) - set(t[j].tolist()))
        rng.shuffle(free)
        for v in free:
            t[i, j] = t[j, i] = v
            if fill(k + 1):
                return True
        t[i, j] = t[j, i] = -1
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


@pytest.mark.parametrize("spec", ["zmod:8", "zmod:12", "matrix:2,2", "uppertri:2,3"])
def test_fast_validation_on_perturbed_tables(spec):
    r = parse_ring_spec(spec)
    add, mul = np.array(r.add), np.array(r.mul)
    rng = random.Random(spec)
    errors = set()
    for t in perturbations(mul, rng, 30):
        errors.add(assert_ring_validation_matches(add, t))
    for t in perturbations(add, rng, 30):
        assert_ring_validation_matches(t, mul)
    assert None not in errors


def test_fast_validation_on_random_commutative_loops():
    rng = random.Random(11)
    errors = set()
    for n, count in ((5, 30), (6, 30), (7, 5)):  # order 7 backtracks much longer
        for _ in range(count):
            add = random_commutative_loop(n, rng)
            errors.add(assert_ring_validation_matches(add, np.zeros_like(add)))
    assert errors == {None, "addition must be associative"}


@pytest.mark.parametrize("spec", ["zmod:6", "zmod:12", "matrix:2,2", "uppertri:2,3"])
def test_fast_validation_on_structured_products(spec):
    r = parse_ring_spec(spec)
    n = r.order
    rows, cols = np.indices((n, n))
    # the bracket is bilinear but not associative; projections fail one distributive law
    for mul, fails in (
        (r.bracket_table(), "associative at" if not spec.startswith("zmod") else None),
        (rows, "left-distribute"),
        (cols, "right-distribute"),
    ):
        err = assert_ring_validation_matches(r.add, mul)
        assert err is None if fails is None else fails in err
    # For an idempotent f, xy = f(x) and xy = f(y) are associative. xy = f(x)
    # fails the left law once f is not 0; xy = f(y) fails the right law, and
    # the left one too unless f is additive.
    rng = random.Random(spec)
    for _ in range(4):
        image = [0, *rng.sample(range(1, n), rng.randrange(1, n))]
        f = np.array([x if x in image else rng.choice(image) for x in range(n)])
        assert "left-distribute" in assert_ring_validation_matches(r.add, f[rows])
        assert "distribute" in assert_ring_validation_matches(r.add, f[cols])


def test_left_distributivity_is_named_first_on_large_tables():
    # mul[x, y] = f(x) with f(n-1) = n-1 and f = 0 elsewhere is associative, fails
    # left-distributivity only at x = n-1, and fails right-distributivity everywhere
    n = 200
    add = np.add.outer(np.arange(n), np.arange(n)) % n
    mul = np.zeros((n, n), dtype=np.int32)
    mul[n - 1] = n - 1
    assert assert_ring_validation_matches(add, mul) == (
        "multiplication does not left-distribute over addition"
    )


def test_fast_validation_on_every_constructor(corpus_rings):
    rings = [r for _, r in corpus_rings] + [
        make_zmod(1), make_zmod(9), make_matrix_ring(1, 5), make_upper_triangular(3, 2),
    ]
    for r in rings:
        assert cubic_ring_error(r.add, r.mul) is None, r.label


@pytest.mark.parametrize("spec", ["zmod:12", "uppertri:2,3", "matrix:2,2", "matrix:2,4"])
def test_swapped_products_fail_validation_on_constructed_rings(spec):
    # At order 256 a valid table takes only the generator checks. Swapping two
    # products must still fail, with the error the cubic oracle names.
    r = parse_ring_spec(spec)
    rng = random.Random(spec)
    for _ in range(3):
        assert assert_ring_validation_matches(r.add, swap_two_cells(np.array(r.mul), rng)) is not None


def test_valid_ring_tables_skip_the_cubic_scans(monkeypatch):
    def cubic_scan(table):
        raise AssertionError("valid table reached the O(n^3) associativity scan")

    monkeypatch.setattr(dmagma.rings, "first_associativity_failure", cubic_scan)
    assert parse_ring_spec("matrix:2,3").order == 81


def test_ring_laws_refuse_negative_seeds_up_front():
    r = make_zmod(6)
    for budget in (1, 10**8):  # sampled and exhaustive
        with pytest.raises(ValueError, match="^sampling seed must be non-negative, got -3$"):
            check_ring_law(r, "RCI", budget=budget, seed=-3)
