"""Magma predicates, the unitary-collapse audit, and the table exporters."""

import itertools

import numpy as np
import pytest

from dmagma.constructions import commutator_double, word_double
from dmagma.errors import BudgetExceededError
from dmagma.fixtures import two_element_fixture
from dmagma.groups import make_cyclic, make_dihedral, parse_group_spec
from dmagma.magmas import (
    DoubleMagma,
    EckmannHiltonReport,
    Magma,
    eckmann_hilton_audit,
    find_identity,
    find_zero,
    is_associative,
    is_commutative,
    is_proper,
    parse_csv_table,
    render_csv,
    render_text,
    satisfies_interchange,
    structured_double,
    structured_magma,
    superscript_names,
)
from dmagma.rings import parse_ring_spec
from dmagma.tables import (
    HOLDS_EXHAUSTIVE,
    Verdict,
    gather,
    light_associative,
    magma_generators,
    two_sided_identity,
    two_sided_zero,
)
from table_oracles import cubic_associativity_scan


def group_double(g):
    """Improper double magma carrying the group operation on both slots."""
    return DoubleMagma(Magma(g.mul, g.names, "*"), Magma(g.mul, g.names, "•"))


# --- predicates ---------------------------------------------------------------


def test_fixture_tables():
    d = two_element_fixture()
    assert is_commutative(d.star).holds
    assert is_commutative(d.bullet).holds
    proper, cell = is_proper(d)
    assert proper and cell == (1, 1)  # tables differ exactly at b*b
    assert d.names[find_identity(d.star)] == "b"
    assert find_identity(d.bullet) is None
    assert d.names[find_zero(d.bullet)] == "a"
    assert satisfies_interchange(d).holds
    assert is_associative(d.star).holds
    assert is_associative(d.bullet).holds


def test_commutative_verdicts():
    abelian = commutator_double(make_cyclic(6))
    assert is_commutative(abelian.star).holds

    d3 = commutator_double(parse_group_spec("dihedral:3"))
    assert repr(d3) == "DoubleMagma('commutator(dihedral:3)', order=6)"
    assert repr(d3.star) == "Magma(order=6, symbol='*')"
    v = is_commutative(d3.star)
    assert v.status == "counterexample"
    x, y = v.witness["x"], v.witness["y"]
    g = parse_group_spec("dihedral:3")
    xi, yi = g.index_of(x), g.index_of(y)
    assert d3.star.op[xi, yi] != d3.star.op[yi, xi]


def test_associativity_against_naive_scan():
    wd = word_double(make_cyclic(3), "a*b^-1")
    v = is_associative(wd.star)
    assert v.status == "counterexample"
    op = wd.star.op
    naive = next(
        (x, y, z)
        for x, y, z in itertools.product(range(3), repeat=3)
        if op[op[x, y], z] != op[x, op[y, z]]
    )
    got = tuple(wd.names.index(v.witness[k]) for k in ("x", "y", "z"))
    assert got == naive


def test_associative_on_class_two_double():
    star = commutator_double(parse_group_spec("heisenberg:3")).star
    assert is_associative(star).holds


def test_interchange_d8():
    d = commutator_double(make_dihedral(8))
    v = satisfies_interchange(d)
    assert v.holds and v.evaluations == 65536


def test_interchange_s4_counterexample_verified_cellwise():
    d = commutator_double(parse_group_spec("perm:(1 2),(1 2 3 4)"))
    v = satisfies_interchange(d)
    assert v.status == "counterexample"
    names = list(d.names)
    w, x, y, z = (names.index(v.witness[k]) for k in ("w", "x", "y", "z"))
    s, b = d.star.op, d.bullet.op
    assert b[s[w, x], s[y, z]] != s[b[w, y], b[x, z]]


def test_interchange_budget():
    d = commutator_double(make_dihedral(8))
    with pytest.raises(BudgetExceededError):
        satisfies_interchange(d, budget=100)


def test_interchange_trivial_for_shared_commutative_associative_op():
    assert satisfies_interchange(group_double(make_cyclic(4))).holds


def test_find_zero_of_commutation_double_is_group_identity(corpus_groups):
    for spec, g in corpus_groups:
        d = commutator_double(g)
        assert find_zero(d.star) == g.identity, spec
        assert find_zero(d.bullet) == g.identity, spec


def test_word_double_star_has_no_zero_or_identity():
    wd = word_double(make_cyclic(3), "a*b^-1")
    assert find_zero(wd.star) is None
    assert find_identity(wd.star) is None


def identity_by_definition(t) -> int | None:
    n = len(t)
    return next((e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))), None)


def zero_by_definition(t) -> int | None:
    n = len(t)
    return next((z for z in range(n) if all(t[z][x] == z == t[x][z] for x in range(n))), None)


def test_two_sided_identity_and_zero_match_their_definitions():
    # Random tables, with some rows and columns overwritten by identity (x -> x)
    # or zero (x -> z) lines, so several rows are candidates and few pass.
    rng = np.random.default_rng(3)
    found, crowded = {"identity": set(), "zero": set()}, 0
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        t = rng.integers(0, n, size=(n, n))
        zero = rng.random() < 0.5
        for e in np.flatnonzero(rng.random(n) < 0.4):
            t[e] = e if zero else np.arange(n)
        for e in np.flatnonzero(rng.random(n) < 0.4):
            t[:, e] = e if zero else np.arange(n)
        t = t.astype(np.int32)
        rows = t.tolist()
        if zero:
            crowded += sum(all(v == z for v in rows[z]) for z in range(n)) >= 2
            got, want = two_sided_zero(t), zero_by_definition(rows)
        else:
            crowded += sum(rows[e] == list(range(n)) for e in range(n)) >= 2
            got, want = two_sided_identity(t), identity_by_definition(rows)
        assert got == want, (t, zero)
        found["zero" if zero else "identity"].add(want is None)
    assert found == {"identity": {True, False}, "zero": {True, False}}
    assert crowded >= 100


def test_star_of_commutation_double_never_has_identity(corpus_groups):
    for spec, g in corpus_groups:
        if g.order == 1:
            continue
        assert find_identity(commutator_double(g).star) is None, spec


# --- the unitary-collapse audit -------------------------------------------------


def test_audit_fixture_hypotheses_fail():
    report = eckmann_hilton_audit(two_element_fixture())
    assert not report.hypotheses_hold
    assert report.failed_hypotheses == ("bullet has no identity",)
    assert report.consistent
    assert "nothing asserted" in report.summary()


def test_audit_unital_improper_double_verifies_conclusions():
    report = eckmann_hilton_audit(group_double(make_cyclic(4)))
    assert report.hypotheses_hold
    assert report.consistent
    assert report.star_identity == report.bullet_identity == "1"
    assert all(report.conclusions.values())


def test_audit_commutation_double_fails_unitality():
    report = eckmann_hilton_audit(commutator_double(parse_group_spec("dihedral:3")))
    assert not report.hypotheses_hold
    assert "star has no identity" in report.failed_hypotheses


def test_audit_flags_inconsistency_on_a_forged_double():
    # Unital and interchange-satisfying, but the identities differ: a genuine
    # refutation would look like this, so the audit must go inconsistent.
    star = Magma([[0, 1], [1, 0]], ("1", "t"), "*")
    with pytest.raises(ValueError):
        # sanity: mismatched names are rejected outright
        DoubleMagma(star, Magma([[0, 1], [1, 0]], ("1", "u"), "•"))
    forged = DoubleMagma(star, Magma([[1, 1], [1, 0]], ("1", "t"), "•"))
    report = eckmann_hilton_audit(forged)
    if report.hypotheses_hold:
        assert not report.consistent
        assert "FATAL" in report.summary()
    else:
        assert report.consistent


def test_audit_summary_names_the_failed_conclusions():
    # no table passes the hypotheses and fails a conclusion, so the report is built directly
    report = EckmannHiltonReport("1", "t", Verdict(HOLDS_EXHAUSTIVE, 16), True, (),
                                 {"star-associative": True, "operations-identical": False,
                                  "identities-coincide": False})
    assert not report.consistent
    assert report.summary() == ("FATAL INCONSISTENCY: hypotheses hold but conclusions fail: "
                                "identities-coincide, operations-identical")


# --- exporters -------------------------------------------------------------------


def test_render_text_layout():
    wd = word_double(make_cyclic(3), "a*b^-1")
    text = render_text(wd.star)
    lines = text.splitlines()
    assert lines[0].split() == ["*", "1", "a", "a2"]
    assert lines[1].split() == ["1", "1", "a2", "a"]
    assert lines[2].split() == ["a", "a", "1", "a2"]
    assert lines[3].split() == ["a2", "a2", "a", "1"]


def test_csv_round_trip(corpus_groups):
    for spec, g in corpus_groups[:6]:
        d = commutator_double(g)
        names, op = parse_csv_table(render_csv(d.star))
        assert list(names) == list(d.names), spec
        assert np.array_equal(op, d.star.op), spec


def test_parse_csv_rejects_malformed():
    with pytest.raises(ValueError):
        parse_csv_table("")
    with pytest.raises(ValueError):
        parse_csv_table("*,a,b\na,a,a\n")  # missing row


def test_parse_csv_rejects_unknown_cell():
    with pytest.raises(ValueError, match="unknown element 'c'"):
        parse_csv_table(",a,b\na,a,c\nb,b,a\n")


def test_parse_csv_rejects_blank_row():
    with pytest.raises(ValueError, match="malformed CSV row 2"):
        parse_csv_table(",a,b\na,a,b\n\n")


def test_parse_csv_rejects_duplicate_header_names():
    with pytest.raises(ValueError, match="repeats element 'a'"):
        parse_csv_table(",a,a\na,a,a\na,a,a\n")


def generated(t, gens) -> set[int]:
    """Every product of generators, closed in Python sets, independently of magma_generators."""
    rows = t.tolist()
    reached = set(gens)
    while True:
        more = reached | {rows[a][b] for a in reached for b in reached}
        if more == reached:
            return reached
        reached = more


def test_light_test_agrees_with_full_scan_on_small_magmas():
    tables = [np.array(t).reshape(2, 2) for t in itertools.product(range(2), repeat=4)]
    rng = np.random.default_rng(0)
    tables += list(rng.integers(0, 3, size=(3000, 3, 3)))
    assoc = 0
    for t in tables:
        t = t.astype(np.int32)
        gens = magma_generators(t)
        assert generated(t, gens) == set(range(len(t)))
        expected = cubic_associativity_scan(t) is None
        assert light_associative(t, gens) == expected
        assoc += expected
    assert assoc >= 10  # semigroups occur among these tables, not only failures


def test_generators_generate_every_constructed_structure(corpus_groups, corpus_rings):
    tables = [g.mul for _, g in corpus_groups] + [r.add for _, r in corpus_rings]
    tables += [parse_group_spec(spec).mul for spec in (
        "dihedral:256", "heisenberg:7", "product:dihedral:8,cyclic:16", "perm:(1 2),(1 2 3 4 5)")]
    tables += [parse_ring_spec(spec).add for spec in ("uppertri:2,7", "matrix:2,4")]
    for t in tables:
        gens = magma_generators(t)
        assert generated(t, gens) == set(range(len(t)))
        assert 0 not in gens or len(t) == 1  # the identity is a product of the others
        assert len(gens) <= 4


def test_an_element_that_is_no_product_comes_out_as_a_generator():
    t = np.array([[1, 2, 1], [2, 1, 2], [1, 2, 1]], dtype=np.int32)  # 0 is no product
    assert magma_generators(t) == [1, 2, 0]
    assert generated(t, [1, 2]) == {1, 2}


def test_structured_contains_both_operations():
    d = commutator_double(make_dihedral(3))
    doc = structured_double(d)
    assert set(doc) == {"names", "star", "bullet"}
    assert doc["star"] == d.star.op.tolist()
    assert doc["bullet"] == d.bullet.op.tolist()
    single = structured_magma(d.star)
    assert set(single) == {"names", "op"}


def test_superscript_names():
    assert superscript_names(["1", "a6b", "a12", "(1,0,2)"]) == [
        "1",
        "a⁶b",
        "a¹²",
        "(1,0,2)",
    ]


def test_gather_matches_fancy_indexing():
    rng = np.random.default_rng(5)
    full = np.arange(6)
    cases = [
        (rng.integers(0, 6, size=(3, 4, 1)), full),  # whole rows
        (np.int64(2), full),  # one whole row
        (rng.integers(0, 6, size=(4, 1)), full[::-1].copy()),  # all columns, not in order
        (rng.integers(0, 6, size=(3, 6)), full),  # a varies along the last axis
        (rng.integers(0, 6, size=(5, 1)), rng.integers(0, 6, size=(1, 6))),
        (rng.integers(0, 6, size=7), rng.integers(0, 6, size=7)),
        (3, rng.integers(0, 6, size=(2, 3))),  # a Python int
        (np.array(4), rng.integers(0, 6, size=5)),  # a 0-d array
        (np.array(1), np.int64(5)),  # one cell
    ]
    for dtype in (np.int32, np.intp):
        table = rng.integers(0, 6, size=(6, 6)).astype(dtype)
        for a, b in cases:
            for a_, b_ in ((a, b), (np.asarray(a, np.int32), np.asarray(b, np.int32))):
                got = gather(table, a_, b_)
                assert got.dtype == dtype and np.array_equal(got, table[a_, b_])
        # |gens| x n, like the right maps of a permutation closure: cells stride by n
        right_maps = rng.integers(0, 6, size=(3, 6)).astype(dtype)
        a, b = rng.integers(0, 3, size=(4, 1)), rng.integers(0, 6, size=(4, 6))
        assert np.array_equal(gather(right_maps, a, b), right_maps[a, b])
