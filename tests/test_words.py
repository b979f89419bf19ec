"""Word language: parsing, printing, evaluation, and the law checker.

The law checker is cross-validated against the oracles in `word_oracles`,
which share nothing with the vectorized scan path.
"""

import dataclasses
import itertools
import math
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmagma.magmas
import dmagma.rings
import dmagma.tables
import dmagma.words
from dmagma.constructions import commutator_double
from dmagma.errors import (
    BudgetExceededError,
    ParseError,
    SpecError,
    UnboundVariableError,
)
from dmagma.groups import make_cyclic, make_dihedral, make_metacyclic, parse_group_spec
from dmagma.magmas import satisfies_interchange
from dmagma.rings import RING_LAWS, RING_WORD_LAWS, check_ring_law, parse_ring_spec
from dmagma.suite import DEFAULT_GROUPS, IDENTITY_LAWS
from dmagma.tables import (
    COUNTEREXAMPLE,
    HOLDS_EXHAUSTIVE,
    HOLDS_SAMPLED,
    SCAN_CELLS,
    Verdict,
    exhaustive_verdict,
    first_failure,
)
from dmagma.words import (
    BUILTIN_LAWS,
    MAX_DEPTH,
    Bracket,
    Conjugate,
    IdentityLiteral,
    IntPower,
    Inverse,
    Law,
    Product,
    Term,
    Variable,
    builtin_law,
    check_law_exhaustive,
    check_law_sampled,
    evaluate,
    free_variables,
    lower,
    parse_law,
    parse_term,
    to_string,
)
from test_properties import BLOCK_WITNESSES, GROUPS, S3, perm_groups, terms
from test_rings import _scalar_ring_scan, drop_line, line_class_counts
from word_oracles import flat_index_scan, naive_check, stream_scan

X, Y, Z, U = Variable("x"), Variable("y"), Variable("z"), Variable("u")


# --- parsing -----------------------------------------------------------------


def test_semicolon_bracket_desugars():
    assert parse_term("[x,y;x,z]") == Bracket(Bracket(X, Y), Bracket(X, Z))
    assert parse_term("[w,x;y,z]") == parse_term("[[w,x],[y,z]]")


def test_left_nesting():
    assert parse_term("[x,y,z]") == Bracket(Bracket(X, Y), Z)
    assert parse_term("[x,y,z]") != parse_term("[x,[y,z]]")
    assert parse_term("[x,y,z,u]") == parse_term("[[[x,y],z],u]")


def test_identity_literal():
    assert parse_term("1") == IdentityLiteral()


def test_power_vs_conjugation_tiebreak():
    assert parse_term("a^-1") == Inverse(Variable("a"))
    assert parse_term("a^2") == IntPower(Variable("a"), 2)
    assert parse_term("a^+3") == IntPower(Variable("a"), 3)
    assert parse_term("a^1") == IntPower(Variable("a"), 1)  # integer wins the tie
    assert parse_term("a^b") == Conjugate(Variable("a"), Variable("b"))
    assert parse_term("[x,y]^[y,z]") == Conjugate(Bracket(X, Y), Bracket(Y, Z))


def test_products_and_juxtaposition():
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    assert parse_term("a*b*c") == Product(Product(a, b), c)
    assert parse_term("a b c") == Product(Product(a, b), c)
    assert parse_term("[x,y][y,z]") == Product(Bracket(X, Y), Bracket(Y, Z))
    # a multi-letter run is one identifier, not a product
    assert parse_term("ab") == Variable("ab")


def test_semicolon_right_side_is_a_full_term():
    got = parse_term("[x,y;[x,z]^u]")
    assert got == Bracket(Bracket(X, Y), Conjugate(Bracket(X, Z), U))


def test_parse_errors():
    for bad, what in [
        ("", "empty"),
        ("[x]", "two"),
        ("x^40", "out of range"),
        ("x^", "after"),
        ("x^-y", r"expected an integer exponent after the sign \(at position 3\)"),
        ("x*", r"expected a term, found 'end of input' \(at position 2\)"),
        ("2", "constant"),
        ("(x", "expected"),
        ("x)", "trailing"),
        ("x$y", "unexpected character"),
        ("[x,y", "expected"),
        # "²" is a digit to str.isdigit but not to int()
        ("x^²", r"unexpected character '²' \(at position 2\)"),
        ("[x,y]^-²", r"unexpected character '²' \(at position 7\)"),
    ]:
        with pytest.raises(ParseError, match=what):
            parse_term(bad)


# Every refusal text of the word reader, position included: each reaches the
# user verbatim as `dmagma law`'s "error: ..." line.
@pytest.mark.parametrize("parse,text,message", [
    (parse_term, "", "empty input"),
    (parse_term, " \t ", "empty input"),
    (parse_term, "[x]", "a bracket needs at least two comma-separated terms (at position 0)"),
    (parse_term, "x^40", "power exponent 40 out of range +-32 (at position 2)"),
    (parse_term, "x^-0123456789012345678901",
     "power exponent -123456789012... (21 digits) out of range +-32 (at position 3)"),
    (parse_term, "x^", "expected an integer or a primary term after '^' (at position 2)"),
    (parse_term, "x^+", "expected an integer exponent after the sign (at position 3)"),
    (parse_term, "x^-y", "expected an integer exponent after the sign (at position 3)"),
    (parse_term, "x*", "expected a term, found 'end of input' (at position 2)"),
    (parse_term, "2", "'2' is not a term; the only constant is the identity '1' (at position 0)"),
    (parse_term, "((x", "expected ')', found 'end of input' (at position 3)"),
    (parse_term, "x y )", "unexpected trailing input ')' (at position 4)"),
    (parse_term, "x$y", "unexpected character '$' (at position 1)"),
    (parse_term, "[x,y", "expected ']', found 'end of input' (at position 4)"),
    (parse_term, "[x,,y]", "expected a term, found ',' (at position 3)"),
    (parse_term, "[x,y;]", "expected a term, found ']' (at position 5)"),
    (parse_term, "[x,y;z,w", "expected ']', found 'end of input' (at position 8)"),
    (parse_term, " [ x , y ] ] ", "unexpected trailing input ']' (at position 11)"),
    (parse_term, "x^1^", "unexpected trailing input '^' (at position 3)"),
    (parse_term, "x=y", "unexpected trailing input '=' (at position 1)"),
    (parse_law, "  ", "empty input"),
    (parse_law, "[x,y]", "a law needs '=' between two terms (at position 5)"),
    (parse_law, "x = y = z", "a law must contain exactly one '=' (at position 6)"),
    (parse_law, "x==y", "expected a term, found '=' (at position 2)"),
    (parse_law, "x=", "expected a term, found 'end of input' (at position 2)"),
    (parse_law, "[x,y]=1,", "unexpected trailing input ',' (at position 7)"),
    (parse_law, " [x,y;x,z] = 1 2",
     "'2' is not a term; the only constant is the identity '1' (at position 15)"),
])
def test_every_word_refusal_has_its_exact_text(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_law():
    law = parse_law("[x,y;x,z] = 1")
    assert law.variables == ("x", "y", "z")
    law = parse_law("[w,x;y,z]=[w,y;x,z]")
    assert law.variables == ("w", "x", "y", "z")
    assert parse_law("x = x").variables == ("x",)


def test_parse_law_equals_sign_errors():
    with pytest.raises(ParseError, match="^empty input$"):
        parse_law(" ")
    with pytest.raises(ParseError, match=r"^unexpected trailing input '\)' \(at position 3\)$"):
        parse_law("x=y)")
    with pytest.raises(ParseError, match="'='"):
        parse_law("[x,y]")
    with pytest.raises(ParseError, match="exactly one"):
        parse_law("x = y = z")


def test_free_variable_order():
    assert free_variables(parse_term("[w,x;y,z]")) == ["w", "x", "y", "z"]
    assert free_variables(parse_term("[z,y]*[y,z]")) == ["z", "y"]


def test_lowering_numbers_variables_and_merges_equal_subterms():
    low = lower(parse_term("[x,y]*[x,y]^2"), parse_term("[z,y]^-1"))
    assert low.variables == ("x", "y", "z")
    xy = low.ops.index((Bracket, 0, 1))
    # [x,y] is one slot; its square, a product, and the outer product reuse it
    assert low.ops.count((Bracket, 0, 1)) == 1
    square = low.ops.index((Product, xy, xy))
    assert (Product, xy, square) in low.ops
    assert {op[0] for op in low.ops} == {Variable, Bracket, Product, Inverse}
    assert low.lines == {"x": {(Bracket, 0)}, "y": {(Bracket, 1)}, "z": {(Bracket, 0)}}
    assert len(low.roots) == 2
    # a variable read whole anywhere keeps every element; one read nowhere is one class
    assert lower(parse_term("[x,y]*x")).lines == {"x": None, "y": {(Bracket, 1)}}
    assert lower(parse_term("x^0*y")).lines == {"x": frozenset(), "y": None}


def test_a_law_is_lowered_once_however_often_it_is_checked(monkeypatch):
    lowered = []
    real = dmagma.words.lower
    monkeypatch.setattr(dmagma.words, "lower", lambda *terms: lowered.append(terms) or real(*terms))
    g = parse_group_spec(S4)
    law = Law(parse_term("[x,y;x,z]"), parse_term("[x,z;x,y]"))
    assert check_law_exhaustive(g, law) == check_law_exhaustive(g, law)
    check_law_sampled(g, law, 1000, 3)
    assert lowered == [(law.lhs, law.rhs)]
    # a text parsed again is the same law, lowered already
    assert parse_law("[x,y;x,z]=[x,z;x,y]") is parse_law("[x,y;x,z]=[x,z;x,y]")
    assert len(lowered) == 2
    # the cached lowering changes neither the law's fields nor its equality
    again = parse_law("[x,y;x,z]=[x,z;x,y]")
    assert again == law and hash(again) == hash(law)
    assert str(law) == "[[x,y],[x,z]]=[[x,z],[x,y]]" and law.variables == ("x", "y", "z")


def test_round_trip_examples():
    for text in (
        "[x,y;x,z]",
        "[x,y,z,u]",
        "x^-1*x^y",
        "(x*y)^-2",
        "[x,y]^2*1",
        "x^(y^-1)",
        "[x,y;[x,z]^u]",
    ):
        t = parse_term(text)
        assert parse_term(to_string(t)) == t


# --- evaluation ----------------------------------------------------------------


def test_evaluate_commutator_on_d8():
    g = make_dihedral(8)
    val = evaluate(parse_term("[x,y]"), g, {"x": g.index_of("a"), "y": g.index_of("b")})
    assert g.names[val] == "a6"


def test_evaluate_inverse_product_is_identity():
    g = make_dihedral(6)
    t = parse_term("x^-1 * x")
    for x in g.elements():
        assert evaluate(t, g, {"x": x}) == g.identity


def test_evaluate_commutator_square_on_d3():
    g = make_metacyclic(3, 2, 2)
    val = evaluate(parse_term("[x,y]^2"), g, {"x": g.index_of("a"), "y": g.index_of("b")})
    assert g.names[val] == "a2"


def test_evaluate_powers_and_conjugates():
    g = make_dihedral(8)
    a, b = g.index_of("a"), g.index_of("b")
    assert evaluate(parse_term("x^8"), g, {"x": a}) == g.identity
    assert evaluate(parse_term("x^-3"), g, {"x": a}) == g.power(a, 5)
    assert evaluate(parse_term("x^y"), g, {"x": a, "y": b}) == g.conjugate(a, b)
    assert evaluate(parse_term("x^0"), g, {"x": b}) == g.identity


def test_evaluate_unbound_variable_names_it():
    g = make_cyclic(3)
    with pytest.raises(UnboundVariableError, match="'y'"):
        evaluate(parse_term("[x,y]"), g, {"x": 1})


# --- law checking ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,law_text",
    [
        ("dihedral:3", "[x,y]^2=1"),
        ("dihedral:3", "[x,y,z][y,z,x]=1"),
        ("cyclic:4", "x*y=y*x"),
        ("metacyclic:3,2,2", "[x,y;x,z]=1"),
        ("perm:(1 2),(1 2 3)", "[x,y,z]=1"),
        ("dihedral:4", "[x,y;x,z]=1"),
    ],
)
def test_checker_matches_naive_oracle(spec, law_text):
    g = parse_group_spec(spec)
    law = parse_law(law_text)
    got = check_law_exhaustive(g, law)
    want = naive_check(g, law)
    assert got == want


EDGE_LAWS = ("1=1", "x=1", "x^0=1", "[1,x]=1", "[x,y]^-3=[y,x]^3")
DIFFERENTIAL_LAWS = (
    *BUILTIN_LAWS.values(), *(text for _, text in IDENTITY_LAWS), *EDGE_LAWS
)
# Largest assignment count the differential sweep scans, and the most slices
# one small-chunk scan may take (each slice evaluates the whole law once).
DIFFERENTIAL_TOTAL = 2 * 10**6
DIFFERENTIAL_SLICES = 3000


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_broadcast_scan_matches_flat_index_scan(spec):
    g = parse_group_spec(spec)
    n = g.order
    scanned = 0
    for text in DIFFERENTIAL_LAWS:
        law = parse_law(text)
        total = n ** len(law.variables)
        if total > DIFFERENTIAL_TOTAL:
            continue
        want = flat_index_scan(g, law)
        for chunk in (1, 7, n, 1 << 20):
            if total > chunk * DIFFERENTIAL_SLICES:
                continue
            with patch.object(dmagma.tables, "SCAN_CELLS", chunk):
                assert check_law_exhaustive(g, law) == want, (text, chunk)
            scanned += 1
    assert scanned >= len(DIFFERENTIAL_LAWS) // 2


# (group, law, variable, dropped line): dropping that (node type, axis) line
# from the variable's class derivation merges elements the law tells apart
# before the first failure, so the scan must then disagree with the oracle.
# Together they drop a bracket row and column, a conjugate row and column, a
# repeated line and one of a variable's two lines.
S4 = "perm:(1 2),(1 2 3 4)"
LINE_DROPS = (
    (S4, "[x,y;x,z]=1", "x", Bracket, 0),
    (S4, "[x,y;x,z]=1", "y", Bracket, 1),
    (S4, "[x,y;x,z]=1", "z", Bracket, 1),
    ("dihedral:8", "[x,y,z]=1", "x", Bracket, 0),
    ("dihedral:8", "[x,y,z]=1", "z", Bracket, 1),
    ("dihedral:4", "x^y=x", "y", Conjugate, 1),
    ("dihedral:4", "[x^y,z]=1", "x", Conjugate, 0),
    ("dihedral:4", "[x,y^x]=1", "y", Conjugate, 0),
    ("heisenberg:3", "[x,y]=x^z", "x", Conjugate, 0),
)


@pytest.mark.parametrize("spec,text,variable,kind,axis", LINE_DROPS)
def test_dropping_a_line_of_the_class_derivation_is_caught(monkeypatch, spec, text, variable, kind,
                                                           axis):
    g, law = parse_group_spec(spec), parse_law(text)
    want = flat_index_scan(g, law)
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", 7)
    assert check_law_exhaustive(g, law) == want
    drop_line(monkeypatch, law, variable, (kind, axis))
    assert check_law_exhaustive(g, law) != want


def test_broadcast_scan_edge_laws():
    g = make_dihedral(4)
    got = {text: check_law_exhaustive(g, parse_law(text)) for text in EDGE_LAWS}
    assert got["1=1"] == Verdict(HOLDS_EXHAUSTIVE, 1)
    assert got["x=1"] == Verdict(COUNTEREXAMPLE, 2, {"x": g.names[1]})
    assert got["x^0=1"] == Verdict(HOLDS_EXHAUSTIVE, 8)
    assert got["[1,x]=1"] == Verdict(HOLDS_EXHAUSTIVE, 8)
    assert got["[x,y]^-3=[y,x]^3"] == Verdict(HOLDS_EXHAUSTIVE, 64)


def lexicographic_scan(n, variables, names, failing):
    """The exhaustive scan behind every law check: the walker, then the verdict."""
    bad = first_failure([np.arange(n)] * len(variables), failing)
    return exhaustive_verdict(bad, variables, names)


@pytest.mark.parametrize(
    "n,k,cells", [(3, 4, 1), (3, 4, 7), (5, 3, 30), (4, 2, 100), (2, 5, 3), (7, 1, 4), (3, 0, 1)]
)
def test_scan_slices_tile_the_grid_in_lexicographic_order(monkeypatch, n, k, cells):
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", cells)
    variables = tuple("abcde"[:k])
    names = [f"e{i}" for i in range(n)]
    seen = []

    def record(axes):
        shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
        assert 1 <= np.prod(shape) <= cells
        flat = sum(a * n ** (k - 1 - i) for i, a in enumerate(axes))
        seen.extend(np.broadcast_to(flat, shape).ravel().tolist())
        return np.zeros(shape, dtype=bool)

    assert lexicographic_scan(n, variables, names, record) == Verdict(HOLDS_EXHAUSTIVE, n**k)
    assert seen == list(range(n**k))
    for target in (0, 1, n**k // 2 + 1, n**k - 1):
        if target >= n**k:
            continue
        def fails_at(axes):
            flat = sum(a * n ** (k - 1 - i) for i, a in enumerate(axes))
            return np.asarray(flat) >= target  # every later assignment fails too
        got = lexicographic_scan(n, variables, names, fails_at)
        witness = {v: names[target // n ** (k - 1 - i) % n] for i, v in enumerate(variables)}
        assert got == Verdict(COUNTEREXAMPLE, target + 1, witness)


_FOLD_NAMES = ("x", "y", "z")


def _fold_variables(t: Term, keep: int) -> Term:
    """Rename variables onto the first `keep` of x, y, z, keeping the tree shape."""
    if isinstance(t, Variable):
        return Variable(_FOLD_NAMES[sum(map(ord, t.name)) % keep])
    fields = {
        f.name: _fold_variables(getattr(t, f.name), keep)
        for f in dataclasses.fields(t)
        if isinstance(getattr(t, f.name), Term)
    }
    return dataclasses.replace(t, **fields)


@given(terms, terms, st.one_of(st.sampled_from(GROUPS), perm_groups))
@settings(max_examples=60, deadline=None)
def test_broadcast_scan_matches_naive_oracle_on_random_laws(lhs, rhs, g):
    keep = max(k for k in (1, 2, 3) if g.order**k <= 512)  # keeps the scalar oracle quick
    law = Law(_fold_variables(lhs, keep), _fold_variables(rhs, keep))
    want = naive_check(g, law)
    for chunk in (1, 7, 1 << 20):
        with patch.object(dmagma.tables, "SCAN_CELLS", chunk):
            assert check_law_exhaustive(g, law) == want


@given(terms, terms, st.integers(0, len(GROUPS) - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_verdict_never_contradicts_exhaustive(lhs, rhs, pick, seed):
    g = GROUPS[pick]
    law = Law(_fold_variables(lhs, 3), _fold_variables(rhs, 3))
    exhaustive = check_law_exhaustive(g, law)
    sampled = check_law_sampled(g, law, 200, seed)
    if exhaustive.holds:
        assert sampled.status == HOLDS_SAMPLED
    if sampled.status == COUNTEREXAMPLE:
        env = {v: g.index_of(name) for v, name in sampled.witness.items()}
        assert evaluate(law.lhs, g, env) != evaluate(law.rhs, g, env)


def test_word_tables_match_scalar_commutator_and_conjugate(corpus_groups):
    for spec, g in corpus_groups:
        tables = g.law_tables
        cells = list(itertools.product(g.elements(), repeat=2))
        assert [tables[Bracket][x, y] for x, y in cells] == [g.commutator(x, y) for x, y in cells]
        assert [tables[Conjugate][x, y] for x, y in cells] == [g.conjugate(x, y) for x, y in cells]


def test_a_group_builds_all_five_law_tables_once_on_first_use():
    g = make_dihedral(4)
    assert "law_tables" not in vars(g)  # the constructor builds none
    # the first law scan builds every table, the bracket and conjugates it does
    # not read among them, as intp copies of G's own tables and derived from them
    check_law_exhaustive(g, parse_law("x*y^-1=(x y)^3"))
    kept = g.law_tables
    assert set(kept) == {Product, Inverse, IdentityLiteral, Bracket, Conjugate}
    assert all(t.dtype == np.intp and not t.flags.writeable for t in kept.values())
    assert not any(np.shares_memory(t, own) for t in kept.values() for own in (g.mul, g.inv))
    assert np.array_equal(kept[Product], g.mul) and np.array_equal(kept[Inverse], g.inv)
    assert kept[IdentityLiteral] == g.identity
    tables = dict(kept)
    for text in ("x=y^x", "[x,y]=1", "x^2=y^2"):  # later scans build nothing
        check_law_exhaustive(g, parse_law(text))
    assert g.law_tables is kept and kept.keys() == tables.keys()
    assert all(kept[kind] is t for kind, t in tables.items())


def test_word_tables_share_no_memory_with_the_table_route(corpus_groups):
    # the law route and commutator_double must stay two independent computations
    for spec, g in corpus_groups:
        star = commutator_double(g).star.op
        tables = g.law_tables
        assert np.array_equal(tables[Bracket], star), spec
        for table in tables.values():
            assert not np.shares_memory(table, star), spec


def test_law_op_tables_and_classes_are_kept_on_the_group(monkeypatch):
    # built on the first law check that needs them, in intp, and read again
    # by later checks; the constructor builds neither
    g = parse_group_spec("metacyclic:7,3,2")
    assert "law_tables" not in vars(g) and "law_classes" not in vars(g)
    seen = []

    def recording_first_failure(reps, failing, conjugates=None):
        seen.append(reps)
        return first_failure(reps, failing, conjugates)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    law = builtin_law("L1")
    first = check_law_exhaustive(g, law)
    tables = dict(g.law_tables)
    # G's own tables, the bracket L1 reads and the conjugates the orbit keys read
    assert set(tables) == {Product, Inverse, IdentityLiteral, Bracket, Conjugate}
    assert all(t.dtype == np.intp and not t.flags.writeable for t in tables.values())
    assert check_law_exhaustive(g, law) == first
    assert all(a is b for a, b in zip(seen[0], seen[1]))
    assert all(g.law_tables[kind] is t for kind, t in tables.items())


def _group_law_check(g, name):
    return check_law_exhaustive(g, builtin_law(name))


@pytest.mark.parametrize("build,check,laws", [
    (partial(parse_group_spec, "metacyclic:7,3,2"), _group_law_check, ["L1", "CI", "SQUARE", "3M_III"]),
    (partial(parse_ring_spec, "matrix:2,3"), check_ring_law, list(RING_LAWS)),
], ids=["group", "ring"])
def test_a_second_law_call_copies_no_table_and_derives_no_class(monkeypatch, law_scan_builds,
                                                                build, check, laws):
    # groups and rings keep the same two things: the intp op tables, and the
    # classes with the walk of their grid
    s = build()
    assert "law_tables" not in vars(s) and "law_classes" not in vars(s)  # the constructor built neither
    first = [check(s, name) for name in laws]
    tables, classes = dict(s.law_tables), dict(s.law_classes)
    assert all(t.dtype == np.intp and not t.flags.writeable for t in tables.values())
    read, real_run_ops = [], dmagma.words.run_ops

    def recording_run_ops(low, op_tables, axes):
        read.extend(op_tables.values())
        return real_run_ops(low, op_tables, axes)

    monkeypatch.setattr(dmagma.words, "run_ops", recording_run_ops)
    law_scan_builds.clear()
    assert [check(s, name) for name in laws] == first
    assert read and all(any(t is kept for kept in tables.values()) for t in read)
    assert s.law_tables.keys() == tables.keys()
    assert all(s.law_tables[kind] is t for kind, t in tables.items())
    assert law_scan_builds == []  # no class derived and no walk built
    assert s.law_classes.keys() == classes.keys()
    assert all(s.law_classes[key] is kept for key, kept in classes.items())


@pytest.mark.parametrize("build,check,laws", [
    (partial(parse_group_spec, S4), _group_law_check, ["3M_I", "CLASS2"]),
    (partial(parse_ring_spec, "matrix:2,3"), check_ring_law, ["ALT3M", "NILP2"]),
], ids=["group", "ring"])
def test_laws_with_equal_line_sets_share_one_walk(monkeypatch, law_scan_builds, build, check, laws):
    # [x,y;x,z] and [x,y,z] read x by its bracket row and y, z by their
    # columns: the first call derives the classes and builds their walk, kept
    # on the structure, and the other law and every later call build nothing
    s, words = build(), [RING_WORD_LAWS.get(name, name) for name in laws]
    key, other = (tuple(builtin_law(w).lowering.lines.values()) for w in words)
    assert key == other
    walked, real = [], dmagma.tables.first_failure

    def recording_first_failure(reps, failing, conjugates=None):
        walked.append(reps)
        return real(reps, failing, conjugates)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    first = check(s, laws[0])
    walk = s.law_classes[key]
    assert law_scan_builds == [("classes", key), ("walk", walk)]
    assert list(walk) == [s.law_classes[line_set] for line_set in key]
    law_scan_builds.clear()
    again = [check(s, name) for name in (laws[1], laws[0], laws[1])]
    assert law_scan_builds == [] and again[1] == first
    assert len(walked) == 4 and all(w is walk for w in walked)


@pytest.mark.parametrize("build,check,laws", [
    (partial(make_dihedral, 4), _group_law_check, ["3M_I", "CLASS2", "CI", "COMM_SQ", "L1"]),
    (partial(parse_ring_spec, "uppertri:2,2"), check_ring_law, list(RING_LAWS)),
], ids=["group", "ring"])
def test_law_classes_stop_growing_over_repeated_calls(build, check, laws):
    # at most one walk per distinct tuple of line sets, and one class array
    # per line set: the first round keeps all there is
    s = build()
    first = [check(s, name) for name in laws]
    kept = dict(s.law_classes)
    for _ in range(1000):
        for name in laws:
            check(s, name)
    assert len(s.law_classes) == len(kept)
    assert all(s.law_classes[key] is value for key, value in kept.items())
    assert [check(s, name) for name in laws] == first


KEPT_WALK_LAWS = ["[x,y]=1", "x=y", "x*y=y*x", "[x,y;x,z]=1", "x^2=y^2*z^0", "[x,y]^2=1", "x^y=x"]


@pytest.mark.parametrize("spec", ["cyclic:4", "dihedral:4", "perm:(1 2),(1 2 3)"])
def test_kept_walks_give_the_verdicts_of_a_fresh_group(spec):
    # laws of equal arity but other line sets, in both orders on one group:
    # a walk kept for one must never serve another (on cyclic:4 "[x,y]=1"
    # has one class per variable, and "x=y" fails at (0, 1))
    g = parse_group_spec(spec)
    laws = [parse_law(text) for text in KEPT_WALK_LAWS]
    for law in [*laws, *reversed(laws)]:
        got = check_law_exhaustive(g, law)
        assert got == check_law_exhaustive(parse_group_spec(spec), law), (spec, str(law))
        assert got == flat_index_scan(g, law) == naive_check(g, law), (spec, str(law))


@pytest.mark.parametrize("spec", ["uppertri:2,2", "zmod:4"])
def test_kept_walks_give_the_verdicts_of_a_fresh_ring(spec):
    r = parse_ring_spec(spec)
    for name in [*RING_LAWS, *reversed(RING_LAWS)]:
        got = check_ring_law(r, name)
        assert got == check_ring_law(parse_ring_spec(spec), name) == _scalar_ring_scan(r, name), name


def test_a_walk_kept_under_other_scan_cells_is_laid_out_again(monkeypatch):
    # the walk of CI on dihedral:8 is kept under the default SCAN_CELLS; read
    # after the constant changes, it would hand the law slices past the new one
    g, law = parse_group_spec("dihedral:8"), builtin_law("CI")
    sizes, real_run_ops = [], dmagma.words.run_ops

    def recording_run_ops(low, op_tables, axes):
        sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, axes))))
        return real_run_ops(low, op_tables, axes)

    monkeypatch.setattr(dmagma.words, "run_ops", recording_run_ops)
    first = check_law_exhaustive(g, law)
    assert max(sizes) > 7
    sizes.clear()
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", 7)
    assert check_law_exhaustive(g, law) == first
    assert sizes and max(sizes) <= 7


def _long_law(k, factor, rhs=None):
    lhs = "*".join(factor.format(f"x{i}") for i in range(k))
    return parse_law(f"{lhs}={lhs if rhs is None else rhs}")


@pytest.mark.parametrize("spec,law,verdict", [
    ("cyclic:1", _long_law(33, "{}"), Verdict(HOLDS_EXHAUSTIVE, 1)),
    ("dihedral:3", _long_law(33, "{}^0", "1"), Verdict(HOLDS_EXHAUSTIVE, 6**33)),
    ("cyclic:1", _long_law(40, "{}"), Verdict(HOLDS_EXHAUSTIVE, 1)),
], ids=["33-product", "33-powers", "40-product"])
def test_no_scan_slice_spans_more_axes_than_numpy_1_allows(monkeypatch, spec, law, verdict):
    # numpy 1.x refuses arrays of more than 32 dimensions, and a slice's lead
    # block takes an axis beside the full trailing ones
    ndims, real_run_ops = [], dmagma.words.run_ops

    def recording_run_ops(low, op_tables, axes):
        out = real_run_ops(low, op_tables, axes)
        ndims.extend(np.ndim(a) for a in [*axes, *out])
        return out

    monkeypatch.setattr(dmagma.words, "run_ops", recording_run_ops)
    assert check_law_exhaustive(parse_group_spec(spec), law, budget=10**30) == verdict
    assert ndims and max(ndims) <= 32


@pytest.mark.parametrize("text,cells", [("x=x", 1), ("x=x", 2), ("x*y=x*y", 1), ("x*y=x*y", 6)])
def test_a_law_of_bare_prefix_scalars_holds(monkeypatch, text, cells):
    # with `cells` = 1 every variable is a Python int prefix scalar, so x != x
    # is a Python bool, which the walker reads through numpy
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", cells)
    g, law = parse_group_spec("perm:(1 2),(1 2 3)"), parse_law(text)
    assert check_law_exhaustive(g, law) == Verdict(HOLDS_EXHAUSTIVE, 6 ** len(law.variables))


def test_orbit_keys_are_first_computed_after_a_clean_prefix(monkeypatch):
    # chunks of 6 fix x as a scalar on S3; a failure at x = 1 computes no orbit keys
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", 6)
    calls, real = [], dmagma.tables.orbit_keys

    def counting_orbit_keys(conj, length):
        calls.append(conj)
        return real(conj, length)

    monkeypatch.setattr(dmagma.tables, "orbit_keys", counting_orbit_keys)
    g = parse_group_spec("perm:(1 2),(1 2 3)")
    assert check_law_exhaustive(g, parse_law("x=y")).evaluations == 2
    assert calls == []
    # the prefix x = 1 scans clean, and x = (1 2 3) fails after it
    assert check_law_exhaustive(g, parse_law("[x^2,y]=1")).evaluations == 14
    assert len(calls) == 1 and calls[0] is g.law_tables[Conjugate]


def simultaneous_orbits(g, length) -> int:
    """Orbits of G on G^length under simultaneous conjugation, counted with scalar lookups."""
    return len({
        min(tuple(g.conjugate(x, h) for x in prefix) for h in g.elements())
        for prefix in itertools.product(g.elements(), repeat=length)
    })


@pytest.mark.parametrize("length", [1, 2, 3])
def test_a_law_that_holds_scans_one_prefix_per_conjugation_orbit(monkeypatch, no_sample_stream,
                                                                 length):
    # S3 has trivial centre, so its 6 elements are 6 classes of [x,y;z,u]; a
    # chunk of 6^(4 - length) fixes the first `length` variables as scalars.
    # The law holds (S3 is metabelian), and one slice per orbit of prefixes is
    # scanned: 3, 11 and 49 of 6, 36 and 216.
    slices = []

    def recording_first_failure(reps, failing, conjugates=None):
        def wrapped(axes):
            slices.append(sum(np.ndim(a) == 0 for a in axes))
            return failing(axes)

        return first_failure(reps, wrapped, conjugates)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    g, law = parse_group_spec("perm:(1 2),(1 2 3)"), parse_law("[x,y;z,u]=1")
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", 6 ** (4 - length))
    assert check_law_exhaustive(g, law) == flat_index_scan(g, law)
    orbits = simultaneous_orbits(g, length)
    assert slices == [length] * orbits and orbits == [3, 11, 49][length - 1]
    slices.clear()
    got = check_law_sampled(g, law, 300, 1)  # settled on the class grid
    assert got == Verdict(HOLDS_SAMPLED, 300, None, 300, 1)
    assert len(slices) == orbits


def merge_orbits(monkeypatch, g):
    """Make `tables.orbit_keys` give the one-element prefix (1 2 3) the orbit key of (1 2)."""
    real = dmagma.tables.orbit_keys

    def merging(conj, length):
        key = real(conj, length)
        a, b = (key((g.index_of(name),)) for name in ("(1 2)", "(1 2 3)"))
        return lambda prefix: a if key(prefix) == b else key(prefix)

    monkeypatch.setattr(dmagma.tables, "orbit_keys", merging)


def keys_from_products(monkeypatch, g):
    """Read the orbit keys from the product table x*g instead of the conjugates x^g."""
    monkeypatch.setitem(g.law_tables, Conjugate, g.law_tables[Product])


@pytest.mark.parametrize("mutate", [merge_orbits, keys_from_products])
def test_a_wrong_orbit_key_is_caught(monkeypatch, mutate):
    # With x fixed as a scalar, [x^2,y] first fails at x = (1 2 3), after the
    # clean prefixes 1 and (1 2). Either mutant merges (1 2 3) with (1 2),
    # which is not conjugate to it (orders 3 and 2), so the scan skips the
    # failing prefix and its conjugate (1 3 2) and reports the law as holding;
    # the product-table mutant merges every prefix into one orbit.
    g, law = parse_group_spec("perm:(1 2),(1 2 3)"), parse_law("[x^2,y]=1")
    want, stream = flat_index_scan(g, law), stream_scan(g, law, 300, 1)
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", 6)
    assert check_law_exhaustive(g, law) == want == naive_check(g, law)
    assert check_law_sampled(g, law, 300, 1) == stream
    assert want.status == stream.status == COUNTEREXAMPLE
    mutate(monkeypatch, g)
    assert check_law_exhaustive(g, law) != want
    assert check_law_sampled(g, law, 300, 1) != stream


def test_a_group_law_hands_the_walker_its_own_conjugate_table(monkeypatch):
    # group laws pass the group's kept conjugate table to the walker, on the
    # exhaustive path and on the class grid of the sampled one; ring laws and
    # the interchange scan pass None, and the stream takes no conjugate table
    hooks = []
    real_first, real_sampled = dmagma.tables.first_failure, dmagma.tables.scan_sampled

    def recording_first_failure(reps, failing, conjugates=None):
        hooks.append(("walk", conjugates))
        return real_first(reps, failing, conjugates)

    def recording_scan_sampled(variables, names, failing, count, seed):
        hooks.append(("sample", None))
        return real_sampled(variables, names, failing, count, seed)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording_first_failure)
    monkeypatch.setattr(dmagma.tables, "scan_sampled", recording_scan_sampled)
    g = parse_group_spec("metacyclic:7,3,2")
    check_law_exhaustive(g, builtin_law("L1"))
    conj = g.law_tables[Conjugate]
    assert [kind for kind, _ in hooks] == ["walk"] and hooks[0][1] is conj
    hooks.clear()
    check_law_sampled(g, builtin_law("L3"), 10**6, 1)  # a grid of 21^5 <= 8 * 10^6 tuples: walked
    assert [kind for kind, _ in hooks] == ["walk"] and hooks[0][1] is conj
    hooks.clear()
    check_law_sampled(g, builtin_law("L3"), 10**4, 1)  # 21^5 > 8 * 10^4: the stream only
    assert [kind for kind, _ in hooks] == ["sample"]
    hooks.clear()
    r = parse_ring_spec("matrix:2,2")
    check_ring_law(r, "ALT3M")
    # past the budget RCI is sampled: its small class grid is walked first, and
    # holds a failure, so the stream is drawn
    check_ring_law(r, "RCI", budget=16**4 - 1)
    satisfies_interchange(commutator_double(g))
    assert [kind for kind, _ in hooks] == ["walk", "walk", "sample", "walk"]
    assert all(c is None for _, c in hooks)


def test_every_checker_takes_its_verdict_from_one_decide_call(monkeypatch):
    # `tables.decide` is the one door to a verdict: every law and table checker
    # calls it once, where its module binds it, and the stream
    # (`tables.scan_sampled`) is drawn only from inside that call
    decided, open_calls, streams = [], [], []
    real_decide, real_sampled = dmagma.tables.decide, dmagma.tables.scan_sampled

    def recording_decide(*args, **kwargs):
        decided.append(args[0])
        open_calls.append(None)
        try:
            return real_decide(*args, **kwargs)
        finally:
            open_calls.pop()

    def recording_scan_sampled(*args):
        streams.append(len(open_calls))
        return real_sampled(*args)

    for module in (dmagma.words, dmagma.rings, dmagma.magmas):
        monkeypatch.setattr(module, "decide", recording_decide)
    monkeypatch.setattr(dmagma.tables, "scan_sampled", recording_scan_sampled)
    s4, d16, r = parse_group_spec(S4), parse_group_spec("dihedral:16"), parse_ring_spec("matrix:2,2")
    cases = [
        (partial(check_law_exhaustive, s4, builtin_law("3M_I")), 0),
        (partial(check_law_sampled, s4, builtin_law("L3"), 10**5, 1), 1),  # 24^5 > 8 * 10^5: drawn
        (partial(check_law_sampled, d16, builtin_law("L3"), 10**6, 1), 0),  # settled on its grid
        (partial(check_ring_law, r, "RCI"), 0),
        (partial(check_ring_law, r, "RCI", budget=16**4 - 1), 1),  # its grid fails: drawn
        (partial(satisfies_interchange, commutator_double(s4)), 0),
    ]
    for check, drawn in cases:
        decided.clear()
        streams.clear()
        check()
        assert len(decided) == 1, check
        assert streams == [1] * drawn, check


@pytest.mark.parametrize("text,chunk", BLOCK_WITNESSES)
def test_a_block_coordinate_decoded_one_off_is_caught(monkeypatch, text, chunk):
    # In each example `failing` spans every axis of the failing slice, so the
    # first coordinate `first_failure` unravels is the witness's place in its
    # block of the lead variable. The mutant reads the element after it.
    g, law = S3, parse_law(text)
    want = flat_index_scan(g, law)
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", chunk)
    assert check_law_exhaustive(g, law) == want
    unravel = np.unravel_index

    def one_off(index, shape):
        first, *rest = unravel(index, shape)
        return (first + 1, *rest)

    monkeypatch.setattr(np, "unravel_index", one_off)
    assert check_law_exhaustive(g, law) != want


def test_chunked_scan_is_deterministic():
    g = make_dihedral(4)
    law = parse_law("[x,y,z]=1")
    verdicts = set()
    for c in (1, 7, 64, 1 << 20):
        with patch.object(dmagma.tables, "SCAN_CELLS", c):
            verdicts.add(check_law_exhaustive(g, law))
    assert len(verdicts) == 1


def test_sampled_stream_does_not_depend_on_chunk_size():
    cases = [
        ("dihedral:8", "[x,y,z]=1"),  # first witness after 11 samples, past a chunk of 7
        ("heisenberg:3", "[x,y]^2=1"),
        ("heisenberg:3", "[x,y,z]=1"),  # holds, settled on its 27^3 <= 8 * 3000 class tuples
        # holds, with 16^5 > 8 * 3000 class tuples: every chunk is scanned to the end
        ("dihedral:16", "[x,y,z;x,u,v]=1"),
        ("perm:(1 2),(1 2 3 4)", "x y z=z y x"),
    ]
    for spec, text in cases:
        g, law = parse_group_spec(spec), parse_law(text)
        verdicts = []
        for c in (1, 7, 1000, 1 << 20):
            with patch.object(dmagma.tables, "SCAN_CELLS", c):
                verdicts.append(check_law_sampled(g, law, 3000, 4))
        assert all(v == verdicts[0] for v in verdicts), (spec, text)


def test_a_clean_class_grid_settles_a_sampled_check_without_drawing(no_sample_stream):
    g = parse_group_spec("dihedral:16")
    for seed in (1, 3):
        got = check_law_sampled(g, builtin_law("L3"), 10**6, seed)
        assert got == Verdict(HOLDS_SAMPLED, 10**6, None, 10**6, seed)


@pytest.mark.parametrize("count,drawn", [(131_072, False), (131_071, True)])
def test_the_class_grid_is_scanned_up_to_eight_tuples_per_sample(drawn_seeds, count, drawn):
    # L3 [x,y,z;x,u,v] reads x by its commutator row and y, z, u, v by their columns
    g = parse_group_spec("dihedral:16")
    rows, cols = line_class_counts([[g.commutator(x, y) for y in g.elements()] for x in g.elements()])
    assert rows * cols**4 == 8 * 131_072
    got = check_law_sampled(g, builtin_law("L3"), count, 5)
    assert got == Verdict(HOLDS_SAMPLED, count, None, count, 5)
    assert drawn_seeds == ([5] if drawn else [])


@pytest.mark.parametrize("name,seed,row", [("CI", 3, 1), ("L3", 1, 3)])
def test_a_failing_sampled_check_still_draws_the_stream(drawn_seeds, name, seed, row):
    # S4's class grids (24^4 and 24^5 tuples) fit 8 * 10^6 and hold a failure,
    # so they are scanned, and then the stream reports its own first failing row
    g, law = parse_group_spec(S4), builtin_law(name)
    want = dataclasses.replace(stream_scan(g, law, row, seed), sample_count=10**6)
    drawn_seeds.clear()
    got = check_law_sampled(g, law, 10**6, seed)
    assert got == want and got.status == COUNTEREXAMPLE and got.evaluations == row
    assert drawn_seeds == [seed]


@pytest.mark.parametrize("text,variable,kind,axis", [
    ("[w,x;y,z]=[w,y;x,z]", "w", Bracket, 0),
    ("[w,x;y,z]=[w,y;x,z]", "z", Bracket, 1),
    ("[x,y;x,u,v]=1", "x", Bracket, 0),
    ("[x,y;x,u,v]=1", "v", Bracket, 1),
    ("[x^y,z,u]=1", "x", Conjugate, 0),
])
def test_dropping_a_line_misleads_the_sampled_grid_check(monkeypatch, text, variable, kind, axis):
    # In S4 the classes are computed (24^4 > SCAN_CELLS), their grid is scanned
    # (24^4 <= 8 * count) and holds a failure; dropping the variable's only
    # line leaves it one class, whose grid then holds no failure at all.
    g, law = parse_group_spec(S4), parse_law(text)
    count = 10**5
    want = check_law_sampled(g, law, count, 3)
    assert want == dataclasses.replace(stream_scan(g, law, want.evaluations, 3), sample_count=count)
    assert want.status == COUNTEREXAMPLE
    drop_line(monkeypatch, law, variable, (kind, axis))
    assert check_law_sampled(g, law, count, 3) != want


def test_a_sampled_scan_draws_a_short_first_slice(monkeypatch):
    sizes = []
    real = dmagma.tables.scan_sampled

    def recording_scan_sampled(variables, names, failing, count, seed):
        def wrapped(axes):
            sizes.append(int(np.prod(np.broadcast_shapes(*(np.shape(a) for a in axes)))))
            return failing(axes)

        return real(variables, names, wrapped, count, seed)

    monkeypatch.setattr(dmagma.tables, "scan_sampled", recording_scan_sampled)
    # S4's L3 grid (24^5 tuples) is larger than 8 * 10^5, so the stream is drawn
    # at once, and its row 3 fails
    g, law = parse_group_spec(S4), builtin_law("L3")
    got = check_law_sampled(g, law, 10**5, 1)
    assert got == dataclasses.replace(stream_scan(g, law, 3, 1), sample_count=10**5)
    assert sizes == [64] and sum(sizes) < SCAN_CELLS
    # a clean stream is drawn in doubling slices up to the chunk, and to the end
    g = parse_group_spec("dihedral:16")
    cases = ((1 << 20, [64, 128, 256, 512, 1024, 1016]), (300, [64, 128, 256, 300, 300, 52]))
    for chunk, want in cases:
        sizes.clear()
        count = sum(want)
        monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", chunk)
        got = check_law_sampled(g, builtin_law("L3"), count, 4)
        assert got == Verdict(HOLDS_SAMPLED, count, None, count, 4)
        assert sizes == want


def test_d8_three_metabelian_law_counts():
    g = make_dihedral(8)
    v = check_law_exhaustive(g, builtin_law("3M_I"))
    assert v.status == "holds-exhaustive"
    assert v.evaluations == 16**3


def test_s4_is_not_three_metabelian():
    g = parse_group_spec("perm:(1 2),(1 2 3 4)")
    v = check_law_exhaustive(g, builtin_law("3M_I"))
    assert v.status == "counterexample"
    # the witness really fails, checked by scalar evaluation
    law = builtin_law("3M_I")
    env = {name: g.index_of(el) for name, el in v.witness.items()}
    assert evaluate(law.lhs, g, env) != evaluate(law.rhs, g, env)


def test_trivial_law_always_holds():
    for spec in ("cyclic:1", "dihedral:5", "perm:(1 2),(1 2 3 4)"):
        assert check_law_exhaustive(parse_group_spec(spec), parse_law("x=x")).holds


def test_no_variable_law():
    v = check_law_exhaustive(make_cyclic(5), parse_law("1=1"))
    assert v.holds and v.evaluations == 1


def test_budget_exceeded_suggests_sampling():
    g = make_dihedral(8)
    with pytest.raises(BudgetExceededError, match="sampled"):
        check_law_exhaustive(g, builtin_law("CI"), budget=1000)


def test_one_budget_rule_scans_up_to_the_budget_and_refuses_past_it():
    # `tables.decide` admits every budgeted checker: a grid of n^k == budget is
    # scanned exhaustively, and at n^k == budget + 1 a law or interchange scan
    # is refused (a ring law samples there instead, as
    # test_rings.test_every_ring_law_samples_exactly_past_its_budget checks)
    g, law = parse_group_spec(S4), builtin_law("3M_I")
    want = check_law_exhaustive(g, law)
    assert want.status == COUNTEREXAMPLE and check_law_exhaustive(g, law, budget=24**3) == want
    with pytest.raises(BudgetExceededError) as e:
        check_law_exhaustive(g, law, budget=24**3 - 1)
    assert str(e.value) == ("law [[x,y],[x,z]]=1 over order 24 needs 13824 evaluations "
                            "(budget 13823); use check_law_sampled")
    d = commutator_double(make_dihedral(4))
    assert satisfies_interchange(d, budget=8**4) == satisfies_interchange(d) == Verdict(
        HOLDS_EXHAUSTIVE, 8**4
    )
    with pytest.raises(BudgetExceededError) as e:
        satisfies_interchange(d, budget=8**4 - 1)
    assert str(e.value) == "interchange scan on order 8 needs 4096 checks (budget 4095)"


def test_a_refused_scan_builds_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a scan past the budget")

    monkeypatch.setattr(dmagma.words, "class_reps", refuse)
    monkeypatch.setattr(dmagma.magmas, "interchange_scan", refuse)
    g = make_dihedral(8)
    with pytest.raises(BudgetExceededError):
        check_law_exhaustive(g, builtin_law("CI"), budget=16**4 - 1)
    assert "law_tables" not in vars(g) and "law_classes" not in vars(g)
    with pytest.raises(AssertionError, match="past the budget"):  # within budget, the scan is built
        check_law_exhaustive(g, builtin_law("CI"), budget=16**4)
    d = commutator_double(g)
    with pytest.raises(BudgetExceededError):
        satisfies_interchange(d, budget=16**4 - 1)
    with pytest.raises(AssertionError, match="past the budget"):
        satisfies_interchange(d, budget=16**4)


def test_sampled_is_deterministic_and_consistent():
    g = parse_group_spec("perm:(1 2),(1 2 3 4)")
    law = builtin_law("3M_I")
    v1 = check_law_sampled(g, law, 100_000, seed=7)
    v2 = check_law_sampled(g, law, 100_000, seed=7)
    assert v1 == v2
    assert v1.status == "counterexample"
    env = {name: g.index_of(el) for name, el in v1.witness.items()}
    assert evaluate(law.lhs, g, env) != evaluate(law.rhs, g, env)


def test_sampled_holds_when_exhaustive_holds():
    g = make_metacyclic(3, 2, 2)  # D3, 3-metabelian
    law = builtin_law("3M_I")
    assert check_law_exhaustive(g, law).holds
    for seed in (0, 1, 7, 123):
        v = check_law_sampled(g, law, 10_000, seed=seed)
        assert v.status == "holds-sampled"
        assert v.sample_count == 10_000 and v.seed == seed


def test_sampled_heisenberg_second_derived_trivial():
    g = parse_group_spec("heisenberg:3")
    law = parse_law("[w,x;y,z]=1")
    assert check_law_sampled(g, law, 10_000, seed=1).holds
    assert check_law_exhaustive(g, law).holds  # 27^4 assignments, exact


def test_builtin_law_registry():
    assert builtin_law("JACOBI").variables == ("x", "y", "z")
    assert builtin_law("CI").variables == ("w", "x", "y", "z")
    assert str(builtin_law("ASSOC_COMM")) == "[[x,y],z]*[[y,z],x]=1"
    assert set(BUILTIN_LAWS) >= {"3M_I", "CI", "SQUARE", "PAIR", "COMM_SQ", "CLASS2"}
    with pytest.raises(SpecError, match="JACOBI"):
        builtin_law("NO_SUCH_LAW")


def test_comm_sq_verdict_matches_direct_pair_scan(corpus_groups):
    # the law route must agree with squaring every commutator by hand
    law = builtin_law("COMM_SQ")
    for spec, g in corpus_groups:
        direct = all(
            g.product(g.commutator(x, y), g.commutator(x, y)) == g.identity
            for x in g.elements()
            for y in g.elements()
        )
        assert check_law_exhaustive(g, law).holds == direct, spec


def test_verdict_witness_is_lexicographically_smallest():
    g = make_metacyclic(3, 2, 2)
    law = parse_law("[x,y]^2=1")
    got = check_law_exhaustive(g, law)
    want = naive_check(g, law)
    assert got.witness == want.witness
    assert got.evaluations == want.evaluations


# --- nesting depth ----------------------------------------------------------------


def test_deep_parentheses_are_a_parse_error():
    deep = "(" * 3000 + "x" + ")" * 3000 + "=1"
    with pytest.raises(ParseError, match="deeper than"):
        parse_law(deep)
    with pytest.raises(ParseError, match="deeper than"):
        parse_term("[" * 3000 + "x,y" + "]" * 3000)


def test_long_chains_are_a_parse_error():
    # a long product or comma list nests the syntax tree without any parentheses
    with pytest.raises(ParseError, match="deeper than"):
        parse_law(" ".join(["x"] * 3000) + "=1")
    with pytest.raises(ParseError, match="deeper than"):
        parse_term("[" + ",".join(["x"] * 3000) + "]")


def test_terms_at_the_depth_limit_still_work():
    g = make_cyclic(3)
    left = parse_term(" ".join(["x"] * MAX_DEPTH))  # MAX_DEPTH - 1 products over x
    right = parse_term("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1))
    assert parse_term(to_string(left)) == left
    assert evaluate(left, g, {"x": 1}) == MAX_DEPTH % 3
    assert evaluate(right, g, {"x": 2}) == 2
    v = check_law_exhaustive(g, parse_law(to_string(left) + "=1"))
    assert (v.status, v.evaluations, v.witness) == ("counterexample", 2, {"x": "a"})
    with pytest.raises(ParseError):
        parse_term(" ".join(["x"] * (MAX_DEPTH + 1)))


def test_sampled_checks_refuse_negative_seeds_on_both_paths(drawn_seeds):
    # CI on dihedral:4 holds on its class grid of 4^4 tuples: at count 1000 that
    # grid settles the verdict without drawing, at count 10 (8 * 10 < 4^4) the
    # stream is drawn
    g, law = make_dihedral(4), builtin_law("CI")
    for count in (1000, 10):
        with pytest.raises(ValueError, match="^sampling seed must be non-negative, got -1$"):
            check_law_sampled(g, law, count, -1)
    assert drawn_seeds == []
    assert [check_law_sampled(g, law, count, 0).holds for count in (1000, 10)] == [True, True]
    assert drawn_seeds == [0]
