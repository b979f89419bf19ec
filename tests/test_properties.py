"""Property-based tests for the structural invariants."""

import math
from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import dmagma.tables
from dmagma.constructions import commutator_double
from dmagma.groups import (
    make_cyclic,
    make_dihedral,
    make_heisenberg,
    make_metacyclic,
    parse_group_spec,
)
from dmagma.tables import SCAN_CELLS, class_reps
from dmagma.words import (
    Bracket,
    Conjugate,
    IdentityLiteral,
    IntPower,
    Inverse,
    Law,
    Product,
    Variable,
    check_law_exhaustive,
    check_law_sampled,
    evaluate,
    free_variables,
    lower,
    parse_law,
    parse_term,
    run_ops,
    to_string,
)
from word_oracles import flat_index_scan, naive_check, stream_scan

GROUPS = [
    make_cyclic(6),
    make_dihedral(3),
    make_dihedral(4),
    make_metacyclic(7, 3, 2),
    make_heisenberg(2),
    parse_group_spec("perm:(1 2),(1 2 3)"),
]

_names = st.sampled_from(["x", "y", "z", "u", "w", "ab"])
_base = st.one_of(st.builds(Variable, _names), st.just(IdentityLiteral()))
# IntPower(-1) is excluded: the parser canonicalizes that exponent to Inverse.
_exponents = st.integers(-32, 32).filter(lambda k: k != -1)
terms = st.recursive(
    _base,
    lambda sub: st.one_of(
        st.builds(Inverse, sub),
        st.builds(Product, sub, sub),
        st.builds(IntPower, sub, _exponents),
        st.builds(Conjugate, sub, sub),
        st.builds(Bracket, sub, sub),
    ),
    max_leaves=24,
)


def cycle_notation(images) -> str:
    """A permutation of 1..k, given as its image list, as cycles that list every point."""
    seen, cycles = set(), []
    for start in range(1, len(images) + 1):
        point, cycle = start, []
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            point = images[point - 1]
        if cycle:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles)


def perm_spec(gens) -> str:
    return "perm:" + ",".join(cycle_notation(g) for g in gens)


# One or two random permutations of 1..k, k <= 5, as image lists.
perm_generators = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.permutations(range(1, k + 1)), min_size=1, max_size=2)
)
# The groups they generate, built from their `perm:` spec.
perm_groups = perm_generators.map(lambda gens: parse_group_spec(perm_spec(gens)))


@given(terms)
def test_print_parse_round_trip(term):
    assert parse_term(to_string(term)) == term


@given(terms, st.integers(0, 10**9))
@settings(max_examples=60)
def test_scalar_and_batch_evaluation_agree(term, pick):
    g = GROUPS[pick % len(GROUPS)]
    rng = np.random.default_rng(pick)
    names = free_variables(term)
    assignment = {v: int(rng.integers(0, g.order)) for v in names}
    scalar = evaluate(term, g, assignment)
    low = lower(term)
    axes = [np.array([assignment[v]], dtype=np.int32) for v in low.variables]
    (value,) = run_ops(low, g.law_tables, axes)
    batch = int(np.broadcast_to(value, (1,))[0])
    assert scalar == batch


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.label)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_commutator_identities_pointwise(g, data):
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    z = data.draw(st.integers(0, g.order - 1))
    comm, conj, mul, inv = g.commutator, g.conjugate, g.product, g.inverse
    # (I i)  [x,y] = x^-1 x^y
    assert comm(x, y) == mul(inv(x), conj(x, y))
    # (I ii) [x,y]^-1 = [y,x]
    assert inv(comm(x, y)) == comm(y, x)
    # (I iii) [x^-1,y] = ([x,y]^-1)^(x^-1) and [x,y^-1] = ([x,y]^-1)^(y^-1)
    assert comm(inv(x), y) == conj(inv(comm(x, y)), inv(x))
    assert comm(x, inv(y)) == conj(inv(comm(x, y)), inv(y))
    # (I iv) [xy,z] = [x,z]^y [y,z]
    assert comm(mul(x, y), z) == mul(conj(comm(x, z), y), comm(y, z))
    # (I v)  [x,yz] = [x,z] [x,y]^z
    assert comm(x, mul(y, z)) == mul(comm(x, z), conj(comm(x, y), z))


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.label)
def test_commutation_double_tables_are_mutually_inverse(g):
    d = commutator_double(g)
    assert np.array_equal(d.bullet.op, g.inv[d.star.op])
    assert np.array_equal(d.bullet.op, d.star.op.T)


@given(st.integers(1, 40))
def test_cyclic_tables_are_latin_with_pinned_identity(n):
    g = make_cyclic(n)
    idx = np.arange(n)
    assert np.array_equal(np.sort(g.mul, axis=1), np.tile(idx, (n, 1)))
    assert np.array_equal(g.mul[0], idx)
    assert np.all(g.mul[idx, g.inv] == 0)


@given(perm_generators)
@settings(max_examples=30, deadline=None)
def test_perm_specs_build_the_closure_of_their_generators(gens):
    closure = {tuple(range(1, len(gens[0]) + 1))}
    while True:
        more = closure | {tuple(p[q - 1] for q in g) for p in closure for g in gens}
        if more == closure:
            break
        closure = more
    assert parse_group_spec(perm_spec(gens)).order == len(closure)


S3 = parse_group_spec("perm:(1 2),(1 2 3)")
METABELIAN = Law(*map(parse_term, ("[x,y;z,u]", "1")))  # holds in S3

# S3 laws and slice sizes whose first failure lies in a block of the lead
# variable that holds more than one element and less than all of it: x in
# blocks [0,1], [2,3], [4,5], failing at x = 2; z in [0..4], [5], failing at
# z = 2; y as x in the first, failing at y = 2. The last two read neither x nor
# u, so `failing` broadcasts over those axes.
BLOCK_WITNESSES = [("[x^2,y]=1", 12), ("x^0*y*z=z*y*u^0", 5), ("x^0*[y^2,z]=u^0", 12)]


def with_ghost(lhs, rhs, where):
    """The law lhs = rhs with a variable read by neither side, first, last or not at all.

    `m` is a name `terms` never draws, and m^0 lowers to the identity.
    """
    ghost = IntPower(Variable("m"), 0)
    if where == "first":
        return Law(Product(ghost, lhs), rhs)
    return Law(lhs, Product(rhs, ghost) if where == "last" else rhs)


@given(perm_groups, terms, terms, st.sampled_from([None, "first", "last"]),
       st.sampled_from([1, 5, 7, 64, 1 << 14]))
@example(S3, parse_term("x^0*y"), parse_term("y*z^0"), None, 5)
@example(S3, parse_term("x*y"), parse_term("y*x"), "first", 1 << 14)
@example(S3, parse_term("[x,y]"), IdentityLiteral(), "last", 12)
@settings(max_examples=80, deadline=None)
def test_class_representative_scan_matches_the_full_scan_oracles(g, lhs, rhs, ghost, chunk):
    # The slice sizes cut the grid every way: all scalars, blocks of one or
    # more lead elements, and one slice for the whole grid. A failing slice's
    # first cell is read from its prefix scalars, its block of the lead
    # variable and the trailing representative arrays, with index 0 along an
    # axis `failing` does not span, such as the ghost variable's.
    law = with_ghost(lhs, rhs, ghost)
    total = g.order ** len(law.variables)
    assume(total <= 5000)  # the oracles stay quick
    with patch.object(dmagma.tables, "SCAN_CELLS", chunk):
        got = check_law_exhaustive(g, law)
    assert got == flat_index_scan(g, law)
    if total <= 500:
        assert got == naive_check(g, law)


@given(perm_groups, terms, terms, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_orbit_skipping_scan_matches_the_full_scan_oracles(g, lhs, rhs, length):
    # A chunk of the class grid's last k - length axes fixes the first
    # `length` variables as scalars in every slice (fewer when one of them has
    # a single class), so prefixes of that length are skipped by conjugation.
    law = Law(lhs, rhs)
    k, low = len(law.variables), law.lowering
    assume(g.order > 1 and length <= k and g.order**k <= 5000)
    reps = class_reps(g.law_tables, low.lines.values(), g.order)
    chunk = math.prod(len(r) for r in reps[length:])
    with patch.object(dmagma.tables, "SCAN_CELLS", chunk):
        got = check_law_exhaustive(g, law)
    assert got == flat_index_scan(g, law)
    if g.order**k <= 500:
        assert got == naive_check(g, law)


@pytest.mark.parametrize("text,chunk", BLOCK_WITNESSES)
def test_the_block_examples_fail_inside_a_cut_lead_block(monkeypatch, text, chunk):
    real, last = dmagma.tables.first_failure, []

    def recording(reps, failing, conjugates=None):
        def wrapped(axes):
            last[:] = [reps, axes]
            return failing(axes)

        return real(reps, wrapped, conjugates)

    monkeypatch.setattr(dmagma.tables, "first_failure", recording)
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", chunk)
    law = parse_law(text)
    got = check_law_exhaustive(S3, law)
    assert got == naive_check(S3, law) and got.status == "counterexample"
    reps, axes = last
    lead = sum(np.ndim(a) == 0 for a in axes)  # the scalars come first
    block = np.ravel(axes[lead]).tolist()
    assert 1 < len(block) < len(reps[lead])
    assert S3.index_of(got.witness[law.variables[lead]]) in block


@given(perm_groups, terms, terms, st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 7, SCAN_CELLS]))
@example(S3, METABELIAN.lhs, METABELIAN.rhs, 300, 5, 7)  # settled on the class grid
@example(S3, METABELIAN.lhs, METABELIAN.rhs, 100, 5, SCAN_CELLS)  # 6^4 > 8 * 100: drawn
@example(S3, parse_term("[x,y]"), IdentityLiteral(), 300, 5, 7)  # grid fails: drawn
@settings(max_examples=100, deadline=None)
def test_sampled_scan_matches_a_scalar_walk_of_the_stream(g, lhs, rhs, count, seed, chunk):
    # A clean class grid settles holds-sampled without drawing, skipping
    # prefixes by conjugation when a chunk cuts it into slices; every other
    # case draws the stream. Both must give the stream's verdict. The explicit
    # examples take each route.
    law = Law(lhs, rhs)
    want = stream_scan(g, law, count, seed)
    with patch.object(dmagma.tables, "SCAN_CELLS", chunk):
        assert check_law_sampled(g, law, count, seed) == want


@pytest.mark.parametrize("text,count,chunk,drawn", [
    ("[x,y;z,u]=1", 300, 7, False),
    ("[x,y;z,u]=1", 100, SCAN_CELLS, True),
    ("[x,y]=1", 300, 7, True),
])
def test_the_sampled_examples_take_both_routes(monkeypatch, drawn_seeds, text, count, chunk, drawn):
    law = parse_law(text)
    monkeypatch.setattr(dmagma.tables, "SCAN_CELLS", chunk)
    got = check_law_sampled(S3, law, count, 5)
    assert drawn_seeds == ([5] if drawn else [])
    assert got == stream_scan(S3, law, count, 5)
