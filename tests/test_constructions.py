"""The three double-magma constructions and their cross-cutting invariants."""

import numpy as np
import pytest

from dmagma.constructions import (
    WordPair,
    commutator_double,
    ring_commutator_double,
    word_double,
)
from dmagma.fixtures import C3_BULLET_ROWS, C3_STAR_ROWS, D8_STAR_ROWS, named_rows
from dmagma.groups import make_cyclic, make_dihedral, parse_group_spec
from dmagma.magmas import is_associative, is_commutative, is_proper, satisfies_interchange
from dmagma.rings import lie_bracket, make_matrix_ring, make_zmod, parse_ring_spec
from dmagma.suite import check_ring_rci
from dmagma.words import Bracket, parse_term


def test_d8_star_table_matches_transcription():
    d = commutator_double(make_dihedral(8))
    assert named_rows(d.star) == D8_STAR_ROWS


def test_bullet_is_entrywise_inverse_of_star(corpus_groups):
    for spec, g in corpus_groups:
        d = commutator_double(g)
        assert np.array_equal(d.bullet.op, g.inv[d.star.op]), spec


def test_star_cells_are_commutators(corpus_groups):
    for spec, g in corpus_groups:
        star = commutator_double(g).star.op.tolist()
        n = g.order
        assert star == [[g.commutator(x, y) for y in range(n)] for x in range(n)], spec


def test_ring_star_cells_are_lie_brackets(corpus_rings):
    for spec, r in corpus_rings:
        star = ring_commutator_double(r).star.op.tolist()
        n = r.order
        assert star == [[lie_bracket(r, x, y) for y in range(n)] for x in range(n)], spec


def test_bullet_is_the_transposed_star_as_a_read_only_int32_table(corpus_groups, corpus_rings):
    doubles = [commutator_double(g) for _, g in corpus_groups]
    doubles += [ring_commutator_double(r) for _, r in corpus_rings]
    doubles += [word_double(g, "a*b^-1") for _, g in corpus_groups if g.order <= 24]
    for d in doubles:
        assert np.array_equal(d.bullet.op, d.star.op.T), d.label
        for op in (d.star.op, d.bullet.op):
            assert op.dtype == np.int32, d.label
            assert op.flags.c_contiguous and not op.flags.writeable, d.label
        assert not np.shares_memory(d.star.op, d.bullet.op), d.label


def test_trivial_group_double():
    d = commutator_double(make_cyclic(1))
    assert d.order == 1
    assert d.star.op.tolist() == [[0]] and d.bullet.op.tolist() == [[0]]


def test_star_diagonal_is_identity(corpus_groups):
    for spec, g in corpus_groups:
        diag = np.diagonal(commutator_double(g).star.op)
        assert np.all(diag == g.identity), spec


def test_word_bracket_reproduces_commutator_double(corpus_groups):
    for spec, g in corpus_groups:
        if g.order > 24:
            continue
        wd = word_double(g, "[a,b]")
        cd = commutator_double(g)
        assert np.array_equal(wd.star.op, cd.star.op), spec
        assert np.array_equal(wd.bullet.op, cd.bullet.op), spec


def test_c3_word_tables_match_transcription():
    wd = word_double(make_cyclic(3), "a*b^-1")
    assert named_rows(wd.star) == C3_STAR_ROWS
    assert named_rows(wd.bullet) == C3_BULLET_ROWS


def test_c4_difference_word_double():
    wd = word_double(make_cyclic(4), "a*b^-1")
    assert satisfies_interchange(wd).holds  # the group is abelian
    assert is_proper(wd)[0]  # and not of exponent 2
    # neither operation is commutative or associative in that situation
    assert not is_commutative(wd.star).holds
    assert not is_commutative(wd.bullet).holds
    assert not is_associative(wd.star).holds
    assert not is_associative(wd.bullet).holds


def test_difference_word_on_exponent_two_group_is_improper():
    klein = parse_group_spec("product:cyclic:2,cyclic:2")
    wd = word_double(klein, "a*b^-1")
    assert not is_proper(wd)[0]


def test_difference_word_on_nonabelian_group_breaks_interchange():
    wd = word_double(parse_group_spec("dihedral:3"), "a*b^-1")
    assert not satisfies_interchange(wd).holds


def test_word_pair_rejects_foreign_variables():
    with pytest.raises(ValueError, match="'c'"):
        WordPair(parse_term("a*c"))
    with pytest.raises(ValueError, match="'z'"):
        word_double(make_cyclic(3), "[a,z]")


def test_word_pair_accepts_any_two_variable_word():
    assert word_double(make_cyclic(3), "1").star.op.tolist() == [[0] * 3] * 3
    g = parse_group_spec("dihedral:3")  # a bare Term is a word too
    assert np.array_equal(word_double(g, parse_term("[a,b]")).star.op, word_double(g, "[a,b]").star.op)
    one_var = word_double(make_cyclic(3), "a^2")
    assert np.array_equal(one_var.star.op, np.tile([[0], [2], [1]], (1, 3)))


def test_ring_commutator_double_commutative_ring_is_improper():
    d = ring_commutator_double(make_zmod(6))
    assert not is_proper(d)[0]
    assert np.all(d.star.op == 0)


def test_ring_commutator_double_matrix_rings():
    assert not is_proper(ring_commutator_double(make_matrix_ring(2, 2)))[0]
    d = ring_commutator_double(make_matrix_ring(2, 3))
    proper, cell = is_proper(d)
    assert proper
    x, y = cell
    r = make_matrix_ring(2, 3)
    bk = r.bracket_table()
    assert r.add[bk[x, y], bk[x, y]] != r.zero  # 2<x,y> != 0 at the witness


# the rings of the benchmark workloads, besides the corpus rings
BENCHMARK_RINGS = ("zmod:6", "matrix:2,2", "uppertri:2,3", "matrix:2,3", "uppertri:2,4", "zmod:125",
                   "uppertri:3,2", "uppertri:2,5", "matrix:2,4", "uppertri:2,7")


def test_ring_star_table_is_built_apart_from_the_law_bracket(corpus_rings):
    # The table route scans a star table of its own, so the ring laws'
    # bracket table cannot make both routes wrong at once.
    for spec, r in corpus_rings + [(spec, parse_ring_spec(spec)) for spec in BENCHMARK_RINGS]:
        star, bracket = ring_commutator_double(r).star.op, r.bracket_table()
        assert not np.shares_memory(star, bracket), spec
        assert np.array_equal(star, bracket), spec


def test_a_corrupted_law_bracket_makes_the_ring_routes_disagree():
    assert check_ring_rci(make_zmod(6), "zmod:6").passed
    r = make_zmod(6)  # a fresh ring, corrupted before its first law call
    bad = np.array(r.bracket_table())
    bad[1, 2] = 1  # zmod:6 is commutative, so every bracket is 0
    r.law_tables[Bracket] = bad
    result = check_ring_rci(r, "zmod:6")
    assert not result.passed
    assert result.details["proper_witness_agreement"] is False


def test_ring_bullet_mirrors_star():
    r = make_matrix_ring(2, 2)
    d = ring_commutator_double(r)
    assert np.array_equal(d.bullet.op, d.star.op.T)
