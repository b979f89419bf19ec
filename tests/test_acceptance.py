"""Acceptance suite: one test per criterion, each timed against its stated bound.

Every test prints a single pass line (visible with pytest -s / -rA) so the
whole gate can be read at a glance.
"""

import time

from dmagma.cli import main
from dmagma.constructions import commutator_double, word_double
from dmagma.fixtures import (
    C3_BULLET_ROWS,
    C3_STAR_ROWS,
    D8_NAMES,
    D8_STAR_ROWS,
    named_rows,
    two_element_fixture,
)
from dmagma.groups import derived_subgroup, make_cyclic, nilpotency_class, parse_group_spec
from dmagma.magmas import find_identity, is_associative, is_proper, satisfies_interchange
from dmagma.rings import check_ring_law, parse_ring_spec
from dmagma.suite import (
    CorpusConfig,
    GroupFacts,
    DEFAULT_RINGS,
    check_cor_1_7,
    check_cor_1_8,
    check_identities,
    check_lemma_1_3,
    check_lemma_1_4,
    check_lemma_1_5,
    check_prop_1_1,
    check_prop_1_2,
    check_ring_rci,
    check_theorem_1_6,
    run_corpus,
)


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, elapsed, bound, text):
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s (bound {bound}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s < {bound}s): {text}")


def test_criterion_01_golden_d8_table(capsys):
    with timer() as t:
        rc = main(["magma", "dihedral:8", "--construction", "commutator",
                   "--op", "star", "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [line.split() for line in out.strip().splitlines()]
        assert lines[0] == ["*", *D8_NAMES]
        assert len(lines) == 17
        for i, row in enumerate(lines[1:]):
            assert row[0] == D8_NAMES[i]
            assert tuple(row[1:]) == D8_STAR_ROWS[i]
    with capsys.disabled():
        report(1, t.elapsed, 1.0, "dihedral:8 star table matches the transcription cell-for-cell")


def test_criterion_02_golden_c3_word_tables(capsys):
    with timer() as t:
        dm = word_double(make_cyclic(3), "a*b^-1")
        assert named_rows(dm.star) == C3_STAR_ROWS
        assert named_rows(dm.bullet) == C3_BULLET_ROWS
    with capsys.disabled():
        report(2, t.elapsed, 1.0, "cyclic:3 difference-word tables match both transcriptions")


def test_criterion_03_two_element_fixture(capsys):
    with timer() as t:
        d = two_element_fixture()
        assert is_proper(d)[0]
        assert find_identity(d.star) is not None
        assert find_identity(d.bullet) is None
        assert satisfies_interchange(d).holds
        assert is_associative(d.star).holds
        assert is_associative(d.bullet).holds
    with capsys.disabled():
        report(3, t.elapsed, 1.0,
               "two-element fixture: proper, star unital, bullet not, "
               "interchange and both associativities hold")


def test_criterion_04_theorem_1_6_equivalence(corpus_groups, capsys):
    assert len(corpus_groups) >= 10
    orders = {spec: g.order for spec, g in corpus_groups}
    assert all(1 <= n <= 32 or n in (27, 24) for n in orders.values())
    assert orders["heisenberg:3"] == 27
    assert orders["perm:(1 2),(1 2 3 4)"] == 24
    with timer() as t:
        for spec, g in corpus_groups:
            result = check_theorem_1_6(GroupFacts(g), spec)
            assert result.passed, (spec, result.details)
            assert result.details["law_table_agreement"] is True, spec
    with capsys.disabled():
        report(4, t.elapsed, 60.0,
               f"CI <=> (3M_I and SQUARE) with table agreement on all {len(corpus_groups)} groups")


def test_criterion_05_proposition_equivalences(corpus_groups, capsys):
    with timer() as t:
        for spec, g in corpus_groups:
            assert check_prop_1_1(GroupFacts(g), spec).passed, spec
            assert check_prop_1_2(GroupFacts(g), spec).passed, spec
    with capsys.disabled():
        report(5, t.elapsed, 30.0, "prop_1_1 and prop_1_2 agree four- and three-way on every group")


def test_criterion_06_lemmas(corpus_groups, capsys):
    seed = CorpusConfig().seed
    with timer() as t:
        for spec, g in corpus_groups:
            assert check_lemma_1_3(GroupFacts(g), spec).passed, spec
            assert check_lemma_1_4(GroupFacts(g, seed=seed), spec).passed, spec
            assert check_lemma_1_5(GroupFacts(g), spec).passed, spec
    with capsys.disabled():
        report(6, t.elapsed, 120.0, "lemma_1_3 equivalences and lemma_1_4/1_5 implications hold")


def test_criterion_07_corollary_1_7(capsys):
    with timer() as t:
        d3 = parse_group_spec("dihedral:3")
        r3 = check_cor_1_7(GroupFacts(d3), "dihedral:3")
        assert r3.passed
        assert r3.details["lhs_proper_double_magma"] is True
        assert r3.details["rhs_structural_conditions"] is True
        d4 = parse_group_spec("dihedral:4")
        r4 = check_cor_1_7(GroupFacts(d4), "dihedral:4")
        assert r4.passed
        assert r4.details["lhs_proper_double_magma"] is False
        assert r4.details["rhs_structural_conditions"] is False
    with capsys.disabled():
        report(7, t.elapsed, 5.0,
               "dihedral:3 gives a proper double magma, dihedral:4 does not; both sides agree")


def test_criterion_08_corollary_1_8(capsys):
    with timer() as t:
        h = parse_group_spec("heisenberg:3")
        rh = check_cor_1_8(GroupFacts(h), "heisenberg:3")
        assert rh.passed
        assert rh.details["proper_double_semigroup"] is True
        assert rh.details["nilpotency_class"] == 2
        assert len(derived_subgroup(h)) == 3

        d8 = parse_group_spec("dihedral:8")
        r8 = check_cor_1_8(GroupFacts(d8), "dihedral:8")
        # internal consistency is the criterion: the associativity scans and
        # the class computation must land on the same side of the equivalence
        assert r8.details["equivalence_i"] is True
        assert r8.details["equivalence_ii"] is True
        assert r8.passed
        # the report must state whether the verdict matches the recorded claim
        assert "recorded_claim_match" in r8.details
        assert any("recorded claim" in note for note in r8.notes)
        d8_class = nilpotency_class(d8)
        d8_assoc = is_associative(commutator_double(d8).star).holds
        assert (d8_class is not None and d8_class <= 2) == d8_assoc
    with capsys.disabled():
        report(8, t.elapsed, 10.0,
               "heisenberg:3 is a proper double semigroup (class 2, derived order 3); "
               "dihedral:8 verdicts are internally consistent and the claim match is reported")


def test_criterion_09_identities(corpus_groups, capsys):
    with timer() as t:
        for spec, g in corpus_groups:
            assert check_identities(GroupFacts(g), spec).passed, spec
    with capsys.disabled():
        report(9, t.elapsed, 30.0, "identities (I i)-(I v) hold exhaustively on every group")


def test_criterion_10_ring_equivalences(capsys):
    with timer() as t:
        for spec in DEFAULT_RINGS:
            r = parse_ring_spec(spec)
            result = check_ring_rci(r, spec)
            assert result.passed, (spec, result.details)
            assert result.details["equivalence"] is True, spec
            assert result.details["law_table_agreement"] is True, spec
        assert check_ring_law(parse_ring_spec("matrix:2,2"), "PROPER_WITNESS").holds
        assert not check_ring_law(parse_ring_spec("matrix:2,3"), "PROPER_WITNESS").holds
    with capsys.disabled():
        report(10, t.elapsed, 120.0,
               "RCI <=> (ALT3M and DOUBLE2) with interchange agreement on all 5 rings; "
               "matrix:2,2 has no properness witness, matrix:2,3 has one")


def test_criterion_11_deterministic_reports(capsys):
    config = CorpusConfig()
    with timer() as t:
        first = run_corpus(config).to_json()
        second = run_corpus(config).to_json()
        assert first.encode() == second.encode()
        assert '"passed": true' in first
    with capsys.disabled():
        report(11, t.elapsed, 300.0,
               "two full-suite runs with the identical config produce byte-identical machine reports")
