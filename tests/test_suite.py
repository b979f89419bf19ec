"""The verification suite: individual checks, the corpus runner, and reports."""

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import dmagma.constructions
import dmagma.suite
import dmagma.words
from dmagma.errors import BudgetExceededError, SpecError
from dmagma.groups import make_cyclic, make_dihedral, make_heisenberg, parse_group_spec
from dmagma.rings import parse_ring_spec
from dmagma.suite import (
    ALL_CHECKS,
    FIXTURE_CHECKS,
    RING_CHECKS,
    CorpusConfig,
    GroupFacts,
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
    eh_audit_checks,
    golden_table_checks,
    run_corpus,
)

S4 = "perm:(1 2),(1 2 3 4)"
Q8 = "perm:(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)"


# --- individual checks -----------------------------------------------------------


def test_prop_1_1_cases():
    r = check_prop_1_1(GroupFacts(parse_group_spec(Q8)), Q8)
    assert r.passed and r.details["operations_identical"] is True
    r = check_prop_1_1(GroupFacts(make_dihedral(3)), "dihedral:3")
    assert r.passed and r.details["operations_identical"] is False
    assert r.details["law_COMM_SQ"]["status"] == "counterexample"
    assert check_prop_1_1(GroupFacts(make_cyclic(6)), "cyclic:6").passed


def test_prop_1_2_cases():
    assert check_prop_1_2(GroupFacts(make_heisenberg(3)), "heisenberg:3").passed
    r = check_prop_1_2(GroupFacts(make_dihedral(3)), "dihedral:3")
    assert r.passed
    assert r.details["star_associative"]["status"] == "counterexample"
    assert r.details["law_ASSOC_COMM"]["status"] == "counterexample"


def test_lemma_1_3_cases():
    r = check_lemma_1_3(GroupFacts(make_dihedral(8)), "dihedral:8")
    assert r.passed
    assert all(r.details[k]["status"] == "holds-exhaustive" for k in ("3M_I", "3M_II", "3M_III"))
    r = check_lemma_1_3(GroupFacts(parse_group_spec(S4)), S4)
    assert r.passed
    assert all(r.details[k]["status"] == "counterexample" for k in ("3M_I", "3M_II", "3M_III"))


def test_lemma_1_4_modes_and_vacuity():
    r = check_lemma_1_4(GroupFacts(make_dihedral(8), seed=5), "dihedral:8")
    assert r.passed
    assert r.details["L2"]["status"] == "holds-exhaustive"  # order 16 stays exact
    facts = GroupFacts(make_heisenberg(3), sample_count=20_000, seed=5)
    r = check_lemma_1_4(facts, "heisenberg:3")
    assert r.passed
    assert r.details["L2"]["status"] == "holds-sampled"
    assert r.details["L3"]["status"] == "holds-sampled"
    assert r.details["L1"]["status"] == "holds-exhaustive"
    r = check_lemma_1_4(GroupFacts(parse_group_spec(S4)), S4)
    assert r.passed and "vacuous" in r.notes[0]
    assert "L1" not in r.details


def test_lemma_1_5_cases():
    meta = GroupFacts(parse_group_spec("metacyclic:7,3,2"))
    assert check_lemma_1_5(meta, "metacyclic:7,3,2").passed
    r = check_lemma_1_5(GroupFacts(make_dihedral(8)), "dihedral:8")
    assert r.passed and r.details["PAIR"]["evaluations"] == 65536


def test_theorem_1_6_cases():
    r = check_theorem_1_6(GroupFacts(make_dihedral(8)), "dihedral:8")
    assert r.passed and r.details["law_CI"]["status"] == "holds-exhaustive"
    r = check_theorem_1_6(GroupFacts(parse_group_spec(S4)), S4)
    assert r.passed
    assert r.details["law_CI"]["status"] == "counterexample"
    assert r.details["table_interchange"]["status"] == "counterexample"
    assert r.details["law_table_agreement"] is True
    assert check_theorem_1_6(GroupFacts(make_cyclic(12)), "cyclic:12").passed


def test_cor_1_7_cases():
    r = check_cor_1_7(GroupFacts(make_dihedral(3)), "dihedral:3")
    assert r.passed and r.details["lhs_proper_double_magma"] is True
    r = check_cor_1_7(GroupFacts(make_dihedral(4)), "dihedral:4")
    assert r.passed and r.details["lhs_proper_double_magma"] is False
    assert r.details["derived_subgroup_exponent_2"] is True
    r = check_cor_1_7(GroupFacts(make_cyclic(5)), "cyclic:5")
    assert r.passed and r.details["rhs_structural_conditions"] is False


def test_cor_1_8_heisenberg_proper_double_semigroup():
    r = check_cor_1_8(GroupFacts(make_heisenberg(3)), "heisenberg:3")
    assert r.passed
    assert r.details["proper_double_semigroup"] is True
    assert r.details["nilpotency_class"] == 2
    assert r.details["derived_subgroup_size"] == 3


def test_cor_1_8_dihedral_8_reports_claim_mismatch():
    r = check_cor_1_8(GroupFacts(make_dihedral(8)), "dihedral:8")
    assert r.passed  # internal consistency only
    assert r.details["equivalence_i"] and r.details["equivalence_ii"]
    assert r.details["nilpotency_class"] == 3
    assert r.details["double_semigroup"] is False
    assert r.details["recorded_claim_proper_double_semigroup"] is True
    assert r.details["recorded_claim_match"] is False
    assert any("recorded claim" in note for note in r.notes)


def test_identities_check_and_spot_value():
    assert check_identities(GroupFacts(make_cyclic(1)), "cyclic:1").passed
    r = check_identities(GroupFacts(make_dihedral(8)), "dihedral:8")
    assert r.passed
    # spot check (I iv) at a, b, ab: [xy, z] = [x,z]^y [y,z]
    g = make_dihedral(8)
    a, b, ab = g.index_of("a"), g.index_of("b"), g.index_of("ab")
    lhs = g.commutator(g.product(a, b), ab)
    rhs = g.product(g.conjugate(g.commutator(a, ab), b), g.commutator(b, ab))
    assert lhs == rhs


def test_identities_hold_on_whole_corpus(corpus_groups):
    for spec, g in corpus_groups:
        assert check_identities(GroupFacts(g), spec).passed, spec


def test_identity_laws_are_parsed_and_lowered_once_per_process(monkeypatch):
    check_identities(GroupFacts(make_cyclic(3)), "cyclic:3")
    lowered, real = [], dmagma.words.lower
    monkeypatch.setattr(dmagma.words, "lower", lambda *terms: lowered.append(terms) or real(*terms))
    for g in (make_dihedral(4), make_heisenberg(3)):
        assert check_identities(GroupFacts(g), g.label).passed
    assert lowered == []


def test_golden_and_audit_checks_pass():
    assert all(r.passed for r in golden_table_checks())
    assert all(r.passed for r in eh_audit_checks())


def test_ring_rci_check():
    r = check_ring_rci(parse_ring_spec("matrix:2,2"), "matrix:2,2")
    assert r.passed
    assert r.details["RCI"]["status"] == "counterexample"
    assert r.details["DOUBLE2"]["status"] == "holds-exhaustive"
    assert r.details["proper"] is False
    r = check_ring_rci(parse_ring_spec("uppertri:2,3"), "uppertri:2,3")
    assert r.passed
    assert r.details["RCI"]["status"] == "holds-exhaustive"
    assert r.details["proper"] is True


# --- the runner --------------------------------------------------------------------


def test_empty_corpus_report_is_success():
    config = CorpusConfig(groups=(), rings=(), checks=("prop_1_1", "theorem_1_6"))
    report = run_corpus(config)
    assert report.passed
    assert report.results == [] and report.errors == []


def test_s4_theorem_only_config():
    report = run_corpus(CorpusConfig(groups=(S4,), rings=(), checks=("theorem_1_6",)))
    assert report.passed
    assert len(report.results) == 1
    assert report.results[0].details["law_CI"]["status"] == "counterexample"


def test_bad_spec_recorded_without_aborting():
    config = CorpusConfig(groups=("cyclic:0", "cyclic:3"), rings=(), checks=("prop_1_1",))
    report = run_corpus(config)
    assert len(report.errors) == 1
    assert report.errors[0]["structure"] == "cyclic:0"
    assert [r.structure for r in report.results] == ["cyclic:3"]
    assert not report.passed  # an unparseable entry fails the run


def test_bad_ring_spec_recorded_without_aborting():
    config = CorpusConfig(groups=(), rings=("zmod:0", "zmod:2"), checks=("ring_rci",))
    report = run_corpus(config)
    assert report.errors == [{"structure": "zmod:0", "error": "'zmod:0': modulus must be at least 1"}]
    assert [r.structure for r in report.results] == ["zmod:2"]
    assert not report.passed


def test_reports_are_byte_identical_across_runs():
    config = CorpusConfig(
        groups=("dihedral:3", "heisenberg:3"),
        rings=("matrix:2,2",),
        checks=ALL_CHECKS,
        sample_count=5_000,
    )
    assert run_corpus(config).to_json() == run_corpus(config).to_json()


# sha256 of run_corpus(CorpusConfig()).to_json(). Speed-ups must leave it as it
# is; it may change only in a change that deliberately changes a verdict and
# logs that change in CHANGES.md.
DEFAULT_REPORT_SHA256 = "9cf3796f3f3f6accc9fc301872aea121743827583de93e6f4385ca588baaca48"


def test_default_corpus_report_is_pinned():
    text = run_corpus(CorpusConfig()).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


def test_report_shape_and_text():
    config = CorpusConfig(groups=("dihedral:3",), rings=(), checks=("prop_1_1", "cor_1_7"))
    report = run_corpus(config)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert doc["counts"] == {"checks": 2, "passed": 2, "failed": 0, "spec_errors": 0}
    assert {r["check"] for r in doc["results"]} == {"prop_1_1", "cor_1_7"}
    text = report.to_text(1.5)
    assert "PASS prop_1_1 [dihedral:3]" in text
    assert "total time: 1.50s" in text
    assert "overall: PASS" in text


def test_every_selected_check_appears_once_per_structure():
    config = CorpusConfig(groups=("cyclic:2", "dihedral:3"), rings=("zmod:6",))
    report = run_corpus(config)
    seen = {}
    for r in report.results:
        seen[(r.check, r.structure)] = seen.get((r.check, r.structure), 0) + 1
    assert all(v == 1 for v in seen.values())
    group_checks = [c for (c, s) in seen if s == "dihedral:3"]
    assert sorted(group_checks) == sorted(
        c for c in ALL_CHECKS if c not in ("golden_tables", "eh_audit", "ring_rci")
    )
    assert ("ring_rci", "zmod:6") in seen


def test_default_corpus_covers_every_structure_class(corpus_groups):
    from dmagma.groups import derived_subgroup, has_exponent_2, nilpotency_class
    from dmagma.magmas import is_proper
    from dmagma.constructions import commutator_double
    from dmagma.words import builtin_law, check_law_exhaustive

    facts = {}
    for spec, g in corpus_groups:
        facts[spec] = {
            "abelian": g.is_abelian(),
            "gprime_exp2": has_exponent_2(derived_subgroup(g)),
            "class": nilpotency_class(g),
            "proper": is_proper(commutator_double(g))[0],
            "three_m": check_law_exhaustive(g, builtin_law("3M_I")).holds,
        }
    assert any(f["abelian"] for f in facts.values())
    assert any(not f["abelian"] and f["gprime_exp2"] for f in facts.values())
    assert facts["dihedral:3"]["proper"]  # metabelian proper example
    assert facts["heisenberg:3"]["class"] == 2 and facts["heisenberg:3"]["proper"]
    assert any(f["class"] is not None and f["class"] >= 3 for f in facts.values())
    assert any(not f["three_m"] for f in facts.values())


# --- facts shared by the group checks -----------------------------------------------


def count_calls(monkeypatch, module, name, key, counter):
    real = getattr(module, name)

    def counted(*args):
        counter[(name, key(*args))] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_each_group_fact_is_computed_once_per_run(monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, dmagma.suite, "check_law_exhaustive",
                lambda g, law, budget: (g.label, str(law)), calls)
    count_calls(monkeypatch, dmagma.suite, "commutator_double", lambda g: g.label, calls)
    count_calls(monkeypatch, dmagma.suite, "satisfies_interchange",
                lambda dm, budget: dm.label, calls)
    count_calls(monkeypatch, dmagma.suite, "is_associative", lambda m: "", calls)
    group_checks = tuple(c for c in ALL_CHECKS if c not in FIXTURE_CHECKS + RING_CHECKS)
    config = CorpusConfig(groups=("dihedral:4", "heisenberg:3"), rings=(), checks=group_checks)
    for _ in range(2):  # the facts live for one run: a second run computes them again
        calls.clear()
        assert run_corpus(config).passed
        scans = [n for (name, _), n in calls.items() if name == "check_law_exhaustive"]
        assert scans and all(n == 1 for n in scans)
        assert calls[("check_law_exhaustive", ("dihedral:4", "[[x,y],[x,z]]=1"))] == 1  # 3M_I
        for g in ("dihedral:4", "heisenberg:3"):
            assert calls[("commutator_double", g)] == 1
            assert calls[("satisfies_interchange", f"commutator({g})")] == 1
        assert calls[("is_associative", "")] == 4


def test_law_facts_never_build_the_double(monkeypatch):
    def refuse(g):
        raise AssertionError("a law fact built the commutator double")

    monkeypatch.setattr(dmagma.suite, "commutator_double", refuse)
    monkeypatch.setattr(dmagma.constructions, "commutator_double", refuse)
    facts = GroupFacts(make_dihedral(4))
    assert facts.law("CI").holds and facts.law("3M_I").holds


# The first scan past the budget, in the order the checks first ask for it.
BUDGET_REFUSALS = [
    (100, "law [[x,y],z]*[[y,z],x]=1 over order 8 needs 512 evaluations (budget 100); "
          "use check_law_sampled"),
    (600, "law [[x,y],[x,z]^u]=1 over order 8 needs 4096 evaluations (budget 600); "
          "use check_law_sampled"),
    (5000, "law [[[x,y],z],[[x,u],v]]=1 over order 8 needs 32768 evaluations (budget 5000); "
           "use check_law_sampled"),
    (70000, "law [[x,y],[x,z]^u]=1 over order 27 needs 531441 evaluations (budget 70000); "
            "use check_law_sampled"),
]


@pytest.mark.parametrize("budget,text", BUDGET_REFUSALS)
def test_budget_refusals_name_the_first_scan_past_the_budget(budget, text):
    config = CorpusConfig(groups=("dihedral:4", "heisenberg:3"), rings=("zmod:6",),
                          sample_count=1000, budget=budget)
    with pytest.raises(BudgetExceededError) as e:
        run_corpus(config)
    assert str(e.value) == text


# --- configuration ------------------------------------------------------------------


def test_config_from_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(
        json.dumps(
            {"groups": ["cyclic:3"], "rings": [], "checks": ["prop_1_1"], "seed": 9}
        )
    )
    config = CorpusConfig.from_file(path)
    assert config.groups == ("cyclic:3",)
    assert config.seed == 9
    assert config.budget == 10**8  # defaults fill the gaps
    assert run_corpus(config).passed


def test_default_config_file_mirrors_the_defaults():
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    assert CorpusConfig.from_file(path) == CorpusConfig()


@pytest.mark.parametrize("key,value,message", [
    ("groups", "cyclic:3", "must be a JSON list of strings"),
    ("checks", "prop_1_1", "must be a JSON list of strings"),
    ("rings", ("zmod:4", 4), "must be a JSON list of strings"),
    ("budget", True, "must be a JSON integer"),
    ("sample_count", "10", "must be a JSON integer"),
    ("seed", 2.9, "must be a JSON integer"),
    ("checks", [], "must name at least one check"),
])
def test_config_values_are_checked_on_every_path(tmp_path, key, value, message):
    # the library call, a config file and an override all pass one validator
    text = f"malformed config: {key!r} {message}"
    with pytest.raises(SpecError) as err:
        CorpusConfig(**{key: value})
    assert str(err.value) == text
    with pytest.raises(SpecError) as err:
        dataclasses.replace(CorpusConfig(), **{key: value})
    assert str(err.value) == text
    if not isinstance(value, tuple):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(SpecError) as err:
            CorpusConfig.from_file(path)
        assert str(err.value) == text


def test_config_stores_lists_as_tuples_and_writes_them_as_lists():
    config = CorpusConfig(groups=["cyclic:3"], rings=[], checks=["prop_1_1"])
    assert (config.groups, config.rings, config.checks) == (("cyclic:3",), (), ("prop_1_1",))
    raw = config.to_dict()
    assert (raw["groups"], raw["rings"], raw["checks"]) == (["cyclic:3"], [], ["prop_1_1"])
    assert CorpusConfig(**raw) == config


def test_config_rejects_unknown_keys_and_checks(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": ["cyclic:3"]}))
    with pytest.raises(SpecError, match="unknown config keys"):
        CorpusConfig.from_file(path)
    path.write_text("{not json")
    with pytest.raises(SpecError, match="malformed"):
        CorpusConfig.from_file(path)
    path.write_text('["cyclic:3"]')
    with pytest.raises(SpecError, match="malformed config .*: expected a JSON object$"):
        CorpusConfig.from_file(path)
    with pytest.raises(SpecError, match="unknown checks"):
        CorpusConfig(checks=("prop_1_1", "nope"))
    with pytest.raises(SpecError, match="positive"):
        CorpusConfig(budget=0)
    with pytest.raises(ValueError, match="^sampling seed must be non-negative, got -1$"):
        CorpusConfig(seed=-1)
