"""Verification suite: structural claims checked over a corpus of groups and rings.

Each check has a stable identifier (prop_1_1 ... cor_1_8, identities,
golden_tables, eh_audit, ring_rci) and decides an equivalence or implication
between independently computed facts: law-level verdicts from the word
checker on one side, table-level scans of the constructed double magmas on
the other. A check passes when the two sides agree, whichever way brute
force lands. The group checks read each group's facts from one `GroupFacts`,
which computes each of them once per run; the subgroup series behind G' and
the nilpotency class are computed once by the group itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property

from . import fixtures
from .constructions import commutator_double, ring_commutator_double, word_double
from .errors import SpecError
from .groups import (
    FiniteGroup,
    derived_subgroup,
    has_exponent_2,
    nilpotency_class,
    parse_group_spec,
)
from .magmas import (
    DoubleMagma,
    Magma,
    eckmann_hilton_audit,
    find_identity,
    find_zero,
    is_associative,
    is_commutative,
    is_proper,
    satisfies_interchange,
)
from .rings import check_ring_law, parse_ring_spec
from .words import (
    DEFAULT_EVAL_BUDGET,
    Verdict,
    builtin_law,
    check_law_exhaustive,
    check_law_sampled,
    check_sampling,
    parse_law,
)

FIXTURE_CHECKS = ("golden_tables", "eh_audit")
RING_CHECKS = ("ring_rci",)

DEFAULT_GROUPS = (
    "cyclic:1",
    "cyclic:3",
    "cyclic:12",
    "product:cyclic:2,cyclic:2",
    "dihedral:3",
    "dihedral:4",
    "dihedral:8",
    "dihedral:16",
    "heisenberg:3",
    "metacyclic:7,3,2",
    "perm:(1 2),(1 2 3 4)",
    "perm:(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)",
)
DEFAULT_RINGS = ("zmod:6", "matrix:2,2", "uppertri:2,2", "uppertri:2,3", "matrix:2,3")

# Orders above this use seeded sampling for the two widest laws of lemma_1_4.
_EXHAUSTIVE_ORDER_LIMIT = 16

# Recorded expectations for boundary examples; cor_1_8 reports agreement but
# never asserts them (brute force is the authority).
RECORDED_CLAIMS = {"dihedral:8": {"proper_double_semigroup": True}}

_VACUOUS = "hypothesis fails; implication is vacuous here"


@dataclass
class CheckResult:
    check: str
    structure: str
    passed: bool
    details: dict
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "structure": self.structure,
            "passed": self.passed,
            "details": self.details,
            "notes": list(self.notes),
        }

    def headline(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f": {self.notes[0]}" if self.notes else ""
        return f"{status} {self.check} [{self.structure}]{note}"


class GroupFacts:
    """The facts about one group that the group checks read, each computed once.

    A fact is computed when a check first asks for it, so a run past `budget`
    is refused by the same scan as when every check computed its own facts.
    """

    def __init__(self, g: FiniteGroup, budget: int = DEFAULT_EVAL_BUDGET,
                 sample_count: int = 10**6, seed: int = 1):
        self.g, self.budget, self.sample_count, self.seed = g, budget, sample_count, seed
        self._laws: dict[str, Verdict] = {}

    def law(self, name: str) -> Verdict:
        """Exhaustive verdict of the builtin law `name` on G, by the word checker."""
        if name not in self._laws:
            self._laws[name] = check_law_exhaustive(self.g, builtin_law(name), self.budget)
        return self._laws[name]

    @cached_property
    def double(self) -> DoubleMagma:
        return commutator_double(self.g)

    @cached_property
    def interchange(self) -> Verdict:
        return satisfies_interchange(self.double, self.budget)

    @cached_property
    def associativity(self) -> tuple[Verdict, Verdict]:
        return is_associative(self.double.star), is_associative(self.double.bullet)

    @cached_property
    def proper(self) -> tuple[bool, tuple[int, int] | None]:
        return is_proper(self.double)

    @cached_property
    def gprime(self) -> tuple[int, bool]:
        """(order of G', whether G' has exponent 2); G' itself is cached on the group."""
        derived = derived_subgroup(self.g)
        return len(derived), has_exponent_2(derived)


# ---------------------------------------------------------------------------
# group checks
# ---------------------------------------------------------------------------


def check_prop_1_1(facts: GroupFacts, label: str) -> CheckResult:
    """Star commutative <=> bullet commutative <=> improper <=> [x,y]^2 = 1."""
    star_comm = is_commutative(facts.double.star)
    bullet_comm = is_commutative(facts.double.bullet)
    proper, witness = facts.proper
    law = facts.law("COMM_SQ")
    flags = (star_comm.holds, bullet_comm.holds, not proper, law.holds)
    passed = len(set(flags)) == 1
    details = {
        "star_commutative": star_comm.to_dict(),
        "bullet_commutative": bullet_comm.to_dict(),
        "operations_identical": not proper,
        "law_COMM_SQ": law.to_dict(),
    }
    if witness is not None:
        details["proper_witness"] = [facts.g.names[witness[0]], facts.g.names[witness[1]]]
    note = f"all four conditions are {flags[0]}" if passed else f"conditions disagree: {flags}"
    return CheckResult("prop_1_1", label, passed, details, [note])


def check_prop_1_2(facts: GroupFacts, label: str) -> CheckResult:
    """Star associative <=> bullet associative <=> [x,y,z][y,z,x] = 1."""
    star_assoc, bullet_assoc = facts.associativity
    law = facts.law("ASSOC_COMM")
    flags = (star_assoc.holds, bullet_assoc.holds, law.holds)
    passed = len(set(flags)) == 1
    details = {
        "star_associative": star_assoc.to_dict(),
        "bullet_associative": bullet_assoc.to_dict(),
        "law_ASSOC_COMM": law.to_dict(),
    }
    note = f"all three conditions are {flags[0]}" if passed else f"conditions disagree: {flags}"
    return CheckResult("prop_1_2", label, passed, details, [note])


def check_lemma_1_3(facts: GroupFacts, label: str) -> CheckResult:
    """The three 3-metabelian laws hold or fail together."""
    verdicts = {name: facts.law(name) for name in ("3M_I", "3M_II", "3M_III")}
    flags = [v.holds for v in verdicts.values()]
    passed = len(set(flags)) == 1
    details = {name: v.to_dict() for name, v in verdicts.items()}
    note = f"all three laws are {flags[0]}" if passed else "the three laws disagree"
    return CheckResult("lemma_1_3", label, passed, details, [note])


def check_lemma_1_4(facts: GroupFacts, label: str) -> CheckResult:
    """If the 3-metabelian law holds, the three widened laws L1, L2, L3 hold too.

    L2 and L3 sweep 5 and 6 bracket slots; above order 16 they are checked by
    seeded sampling and the verdict status records the mode.
    """
    hyp = facts.law("3M_I")
    details: dict = {"hypothesis_3M_I": hyp.to_dict()}
    if not hyp.holds:
        return CheckResult("lemma_1_4", label, True, details, [_VACUOUS])
    verdicts = {"L1": facts.law("L1")}
    for name in ("L2", "L3"):
        if facts.g.order <= _EXHAUSTIVE_ORDER_LIMIT:
            verdicts[name] = facts.law(name)
        else:
            verdicts[name] = check_law_sampled(
                facts.g, builtin_law(name), facts.sample_count, facts.seed
            )
    details.update({name: v.to_dict() for name, v in verdicts.items()})
    passed = all(v.holds for v in verdicts.values())
    modes = {name: v.status for name, v in verdicts.items()}
    note = "L1, L2, L3 all hold" if passed else "an implied law fails"
    return CheckResult("lemma_1_4", label, passed, details, [note, f"modes: {modes}"])


def check_lemma_1_5(facts: GroupFacts, label: str) -> CheckResult:
    """If the 3-metabelian law holds, [w,x;y,z][w,y;x,z] = 1 holds."""
    hyp = facts.law("3M_I")
    details: dict = {"hypothesis_3M_I": hyp.to_dict()}
    if not hyp.holds:
        return CheckResult("lemma_1_5", label, True, details, [_VACUOUS])
    pair = facts.law("PAIR")
    details["PAIR"] = pair.to_dict()
    note = "PAIR holds" if pair.holds else "PAIR fails despite the hypothesis"
    return CheckResult("lemma_1_5", label, pair.holds, details, [note])


def check_theorem_1_6(facts: GroupFacts, label: str) -> CheckResult:
    """CI <=> (3M_I and SQUARE), and the law-level CI verdict matches the table scan."""
    ci = facts.law("CI")
    m3 = facts.law("3M_I")
    sq = facts.law("SQUARE")
    table = facts.interchange
    equiv = ci.holds == (m3.holds and sq.holds)
    agree = ci.holds == table.holds
    details = {
        "law_CI": ci.to_dict(),
        "law_3M_I": m3.to_dict(),
        "law_SQUARE": sq.to_dict(),
        "table_interchange": table.to_dict(),
        "equivalence": equiv,
        "law_table_agreement": agree,
    }
    notes = [f"CI={ci.holds}, 3M_I={m3.holds}, SQUARE={sq.holds}, table={table.holds}"]
    return CheckResult("theorem_1_6", label, equiv and agree, details, notes)


def check_cor_1_7(facts: GroupFacts, label: str) -> CheckResult:
    """Proper double magma <=> nonabelian, 3-metabelian, G' not exponent 2, SQUARE."""
    inter = facts.interchange
    proper, _ = facts.proper
    lhs = inter.holds and proper
    gprime_size, gprime_exp2 = facts.gprime
    m3 = facts.law("3M_I")
    sq = facts.law("SQUARE")
    rhs = (not facts.g.is_abelian()) and m3.holds and (not gprime_exp2) and sq.holds
    details = {
        "table_interchange": inter.to_dict(),
        "proper": proper,
        "lhs_proper_double_magma": lhs,
        "abelian": facts.g.is_abelian(),
        "law_3M_I": m3.to_dict(),
        "derived_subgroup_size": gprime_size,
        "derived_subgroup_exponent_2": gprime_exp2,
        "law_SQUARE": sq.to_dict(),
        "rhs_structural_conditions": rhs,
    }
    note = f"both sides {lhs}" if lhs == rhs else f"sides disagree: lhs={lhs}, rhs={rhs}"
    return CheckResult("cor_1_7", label, lhs == rhs, details, [note])


def check_cor_1_8(facts: GroupFacts, label: str) -> CheckResult:
    """Double semigroup <=> class <= 2; proper one <=> nonabelian class 2, G' not exp 2."""
    inter = facts.interchange
    star_assoc, bullet_assoc = facts.associativity
    proper, _ = facts.proper
    cls = nilpotency_class(facts.g)
    gprime_size, gprime_exp2 = facts.gprime
    double_semigroup = inter.holds and star_assoc.holds and bullet_assoc.holds
    rhs_i = cls is not None and cls <= 2
    lhs_ii = double_semigroup and proper
    rhs_ii = (not facts.g.is_abelian()) and cls == 2 and not gprime_exp2
    passed = (double_semigroup == rhs_i) and (lhs_ii == rhs_ii)
    details = {
        "table_interchange": inter.to_dict(),
        "star_associative": star_assoc.to_dict(),
        "bullet_associative": bullet_assoc.to_dict(),
        "double_semigroup": double_semigroup,
        "nilpotency_class": cls,
        "proper": proper,
        "derived_subgroup_size": gprime_size,
        "derived_subgroup_exponent_2": gprime_exp2,
        "proper_double_semigroup": lhs_ii,
        "equivalence_i": double_semigroup == rhs_i,
        "equivalence_ii": lhs_ii == rhs_ii,
    }
    cls_text = "not nilpotent" if cls is None else f"class {cls}"
    notes = [f"double semigroup={double_semigroup}, proper={proper}, {cls_text}"]
    claim = RECORDED_CLAIMS.get(label, {}).get("proper_double_semigroup")
    if claim is not None:
        match = lhs_ii == claim
        details["recorded_claim_proper_double_semigroup"] = claim
        details["recorded_claim_match"] = match
        verb = "matches" if match else "DOES NOT match"
        notes.append(
            f"computed proper-double-semigroup={lhs_ii} {verb} the recorded claim ({claim})"
        )
    return CheckResult("cor_1_8", label, passed, details, notes)


# Universal commutator identities; failure of any exhaustive scan here points
# at an implementation bug, not at the group.
IDENTITY_LAWS = (
    ("I_i_a", "[x,y]=x^-1*x^y"),
    ("I_i_b", "[x,y]=(y^-1)^x*y"),
    ("I_ii", "[x,y]^-1=[y,x]"),
    ("I_iii_a", "[x^-1,y]=([x,y]^-1)^(x^-1)"),
    ("I_iii_b", "[x,y^-1]=([x,y]^-1)^(y^-1)"),
    ("I_iv_a", "[x*y,z]=[x,z]^y*[y,z]"),
    ("I_iv_b", "[x*y,z]=[x,z]*[x,z,y]*[y,z]"),
    ("I_v_a", "[x,y*z]=[x,z]*[x,y]^z"),
    ("I_v_b", "[x,y*z]=[x,z]*[x,y]*[x,y,z]"),
)


def check_identities(facts: GroupFacts, label: str) -> CheckResult:
    """Exhaustively verify the commutator identities used by every derivation."""
    details = {}
    failed = []
    for name, law_text in IDENTITY_LAWS:  # parse_law parses and lowers each once
        verdict = check_law_exhaustive(facts.g, parse_law(law_text), facts.budget)
        details[name] = verdict.to_dict()
        if not verdict.holds:
            failed.append(name)
    note = "all identities hold" if not failed else f"identities fail: {', '.join(failed)}"
    return CheckResult("identities", label, not failed, details, [note])


# ---------------------------------------------------------------------------
# fixture checks
# ---------------------------------------------------------------------------


def golden_table_checks() -> list[CheckResult]:
    """Compare freshly constructed tables to the checked-in transcriptions."""
    results = []

    g = parse_group_spec("dihedral:8")
    dm = commutator_double(g)
    names_ok = g.names == fixtures.D8_NAMES
    rows = fixtures.named_rows(dm.star)
    mismatches = [
        (x, y)
        for x in range(16)
        for y in range(16)
        if rows[x][y] != fixtures.D8_STAR_ROWS[x][y]
    ]
    passed = names_ok and not mismatches
    details = {
        "names_match": names_ok,
        "cells": 256,
        "mismatched_cells": [list(c) for c in mismatches[:8]],
    }
    note = "star table matches the 16x16 transcription" if passed else "table deviates"
    results.append(CheckResult("golden_tables", "dihedral:8", passed, details, [note]))

    c3 = parse_group_spec("cyclic:3")
    dm3 = word_double(c3, "a*b^-1")
    star_ok = fixtures.named_rows(dm3.star) == fixtures.C3_STAR_ROWS
    bullet_ok = fixtures.named_rows(dm3.bullet) == fixtures.C3_BULLET_ROWS
    names_ok = c3.names == fixtures.C3_NAMES
    passed = star_ok and bullet_ok and names_ok
    details = {"names_match": names_ok, "star_match": star_ok, "bullet_match": bullet_ok}
    note = "both word tables match the 3x3 transcriptions" if passed else "tables deviate"
    results.append(CheckResult("golden_tables", "cyclic:3", passed, details, [note]))
    return results


def eh_audit_checks() -> list[CheckResult]:
    """Audit the unitary-collapse theorem on the fixture and on a unital double."""
    results = []

    d = fixtures.two_element_fixture()
    report = eckmann_hilton_audit(d)
    proper, _ = is_proper(d)
    star_id = find_identity(d.star)
    details = {
        "star_identity": report.star_identity,
        "bullet_identity": report.bullet_identity,
        "interchange": report.interchange.to_dict(),
        "hypotheses_hold": report.hypotheses_hold,
        "failed_hypotheses": list(report.failed_hypotheses),
        "proper": proper,
        "star_associative": is_associative(d.star).to_dict(),
        "bullet_associative": is_associative(d.bullet).to_dict(),
        "bullet_zero": None if (z := find_zero(d.bullet)) is None else d.names[z],
    }
    # The fixture must evade the collapse: proper, star unital, bullet not.
    expected = (
        not report.hypotheses_hold
        and report.consistent
        and proper
        and star_id is not None
        and find_identity(d.bullet) is None
        and report.interchange.holds
    )
    results.append(
        CheckResult("eh_audit", "fixture:two-element", expected, details, [report.summary()])
    )

    g = parse_group_spec("cyclic:4")
    shared = Magma(g.mul, g.names, symbol="*")
    unital = DoubleMagma(shared, Magma(g.mul, g.names, symbol="•"), label="improper:cyclic:4")
    report = eckmann_hilton_audit(unital)
    details = {
        "star_identity": report.star_identity,
        "bullet_identity": report.bullet_identity,
        "hypotheses_hold": report.hypotheses_hold,
        "conclusions": dict(report.conclusions),
    }
    passed = report.hypotheses_hold and report.consistent
    results.append(
        CheckResult("eh_audit", "improper:cyclic:4", passed, details, [report.summary()])
    )
    return results


# ---------------------------------------------------------------------------
# ring check
# ---------------------------------------------------------------------------


def check_ring_rci(
    r,
    label: str,
    budget: int = DEFAULT_EVAL_BUDGET,
    sample_count: int = 10**6,
    seed: int = 1,
) -> CheckResult:
    """RCI <=> (ALT3M and DOUBLE2), with the table-level interchange scan agreeing."""
    rci = check_ring_law(r, "RCI", budget, sample_count, seed)
    alt = check_ring_law(r, "ALT3M", budget, sample_count, seed)
    dbl = check_ring_law(r, "DOUBLE2", budget, sample_count, seed)
    nilp = check_ring_law(r, "NILP2", budget, sample_count, seed)
    witness = check_ring_law(r, "PROPER_WITNESS", budget, sample_count, seed)
    dm = ring_commutator_double(r)
    inter = satisfies_interchange(dm, budget)
    proper, _ = is_proper(dm)
    equiv = rci.holds == (alt.holds and dbl.holds)
    agree = inter.holds == rci.holds
    proper_agree = proper == (not witness.holds)
    details = {
        "RCI": rci.to_dict(),
        "ALT3M": alt.to_dict(),
        "DOUBLE2": dbl.to_dict(),
        "NILP2": nilp.to_dict(),
        "PROPER_WITNESS": witness.to_dict(),
        "table_interchange": inter.to_dict(),
        "proper": proper,
        "equivalence": equiv,
        "law_table_agreement": agree,
        "proper_witness_agreement": proper_agree,
    }
    notes = [
        f"RCI={rci.holds}, ALT3M={alt.holds}, DOUBLE2={dbl.holds}, "
        f"interchange={inter.holds}, proper={proper}"
    ]
    return CheckResult("ring_rci", label, equiv and agree and proper_agree, details, notes)


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

_GROUP_CHECK_FUNCTIONS = {
    "prop_1_1": check_prop_1_1,
    "prop_1_2": check_prop_1_2,
    "lemma_1_3": check_lemma_1_3,
    "lemma_1_4": check_lemma_1_4,
    "lemma_1_5": check_lemma_1_5,
    "theorem_1_6": check_theorem_1_6,
    "cor_1_7": check_cor_1_7,
    "cor_1_8": check_cor_1_8,
    "identities": check_identities,
}
ALL_CHECKS = FIXTURE_CHECKS + tuple(_GROUP_CHECK_FUNCTIONS) + RING_CHECKS


@dataclass
class CorpusConfig:
    """What to run: structure specs, check ids, scan budgets, and the sampling seed."""

    groups: tuple[str, ...] = DEFAULT_GROUPS
    rings: tuple[str, ...] = DEFAULT_RINGS
    checks: tuple[str, ...] = ALL_CHECKS
    budget: int = DEFAULT_EVAL_BUDGET
    sample_count: int = 10**6
    seed: int = 1

    def __post_init__(self):
        self.groups = tuple(self.groups)
        self.rings = tuple(self.rings)
        self.checks = tuple(self.checks)
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise SpecError(f"unknown checks {unknown}; known: {', '.join(ALL_CHECKS)}")
        if self.budget < 1 or self.sample_count < 1:
            raise SpecError("budget and sample_count must be positive")
        check_sampling(self.sample_count, self.seed)

    @classmethod
    def from_file(cls, path) -> "CorpusConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise SpecError(f"malformed config {path}: {e}") from None
        if not isinstance(raw, dict):
            raise SpecError(f"malformed config {path}: expected a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SpecError(f"unknown config keys {sorted(unknown)}; known: {sorted(known)}")
        kwargs = {}
        for key in ("groups", "rings", "checks"):
            if key in raw:
                if not isinstance(raw[key], list) or not all(isinstance(s, str) for s in raw[key]):
                    raise SpecError(
                        f"malformed config {path}: {key!r} must be a JSON list of strings"
                    )
                kwargs[key] = tuple(raw[key])
        for key in ("budget", "sample_count", "seed"):
            if key in raw:
                if not isinstance(raw[key], int) or isinstance(raw[key], bool):
                    raise SpecError(f"malformed config {path}: {key!r} must be a JSON integer")
                kwargs[key] = raw[key]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "groups": list(self.groups),
            "rings": list(self.rings),
            "checks": list(self.checks),
            "budget": self.budget,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


@dataclass
class Report:
    """All results of one corpus run; serializes deterministically."""

    config: CorpusConfig
    results: list[CheckResult]
    errors: list[dict]

    @property
    def passed(self) -> bool:
        return not self.errors and all(r.passed for r in self.results)

    def counts(self) -> dict:
        ok = sum(1 for r in self.results if r.passed)
        return {
            "checks": len(self.results),
            "passed": ok,
            "failed": len(self.results) - ok,
            "spec_errors": len(self.errors),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "errors": self.errors,
            "counts": self.counts(),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        # No timing or timestamps here: runs with equal configs must be
        # byte-identical.
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self, elapsed: float | None = None) -> str:
        lines = [
            "double-magma verification report",
            "================================",
            f"groups: {len(self.config.groups)}   rings: {len(self.config.rings)}   "
            f"checks: {', '.join(self.config.checks)}",
            f"budget: {self.config.budget}   samples: {self.config.sample_count}   "
            f"seed: {self.config.seed}",
            "",
        ]
        for r in self.results:
            lines.append(r.headline())
            for note in r.notes[1:]:
                lines.append(f"       {note}")
        if self.errors:
            lines.append("")
            for err in self.errors:
                lines.append(f"ERROR {err['structure']}: {err['error']}")
        c = self.counts()
        lines.append("")
        lines.append(
            f"{c['checks']} checks: {c['passed']} passed, {c['failed']} failed, "
            f"{c['spec_errors']} spec errors"
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        if elapsed is not None:
            lines.append(f"total time: {elapsed:.2f}s")
        return "\n".join(lines) + "\n"


def run_corpus(config: CorpusConfig) -> Report:
    """Run every selected check over every structure in the corpus.

    Spec strings that fail to parse are recorded as errors without aborting
    the rest of the run. Output order is deterministic: fixture checks, then
    groups in config order, then rings.
    """
    results: list[CheckResult] = []
    errors: list[dict] = []

    if "golden_tables" in config.checks:
        results.extend(golden_table_checks())
    if "eh_audit" in config.checks:
        results.extend(eh_audit_checks())

    groups: list[tuple[str, FiniteGroup]] = []
    for spec in config.groups:
        try:
            groups.append((spec, parse_group_spec(spec)))
        except (SpecError, ValueError) as e:
            errors.append({"structure": spec, "error": str(e)})
    for spec, g in groups:
        facts = GroupFacts(g, config.budget, config.sample_count, config.seed)
        for check, fn in _GROUP_CHECK_FUNCTIONS.items():
            if check in config.checks:
                results.append(fn(facts, spec))

    if "ring_rci" in config.checks:
        for spec in config.rings:
            try:
                ring = parse_ring_spec(spec)
            except (SpecError, ValueError) as e:
                errors.append({"structure": spec, "error": str(e)})
                continue
            results.append(
                check_ring_rci(ring, spec, config.budget, config.sample_count, config.seed)
            )

    return Report(config, results, errors)
