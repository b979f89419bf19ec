"""Spans around dmagma's public functions, recorded from the benchmark's side.

`Tracer.install()` replaces each traced function with a wrapper in every
place the program looks it up: its home module, every `dmagma` module that
imported it by name (`from .x import f`), module-level dicts that hold it
(the suite's check table), and the class for methods. `uninstall()` puts every
original object back. Spans are kept in memory; `write()` saves them when the
run ends, and `layer_metrics()` derives the per-layer numbers from them.

A span is recorded only while the benchmark has a top-level operation open
(`Tracer.op` is its id), so checking code that runs between operations is
never traced.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Span kind -> the functions it covers, as (home module, attribute). Kinds are
# "<layer>.<what>"; a layer's time is the sum of its outermost spans of a kind.
TARGETS = {
    "groups.construct": [("dmagma.groups", f) for f in (
        "parse_group_spec", "make_cyclic", "make_dihedral", "make_metacyclic",
        "make_heisenberg", "make_from_permutations", "direct_product",
    )],
    "groups.series": [("dmagma.groups", f) for f in (
        "derived_series", "lower_central_series", "derived_subgroup",
        "nilpotency_class", "is_metabelian", "has_exponent_2",
    )],
    "rings.construct": [("dmagma.rings", f) for f in (
        "parse_ring_spec", "make_zmod", "make_matrix_ring", "make_upper_triangular",
    )],
    "rings.law": [("dmagma.rings", "check_ring_law")],
    "words.exhaustive": [("dmagma.words", "check_law_exhaustive")],
    "words.sampled": [("dmagma.words", "check_law_sampled")],
    "constructions.build": [("dmagma.constructions", f) for f in (
        "commutator_double", "word_double", "ring_commutator_double",
    )],
    "magmas.interchange": [("dmagma.magmas", "satisfies_interchange")],
    "magmas.assoc": [("dmagma.magmas", "is_associative")],
    "magmas.other": [("dmagma.magmas", f) for f in (
        "is_commutative", "is_proper", "find_identity", "find_zero",
    )],
    "suite.run": [("dmagma.suite", "run_corpus")],
    "suite.check": [("dmagma.suite", f) for f in (
        "golden_table_checks", "eh_audit_checks", "check_prop_1_1", "check_prop_1_2",
        "check_lemma_1_3", "check_lemma_1_4", "check_lemma_1_5", "check_theorem_1_6",
        "check_cor_1_7", "check_cor_1_8", "check_identities", "check_ring_rci",
    )],
    "suite.report_json": [("dmagma.suite", "Report.to_json")],
    "suite.report_text": [("dmagma.suite", "Report.to_text")],
}

# Table validation is wrapped only where the constructors look it up; the
# same function reached through `is_associative` is a magmas scan.
VALIDATE = [("dmagma.groups", "first_associativity_failure"),
            ("dmagma.rings", "first_associativity_failure")]

CHECK_IDS = {
    "golden_table_checks": "golden_tables",
    "eh_audit_checks": "eh_audit",
    "check_ring_rci": "ring_rci",
}

SCAN_LAWS = ("CI", "PAIR", "SQUARE", "3M_I", "3M_III", "L1", "L2", "L3")
SUITE_CHECKS = (
    "golden_tables", "eh_audit", "prop_1_1", "prop_1_2", "lemma_1_3", "lemma_1_4",
    "lemma_1_5", "theorem_1_6", "cor_1_7", "cor_1_8", "identities", "ring_rci",
)


class Span:
    __slots__ = ("id", "parent", "op", "kind", "name", "start", "end", "info")

    def __init__(self, sid, parent, op, kind, name, start):
        self.id, self.parent, self.op, self.kind, self.name = sid, parent, op, kind, name
        self.start, self.end, self.info = start, start, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op, "kind": self.kind,
                "name": self.name, "start": self.start, "end": self.end, **self.info}


class Tracer:
    """Wraps the targets while installed and records a span per traced call."""

    def __init__(self, dm):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._law_names = {str(dm.builtin_law(n)): n for n in dm.BUILTIN_LAWS}

    # -- wrapping ----------------------------------------------------------

    def _describe(self, kind: str, args, kwargs, result) -> dict:
        info = {}
        if hasattr(result, "evaluations") and hasattr(result, "status"):
            info["evaluations"] = result.evaluations
            info["status"] = result.status
        if kind.startswith("words."):
            law = str(args[1] if len(args) > 1 else kwargs["law"])
            info["law"] = self._law_names.get(law, law)
            info["structure"] = args[0].label
        elif kind == "rings.law":
            info["law"] = args[1] if len(args) > 1 else kwargs["name"]
            info["structure"] = args[0].label
        elif kind == "constructions.build":
            info["structure"] = args[0].label
            info["word"] = repr((args[1:], kwargs))
        return info

    def _wrap(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1] if stack else None, tracer.op,
                        kind, fn.__name__, time.perf_counter())
            tracer.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = tracer._describe(kind, args, kwargs, result)
            return result

        return traced

    def _patch(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = new
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, new)

    def install(self) -> None:
        """Wrap every target in every place dmagma looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dmagma" or name.startswith("dmagma.")]
        for kind, refs in TARGETS.items():
            for mod_name, attr in refs:
                home = sys.modules[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(kind, getattr(cls, meth)))
                    continue
                original = getattr(home, attr)
                traced = self._wrap(kind, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, traced)
                        elif isinstance(value, dict) and not name.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patch(value, k, traced)
        for mod_name, attr in VALIDATE:
            home = sys.modules[mod_name]
            self._patch(home, attr, self._wrap("groups.validate_assoc", getattr(home, attr)))

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of patching."""
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _outermost(spans: list[Span], by_id: dict) -> dict:
    """Spans by kind, leaving out those nested in a span of the same kind."""
    out = defaultdict(list)
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].kind != s.kind:
            p = by_id[p].parent
        if p is None:
            out[s.kind].append(s)
    return out


def _rate(evals: float, seconds: float) -> float:
    return evals / seconds if seconds > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int, setup_ops=frozenset()) -> dict:
    """Per-layer numbers per pass.

    Spans of the operations in `setup_ops` (the traced set-up of law-queries)
    count once; spans of the `passes` traced passes are averaged over them.
    Rates and ratios are taken over the same weighted sums.
    """
    by_id = {s.id: s for s in spans}
    w = {s.id: (1.0 if s.op in setup_ops else 1.0 / passes) for s in spans}
    top = _outermost(spans, by_id)

    def secs(kind):
        return sum(s.seconds * w[s.id] for s in top[kind])

    def calls(kind):
        return sum(w[s.id] for s in top[kind])

    def evals(kind):
        return sum(s.info.get("evaluations", 0) * w[s.id] for s in top[kind])

    m = {
        "groups.construct_s": secs("groups.construct"),
        "groups.construct_calls": calls("groups.construct"),
        "groups.validate_assoc_s": secs("groups.validate_assoc"),
        "groups.series_s": secs("groups.series"),
        "groups.series_calls": calls("groups.series"),
        "rings.construct_s": secs("rings.construct"),
        "rings.construct_calls": calls("rings.construct"),
        "rings.law_s": secs("rings.law"),
        "rings.law_calls": calls("rings.law"),
        "rings.law_evals_per_s": _rate(evals("rings.law"), secs("rings.law")),
    }
    for what in ("exhaustive", "sampled"):
        kind = f"words.{what}"
        m[f"{kind}_s"] = secs(kind)
        m[f"{kind}_calls"] = calls(kind)
        m[f"{kind}_evals_per_s"] = _rate(evals(kind), secs(kind))
    scans = top["words.exhaustive"] + top["words.sampled"]
    m["words.sampled_share"] = _ratio(calls("words.sampled"), sum(w[s.id] for s in scans))
    witness_ms = [s.seconds * 1e3 for s in scans if s.info.get("status") == "counterexample"]
    m["words.witness_scan_p50_ms"] = statistics.median(witness_ms) if witness_ms else 0.0
    for law in SCAN_LAWS:
        mine = [s for s in scans if s.info.get("law") == law and "evaluations" in s.info]
        m[f"words.evals_per_s.{law}"] = _rate(
            sum(s.info["evaluations"] * w[s.id] for s in mine),
            sum(s.seconds * w[s.id] for s in mine),
        )

    builds = top["constructions.build"]
    m["constructions.build_s"] = secs("constructions.build")
    m["constructions.build_calls"] = calls("constructions.build")
    distinct = {(s.op, s.name, s.info.get("structure"), s.info.get("word")) for s in builds}
    m["constructions.distinct_ratio"] = _ratio(
        sum(1.0 if op in setup_ops else 1.0 / passes for op, *_ in distinct),
        calls("constructions.build"),
    )

    for what in ("interchange", "assoc"):
        kind = f"magmas.{what}"
        m[f"{kind}_s"] = secs(kind)
        m[f"{kind}_calls"] = calls(kind)
        m[f"{kind}_evals_per_s"] = _rate(evals(kind), secs(kind))
    m["magmas.other_s"] = secs("magmas.other")

    runs = top["suite.run"]
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    m["suite.run_s"] = secs("suite.run")
    m["suite.self_s"] = sum((s.seconds - children[s.id]) * w[s.id] for s in runs)
    check_s = dict.fromkeys(SUITE_CHECKS, 0.0)
    for s in top["suite.check"]:
        cid = CHECK_IDS.get(s.name, s.name.removeprefix("check_"))
        check_s[cid] += s.seconds * w[s.id]
    m.update({f"suite.check_s.{c}": v for c, v in check_s.items()})

    # A scan is in the suite when a run_corpus span encloses it.
    in_suite = []
    for s in scans + top["rings.law"]:
        p = s.parent
        while p is not None and by_id[p].kind != "suite.run":
            p = by_id[p].parent
        if p is not None:
            in_suite.append(s)
    distinct_scans = {(s.op, s.kind, s.info.get("structure"), s.info.get("law")) for s in in_suite}
    m["suite.scan_distinct_ratio"] = _ratio(
        len(distinct_scans) / passes, sum(w[s.id] for s in in_suite)
    )
    m["suite.report_json_s"] = secs("suite.report_json")
    m["suite.report_text_s"] = secs("suite.report_text")
    return m
