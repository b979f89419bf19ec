"""The three benchmark workloads and the checks on their outputs.

Every workload is closed-loop with a single client: one process, one thread,
each library call starting only after the previous one returned. A workload
has a set-up (what a user's script does before its first call) and a pass
(the calls that are timed). Each call goes through a `Recorder`, which times
it, compares a seed-independent summary of its result with the expected table
recorded at the seed commit, and re-checks every counterexample witness with
a scalar oracle that does not share the scan path.

Operations are single library calls; they are what `attempted` and `failed`
count. Queries are what a user waits for, and what the latency percentiles
are taken over: one law call (law-queries), the calls behind `dmagma group` /
`dmagma magma --check` on one structure (large-structures), or one
`dmagma suite` run (corpus).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager

COUNTEREXAMPLE = "counterexample"
SAMPLES = 200_000


class OpFailed(Exception):
    """A call raised; the calls of the same query that depend on it are not attempted."""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def verdict_summary(v) -> dict:
    """The seed-independent part of a Verdict.

    Sampled verdicts keep their status, plus the sample count when they hold;
    where a sampled counterexample lands depends on the seed.
    """
    if v.seed is not None:
        if v.status == COUNTEREXAMPLE:
            return {"status": v.status}
        return {"status": v.status, "evaluations": v.evaluations}
    out = {"status": v.status, "evaluations": v.evaluations}
    if v.witness is not None:
        out["witness"] = dict(v.witness)
    return out


class Recorder:
    """Times calls, checks their results, and groups them into queries.

    `expected` maps an operation key to the summary recorded at the seed
    commit; with `expected=None` the recorder collects summaries instead.
    `tracer`, when given, is told which top-level operation is running, so
    that spans carry its id and nothing outside a timed call is traced.
    """

    def __init__(self, expected: dict | None, tracer=None):
        self.expected = expected
        self.recorded: dict = {}
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_seconds = 0.0
        self.query_seconds: list[float] = []
        self._query: float | None = None
        self._next_op = 0

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    @contextmanager
    def query(self):
        self._query = 0.0
        try:
            yield
        finally:
            self.query_seconds.append(self._query)
            self._query = None

    def call(self, key: str, fn, *args, summary=None, oracle=None, **kwargs):
        """Run one operation; raise OpFailed if it raised."""
        self.attempted += 1
        op = self._next_op
        self._next_op += 1
        if self.tracer is not None:
            self.tracer.op = op
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = None
        except Exception as e:  # a raising call is a failed operation, not a crash
            result, error = None, e
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op = None
        self.pass_seconds += dt
        if self._query is None:
            self.query_seconds.append(dt)
        else:
            self._query += dt
        if error is not None:
            self.fail(key, f"raised {type(error).__name__}: {error}")
            raise OpFailed(key)
        # A result whose shape the summary or the oracle cannot read is a
        # failed operation too, not a crash of the run.
        try:
            if summary is not None:
                got = json.loads(json.dumps(summary(result)))
                if self.expected is None:
                    self.recorded[key] = got
                elif key not in self.expected:
                    self.fail(key, "no expected value recorded")
                elif got != self.expected[key]:
                    self.fail(key, f"got {got}, expected {self.expected[key]}")
                    return result
            why = oracle(result) if oracle is not None else None
        except Exception as e:
            self.fail(key, f"unreadable result {result!r:.200}: {type(e).__name__}: {e}")
            return result
        if why:
            self.fail(key, f"oracle: {why}")
        return result


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


def _indices(names, witness: dict) -> dict:
    index = {s: i for i, s in enumerate(names)}
    return {v: index[s] for v, s in witness.items()}


def group_law_oracle(dm, g, law):
    """Re-check a counterexample of a group law with the scalar `evaluate`."""

    def check(v):
        if v.status != COUNTEREXAMPLE:
            return None
        a = _indices(g.names, v.witness)
        if dm.evaluate(law.lhs, g, a) == dm.evaluate(law.rhs, g, a):
            return f"witness {v.witness} satisfies {law}"
        return None

    return check


def ring_law_value(dm, r, name: str, a: dict) -> int:
    """The zero-tested side of a registry ring law, by scalar `lie_bracket`."""
    b = lambda x, y: dm.lie_bracket(r, x, y)  # noqa: E731
    if name == "RCI":
        left = b(b(a["w"], a["x"]), b(a["y"], a["z"]))
        right = b(b(a["w"], a["y"]), b(a["x"], a["z"]))
        return int(r.add[left, r.neg[right]])
    if name == "ALT3M":
        return b(b(a["x"], a["y"]), b(a["x"], a["z"]))
    if name == "DOUBLE2":
        v = b(b(a["w"], a["x"]), b(a["y"], a["z"]))
        return int(r.add[v, v])
    if name == "NILP2":
        return b(b(a["x"], a["y"]), a["z"])
    if name == "PROPER_WITNESS":
        v = b(a["x"], a["y"])
        return int(r.add[v, v])
    raise ValueError(f"no oracle for ring law {name}")


def ring_law_oracle(dm, r, name: str):
    def check(v):
        if v.status != COUNTEREXAMPLE:
            return None
        if ring_law_value(dm, r, name, _indices(r.names, v.witness)) == r.zero:
            return f"witness {v.witness} satisfies {name}"
        return None

    return check


def scalar_star(dm, s):
    """The commutation operation of a group or ring, by scalar lookups."""
    if hasattr(s, "inv"):
        return s.commutator
    return lambda x, y: dm.lie_bracket(s, x, y)


def table_oracle(star, names, what: str):
    """Re-check a table-scan counterexample on the commutation double magma.

    `what` names the predicate and the operation it was run on: the star
    operation is `star`, the bullet operation is star with its arguments
    swapped.
    """
    ops = {"star": star, "bullet": lambda x, y: star(y, x)}

    def check(v):
        if v.status != COUNTEREXAMPLE:
            return None
        a = _indices(names, v.witness)
        pred, _, side = what.partition(":")
        if pred == "interchange":
            s, b = ops["star"], ops["bullet"]
            fails = b(s(a["w"], a["x"]), s(a["y"], a["z"])) != s(b(a["w"], a["y"]), b(a["x"], a["z"]))
        elif pred == "commutative":
            op = ops[side]
            fails = op(a["x"], a["y"]) != op(a["y"], a["x"])
        elif pred == "associative":
            op = ops[side]
            fails = op(op(a["x"], a["y"]), a["z"]) != op(a["x"], op(a["y"], a["z"]))
        else:
            raise ValueError(what)
        return None if fails else f"witness {v.witness} does not violate {what}"

    return check


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _normalized_json(text: str) -> str:
    """The report with every sampling seed blanked, which makes it seed-independent."""

    def blank(obj):
        if isinstance(obj, dict):
            return {k: (None if k == "seed" else blank(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [blank(v) for v in obj]
        return obj

    return digest(json.dumps(blank(json.loads(text)), sort_keys=True))


def _report_table(report) -> dict:
    """Pass/fail per check result, and the summary of every verdict in its details."""
    rows = {}
    for r in report.results:
        verdicts = {
            k: verdict_summary(_VerdictView(v))
            for k, v in r.details.items()
            if isinstance(v, dict) and "status" in v
        }
        rows[f"{r.check}|{r.structure}"] = {"passed": r.passed, "verdicts": verdicts}
    return rows


class _VerdictView:
    """Read a Verdict's dict form through the Verdict attribute names."""

    def __init__(self, d: dict):
        self.status = d["status"]
        self.evaluations = d["evaluations"]
        self.witness = d.get("witness")
        self.seed = d.get("seed")


# Detail keys of word-law verdicts in the corpus report, by the law they scan.
_REPORT_LAW_KEYS = {
    "law_COMM_SQ": "COMM_SQ",
    "law_ASSOC_COMM": "ASSOC_COMM",
    "law_CI": "CI",
    "law_3M_I": "3M_I",
    "law_SQUARE": "SQUARE",
    "hypothesis_3M_I": "3M_I",
}
_FIXTURE_CHECKS = ("golden_tables", "eh_audit")
_REPORT_TABLE_KEYS = {
    "star_commutative": "commutative:star",
    "bullet_commutative": "commutative:bullet",
    "star_associative": "associative:star",
    "bullet_associative": "associative:bullet",
    "table_interchange": "interchange",
}


class Workload:
    """A set-up, then passes of timed calls.

    The first pass runs the calls in listed order; each later pass in its own
    order, drawn from the seed and the pass number. Call latencies depend on
    the allocator state the previous calls left, so a run sees several orders
    rather than one. `tiny` keeps a small subset of the calls.
    """

    name = ""

    def __init__(self, dm, seed: int, tiny: bool = False):
        self.dm = dm
        self.seed = seed
        self.tiny = tiny
        self.passes = 0

    def pass_order(self, items: list) -> list:
        """The calls of the next pass, in that pass's order."""
        self.passes += 1
        if self.passes == 1:
            return items
        items = list(items)
        random.Random(f"{self.seed}/{self.passes}").shuffle(items)
        return items

    def setup(self) -> None:
        """What a user's script does before its first call."""

    def prepare_checks(self) -> None:
        """Build what the output checks need; not part of the measured set-up."""

    def expected_for(self, expected: dict) -> dict:
        return expected

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError


class Corpus(Workload):
    """`run_corpus` on the default corpus, then both report serializations."""

    name = "corpus"
    raw_digest: str | None = None

    def expected_for(self, expected: dict) -> dict:
        """The expected rows for this config's structures; the seed-1 digest is kept aside."""
        self.raw_digest = expected.get("to_json@seed1")
        if not self.tiny:
            return expected
        mine = set(self.config.groups) | set(self.config.rings)
        rows = {k: v for k, v in expected["run_corpus"].items()
                if k.split("|", 1)[0] in _FIXTURE_CHECKS or k.split("|", 1)[1] in mine}
        return {"run_corpus": rows}

    def setup(self) -> None:
        dm = self.dm
        if self.tiny:
            self.config = dm.CorpusConfig(
                groups=("cyclic:3", "dihedral:3"), rings=("zmod:6",), seed=self.seed
            )
        else:
            self.config = dm.CorpusConfig(seed=self.seed)

    def prepare_checks(self) -> None:
        dm = self.dm
        self.structures = {s: dm.parse_group_spec(s) for s in self.config.groups}
        self.structures.update({s: dm.parse_ring_spec(s) for s in self.config.rings})
        self.laws = {name: dm.builtin_law(name) for name in dm.BUILTIN_LAWS}
        self.laws.update({name: dm.parse_law(text) for name, text in dm.suite.IDENTITY_LAWS})

    def _oracle_report(self, report):
        dm = self.dm
        for r in report.results:
            s = self.structures.get(r.structure)
            if s is None:  # fixture structures are pinned by the expected table
                continue
            for key, d in r.details.items():
                if not (isinstance(d, dict) and d.get("status") == COUNTEREXAMPLE):
                    continue
                v = _VerdictView(d)
                if key in dm.RING_LAWS:
                    why = ring_law_oracle(dm, s, key)(v)
                elif key in _REPORT_TABLE_KEYS:
                    why = table_oracle(scalar_star(dm, s), s.names, _REPORT_TABLE_KEYS[key])(v)
                else:
                    law = self.laws[_REPORT_LAW_KEYS.get(key, key)]
                    why = group_law_oracle(dm, s, law)(v)
                if why:
                    return f"{r.check} [{r.structure}] {key}: {why}"
        return None

    def run_pass(self, rec: Recorder) -> None:
        dm = self.dm
        with rec.query():
            try:
                report = rec.call("run_corpus", dm.run_corpus, self.config,
                                  summary=_report_table, oracle=self._oracle_report)
                if self.tiny:
                    return
                rec.call("to_json", report.to_json, summary=_normalized_json,
                         oracle=self._check_raw_json)
                rec.call("to_text", report.to_text,
                         summary=lambda t: digest(t.replace(f"seed: {self.seed}", "seed: -")))
            except OpFailed:
                pass

    def _check_raw_json(self, text: str):
        """On the default seed the report must be byte-identical to the seed commit's."""
        if self.seed != 1 or self.raw_digest is None:
            return None
        got = digest(text)
        return None if got == self.raw_digest else f"seed-1 digest {got} != {self.raw_digest}"


# ---------------------------------------------------------------------------
# law-queries
# ---------------------------------------------------------------------------

S4 = "perm:(1 2),(1 2 3 4)"
A4 = "perm:(1 2 3),(2 3 4)"
Q8 = "perm:(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)"
H3 = "heisenberg:3"
H5 = "heisenberg:5"
M21 = "metacyclic:7,3,2"
C4C4 = "product:cyclic:4,cyclic:4"

LAW_GROUPS = (
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:8", "dihedral:16",
    S4, A4, Q8, H3, H5, M21, "cyclic:12", C4C4,
)
LAW_RINGS = ("zmod:6", "matrix:2,2", "uppertri:2,3", "matrix:2,3", "uppertri:2,4", "zmod:125")

# (kind, structure, law). kind: "E" exhaustive builtin law, "T" exhaustive
# parsed text law, "S" sampled builtin law, "R" ring registry law. The mix is
# fixed: more than half end in an early counterexample, the rest are full
# exhaustive sweeps of 1e3..1.7e7 evaluations and sampled scans.
LAW_QUERIES = (
    # early counterexamples
    *(("E", S4, law) for law in (
        "3M_I", "3M_II", "3M_III", "CI", "PAIR", "L1", "L2", "L3",
        "ASSOC_COMM", "COMM_SQ", "CLASS2", "JACOBI",
    )),
    *(("E", g, law)
      for g in ("dihedral:3", "dihedral:5", "dihedral:6", "dihedral:8", "dihedral:16", M21)
      for law in ("ASSOC_COMM", "COMM_SQ", "CLASS2")),
    ("E", A4, "ASSOC_COMM"), ("E", A4, "CLASS2"), ("E", H3, "COMM_SQ"), ("E", H5, "COMM_SQ"),
    ("R", "matrix:2,2", "RCI"), ("R", "matrix:2,2", "ALT3M"), ("R", "matrix:2,2", "NILP2"),
    ("R", "uppertri:2,3", "NILP2"), ("R", "uppertri:2,3", "PROPER_WITNESS"),
    *(("R", "matrix:2,3", law) for law in ("RCI", "ALT3M", "DOUBLE2", "NILP2", "PROPER_WITNESS")),
    ("R", "uppertri:2,4", "NILP2"), ("R", "uppertri:2,4", "PROPER_WITNESS"),
    *(("T", g, "[x,y]=1") for g in ("dihedral:3", S4, "dihedral:8", H3, M21, A4, "dihedral:16")),
    ("T", "cyclic:12", "x^2=1"), ("T", "dihedral:5", "x^2=1"), ("T", S4, "[x,y,y]=1"),
    ("T", S4, "[x,y;x,z]=1"), ("T", "dihedral:8", "[x,y,z]=1"), ("T", "dihedral:16", "[x,y,z]=1"),
    ("S", S4, "L3"), ("S", S4, "CI"), ("S", S4, "PAIR"),
    # full sweeps and sampled passes
    *(("E", H3, law) for law in (
        "CI", "SQUARE", "L2", "PAIR", "L1", "3M_III", "3M_I", "CLASS2", "JACOBI",
    )),
    *(("E", "dihedral:16", law) for law in ("CI", "SQUARE", "3M_I", "JACOBI")),
    *(("E", "dihedral:8", law) for law in ("L3", "CI", "SQUARE", "PAIR", "L1")),
    ("E", H5, "3M_I"), ("E", H5, "CLASS2"),
    ("E", M21, "CI"), ("E", M21, "SQUARE"), ("E", M21, "PAIR"),
    ("E", C4C4, "CI"), ("E", C4C4, "L3"),
    ("E", A4, "CI"), ("E", A4, "L3"), ("E", A4, "SQUARE"),
    ("E", "cyclic:12", "CI"), ("E", "cyclic:12", "PAIR"),
    ("E", Q8, "CI"), ("E", Q8, "L3"), ("E", Q8, "SQUARE"),
    ("E", "dihedral:4", "CI"), ("E", "dihedral:4", "L3"),
    ("T", "dihedral:8", "[x,y;z,u]=1"), ("T", H3, "[x,y,z]=1"), ("T", Q8, "[x^2,y]=1"),
    ("T", "cyclic:12", "x^12=1"),
    *(("R", "zmod:6", law) for law in ("RCI", "ALT3M", "DOUBLE2", "NILP2", "PROPER_WITNESS")),
    ("R", "matrix:2,2", "DOUBLE2"), ("R", "matrix:2,2", "PROPER_WITNESS"),
    ("R", "uppertri:2,3", "RCI"), ("R", "uppertri:2,3", "ALT3M"), ("R", "uppertri:2,3", "DOUBLE2"),
    ("R", "uppertri:2,4", "RCI"), ("R", "uppertri:2,4", "DOUBLE2"), ("R", "uppertri:2,4", "ALT3M"),
    *(("R", "zmod:125", law) for law in ("RCI", "DOUBLE2", "ALT3M", "NILP2", "PROPER_WITNESS")),
    ("S", H3, "L2"), ("S", H3, "L3"), ("S", "dihedral:16", "L2"), ("S", "dihedral:16", "L3"),
)

# Structures of order at most 16: the query subset the smoke test runs.
_TINY_STRUCTURES = {"dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6", "dihedral:8",
                    Q8, "cyclic:12", C4C4, "zmod:6", "matrix:2,2"}


def query_key(q) -> str:
    return "|".join(q)


class LawQueries(Workload):
    """Direct law calls on structures built in set-up, in a seeded order."""

    name = "law-queries"

    def setup(self) -> None:
        dm = self.dm
        self.queries = [q for q in LAW_QUERIES if not self.tiny or q[1] in _TINY_STRUCTURES]
        used = {q[1] for q in self.queries}
        self.groups = {s: dm.parse_group_spec(s) for s in LAW_GROUPS if s in used}
        self.rings = {s: dm.parse_ring_spec(s) for s in LAW_RINGS if s in used}
        self.laws = {
            q[2]: dm.parse_law(q[2]) if q[0] == "T" else dm.builtin_law(q[2])
            for q in self.queries if q[0] != "R"
        }

    def run_pass(self, rec: Recorder) -> None:
        dm = self.dm
        for q in self.pass_order(self.queries):
            kind, spec, law = q
            key = query_key(q)
            try:
                if kind == "R":
                    r = self.rings[spec]
                    rec.call(key, dm.check_ring_law, r, law, sample_count=SAMPLES, seed=self.seed,
                             summary=verdict_summary, oracle=ring_law_oracle(dm, r, law))
                    continue
                g, parsed = self.groups[spec], self.laws[law]
                oracle = group_law_oracle(dm, g, parsed)
                if kind == "S":
                    rec.call(key, dm.check_law_sampled, g, parsed, SAMPLES, self.seed,
                             summary=verdict_summary, oracle=oracle)
                else:
                    rec.call(key, dm.check_law_exhaustive, g, parsed,
                             summary=verdict_summary, oracle=oracle)
            except OpFailed:
                pass


# ---------------------------------------------------------------------------
# large-structures
# ---------------------------------------------------------------------------

# Seven structures are cheaper than dihedral:128 and seven dearer, so the
# median query of a pass is dihedral:128 and the 90th percentile falls between
# matrix:2,4 and dihedral:256. Those three take about as long in every pass;
# the queries of 20-200 ms whose time swings most with allocator state
# (uppertri:2,5, the order-64 interchange scans) stay off both percentiles.
LARGE_GROUPS = (
    "dihedral:32", "product:cyclic:8,cyclic:8", H5, "perm:(1 2),(1 2 3 4 5)", "dihedral:128",
    "product:dihedral:8,cyclic:16", "product:cyclic:8,cyclic:32", "product:cyclic:16,cyclic:16",
    "heisenberg:7", "dihedral:256",
)
LARGE_RINGS = ("uppertri:3,2", "matrix:2,3", "uppertri:2,5", "matrix:2,4", "uppertri:2,7")
_TINY_LARGE = {H5, "uppertri:3,2"}


def _group_summary(g) -> dict:
    return {"order": g.order, "table": digest(g.mul.tobytes(), *g.names)}


def _ring_summary(r) -> dict:
    return {"order": r.order, "table": digest(r.add.tobytes(), r.mul.tobytes(), *r.names)}


def _subgroup_summary(s) -> dict:
    return {"size": len(s), "members": digest(*s.sorted_members())}


def _double_summary(d) -> str:
    return digest(d.star.op.tobytes(), d.bullet.op.tobytes())


def _proper_summary(result) -> list:
    proper, cell = result
    return [proper, None if cell is None else list(cell)]


class LargeStructures(Workload):
    """Per structure of order 64..512: what `dmagma group` and `dmagma magma --check` call."""

    name = "large-structures"

    def setup(self) -> None:
        items = [("group", s) for s in LARGE_GROUPS] + [("ring", s) for s in LARGE_RINGS]
        if self.tiny:
            items = [it for it in items if it[1] in _TINY_LARGE]
        self.items = items

    def run_pass(self, rec: Recorder) -> None:
        for kind, spec in self.pass_order(self.items):
            with rec.query():
                try:
                    if kind == "group":
                        self._group(rec, spec)
                    else:
                        self._ring(rec, spec)
                except OpFailed:
                    pass

    def _group(self, rec: Recorder, spec: str) -> None:
        dm = self.dm
        k = f"{spec}|"
        g = rec.call(k + "parse", dm.parse_group_spec, spec, summary=_group_summary)
        gp = rec.call(k + "derived_subgroup", dm.derived_subgroup, g, summary=_subgroup_summary)
        rec.call(k + "has_exponent_2", dm.has_exponent_2, gp, summary=bool)
        rec.call(k + "nilpotency_class", dm.nilpotency_class, g, summary=lambda c: c)
        d = rec.call(k + "commutator_double", dm.commutator_double, g, summary=_double_summary)
        star = g.commutator
        rec.call(k + "is_commutative", dm.is_commutative, d.star, summary=verdict_summary,
                 oracle=table_oracle(star, g.names, "commutative:star"))
        rec.call(k + "is_associative", dm.is_associative, d.star, summary=verdict_summary,
                 oracle=table_oracle(star, g.names, "associative:star"))
        rec.call(k + "is_proper", dm.is_proper, d, summary=_proper_summary,
                 oracle=lambda p: None if p[1] is None or star(*p[1]) != star(*p[1][::-1])
                 else f"cell {p[1]} does not differ")
        rec.call(k + "find_identity", dm.find_identity, d.star, summary=lambda e: e)
        rec.call(k + "find_zero", dm.find_zero, d.star, summary=lambda z: z)
        if g.order**4 <= dm.DEFAULT_EVAL_BUDGET:
            rec.call(k + "interchange", dm.satisfies_interchange, d, summary=verdict_summary,
                     oracle=table_oracle(star, g.names, "interchange"))

    def _ring(self, rec: Recorder, spec: str) -> None:
        dm = self.dm
        k = f"{spec}|"
        r = rec.call(k + "parse", dm.parse_ring_spec, spec, summary=_ring_summary)
        d = rec.call(k + "ring_commutator_double", dm.ring_commutator_double, r,
                     summary=_double_summary)
        rec.call(k + "is_associative", dm.is_associative, d.star, summary=verdict_summary,
                 oracle=table_oracle(scalar_star(dm, r), r.names, "associative:star"))
        for law in ("PROPER_WITNESS", "NILP2", "ALT3M"):
            rec.call(k + law, dm.check_ring_law, r, law, summary=verdict_summary,
                     oracle=ring_law_oracle(dm, r, law))


WORKLOADS = {w.name: w for w in (Corpus, LawQueries, LargeStructures)}
