"""Magmas and double magmas as bare operation tables, plus their predicates.

Nothing here ever looks at the group or ring a table came from: every verdict
is a genuine brute-force statement about the table itself, which is what makes
the law-level vs table-level cross-checks in the verification suite two-sided.

The associativity and interchange scans skip only checks that repeat an
earlier one. Whether a triple or quadruple fails depends on each variable
only through some rows and columns of the tables (its row and column, say),
so elements whose lines agree there give equal checks. The scans visit the
smallest element of each such class, in lexicographic order; the first
failure of the full scan is always among these tuples, so the witness and
its position (`evaluations`) are those of the full n^3 or n^4 scan, and a
clean pass reports the full count. See `tables` for the argument, and for
the budget rule and the verdicts, which this module takes from there alone.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .tables import (
    DEFAULT_EVAL_BUDGET,
    Verdict,
    as_table,
    carrier_names,
    decide,
    exhaustive_verdict,
    first_associativity_failure,
    first_mismatch,
    interchange_scan,
    two_sided_identity,
    two_sided_zero,
)


class Magma:
    """A set with one binary operation table and display names. No axioms assumed."""

    def __init__(self, op, names, symbol: str = "*"):
        self.op = as_table(op)
        self.order = self.op.shape[0]
        self.names = carrier_names(names, self.order)
        self.symbol = symbol

    def __repr__(self):
        return f"Magma(order={self.order}, symbol={self.symbol!r})"


class DoubleMagma:
    """One carrier, two operation tables (star and bullet) sharing the names."""

    def __init__(self, star: Magma, bullet: Magma, label: str = ""):
        if star.order != bullet.order or star.names != bullet.names:
            raise ValueError("star and bullet must share carrier size and names")
        self.star = star
        self.bullet = bullet
        self.order = star.order
        self.names = star.names
        self.label = label

    def __repr__(self):
        return f"DoubleMagma({self.label!r}, order={self.order})"


def is_commutative(m: Magma) -> Verdict:
    """Scan all pairs; the witness is the smallest failing (x, y)."""
    return exhaustive_verdict(first_mismatch(m.op, m.op.T), "xy", m.names)


def is_associative(m: Magma) -> Verdict:
    """Scan all triples; the witness is the smallest failing (x, y, z)."""
    return exhaustive_verdict(first_associativity_failure(m.op), "xyz", m.names)


def satisfies_interchange(d: DoubleMagma, budget: int = DEFAULT_EVAL_BUDGET) -> Verdict:
    """Scan (w*x)•(y*z) = (w•y)*(x•z) over all quadruples in lexicographic order,
    if the n^4 of them fit `budget` (`tables.decide`)."""
    return decide("wxyz", d.names, budget, lambda total: (
        f"interchange scan on order {d.order} needs {total} checks (budget {budget})"
    ), partial(interchange_scan, d.star.op, d.bullet.op))


def find_identity(m: Magma) -> int | None:
    """The unique two-sided identity, if one exists."""
    return two_sided_identity(m.op)


def find_zero(m: Magma) -> int | None:
    """An element z with z*x = x*z = z for all x, if any."""
    return two_sided_zero(m.op)


def is_proper(d: DoubleMagma) -> tuple[bool, tuple[int, int] | None]:
    """(operations differ somewhere, smallest differing cell or None)."""
    diff = first_mismatch(d.star.op, d.bullet.op)
    return (diff is not None, diff)


@dataclass
class EckmannHiltonReport:
    """Audit of the 'unitary double magma' collapse, run as a falsifiable check.

    When both operations have identities and interchange holds, the four
    classical conclusions are verified on the tables; any failure there is a
    fatal inconsistency rather than an assumption.
    """

    star_identity: str | None
    bullet_identity: str | None
    interchange: Verdict
    hypotheses_hold: bool
    failed_hypotheses: tuple[str, ...]
    conclusions: dict[str, bool] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return all(self.conclusions.values()) if self.hypotheses_hold else True

    def summary(self) -> str:
        if not self.hypotheses_hold:
            return "hypotheses fail (" + "; ".join(self.failed_hypotheses) + "); nothing asserted"
        if self.consistent:
            return "hypotheses hold; all conclusions verified: " + ", ".join(sorted(self.conclusions))
        bad = sorted(k for k, v in self.conclusions.items() if not v)
        return "FATAL INCONSISTENCY: hypotheses hold but conclusions fail: " + ", ".join(bad)


def eckmann_hilton_audit(d: DoubleMagma, budget: int = DEFAULT_EVAL_BUDGET) -> EckmannHiltonReport:
    star_id = find_identity(d.star)
    bullet_id = find_identity(d.bullet)
    inter = satisfies_interchange(d, budget)
    failed = []
    if star_id is None:
        failed.append("star has no identity")
    if bullet_id is None:
        failed.append("bullet has no identity")
    if not inter.holds:
        failed.append("interchange fails")
    report = EckmannHiltonReport(
        star_identity=None if star_id is None else d.names[star_id],
        bullet_identity=None if bullet_id is None else d.names[bullet_id],
        interchange=inter,
        hypotheses_hold=not failed,
        failed_hypotheses=tuple(failed),
    )
    if report.hypotheses_hold:
        proper, _ = is_proper(d)
        report.conclusions = {
            "identities-coincide": star_id == bullet_id,
            "operations-identical": not proper,
            "star-commutative": is_commutative(d.star).holds,
            "bullet-commutative": is_commutative(d.bullet).holds,
            "star-associative": is_associative(d.star).holds,
            "bullet-associative": is_associative(d.bullet).holds,
        }
    return report


# ---------------------------------------------------------------------------
# table export
# ---------------------------------------------------------------------------

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_POWER_RUN = re.compile(r"(?<=[A-Za-z])[0-9]+")


def superscript_names(names) -> list[str]:
    """Rewrite exponent digit runs as unicode superscripts, e.g. a6b -> a⁶b.

    Only digits directly following a letter are touched, so names like "1"
    or "(1,0,2)" come through unchanged.
    """
    return [
        _POWER_RUN.sub(lambda m: m.group(0).translate(_SUPERSCRIPTS), str(s))
        for s in names
    ]


def _name_grid(m: Magma, superscripts: bool) -> list[list[str]]:
    """The corner symbol and the names, then each element's name and its row of products."""
    names = superscript_names(m.names) if superscripts else list(m.names)
    return [[m.symbol] + names] + [[names[x]] + [names[v] for v in row]
                                   for x, row in enumerate(m.op.tolist())]


def render_text(m: Magma, superscripts: bool = False) -> str:
    """Aligned grid with the operation symbol in the corner and names on both edges."""
    rows = _name_grid(m, superscripts)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


def render_csv(m: Magma, superscripts: bool = False) -> str:
    """CSV with a header row and column of element names."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_name_grid(m, superscripts))
    return buf.getvalue()


def parse_csv_table(text: str) -> tuple[list[str], np.ndarray]:
    """Inverse of render_csv: recover (names, index table) from its output."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV table")
    names = rows[0][1:]
    index = {s: i for i, s in enumerate(names)}
    n = len(names)
    if len(index) != n:
        dup = next(s for s in names if names.count(s) > 1)
        raise ValueError(f"CSV header repeats element {dup!r}")
    if len(rows) != n + 1:
        raise ValueError(f"CSV table has {len(rows) - 1} rows for {n} columns")
    op = np.empty((n, n), dtype=np.int32)
    for x, row in enumerate(rows[1:]):
        if not row or row[0] != names[x] or len(row) != n + 1:
            raise ValueError(f"malformed CSV row {x + 1}")
        for y, cell in enumerate(row[1:]):
            if cell not in index:
                raise ValueError(f"CSV row {x + 1} has unknown element {cell!r}")
            op[x, y] = index[cell]
    return names, op


def structured_double(d: DoubleMagma) -> dict:
    """One document holding both operation tables of a double magma."""
    return {
        "names": list(d.names),
        "star": d.star.op.tolist(),
        "bullet": d.bullet.op.tolist(),
    }


def structured_magma(m: Magma) -> dict:
    return {"names": list(m.names), "op": m.op.tolist()}


def render_structured(obj: dict) -> str:
    """`obj` as JSON with sorted keys and two-space indents, one line per table row.

    A list whose first item is a plain value (a table row, or the names) is
    written on one line by the C encoder; only dicts and lists of lists or
    dicts are broken up.
    """
    def encode(value, pad: str) -> str:
        inner = pad + "  "
        if isinstance(value, dict) and value:
            items = [f"{inner}{json.dumps(k)}: {encode(value[k], inner)}" for k in sorted(value)]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            return "[\n" + ",\n".join(inner + encode(v, inner) for v in value) + f"\n{pad}]"
        return json.dumps(value)

    return encode(obj, "") + "\n"
