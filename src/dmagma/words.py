"""Commutator-word language: syntax trees, parsing, evaluation, law checking.

Grammar (tightest binding last):

    law     := term "=" term
    term    := product
    product := factor { ("*")? factor }            left-associative
    factor  := primary [ "^" (signedInt | primary) ]
    primary := ident | "1" | "(" term ")"
             | "[" term {"," term} [";" term {"," term}] "]"

After "^" an integer always wins the tie, so a^-1 is inversion and a^b is
conjugation. Comma lists inside brackets nest to the left, [x,y,z] = [[x,y],z],
and the semicolon form is [u...; v...] = [leftnest(u), leftnest(v)]. The only
constant is "1", the identity. Syntax trees deeper than MAX_DEPTH are a
ParseError.

Laws are lowered to op lists, powers squared by products (`lower`). Every law
scan, of a group or a ring, reads one interface (`_law_scan`): `law_tables`,
the read-only intp op table of every node type the structure offers, built by
the structure itself on its first law scan, and `law_classes`, kept on it from
then on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import ParseError, SpecError, UnboundVariableError
from .tables import DEFAULT_EVAL_BUDGET, Verdict, class_reps, decide, gather, scan_sampled

if TYPE_CHECKING:
    from .groups import FiniteGroup

MAX_EXPONENT = 32
# Deepest syntax tree a law may have; evaluating and printing terms recurses
# once per level, so this keeps every consumer far from Python's stack limit.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


class Term:
    """Base class for word syntax nodes. Nodes are frozen and compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Variable(Term):
    name: str


@dataclass(frozen=True)
class IdentityLiteral(Term):
    pass


@dataclass(frozen=True)
class Inverse(Term):
    base: Term


@dataclass(frozen=True)
class Product(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class IntPower(Term):
    base: Term
    exponent: int


@dataclass(frozen=True)
class Conjugate(Term):
    base: Term
    by: Term


@dataclass(frozen=True)
class Bracket(Term):
    left: Term
    right: Term


def _children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Inverse, IntPower)):
        return (t.base,)
    if isinstance(t, (Product, Bracket)):
        return (t.left, t.right)
    if isinstance(t, Conjugate):
        return (t.base, t.by)
    return ()


def _term_depth(term: Term) -> int:
    """Height of the syntax tree (a variable has depth 1), without recursion."""
    deepest, stack = 0, [(term, 1)]
    while stack:
        t, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in _children(t))
    return deepest


def free_variables(term: Term) -> list[str]:
    """Free variable names in first-appearance (depth-first, left-first) order."""
    return list(lower(term).variables)


@dataclass(frozen=True)
class Law:
    """An equation between two terms, quantified over all assignments.

    Its variables and its `lowering` are computed once, from the two terms.
    """

    lhs: Term
    rhs: Term
    variables: tuple[str, ...] = field(init=False)
    lowering: Lowering = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        low = lower(self.lhs, self.rhs)
        object.__setattr__(self, "variables", low.variables)
        object.__setattr__(self, "lowering", low)

    def __str__(self):
        return f"{to_string(self.lhs)}={to_string(self.rhs)}"


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lowering:
    """Terms lowered to one op list in evaluation order (`lower`).

    Op i = (kind, a, b) fills slot i: variable a, the identity, the inverse of
    slot a, or slots a and b combined. `lines` maps each variable to the
    (node type, axis) lines it is read through, a bracket's or conjugate's
    row (axis 0) or column (axis 1), or to None when some op or root reads
    it whole.
    """

    variables: tuple[str, ...]
    ops: tuple[tuple, ...]
    roots: tuple[int, ...]
    lines: Mapping[str, frozenset | None]


def lower(*terms: Term) -> Lowering:
    """Lower `terms` into one op list, without recursion.

    Variables are numbered in first-appearance (depth-first, left-first) order.
    Equal ops, compared as tuples of slots and never as trees, share one slot.
    """
    names: dict[str, int] = {}
    slots: dict[tuple, int] = {}  # op -> its slot, in evaluation order

    def emit(op: tuple) -> int:
        return slots.setdefault(op, len(slots))

    roots, done = [], []  # done: the slots of the finished subterms, left to right
    for term in terms:
        # root, right, left preorder, reversed: children before parents, left first
        order, stack = [], [term]
        while stack:
            t = stack.pop()
            order.append(t)
            stack.extend(_children(t))
        for t in reversed(order):
            if isinstance(t, Variable):
                op = (Variable, names.setdefault(t.name, len(names)), None)
            elif isinstance(t, IdentityLiteral):
                op = (IdentityLiteral, None, None)
            elif isinstance(t, (Product, Bracket, Conjugate)):
                b = done.pop()
                op = (type(t), done.pop(), b)
            elif isinstance(t, Inverse):
                op = (Inverse, done.pop(), None)
            elif isinstance(t, IntPower):
                k, cur, acc = t.exponent, done.pop(), None
                if k < 0:
                    cur, k = emit((Inverse, cur, None)), -k
                while k:  # square and multiply; a negative power inverts first, x^0 is 1
                    if k & 1:
                        acc = cur if acc is None else emit((Product, acc, cur))
                    k >>= 1
                    if k:
                        cur = emit((Product, cur, cur))
                done.append(emit((IdentityLiteral, None, None)) if acc is None else acc)
                continue
            else:
                raise TypeError(f"not a term: {t!r}")
            done.append(emit(op))
        roots.append(done.pop())

    variables, ops = tuple(names), tuple(slots)
    reads = [(r, None) for r in roots]  # (slot, line) of every argument and root
    for kind, a, b in ops:
        if kind in (Bracket, Conjugate):
            reads += [(a, (kind, 0)), (b, (kind, 1))]
        elif kind not in (Variable, IdentityLiteral):
            reads += [(s, None) for s in (a, b) if s is not None]
    lines = dict.fromkeys(variables, frozenset())
    for s, line in reads:
        if ops[s][0] is Variable:
            v = variables[ops[s][1]]
            lines[v] = None if line is None or lines[v] is None else lines[v] | {line}
    return Lowering(variables, ops, tuple(roots), lines)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_SYMBOLS = set("*^()[],;=-+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # open "(" and "[" groups, which the parser recurses on

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, pos = self.peek()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val or 'end of input'!r}", pos)
        self.advance()

    def at_primary(self) -> bool:
        kind, val, _ = self.peek()
        return kind in ("ident", "int") or (kind == "sym" and val in "([")

    def term(self) -> Term:
        t = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.advance()
                t = Product(t, self.factor())
            elif self.at_primary():
                t = Product(t, self.factor())
            else:
                return t

    def factor(self) -> Term:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.advance()
            return self.exponent(base)
        return base

    def exponent(self, base: Term) -> Term:
        kind, val, pos = self.peek()
        sign = 1
        if kind == "sym" and val in "+-":
            sign = -1 if val == "-" else 1
            self.advance()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent after the sign", pos)
        if kind == "int":
            self.advance()
            digits = val.lstrip("0") or "0"
            # a literal longer than MAX_EXPONENT is refused before int() reads it
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                shown = digits if len(digits) <= 12 else f"{digits[:12]}... ({len(digits)} digits)"
                raise ParseError(f"power exponent {'-' * (sign < 0)}{shown} out of range "
                                 f"+-{MAX_EXPONENT}", pos)
            k = sign * int(digits)
            if k == -1:
                return Inverse(base)
            return IntPower(base, k)
        if self.at_primary():
            return Conjugate(base, self.primary())
        raise ParseError("expected an integer or a primary term after '^'", pos)

    def primary(self) -> Term:
        kind, val, pos = self.advance()
        if kind == "ident":
            return Variable(val)
        if kind == "int":
            if val == "1":
                return IdentityLiteral()
            raise ParseError(f"'{val}' is not a term; the only constant is the identity '1'", pos)
        if kind == "sym" and val in "([":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise ParseError(f"terms nest deeper than {MAX_DEPTH} levels", pos)
            if val == "(":
                t = self.term()
                self.expect_sym(")")
            else:
                t = self.bracket(pos)
            self.nesting -= 1
            return t
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", pos)

    def whole_term(self) -> Term:
        """A term whose syntax tree is at most MAX_DEPTH deep."""
        pos = self.peek()[2]
        t = self.term()
        if _term_depth(t) > MAX_DEPTH:
            raise ParseError(f"term nests deeper than {MAX_DEPTH} levels", pos)
        return t

    def bracket(self, open_pos: int) -> Term:
        left = [self.term()]
        while self.peek()[:2] == ("sym", ","):
            self.advance()
            left.append(self.term())
        right: list[Term] | None = None
        if self.peek()[:2] == ("sym", ";"):
            self.advance()
            right = [self.term()]
            while self.peek()[:2] == ("sym", ","):
                self.advance()
                right.append(self.term())
        self.expect_sym("]")
        if right is None:
            if len(left) < 2:
                raise ParseError("a bracket needs at least two comma-separated terms", open_pos)
            return _left_nest(left)
        return Bracket(_left_nest(left), _left_nest(right))


def _left_nest(terms: list[Term]) -> Term:
    t = terms[0]
    for u in terms[1:]:
        t = Bracket(t, u)
    return t


def parse_term(text: str) -> Term:
    """Parse a single word; raises ParseError with a position on bad input."""
    if not text.strip():
        raise ParseError("empty input")
    p = _Parser(text)
    t = p.whole_term()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return t


@lru_cache(maxsize=256)
def parse_law(text: str) -> Law:
    """Parse 'lhs = rhs' into a Law; exactly one top-level '=' is required.

    Laws are immutable, so a text parsed again returns the same Law, with the
    lowering it already holds (`Law.lowering`).
    """
    if not text.strip():
        raise ParseError("empty input")
    p = _Parser(text)
    lhs = p.whole_term()
    kind, val, pos = p.peek()
    if kind != "sym" or val != "=":
        raise ParseError("a law needs '=' between two terms", pos)
    p.advance()
    rhs = p.whole_term()
    kind, val, pos = p.peek()
    if kind == "sym" and val == "=":
        raise ParseError("a law must contain exactly one '='", pos)
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return Law(lhs, rhs)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def to_string(term: Term) -> str:
    """Render a term so that parsing the output rebuilds the identical tree."""
    return _s_term(term)


def _s_term(t: Term) -> str:
    if isinstance(t, Product):
        return f"{_s_term(t.left)}*{_s_factor(t.right)}"
    return _s_factor(t)


def _s_factor(t: Term) -> str:
    if isinstance(t, Inverse):
        return f"{_s_primary(t.base)}^-1"
    if isinstance(t, IntPower):
        return f"{_s_primary(t.base)}^{t.exponent}"
    if isinstance(t, Conjugate):
        # parenthesize an identity conjugator: bare "1" after ^ would reparse
        # as the integer exponent 1
        by = "(1)" if isinstance(t.by, IdentityLiteral) else _s_primary(t.by)
        return f"{_s_primary(t.base)}^{by}"
    return _s_primary(t)


def _s_primary(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, IdentityLiteral):
        return "1"
    if isinstance(t, Bracket):
        return f"[{_s_term(t.left)},{_s_term(t.right)}]"
    return f"({_s_term(t)})"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(term: Term, group: FiniteGroup, assignment: Mapping[str, int]) -> int:
    """Evaluate one assignment with scalar table lookups."""
    mul, inv = group.mul, group.inv
    if isinstance(term, Variable):
        try:
            return int(assignment[term.name])
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, IdentityLiteral):
        return group.identity
    if isinstance(term, Inverse):
        return int(inv[evaluate(term.base, group, assignment)])
    if isinstance(term, Product):
        return int(mul[evaluate(term.left, group, assignment), evaluate(term.right, group, assignment)])
    if isinstance(term, Conjugate):
        x = evaluate(term.base, group, assignment)
        y = evaluate(term.by, group, assignment)
        return int(mul[mul[inv[y], x], y])
    if isinstance(term, Bracket):
        x = evaluate(term.left, group, assignment)
        y = evaluate(term.right, group, assignment)
        return int(mul[mul[inv[x], inv[y]], mul[x, y]])
    if isinstance(term, IntPower):
        return group.power(evaluate(term.base, group, assignment), term.exponent)
    raise TypeError(f"not a term: {term!r}")


def run_ops(low: Lowering, tables: dict[type, np.ndarray], axes) -> list[np.ndarray]:
    """Evaluate lowered terms on broadcast index arrays, one per variable.

    Returns one array per root. `tables` maps each node type the ops read
    to its op table (a structure's `law_tables`): a product or bracket table
    is read at two slots, an inverse list at one, and the identity is a 0-d
    array. A ring law reads (R,+) this way, with the Lie bracket table as
    `tables[Bracket]`.
    """
    vals = []
    for kind, a, b in low.ops:
        if kind is Variable:
            vals.append(axes[a])
        elif kind is IdentityLiteral:
            vals.append(tables[kind])
        elif b is None:  # an inverse, one lookup
            vals.append(tables[kind].take(vals[a]))
        else:
            vals.append(gather(tables[kind], vals[a], vals[b]))
    return [vals[r] for r in low.roots]


# ---------------------------------------------------------------------------
# law checking
# ---------------------------------------------------------------------------


def _law_scan(law: Law, structure):
    """(reps, failing, conjugates) of every law scan, as `tables.decide` takes them.

    `structure` is a group, or a ring read as (R,+) with its Lie bracket.
    `failing(axes)` is lhs != rhs, by `run_ops` on `structure.law_tables`.
    Elements whose lines (`Lowering.lines`) all agree give equal law values,
    so each variable scans the smallest element of each class
    (`tables.class_reps`), kept in `structure.law_classes`. The first failure
    is a tuple of representatives (see `tables`), so the witness and position
    are those of the full grid. `conjugates` is the structure's conjugate
    table, by which `tables.first_failure` skips prefixes: a group's, and
    None for a ring, whose tables hold none.
    """
    low = law.lowering
    tables = structure.law_tables
    reps = class_reps(tables, low.lines.values(), structure.order, structure.law_classes)

    def failing(axes):
        lhs, rhs = run_ops(low, tables, axes)
        return lhs != rhs

    return reps, failing, tables.get(Conjugate)


def check_law_exhaustive(group: FiniteGroup, law: Law, budget: int = DEFAULT_EVAL_BUDGET) -> Verdict:
    """Scan every assignment in lexicographic element order, first variable
    most significant, if the n^k of them fit `budget` (`tables.decide`).

    Only one representative per class of elements the law cannot tell apart
    is visited (`_law_scan`), and prefixes conjugate to one already scanned
    clean are skipped (`tables.first_failure`); the witness and `evaluations`
    are those of the full n^k scan.
    """
    return decide(law.variables, group.names, budget, lambda total: (
        f"law {law} over order {group.order} needs {total} evaluations "
        f"(budget {budget}); use check_law_sampled"), partial(_law_scan, law, group))


def check_law_sampled(group: FiniteGroup, law: Law, count: int, seed: int) -> Verdict:
    """Check `count` seeded pseudo-random assignments (`tables.scan_sampled`).

    A found counterexample is definitive; a clean pass is evidence, not proof.
    A `holds-sampled` verdict may be settled on the grid of class
    representatives without drawing the stream; it still means that the
    `count` seeded rows all hold, and nothing more.
    """
    reps, failing, conjugates = _law_scan(law, group)
    return scan_sampled(law.variables, group.names, failing, count, seed, reps, conjugates)


# ---------------------------------------------------------------------------
# built-in laws
# ---------------------------------------------------------------------------

BUILTIN_LAWS: dict[str, str] = {
    "3M_I": "[x,y;x,z]=1",
    "3M_II": "[x,y;y,z]=1",
    "3M_III": "[x,y;[x,z]^u]=1",
    "L1": "[x,y,z;x,u]=1",
    "L2": "[x,y;x,u,v]=1",
    "L3": "[x,y,z;x,u,v]=1",
    "CI": "[w,x;y,z]=[w,y;x,z]",
    "PAIR": "[w,x;y,z][w,y;x,z]=1",
    "SQUARE": "[w,x;y,z]^2=1",
    "JACOBI": "[x,y,z][y,z,x][z,x,y]=1",
    "ASSOC_COMM": "[x,y,z][y,z,x]=1",
    "COMM_SQ": "[x,y]^2=1",
    "CLASS2": "[x,y,z]=1",
}


def builtin_law(name: str) -> Law:
    """Look up a named law from the registry; `parse_law` returns the same Law each time."""
    try:
        return parse_law(BUILTIN_LAWS[name])
    except KeyError:
        known = ", ".join(sorted(BUILTIN_LAWS))
        raise SpecError(f"unknown law name {name!r}; known laws: {known}") from None
