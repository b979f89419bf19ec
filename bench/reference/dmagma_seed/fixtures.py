"""Hand-transcribed reference tables used as golden expectations.

These are checked-in transcriptions (plain 'a6'-style names), not generated
data: the verification suite compares freshly built tables against them cell
for cell, so regenerating them from the code under test would be circular.
"""

from __future__ import annotations

from .magmas import DoubleMagma, Magma

# Commutation star table (x*y = [x,y]) of the dihedral group of order 16,
# elements ordered 1, a, ..., a7, b, ab, ..., a7b.
D8_NAMES = (
    "1", "a", "a2", "a3", "a4", "a5", "a6", "a7",
    "b", "ab", "a2b", "a3b", "a4b", "a5b", "a6b", "a7b",
)

D8_STAR_ROWS = (
    ("1",) * 16,
    ("1",) * 8 + ("a6",) * 8,
    ("1",) * 8 + ("a4",) * 8,
    ("1",) * 8 + ("a2",) * 8,
    ("1",) * 16,
    ("1",) * 8 + ("a6",) * 8,
    ("1",) * 8 + ("a4",) * 8,
    ("1",) * 8 + ("a2",) * 8,
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "1", "a6", "a4", "a2", "1", "a6", "a4", "a2"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a2", "1", "a6", "a4", "a2", "1", "a6", "a4"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a4", "a2", "1", "a6", "a4", "a2", "1", "a6"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a6", "a4", "a2", "1", "a6", "a4", "a2", "1"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "1", "a6", "a4", "a2", "1", "a6", "a4", "a2"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a2", "1", "a6", "a4", "a2", "1", "a6", "a4"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a4", "a2", "1", "a6", "a4", "a2", "1", "a6"),
    ("1", "a2", "a4", "a6", "1", "a2", "a4", "a6", "a6", "a4", "a2", "1", "a6", "a4", "a2", "1"),
)

# The two operation tables of the word construction W(a,b) = a*b^-1 on the
# cyclic group of order 3.
C3_NAMES = ("1", "a", "a2")

C3_STAR_ROWS = (
    ("1", "a2", "a"),
    ("a", "1", "a2"),
    ("a2", "a", "1"),
)

C3_BULLET_ROWS = (
    ("1", "a", "a2"),
    ("a2", "1", "a"),
    ("a", "a2", "1"),
)


def named_rows(magma: Magma) -> tuple[tuple[str, ...], ...]:
    """The operation table of a magma with entries rendered as element names."""
    return tuple(
        tuple(magma.names[int(v)] for v in magma.op[x]) for x in range(magma.order)
    )


def two_element_fixture() -> DoubleMagma:
    """The 2-element double magma where * is unital but • is constant.

    Star:  a*a = a, a*b = a, b*a = a, b*b = b   (b is a two-sided identity)
    Bullet: every product is a                   (a is a zero)
    """
    names = ("a", "b")
    star = Magma([[0, 0], [0, 1]], names, symbol="*")
    bullet = Magma([[0, 0], [0, 0]], names, symbol="•")
    return DoubleMagma(star, bullet, label="fixture:two-element")
