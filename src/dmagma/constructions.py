"""Build double magmas from groups and rings.

Three constructions:
  * commutator_double(G): x*y = [x,y], x•y = [y,x]
  * word_double(G, W):    x*y = W(x,y), x•y = W(y,x) for any 2-variable word
  * ring_commutator_double(R): x*y = <x,y>, x•y = <y,x>
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .magmas import DoubleMagma, Magma
from .rings import FiniteRing
from .tables import flat_cells
from .words import Term, free_variables, lower, parse_term, run_ops

WORD_VARIABLES = ("a", "b")


@dataclass(frozen=True)
class WordPair:
    """A 2-variable word W(a, b); the two slots give x*y = W(x,y) and x•y = W(y,x)."""

    term: Term

    def __post_init__(self):
        for v in free_variables(self.term):
            if v not in WORD_VARIABLES:
                raise ValueError(
                    f"word uses variable '{v}'; only 'a' and 'b' are allowed"
                )


def _double(star_table: np.ndarray, names, label: str) -> DoubleMagma:
    star = Magma(star_table, names, symbol="*")
    bullet = Magma(star_table.T, names, symbol="•")  # as_table makes the one copy
    return DoubleMagma(star, bullet, label=label)


def commutator_double(g: FiniteGroup) -> DoubleMagma:
    """Double magma with x*y = [x,y] and x•y = [y,x] on the carrier of G."""
    n, flat = g.order, g.mul.reshape(-1)
    left = np.take(g.mul[g.inv], g.inv, axis=1)  # x^-1 y^-1
    star = flat.take(flat_cells(left, g.mul, n))  # (x^-1 y^-1)(xy)
    return _double(star, g.names, label=f"commutator({g.label})")


def word_double(g: FiniteGroup, word: WordPair | Term | str) -> DoubleMagma:
    """Double magma with x*y = W(x,y) and x•y = W(y,x)."""
    if isinstance(word, str):
        word = WordPair(parse_term(word))
    elif isinstance(word, Term):
        word = WordPair(word)
    n = g.order
    idx = np.arange(n)
    axes = {"a": idx[:, None], "b": idx[None, :]}  # one broadcast axis per variable
    low = lower(word.term)
    star = run_ops(low, g.law_tables, [axes[v] for v in low.variables])[0]
    star = np.broadcast_to(star, (n, n))
    return _double(star, g.names, label=f"word({g.label})")


def ring_commutator_double(r: FiniteRing) -> DoubleMagma:
    """Double magma with x*y = <x,y> = xy - yx and x•y = <y,x>.

    Built as xy + (-y)x, apart from the `r.bracket_table()` the ring laws scan.
    """
    star = r.add.reshape(-1).take(flat_cells(r.mul, r.mul[r.neg].T, r.order))  # [x, y] -> xy + (-y)x
    return _double(star, r.names, label=f"ring-commutator({r.label})")
