"""The scalar and full-scan oracles share no code with the scans they check.

Every exhaustive scan runs through one walker (`tables.first_failure`) and one
verdict builder (`words.exhaustive_verdict`), and every group or ring law is
evaluated by one runner of its lowered op list (`words.lower`, `words.run_ops`)
from one registry of builtin laws. A bug there would show in every verdict at
once, so the oracles that cross-check those verdicts, the scalar `evaluate`
among them, must reach their answers without them, or through the law
checkers that call them. The same holds for the old structure builders
and subgroup series kept in `structure_oracles`.
"""

import ast
import inspect
import textwrap

import pytest

import dmagma.words
import structure_oracles
import table_oracles
import test_rings
import word_oracles

SHARED_SCAN_PATH = {
    "first_failure", "exhaustive_verdict", "check_law_exhaustive", "check_law_sampled",
    "check_ring_law",
    # the law lowering, its op-list runner, the scan helper and the law registry,
    # which ring laws and word doubles read as well
    "lower", "Lowering", "lowering", "run_ops", "_law_scan", "_word_tables", "scan_sampled",
    "builtin_law", "BUILTIN_LAWS", "RING_WORD_LAWS",
    # the class derivation that picks which assignments a law scan visits
    "lines", "class_reps",
    # the flat-take kernel of every scan, closure and series
    "gather",
    # the structure builders and subgroup series that `structure_oracles` checks
    "_matrix_ring_from_entries", "_permutation_group", "make_from_permutations",
    "parse_group_spec", "parse_ring_spec", "make_matrix_ring", "make_upper_triangular",
    "_grow", "_closure", "_commutator_series",
    "subgroup_closure", "normal_closure", "derived_series", "lower_central_series",
    # the unchecked term constructor, the series' generating sets and the series cache
    "_trusted", "_generators", "_derived_series", "_lower_central_series",
}

ORACLES = (
    dmagma.words.evaluate,
    table_oracles,
    structure_oracles,
    word_oracles.naive_check,
    word_oracles.formula_eval,
    word_oracles.flat_index_scan,
    word_oracles.stream_scan,
    test_rings._scalar_ring_law,
    test_rings._scalar_ring_scan,
    test_rings._scalar_ring_stream,
)


def referenced_names(obj) -> set[str]:
    """Every identifier, attribute, imported name and string constant in the source of obj."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.__name__)
def test_oracle_does_not_use_the_scan_path_it_checks(oracle):
    assert not referenced_names(oracle) & SHARED_SCAN_PATH
