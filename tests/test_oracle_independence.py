"""The scalar and full-scan oracles share no code with the scans they check.

Every exhaustive scan runs through one walker (`tables.first_failure`) and one
verdict builder (`tables.exhaustive_verdict`), and every group or ring law is
evaluated by one runner of its lowered op list (`words.lower`, `words.run_ops`)
from one registry of builtin laws. A bug there would show in every verdict at
once, so the oracles that cross-check those verdicts, the scalar `evaluate`
among them, must reach their answers without them, or through the law
checkers that call them. The same holds for the old structure builders
and subgroup series kept in `structure_oracles`.

The two routes of the suite stay apart in the program too: the table route
(`magmas`, and the commutator doubles it scans) uses nothing of the word
language in `words`.
"""

import ast
import inspect
import textwrap

import pytest

import dmagma.constructions
import dmagma.magmas
import dmagma.words
import structure_oracles
import table_oracles
import test_rings
import word_oracles

SHARED_SCAN_PATH = {
    "first_failure", "exhaustive_verdict", "check_law_exhaustive", "check_law_sampled",
    "check_ring_law",
    # the one budget rule that admits every scan, and the table route's interchange scan
    "decide", "interchange_scan",
    # the law lowering, its op-list runner, the scan helper and the law registry,
    # which ring laws and word doubles read as well
    "lower", "Lowering", "lowering", "run_ops", "_law_scan", "scan_sampled",
    "builtin_law", "BUILTIN_LAWS", "RING_WORD_LAWS",
    # the class derivation that picks which assignments a law scan visits, the
    # orbit keys that skip prefixes conjugate to a clean one, and the op tables
    # and classes that groups and rings keep for their law scans, the ring's
    # bracket among them
    "lines", "class_reps", "orbit_keys", "law_tables", "law_classes", "bracket_table",
    # the one cellwise read of an op table: every builder, closure, series and
    # scan indexes a table at index arrays through it
    "gather",
    # the structure builders and subgroup series that `structure_oracles` checks
    "_matrix_ring_from_entries", "_permutation_group", "make_from_permutations",
    "parse_group_spec", "parse_ring_spec", "make_matrix_ring", "make_upper_triangular",
    "_grow", "_closure", "_commutator_series",
    "subgroup_closure", "normal_closure", "derived_series", "lower_central_series",
    # the unchecked term constructor, the series' generating sets and the series cache
    "_trusted", "_generators", "_derived_series", "_lower_central_series",
    # the table validation over generators that `table_oracles.cubic_ring_error` checks
    "magma_generators", "light_associative", "_generator_checks_pass", "_right_distributes",
    # the accept test of group and ring tables, and the diagnosis of a refused one
    "right_inverses", "_table_error", "_addition_error",
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


def defined_names(module) -> set[str]:
    """The names a module's own top level defines: functions, classes and assigned names."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_table_route_uses_no_word_code():
    for node in ast.walk(ast.parse(inspect.getsource(dmagma.magmas))):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("words", "dmagma.words"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(a.name != "dmagma.words" for a in node.names), ast.unparse(node)
    word_names = defined_names(dmagma.words)
    assert {"Verdict", "decide", "lower", "run_ops", "_law_scan"} & word_names == {
        "lower", "run_ops", "_law_scan"}
    c = dmagma.constructions
    for fn in (c.commutator_double, c.ring_commutator_double, c._double):
        assert not referenced_names(fn) & word_names, fn.__name__


@pytest.mark.parametrize("obj", [
    dmagma.constructions.commutator_double, dmagma.constructions.ring_commutator_double,
    dmagma.constructions._double, dmagma.magmas,
], ids=lambda o: o.__name__)
def test_the_table_route_reads_no_law_scan_table(obj):
    # the tables and classes kept for law scans, the ring's bracket among them,
    # feed only the word route
    assert not referenced_names(obj) & {"law_tables", "law_classes", "bracket_table"}
