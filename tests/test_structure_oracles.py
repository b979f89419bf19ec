"""The vectorised structure builders and subgroup series against their old code.

`structure_oracles` keeps the builders as they were before they were
vectorised. Every table, name and member set must come out identical on the
default corpus, on every structure the benchmark workloads build, and on
random permutation groups.
"""

import importlib.util
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dmagma.groups import (
    SubgroupSet,
    derived_series,
    lower_central_series,
    normal_closure,
    parse_group_spec,
    subgroup_closure,
)
from dmagma.rings import parse_ring_spec
from dmagma.suite import DEFAULT_GROUPS, DEFAULT_RINGS
from structure_oracles import (
    composed_permutation_group,
    perm_oracle,
    ring_oracle,
    set_closure_error,
    set_derived_series,
    set_lower_central_series,
    set_normal_closure,
    set_subgroup_closure,
)
from test_properties import perm_generators, perm_groups, perm_spec


def _workload_specs():
    """The group and ring specs of the benchmark's `law-queries` and `large-structures` workloads."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return (workloads.LAW_GROUPS + workloads.LARGE_GROUPS,
            workloads.LAW_RINGS + workloads.LARGE_RINGS)


_WORKLOAD_GROUPS, _WORKLOAD_RINGS = _workload_specs()
GROUP_SPECS = sorted(set(DEFAULT_GROUPS + _WORKLOAD_GROUPS))
RING_SPECS = sorted(set(DEFAULT_RINGS + _WORKLOAD_RINGS))
EXTRA_PERMS = (
    "perm:(1 2),(1 2 3 4 5 6)",  # S6, order 720
    "perm:(3 5)(2 7 9),(1 4)",  # points 6 and 8 unwritten
    "perm:(2 10),(10 30 20)",
    "perm:",
)
EXTRA_RINGS = ("matrix:3,2", "uppertri:3,3", "matrix:1,5", "uppertri:1,1", "matrix:1,1")


def _same_group_tables(g, mul, names):
    assert g.mul.tobytes() == np.asarray(mul, dtype=np.int32).tobytes()
    assert list(g.names) == list(names)


@pytest.mark.parametrize("spec", [s for s in GROUP_SPECS if s.startswith("perm:")] + list(EXTRA_PERMS))
def test_perm_tables_match_the_composition_oracle(spec):
    _same_group_tables(parse_group_spec(spec), *perm_oracle(spec))


@pytest.mark.parametrize("spec", [s for s in RING_SPECS if not s.startswith("zmod:")]
                         + list(EXTRA_RINGS))
def test_matrix_ring_tables_match_the_einsum_oracle(spec):
    r = parse_ring_spec(spec)
    add, mul, names = ring_oracle(spec)
    assert r.add.tobytes() == add.astype(np.int32).tobytes()
    assert r.mul.tobytes() == mul.astype(np.int32).tobytes()
    assert list(r.names) == names


@given(perm_generators)
@settings(max_examples=40, deadline=None)
def test_random_perm_tables_match_the_composition_oracle(gens):
    _same_group_tables(parse_group_spec(perm_spec(gens)), *composed_permutation_group(gens))


def _check_series(g):
    assert [t.members for t in derived_series(g)] == set_derived_series(g)
    assert [t.members for t in lower_central_series(g)] == set_lower_central_series(g)


# Series at the order budget: S6 is not solvable, the lower central series of
# dihedral:512 has 10 terms, and the product (order 648) has derived length 3
# and is not nilpotent.
SERIES_EXTRA = EXTRA_PERMS + ("dihedral:512", "product:heisenberg:3,perm:(1 2),(1 2 3 4)")


@pytest.mark.parametrize("spec", GROUP_SPECS + list(SERIES_EXTRA))
def test_series_match_the_set_oracles(spec):
    _check_series(parse_group_spec(spec))


@given(perm_groups, st.data())
@settings(max_examples=40, deadline=None)
def test_random_series_and_closures_match_the_set_oracles(g, data):
    _check_series(g)
    seed = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    assert subgroup_closure(g, seed).members == set_subgroup_closure(g, seed)
    assert normal_closure(g, seed).members == set_normal_closure(g, seed)


@given(perm_groups, st.data())
@settings(max_examples=60, deadline=None)
def test_subgroup_set_accepts_exactly_what_the_set_check_accepts(g, data):
    members = frozenset(data.draw(st.sets(st.integers(0, g.order - 1))) | {0})
    want = set_closure_error(g, members)
    if want is None:
        assert SubgroupSet(members, g).members == members
    else:
        with pytest.raises(ValueError) as err:
            SubgroupSet(members, g)
        assert str(err.value) == want


def test_subgroup_set_rejects_a_missing_product_or_inverse():
    g = parse_group_spec("dihedral:4")
    a, b = g.index_of("a"), g.index_of("b")
    rotations = subgroup_closure(g, [a]).members
    # closed under inverses (b is an involution), but a*b is missing
    missing_product = rotations | {b}
    # a's inverse a3 is missing
    missing_inverse = frozenset({0, a, g.index_of("a2")})
    for members in (missing_product, missing_inverse):
        want = set_closure_error(g, members)
        assert want == "member set is not closed under product and inverse"
        with pytest.raises(ValueError, match=f"^{want}$"):
            SubgroupSet(members, g)
