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

import dmagma.cli
import dmagma.groups
from dmagma.groups import (
    SubgroupSet,
    derived_series,
    derived_subgroup,
    is_metabelian,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    parse_group_spec,
    subgroup_closure,
)
from dmagma.rings import parse_ring_spec
from dmagma.suite import DEFAULT_GROUPS, DEFAULT_RINGS
from structure_oracles import (
    composed_permutation_group,
    dihedral_oracle,
    heisenberg_oracle,
    metacyclic_oracle,
    perm_oracle,
    product_oracle,
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


def _formula_oracle(spec):
    """(mul, names) of a cyclic, dihedral, metacyclic, heisenberg or product spec, cell by cell."""
    head, _, args = spec.partition(":")
    if head == "product":  # try each comma as the split between the two factor specs
        for cut in (i for i, c in enumerate(args) if c == ","):
            try:
                return product_oracle(_formula_oracle(args[:cut]), _formula_oracle(args[cut + 1:]))
            except (KeyError, TypeError, ValueError):
                continue
        raise ValueError(f"no split of {spec!r} into two factor specs")
    numbers = [int(a) for a in args.split(",")]
    return {
        "cyclic": lambda k: metacyclic_oracle(k, 1, 1),  # a cyclic group is metacyclic with n = 1
        "dihedral": dihedral_oracle,
        "metacyclic": metacyclic_oracle,
        "heisenberg": heisenberg_oracle,
    }[head](*numbers)


FORMULA_SPECS = [s for s in GROUP_SPECS if not s.startswith("perm:") and "perm:" not in s] + [
    "dihedral:2", "metacyclic:9,6,2", "heisenberg:2", "product:heisenberg:3,dihedral:4",
    "product:cyclic:1,cyclic:5", "product:product:cyclic:2,cyclic:3,dihedral:3",
]


@pytest.mark.parametrize("spec", FORMULA_SPECS)
def test_arithmetic_tables_match_the_scalar_formula_oracles(spec):
    _same_group_tables(parse_group_spec(spec), *_formula_oracle(spec))


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


@pytest.mark.parametrize("spec", ["dihedral:16", "perm:(1 2),(1 2 3 4)", "dihedral:256",
                                  "product:heisenberg:3,perm:(1 2),(1 2 3 4)"])
def test_cached_series_match_the_set_oracles_in_either_order(spec):
    derived_first, lower_first = parse_group_spec(spec), parse_group_spec(spec)
    want = set_derived_series(derived_first), set_lower_central_series(derived_first)
    got = [t.members for t in derived_series(derived_first)], [
        t.members for t in lower_central_series(derived_first)]
    assert got == want
    lower = [t.members for t in lower_central_series(lower_first)]
    assert ([t.members for t in derived_series(lower_first)], lower) == want
    for g in (derived_first, lower_first):  # the cached series answer the derived facts too
        assert derived_subgroup(g).members == want[0][min(1, len(want[0]) - 1)]
        assert nilpotency_class(g) == (len(want[1]) - 1 if want[1][-1] == {0} else None)
        assert is_metabelian(g) == (len(want[0]) <= 3 and want[0][-1] == {0})


def test_mutating_a_returned_series_leaves_the_cache_alone():
    g = parse_group_spec("dihedral:8")
    want = set_derived_series(g), set_lower_central_series(g)
    for series in (derived_series, lower_central_series):
        returned = series(g)
        returned.append(returned[0])
        returned[0] = returned[-2]
        returned.reverse()
        del returned[1:]
    assert ([t.members for t in derived_series(g)],
            [t.members for t in lower_central_series(g)]) == want
    assert derived_subgroup(g).members == want[0][1] and nilpotency_class(g) == 3


def test_group_command_computes_each_series_once(monkeypatch, capsys):
    calls = []
    real = dmagma.groups._commutator_series

    def counted(g, terms, right):
        calls.append(len(terms))
        return real(g, terms, right)

    monkeypatch.setattr(dmagma.groups, "_commutator_series", counted)
    assert dmagma.cli.main(["group", "dihedral:512"]) == 0
    out = capsys.readouterr().out
    assert "lower central series sizes: 1024, 256, 128, 64, 32, 16, 8, 4, 2, 1" in out
    assert calls == [1, 2]  # the derived series from G, the lower central one from G, G'


@given(perm_groups)
@settings(max_examples=40, deadline=None)
def test_series_from_few_generators_match_the_set_oracles(g):
    # Small steps pair every member; force the generator path.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmagma.groups, "_ALL_MEMBERS_BELOW", 0)
        _check_series(g)


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
