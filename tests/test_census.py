"""A census of theorem 1.6 and its corollaries over small permutation groups.

Every distinct subgroup of S_k, k = 4 and 5, that one cycle-type
representative and one other permutation generate is built as a `perm:` spec
and keyed by its element names. `check_theorem_1_6`, `check_cor_1_7` and
`check_cor_1_8` run on each over one `GroupFacts`; each compares the word-law
route with the table route, so a fast path that breaks either route fails a
check on some group. The counts per verdict class and the specs refused by the
evaluation budget, with their refusal texts, are pinned in
`census_expected.json`. The refused count is the reach a budget change may
lower and must never raise.
"""

import itertools
import json
import time
from pathlib import Path

from dmagma.errors import BudgetExceededError
from dmagma.groups import parse_group_spec
from dmagma.suite import GroupFacts, check_cor_1_7, check_cor_1_8, check_theorem_1_6

EXPECTED = json.loads((Path(__file__).parent / "census_expected.json").read_text())
CHECKS = (check_theorem_1_6, check_cor_1_7, check_cor_1_8)


def partitions(k: int, smallest: int = 1):
    """The partitions of k into parts >= `smallest`, parts ascending, in lexicographic order."""
    if k == 0:
        yield ()
    for part in range(smallest, k + 1):
        for rest in partitions(k - part, part):
            yield (part, *rest)


def cycle_type_representative(parts) -> tuple[int, ...]:
    """The images of 1..k of the permutation with cycles of lengths `parts` on consecutive points."""
    images, start = [], 1
    for length in parts:
        images += [start + (i + 1) % length for i in range(length)]
        start += length
    return tuple(images)


def cycle_notation(images) -> str:
    """A permutation, given by the images of 1..k, in cycle notation; "(1)" for the identity."""
    seen, cycles = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x))
            x = images[x - 1]
        cycles.append("(" + " ".join(cycle) + ")")
    return "".join(cycles) or "(1)"


def census(k: int) -> list:
    """(spec, group) for each distinct group <r, p>, r a cycle-type representative of S_k and p != r.

    Groups are keyed by their element names; the first spec found is kept,
    with the cycle types in the order of `partitions` and p in lexicographic
    order of its images.
    """
    found: dict = {}
    for parts in partitions(k):
        rep = cycle_type_representative(parts)
        for other in itertools.permutations(range(1, k + 1)):
            if other != rep:
                spec = f"perm:{cycle_notation(rep)},{cycle_notation(other)}"
                g = parse_group_spec(spec)
                found.setdefault(frozenset(g.names), (spec, g))
    return list(found.values())


def test_census_of_the_subgroups_of_s4_and_s5():
    start = time.process_time()
    for k in (4, 5):
        groups, failed, refused = census(k), [], {}
        counts = dict.fromkeys(("passed", "three_metabelian", "not_three_metabelian"), 0)
        for spec, g in groups:
            facts = GroupFacts(g, budget=10**8)
            try:
                results = [check(facts, spec) for check in CHECKS]
            except BudgetExceededError as e:
                refused[spec] = str(e)
                continue
            failed += [r.headline() for r in results if not r.passed]
            counts["passed"] += all(r.passed for r in results)
            counts["three_metabelian" if facts.law("3M_I").holds else "not_three_metabelian"] += 1
        assert failed == [], k
        assert {"groups": len(groups), **counts, "refused": refused} == EXPECTED[str(k)]
    assert time.process_time() - start < 2  # CPU seconds, so a busy machine does not fail it
