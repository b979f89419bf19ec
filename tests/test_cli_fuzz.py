"""In-process CLI fuzz: drawn `group`, `law`, `ring` and `magma` argv never crash.

Each argv is drawn from the group and ring spec grammars and the law grammar,
with huge, negative and malformed numbers mixed into specs, exponents, seeds,
sample counts and budgets, and runs through `cli.main`. Whatever it is, the
exit code is 0, 1 or 2 (argparse's own refusals exit 2 too) and stderr never
reports an internal error. Budgets and sample counts stay at most 10^6, and
the spec numbers a valid spec can use stay small, so every drawn run ends in
milliseconds; the huge values go where they must be refused.
"""

import contextlib
import io

import hypothesis.strategies as st
from hypothesis import given, settings

from dmagma.cli import main
from dmagma.rings import RING_LAWS
from dmagma.words import BUILTIN_LAWS

HUGE = str(10**30)


def _mostly(valid, invalid):
    """Each valid value four times as likely as each invalid one."""
    return st.sampled_from([*valid * 4, *invalid])


spec_numbers = _mostly([str(i) for i in range(1, 6)], ["0", "-1", HUGE, "", "x", "²", "0x10"])
flag_numbers = _mostly(["1", "2", "7", "100", "1000"], ["-7", "-1", "0", "²", "1e3"])
seeds = _mostly(["0", "1", "7", HUGE], ["-7", "-1", "x"])
budgets = _mostly(["0", "1", "1000", "1000000"], ["-1", "3.0"])


def _joined(parts, sep, fmt="{}"):
    return st.lists(parts, min_size=1, max_size=3).map(lambda xs: fmt.format(sep.join(xs)))


_cycles = _joined(_joined(spec_numbers, " ", "({})"), "")
group_specs = st.recursive(
    st.one_of(
        st.builds("cyclic:{}".format, spec_numbers),
        st.builds("dihedral:{}".format, spec_numbers),
        st.builds("metacyclic:{},{},{}".format, spec_numbers, spec_numbers, spec_numbers),
        st.builds("heisenberg:{}".format, spec_numbers),
        _joined(_cycles, ",", "perm:{}"),
        st.text("cyclic:perm(),0123456789 ²-", max_size=12),
    ),
    lambda sub: st.builds("product:{},{}".format, sub, sub),
    max_leaves=2,
)
ring_specs = st.one_of(
    st.builds("zmod:{}".format, spec_numbers),
    st.builds("matrix:{},{}".format, spec_numbers, spec_numbers),
    st.builds("uppertri:{},{}".format, spec_numbers, spec_numbers),
    st.text("zmodatrix:,0123456789 ²-", max_size=12),
)


def _terms(names):
    exponents = _mostly(["2", "-1", "-3", "0", "32"], ["33", HUGE, "²", "+", "-"])
    return st.recursive(
        st.one_of(st.sampled_from(names), st.just("1")),
        lambda sub: st.one_of(
            st.builds("{}*{}".format, sub, sub),
            st.builds("{} {}".format, sub, sub),
            st.builds("({})".format, sub),
            st.builds("({})^{}".format, sub, st.one_of(exponents, sub)),
            st.builds("[{},{}]".format, sub, sub),
            st.builds("[{},{};{}]".format, sub, sub, sub),
        ),
        max_leaves=6,
    )


laws = st.one_of(
    st.sampled_from([*BUILTIN_LAWS, "NOPE"]),
    st.builds("{}={}".format, _terms(["x", "y", "z", "u"]), _terms(["x", "y", "z", "u"])),
    st.text("xy[],;=^-*() 12²", max_size=16),
)
# a spec with its construction, or with one that does not fit it
doubles = st.one_of(
    st.tuples(group_specs, st.one_of(
        st.just("commutator"), _terms(["a", "b", "c"]).map("word:{}".format))),
    st.tuples(ring_specs, st.just("ring-commutator")),
    st.tuples(st.one_of(group_specs, ring_specs),
              st.sampled_from(["commutator", "ring-commutator", "nope"])),
)
_checks = ["interchange", "proper", "commutative", "associative", "identity", "zero", "eh-audit"]

group_argv = st.builds(lambda s, b: ["group", s, "--budget", b], group_specs, budgets)
law_argv = st.builds(
    lambda s, law, sampled, n, seed, b: ["law", s, law, *sampled, "--samples", n,
                                         "--seed", seed, "--budget", b],
    group_specs, laws, st.sampled_from([[], ["--sampled"]]), flag_numbers, seeds, budgets,
)
ring_argv = st.builds(
    lambda s, law, n, seed, b: ["ring", s, "--law", law, "--samples", n, "--seed", seed,
                                "--budget", b],
    ring_specs, st.sampled_from(RING_LAWS), flag_numbers, seeds, budgets,
)
magma_argv = st.builds(
    lambda double, check, op, fmt, b: ["magma", double[0], "--construction", double[1], *check,
                                       "--op", op, "--format", fmt, "--budget", b],
    doubles,
    st.one_of(st.just([]), st.sampled_from(_checks).map(lambda c: ["--check", c])),
    st.sampled_from(["star", "bullet"]), st.sampled_from(["text", "csv", "structured"]), budgets,
)


@given(st.one_of(group_argv, law_argv, ring_argv, magma_argv))
@settings(max_examples=200, deadline=None)
def test_drawn_argv_exit_0_1_or_2_without_an_internal_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse refusing an option value
            rc = e.code
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "internal error" not in err.getvalue(), argv
