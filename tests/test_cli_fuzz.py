"""CLI fuzz: drawn `group`, `law`, `ring`, `magma` and `suite` runs never crash.

Each argv is drawn from the group and ring spec grammars and the law grammar,
with huge, negative and malformed numbers mixed into specs, exponents, seeds,
sample counts and budgets, and runs through `cli.main`. Whatever it is, the
exit code is 0, 1 or 2 (argparse's own refusals exit 2 too) and stderr never
reports an internal error. Budgets and sample counts stay at most 10^6, and
the spec numbers a valid spec can use stay small, so every drawn run ends in
milliseconds; the huge values go where they must be refused.

A second, smaller draw runs each case in its own process, which runs the CLI
as `python -m dmagma.cli` does, with `suite` runs over drawn config files
among them. The child alone gets an address-space limit and a wall-time
limit, and a case passes only if it exits 0, 1 or 2 with no traceback or
internal error on stderr: a crash that escapes `main`, a signal or either
limit fails it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dmagma
from dmagma.cli import main
from dmagma.rings import RING_LAWS
from dmagma.suite import ALL_CHECKS
from dmagma.words import BUILTIN_LAWS

try:
    import resource  # noqa: F401  POSIX only; the child limits its address space with it
except ImportError:
    resource = None

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


# A child's limits: 2 GiB of address space and 60 s of wall time.
CHILD_ADDRESS_SPACE = 2 << 30
CHILD_TIMEOUT_S = 60

# Suite configs over small structures, so every drawn run ends well under a
# second. The four keys a config always has replace the defaults, which would
# run all twelve default groups. Broken configs are drawn about a quarter of
# the time, so most drawn suites run their checks.
suite_configs = st.fixed_dictionaries(
    {
        "groups": st.lists(_mostly(["cyclic:1", "cyclic:4", "dihedral:3", "heisenberg:3",
                                    "product:cyclic:2,cyclic:2", "perm:(1 2),(1 2 3 4)"],
                                   ["cyclic:0", "dihedral:x", "nope:1", HUGE]), max_size=3),
        "rings": st.lists(_mostly(["zmod:2", "zmod:6", "uppertri:2,2", "matrix:2,2"],
                                  ["zmod:0", "matrix:x"]), max_size=2),
        "checks": st.lists(_mostly(ALL_CHECKS, ["nope"]), min_size=1, max_size=3),
        "sample_count": _mostly([1, 100, 1000], [0, -1, "100"]),
    },
    optional={"budget": _mostly([1, 1000, 10**6], [0, -1, True, 1.5]),
              "seed": _mostly([0, 1, 7], [-1, 2**70])},
).map(json.dumps)
broken_configs = st.sampled_from(["", "{", "[]", "null", '{"groups": "cyclic:3"}', '{"checks": []}',
                                  '{"nope": 1}'])
suite_argv = st.builds(
    lambda config, extra: (["suite", "config.json", "--text", "report.txt", "--json", "report.json",
                            *extra], config),
    st.one_of(suite_configs, suite_configs, suite_configs, broken_configs),
    st.one_of(st.just([]), st.builds(lambda b: ["--budget", b], budgets),
              st.builds(lambda n: ["--samples", n], flag_numbers)),
)


# The child limits its own address space before it imports dmagma, then runs
# the CLI as `python -m dmagma.cli` would. A `preexec_fn` would run Python
# between fork and exec in this process, which is unsafe beside BLAS threads.
CHILD = ("import resource, runpy; "
         f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE})); "
         "runpy.run_module('dmagma.cli', run_name='__main__', alter_sys=True)")


@pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
@given(st.one_of(st.one_of(group_argv, law_argv, ring_argv, magma_argv).map(lambda a: (a, None)),
                 suite_argv))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_a_drawn_run_in_a_child_process_exits_0_1_or_2_within_its_limits(case):
    argv, config = case
    # the child finds this dmagma; one BLAS thread keeps its address space small
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(dmagma.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "config.json").write_text(config, encoding="utf-8")
        run = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp, env=env,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    assert run.returncode in (0, 1, 2), (argv, config, run.returncode, run.stderr)
    assert "Traceback" not in run.stderr and "internal error" not in run.stderr, (argv, config, run.stderr)
