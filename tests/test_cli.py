"""CLI surface: subcommands, formats, and the exit-code contract."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmagma.cli
from dmagma.cli import build_parser, main
from dmagma.fixtures import D8_NAMES, D8_STAR_ROWS
from dmagma.magmas import parse_csv_table


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- group ----------------------------------------------------------------------


def test_group_inspect_dihedral_8(capsys):
    rc, out, _ = run(capsys, "group", "dihedral:8")
    assert rc == 0
    assert "order: 16" in out
    assert "metabelian: true" in out
    assert "3-metabelian: true" in out
    assert "nilpotency class: 3" in out
    assert "derived series sizes: 16, 4, 1" in out
    assert "derived subgroup of exponent 2: false" in out


def test_group_inspect_trivial(capsys):
    rc, out, _ = run(capsys, "group", "cyclic:1")
    assert rc == 0
    assert "order: 1" in out and "nilpotency class: 0" in out


def test_group_inspect_s4(capsys):
    rc, out, _ = run(capsys, "group", "perm:(1 2),(1 2 3 4)")
    assert rc == 0
    assert "order: 24" in out
    assert "metabelian: false" in out
    assert "not nilpotent" in out


def test_group_bad_spec_exits_2(capsys):
    rc, _, err = run(capsys, "group", "nope:1")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("argv, message", [
    (("group", "cyclic:" + "9" * 5000), "the number at position 7 has 5000 digits"),
    (("group", "product:cyclic:2,perm:(1 " + "9" * 101 + ")"), "the number at position 25 has 101 digits"),
    (("ring", "zmod:" + "9" * 5000, "--law", "RCI"), "the number at position 5 has 5000 digits"),
    (("ring", "matrix:2," + "9" * 101, "--law", "RCI"), "the number at position 9 has 101 digits"),
])
def test_overlong_spec_numbers_are_refused_by_the_digit_limit(capsys, argv, message):
    # checked before int(), which refuses more than 4300 digits with advice
    # about the interpreter's own limit
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {message}, more than the limit of 100\n"
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_a_spec_number_at_the_digit_limit_is_read(capsys):
    rc, out, _ = run(capsys, "group", "perm:(1 " + "9" * 100 + ")")
    assert rc == 0 and "order: 2\n" in out


# --- law ------------------------------------------------------------------------


def test_law_holds_exit_0(capsys):
    rc, out, _ = run(capsys, "law", "dihedral:8", "[w,x;y,z]=[w,y;x,z]")
    assert rc == 0
    assert "holds-exhaustive" in out


def test_law_counterexample_exit_1(capsys):
    rc, out, _ = run(capsys, "law", "perm:(1 2),(1 2 3 4)", "[x,y;x,z]=1")
    assert rc == 1
    assert "counterexample" in out
    assert "x=" in out and "z=" in out


def test_law_builtin_name(capsys):
    rc, out, _ = run(capsys, "law", "cyclic:5", "JACOBI")
    assert rc == 0


def test_law_sampled_mode(capsys):
    rc, out, _ = run(capsys, "law", "dihedral:3", "x=x", "--sampled", "--samples", "50")
    assert rc == 0
    assert "holds-sampled" in out and "seed=1" in out


def test_law_parse_error_exit_2(capsys):
    rc, _, err = run(capsys, "law", "cyclic:3", "[x=1")
    assert rc == 2


@pytest.mark.parametrize("exponent,position,shown", [
    ("9" * 5000, 6, "999999999999... (5000 digits)"),
    ("-" + "0" * 5000 + "33", 7, "-33"),
    ("-" + "0" * 5000 + "1" * 5000, 7, "-111111111111... (5000 digits)"),
], ids=["nines", "zeros-then-33", "zeros-then-ones"])
def test_a_long_law_exponent_is_refused_before_it_is_converted(capsys, exponent, position, shown):
    # int() refuses literals past 4300 digits; the parser refuses them first, by length
    rc, out, err = run(capsys, "law", "dihedral:4", f"[x,y]^{exponent}=1")
    assert rc == 2 and out == ""
    assert err == f"error: power exponent {shown} out of range +-32 (at position {position})\n"
    assert "set_int_max_str_digits" not in err


def test_leading_zeros_of_a_law_exponent_are_dropped(capsys):
    rc, out, _ = run(capsys, "law", "dihedral:4", "x^003=1")
    assert rc == 1 and "law: x^3=1" in out
    rc, out, _ = run(capsys, "law", "dihedral:4", "x^-" + "0" * 5000 + "3=1")
    assert rc == 1 and "law: x^-3=1" in out


def test_law_nested_too_deep_exit_2(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000 + "=1"
    rc, out, err = run(capsys, "law", "cyclic:3", deep)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "deeper than" in err


def test_unexpected_error_never_exits_1(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(dmagma.cli, "parse_group_spec", broken)
    rc, _, err = run(capsys, "group", "cyclic:3")
    assert rc == 2
    assert err == "error: internal error: RuntimeError: boom\n"


def test_law_budget_error_exit_2(capsys):
    rc, _, err = run(capsys, "law", "dihedral:8", "CI", "--budget", "10")
    assert rc == 2 and "sampled" in err


# --- magma ----------------------------------------------------------------------


def test_magma_table_matches_golden_transcription(capsys):
    rc, out, _ = run(
        capsys, "magma", "dihedral:8", "--construction", "commutator",
        "--op", "star", "--format", "text",
    )
    assert rc == 0
    lines = [l.split() for l in out.strip().splitlines()]
    assert lines[0] == ["*", *D8_NAMES]
    for i, (row, want) in enumerate(zip(lines[1:], D8_STAR_ROWS)):
        assert row[0] == D8_NAMES[i]
        assert tuple(row[1:]) == want


def test_magma_word_table(capsys):
    rc, out, _ = run(
        capsys, "magma", "cyclic:3", "--construction", "word:a*b^-1", "--format", "text"
    )
    assert rc == 0
    rows = [l.split() for l in out.strip().splitlines()]
    assert rows[1] == ["1", "1", "a2", "a"]


def test_magma_trivial_csv(capsys):
    rc, out, _ = run(
        capsys, "magma", "cyclic:1", "--construction", "commutator", "--format", "csv"
    )
    assert rc == 0
    assert out == "*,1\n1,1\n"


def test_magma_csv_round_trips(capsys):
    rc, out, _ = run(capsys, "magma", "dihedral:4", "--format", "csv")
    assert rc == 0
    names, op = parse_csv_table(out)
    from dmagma.constructions import commutator_double
    from dmagma.groups import make_dihedral

    d = commutator_double(make_dihedral(4))
    assert tuple(names) == d.names
    assert np.array_equal(op, d.star.op)


def test_magma_structured_has_both_tables(capsys):
    rc, out, _ = run(capsys, "magma", "dihedral:3", "--format", "structured")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"names", "star", "bullet"}
    assert len(doc["star"]) == 6


@pytest.mark.parametrize("spec,construction", [
    ("dihedral:3", "commutator"), ("heisenberg:3", "commutator"),
    ("uppertri:2,3", "ring-commutator"),
])
def test_magma_structured_writes_one_line_per_row(capsys, spec, construction):
    from dmagma.cli import _build_double
    from dmagma.magmas import superscript_names

    d = _build_double(build_parser().parse_args(["magma", spec, "--construction", construction]))
    n = len(d.names)
    for superscripts in ((), ("--superscripts",)):
        names = superscript_names(list(d.names)) if superscripts else list(d.names)
        want = {"bullet": d.bullet.op.tolist(), "names": names, "star": d.star.op.tolist()}
        for op in ("star", "bullet"):
            rc, out, _ = run(capsys, "magma", spec, "--construction", construction,
                             "--format", "structured", "--op", op, *superscripts)
            assert rc == 0 and json.loads(out) == want
            assert list(json.loads(out)) == sorted(want)
            assert out.count("\n") == 2 * n + 7  # braces, names, and each table's rows


def test_magma_ring_construction(capsys):
    rc, out, _ = run(
        capsys, "magma", "zmod:6", "--construction", "ring-commutator",
        "--check", "proper",
    )
    assert rc == 1
    assert "improper" in out


def test_magma_checks_and_exit_codes(capsys):
    rc, out, _ = run(capsys, "magma", "dihedral:8", "--check", "interchange")
    assert rc == 0 and "holds-exhaustive" in out
    rc, out, _ = run(capsys, "magma", "perm:(1 2),(1 2 3 4)", "--check", "interchange")
    assert rc == 1 and "counterexample" in out
    rc, out, _ = run(capsys, "magma", "dihedral:3", "--check", "proper")
    assert rc == 0 and "differ at" in out
    rc, out, _ = run(capsys, "magma", "dihedral:3", "--check", "zero")
    assert rc == 0 and "zero: 1" in out
    rc, out, _ = run(capsys, "magma", "dihedral:3", "--check", "identity")
    assert rc == 1 and "none" in out
    rc, out, _ = run(capsys, "magma", "heisenberg:3", "--check", "associative")
    assert rc == 0
    rc, out, _ = run(capsys, "magma", "cyclic:4", "--check", "eh-audit")
    assert rc == 0


def test_magma_bad_construction_exit_2(capsys):
    rc, _, err = run(capsys, "magma", "cyclic:3", "--construction", "bogus")
    assert rc == 2


def test_magma_superscripts(capsys):
    rc, out, _ = run(
        capsys, "magma", "dihedral:8", "--format", "text", "--superscripts"
    )
    assert rc == 0
    assert "a⁶" in out
    assert "¹" not in out  # the identity name stays "1"


# --- ring -----------------------------------------------------------------------


def test_ring_law_checks(capsys):
    rc, out, _ = run(capsys, "ring", "zmod:6", "--law", "RCI")
    assert rc == 0 and "holds-exhaustive" in out
    rc, out, _ = run(capsys, "ring", "matrix:2,2", "--law", "ALT3M")
    assert rc == 1 and "counterexample" in out
    rc, out, _ = run(capsys, "ring", "matrix:2,3", "--law", "PROPER_WITNESS")
    assert rc == 0 and "witness: x=" in out
    rc, out, _ = run(capsys, "ring", "matrix:2,2", "--law", "PROPER_WITNESS")
    assert rc == 1 and "none" in out
    rc, _, _ = run(capsys, "ring", "zmod:0", "--law", "RCI")
    assert rc == 2


def test_ring_budget_bounds_every_law(capsys):
    rc, out, _ = run(capsys, "ring", "zmod:6", "--law", "ALT3M", "--budget", "1")
    assert rc == 0 and "holds-sampled" in out
    rc, out, _ = run(capsys, "ring", "matrix:2,2", "--law", "PROPER_WITNESS", "--budget", "1",
                     "--samples", "100")
    assert rc == 1 and "witness: none (2<x,y> = 0 for every sampled pair; not a proof)" in out
    assert "every pair" not in out
    rc, out, _ = run(capsys, "ring", "matrix:2,3", "--law", "PROPER_WITNESS", "--budget", "1")
    assert rc == 0 and "witness: x=" in out


def test_ring_law_rejects_non_positive_samples(capsys):
    for count in ("-1", "0"):
        rc, out, err = run(capsys, "ring", "zmod:3", "--law", "RCI", "--samples", count,
                           "--budget", "1")
        assert rc == 2 and out == ""
        assert "sample count must be at least 1" in err


def test_negative_seeds_exit_2(tmp_path, capsys):
    reports = ("--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"))
    for argv in (
        ("law", "dihedral:4", "CI", "--sampled", "--samples", "1000", "--seed", "-1"),
        ("law", "dihedral:4", "CI", "--sampled", "--samples", "100", "--seed", "-1"),
        ("ring", "zmod:6", "--law", "RCI", "--budget", "1", "--seed", "-3"),
        ("ring", "zmod:6", "--law", "RCI", "--seed", "-3"),
        ("suite", "--seed", "-1", *reports),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert "sampling seed must be non-negative" in err
    assert not (tmp_path / "r.json").exists()


def test_sampling_arguments_are_refused_before_building(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(dmagma.cli, "parse_ring_spec", built.append)
    monkeypatch.setattr(dmagma.cli, "parse_group_spec", built.append)
    few = "sample count must be at least 1"
    for argv, message in (
        (("ring", "uppertri:4,2", "--law", "RCI", "--samples", "0"), few),
        (("ring", "uppertri:4,2", "--law", "RCI", "--seed", "-1"),
         "sampling seed must be non-negative, got -1"),
        (("law", "dihedral:512", "CI", "--sampled", "--samples", "0"), few),
        (("law", "dihedral:512", "CI", "--sampled", "--seed", "-2"),
         "sampling seed must be non-negative, got -2"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert built == []


@pytest.mark.parametrize("sampled", [[], ["--sampled"]], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("setting,message", [
    (["--seed", "-1"], "sampling seed must be non-negative, got -1"),
    (["--samples", "0"], "sample count must be at least 1"),
], ids=["seed", "samples"])
def test_law_refuses_bad_sampling_settings_on_every_path(monkeypatch, capsys, sampled, setting,
                                                         message):
    # without --sampled the law would be scanned in full and report a counterexample
    def refuse(*args):
        raise AssertionError("built a group for refused sampling settings")

    monkeypatch.setattr(dmagma.cli, "parse_group_spec", refuse)
    argv = ["law", "dihedral:4", "[x,y]=1", *sampled, *setting]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# --- suite ----------------------------------------------------------------------


def test_suite_run_writes_reports(tmp_path, capsys):
    text = tmp_path / "report.txt"
    machine = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "suite", "--checks", "golden_tables,eh_audit",
        "--text", str(text), "--json", str(machine),
    )
    assert rc == 0
    assert "overall: PASS" in out
    doc = json.loads(machine.read_text())
    assert doc["passed"] is True
    assert "total time" in text.read_text()
    assert "total time" not in machine.read_text()


def test_suite_with_config_file(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"groups": ["dihedral:3"], "rings": [], "checks": ["prop_1_1"]}))
    rc, out, _ = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 0
    assert "PASS prop_1_1 [dihedral:3]" in out


def test_suite_json_files_identical_across_runs(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({"groups": ["dihedral:3", "cyclic:4"], "rings": ["zmod:4"]})
    )
    paths = []
    for tag in ("one", "two"):
        j = tmp_path / f"{tag}.json"
        rc, _, _ = run(
            capsys, "suite", str(config),
            "--text", str(tmp_path / f"{tag}.txt"), "--json", str(j),
        )
        assert rc == 0
        paths.append(j)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_suite_bad_entry_exits_1(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"groups": ["cyclic:zzz"], "rings": [], "checks": ["prop_1_1"]}))
    rc, out, _ = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 1
    assert "ERROR cyclic:zzz" in out


@pytest.mark.parametrize("raw,bad,message", [
    ({"groups": ["cyclic:3"], "rings": ["zmod:x"], "checks": ["prop_1_1"]},
     "zmod:x", "expected a number at position 5 in 'zmod:x'"),
    ({"groups": ["cyclic:zzz"], "rings": ["zmod:6"], "checks": ["ring_rci"]},
     "cyclic:zzz", "expected a number at position 7 in 'cyclic:zzz'"),
], ids=["ring", "group"])
def test_suite_reads_every_spec_whichever_checks_run(tmp_path, capsys, raw, bad, message):
    # a malformed spec of either kind is a spec error, though no selected check reads it
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    rc, out, _ = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 1
    assert f"ERROR {bad}: {message}\n" in out
    assert "1 spec errors" in out


@pytest.mark.parametrize("key,value", [("groups", "cyclic:3"), ("rings", {"zmod:4": 1}),
                                       ("checks", "prop_1_1"), ("groups", ["cyclic:3", 3])])
def test_suite_config_lists_must_be_json_lists_of_strings(tmp_path, capsys, key, value):
    raw = {"groups": ["cyclic:3"], "rings": [], "checks": ["prop_1_1"]}
    raw[key] = value
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    rc, out, err = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 2 and out == ""
    assert f"{key!r} must be a JSON list of strings" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key,value", [("seed", 2.9), ("budget", True), ("sample_count", "10"),
                                       ("seed", None), ("budget", 100.0)])
def test_suite_config_numbers_must_be_json_integers(tmp_path, capsys, key, value):
    raw = {"groups": ["dihedral:4"], "rings": [], "checks": ["prop_1_1"], key: value}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(raw))
    rc, out, err = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 2 and out == ""
    assert f"{key!r} must be a JSON integer" in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()


def test_suite_budget_refusal_exits_2_without_a_report(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"groups": ["dihedral:4", "heisenberg:3"], "rings": ["zmod:6"], "sample_count": 1000}
    ))
    rc, out, err = run(
        capsys, "suite", str(config), "--budget", "100",
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert rc == 2 and out == ""
    assert err == ("error: law [[x,y],z]*[[y,z],x]=1 over order 8 needs 512 evaluations "
                   "(budget 100); use check_law_sampled\n")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv", [
    ("group", "dihedral:4"),
    ("law", "dihedral:4", "[x,y]=1"),
    ("magma", "dihedral:4", "--check", "interchange"),
    ("ring", "zmod:6", "--law", "ALT3M"),
])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_below_1_is_refused_before_anything_is_built(monkeypatch, capsys, argv, budget):
    def refuse(*args):
        raise AssertionError("built a structure for a refused budget")

    monkeypatch.setattr(dmagma.cli, "parse_group_spec", refuse)
    monkeypatch.setattr(dmagma.cli, "parse_ring_spec", refuse)
    rc, out, err = run(capsys, *argv, "--budget", budget)
    assert (rc, out) == (2, "")
    assert err == f"error: --budget must be at least 1, got {budget}\n"


def test_suite_missing_config_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "suite", str(tmp_path / "absent.json"))
    assert rc == 2


def test_suite_overrides_are_validated(tmp_path, capsys):
    for flag in ("--budget", "--samples"):
        rc, out, err = run(
            capsys, "suite", flag, "0",
            "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
        )
        assert rc == 2 and out == ""
        assert "must be positive" in err
        assert not (tmp_path / "r.json").exists()


def test_suite_empty_check_list_exits_2(tmp_path, capsys):
    for checks in ("", " ", ","):
        rc, out, err = run(
            capsys, "suite", "--checks", checks,
            "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
        )
        assert rc == 2 and out == "" and "unknown checks" in err, repr(checks)
        assert not (tmp_path / "r.json").exists()


def test_suite_config_with_no_checks_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"checks": []}))
    rc, out, err = run(
        capsys, "suite", str(config),
        "--text", str(tmp_path / "r.txt"), "--json", str(tmp_path / "r.json"),
    )
    assert (rc, out) == (2, "")
    assert err == "error: malformed config: 'checks' must name at least one check\n"
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()


# --- hostile specs in a child process ---------------------------------------------

_CHILD_MEMORY = 2 << 30  # bytes of address space for the child
_CHILD_SECONDS = 20


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))


@pytest.mark.parametrize("argv, rc, expect", [
    (("group", "heisenberg:1000000000000000003"), 2, "exceeding the order budget 1024"),
    (("ring", "uppertri:99999999999,99999", "--law", "NILP2"), 2, "exceeding the order budget 1024"),
    (("ring", "matrix:99999999999,2", "--law", "NILP2"), 2, "exceeding the order budget 1024"),
    (("group", "perm:(1 20000000)"), 0, "order: 2\n"),
    (("ring", "matrix:99999,1", "--law", "NILP2"), 2,
     "matrix:99999,1 has 9999800001 entries per element, exceeding the order budget 1024"),
    (("ring", "uppertri:99999,1", "--law", "NILP2"), 2,
     "uppertri:99999,1 has 4999950000 entries per element, exceeding the order budget 1024"),
], ids=["heisenberg", "uppertri", "matrix", "perm", "matrix-order-1", "uppertri-order-1"])
def test_hostile_specs_end_quickly_in_a_bounded_child(argv, rc, expect):
    # Orders, and the entries per element of an order-1 matrix ring, are
    # refused before anything is built, and a perm spec's degree is the number
    # of points written, so none of these comes near the limits.
    src = str(Path(dmagma.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "dmagma.cli", *argv], env=env, capture_output=True, text=True,
        timeout=_CHILD_SECONDS, preexec_fn=_limit_child_memory,
    )
    assert proc.returncode == rc, proc.stderr
    assert expect in (proc.stdout if rc == 0 else proc.stderr)
    assert "Traceback" not in proc.stderr and "MemoryError" not in proc.stderr
