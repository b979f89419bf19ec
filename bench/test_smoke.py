"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted, that outputs pass
their checks, that a traced run puts back every function it wrapped, that the
benchmark refuses to run without the program's source, that a run stops
without a result when the reference it scales by fails its checks, that a
result it cannot read counts as a failed operation, and the compare verdicts
and input checks.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
dm = run.import_program()


def run_tiny(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run_tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _references() -> dict:
    """Every object a dmagma module, one of its dicts, or a traced class holds."""
    refs = {}
    for name, mod in list(sys.modules.items()):
        if name != "dmagma" and not name.startswith("dmagma."):
            continue
        for attr, value in vars(mod).items():
            refs[(name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for k, v in value.items():
                    refs[(name, attr, k)] = v
    for meth in ("to_json", "to_text"):
        refs[("Report", meth)] = getattr(dm.suite.Report, meth)
    return refs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_trace_puts_back_every_function(workload):
    before = _references()
    wl = WORKLOADS[workload](dm, seed=2, tiny=True)
    wl.setup()
    wl.prepare_checks()
    tracer = Tracer(dm)
    rec = Recorder(wl.expected_for(run.load_expected(workload)), tracer)
    with tracer:
        during = _references()
        wl.run_pass(rec)
    assert tracer.spans, "the traced pass recorded no spans"
    assert any(during[k] is not before[k] for k in before), "nothing was wrapped"
    after = _references()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed
    # An untraced pass through the same recorder reaches only the originals:
    # the recorder still opens operations, but no wrapper is left to see them.
    n = len(tracer.spans)
    wl.run_pass(rec)
    assert len(tracer.spans) == n
    assert rec.failed == 0, rec.failures


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    cmd = SPEC["command"] + ["--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failing_reference_stops_the_run(monkeypatch):
    broken = types.ModuleType("dmagma_broken")
    broken.__dict__.update(vars(dm))
    broken.run_corpus = lambda config: None
    monkeypatch.setattr(run, "import_reference", lambda: broken)
    out = io.StringIO()
    with pytest.raises(SystemExit) as exit_, redirect_stdout(out):
        run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0", "--trace", "0",
                  "--tiny"])
    assert exit_.value.code and "reference" in str(exit_.value.code)
    assert '"metrics"' not in out.getvalue()


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(base, faster, 0.1, True)[0] == "improved"
    assert compare.verdict(base, slower, 0.1, True)[0] == "regressed"
    assert compare.verdict(base, list(base), 0.1, True)[0] == "unchanged"
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"
    assert compare.verdict(base, slower, 0.1, False)[0] == "improved"
    assert compare.verdict(base[:5], faster[:5], 0.1, True)[0] == "unchanged"


def test_unreadable_result_is_a_failed_operation():
    rec = Recorder({"op": {"status": "holds"}})
    rec.call("op", lambda: (1, 2), summary=lambda r: {"status": r["status"]})
    rec.call("op", lambda: None, oracle=lambda r: r.witness)
    assert (rec.attempted, rec.failed) == (2, 2)


def test_compare_refuses_repeated_runs(tmp_path):
    rec = {"checkout": ".", "workload": "corpus", "seed": 1, "trace": 0, "elapsed_s": 1.0,
           "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}}
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(SystemExit):
        compare.load(path)
