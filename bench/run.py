#!/usr/bin/env python3
"""One run of one dmagma benchmark workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from `src/` next to
this directory, never from an installed copy, and the run stops with a
non-zero exit code when that source is missing. Workloads and their checks
are in `workloads.py`. Untraced runs pair every timed pass and set-up probe
with the same work done by `reference/dmagma_seed`, a frozen copy of the
seed commit's program, and scale the program's times by it, so that drift
of the host's speed cancels. `--trace 1` wraps the library's public
functions (`spans.py`) and reports raw per-layer numbers instead of
end-to-end ones. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

See DESIGN.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is probed in fresh processes between the pairs of passes, so its
# median spans the whole run like the passes do.
PROBES_PER_PAIR = 3
MIN_PROBES = 9
# `reference/dmagma_seed` is the seed commit's `src/dmagma` (without the CLI),
# frozen. Each untraced pass of the program, and each set-up probe, is paired
# with one of the reference doing the same, and its times are scaled by the
# reference's median on the machine the baseline was recorded on over the
# paired reference time: the host's speed drifts by a quarter over minutes,
# and both halves of a pair see the same drift.
REFERENCE = BENCH / "reference"
REFERENCE_PASS_SECONDS = {"corpus": 4.5, "law-queries": 4.4, "large-structures": 6.25}
REFERENCE_SETUP_SECONDS = {"corpus": 0.27, "law-queries": 0.39, "large-structures": 0.29}


def import_program():
    """Import dmagma from this checkout's `src/`, or exit."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import dmagma
    except ImportError as e:
        sys.exit(f"bench: cannot import dmagma from {src}: {e}")
    if not Path(dmagma.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: dmagma was imported from {dmagma.__file__}, not from {src}")
    return dmagma


def import_reference():
    """Import the frozen seed copy of the program."""
    sys.path.insert(0, str(REFERENCE))
    import dmagma_seed
    return dmagma_seed


def load_expected(workload: str) -> dict:
    path = BENCH / "expected" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload: str, seed: int, tiny: bool, side: str) -> float:
    """Time from starting a fresh process to the end of the workload's set-up in it.

    `side` is "program" or "reference": which copy the process imports.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", side,
           "--workload", workload, "--seed", str(seed)] + ["--tiny"] * tiny
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=170)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe failed (exit {code}): {line}{rest}")
    return dt


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between ranks as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_pass_percentile(passes: list[list[float]], q: int) -> float:
    """The median over passes of each pass's q-th percentile query latency.

    Every pass runs the same queries, so this does not shift with the number
    of passes that fit in a run, as a percentile over all of them would.
    """
    return statistics.median(percentile(p, q) for p in passes)


def run_traced(workload, rec, seconds: float, tracer):
    """Alternate untraced and traced passes until `seconds` have gone by.

    The run ends on a traced pass, so both kinds see the same drift. Returns
    the per-pass seconds of each kind.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        rec.pass_seconds = 0.0
        if len(traced) < len(untraced):
            with tracer:
                workload.run_pass(rec)
            traced.append(rec.pass_seconds)
        else:
            workload.run_pass(rec)
            untraced.append(rec.pass_seconds)
        if time.perf_counter() >= deadline and len(traced) == len(untraced):
            return untraced, traced


def timed_pass(workload, rec) -> tuple[float, list[float]]:
    """One pass: its seconds inside library calls and its query latencies."""
    first_query = len(rec.query_seconds)
    rec.pass_seconds = 0.0
    workload.run_pass(rec)
    return rec.pass_seconds, rec.query_seconds[first_query:]


def run_paired(workload, rec, make_reference, seconds: float, probe):
    """Pair untraced passes with passes of the reference until `seconds` have gone by.

    A first pass warms the process up and is not timed: it runs the calls in
    listed order, and peak memory is read at its end, before the reference
    is set up, so that it is the program's alone. Then the two passes of a
    pair do the same calls in the same order, one right after the other, the
    reference first in every other pair. Each pair of passes is followed by
    PROBES_PER_PAIR pairs of set-up probes, `probe("program")` and
    `probe("reference")` in turns, topped up to MIN_PROBES pairs at the end.

    Returns (program seconds, program query latencies, reference seconds) per
    pair of passes, (program, reference) seconds per pair of probes, and the
    peak resident memory (MiB).
    """
    deadline = time.perf_counter() + seconds
    timed_pass(workload, rec)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = make_reference()
    passes, probes = [], []

    def probe_pair():
        if len(probes) % 2 == 0:
            r, p = probe("reference"), probe("program")
        else:
            p, r = probe("program"), probe("reference")
        probes.append((p, r))

    while True:
        if len(passes) % 2 == 0:
            r, _ = timed_pass(*reference)
            p, q = timed_pass(workload, rec)
        else:
            p, q = timed_pass(workload, rec)
            r, _ = timed_pass(*reference)
        passes.append((p, q, r))
        for _ in range(PROBES_PER_PAIR):
            probe_pair()
        if time.perf_counter() >= deadline:
            while len(probes) < MIN_PROBES:
                probe_pair()
            return passes, probes, peak_rss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run a small subset of the workload (for the smoke test)")
    ap.add_argument("--setup-probe", choices=("program", "reference"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    dm = import_reference() if args.setup_probe == "reference" else import_program()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](dm, args.seed, tiny=args.tiny)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    expected = load_expected(args.workload)
    tracer = Tracer(dm) if args.trace else None
    if tracer is not None:
        # The set-up is traced once, as its own top-level operation.
        with tracer:
            tracer.op = "setup"
            workload.setup()
            tracer.op = None
    else:
        workload.setup()
    workload.prepare_checks()
    rec = Recorder(workload.expected_for(expected), tracer)

    if tracer is None:
        ref_rec = Recorder({})

        def make_reference():
            ref = WORKLOADS[args.workload](import_reference(), args.seed, tiny=args.tiny)
            # The program's untimed first pass has no twin, so the reference
            # starts at the program's second pass order.
            ref.passes = workload.passes
            ref.setup()
            ref.prepare_checks()
            ref_rec.expected = ref.expected_for(expected)
            return ref, ref_rec

        passes, probes, peak_rss = run_paired(
            workload, rec, make_reference, args.seconds,
            lambda side: setup_seconds(args.workload, args.seed, args.tiny, side))
        if ref_rec.failed:
            sys.exit("bench: the reference copy failed its checks, so it cannot scale the "
                     f"timings: {'; '.join(ref_rec.failures[:3])}")
        scale = REFERENCE_PASS_SECONDS[args.workload]
        wall = [p * scale / r for p, _, r in passes]
        queries = [[x * scale / r for x in q] for _, q, r in passes]
        setup = [p * REFERENCE_SETUP_SECONDS[args.workload] / r for p, r in probes]
        metrics = {
            "wall_s": (statistics.median(wall), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
            "query_p50_ms": (per_pass_percentile(queries, 50) * 1e3, "ms"),
            "query_p90_ms": (per_pass_percentile(queries, 90) * 1e3, "ms"),
        }
        print(f"workload {args.workload}  seed {args.seed}  trace 0  "
              f"{len(passes)} pairs of passes, {len(probes)} of set-up probes")
        for what, pairs in (("pass", [(p, r) for p, _, r in passes]), ("set-up", probes)):
            print(f"unscaled {what} medians: program {statistics.median(p for p, _ in pairs):.4g} s, "
                  f"reference {statistics.median(r for _, r in pairs):.4g} s; program/reference "
                  + " ".join(f"{p / r:.3f}" for p, r in pairs))
        print(f"queries {sum(map(len, queries))} in {len(queries)} passes")
    else:
        untraced, traced = run_traced(workload, rec, args.seconds, tracer)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        layers = layer_metrics(tracer.spans, len(traced), {"setup"})
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"workload {args.workload}  seed {args.seed}  trace 1  "
              f"passes {len(untraced)} untraced + {len(traced)} traced")

    error_rate = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"operations {rec.attempted}  failed {rec.failed}  error_rate {error_rate:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for why in rec.failures:
        print(f"bench: FAILED {why}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
