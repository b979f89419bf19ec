#!/usr/bin/env python3
"""Run the benchmark over many seeds and save every result line.

    python3 bench/sweep.py --seeds 1-10 --run . bench/out/here.jsonl
    python3 bench/sweep.py --seeds 1-10 --run ../parent bench/out/parent.jsonl \\
                                        --run . bench/out/change.jsonl

Each `--run DIR OUT` benchmarks the checkout at DIR with that checkout's own
`bench/run.py` and writes one JSON record per run to OUT, which it empties
first. With two checkouts, every (seed, workload) runs on both, alternating
which goes first.
At the end it prints, per checkout, workload and end-to-end metric, the median
and the spread (distance between the first and third quartile as a share of
the median) next to the metric's bound. `compare.py` reads the saved files.

    python3 bench/sweep.py --baseline bench/baseline.json bench/out/here.jsonl bench/out/traced.jsonl

writes the medians and quartiles of every metric in saved files, with the
environment they were measured in, instead of running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles, read_records

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Seeds below 100 were used while the benchmark was built and its spreads
# proved. A change that claims a gain must also hold on this seed, which no
# change may be tuned against.
HELD_OUT_SEED = 7919


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"sweep: {checkout} {workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return {"checkout": str(checkout), "workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, med, q3 = quartiles(values)
    return med, (q3 - q1) / med if med else 0.0


def summarize(records: list[dict], spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == w and r["trace"] == 0]
        if not mine:
            continue
        bad = sum(not r["result"]["correct"] for r in mine)
        print(f"  {w}: {len(mine)} runs, {bad} incorrect, "
              f"{max(r['elapsed_s'] for r in mine):.0f} s longest run")
        for name, bound in bounds.items():
            med, sp = spread([r["result"]["metrics"][name]["value"] for r in mine])
            flag = "" if sp < bound / 3 else ("  > bound/3" if sp <= bound else "  > BOUND")
            print(f"    {name:14s} median {med:12.6g}  spread {sp:7.2%}  bound {bound:.0%}{flag}")


def environment(checkout: Path) -> dict:
    """What the numbers were measured on."""
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def baseline(records: list[dict], spec: dict, checkout: Path) -> dict:
    """Medians and quartiles of every metric per workload, with the environment."""
    out = {"environment": environment(checkout), "run_seconds": spec["run_seconds"],
           "seeds": sorted({r["seed"] for r in records}), "held_out_seed": HELD_OUT_SEED,
           "end_to_end": {}, "per_layer": {}}
    for r in records:
        section = out["per_layer" if r["trace"] else "end_to_end"]
        for name, m in r["result"]["metrics"].items():
            section.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    for section in ("end_to_end", "per_layer"):
        for metrics in out[section].values():
            for name, values in metrics.items():
                q1, med, q3 = quartiles(values)
                metrics[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1 (both, per seed)")
    ap.add_argument("--baseline", nargs="+", metavar="FILE",
                    help="FILE SAVED...: instead of running, write the medians and quartiles "
                         "of every run saved in the SAVED files to FILE")
    ap.add_argument("--run", nargs=2, action="append", metavar=("CHECKOUT", "OUT"),
                    help="checkout to benchmark and the JSONL file to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.baseline:
        out, *saved = args.baseline
        records = read_records(*saved)
        checkout = Path(records[0]["checkout"]) if records else ROOT
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(baseline(records, spec, checkout), fh, indent=1)
            fh.write("\n")
        return 0
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = [(Path(d).resolve(), Path(o)) for d, o in (args.run or [[ROOT, BENCH / "out" / "sweep.jsonl"]])]
    for _, out in runs:
        # A sweep starts its files afresh, so a file never mixes two sweeps.
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("")
    records = {d: [] for d, _ in runs}
    traces = [int(t) for t in args.trace.split(",")]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            order = runs if i % 2 == 0 else runs[::-1]
            for checkout, out in order:
                for trace in traces:
                    rec = run_one(checkout, spec, workload, seed, trace)
                    records[checkout].append(rec)
                    with open(out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(rec) + "\n")
                    m = rec["result"]["metrics"]
                    brief = "  ".join(f"{k}={v['value']:.4g}" for k, v in list(m.items())[:5])
                    print(f"{checkout.name} {workload} seed {seed} trace {trace}: {brief}",
                          flush=True)
    for checkout, _ in runs:
        print(f"{checkout}:")
        summarize(records[checkout], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
