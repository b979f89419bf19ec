#!/usr/bin/env python3
"""Compare two sets of benchmark results, one verdict per (metric, workload).

    python3 bench/compare.py bench/out/parent.jsonl bench/out/change.jsonl

Both files hold records written by `sweep.py`; only untraced runs count. Runs
pair up by (workload, seed). For each end-to-end metric of BENCHMARK.json and
each workload the report gives both sides' median and quartiles, the share of
pairs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 of at least 10 pairs, and the
              medians differ, in its favour, by more than the parent's
              interquartile distance;
  unresolved  either side's spread (interquartile distance over median) is
              wider than the bound, unless every change run beats every parent
              run;
  regressed   the change's median is worse than the parent's by more than the
              bound (a share of the parent's median);
  unchanged   otherwise: no worse than the bound allows.

A change that fails more operations than the parent is reported as regressed
on every metric of that workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_records(*paths) -> list[dict]:
    """Every record of the files; exits if two are for the same (workload, seed, trace)."""
    records, seen = [], set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["workload"], rec["seed"], rec["trace"])
                if key in seen:
                    sys.exit(f"compare: {path} repeats workload {key[0]} seed {key[1]} "
                             f"trace {key[2]}; use the files of one sweep")
                seen.add(key)
                records.append(rec)
    return records


def load(path) -> dict:
    """{(workload, seed): result} for the untraced records of a file."""
    return {(r["workload"], r["seed"]): r["result"] for r in read_records(path) if r["trace"] == 0}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool):
    """Verdict and win share for paired samples (parent[i] pairs with change[i])."""
    sign = 1.0 if lower_is_better else -1.0
    better = lambda a, b: sign * (a - b) < 0  # noqa: E731  a beats b
    wins = sum(better(c, p) for p, c in zip(parent, change))
    share = wins / len(parent)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)
    if len(parent) >= MIN_PAIRS and share >= WIN_SHARE and gain > pq3 - pq1:
        return "improved", share
    all_better = all(better(c, p) for c in change for p in parent)
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved", share
    if pmed and -gain / abs(pmed) > bound:
        return "regressed", share
    return "unchanged", share


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for w in (w["name"] for w in spec["workloads"]):
        keys = sorted(k for k in parent.keys() & change.keys() if k[0] == w)
        if not keys:
            continue
        pfail = sum(parent[k]["failed"] for k in keys)
        cfail = sum(change[k]["failed"] for k in keys)
        for m in spec["end_to_end"]:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            v, share = verdict(p, c, m["bound"], m["better"] == "lower")
            if cfail > pfail:
                v = "regressed"
            rows.append({"workload": w, "metric": m["name"], "pairs": len(keys),
                         "parent": quartiles(p), "change": quartiles(c),
                         "wins": share, "verdict": v})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), spec)
    print(f"{'workload':17s} {'metric':13s} {'pairs':>5s}  {'parent median [q1, q3]':>32s}  "
          f"{'change median [q1, q3]':>32s}  {'wins':>5s}  verdict")
    for r in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
        print(f"{r['workload']:17s} {r['metric']:13s} {r['pairs']:5d}  "
              f"{pm:10.4g} [{pq1:9.4g}, {pq3:9.4g}]  {cm:10.4g} [{cq1:9.4g}, {cq3:9.4g}]  "
              f"{r['wins']:5.0%}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
