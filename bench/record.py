#!/usr/bin/env python3
"""Record the expected-value tables in `bench/expected/` from the current source.

    python3 bench/record.py

Run this only at a commit whose outputs are trusted (the tables were recorded
at the seed commit). Each table maps an operation key to the seed-independent
summary of its result; `run.py` fails every operation whose summary differs.
The corpus table also keeps the digest of the default-seed JSON report, which
must stay byte-identical.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, import_program
from workloads import WORKLOADS, Recorder, digest


def main() -> int:
    dm = import_program()
    out = BENCH / "expected"
    out.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls(dm, seed=1)
        workload.setup()
        workload.prepare_checks()
        rec = Recorder(expected=None)
        workload.run_pass(rec)
        if rec.failed:
            print("\n".join(rec.failures), file=sys.stderr)
            return 1
        table = dict(sorted(rec.recorded.items()))
        if name == "corpus":
            table["to_json@seed1"] = digest(dm.run_corpus(dm.CorpusConfig()).to_json())
        with open(out / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
