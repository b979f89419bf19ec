"""A catalogue of source mutants, each of which some named tests must kill.

Each entry is (module, exact source text, replacement, test files). The
runner copies `src/` to a temporary directory, replaces the source text in
`src/dmagma/<module>.py` of the copy, runs the named test files against it
with `pytest -x -q`, and requires them to fail on a test (pytest's exit code
1; a collection or import error does not count as a kill). A source text
that does not occur exactly once fails the runner, so a refactor must carry
its mutants along. Before any mutant, the named files must pass on the
unmutated copy.

Run from the repository root:

    python tests/mutants.py

The file name does not match pytest's `test_*.py`, so the tier-1 run does
not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the walker pads the unravelled index of a slice that spans fewer axes
    # than its lines at the end instead of the front
    ("tables",
     "hit = (0,) * (len(lines) - bad.ndim) + hit",
     "hit = hit + (0,) * (len(lines) - bad.ndim)",
     ["tests/test_properties.py", "tests/test_words.py"]),
    # a group's law tables kept in int32 instead of intp
    ("groups",
     "mul, inv = self.mul.astype(np.intp), self.inv.astype(np.intp)",
     "mul, inv = self.mul.astype(np.int32), self.inv.astype(np.int32)",
     ["tests/test_tables.py", "tests/test_words.py"]),
    # a group table accepted without "every row holds the identity"
    ("groups",
     "inv = right_inverses(table, 0) if identity else None",
     "inv = np.argmax(table == 0, axis=1).astype(np.int32) if identity else None",
     ["tests/test_groups.py"]),
    # a ring's addition accepted without "every row holds its zero"
    ("rings",
     "neg = right_inverses(add, zero) if zero is not None and symmetric else None",
     "neg = np.argmax(add == zero, axis=1).astype(np.int32) if zero is not None and symmetric else None",
     ["tests/test_rings.py"]),
    # a two-sided identity read from the rows alone
    ("tables",
     "return _first_column_match(table, rows, idx[:, None])",
     "return int(rows[0]) if rows.size else None",
     ["tests/test_rings.py", "tests/test_magmas.py"]),
    # a group's law bracket built as y^-1 x^-1 x y instead of x^-1 y^-1 x y
    ("groups",
     "Bracket: gather(mul, gather(mul, inv[x], inv[y]), mul)",
     "Bracket: gather(mul, gather(mul, inv[y], inv[x]), mul)",
     ["tests/test_words.py"]),
    # a group's law conjugate built as y x y^-1 instead of y^-1 x y
    ("groups",
     "Conjugate: gather(mul, gather(mul, inv[y], x), y)",
     "Conjugate: gather(mul, gather(mul, y, x), inv[y])",
     ["tests/test_words.py"]),
    # the cells of `gather` strided by the row count, which only a table with
    # fewer rows than columns, a permutation closure's right maps, tells apart
    ("tables",
     "return table.ravel().take(a * table.shape[1] + b)",
     "return table.ravel().take(a * table.shape[0] + b)",
     ["tests/test_groups.py"]),
    # a table of more than 2^31 cells, whose int32 cells would overflow, accepted
    ("tables",
     "if n > 46340:",
     "if False:",
     ["tests/test_tables.py"]),
    # a sample count below 1 or a negative seed let through to the sampler
    ("tables",
     "check_sampling(*sampling)",
     "pass",
     ["tests/test_rings.py", "tests/test_words.py"]),
    # a sampled check that draws the stream without walking its small class grid
    ("tables",
     "if small and first_failure(reps, failing, conjugates) is None:",
     "if False and small and first_failure(reps, failing, conjugates) is None:",
     ["tests/test_words.py"]),
    # law walks kept under the law's arity, so two laws with as many variables
    # but other line sets share the first one's walk
    ("words",
     "walk = kept.get(key)\n    if walk is None:\n        walk = kept[key] =",
     "walk = kept.get(len(low.variables))\n    if walk is None:\n        walk = kept[len(low.variables)] =",
     ["tests/test_words.py"]),
    # a walk's prefix lists without their last representative
    ("tables",
     "self.prefixes = [r.tolist() for r in self[:fixed]]",
     "self.prefixes = [r.tolist()[:-1] for r in self[:fixed]]",
     ["tests/test_properties.py", "tests/test_words.py"]),
]


def pytest_exit_code(src: Path, files: list[str]) -> int:
    """pytest -x -q on `files`, importing dmagma from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({f for *_, files in MUTANTS for f in files})
        if pytest_exit_code(src, named) != 0:
            print("the named test files fail on the unmutated source", file=sys.stderr)
            return 1
        for i, (module, text, replacement, files) in enumerate(MUTANTS):
            path = src / "dmagma" / f"{module}.py"
            original = path.read_text()
            start = time.perf_counter()
            if original.count(text) != 1:
                verdict = f"source text occurs {original.count(text)} times"
            else:
                path.write_text(original.replace(text, replacement))
                try:
                    code = pytest_exit_code(src, files)
                finally:
                    path.write_text(original)
                verdict = "killed" if code == 1 else f"survived (pytest exit code {code})"
            print(f"{i:2d} {module}: {verdict} in {time.perf_counter() - start:.1f} s: {text}")
            if verdict != "killed":
                failures.append(i)
    if failures:
        print(f"{len(failures)} of {len(MUTANTS)} mutants not killed: {failures}", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
