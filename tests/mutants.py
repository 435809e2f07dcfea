"""Run the mutant kill list, ``tests/mutants.txt``.

Each mutant is one text substitution in one file of ``src``.  The runner
copies ``src`` and ``tests`` to a temporary directory, applies the
mutant there, and runs the tests the mutant names against that copy,
under a ``TIMEOUT``-second limit; every named test must fail.  A mutant
survives, and the run fails, when a named test passes, when the tests
outrun the time limit, or when the old text does not occur exactly once
in its file (so a refactor that moves the text updates the list on
purpose).

    python tests/mutants.py

Pytest does not collect this file.  Hypothesis runs with a fixed seed,
so a run repeats.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tests" / "mutants.txt"
TIMEOUT = 120  # seconds for one mutant's tests


class Mutant(NamedTuple):
    line: int
    path: str
    old: str
    new: str
    tests: list[str]


def read_mutants() -> list[Mutant]:
    """The list's mutants: one per line, four tab-separated fields (the
    file under ``src``, the old text, the new text, and the test ids,
    separated by spaces).  Blank lines and lines starting with # are
    skipped."""
    mutants = []
    for number, text in enumerate(LIST.read_text(encoding="utf-8")
                                  .splitlines(), start=1):
        if not text.strip() or text.startswith("#"):
            continue
        fields = text.split("\t")
        if len(fields) != 4 or not fields[1] or not fields[3].split():
            raise ValueError(f"{LIST.name}:{number}: expected four "
                             "tab-separated fields")
        mutants.append(Mutant(number, fields[0], fields[1], fields[2],
                              fields[3].split()))
    return mutants


def survives(mutant: Mutant) -> str | None:
    """Why ``mutant`` survives its tests, or None if each of them fails."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        target = copy / "src" / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"the old text occurs {count} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 *mutant.tests],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"its tests ran past the {TIMEOUT} s limit"
    if proc.returncode not in (0, 1):
        # Not a test result: an unknown test id, or a collection error.
        last = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
        return f"pytest exited {proc.returncode}: {' '.join(last)}"
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    passed = [test for test in mutant.tests if test not in failed]
    if passed:
        return "passed: " + " ".join(passed)
    return None


def main() -> int:
    mutants = read_mutants()
    survivors = 0
    for mutant in mutants:
        start = time.perf_counter()
        reason = survives(mutant)
        took = time.perf_counter() - start
        where = f"{LIST.name}:{mutant.line} {mutant.path}"
        if reason is None:
            print(f"killed   {where} ({took:.1f} s)", flush=True)
        else:
            survivors += 1
            print(f"SURVIVED {where} ({took:.1f} s): {reason}", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
