"""Record the reference outcomes that the output gate compares against.

    python3 bench/record_seed.py

Run it at the commit whose outputs are the reference (it was run at the
commit that added the benchmark; rerunning it later would only pin the
gate to whatever that later code prints).  For every curve a workload
can produce it stores either the digest of the ``analyze --json`` fields
that describe the reduced curve, or the exit code the CLI gave; for each
curve of ``table --max-ab TABLE_MAX_AB`` it also stores the fraction text
and the star that its row shows.  Writes ``bench/seed_digests.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from harmonicknots import cli  # noqa: E402
from harmonicknots.chebgeom import HarmonicTriple  # noqa: E402
from harmonicknots.classify import (analyze,  # noqa: E402
                                    enumerate_table_triples)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    reference = gate.load_reference_table(ROOT / "tests" / "conftest.py")
    reports: dict[str, str] = {}

    for triple in workloads.interactive_reduced():
        code, out = run_cli(["analyze", *map(str, triple), "--json"])
        reports[gate.key(triple)] = (gate.body_digest(json.loads(out))
                                     if code == 0 else f"exit:{code}")

    rows: dict[str, list] = {}
    for triple in enumerate_table_triples(workloads.TABLE_MAX_AB):
        report = analyze(HarmonicTriple(*triple))
        digest = gate.body_digest(cli._report_json(report))
        if reports.setdefault(gate.key(triple), digest) != digest:
            raise SystemExit(f"library and CLI reports of H{triple} differ")
        rows[gate.key(triple)] = [cli._fraction_text(report), report.starred]

    seed = {"reports": reports, "table_rows": rows}
    for triple in reference:
        if gate.key(triple) not in reports:
            raise SystemExit(f"reference curve H{triple} not recorded")
    (BENCH / "seed_digests.json").write_text(
        json.dumps(seed, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
