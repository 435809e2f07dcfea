"""The harmonicknots benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process and one thread run the workload as a closed loop with a
single caller, in as many whole rounds (see ``workloads.py``) as bring
the run closest to ``--seconds``.  Every output is checked (``gate.py``); a
failed check makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
inputs twice, untraced and then traced (``spans.py``), and prints the
per-layer metrics; the spans are written to ``.bench_runs/``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

sys.path.insert(0, str(BENCH))
import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# One thread: numpy's BLAS pool would otherwise start a thread per core.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}

SETUP_SPAWNS = 11
IMPORTTIME_SPAWNS = 3
SETUP_CODE = """\
from time import perf_counter
t0 = perf_counter()
import harmonicknots
from harmonicknots import knotnames
t1 = perf_counter()
knotnames.records()
print(perf_counter() - t1)
"""

END_TO_END = {
    "setup_s": "s",
    "curves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "invariants.alexander.busy_s": "s/curve",
    "invariants.determinant.busy_s": "s/curve",
    "invariants.wirtinger.calls_per_curve": "calls/curve",
    "invariants.minor_dim": "rows",
    "invariants.alexander_degree": "degree",
    "chebgeom.enumerate_crossings.busy_s": "s/curve",
    "chebgeom.enumerate_crossings.calls_per_curve": "calls/curve",
    "diagram.build_gauss_code.self_s": "s/curve",
    "diagram.read_conway_from_diagram.self_s": "s/curve",
    "diagram.diagram_from_conway.busy_s": "s/curve",
    "cfrac.busy_s": "s/curve",
    "classify.reduce_c.busy_s": "s/curve",
    "classify.reduce_c.calls_per_curve": "calls/curve",
    "classify.canonical_h4.busy_s": "s/curve",
    "classify.analyze.self_s": "s/curve",
    "knotnames.lookup.busy_s": "s/curve",
    "knotnames.records.load_s": "s",
    "render.render_xy.busy_s": "s/curve",
    "render.render_billiard.busy_s": "s/curve",
    "render.svg_bytes": "bytes/curve",
    "cli.main.self_s": "s/curve",
    "setup.import_s": "s",
    "setup.import_numpy_s": "s",
    "trace.curve_s": "s/curve",
    "trace.overhead_ratio": "ratio",
}


class Setup(Exception):
    """The checkout cannot run the benchmark."""


class CurveFailed(Exception):
    """The CLI exited with a code other than 0."""


def spawn_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", SETUP_CODE],
                          env=spawn_env(), capture_output=True, text=True,
                          check=True, timeout=60)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package and
    loading the knot table."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        spawn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_profile() -> dict[str, float]:
    """Medians from ``python -X importtime``: the package's cumulative
    import, numpy's share of it, and the first ``records()`` call."""
    cols = {"setup.import_s": [], "setup.import_numpy_s": [],
            "knotnames.records.load_s": []}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = spawn("-X", "importtime")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        cols["setup.import_s"].append(cumulative["harmonicknots"])
        cols["setup.import_numpy_s"].append(cumulative.get("numpy", 0.0))
        cols["knotnames.records.load_s"].append(float(proc.stdout))
    return {k: statistics.median(v) for k, v in cols.items()}


class Workload:
    """Runs one workload's curves and checks each output."""

    def __init__(self, name: str, seed: int, seed_data: dict,
                 reference: dict, modules: dict, scratch: Path):
        self.name, self.seed = name, seed
        self.seed_data, self.reference = seed_data, reference
        self.m = modules
        self.xy, self.billiard = scratch / "xy.svg", scratch / "billiard.svg"
        # The entry points the benchmark calls; ``trace`` wraps them.
        self.analyze, self.cli_main = modules["classify"].analyze, \
            modules["cli"].main
        self.tracer: Tracer | None = None
        self.left_out = 0

    def trace(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.analyze = tracer.wrap("classify.analyze", self.analyze)
        self.cli_main = tracer.wrap("cli.main", self.cli_main)

    def rounds(self):
        if self.name == "table-sweep":
            triples = self.m["classify"].enumerate_table_triples(
                workloads.TABLE_MAX_AB)
            return workloads.table_rounds(self.seed, triples)
        return workloads.interactive_rounds(self.seed, self.seed_failure)

    def seed_failure(self, triple) -> bool:
        """Whether the seed commit failed on H(triple).  The interactive
        draw leaves such curves out, so that no curve fails while the
        program is right; each one left out is counted."""
        failed = gate.failed_at_seed(triple, self.seed_data["reports"])
        self.left_out += failed
        return failed

    def run(self, seconds: float) -> dict:
        """As many whole rounds as bring the run closest to ``seconds``:
        another starts only if it would end by ``seconds`` plus half a
        round, so the count is not decided by a few percent of noise."""
        stats = {"latency": [], "failed": [], "problems": [],
                 "svg_bytes": 0, "curves": 0}
        start = perf_counter()
        for round_ in self.rounds():
            round_start = perf_counter()
            for triple in round_:
                self.one(triple, stats)
            now = perf_counter()
            if now - start + (now - round_start) / 2 > seconds:
                break
        return stats

    def one(self, triple, stats: dict) -> None:
        curve = stats["curves"]
        stats["curves"] += 1
        if self.tracer is not None:
            self.tracer.curve = curve
        call = self.interactive if self.name == "interactive" else self.library
        t0 = perf_counter()
        try:
            result = call(triple)
        except Exception as exc:  # a raising curve is a failed curve
            result = exc
        stats["latency"].append(perf_counter() - t0)
        if isinstance(result, Exception):
            stats["failed"].append(f"H{triple}: {result!r}")
            if not gate.failed_at_seed(triple, self.seed_data["reports"]):
                stats["problems"].append(
                    f"H{triple}: failed, but the seed commit did not")
            return
        try:
            self.check(triple, result, stats)
        except (ValueError, KeyError, TypeError) as exc:
            stats["problems"].append(f"H{triple}: unreadable output {exc!r}")

    def library(self, triple):
        report = self.analyze(self.m["chebgeom"].HarmonicTriple(*triple))
        return report, self.m["cli"]._fraction_text(report)

    def interactive(self, triple):
        argv = ["analyze", *map(str, triple), "--json",
                "--svg", str(self.xy), "--billiard", str(self.billiard)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise CurveFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, triple, result, stats: dict) -> None:
        problems = stats["problems"]
        if self.name == "interactive":
            report = json.loads(result)
            xy, billiard = self.xy.read_text(), self.billiard.read_text()
            stats["svg_bytes"] += len(xy.encode()) + len(billiard.encode())
            problems += gate.check_svgs(xy, billiard,
                                        len(report["crossings"]))
        else:
            analysis, fraction_text = result
            report = self.m["cli"]._report_json(analysis)
            problems += gate.check_row(triple, fraction_text, analysis.name,
                                       analysis.starred,
                                       self.seed_data["table_rows"],
                                       self.reference)
        problems += gate.check_report(report, triple,
                                      self.seed_data["reports"],
                                      self.reference)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(stats: dict, setup_s: float) -> dict[str, float]:
    lat = stats["latency"]
    ok = stats["curves"] - len(stats["failed"])
    return {
        "setup_s": setup_s,
        "curves_per_s": ok / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: dict, untraced: dict,
              profile: dict) -> dict[str, float]:
    n = traced["curves"]
    t = tracer.totals()

    def get(name, col):
        return t.get(name, {}).get(col, 0) / n

    out = {
        "invariants.alexander.busy_s": get("invariants.alexander", "busy"),
        "invariants.determinant.busy_s": get("invariants.determinant",
                                             "busy"),
        "invariants.wirtinger.calls_per_curve": get("invariants.wirtinger",
                                                    "calls"),
        "chebgeom.enumerate_crossings.busy_s": get(
            "chebgeom.enumerate_crossings", "busy"),
        "chebgeom.enumerate_crossings.calls_per_curve": get(
            "chebgeom.enumerate_crossings", "calls"),
        "diagram.build_gauss_code.self_s": get("diagram.build_gauss_code",
                                               "self"),
        "diagram.read_conway_from_diagram.self_s": get(
            "diagram.read_conway_from_diagram", "self"),
        "diagram.diagram_from_conway.busy_s": get(
            "diagram.diagram_from_conway", "busy"),
        "cfrac.busy_s": get("cfrac", "busy"),
        "classify.reduce_c.busy_s": get("classify.reduce_c", "busy"),
        "classify.reduce_c.calls_per_curve": get("classify.reduce_c",
                                                 "calls"),
        "classify.canonical_h4.busy_s": get("classify.canonical_h4", "busy"),
        "classify.analyze.self_s": get("classify.analyze", "self"),
        "knotnames.lookup.busy_s": get("knotnames.lookup", "busy"),
        "render.render_xy.busy_s": get("render.render_xy", "busy"),
        "render.render_billiard.busy_s": get("render.render_billiard",
                                             "busy"),
        "render.svg_bytes": traced["svg_bytes"] / n,
        "cli.main.self_s": get("cli.main", "self"),
        "trace.curve_s": sum(traced["latency"]) / n,
        "trace.overhead_ratio": (n / sum(traced["latency"]))
        / (untraced["curves"] / sum(untraced["latency"])),
    }
    for metric, sizes in tracer.sizes.items():
        out[metric] = statistics.fmean(sizes) if sizes else 0.0
    out.update(profile)
    return out


def load_package() -> dict:
    """Import the checkout's package, never an installed copy."""
    if not (SRC / "harmonicknots" / "__init__.py").is_file():
        raise Setup(f"no package at {SRC / 'harmonicknots'}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import importlib
    names = ("cfrac", "chebgeom", "classify", "cli", "diagram",
             "invariants", "knotnames", "render")
    modules = {n: importlib.import_module(f"harmonicknots.{n}")
               for n in names}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise Setup(f"imported {modules['cli'].__file__}, not {SRC}")
    modules["knotnames"].records()
    return modules


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    conftest = ROOT / "tests" / "conftest.py"
    seed_file = BENCH / "seed_digests.json"
    try:
        modules = load_package()
        for path in (conftest, seed_file):
            if not path.is_file():
                raise Setup(f"missing {path}")
    except Setup as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    reference = gate.load_reference_table(conftest)
    seed_data = json.loads(seed_file.read_text())

    spawn()  # writes the bytecode caches, so no timed spawn compiles
    if args.trace:
        profile = import_profile()
    else:
        setup_s = setup_seconds()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        work = Workload(args.workload, args.seed, seed_data, reference,
                        modules, Path(scratch))
        stats = [work.run(args.seconds)]
        if args.trace:
            work.trace(Tracer())
            with work.tracer.patched(modules):
                stats.append(work.run(args.seconds))
            work.tracer.write(
                OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    if args.trace:
        metrics, units = per_layer(work.tracer, stats[1], stats[0],
                                   profile), PER_LAYER
    else:
        metrics, units = end_to_end(stats[0], setup_s), END_TO_END
    attempted = sum(s["curves"] for s in stats)
    failed = [f for s in stats for f in s["failed"]]
    problems = [p for s in stats for p in s["problems"]]

    print(f"workload {args.workload}, seed {args.seed}: {attempted} curves "
          f"attempted, {len(failed)} failed, {len(problems)} output "
          f"problems; latency percentiles over {stats[-1]['curves']} "
          f"samples; {work.left_out} draws left out because the seed "
          f"commit fails on them")
    for line in (failed + problems)[:20]:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
