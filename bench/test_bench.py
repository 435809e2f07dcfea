"""Tests of the benchmark itself: the output gate fires on wrong answers,
and every metric named in BENCHMARK.json is printed with its unit.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harmonicknots import classify, cli  # noqa: E402
from harmonicknots.chebgeom import HarmonicTriple  # noqa: E402
from harmonicknots.classify import analyze, reduce_c  # noqa: E402

SEED = json.loads((BENCH / "seed_digests.json").read_text())
REFERENCE = gate.load_reference_table(ROOT / "tests" / "conftest.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def report_of(triple):
    return cli._report_json(analyze(HarmonicTriple(*triple)))


def problems(report, triple=(3, 5, 7)):
    return gate.check_report(report, triple, SEED["reports"], REFERENCE)


def test_reduction_chain_matches_reduce_c():
    rng = random.Random(0)
    checked = 0
    while checked < 500:
        a, c = rng.randint(3, 9), rng.randint(1, 5000)
        b = rng.randint(a + 1, 25)
        if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
            expected = [{"from_c": s.from_c, "to_c": s.to_c,
                         "mirrored": s.mirrored}
                        for s in reduce_c(HarmonicTriple(a, b, c))]
            assert gate.reduction_chain(a, b, c) == expected
            checked += 1


@pytest.mark.parametrize("triple", [(3, 5, 7), (4, 7, 9), (5, 7, 11),
                                    (3, 4, 1000001)])
def test_correct_reports_pass(triple):
    assert problems(report_of(triple), triple) == []


def _corrupt(field, value):
    report = report_of((3, 5, 7))
    report[field] = value
    return report


@pytest.mark.parametrize("field,value", [
    ("alexander", [1, -3, 2]),      # not palindromic, Delta(1) = 0
    ("alexander", [1, -1, 1]),      # trefoil's: |Delta(-1)| = 3 != 5
    ("determinant", 7),
    ("fraction", {"alpha": 7, "beta": 2}),
    ("name", "3_1"),
    ("crossing_number", 5),
    ("reductions", [{"from_c": 7, "to_c": 1, "mirrored": True}]),
    ("triple", [3, 5, 11]),
])
def test_gate_fires_on_corrupted_report(field, value):
    assert problems(_corrupt(field, value))


def test_gate_fires_on_missing_field():
    report = report_of((3, 5, 7))
    del report["gauss_code"]
    assert problems(report)


def test_table_row_checks():
    def row(triple, fraction_text, name, starred=False):
        return gate.check_row(triple, fraction_text, name, starred,
                              SEED["table_rows"], REFERENCE)

    report = analyze(HarmonicTriple(3, 5, 7))
    shown = cli._fraction_text(report)
    assert row((3, 5, 7), shown, report.name, report.starred) == []
    assert row((3, 5, 7), shown, report.name, not report.starred)
    assert row((3, 5, 7), "5/1", "4_1")
    assert row((3, 14, 19), "77/34", "11a119")


def test_seed_failures_are_known():
    assert gate.failed_at_seed((3, 11, 4), SEED["reports"])
    assert not gate.failed_at_seed((3, 5, 7), SEED["reports"])
    assert not gate.failed_at_seed((3, 5, 1), {})


def test_interactive_draw_leaves_out_seed_failures():
    rounds = workloads.interactive_rounds(
        7, lambda t: gate.failed_at_seed(t, SEED["reports"]))
    triples = [t for _ in range(100) for t in next(rounds)]
    assert not any(gate.failed_at_seed(t, SEED["reports"]) for t in triples)
    everything = workloads.interactive_rounds(7)
    assert any(gate.failed_at_seed(t, SEED["reports"])
               for _ in range(100) for t in next(everything))


def test_svg_checks():
    K = HarmonicTriple(4, 7, 9)
    xy = cli.render_xy(K, cli.RenderOptions(annotate_signs=True))
    billiard = cli.render_billiard(K, cli.RenderOptions(annotate_signs=True))
    assert gate.check_svgs(xy, billiard, K.crossing_count) == []
    assert gate.check_svgs(xy[:-8], billiard, K.crossing_count)
    one_less = billiard.replace("<circle", "<ellipse", 1)
    assert gate.check_svgs(xy, one_less, K.crossing_count)


def run_bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_run_fails_on_a_wrong_report(monkeypatch):
    real = cli._report_json

    def wrong(report):
        data = real(report)
        data["determinant"] += 2
        return data

    monkeypatch.setattr(cli, "_report_json", wrong)
    code, _, result = run_bench("--workload", "interactive", "--seed", "3",
                                "--seconds", "0.1", "--trace", "0")
    assert code == 0 and result["correct"] is False


def test_run_fails_when_a_seed_curve_now_raises(monkeypatch):
    real = classify.analyze

    def analyze_raising_on_large_minors(K):
        if K.crossing_count > 12:
            raise RuntimeError("determinant overflow")
        return real(K)

    monkeypatch.setattr(classify, "analyze", analyze_raising_on_large_minors)
    monkeypatch.setattr(run.workloads, "table_rounds",
                        lambda seed, triples: iter([[(3, 5, 7), (5, 9, 22),
                                                     (3, 10, 17)]]))
    code, _, result = run_bench("--workload", "table-sweep", "--seed", "1",
                                "--seconds", "0.1", "--trace", "0")
    assert code == 0
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["correct"] is False


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    code, text, result = run_bench("--workload", "interactive", "--seed",
                                   "1", "--seconds", "0.1", "--trace",
                                   str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in text), name


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "interactive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
