import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from harmonicknots import chebgeom, classify, cli, render
from harmonicknots.cfrac import (SchubertFraction, fraction_candidate,
                                  positive_cf)
from harmonicknots.cli import main
from harmonicknots.invariants import LaurentPoly

from conftest import REFERENCE_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "5", "7", "--json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"triple", "reductions", "crossings",
                             "gauss_code", "conway", "fraction",
                             "crossing_number", "alexander", "determinant",
                             "name"}
        assert data["triple"] == [3, 5, 7]
        assert data["fraction"]["alpha"] == 5
        assert data["name"] == "4_1"
        assert data["alexander"] == [1, -3, 1]
        assert data["determinant"] == 5
        assert data["crossing_number"] == 4
        assert len(data["gauss_code"]) == 8
        assert all(e["passage"] in ("O", "U") for e in data["gauss_code"])

    def test_invalid_triple_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "2", "3", "4")
        assert code == 2
        assert "2,4" in err

    def test_composite_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "7", "11")
        assert code == 0
        assert "perfect square" in out
        assert "4_1#4_1" in out

    def test_unknotted_curves_are_noted_once(self, capsys):
        # A degree 1 or a <= 2 leaves a coordinate with at most one
        # critical point; H(3,4,10^30+1) reduces to H(3,4,1), whose
        # fraction 1/0 gave the note before.
        for triple in (("2", "3", "5"), ("5", "6", "1"), ("1", "2", "3"),
                       ("3", "4", str(10 ** 30 + 1))):
            code, out, _ = run(capsys, "analyze", *triple)
            assert code == 0, triple
            assert out.count("note: unknotted curve") == 1, triple
        code, out, _ = run(capsys, "analyze", "3", "4", "5")
        assert "unknotted" not in out

    def test_family_prediction(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "6", "7")
        assert code == 0
        assert out.splitlines()[-1] == (
            "  note: family prediction: isotopic to two-bridge curve with "
            "degrees (4, 5, 7) (verified: matching Alexander polynomial and "
            "determinant)")

    def test_failed_family_prediction_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(classify, "alexander_of_fraction",
                            lambda cf: LaurentPoly.from_coeffs([1]))
        code, out, err = run(capsys, "analyze", "5", "6", "7")
        assert code == 3
        assert out == ""
        assert err.startswith("internal invariant failure: family prediction")

    def test_reduction_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "3", "4", "13")
        assert code == 0
        assert "H(3, 4, 5)" in out and "3_1" in out

    def test_degree_swap(self, capsys):
        code, out, _ = run(capsys, "analyze", "4", "3", "5")
        assert code == 0
        assert "reordered" in out and "1 - t + t^2" in out

    def test_svg_outputs(self, capsys, tmp_path):
        svg = tmp_path / "xy.svg"
        bil = tmp_path / "billiard.svg"
        code, _, _ = run(capsys, "analyze", "3", "4", "5",
                         "--svg", str(svg), "--billiard", str(bil))
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert bil.read_text().startswith("<svg")

    def test_drawings_reuse_the_crossing_list(self, capsys, tmp_path,
                                             monkeypatch):
        calls = []
        for module in (chebgeom, classify, render):
            def counted(K, _original=module.enumerate_crossings):
                calls.append((K.a, K.b, K.c))
                return _original(K)
            monkeypatch.setattr(module, "enumerate_crossings", counted)
        paths = ["--svg", str(tmp_path / "xy.svg"),
                 "--billiard", str(tmp_path / "billiard.svg")]
        # Each curve is enumerated once, for the report and both drawings;
        # a reducible one as its reduced triple.
        assert run(capsys, "analyze", "4", "5", "7", *paths)[0] == 0
        assert calls == [(4, 5, 7)]
        calls.clear()
        assert run(capsys, "analyze", "3", "4", "13", *paths)[0] == 0
        assert calls == [(3, 4, 5)]

    def test_drawings_of_a_reducible_triple(self, capsys, tmp_path):
        # H(3,4,13) reduces once (mirrored), H(3,4,19) twice (not
        # mirrored); the files must show the input triple.
        xy, bil = tmp_path / "xy.svg", tmp_path / "billiard.svg"
        options = render.RenderOptions(annotate_signs=True)
        for c in ("13", "19"):
            assert run(capsys, "analyze", "3", "4", c, "--svg", str(xy),
                       "--billiard", str(bil))[0] == 0
            K = chebgeom.HarmonicTriple(3, 4, int(c))
            assert xy.read_text() == render.render_xy(K, options)
            assert bil.read_text() == render.render_billiard(K, options)

    def test_huge_degree_finishes(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "harmonicknots.cli", "analyze", "3", "4",
             "100000000001", "--json"],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        data = json.loads(done.stdout)
        assert data["reductions"] == [
            {"from_c": 100000000001, "to_c": 1, "mirrored": True}]

    def test_rational_types_never_load(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys\n"
            "from harmonicknots import HarmonicTriple, analyze\n"
            "from harmonicknots.cli import main\n"
            "analyze(HarmonicTriple(3, 4, 5))\n"
            "main(['cf', '9', '4'])\n"
            "print(sorted({'fractions', 'decimal', 'numbers'}"
            " & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "x.svg")
        for flag in ("--svg", "--billiard"):
            code, _, err = run(capsys, "analyze", "3", "5", "7", flag, bad)
            assert code == 2, flag
            assert err.startswith("error: ") and bad in err, flag


class TestTableCommand:
    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("H(")]
        assert len(lines) == 51
        rows = {}
        for line in lines:
            parts = line.split()
            triple = tuple(int(x) for x in parts[0][2:-1].split(","))
            rest = parts[1:]
            frac = rest[0] if len(rest) == 2 else None
            name = rest[-1]
            rows[triple] = (frac, name)
        for triple, frac, name, starred in REFERENCE_TABLE:
            shown_frac, shown_name = rows[triple]
            assert shown_name == name + ("*" if starred else ""), triple
            assert shown_frac == frac, triple

    def test_small_bound(self, capsys):
        code, out, _ = run(capsys, "table", "--max-ab", "8")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("H(")]
        triples = {l.split()[0] for l in lines}
        assert "H(3,4,5)" in triples and "H(3,5,7)" in triples
        assert all(l.startswith("H(3,4") or l.startswith("H(3,5")
                   for l in lines)


# `cf` output of the twist knots 5_2 (7/2, 7/4) and of the (2n^2+1)/(2n)
# fractions 9/4 and 19/6, pinned verbatim.
CF_TEXT = {
    ("7", "2"): "fraction: 7/2 (canonical 7/2)\n"
    "positive expansion of 7/2: [3, 2]  crossing number 5\n"
    "representative 7/2: beta^2 = 4, not +-2 (mod 7); expansion "
    "[1, 2, -1, 2, 1, 2]  [two consecutive sign changes]\n"
    "representative 7/4: beta^2 = +2 (mod 7); expansion [1, 2, -1, -2]\n",
    ("7", "4"): "fraction: 7/4 (canonical 7/2)\n"
    "positive expansion of 7/4: [1, 1, 3]  crossing number 5\n"
    "representative 7/2: beta^2 = 4, not +-2 (mod 7); expansion "
    "[1, 2, -1, 2, 1, 2]  [two consecutive sign changes]\n"
    "representative 7/4: beta^2 = +2 (mod 7); expansion [1, 2, -1, -2]\n",
    ("9", "4"): "fraction: 9/4 (canonical 9/2)\n"
    "positive expansion of 9/4: [2, 4]  crossing number 6\n"
    "representative 9/2: beta^2 = 4, not +-2 (mod 9); expansion "
    "[1, 2, -1, 2, 1, 2, -1, 2, 1, -2]  [two consecutive sign changes]\n"
    "representative 9/4: beta^2 = -2 (mod 9); expansion "
    "[1, 2, -1, 2, 1, -2, 1, 2]  [two consecutive sign changes]\n",
    ("19", "6"): "fraction: 19/6 (canonical 19/3)\n"
    "positive expansion of 19/6: [3, 6]  crossing number 9\n"
    "representative 19/6: beta^2 = -2 (mod 19); expansion "
    "[1, 2, -1, 2, 1, 2, 1, -2, 1, 2]  [two consecutive sign changes]\n"
    "representative 19/16: beta^2 = 9, not +-2 (mod 19); expansion "
    "[1, 2, 1, -2, 1, 2, -1, -2]  [two consecutive sign changes]\n",
}


class TestCfCommand:
    def test_pinned_texts(self, capsys):
        for (alpha, beta), text in CF_TEXT.items():
            assert run(capsys, "cf", alpha, beta) == (0, text, ""), alpha

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []

        def counted(self, *args, _original=argparse.ArgumentParser.__init__,
                    **kwargs):
            built.append(kwargs.get("prog"))
            _original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        try:
            for alpha, beta in CF_TEXT:
                assert run(capsys, "cf", alpha, beta)[0] == 0
        finally:
            cli._parser.cache_clear()
        # The root parser and its three subcommands, once for all calls.
        assert len(built) == 4

    def test_nine_four(self, capsys):
        code, out, _ = run(capsys, "cf", "9", "4")
        assert code == 0
        assert "[1, 2, -1, 2, 1, -2, 1, 2]" in out
        assert "two consecutive sign changes" in out
        assert "-2 (mod 9)" in out

    def test_seven_two(self, capsys):
        code, out, _ = run(capsys, "cf", "7", "2")
        assert code == 0
        assert "7/4" in out
        assert "[1, 2, -1, -2]" in out

    def test_five_two(self, capsys):
        code, out, _ = run(capsys, "cf", "5", "2")
        assert code == 0
        assert "crossing number 4" in out

    def test_beta_above_alpha(self, capsys):
        code, out, _ = run(capsys, "cf", "3", "100")
        assert code == 0
        assert out.splitlines()[1].endswith("crossing number 3")

    def test_unknot(self, capsys):
        for beta in ("5", "1"):
            code, out, _ = run(capsys, "cf", "1", beta)
            assert code == 0, beta
            assert out.splitlines()[-1].endswith("crossing number 0"), beta

    def test_beta_sq_status_follows_the_candidate(self, capsys):
        # Every even representative of every fraction with odd alpha up to
        # 201: its line says "not +-2" exactly when the candidate fails
        # beta^2 = +-2 (mod alpha).
        for alpha in range(3, 202, 2):
            evens = {b for b in range(2, alpha, 2) if gcd(alpha, b) == 1}
            shown = set()
            for beta in sorted(evens):
                if beta in shown:
                    continue
                code, out, _ = run(capsys, "cf", str(alpha), str(beta))
                assert code == 0
                for line in out.splitlines()[2:]:
                    rep = int(line.split(":")[0].split("/")[1])
                    failed = not fraction_candidate(alpha, rep).passes_beta_sq
                    assert ("not +-2" in line) == failed, (alpha, rep)
                    shown.add(rep)
            assert shown == evens, alpha

    def test_invalid_inputs(self, capsys):
        assert run(capsys, "cf", "6", "2")[0] == 2
        assert run(capsys, "cf", "9", "3")[0] == 2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 499).map(lambda k: 2 * k + 1).flatmap(
        lambda alpha: st.tuples(st.just(alpha),
                                st.integers(-2 * alpha, 2 * alpha))))
    def test_crossing_number_is_euclidean_sum(self, pair):
        alpha, beta = pair
        assume(gcd(alpha, beta) == 1)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["cf", str(alpha), str(beta)]) == 0
        printed = int(out.getvalue().splitlines()[1].rsplit(" ", 1)[1])
        fraction = SchubertFraction(alpha, beta)
        expected = 0 if alpha == 1 else sum(positive_cf(SchubertFraction(
            alpha, min(fraction.equivalence_class()))))
        assert printed == expected, pair


def integer_args(n, lo, hi):
    return st.lists(st.integers(lo, hi).map(str), min_size=n, max_size=n)


FUZZED_ARGV = st.one_of(
    st.tuples(st.just(["analyze"]), integer_args(2, -2, 10),
              integer_args(1, -2, 60), st.sampled_from([[], ["--json"]])),
    st.tuples(st.just(["table", "--max-ab"]), integer_args(1, -2, 12)),
    st.tuples(st.just(["cf"]), integer_args(2, -40, 40)),
).map(lambda parts: [arg for part in parts for arg in part])


class TestFuzzedArgv:
    @settings(max_examples=300, deadline=None)
    @given(FUZZED_ARGV)
    def test_exit_code_is_0_2_or_3(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
