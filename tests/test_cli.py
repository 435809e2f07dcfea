import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from harmonicknots import chebgeom, classify, cli, diagram, render
from harmonicknots.cfrac import (SchubertFraction, fraction_candidate,
                                  positive_cf)
from harmonicknots.cli import main
from harmonicknots.diagram import GaussCode

from conftest import REFERENCE_TABLE, assert_same_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_pair(b, c):
    raise ValueError(f"{b} = {c} (mod 4) has no twist sequence")


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
        for triple, message in ((("2", "3", "4"), "2,4 not coprime"),
                                (("3", "3", "5"),
                                 "expected a < b, got a=3, b=3"),
                                (("0", "3", "5"),
                                 "degrees must be positive integers")):
            assert run(capsys, "analyze", *triple) == (
                2, "", f"error: {message}\n"), triple

    def test_crossing_count_is_limited(self, capsys):
        # N = (a-1)(b-1)/2 follows (a, b) alone, so a triple above the
        # limit is refused before any work, in either order of a and b.
        assert cli.ANALYZE_MAX_CROSSINGS == 2000
        for triple, name in ((("4", "1335", "1337"), "H(4,1335,1337)"),
                             (("2002", "3", "2003"), "H(3,2002,2003)")):
            start = time.perf_counter()
            assert run(capsys, "analyze", *triple, "--json") == (
                2, "", f"error: {name} has 2001 crossings, above the "
                "analyze limit of 2000\n"), triple
            assert time.perf_counter() - start < 1, triple
        code, out, _ = run(capsys, "analyze", "2", "4001", "3", "--json")
        assert code == 0 and len(json.loads(out)["crossings"]) == 2000

    def test_composite_note(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "7", "11")
        assert code == 0
        assert "perfect square" in out
        assert "4_1#4_1" in out

    def test_unknotted_curves_are_noted_once(self, capsys):
        # A degree 1 or a <= 2 leaves a coordinate with at most one
        # critical point; H(3,4,10^30+1) reduces to H(3,4,1), whose
        # fraction 1/0 gave the note before.  The text names the unknot;
        # the JSON keeps the name null, and the crossing number too,
        # except for a = 4, where the canonical form gives 0.
        for triple, crossing_number in (
                (("3", "5", "1"), None), (("2", "3", "5"), None),
                (("5", "6", "1"), None), (("1", "2", "3"), None),
                (("3", "4", "1"), None), (("3", "4", str(10 ** 30 + 1)), None),
                (("4", "5", "1"), 0), (("4", "7", "1"), 0)):
            code, out, _ = run(capsys, "analyze", *triple)
            assert code == 0, triple
            assert out.count("note: unknotted curve") == 1, triple
            assert out.splitlines()[-5:] == [
                "  crossing number: 0",
                "  alexander polynomial: 1",
                "  determinant: 1",
                "  name: unknot",
                "  note: unknotted curve"], triple
            data = json.loads(run(capsys, "analyze", *triple, "--json")[1])
            assert data["crossing_number"] == crossing_number, triple
            assert data["name"] is None, triple
        code, out, _ = run(capsys, "analyze", "3", "4", "5")
        assert "unknot" not in out

    def test_unknots_print_one_fraction(self, capsys):
        # H(4,7,1) has the fraction 1/-2, and H(3,4,1) and H(4,5,1) have
        # 1/0: one unknot, one line.
        for triple in (("3", "4", "1"), ("4", "5", "1"), ("4", "7", "1")):
            code, out, _ = run(capsys, "analyze", *triple)
            assert code == 0, triple
            assert "  two-bridge fraction: 1/0 [computed]" in \
                out.splitlines(), triple

    def test_family_prediction(self, capsys):
        code, out, _ = run(capsys, "analyze", "5", "6", "7")
        assert code == 0
        assert out.splitlines()[-1] == (
            "  note: family prediction: isotopic to two-bridge curve with "
            "degrees (4, 5, 7) (verified: matching Alexander polynomial and "
            "determinant)")

    def test_failed_family_prediction_exit_3(self, capsys, monkeypatch):
        # The trefoil's twist diagram in place of the predicted 5_2's.
        real = diagram.diagram_from_conway
        monkeypatch.setattr(diagram, "diagram_from_conway",
                            lambda form: real([3]))
        code, out, err = run(capsys, "analyze", "5", "6", "7")
        assert code == 3
        assert out == ""
        assert err.startswith("internal invariant failure: family prediction")

    @pytest.mark.parametrize("module, attr, fake, triple", [
        (chebgeom, "sign_sin", lambda real: lambda num, den: 0, "3 5 7"),
        (classify, "conway_form_h4", lambda real: reject_pair, "4 5 7"),
        (diagram, "diagram_from_conway",
         lambda real: lambda form: real([2]), "5 6 7"),
        (classify, "build_gauss_code", lambda real: lambda crossings:
         GaussCode(real(crossings).entries[:-1]), "3 5 7"),
    ], ids=["zero-sine", "h4-pair-rejected", "family-oracle-link",
            "truncated-gauss-code"])
    def test_fault_inside_the_pipeline_exit_3(self, capsys, monkeypatch,
                                              module, attr, fake, triple):
        # A library ValueError raised from inside analyze is the toolkit
        # calling itself wrongly, not bad input.
        monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
        code, out, err = run(capsys, "analyze", *triple.split())
        assert (code, out) == (3, "")
        assert err.startswith("internal invariant failure: ")

    def test_reduction_note(self, capsys):
        # The reduced triple is printed as the input triple is.
        code, out, _ = run(capsys, "analyze", "3", "4", "13")
        assert code == 0
        assert out.splitlines()[:2] == [
            "curve H(3,4,13)",
            "  reduces: c=5 (mirror); analysis below is for H(3,4,5) mirrored"]
        assert "3_1" in out

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
            assert_same_text(xy.read_bytes(), render.render_xy(K, options))
            assert_same_text(bil.read_text(encoding="utf-8"),
                             render.render_billiard(K, options))

    def test_json_is_the_plain_dump(self, capsys):
        # The CLI's encoder skips the cycle check; its text must be what
        # json.dumps prints.  Mixed: a table curve, swapped degrees, a
        # reduction with and without mirror, an unknot, a large c.
        for a, b, c in [(3, 5, 7), (5, 4, 7), (3, 4, 13), (3, 4, 19),
                        (2, 5, 7), (5, 7, 11), (4, 9, 1000003),
                        (5, 13, 1000003)]:
            code, out, _ = run(capsys, "analyze", str(a), str(b), str(c),
                               "--json")
            K = chebgeom.HarmonicTriple(min(a, b), max(a, b), c)
            assert code == 0
            assert out == json.dumps(
                cli._report_json(classify.analyze(K))) + "\n", (a, b, c)

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

    def test_dataclasses_never_load(self, tmp_path):
        # The value types are named tuples; ``dataclasses`` would bring
        # ``inspect`` with it, for memory and import time that nothing uses.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import sys\n"
            "from harmonicknots.cli import main\n"
            f"main(['analyze', '5', '7', '9', '--json', '--svg', "
            f"{str(tmp_path / 'xy.svg')!r}, '--billiard', "
            f"{str(tmp_path / 'billiard.svg')!r}])\n"
            "main(['cf', '9', '4'])\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "x.svg")
        expected = f"error: cannot write {bad}: No such file or directory\n"
        for flag in ("--svg", "--billiard"):
            assert run(capsys, "analyze", "3", "5", "7", flag,
                       bad) == (2, "", expected), flag

    def test_directory_output_exit_2(self, capsys, tmp_path):
        expected = f"error: cannot write {tmp_path}: Is a directory\n"
        for flag in ("--svg", "--billiard"):
            assert run(capsys, "analyze", "3", "5", "7", flag,
                       str(tmp_path)) == (2, "", expected), flag


class TestClosedStdout:
    """A reader that goes away early (``| head -1``) ends the run with exit
    1 and nothing on stderr."""

    def cli(self, argv, stdout):
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "harmonicknots.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src), stdout=stdout,
            stderr=subprocess.PIPE, text=True)

    def test_table_read_one_line(self):
        with self.cli(["table", "--max-ab", "72"], subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith("curve")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_analyze_into_a_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with self.cli(["analyze", "3", "4", "5"], write_end) as proc:
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 1
        finally:
            os.close(write_end)
        assert err == ""


class TestOutputFiles:
    """--svg and --billiard overwrite the target in place, as UTF-8."""

    OPTIONS = render.RenderOptions(annotate_signs=True)

    def expected(self, a, b, c):
        K = chebgeom.HarmonicTriple(a, b, c)
        return (render.render_xy(K, self.OPTIONS),
                render.render_billiard(K, self.OPTIONS).encode("utf-8"))

    def assert_drawings(self, xy, bil, triple):
        for path, want in zip((xy, bil), self.expected(*triple)):
            assert_same_text(path.read_bytes(), want)

    def test_longer_file_is_cut_to_the_drawing(self, capsys, tmp_path):
        xy, bil = tmp_path / "xy.svg", tmp_path / "billiard.svg"
        for path in (xy, bil):
            path.write_bytes(b"junk " * 20_000)
        code, _, _ = run(capsys, "analyze", "3", "5", "7", "--svg", str(xy),
                         "--billiard", str(bil))
        assert code == 0
        self.assert_drawings(xy, bil, (3, 5, 7))

    def test_null_device(self, capsys):
        code, _, _ = run(capsys, "analyze", "3", "5", "7", "--svg",
                         os.devnull, "--billiard", os.devnull)
        assert code == 0

    def test_symlink_is_written_through(self, capsys, tmp_path):
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        target.write_bytes(b"junk " * 20_000)
        link.symlink_to(target)
        assert run(capsys, "analyze", "3", "5", "7",
                   "--svg", str(link))[0] == 0
        assert link.is_symlink()
        assert_same_text(target.read_bytes(), self.expected(3, 5, 7)[0])

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        xy = tmp_path / "xy.svg"
        xy.write_bytes(b"junk")
        xy.chmod(0o604)
        assert run(capsys, "analyze", "3", "5", "7",
                   "--svg", str(xy))[0] == 0
        assert xy.stat().st_mode & 0o777 == 0o604
        assert_same_text(xy.read_bytes(), self.expected(3, 5, 7)[0])

    def cli_in(self, cwd, *argv, **env):
        src = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run(
            [sys.executable, "-m", "harmonicknots.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src, **env), cwd=cwd,
            capture_output=True, timeout=20)

    def test_files_are_utf8_in_an_ascii_locale(self, tmp_path):
        # The sign labels hold U+2212, which the C locale cannot encode.
        done = self.cli_in(tmp_path, "analyze", "3", "5", "7",
                           "--svg", "out.svg", "--billiard", "bil.svg",
                           LC_ALL="C", PYTHONUTF8="0",
                           PYTHONCOERCECLOCALE="0")
        assert done.returncode == 0, done.stderr
        self.assert_drawings(tmp_path / "out.svg", tmp_path / "bil.svg",
                             (3, 5, 7))

    def test_stdout_pipe_gets_the_drawing(self, tmp_path):
        # /proc/self/fd/1 is where /dev/stdout points; unlike /dev/stdout
        # it cannot be unlinked, so a broken writer cannot replace it.
        done = self.cli_in(tmp_path, "analyze", "3", "5", "7", "--json",
                           "--svg", "/proc/self/fd/1")
        assert done.returncode == 0, done.stderr
        drawing = self.expected(3, 5, 7)[0]
        assert_same_text(done.stdout[:len(drawing)], drawing)
        assert json.loads(done.stdout[len(drawing):])["name"] == "4_1"


WRITERS = ("open", "write_text", "write_bytes")


def file_writes(source, allowed=()):
    """(line, name) for each call of open, write_text or write_bytes, by
    name or as an attribute, outside the functions named in ``allowed``."""
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in allowed:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if name in WRITERS:
                found.append((node.lineno, name))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_one_file_writer():
    # A second writer would bring back the truncating open.
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        allowed = ("_write_output",) if path.stem == "cli" else ()
        assert file_writes(path.read_text(), allowed) == [], path.name


def test_file_writer_guard_catches_each_call():
    assert file_writes(
        "import io, os\n"
        "def _write_output(p):\n"
        "    os.open(p, os.O_WRONLY)\n"
        "def other(p):\n"
        "    with open(p, 'w') as fh: pass\n"
        "io.open(p)\n"
        "Path(p).write_text('x')\n"
        "p.write_bytes(b'x')\n"
        "os.open(p, os.O_WRONLY)\n", ("_write_output",)) == [
        (5, "open"), (6, "open"), (7, "write_text"), (8, "write_bytes"),
        (9, "open")]
    assert file_writes("open(p)\n", ("_write_output",)) == [(1, "open")]
    assert file_writes("def f(p):\n    return open(p)\n") == [(2, "open")]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", "")


def error_rule_breaches(source, module):
    """(line, what) for each exception class defined outside ``errors`` and
    each ``raise InputError`` outside ``HarmonicTriple`` and ``cli``."""
    found = []
    stack = [(ast.parse(source), module == "cli")]
    while stack:
        node, input_ok = stack.pop()
        if isinstance(node, ast.ClassDef):
            if module != "errors" and any(
                    _name(base).endswith(("Error", "Exception"))
                    for base in node.bases):
                found.append((node.lineno, f"class {node.name}"))
            input_ok = input_ok or node.name == "HarmonicTriple"
        if isinstance(node, ast.Raise) and not input_ok:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) == "InputError":
                found.append((node.lineno, "raise InputError"))
        stack.extend((child, input_ok) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_errors_by_cause():
    # Invalid input is named only where argv reaches the package; anything
    # else that raises is the toolkit's own fault (exit 3).
    package = Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert error_rule_breaches(path.read_text(), path.stem) == [], \
            path.name
    tree = ast.parse((package / "errors.py").read_text())
    assert [node.name for node in tree.body
            if isinstance(node, ast.ClassDef)] == ["InputError",
                                                   "InternalError"]


def test_error_guard_catches_each_breach():
    source = (
        "class BadTriple(ValueError): pass\n"
        "class Derived(errors.InputError): pass\n"
        "class Plain: pass\n"
        "class HarmonicTriple:\n"
        "    def __post_init__(self):\n"
        "        raise InputError('bad')\n"
        "def check(x):\n"
        "    raise InputError(x)\n"
        "raise errors.InputError\n"
        "raise ValueError('x')\n")
    assert error_rule_breaches(source, "chebgeom") == [
        (1, "class BadTriple"), (2, "class Derived"),
        (8, "raise InputError"), (9, "raise InputError")]
    assert error_rule_breaches(source, "cli") == [
        (1, "class BadTriple"), (2, "class Derived")]
    assert error_rule_breaches(source, "errors") == [
        (8, "raise InputError"), (9, "raise InputError")]


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

    def test_bound_is_limited(self, capsys, monkeypatch):
        # Past the limit, table is refused with the limit named; at a
        # lowered limit, the bound itself still runs.
        assert cli.TABLE_MAX_AB == 200
        for bound in ("201", "1000"):
            assert run(capsys, "table", "--max-ab", bound) == (
                2, "", f"error: --max-ab {bound} is above the table limit "
                "of 200\n"), bound
        monkeypatch.setattr(cli, "TABLE_MAX_AB", 8)
        code, out, _ = run(capsys, "table", "--max-ab", "8")
        assert code == 0 and out.endswith(" curves\n")
        assert run(capsys, "table", "--max-ab", "9") == (
            2, "", "error: --max-ab 9 is above the table limit of 8\n")

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
        odd = "alpha must be odd and positive, got"
        for pair, message in ((("6", "2"), f"{odd} 6"),
                              (("4", "3"), f"{odd} 4"),
                              (("9", "3"), "9/3 is not reduced")):
            assert run(capsys, "cf", *pair) == (
                2, "", f"error: {message}\n"), pair

    def test_alpha_is_bounded(self, capsys):
        # The largest odd alpha within the limit runs; the next is refused
        # with the limit named.
        assert cli.CF_MAX_ALPHA == 10 ** 5
        code, out, err = run(capsys, "cf", "99999", "2")
        assert (code, err) == (0, "")
        assert out.startswith("fraction: 99999/2 ")
        for alpha in ("100001", "1000001"):
            assert run(capsys, "cf", alpha, "2") == (
                2, "", f"error: alpha {alpha} is above the cf limit of "
                "100000\n"), alpha

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


def stdout_digest(argvs):
    """sha256 of the stdout of ``main`` run on each argv in turn; each run
    must exit 0."""
    digest = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0, argv
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


class TestByteContract:
    """The outputs that every refactor must leave byte for byte the same,
    pinned by digest."""

    def test_table(self):
        assert stdout_digest([["table", "--max-ab", "72"]]) == (
            "8f4411abe80d73a8aba77f357252a28cfb8e0d126a2d6e6ce84802ca08f1097a")

    def test_analyze_json_on_the_table(self):
        triples = classify.enumerate_table_triples(72)
        assert len(triples) == 431
        assert stdout_digest([["analyze", *map(str, t), "--json"]
                              for t in triples]) == (
            "03d107cdf319a1c783706332ad20b630712f7668817ec55070b4cc27991b18bb")

    def test_cf_on_every_small_fraction(self):
        # Every odd alpha < 200 with each coprime beta, |beta| <= alpha.
        argvs = [["cf", str(alpha), str(beta)] for alpha in range(1, 200, 2)
                 for beta in range(-alpha, alpha + 1) if gcd(alpha, beta) == 1]
        assert len(argvs) == 16_303
        assert stdout_digest(argvs) == (
            "4db35bc003fb0d25aac8e215fcde13dd76b6140830ef8733a9800ba57286cfdb")
