import ast
import importlib
import math
import random
from pathlib import Path

import pytest

from harmonicknots.exact import fold, sign_sin

from conftest import sign_cos


def test_sign_sin_examples():
    assert sign_sin(3, 10) == 1
    assert sign_sin(-4, 5) == -1
    assert sign_sin(2, 1) == 0


def test_sign_cos_examples():
    assert sign_cos(1, 2) == 0
    assert sign_cos(1, 3) == 1
    assert sign_cos(4, 5) == -1


def test_sign_sin_symmetry_and_period():
    rng = random.Random(101)
    for _ in range(500):
        q = rng.randint(1, 400)
        p = rng.randint(-400, 400)
        if p % q == 0:
            continue
        assert sign_sin(p, q) == -sign_sin(-p, q)
        assert sign_sin(p, q) == sign_sin(p + 2 * q, q)


def test_sign_sin_matches_float():
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.randint(1, 1000)
        p = rng.randint(-3000, 3000)
        value = math.sin(math.pi * p / q)
        if abs(value) < 1e-9:
            continue
        assert sign_sin(p, q) == (1 if value > 0 else -1)


def test_folded_range_and_cos_value():
    rng = random.Random(13)
    for _ in range(1000):
        q = rng.randint(1, 500)
        p = rng.randint(-2000, 2000)
        f = fold(p, q)
        assert 0 <= f <= q
        assert math.cos(math.pi * f / q) == pytest.approx(
            math.cos(math.pi * p / q), abs=1e-9)


def test_compare_cos_against_double_precision():
    # Over a common denominator, a larger folded numerator is a smaller
    # cosine.
    rng = random.Random(42)
    checked = 0
    for _ in range(10_000):
        q1, q2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
        p1, p2 = rng.randint(-3 * 10**6, 3 * 10**6), rng.randint(-3 * 10**6, 3 * 10**6)
        ca, cb = math.cos(math.pi * p1 / q1), math.cos(math.pi * p2 / q2)
        if abs(ca - cb) <= 1e-9:
            continue
        checked += 1
        fa, fb = fold(p1 * q2, q1 * q2), fold(p2 * q1, q1 * q2)
        assert fa != fb
        assert (fa < fb) == (ca > cb)
    assert checked > 9000


# The modules that decide signs, orderings and invariants.  ``render`` and
# ``cli`` only write output, so they may use floating point.
DECISION_MODULES = ("exact", "chebgeom", "diagram", "invariants", "classify",
                    "cfrac", "knotnames")


INEXACT_MODULES = ("math", "fractions", "decimal")


def float_uses(source):
    """(line, what) for each float() call, float literal, true division
    (int / int is a float), and import of fractions, decimal or math
    other than gcd and isqrt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float,
                                                                    complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name in INEXACT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "fractions", "decimal"):
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = sorted({alias.name for alias in node.names}
                           - {"gcd", "isqrt"})
            if names:
                found.append((node.lineno, f"from math import {names}"))
    return found


@pytest.mark.parametrize("module", DECISION_MODULES)
def test_no_floating_point_in_decisions(module):
    path = importlib.import_module(f"harmonicknots.{module}").__file__
    source = Path(path).read_text()
    assert float_uses(source) == []


def test_float_guard_catches_each_construct():
    assert sorted(float_uses(
        "import math\n"
        "from math import gcd, cos\n"
        "x = float(3) + 0.5 + 1e3\n"
        "y = 2j\n"
        "z = 1 / 2\n"
        "z /= 3\n"
        "import fractions, decimal\n"
        "from fractions import Fraction\n"
        "from decimal import Decimal\n")) == [
        (1, "import math"), (2, "from math import ['cos']"),
        (3, "float() call"), (3, "literal 0.5"), (3, "literal 1000.0"),
        (4, "literal 2j"), (5, "true division"), (6, "true division"),
        (7, "import decimal"), (7, "import fractions"),
        (8, "from fractions import"), (9, "from decimal import")]
    assert float_uses("from math import gcd, isqrt\nx = 3 // 2\n") == []


def dead_names(sources, exported):
    """(module, line, name) for each module-level function, class or
    assignment outside ``exported`` that no other top-level statement of
    any module loads, by name or as an attribute.  ``sources`` maps module
    names to their source text; a self-reference inside the definition
    does not count."""
    definitions = []
    loads_by_statement = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            loads = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in ast.walk(node)
                     if isinstance(n, ast.Attribute)
                     or (isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load))}
            loads_by_statement.append(loads)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            definitions += [(module, node.lineno, name, loads)
                            for name in names if not name.endswith("__")
                            and name not in exported]
    return [(module, line, name) for module, line, name, own in definitions
            if not any(name in loads for loads in loads_by_statement
                       if loads is not own)]


def test_no_dead_private_helpers():
    # Covers public names too: a name outside __all__ that no package code
    # loads is reachable only from tests, and belongs there.
    package_module = importlib.import_module("harmonicknots")
    package = Path(package_module.__file__).parent
    sources = {path.stem: path.read_text()
               for path in sorted(package.glob("*.py"))}
    assert dead_names(sources, package_module.__all__) == []


def test_dead_helper_guard_catches_each_definition():
    assert dead_names({
        "a": "def _used(): pass\n"
             "def _recursive(): return _recursive()\n"
             "_ATTR = 1\n"
             "_annotated: int = 2\n"
             "class _Imported: pass\n"
             "_left, _right = 3, 4\n"
             "__version__ = '0'\n"
             "def public(): pass\n"
             "def listed(): pass\n"
             "class Called: pass\n"
             "LIMIT = 5\n",
        "b": "from a import _Imported\n"
             "import a\n"
             "print(_used(), a._ATTR, _right, a.Called())\n"},
        exported=("listed",)) == [
        ("a", 2, "_recursive"), ("a", 4, "_annotated"),
        ("a", 5, "_Imported"), ("a", 6, "_left"), ("a", 8, "public"),
        ("a", 11, "LIMIT")]
