"""The README's Library example runs, and its ``# value`` comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The first python block of the README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    return section.split("```python\n")[1].split("```")[0]


def test_library_block_runs_as_documented():
    source = library_block()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    # Each "expression  # value" line: the value is the expression's repr.
    claims = re.findall(r"^(\S.*?)\s+# (.+)$", source, re.MULTILINE)
    assert [value for _, value in claims] == [
        "'17/5'", "7", "'2 - 4t + 5t^2 - 4t^3 + 2t^4'", "17"]
    for expr, value in claims:
        assert repr(eval(expr, namespace)) == value, expr
