"""Output checks: a wrong answer never counts as a speed-up.

Every report the benchmark times is checked here, outside the timed
region, against four kinds of evidence:

* knot theory: Delta is palindromic with Delta(1) = +-1, the determinant
  is |Delta(-1)|, and for a <= 4 the fraction's alpha is the determinant;
* the reduction chain, recomputed here in O(1) per step;
* the 51 reference curves of ``tests/conftest.py`` (names and fractions);
* the seed commit's outcome for each curve, recorded by ``record_seed.py``:
  the digest of its ``analyze --json`` report, or its exit code, and for
  the table's curves the fraction and star its ``table`` row shows.
"""

from __future__ import annotations

import ast
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

# The seed commit's ``analyze --json`` fields that describe the reduced
# curve.  Later fields may be added; these must keep their values.
BODY_FIELDS = ("crossings", "gauss_code", "conway", "fraction",
               "crossing_number", "alexander", "determinant", "name")


def key(triple) -> str:
    return ",".join(str(x) for x in triple)


def body_digest(report: dict) -> str:
    body = {k: report[k] for k in BODY_FIELDS}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference_table(conftest: Path) -> dict:
    """{triple: (fraction text or None, name, starred)} from the test
    oracle, read without importing it (it imports pytest)."""
    tree = ast.parse(conftest.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "REFERENCE_TABLE"
                for t in node.targets):
            rows = ast.literal_eval(node.value)
            return {tuple(t): (f, n, s) for t, f, n, s in rows}
    raise ValueError(f"no REFERENCE_TABLE in {conftest}")


def reduced(triple) -> tuple[int, int, int]:
    """The irreducible triple that H(triple) reduces to."""
    a, b, c = triple
    chain = reduction_chain(a, b, c)
    return a, b, chain[-1]["to_c"] if chain else c


def failed_at_seed(triple, seed_reports: dict) -> bool:
    """Whether the seed commit failed on H(triple), so that a failure now
    is no regression."""
    return seed_reports.get(key(reduced(triple)), "").startswith("exit:")


def reduction_chain(a: int, b: int, c: int) -> list[dict]:
    """The ``reductions`` list of ``analyze --json`` for H(a, b, c).

    Each step replaces c = lam*a + mu*b (lam, mu >= 1) by the smallest
    |lam*a - mu*b| = |2*lam*a - c|.  The valid lam form one residue class
    mod b, so the minimizer is the class member nearest c/(2a).
    """
    steps, mirrored = [], False
    while True:
        lam0 = c * pow(a, -1, b) % b or b
        if lam0 * a > c - b:
            return steps
        kmax = (c - b - lam0 * a) // (a * b)
        k = min(max((c - 2 * a * lam0) // (2 * a * b), 0), kmax)
        new_c = min(abs(2 * (lam0 + j * b) * a - c)
                    for j in {k, min(k + 1, kmax)})
        mirrored = not mirrored
        steps.append({"from_c": c, "to_c": new_c, "mirrored": mirrored})
        c = new_c


def _parse_fraction(text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def fractions_equivalent(f: tuple[int, int] | None,
                         g: tuple[int, int] | None) -> bool:
    """Same two-bridge knot up to mirror: equal alpha and
    beta' = +-beta^(+-1) (mod alpha)."""
    if f is None or g is None:
        return f == g
    (p, q), (r, s) = f, g
    if p != r:
        return False
    if p <= 1:
        return True
    s %= p
    return q % p in {s, -s % p, pow(s, -1, p), -pow(s, -1, p) % p}


def check_report(report: dict, triple, seed_reports: dict,
                 reference: dict) -> list[str]:
    """Problems with one ``analyze --json`` report of H(triple)."""
    a, b, c = triple
    problems = []
    if report.get("triple") != [a, b, c]:
        problems.append(f"triple {report.get('triple')} != {[a, b, c]}")
    chain = reduction_chain(a, b, c)
    if report.get("reductions") != chain:
        problems.append("reductions differ from the recomputed chain")
    missing = [k for k in BODY_FIELDS if k not in report]
    if missing:
        return problems + [f"missing fields {missing}"]
    base = reduced(triple)
    coeffs = report["alexander"]
    if not coeffs or coeffs != coeffs[::-1]:
        problems.append(f"Alexander polynomial {coeffs} is not palindromic")
    if sum(coeffs) not in (1, -1):
        problems.append(f"Delta(1) = {sum(coeffs)}, not +-1")
    det = abs(sum(x if i % 2 == 0 else -x for i, x in enumerate(coeffs)))
    if report["determinant"] != det:
        problems.append(
            f"determinant {report['determinant']} != |Delta(-1)| = {det}")
    fraction = report["fraction"]
    if a <= 4 and (fraction is None or fraction["alpha"] != det):
        problems.append(f"fraction {fraction} does not have alpha = {det}")
    expected = seed_reports.get(key(base))
    if expected is None:
        problems.append(f"no seed record for H{base}")
    elif not expected.startswith("exit") and body_digest(report) != expected:
        problems.append(f"report of H{base} differs from the seed commit")
    if base in reference:
        ref_fraction, ref_name, _ = reference[base]
        got = (fraction["alpha"], fraction["beta"]) if fraction else None
        if report["name"] != ref_name:
            problems.append(f"H{base} named {report['name']}, "
                            f"reference {ref_name}")
        if ref_fraction is not None and not fractions_equivalent(
                got, _parse_fraction(ref_fraction)):
            problems.append(f"H{base} fraction {got}, "
                            f"reference {ref_fraction}")
    return [f"H{tuple(triple)}: {p}" for p in problems]


def check_row(triple, fraction_text: str, name: str | None, starred: bool,
              seed_rows: dict, reference: dict) -> list[str]:
    """One ``table`` row: the fraction and star it shows are the seed
    commit's, and a reference curve keeps its name and fraction."""
    problems = []
    seed_row = seed_rows.get(key(triple))
    if seed_row != [fraction_text, starred]:
        problems.append(f"shows {fraction_text!r}{'*' if starred else ''}, "
                        f"seed commit {seed_row}")
    if triple in reference:
        ref_fraction, ref_name, ref_starred = reference[triple]
        if (name, starred) != (ref_name, ref_starred):
            problems.append(
                f"named {name}{'*' if starred else ''}, "
                f"reference {ref_name}{'*' if ref_starred else ''}")
        if not fractions_equivalent(_parse_fraction(fraction_text),
                                    _parse_fraction(ref_fraction)):
            problems.append(f"fraction {fraction_text!r}, "
                            f"reference {ref_fraction!r}")
    return [f"H{tuple(triple)} row: {p}" for p in problems]


def check_svgs(xy: str, billiard: str, crossings: int) -> list[str]:
    """Both SVGs parse as XML; the billiard marks every crossing once."""
    problems = []
    roots = {}
    for label, text in (("xy", xy), ("billiard", billiard)):
        try:
            roots[label] = ET.fromstring(text)
        except ET.ParseError as exc:
            problems.append(f"{label} SVG is not XML: {exc}")
    if "billiard" in roots:
        marks = sum(1 for el in roots["billiard"].iter()
                    if el.tag.rsplit("}", 1)[-1] == "circle")
        if marks != crossings:
            problems.append(
                f"billiard SVG has {marks} crossing marks, not {crossings}")
    return problems
