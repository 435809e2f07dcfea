import re
from importlib import resources

from harmonicknots.cfrac import SchubertFraction
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.diagram import build_gauss_code
from harmonicknots.invariants import LaurentPoly, alexander
from harmonicknots.knotnames import (name_by_fraction, name_by_invariants,
                                     records)

from conftest import REFERENCE_TABLE, parse_fraction


def _crossing_number_of_name(name):
    """Sum of the leading crossing counts: 12n356 -> 12, 4_1#4_1 -> 8."""
    return sum(int(re.match(r"\d+", part)[0]) for part in name.split("#"))


def regenerate_table(text):
    """Recompute the table ``text``: its ``#`` header and its name,
    starred, fraction and source columns are kept, and the crossing number,
    determinant and Alexander coefficients are derived again."""
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            lines.append(line)
            continue
        name, starred, _, _, _, frac, source = (
            p.strip() for p in line.split("|"))
        a, b, c = (int(x) for x in source[2:-1].split(","))
        code = build_gauss_code(enumerate_crossings(HarmonicTriple(a, b, c)))
        delta = alexander(code)
        det = abs(delta(-1))
        assert frac == "-" or parse_fraction(frac).numerator == det, source
        coeffs = ",".join(str(x) for x in delta.coeffs)
        lines.append(
            f"{name} | {starred} | {_crossing_number_of_name(name)}"
            f" | {det} | {coeffs} | {frac} | {source}")
    return "\n".join(lines) + "\n"


def test_shipped_file_matches_regeneration():
    shipped = resources.files("harmonicknots").joinpath(
        "data/knot_table.txt").read_text()
    assert shipped == regenerate_table(shipped)


def test_row_count_and_sources():
    recs = records()
    assert len(recs) == 53  # 51 reference rows + 2 larger identified curves
    sources = {r.source for r in recs}
    for triple, _, _, _ in REFERENCE_TABLE:
        assert f"H{triple}".replace(" ", "") in sources


def test_fraction_lookup():
    rec = name_by_fraction(SchubertFraction(5, 2))
    assert rec.name == "4_1"
    rec = name_by_fraction(SchubertFraction(7, -2))  # mirror included
    assert rec.name == "5_2"
    assert name_by_fraction(SchubertFraction(9, 2)) is None
    # The unknot's fractions name nothing: no row has alpha 1.
    for beta in (0, 1, -2):
        assert name_by_fraction(SchubertFraction(1, beta)) is None, beta


def test_invariant_lookup_and_star():
    rec = name_by_invariants(LaurentPoly.from_coeffs([1, -3, 1]), 5, 10)
    assert rec.name == "4_1" and not rec.starred
    # crossing bound below the knot's crossing number: no match
    assert name_by_invariants(LaurentPoly.from_coeffs([1, -3, 1]), 5, 3) is None
    starred = [r for r in records() if r.starred]
    assert {"11a119", "15a39533", "14a7552"} <= {r.name for r in starred}


def test_same_name_same_polynomial():
    by_name = {}
    for r in records():
        by_name.setdefault(r.name, set()).add(
            (r.alexander.coeffs, r.determinant))
    for name, keys in by_name.items():
        assert len(keys) == 1, f"{name} carries inconsistent invariants"
