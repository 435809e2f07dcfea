import re
from importlib import resources

from harmonicknots import knotnames
from harmonicknots.cfrac import SchubertFraction, two_bridge_equivalent
from harmonicknots.chebgeom import HarmonicTriple, enumerate_crossings
from harmonicknots.classify import analyze, enumerate_table_triples
from harmonicknots.diagram import build_gauss_code
from harmonicknots.invariants import LaurentPoly, alexander
from harmonicknots.knotnames import (name_by_fraction, name_by_invariants,
                                     name_by_source, records)

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


# Linear scans over ``records()``, looked up in the module as a test may
# replace it: the lookups as they were before the table was keyed, the
# oracle for the keyed ones.

def scan_source(source):
    return next((r for r in knotnames.records() if r.source == source), None)


def scan_fraction(fraction):
    for rec in knotnames.records():
        if rec.fraction is not None and two_bridge_equivalent(
                rec.fraction, fraction, up_to_mirror=True):
            return rec
    return None


def scan_invariants(delta, det, bound):
    hits = [rec for rec in knotnames.records() if rec.determinant == det
            and rec.crossing_number <= bound and rec.alexander == delta]
    return hits[0] if len({rec.name for rec in hits}) == 1 else None


def assert_lookups_match_scans(source, fraction, delta, det, bounds):
    assert name_by_source(source) is scan_source(source), source
    if fraction is not None:
        assert name_by_fraction(fraction) is scan_fraction(fraction), fraction
    for bound in bounds:
        assert name_by_invariants(delta, det, bound) is \
            scan_invariants(delta, det, bound), (source, bound)


def test_keyed_lookups_match_scans_on_every_row():
    for rec in records():
        fraction = rec.fraction
        assert_lookups_match_scans(
            rec.source, fraction, rec.alexander, rec.determinant,
            (rec.crossing_number - 1, rec.crossing_number, 100))
        if fraction is not None:
            # Every fraction of the row's class, mirror included.
            for beta in fraction.equivalence_class():
                for f in (SchubertFraction(fraction.alpha, beta),
                          SchubertFraction(fraction.alpha, -beta)):
                    assert name_by_fraction(f) is scan_fraction(f) is not None
    # Keys no row carries.
    assert_lookups_match_scans("H(99,100,101)", SchubertFraction(9, 2),
                               LaurentPoly.from_coeffs([1, -3, 1]), 7, (100,))
    assert name_by_source("H(99,100,101)") is None
    assert name_by_invariants(LaurentPoly.from_coeffs([1, -3, 1]), 7,
                              100) is None


def test_keyed_lookups_match_scans_on_the_table_curves():
    triples = enumerate_table_triples(72)
    assert len(triples) == 431
    for t in triples:
        report = analyze(HarmonicTriple(*t))
        n = len(report.crossings)
        assert_lookups_match_scans(
            "H({},{},{})".format(*report.reduced), report.fraction,
            report.alexander, report.determinant, (n - 2, n, 2 * n))


def test_a_name_collision_abstains(monkeypatch):
    # A second name on 4_1's row, source included: the invariant lookup
    # abstains, and the fraction and source lookups keep the first row, as
    # a scan does.
    shipped = records()
    first = next(r for r in shipped if r.name == "4_1")
    twin = first._replace(name="4_1twin")
    monkeypatch.setattr(knotnames, "records", lambda: shipped + (twin,))
    knotnames._index.cache_clear()
    try:
        assert_lookups_match_scans(first.source, first.fraction,
                                   first.alexander, first.determinant,
                                   (3, 4, 100))
        assert name_by_invariants(first.alexander, first.determinant,
                                  100) is None
        assert name_by_fraction(first.fraction) is first
        assert name_by_source(first.source) is first
    finally:
        knotnames._index.cache_clear()
