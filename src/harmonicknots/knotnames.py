"""Embedded knot identification table.

The table ships as a versioned text file (one record per line: name,
starred flag, crossing number, determinant, Alexander coefficients,
fraction, source triple).  Its rows cover exactly the knots this package
can name honestly: the 51 curves with (a-1)(b-1) <= 30 plus the two larger
identified curves (8_17 and 10_115).  Alexander data is generated by this
package's own pipeline from the source triples; ``regenerate_table``
rebuilds the file content and a test pins the shipped copy to it.

Lookups outside the table report None ("unidentified") rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .cfrac import SchubertFraction, two_bridge_equivalent
from .invariants import LaurentPoly

# (a, b, c, fraction, name, starred) - fraction is None where only the
# Alexander polynomial identifies the knot.
TABLE_ROWS: tuple = (
    (3, 4, 5, "3", "3_1", False),
    (3, 5, 7, "5/2", "4_1", False),
    (3, 7, 8, "5", "5_1", False),
    (3, 7, 11, "13/5", "6_3", False),
    (3, 8, 13, "21/8", "7_7", False),
    (3, 10, 11, "7", "7_1", False),
    (3, 10, 17, "55/21", "9_31", False),
    (3, 11, 13, "17/4", "8_3", False),
    (3, 11, 16, "39/14", "9_17", False),
    (3, 11, 19, "89/34", "10_45", False),
    (3, 13, 14, "9", "9_1", False),
    (3, 13, 17, "53/23", "10_28", False),
    (3, 13, 20, "105/41", "11a175", False),
    (3, 13, 23, "233/89", "12a499", False),
    (3, 14, 19, "77/34", "11a119", True),
    (3, 14, 25, "377/144", "13a1739", False),
    (3, 16, 17, "11", "11a367", False),
    (3, 16, 23, "187/67", "13a2124", True),
    (3, 16, 29, "987/377", "15a39533", True),
    (4, 5, 7, "7/2", "5_2", False),
    (4, 5, 11, "11/3", "6_2", False),
    (4, 7, 9, "17/5", "7_5", False),
    (4, 7, 13, "23/5", "8_7", False),
    (4, 7, 17, "41/11", "9_20", False),
    (4, 9, 11, "41/12", "9_18", False),
    (4, 9, 19, "89/25", "11a180", False),
    (4, 9, 23, "153/41", "12a541", False),
    (4, 11, 13, "99/29", "11a236", False),
    (4, 11, 17, "113/31", "12a758", False),
    (4, 11, 21, "187/41", "13a2679", True),
    (4, 11, 25, "329/87", "14a7552", True),
    (4, 11, 29, "571/153", "15a42637", True),
    (5, 6, 7, "7/4", "5_2", False),
    (5, 6, 13, None, "10_159", False),
    (5, 6, 19, None, "10_116", False),
    (5, 7, 8, "5/2", "4_1", False),
    (5, 7, 9, "13/8", "6_3", False),
    (5, 7, 11, None, "4_1#4_1", False),
    (5, 7, 13, None, "12n356", False),
    (5, 7, 16, None, "12n798", False),
    (5, 7, 18, None, "12n321", False),
    (5, 7, 23, None, "12a960", False),
    (5, 8, 9, "13/4", "7_3", False),
    (5, 8, 11, "21/13", "7_7", False),
    (5, 8, 17, None, "14n22712", True),
    (5, 8, 19, None, "14n26120", True),
    (5, 8, 27, None, "14a19221", True),
    (6, 7, 11, None, "10_134", False),
    (6, 7, 17, None, "15n42918", True),
    (6, 7, 23, None, "15n165258", True),
    (6, 7, 29, None, "15a81117", False),
)

# Larger curves identified by their invariants (their diagrams exceed the
# 15-crossing budget of the main table).  Note H(7,11,15) is NOT 10_115:
# it has determinant 89 and the Alexander polynomial of the two-bridge
# S(89/34), i.e. it is 10_45; the det-109 knot 10_115 is H(9,11,13).
EXTRA_ROWS: tuple = (
    (5, 9, 13, None, "8_17", False),
    (9, 11, 13, None, "10_115", False),
)

_DATA_FILE = "knot_table.txt"


@dataclass(frozen=True)
class KnotRecord:
    name: str
    starred: bool
    crossing_number: int
    determinant: int
    alexander: LaurentPoly
    fraction: SchubertFraction | None
    source: str


def _crossing_number_of_name(name: str) -> int:
    digits = ""
    total = 0
    for part in name.split("#"):
        digits = ""
        for ch in part:
            if ch.isdigit():
                digits += ch
            else:
                break
        total += int(digits)
    return total


def _parse_fraction(text: str) -> SchubertFraction:
    if "/" in text:
        num, den = text.split("/")
        return SchubertFraction(int(num), int(den))
    return SchubertFraction(int(text), 1)


def regenerate_table() -> str:
    """Recompute the table file content from the embedded source rows."""
    from .chebgeom import HarmonicTriple, enumerate_crossings
    from .diagram import build_gauss_code
    from .invariants import alexander, determinant

    lines = [
        "# name | starred | crossing number | determinant | "
        "alexander coefficients | fraction | source",
    ]
    for a, b, c, frac, name, starred in TABLE_ROWS + EXTRA_ROWS:
        code = build_gauss_code(enumerate_crossings(HarmonicTriple(a, b, c)))
        delta = alexander(code)
        det = determinant(code)
        if frac is not None and _parse_fraction(frac).alpha != det:
            raise ValueError(
                f"determinant {det} of H({a},{b},{c}) does not match {frac}")
        coeffs = ",".join(str(x) for x in delta.coefficient_list())
        lines.append(
            f"{name} | {int(starred)} | {_crossing_number_of_name(name)}"
            f" | {det} | {coeffs} | {frac or '-'} | H({a},{b},{c})")
    return "\n".join(lines) + "\n"


def _load_records() -> tuple[KnotRecord, ...]:
    text = resources.files(__package__).joinpath(
        f"data/{_DATA_FILE}").read_text()
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, starred, cn, det, coeffs, frac, source = \
            (p.strip() for p in line.split("|"))
        records.append(KnotRecord(
            name=name,
            starred=starred == "1",
            crossing_number=int(cn),
            determinant=int(det),
            alexander=LaurentPoly.from_coeffs(
                int(x) for x in coeffs.split(",")),
            fraction=None if frac == "-" else _parse_fraction(frac),
            source=source,
        ))
    return tuple(records)


_CACHE: tuple[KnotRecord, ...] | None = None


def records() -> tuple[KnotRecord, ...]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _load_records()
    return _CACHE


def name_by_fraction(fraction: SchubertFraction) -> KnotRecord | None:
    """Two-bridge lookup: match up to mirror against fraction-bearing rows."""
    for rec in records():
        if rec.fraction is None:
            continue
        if rec.fraction.alpha == fraction.alpha and two_bridge_equivalent(
                rec.fraction, fraction, up_to_mirror=True):
            return rec
    return None


def name_by_invariants(delta: LaurentPoly, det: int,
                       crossing_bound: int) -> KnotRecord | None:
    """Alexander-polynomial lookup, honest about its limits.

    Matches require equal normalized polynomial, equal determinant, and a
    named crossing number within the diagram's bound.  If two distinct
    names collide on the key the lookup abstains (returns None) rather
    than pick one.
    """
    hits = [rec for rec in records()
            if rec.determinant == det and rec.crossing_number <= crossing_bound
            and rec.alexander == delta]
    names = {rec.name for rec in hits}
    if len(names) == 1:
        return hits[0]
    return None
