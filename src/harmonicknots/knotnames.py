"""Embedded knot identification table.

The table ships as a versioned text file (one record per line: name,
starred flag, crossing number, determinant, Alexander coefficients,
fraction, source triple).  Its rows cover exactly the knots this package
can name honestly: the 51 curves with (a-1)(b-1) <= 30 plus the two larger
identified curves (8_17 and 10_115).  The file is the one source of the
table: its name, starred, fraction and source columns are data, and the
others are derived; a test recomputes them with this package's own
pipeline and pins the shipped copy to the result.

Lookups outside the table report None ("unidentified") rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .cfrac import SchubertFraction, two_bridge_equivalent
from .invariants import LaurentPoly

@dataclass(frozen=True)
class KnotRecord:
    name: str
    starred: bool
    crossing_number: int
    determinant: int
    alexander: LaurentPoly
    fraction: SchubertFraction | None
    source: str


def _parse_fraction(text: str) -> SchubertFraction:
    if "/" in text:
        num, den = text.split("/")
        return SchubertFraction(int(num), int(den))
    return SchubertFraction(int(text), 1)


def _table_lines() -> list[str]:
    return resources.files(__package__).joinpath(
        "data/knot_table.txt").read_text().splitlines()


def _fields(line: str) -> list[str]:
    return [p.strip() for p in line.split("|")]


def _load_records() -> tuple[KnotRecord, ...]:
    records = []
    for line in _table_lines():
        if line.startswith("#"):
            continue
        name, starred, cn, det, coeffs, frac, source = _fields(line)
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
