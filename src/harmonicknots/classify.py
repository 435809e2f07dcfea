"""Parameter reduction, canonical forms, family predictions and analysis.

The degree c of a curve reduces whenever c = lam*a + mu*b with lam, mu > 0
(the reduced curve is the mirror image); iterating this and, for a = 4,
the two canonical moves c -> |c - 2b| and c -> |c - 6b| yields canonical
parameters.  ``analyze`` is the composition root that turns a degree
triple into a full report.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .cfrac import (SchubertFraction, evaluate_projective, positive_cf,
                    two_bridge_equivalent)
from .chebgeom import Crossing, HarmonicTriple, enumerate_crossings
from .diagram import (ConwayForm, GaussCode, build_gauss_code,
                      conway_form_h4, read_conway_from_diagram)
from .errors import InternalError
from .invariants import LaurentPoly, alexander, factor_square
from . import diagram, knotnames


# ---------------------------------------------------------------------------
# Degree reduction


class ReductionStep(NamedTuple):
    """One application of c = lam*a + mu*b -> c' = |lam*a - mu*b|.

    ``mirrored`` is the cumulative mirror parity after this step (every
    step mirrors the knot once).
    """

    from_c: int
    to_c: int
    mirrored: bool


def _smallest_reduction(a: int, b: int, c: int) -> tuple[int, int] | None:
    """(lam, mu) with lam, mu > 0, c = lam*a + mu*b minimizing |lam*a - mu*b|,
    ties going to the smallest lam; a and b must be coprime.

    The solutions are lam = lam0 (mod b) with lam*a < c, where
    lam0 = c / a (mod b), and |lam*a - mu*b| = |2*lam*a - c|, so the best is
    the term of that progression nearest c / (2a).
    """
    lam = c * pow(a, -1, b) % b or b
    if 2 * lam * a < c:
        lam += (c - 2 * lam * a) // (2 * a * b) * b
        above = lam + b
        if above * a < c and 2 * above * a - c < c - 2 * lam * a:
            lam = above
    elif lam * a >= c:
        return None
    return lam, (c - lam * a) // b


def reduce_c(K: HarmonicTriple) -> list[ReductionStep]:
    """Reduce c while it is a positive combination of a and b.

    Among the available (lam, mu) the one minimizing the new degree is
    taken (any choice preserves the knot class, so the fastest descent is
    free).  The final step's degrees give an irreducible triple.
    """
    steps: list[ReductionStep] = []
    a, b, c = K.a, K.b, K.c
    mirrored = False
    while True:
        rep = _smallest_reduction(a, b, c)
        if rep is None:
            return steps
        lam, mu = rep
        new_c = abs(lam * a - mu * b)
        mirrored = not mirrored
        steps.append(ReductionStep(c, new_c, mirrored))
        c = new_c


# ---------------------------------------------------------------------------
# Canonical parameters for the two-bridge family a = 4


class CanonicalH4(NamedTuple):
    """Canonical odd pair b' < c' < 3b', b' != c' (mod 4), with the fraction
    and crossing number of the curve with degrees (4, b', c')."""

    b_prime: int
    c_prime: int
    mirrored: bool
    fraction: SchubertFraction
    crossing_number: int


def canonical_h4(b: int, c: int) -> CanonicalH4:
    """Canonicalize the odd degree pair of a (4, b, c) curve.

    Moves: swap to b < c (a coordinate swap mirrors the curve); while
    c = b (mod 4) replace c by |c - 2b|; while c > 3b (and c != b mod 4)
    replace c by |c - 6b|; each replacement mirrors.  Terminates with
    either the canonical window b < c < 3b, b != c (mod 4), or the
    degenerate pair (1, c) describing an unknotted curve.
    """
    if b % 2 == 0 or c % 2 == 0 or b < 1 or c < 1:
        raise ValueError(f"degrees must be positive odd, got ({b}, {c})")
    if gcd(b, c) != 1:
        raise ValueError(f"{b},{c} not coprime")
    if b == c:
        raise ValueError("degrees must differ")
    mirrored = False
    guard = 0
    pair = (b, c)
    while True:
        guard += 1
        if guard > 10_000:
            raise InternalError(f"canonicalization of {pair} diverged")
        if c < b:
            b, c = c, b
            mirrored = not mirrored
        if b == 1:
            return CanonicalH4(1, c, mirrored, SchubertFraction(1, 0), 0)
        if c > 11 * b:
            # Above 11b, two consecutive moves take c to c - 8b and
            # cancel their mirrors, so skip whole pairs at once.
            c -= (c - 3 * b) // (8 * b) * 8 * b
        if (c - b) % 4 == 0:
            c, mirrored = abs(c - 2 * b), not mirrored
        elif c > 3 * b:
            c, mirrored = abs(c - 6 * b), not mirrored
        else:
            break
    fraction = evaluate_projective(conway_form_h4(b, c))
    return CanonicalH4(b, c, mirrored, fraction, (3 * b + c - 2) // 4)


# ---------------------------------------------------------------------------
# Families with predicted two-bridge forms


def predict_family(K: HarmonicTriple) -> tuple[str, ConwayForm] | None:
    """The two-bridge knot a family identity predicts for K, as a
    description and a twist sequence, or None.

    The prediction is a claim to verify (the analysis checks Alexander
    polynomial and determinant), never a substitute for computing them.
    """
    a, b, c = K.a, K.b, K.c
    if b == a + 1 and c == a + 2 and a % 2 == 1 and a >= 3:
        n = (a + 1) // 2
        pair = (2 * n - 1, 2 * n + 1) if n % 2 else (2 * n + 1, 2 * n - 1)
        canon = canonical_h4(*pair)
        return (f"two-bridge curve with degrees (4, {pair[0]}, {pair[1]})",
                conway_form_h4(canon.b_prime, canon.c_prime))
    if a == 5 and c == b + 1 and b % 5 in (1, 3):
        # b = 5n + 1 predicts C(2n+1, 2n), and b = 5n + 3 C(2n+1, 2n+2).
        n = b // 5
        form = [2 * n + 1, 2 * n + b % 5 - 1]
        return f"two-bridge form C{tuple(form)}", form
    return None


# ---------------------------------------------------------------------------
# Full analysis


class AnalysisReport(NamedTuple):
    """Everything the toolkit can say about one degree triple.

    Diagram-derived fields describe the reduced (irreducible) triple; the
    reductions list records how it was reached, with mirror parity.
    ``unknotted`` marks a curve proven trivial: a degree 1, a <= 2, or the
    fraction 1/0.
    """

    triple: tuple[int, int, int]
    reduced: tuple[int, int, int]
    reductions: tuple[ReductionStep, ...]
    mirrored: bool
    crossings: tuple[Crossing, ...]
    gauss_code: GaussCode
    conway: tuple[int, ...] | None
    fraction: SchubertFraction | None
    fraction_source: str | None
    crossing_number: int | None
    alexander: LaurentPoly
    determinant: int
    name: str | None
    starred: bool
    unknotted: bool
    notes: tuple[str, ...] = ()


def _verify_expectation(description: str, form: ConwayForm,
                        delta: LaurentPoly, det: int) -> str:
    """The note of a family prediction; Delta or det refuting it raises."""
    claim = f"family prediction: isotopic to {description}"
    # The predicted Delta comes from the standard twist diagram of the
    # form, which shares no diagram-building code with the Chebyshev
    # diagram that gave ``delta``; agreement is an independent check.
    if alexander(diagram.diagram_from_conway(form)) != delta \
            or evaluate_projective(form).alpha != det:
        raise InternalError(f"{claim} fails: Alexander polynomial or "
                            "determinant differs")
    return (f"{claim} (verified: matching Alexander polynomial and "
            "determinant)")


def analyze(K: HarmonicTriple) -> AnalysisReport:
    """Reduce, classify and compute all invariants of one curve."""
    steps = reduce_c(K)
    reduced, mirrored = K, False
    if steps:
        reduced = HarmonicTriple(K.a, K.b, steps[-1].to_c)
        mirrored = steps[-1].mirrored
    crossings = tuple(enumerate_crossings(reduced))
    gc = build_gauss_code(crossings)
    delta = alexander(gc)
    det = abs(delta(-1))
    notes: list[str] = []

    conway = fraction = crossing_number = None
    fraction_source = None
    record = None
    # a <= 2 or a degree 1 leaves a coordinate with one critical point.
    unknotted = reduced.a <= 2 or 1 in (reduced.b, reduced.c)
    if reduced.a in (3, 4):
        conway = tuple(read_conway_from_diagram(reduced, crossings))
        fraction = evaluate_projective(conway)
        fraction_source = "computed"
        if fraction.alpha != det:
            raise InternalError(
                f"fraction {fraction.alpha} vs determinant {det} mismatch")
        if reduced.a == 4:
            canon = canonical_h4(reduced.b, reduced.c)
            crossing_number = canon.crossing_number
            if not two_bridge_equivalent(fraction, canon.fraction,
                                         up_to_mirror=True):
                raise InternalError("diagram and closed-form fractions differ")
        elif fraction.alpha > 1:
            crossing_number = sum(positive_cf(
                SchubertFraction(fraction.alpha,
                                 min(fraction.equivalence_class()))))
            # (b+c)/3 is the crossing number only in the window b < c.
            if reduced.b < reduced.c and (reduced.b + reduced.c) % 3 == 0 \
                    and crossing_number != (reduced.b + reduced.c) // 3:
                raise InternalError("crossing number routes disagree")
        record = knotnames.name_by_fraction(fraction)
        unknotted = unknotted or fraction.alpha == 1
    else:
        source = f"H({reduced.a},{reduced.b},{reduced.c})"
        record = knotnames.name_by_source(source)
        if record is not None and (record.alexander != delta
                                   or record.determinant != det):
            raise InternalError(f"table row {source} disagrees with pipeline")
        if record is None:
            record = knotnames.name_by_invariants(delta, det, len(crossings))
        if record is not None and record.fraction is not None:
            fraction = record.fraction
            fraction_source = "table"

    if unknotted:
        notes.append("unknotted curve")
    composite = factor_square(delta)
    if composite is not None and len(delta.coeffs) > 1:
        notes.append("Alexander polynomial is a perfect square "
                     f"(({composite})^2): candidate connected sum")
    family = predict_family(K)
    if family is not None:
        notes.append(_verify_expectation(*family, delta, det))

    return AnalysisReport(
        triple=(K.a, K.b, K.c),
        reduced=(reduced.a, reduced.b, reduced.c),
        reductions=tuple(steps),
        mirrored=mirrored,
        crossings=crossings,
        gauss_code=gc,
        conway=conway,
        fraction=fraction,
        fraction_source=fraction_source,
        crossing_number=crossing_number,
        alexander=delta,
        determinant=det,
        name=record.name if record else None,
        starred=record.starred if record else False,
        unknotted=unknotted,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# The reference selection of small curves


def enumerate_table_triples(max_ab: int = 30) -> list[tuple[int, int, int]]:
    """All (a, b, c) with 3 <= a < b, (a-1)(b-1) <= max_ab, b < c < ab,
    gcd(c, ab) = 1 and c not a positive combination of a and b.

    These are exactly the irreducible small curves; every larger c with
    gcd(c, ab) = 1 reduces to one of them.
    """
    triples = []
    a = 3
    while (a - 1) * a <= max_ab:  # need some b > a
        for b in range(a + 1, max_ab // (a - 1) + 2):
            if (a - 1) * (b - 1) > max_ab or gcd(a, b) != 1:
                continue
            for c in range(b + 1, a * b):
                if gcd(c, a * b) != 1:
                    continue
                if _smallest_reduction(a, b, c) is not None:
                    continue
                triples.append((a, b, c))
        a += 1
    return sorted(triples)
