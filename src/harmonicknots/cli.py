"""Command-line interface.

Subcommands:
  analyze A B C   full report for one curve (--json, --svg, --billiard)
  table           the reference table of all small irreducible curves
  cf ALPHA BETA   continued-fraction toolbox for one two-bridge fraction

Exit codes: 0 success, 2 invalid input, 3 broken internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cfrac import (SchubertFraction, crossing_number_bireg,
                    fraction_candidate, positive_cf, CFError)
from .chebgeom import HarmonicTriple
from .classify import AnalysisReport, analyze, enumerate_table_triples
from .errors import InternalError
from .render import RenderOptions, render_billiard, render_xy


def _fraction_text(r: AnalysisReport) -> str:
    if r.fraction is None:
        return ""
    if r.fraction_source == "table":
        # Report the tabulated fraction verbatim.
        if r.fraction.beta == 1:
            return str(r.fraction.alpha)
        return f"{r.fraction.alpha}/{r.fraction.beta}"
    return r.fraction.display()


def _name_text(r: AnalysisReport) -> str:
    return r.name + ("*" if r.starred else "") if r.name else "unidentified"


def _report_json(r: AnalysisReport) -> dict:
    return {
        "triple": list(r.triple),
        "reductions": [
            {"from_c": s.from_c, "to_c": s.to_c, "mirrored": s.mirrored}
            for s in r.reductions],
        "crossings": [
            {"h": c.h, "k": c.k, "sign": c.sign, "over_at_t": c.over_at_t}
            for c in r.crossings],
        "gauss_code": [
            {"id": e.crossing_id, "passage": e.passage, "sign": e.sign}
            for e in r.gauss_code.entries],
        "conway": list(r.conway) if r.conway is not None else None,
        "fraction": ({"alpha": r.fraction.alpha, "beta": r.fraction.beta}
                     if r.fraction is not None else None),
        "crossing_number": r.crossing_number,
        "alexander": r.alexander.coefficient_list(),
        "determinant": r.determinant,
        "name": r.name,
    }


def _print_report(r: AnalysisReport, out) -> None:
    a, b, c = r.triple
    print(f"curve H({a},{b},{c})", file=out)
    if r.reductions:
        chain = " -> ".join(
            f"c={s.to_c}{' (mirror)' if s.mirrored else ''}"
            for s in r.reductions)
        print(f"  reduces: {chain}; analysis below is for "
              f"H{r.reduced}"
              f"{' mirrored' if r.mirrored else ''}", file=out)
    print(f"  crossings in diagram: {len(r.crossings)}", file=out)
    if r.conway is not None:
        print(f"  twist sequence: {list(r.conway)}", file=out)
    if r.fraction is not None:
        src = f" [{r.fraction_source}]" if r.fraction_source else ""
        print(f"  two-bridge fraction: {_fraction_text(r)}{src}", file=out)
    if r.crossing_number is not None:
        print(f"  crossing number: {r.crossing_number}", file=out)
    else:
        print(f"  crossing number: <= {r.crossing_bound}", file=out)
    print(f"  alexander polynomial: {r.alexander}", file=out)
    print(f"  determinant: {r.determinant}", file=out)
    name = _name_text(r)
    if r.name and r.reduced[0] >= 5:
        name += " (consistent with invariants; not a certified isotopy)"
    print(f"  name: {name}", file=out)
    for note in r.notes:
        print(f"  note: {note}", file=out)


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_analyze(args) -> int:
    a, b, c = args.a, args.b, args.c
    swapped = False
    if a > b:
        a, b = b, a
        swapped = True
    K = HarmonicTriple(a, b, c)
    report = analyze(K)
    if args.svg or args.billiard:
        # The drawings show K itself; the report's crossings are those of
        # the reduced triple.  A degree reduction keeps every double point
        # and mirrors the diagram crossing by crossing, so K's crossings
        # are the report's, flipped when the reductions mirrored.
        crossings = [c.mirrored() for c in report.crossings] \
            if report.mirrored else report.crossings
        options = RenderOptions(annotate_signs=True)
        if args.svg:
            _write_output(args.svg, render_xy(K, options, crossings))
        if args.billiard:
            _write_output(args.billiard,
                          render_billiard(K, options, crossings))
    if args.json:
        print(json.dumps(_report_json(report)))
    else:
        if swapped:
            print(f"note: degrees reordered to a < b; the curve "
                  f"H({args.a},{args.b},{c}) is its mirror image")
        _print_report(report, sys.stdout)
    return 0


def cmd_table(args) -> int:
    triples = enumerate_table_triples(args.max_ab)
    print(f"{'curve':<14}{'fraction':<12}name")
    for a, b, c in triples:
        r = analyze(HarmonicTriple(a, b, c))
        print(f"{f'H({a},{b},{c})':<14}{_fraction_text(r):<12}"
              f"{_name_text(r)}")
    print(f"{len(triples)} curves")
    return 0


def cmd_cf(args) -> int:
    alpha, beta = args.alpha, args.beta
    if alpha <= 0 or alpha % 2 == 0:
        raise CFError(f"alpha must be odd and positive, got {alpha}")
    fr = SchubertFraction(alpha, beta)
    if fr.alpha != alpha:
        raise CFError(f"{alpha}/{beta} is not reduced")
    print(f"fraction: {alpha}/{beta} (canonical {fr.display()})")
    if alpha == 1:
        print("unknot: crossing number 0")
        return 0
    # beta and beta mod alpha present the same knot; only the reduced
    # expansion sums to the crossing number.
    rest = abs(beta) % alpha
    pos = positive_cf(SchubertFraction(alpha, rest))
    print(f"positive expansion of {alpha}/{rest}: {pos}"
          f"  crossing number {crossing_number_bireg([q for q in pos if q])}")
    for rep in sorted(set(fr.equivalence_class())):
        if rep % 2 == 1:
            continue
        cand = fraction_candidate(alpha, rep)
        sq = cand.beta_sq_mod
        status = ("+2" if sq == 2 % alpha else "-2") if cand.passes_beta_sq \
            else f"{sq}, not +-2"
        line = (f"representative {alpha}/{rep}: beta^2 = {status}"
                f" (mod {alpha}); expansion {list(cand.expansion)}")
        if cand.obstructed:
            line += "  [two consecutive sign changes]"
        print(line)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonicknots",
        description="Diagram calculus and invariants for harmonic "
                    "(Chebyshev) knots")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one curve H(a,b,c)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--svg", metavar="PATH", help="write the xy diagram")
    p.add_argument("--billiard", metavar="PATH",
                   help="write the billiard diagram")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table", help="reference table of small curves")
    p.add_argument("--max-ab", type=int, default=30, dest="max_ab",
                   help="bound on (a-1)(b-1) (default 30)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cf", help="continued-fraction report for alpha/beta")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.set_defaults(func=cmd_cf)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
