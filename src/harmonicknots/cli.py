"""Command-line interface.

Subcommands:
  analyze A B C   full report for one curve (--json, --svg, --billiard),
                  (A-1)(B-1)/2 crossings up to ANALYZE_MAX_CROSSINGS
  table           the reference table of all small irreducible curves,
                  --max-ab up to TABLE_MAX_AB
  cf ALPHA BETA   continued-fraction toolbox for one two-bridge fraction,
                  ALPHA up to CF_MAX_ALPHA

Exit codes: 0 success; 1 standard output closed early (a broken pipe,
as in ``table | head -1``), with nothing on stderr; 2 invalid input (an
InputError: a bad triple, fraction or output path, or a size above a
limit); 3 a fault of the toolkit itself (an InternalError, or a
ValueError from a library call the pipeline made).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from .cfrac import SchubertFraction, fraction_candidate, positive_cf
from .chebgeom import HarmonicTriple, enumerate_crossings
from .classify import AnalysisReport, analyze, enumerate_table_triples
from .errors import InputError, InternalError
from .render import RenderOptions, render_billiard, render_xy


def _triple_text(a: int, b: int, c: int) -> str:
    return f"H({a},{b},{c})"


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
        "alexander": list(r.alexander.coeffs),
        "determinant": r.determinant,
        "name": r.name,
    }


def _print_report(r: AnalysisReport, out) -> None:
    print(f"curve {_triple_text(*r.triple)}", file=out)
    if r.reductions:
        chain = " -> ".join(
            f"c={s.to_c}{' (mirror)' if s.mirrored else ''}"
            for s in r.reductions)
        print(f"  reduces: {chain}; analysis below is for "
              f"{_triple_text(*r.reduced)}"
              f"{' mirrored' if r.mirrored else ''}", file=out)
    print(f"  crossings in diagram: {len(r.crossings)}", file=out)
    if r.conway is not None:
        print(f"  twist sequence: {list(r.conway)}", file=out)
    if r.fraction is not None:
        src = f" [{r.fraction_source}]" if r.fraction_source else ""
        print(f"  two-bridge fraction: {_fraction_text(r)}{src}", file=out)
    # An unknot's JSON name is null; crossing_number is too, unless a = 4.
    crossing_number = 0 if r.unknotted else r.crossing_number
    if crossing_number is not None:
        print(f"  crossing number: {crossing_number}", file=out)
    else:
        print(f"  crossing number: <= {len(r.crossings)}", file=out)
    print(f"  alexander polynomial: {r.alexander}", file=out)
    print(f"  determinant: {r.determinant}", file=out)
    name = "unknot" if r.unknotted else _name_text(r)
    if r.name and r.reduced[0] >= 5:
        name += " (consistent with invariants; not a certified isotopy)"
    print(f"  name: {name}", file=out)
    for note in r.notes:
        print(f"  note: {note}", file=out)


# The report is a fresh tree of dicts and lists, so it holds no cycle for
# the encoder to check for.
_JSON = json.JSONEncoder(check_circular=False)


def _write_output(path: str, data: bytes) -> None:
    # Overwrite in place and then cut the tail: a file truncated to zero
    # on open is flushed to disk when it is closed (ext4, XFS).  A pipe,
    # tty or device cannot be truncated and gets a plain stream.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_analyze(args) -> int:
    a, b, c = args.a, args.b, args.c
    swapped = False
    if a > b:
        a, b = b, a
        swapped = True
    K = HarmonicTriple(a, b, c)
    if K.crossing_count > ANALYZE_MAX_CROSSINGS:
        raise InputError(f"{_triple_text(a, b, c)} has {K.crossing_count} "
                         f"crossings, above the analyze limit of "
                         f"{ANALYZE_MAX_CROSSINGS}")
    report = analyze(K)
    if args.svg or args.billiard:
        # The drawings show K itself; the report's crossings are those of
        # the reduced triple.  A degree reduction keeps every double point
        # and mirrors the diagram crossing by crossing, so K's crossings
        # are the report's unless the reductions mirrored.
        crossings = enumerate_crossings(K) if report.mirrored \
            else report.crossings
        options = RenderOptions(annotate_signs=True)
        if args.svg:
            _write_output(args.svg, render_xy(K, options, crossings))
        if args.billiard:
            _write_output(args.billiard,
                          render_billiard(K, options, crossings).encode())
    if args.json:
        print(_JSON.encode(_report_json(report)))
    else:
        if swapped:
            print(f"note: degrees reordered to a < b; the curve "
                  f"{_triple_text(args.a, args.b, c)} is its mirror image")
        _print_report(report, sys.stdout)
    return 0


def cmd_table(args) -> int:
    if args.max_ab > TABLE_MAX_AB:
        raise InputError(f"--max-ab {args.max_ab} is above the table limit "
                         f"of {TABLE_MAX_AB}")
    triples = enumerate_table_triples(args.max_ab)
    print(f"{'curve':<14}{'fraction':<12}name")
    for a, b, c in triples:
        r = analyze(HarmonicTriple(a, b, c))
        print(f"{_triple_text(a, b, c):<14}{_fraction_text(r):<12}"
              f"{_name_text(r)}")
    print(f"{len(triples)} curves")
    return 0


# The largest alpha ``cf`` takes.  Its time and output grow linearly in
# alpha: cold, ``cf 99999 2`` takes about 0.3 s and prints 0.5 MB, and
# ``cf 999999 2`` 1.8 s and 5 MB.
CF_MAX_ALPHA = 10 ** 5

# The largest (a-1)(b-1) ``table`` takes.  Its time grows about as the
# cube of the bound: cold, on 2 shared cores, ``table --max-ab 200``
# (4,330 curves) takes about 3.1 s, ``--max-ab 240`` (6,598) 8.7 s and
# ``--max-ab 280`` (9,078) 19 s.
TABLE_MAX_AB = 200

# The most crossings, (a-1)(b-1)/2, ``analyze`` takes.  Its time follows
# the Alexander sweep's, which grows about as N**3 at full width: cold, on
# 2 shared cores, ``analyze 63 65 67`` (N = 1,984) takes 16-18 s,
# ``analyze 4 1335 1337`` (N = 2,001) 16 s and ``analyze 2 4001 3``
# (N = 2,000, a two-strand unknot) 0.6-0.8 s.
ANALYZE_MAX_CROSSINGS = 2000


def cmd_cf(args) -> int:
    alpha, beta = args.alpha, args.beta
    if alpha <= 0 or alpha % 2 == 0:
        raise InputError(f"alpha must be odd and positive, got {alpha}")
    if alpha > CF_MAX_ALPHA:
        raise InputError(f"alpha {alpha} is above the cf limit of "
                         f"{CF_MAX_ALPHA}")
    fr = SchubertFraction(alpha, beta)
    if fr.alpha != alpha:
        raise InputError(f"{alpha}/{beta} is not reduced")
    print(f"fraction: {alpha}/{beta} (canonical {fr.display()})")
    if alpha == 1:
        print("unknot: crossing number 0")
        return 0
    # beta and beta mod alpha present the same knot; only the reduced
    # expansion, whose terms are all positive, sums to the crossing number.
    rest = abs(beta) % alpha
    pos = positive_cf(SchubertFraction(alpha, rest))
    print(f"positive expansion of {alpha}/{rest}: {pos}"
          f"  crossing number {sum(pos)}")
    for rep in fr.equivalence_class():
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
        code = args.func(args)
        # Flush inside the try, so a reader that has gone away raises
        # here and not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit, unless it is closed.  Closing
        # flushes once more, fails the same way, and still closes.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, ValueError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
