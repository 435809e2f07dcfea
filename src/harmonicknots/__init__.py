"""Exact diagram calculus, two-bridge classification and Alexander
invariants for harmonic (Chebyshev) knots H(a, b, c).

The names below are the public entry points and the types their results
expose; everything else is importable from its submodule."""

from .cfrac import SchubertFraction, expand_1212, two_bridge_equivalent
from .chebgeom import HarmonicTriple, enumerate_crossings
from .classify import AnalysisReport, CanonicalH4, analyze, canonical_h4
from .diagram import GaussCode, build_gauss_code
from .invariants import LaurentPoly, alexander, determinant
from .render import RenderOptions, render_billiard, render_xy

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CanonicalH4", "GaussCode", "HarmonicTriple",
    "LaurentPoly", "RenderOptions", "SchubertFraction", "alexander",
    "analyze", "build_gauss_code", "canonical_h4", "determinant",
    "enumerate_crossings", "expand_1212", "render_billiard", "render_xy",
    "two_bridge_equivalent",
]
