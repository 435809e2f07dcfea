"""Signed continued fractions and the two-bridge fraction calculus.

A signed continued fraction [a1, ..., an] denotes
a1 + 1/(a2 + 1/(... + 1/an)); evaluation is done projectively with 2x2
integer matrices so that intermediate zero tails never divide by zero.
Two-bridge knots are classified by their fraction alpha/beta up to
beta' = beta^{+-1} (mod alpha), with the mirror image negating beta.
Every routine works on the integer pair (alpha, beta); nothing divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import InternalError

# A signed continued fraction is just a sequence of integer terms.
SignedCF = Sequence[int]


class CFError(ValueError):
    """Base class for continued-fraction contract violations."""


class DivisionByZeroError(CFError):
    """The fraction is infinite (projective value 1/0) where a finite value is required."""


class PreconditionError(CFError):
    """A stated hypothesis on the term sequence fails."""


class ParityError(CFError):
    """alpha/beta does not have the required odd/even parity split."""


class ShapeError(CFError):
    """The term sequence is not of the alternating +-1, +-2 shape."""


class NotInvertibleError(CFError):
    """beta has no inverse modulo alpha."""


class NonPositiveError(CFError):
    """A positive finite fraction was required."""


# ---------------------------------------------------------------------------
# Fractions and Mobius matrices


@dataclass(frozen=True)
class SchubertFraction:
    """A two-bridge fraction alpha/beta with alpha >= 0 and gcd reduced.

    The sign lives on beta (alpha/(-beta) is the mirror image).  Two special
    values are representable: 1/0 (the unknot, projective infinity) and 0/1
    (the two-component unlink).  Knot fractions have odd alpha.
    """

    alpha: int
    beta: int

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a == 0 and b == 0:
            raise CFError("0/0 is not a fraction")
        g = gcd(abs(a), abs(b))
        if g > 1:
            a //= g
            b //= g
        if a < 0:
            a, b = -a, -b
        elif a == 0:
            b = 1
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def equivalence_class(self) -> tuple[int, ...]:
        """Residues {beta, beta^-1, -beta, -beta^-1} mod alpha, sorted.

        This is the full set of denominators, mirror included, that present
        the same unoriented two-bridge knot with this alpha.
        """
        a = self.alpha
        if a <= 1:
            return (0,)
        b = self.beta % a
        if gcd(b, a) != 1:
            raise NotInvertibleError(f"gcd({self.beta}, {a}) != 1")
        inv = pow(b, -1, a)
        return tuple(sorted({b, inv, a - b, a - inv}))

    def display(self) -> str:
        """Canonical printable form: smallest denominator in the class.

        Among the four residues beta^{+-1}, -beta^{+-1} (mod alpha) the
        smallest one in (0, alpha) is printed; integers print bare.
        """
        if self.alpha == 0:
            return "0"
        if self.beta == 0:
            return "1/0"
        if self.alpha == 1:
            return "1"
        b = min(self.equivalence_class())
        if b == 1:
            return str(self.alpha)
        return f"{self.alpha}/{b}"


def two_bridge_equivalent(f: SchubertFraction, g: SchubertFraction,
                          up_to_mirror: bool = False) -> bool:
    """Whether two fractions present the same two-bridge knot.

    Requires equal alpha and beta' = beta or beta^{-1} (mod alpha); with
    ``up_to_mirror`` the negated residues are accepted as well.
    """
    if f.alpha != g.alpha:
        return False
    a = f.alpha
    if a <= 1:
        return True
    bf, bg = f.beta % a, g.beta % a
    if gcd(bf, a) != 1 or gcd(bg, a) != 1:
        raise NotInvertibleError("beta not invertible modulo alpha")
    inv = pow(bf, -1, a)
    if bg == bf or bg == inv:
        return True
    if up_to_mirror and (bg == a - bf or bg == a - inv):
        return True
    return False


@dataclass(frozen=True)
class MobiusMatrix:
    """Integer 2x2 matrix acting as x -> (a x + b)/(c x + d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def image_of_infinity(self) -> SchubertFraction:
        """The projective value (a : c) as a fraction."""
        return SchubertFraction(self.a, self.c)


def cf_matrix(cf: SignedCF) -> MobiusMatrix:
    """Matrix of x -> [a1, ..., an, x], the product of [[ai,1],[1,0]]."""
    p, q, r, s = 1, 0, 0, 1
    for a in cf:
        p, q, r, s = p * a + q, p, r * a + s, r
    return MobiusMatrix(p, q, r, s)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_projective(cf: SignedCF) -> SchubertFraction:
    """Projective value of the continued fraction; total, never raises."""
    if not cf:
        return SchubertFraction(1, 0)
    return cf_matrix(cf).image_of_infinity()


def evaluate(cf: SignedCF) -> SchubertFraction:
    """Exact value of [a1, ..., an] as a fraction with alpha >= 0.

    The sign of the value is carried by beta.  Raises DivisionByZeroError
    when the value is projectively infinite (e.g. [1, 0] or [1,-2,1,-2]),
    which is exactly when the plain right-to-left folding would hit an
    unresolvable reciprocal of zero.
    """
    value = evaluate_projective(cf)
    if value.beta == 0:
        raise DivisionByZeroError(f"{list(cf)} evaluates to an infinite value")
    return value


def positive_cf(f: SchubertFraction) -> list[int]:
    """All-positive Euclidean expansion of a finite fraction f > 0.

    Serves as the independent crossing-number oracle: the sum of the terms
    is the crossing number of the two-bridge knot of f.  For 0 < f < 1 the
    expansion starts with a 0 term (which does not affect the sum).
    """
    num, den = f.alpha, f.beta
    if num == 0 or den <= 0:
        raise NonPositiveError(f"{num}/{den} has no positive expansion")
    terms = []
    while den:
        q, rem = divmod(num, den)
        terms.append(q)
        num, den = den, rem
    return terms


def crossing_number_bireg(cf: SignedCF) -> int:
    """Crossing number read off a biregular term sequence.

    Requires a1*a2 > 0, a_{n-1}*a_n > 0 and no two consecutive sign changes;
    then the crossing number is sum(|ai|) minus the number of sign changes.
    """
    terms = list(cf)
    n = len(terms)
    if n == 0 or any(t == 0 for t in terms):
        raise PreconditionError("zero terms are not biregular")
    changes = [j for j in range(n - 1) if terms[j] * terms[j + 1] < 0]
    failures = []
    if n >= 2 and terms[0] * terms[1] < 0:
        failures.append("first two terms differ in sign")
    if n >= 2 and terms[-2] * terms[-1] < 0:
        failures.append("last two terms differ in sign")
    if any(j + 1 in changes for j in changes):
        failures.append("two consecutive sign changes")
    if failures:
        raise PreconditionError("; ".join(failures))
    return sum(abs(t) for t in terms) - len(changes)


# ---------------------------------------------------------------------------
# The [1, +-2, ..., +-1, +-2] expansion


def _check_1212_shape(terms: Sequence[int]) -> int:
    """Validate the alternating +-1/+-2 shape; returns half the length."""
    if not terms or len(terms) % 2:
        raise ShapeError("expected an even number of terms")
    for j, t in enumerate(terms):
        if abs(t) != (2 if j % 2 else 1):
            raise ShapeError(
                f"term {t} at position {j + 1} breaks the +-1,+-2 pattern")
    return len(terms) // 2


@dataclass(frozen=True)
class SignChangeProfile:
    """Where adjacent terms change sign, in 1-based positions."""

    changes: tuple[int, ...]
    max_run: int
    palindromic: bool


def sign_change_profile(cf: SignedCF) -> SignChangeProfile:
    """Sign-change positions, longest run, and palindromicity.

    Position j is a change when term_j * term_{j+1} < 0.  The profile is
    palindromic when change positions are symmetric under j -> n - j,
    which for these fractions forces beta^2 = +-2 (mod alpha).
    """
    terms = list(cf)
    _check_1212_shape(terms)
    n = len(terms)
    changes = tuple(j for j in range(1, n) if terms[j - 1] * terms[j] < 0)
    max_run = run = 0
    prev = None
    for j in changes:
        run = run + 1 if prev == j - 1 else 1
        max_run = max(max_run, run)
        prev = j
    changed = set(changes)
    palindromic = all((k in changed) == ((n - k) in changed)
                      for k in range(1, n))
    return SignChangeProfile(changes, max_run, palindromic)


def expand_1212(f: SchubertFraction) -> list[int]:
    """The unique expansion f = [1, +-2, +-1, +-2, ...] without three
    consecutive sign changes, for a finite f > 0 with odd alpha and even
    beta.

    Peels two terms at a time from the reduced pair v = n/d: the leading 1
    is forced by positivity, the following 2e by whether v exceeds 1
    (e = +-1), and the tail 1/(d/(n - d) - 2e) by the unimodular map
    (n, d) -> (n - d, d - 2e(n - d)), so the pair stays reduced.  A
    negative tail flips the sign of everything emitted afterwards.
    """
    n, d = f.alpha, f.beta
    if n == 0 or d <= 0:
        raise NonPositiveError(f"cannot expand {n}/{d}, not a positive value")
    if n % 2 == 0 or d % 2 == 1:
        raise ParityError(
            f"{n}/{d} needs an odd numerator and even denominator")
    terms: list[int] = []
    flip = 1
    # Expansion length can be linear in the fraction (blocks acting as
    # x -> x + 2 grow the value arithmetically); the cap only guards
    # against a non-terminating bug.
    cap = 4 * (n + d) + 64
    for _ in range(cap):
        e = 1 if n > d else -1
        terms += [flip, 2 * e * flip]
        if d == 2 * e * (n - d):
            break
        n, d = n - d, d - 2 * e * (n - d)
        if d < 0:
            n, d = -n, -d
        if n < 0:
            n, flip = -n, -flip
    else:
        raise InternalError(
            f"expansion of {f.alpha}/{f.beta} did not terminate")
    if evaluate(terms) != f or sign_change_profile(terms).max_run >= 3:
        raise InternalError(
            f"expansion of {f.alpha}/{f.beta} failed validation")
    return terms


@dataclass(frozen=True)
class FractionCandidate:
    """Whether alpha/beta (odd alpha, even beta) can be the fraction of an
    a = 4 harmonic curve: it must satisfy beta^2 = +-2 (mod alpha) and its
    [1, +-2, ...] expansion must have no two consecutive sign changes."""

    beta: int
    beta_sq_mod: int
    passes_beta_sq: bool
    expansion: tuple[int, ...]
    obstructed: bool

    @property
    def eligible(self) -> bool:
        return self.passes_beta_sq and not self.obstructed


def fraction_candidate(alpha: int, beta: int) -> FractionCandidate:
    """The a = 4 eligibility report of alpha/beta, for odd alpha > 1 and
    beta even and prime to alpha."""
    sq = beta * beta % alpha
    # The expansion of the mirror has the same change positions, so the
    # obstruction may be read off alpha/|beta|.
    expansion = tuple(expand_1212(SchubertFraction(alpha, abs(beta) % alpha)))
    return FractionCandidate(beta, sq, sq in (2 % alpha, -2 % alpha),
                             expansion,
                             sign_change_profile(expansion).max_run >= 2)
