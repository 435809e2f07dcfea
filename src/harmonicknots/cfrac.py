"""Signed continued fractions and the two-bridge fraction calculus.

A signed continued fraction [a1, ..., an] denotes
a1 + 1/(a2 + 1/(... + 1/an)); evaluation is done projectively with the
continuant recurrence so that intermediate zero tails never divide by zero.
Two-bridge knots are classified by their fraction alpha/beta up to
beta' = beta^{+-1} (mod alpha), with the mirror image negating beta.
Every routine works on the integer pair (alpha, beta); nothing divides.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from .errors import InternalError

# A signed continued fraction is just a sequence of integer terms.
SignedCF = Sequence[int]


# ---------------------------------------------------------------------------
# Fractions


class _FractionFields(NamedTuple):
    alpha: int
    beta: int


class SchubertFraction(_FractionFields):
    """A two-bridge fraction alpha/beta with alpha >= 0 and gcd reduced.

    The sign lives on beta (alpha/(-beta) is the mirror image).  Two special
    values are representable: 1/0 (the unknot, projective infinity) and 0/1
    (the two-component unlink).  Knot fractions have odd alpha.
    """

    __slots__ = ()

    def __new__(cls, alpha: int, beta: int):
        a, b = alpha, beta
        if a == 0 and b == 0:
            raise ValueError("0/0 is not a fraction")
        g = gcd(abs(a), abs(b))
        if g > 1:
            a //= g
            b //= g
        if a < 0:
            a, b = -a, -b
        elif a == 0:
            b = 1
        return tuple.__new__(cls, (a, b))

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
            raise ValueError(f"gcd({self.beta}, {a}) != 1")
        inv = pow(b, -1, a)
        return tuple(sorted({b, inv, a - b, a - inv}))

    def display(self) -> str:
        """Canonical printable form: smallest denominator in the class.

        Among the four residues beta^{+-1}, -beta^{+-1} (mod alpha) the
        smallest one in [0, alpha) is printed; integers print bare.  So
        every unknot fraction, alpha = 1, prints as 1/0.
        """
        if self.alpha == 0:
            return "0"
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
        raise ValueError("beta not invertible modulo alpha")
    if up_to_mirror:
        return bg in f.equivalence_class()
    return bg == bf or bg * bf % a == 1


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_projective(cf: SignedCF) -> SchubertFraction:
    """Projective value (p : r) of the continued fraction; total, never
    raises.

    (p, r) is the first column of the product of the matrices
    [[ai, 1], [1, 0]], run as the continuant recurrence; the empty
    sequence is the identity, whose value is 1/0.
    """
    p, q, r, s = 1, 0, 0, 1
    for a in cf:
        p, q, r, s = p * a + q, p, r * a + s, r
    return SchubertFraction(p, r)


def positive_cf(f: SchubertFraction) -> list[int]:
    """All-positive Euclidean expansion of a finite fraction f > 0.

    Serves as the independent crossing-number oracle: the sum of the terms
    is the crossing number of the two-bridge knot of f.  For 0 < f < 1 the
    expansion starts with a 0 term (which does not affect the sum).
    """
    num, den = f.alpha, f.beta
    if num == 0 or den <= 0:
        raise ValueError(f"{num}/{den} has no positive expansion")
    terms = []
    while den:
        q, rem = divmod(num, den)
        terms.append(q)
        num, den = den, rem
    return terms


# ---------------------------------------------------------------------------
# The [1, +-2, ..., +-1, +-2] expansion


def _longest_sign_change_run(terms: Sequence[int]) -> int:
    """The longest run of consecutive positions j with
    term_j * term_{j+1} < 0."""
    longest = run = 0
    for x, y in zip(terms, terms[1:]):
        run = run + 1 if x * y < 0 else 0
        longest = max(longest, run)
    return longest


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
        raise ValueError(f"cannot expand {n}/{d}, not a positive value")
    if n % 2 == 0 or d % 2 == 1:
        raise ValueError(
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
    if evaluate_projective(terms) != f or _longest_sign_change_run(terms) >= 3:
        raise InternalError(
            f"expansion of {f.alpha}/{f.beta} failed validation")
    return terms


class FractionCandidate(NamedTuple):
    """Whether alpha/beta (odd alpha, even beta) can be the fraction of an
    a = 4 harmonic curve: it must satisfy beta^2 = +-2 (mod alpha) and its
    [1, +-2, ...] expansion must have no two consecutive sign changes."""

    beta_sq_mod: int
    passes_beta_sq: bool
    expansion: tuple[int, ...]
    obstructed: bool


def fraction_candidate(alpha: int, beta: int) -> FractionCandidate:
    """The a = 4 eligibility report of alpha/beta, for odd alpha > 1 and
    beta even and prime to alpha."""
    sq = beta * beta % alpha
    # The expansion of the mirror has the same change positions, so the
    # obstruction may be read off alpha/|beta|.
    expansion = tuple(expand_1212(SchubertFraction(alpha, abs(beta) % alpha)))
    return FractionCandidate(sq, sq in (2 % alpha, -2 % alpha), expansion,
                             _longest_sign_change_run(expansion) >= 2)
