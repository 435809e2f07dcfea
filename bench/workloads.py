"""Seeded inputs for the benchmark workloads.

Each workload yields *rounds*.  A round is the whole table or a
stratified draw, so any run made of whole rounds sees the same mix of
input sizes whatever the seed; the seed only changes which curves fill
each stratum and in what order.  That keeps medians and percentiles
steady from seed to seed.

* ``table-sweep``: one round is every curve of
  ``enumerate_table_triples(TABLE_MAX_AB)`` in seeded order.
* ``interactive``: one round is ``INTERACTIVE_ROUND`` triples with log c
  stratified over [1, C_MAX], one curve per stratum, a in {3, 4, 5} and
  b among the b with N <= 16.  A triple the caller rejects (one the seed
  commit fails on) is replaced by the next b and a new c in its stratum.
"""

from __future__ import annotations

import math
import random
from math import gcd

WORKLOADS = ("table-sweep", "interactive")

TABLE_MAX_AB = 72

# b > a, coprime to a, with N = (a-1)(b-1)/2 <= 16.
INTERACTIVE_B = {
    3: (4, 5, 7, 8, 10, 11, 13, 14, 16, 17),
    4: (5, 7, 9, 11),
    5: (6, 7, 8, 9),
}
C_MAX = 10 ** 6
INTERACTIVE_ROUND = 30


def is_reducible(a: int, b: int, c: int) -> bool:
    """Whether c = lam*a + mu*b for some lam, mu >= 1."""
    return any((c - lam * a) % b == 0
               for lam in range(1, (c - b) // a + 1))


def irreducible_cs(a: int, b: int) -> list[int]:
    """All c in [1, ab) coprime to ab that do not reduce."""
    return [c for c in range(1, a * b)
            if gcd(c, a * b) == 1 and not is_reducible(a, b, c)]


def interactive_reduced() -> list[tuple[int, int, int]]:
    """Every irreducible triple an interactive draw can reduce to."""
    return [(a, b, c) for a, bs in INTERACTIVE_B.items() for b in bs
            for c in irreducible_cs(a, b)]


def table_rounds(seed: int, triples: list[tuple[int, int, int]]):
    rng = random.Random(seed)
    while True:
        order = list(triples)
        rng.shuffle(order)
        yield order


def _coprime_c(a: int, b: int, c: int) -> int:
    while gcd(c, a * b) != 1:
        c += 1
    return c


def interactive_rounds(seed: int, reject=lambda triple: False):
    """Round r gives stratum i of log c (one per curve) to a = A[(i+r) % 3],
    so every three rounds pair each stratum with each a; each a deals its
    b from a seeded deck, so every b comes up about equally often.  While
    ``reject`` holds for a triple, the next b and a new c in the same
    stratum replace it."""
    rng = random.Random(seed)
    log_max = math.log(C_MAX)
    decks = {a: [] for a in INTERACTIVE_B}
    r = 0
    while True:
        round_ = []
        for i in range(INTERACTIVE_ROUND):
            a = tuple(INTERACTIVE_B)[(i + r) % len(INTERACTIVE_B)]
            while True:
                if not decks[a]:
                    decks[a] = list(INTERACTIVE_B[a])
                    rng.shuffle(decks[a])
                b = decks[a].pop()
                u = (i + rng.random()) / INTERACTIVE_ROUND
                c = _coprime_c(a, b, max(1, round(math.exp(u * log_max))))
                if not reject((a, b, c)):
                    break
            round_.append((a, b, c))
        rng.shuffle(round_)
        r += 1
        yield round_
