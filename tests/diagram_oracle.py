"""Per-curve diagram readings, kept as the oracle for ``diagram``'s Gauss
codes, which place each passage at its numerator and hold interned
entries, and for its twist reading.

``oracle_gauss_code`` sorts the 2N passage numerators of one crossing list
and builds a fresh ``GaussEntry`` for each passage.
``oracle_read_conway`` groups one crossing list by x rank and runs every
shape check on each call.  Neither caches anything.
"""

from harmonicknots.diagram import GaussCode, GaussEntry
from harmonicknots.errors import InternalError


def oracle_gauss_code(crossings):
    """Gauss code of a Chebyshev diagram, traversed by increasing t: the
    passages sorted by decreasing numerator, ids 1-based in list order."""
    passages = []
    for cid, c in enumerate(crossings, start=1):
        over_t = c.over_at_t
        passages.append((c.t_num, cid, over_t, c.oriented_sign))
        passages.append((c.s_num, cid, not over_t, c.oriented_sign))
    nums = {p[0] for p in passages}
    if len(nums) != len(passages):
        raise InternalError("coincident crossing parameters")
    passages.sort(key=lambda p: p[0], reverse=True)
    return GaussCode(tuple(GaussEntry(cid, "O" if over else "U", sign)
                           for _, cid, over, sign in passages))


def oracle_read_conway(K, crossings):
    """The twist sequence of a diagram with a in {3, 4}: groups by x rank,
    scanned by increasing x, each summing its signs with the alternating
    parity of its position."""
    if K.a not in (3, 4):
        raise ValueError(
            f"twist-sequence reading needs a in {{3, 4}}, got a={K.a}")
    groups = {}
    for c in crossings:
        groups.setdefault(c.x_order, []).append(c)
    ordered = [groups[r] for r in sorted(groups, reverse=True)]
    if len(ordered) != K.b - 1:
        raise InternalError(
            f"expected {K.b - 1} x-groups, found {len(ordered)}")
    terms = []
    axis_level = K.a // 2 if K.a % 2 == 0 else None
    for i, group in enumerate(ordered, start=1):
        parity = 1 if i % 2 else -1
        term = sum(parity * c.sign for c in group)
        if K.a == 4:
            on_axis = all(c.y_level == axis_level for c in group)
            if i % 2 == 1 and not (on_axis and len(group) == 1):
                raise InternalError(
                    "odd positions must be single axis crossings")
            if i % 2 == 0 and (on_axis or len(group) != 2):
                raise InternalError("even positions must be symmetric pairs")
            if term == 0:
                raise InternalError(
                    "cancelling pair: not a diagram of a harmonic knot")
        elif len(group) != 1:
            raise InternalError("a = 3 diagrams have distinct x-coordinates")
        terms.append(term)
    return terms
