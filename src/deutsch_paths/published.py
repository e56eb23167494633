"""Series tables as printed in the published source, with known errata.

The printed left-to-right lists, and the level-0 right-to-left list that
repeats f_0, are exactly the strip counts at barrier h = 7: every entry
equals `dp_counts(LR, 16, 7)` and `bounded_f(k, 7, 16)`, and no other
barrier reproduces them (the tests prove both), so every f coefficient at
order >= 9 falls short of the true unbounded value.  The other
right-to-left lists are exact apart from a single typo at [z^11] of
level 3.  ``printed_deviations`` recomputes the full diff against
the closed-form counts; ``DOCUMENTED_DEVIATIONS`` is the frozen expected
diff, so any drift in either direction is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed import count_lr_closed, count_rl_closed

PRINTED_F: dict[int, dict[int, int]] = {
    0: {0: 1, 2: 1, 4: 3, 6: 12, 8: 55, 10: 268, 12: 1338, 14: 6741, 16: 34075},
    1: {1: 1, 3: 2, 5: 7, 7: 30, 9: 142, 11: 701, 13: 3517, 15: 17751},
    2: {2: 1, 4: 3, 6: 12, 8: 55, 10: 268, 12: 1338, 14: 6741, 16: 34075},
    3: {3: 1, 5: 4, 7: 18, 9: 87, 11: 433, 13: 2179, 15: 11010},
    4: {4: 1, 6: 5, 8: 25, 10: 126, 12: 637, 14: 3224, 16: 16324},
    5: {5: 1, 7: 6, 9: 32, 11: 165, 13: 841, 15: 4269},
    6: {6: 1, 8: 7, 10: 39, 12: 204, 14: 1045, 16: 5314},
}

PRINTED_G: dict[int, dict[int, int]] = {
    0: {0: 1, 2: 1, 4: 3, 6: 12, 8: 55, 10: 268, 12: 1338, 14: 6741, 16: 34075},
    1: {1: 1, 3: 3, 5: 12, 7: 55, 9: 273, 11: 1428, 13: 7752, 15: 43263},
    2: {2: 2, 4: 9, 6: 43, 8: 218, 10: 1155, 12: 6324, 14: 35511},
    3: {1: 1, 3: 6, 5: 31, 7: 163, 9: 882, 11: 48967, 13: 27759},
    4: {2: 3, 4: 19, 6: 108, 8: 609, 10: 3468, 12: 20007},
    5: {1: 1, 3: 10, 5: 65, 7: 391, 9: 2313, 11: 13683},
    6: {2: 4, 4: 34, 6: 228, 8: 1431, 10: 8787},
}


@dataclass(frozen=True, order=True)
class Deviation:
    family: str  # "f" or "g"
    level: int
    order: int
    printed: int
    computed: int


# every printed f coefficient at order >= 9 is a finite-barrier artifact;
# the g lists only inherit the level-0 artifacts plus one typo at (3, 11)
DOCUMENTED_DEVIATIONS: frozenset[Deviation] = frozenset(
    [
        Deviation("f", 0, 10, 268, 273),
        Deviation("f", 0, 12, 1338, 1428),
        Deviation("f", 0, 14, 6741, 7752),
        Deviation("f", 0, 16, 34075, 43263),
        Deviation("f", 1, 9, 142, 143),
        Deviation("f", 1, 11, 701, 728),
        Deviation("f", 1, 13, 3517, 3876),
        Deviation("f", 1, 15, 17751, 21318),
        Deviation("f", 2, 10, 268, 273),
        Deviation("f", 2, 12, 1338, 1428),
        Deviation("f", 2, 14, 6741, 7752),
        Deviation("f", 2, 16, 34075, 43263),
        Deviation("f", 3, 9, 87, 88),
        Deviation("f", 3, 11, 433, 455),
        Deviation("f", 3, 13, 2179, 2448),
        Deviation("f", 3, 15, 11010, 13566),
        Deviation("f", 4, 10, 126, 130),
        Deviation("f", 4, 12, 637, 700),
        Deviation("f", 4, 14, 3224, 3876),
        Deviation("f", 4, 16, 16324, 21945),
        Deviation("f", 5, 9, 32, 33),
        Deviation("f", 5, 11, 165, 182),
        Deviation("f", 5, 13, 841, 1020),
        Deviation("f", 5, 15, 4269, 5814),
        Deviation("f", 6, 10, 39, 42),
        Deviation("f", 6, 12, 204, 245),
        Deviation("f", 6, 14, 1045, 1428),
        Deviation("f", 6, 16, 5314, 8379),
        Deviation("g", 0, 10, 268, 273),
        Deviation("g", 0, 12, 1338, 1428),
        Deviation("g", 0, 14, 6741, 7752),
        Deviation("g", 0, 16, 34075, 43263),
        Deviation("g", 3, 11, 48967, 4896),
    ]
)


def printed_deviations() -> frozenset[Deviation]:
    """Recompute the diff between printed tables and closed-form counts."""
    devs: set[Deviation] = set()
    for family, printed_lists, count in (("f", PRINTED_F, count_lr_closed),
                                         ("g", PRINTED_G, count_rl_closed)):
        for level, table in printed_lists.items():
            for order, printed in table.items():
                computed = count(order, level)
                if computed != printed:
                    devs.add(Deviation(family, level, order, printed, computed))
    return frozenset(devs)
