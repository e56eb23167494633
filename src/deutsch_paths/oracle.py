"""Brute-force ground truth: exhaustive path generation, area totals, and
the reversal bijection between the two path families."""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import chain
from typing import Iterator, Optional

from .closed import area_coeff
from .errors import VerificationFailure
from .strip import Direction

DEFAULT_BUDGET = 16


def _steps(direction: Direction, level: int, cap: int) -> Iterator[int]:
    """The levels one step from `level` in [0, cap], up first, then shallowest
    down (stable output); `down` and `up` move by 2 until they leave [0, cap]."""
    if direction is Direction.LR:
        if level + 1 <= cap:
            yield level + 1
        down = level - 1
        while down >= 0:
            yield down
            down -= 2
    else:
        up = level + 1
        while up <= cap:
            yield up
            up += 2
        if level - 1 >= 0:
            yield level - 1


def _split(direction: Direction, n: int) -> int:
    """The position at which `_walk` splits a path of length n into a walked
    prefix c_0..c_split and a cached tail.  RL tails are pruned at every step
    (by the lemma of _walk), so RL meets in the middle, at n // 2.  An LR tail
    is pruned at its last step only, so its table holds every unfiltered
    tail; LR splits later, at 2n // 3, leaving a tail of ceil(n/3) steps."""
    return n // 2 if direction is Direction.RL else 2 * n // 3


def _walk(direction: Direction, n: int, height: Optional[int], top: int,
          budget: int) -> Iterator[list[tuple[int, ...]]]:
    """Every path c_0..c_n of length n that stays in the strip [0, height]
    (if given) and ends at a level <= top, as tuples in depth-first order,
    yielded one list per prefix c_0..c_s, s = _split(direction, n): one
    comprehension appends to the prefix each tail c_{s+1}..c_n that `tail`
    keeps for its level.  The steps from a (level, position) and the tails
    of a level are each computed once.  The prefixes wait on a stack, so the
    walk holds O(n^2) prefixes, one list of paths, and the tails from the
    levels reachable at s (each built breadth first over its n - s steps),
    never a whole level of the tree: reverse_check(14) peaks under 5 MB.
    The arguments are checked when the first list is asked for.

    Pruning lemma: an RL path's only down-step is -1, so from level l with r
    steps left it ends at a level >= l - r.  An RL up-step at position pos
    (r = n - pos - 1 steps after it) is thus taken only up to top + r.  An
    LR path is pruned at its final step only, to the levels <= top: its odd
    down-steps can drop any distance before that.
    """
    if n < 0 or (height is not None and height < 0):
        raise ValueError("length and height must be nonnegative")
    if n > budget:
        raise ValueError(f"length {n} exceeds enumeration budget {budget}")
    rl = direction is Direction.RL
    split = _split(direction, n)  # the position each list's prefix ends at

    @cache
    def after(level: int, pos: int) -> tuple[int, ...]:
        """The levels the step after position pos may reach from `level`."""
        cap = top + n - pos - 1 if rl else n
        return tuple(_steps(direction, level, cap if height is None else min(cap, height)))

    @cache
    def tail(level: int) -> tuple[tuple[int, ...], ...]:
        """The steps after position `split` from `level` that end <= top."""
        ends = [((), level)]
        for pos in range(split, n):
            ends = [(end + (nxt,), nxt) for end, at in ends for nxt in after(at, pos)]
        return tuple(end for end, at in ends if at <= top)

    stack = [(0,)]
    while stack:
        path = stack.pop()
        pos = len(path) - 1
        if pos < split:
            stack.extend([path + (nxt,) for nxt in reversed(after(path[-1], pos))])
        elif ends := tail(path[-1]):
            yield [path + end for end in ends]


def enumerate_paths(
    direction: Direction | str,
    n: int,
    height: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[dict[int, int], int]:
    """Exhaustive walk over every legal path of length n: (by_level,
    total_area), the histogram of endpoints and the cumulative area over
    the closed paths.

    Only counts and the closed-path area are accumulated.  Unbounded RL paths
    have infinitely many endpoints, so the histogram keeps the levels <= n
    only; by the lemma of _walk, an RL step to nxt with r steps after it is
    skipped when nxt - r > n, a ceiling n + r that falls with the position.
    """
    by_level: Counter[int] = Counter()
    total_area = 0
    for paths in _walk(Direction(direction), n, height, n if height is None else height, budget):
        by_level.update(path[-1] for path in paths)
        total_area += sum(sum(path) for path in paths if path[-1] == 0)
    return dict(by_level), total_area


def generate_closed(
    direction: Direction | str, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All closed paths of length n as ordinate tuples c_0..c_n, in depth-first
    order: each walked prefix up to position _split(direction, n), followed
    by each of its level's cached tails.  By the lemma of _walk an RL path
    closes only if its level l <= r, the steps left, so an RL up-step to
    nxt > n - pos - 1 is skipped."""
    return list(chain.from_iterable(_walk(Direction(direction), n, None, 0, budget)))


def reverse_check(n: int, budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Verify that reversing every closed LR path gives exactly the closed
    RL paths.  Each walk is first checked for a repeated path.  Reversal is
    injective, so with no repeats the two sets agree once the counts agree
    and every reversed LR path is an RL path; no set of reversed paths is
    built.  Reversal is then a bijection from the LR paths onto the RL
    paths, and a path has the same sum as its reversal, so the area
    multisets agree too: comparing them could never fail, and is not done."""
    if n % 2 != 0:
        raise ValueError("closed paths have even length")
    lr = generate_closed(Direction.LR, n, budget=budget)
    rl = generate_closed(Direction.RL, n, budget=budget)
    rl_set = set(rl)
    if len(set(lr)) != len(lr):
        raise VerificationFailure(f"the LR walk repeated a path at n={n}")
    if len(rl_set) != len(rl):
        raise VerificationFailure(f"the RL walk repeated a path at n={n}")
    if len(lr) != len(rl) or any(p[::-1] not in rl_set for p in lr):
        raise VerificationFailure(f"reversed LR paths != RL paths at n={n}")
    return {"length": n, "closed_paths": len(lr)}


def area_check(n_max: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, int]]:
    """Compare the oracle's total area against the closed binomial sum for
    every half-length n <= n_max; returns the agreed (n, area) pairs."""
    results = []
    for n in range(n_max + 1):
        _, oracle = enumerate_paths(Direction.LR, 2 * n, budget=budget)
        formula = area_coeff(n)
        if oracle != formula:
            raise VerificationFailure(
                f"area mismatch at n={n}: oracle {oracle} vs formula {formula}"
            )
        results.append((n, formula))
    return results
