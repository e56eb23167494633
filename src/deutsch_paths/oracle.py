"""Brute-force ground truth: exhaustive path generation, area totals, and
the reversal bijection between the two path families."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import VerificationFailure
from .strip import Direction

DEFAULT_BUDGET = 16


@dataclass(frozen=True)
class OracleReport:
    """Histogram of endpoints plus the cumulative area over closed paths."""

    by_level: dict[int, int]
    closed_count: int
    total_area: int


def _steps(direction: Direction, level: int, cap: int) -> Iterator[int]:
    # generation order: up first, then shallowest down (keeps output stable)
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


def _walk(direction: Direction, n: int, height: Optional[int], top: int,
          budget: int, visit: Callable[[list[int]], None]) -> None:
    """Call visit(c_0..c_n) on every path of length n that stays in the strip
    [0, height] (if given) and ends at a level <= top.

    Pruning lemma: an RL path's only down-step is -1, so from level l with r
    steps left it ends at a level >= l - r.  An RL up-step at position pos
    (r = n - pos - 1 steps after it) is thus taken only up to top + r.  LR
    paths are not pruned: their odd down-steps can drop any distance.
    """
    if n < 0 or (height is not None and height < 0):
        raise ValueError("length and height must be nonnegative")
    if n > budget:
        raise ValueError(f"length {n} exceeds enumeration budget {budget}")
    rl = direction is Direction.RL
    path = [0]

    def walk(pos: int, level: int) -> None:
        if pos == n:
            if level <= top:
                visit(path)
            return
        cap = top + n - pos - 1 if rl else n
        for nxt in _steps(direction, level, cap if height is None else min(cap, height)):
            path.append(nxt)
            walk(pos + 1, nxt)
            path.pop()

    walk(0, 0)


def enumerate_paths(
    direction: Direction,
    n: int,
    height: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> OracleReport:
    """Exhaustive walk over every legal path of length n.

    Only counts and the closed-path area are accumulated.  Unbounded RL paths
    have infinitely many endpoints, so the histogram keeps the levels <= n
    only; by the lemma of _walk, an RL step to nxt with r steps after it is
    skipped when nxt - r > n, a ceiling n + r that falls with the position.
    """
    by_level: Counter[int] = Counter()
    total_area = 0

    def visit(path: list[int]) -> None:
        nonlocal total_area
        by_level[path[-1]] += 1
        if path[-1] == 0:
            total_area += sum(path)

    _walk(direction, n, height, n if height is None else height, budget, visit)
    return OracleReport(dict(by_level), by_level[0], total_area)


def generate_closed(
    direction: Direction, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All closed paths of length n as ordinate tuples c_0..c_n.  By the lemma
    of _walk an RL path closes only if its level l <= r, the steps left, so
    an RL up-step to nxt > n - pos - 1 is skipped."""
    out: list[tuple[int, ...]] = []
    _walk(direction, n, None, 0, budget, lambda path: out.append(tuple(path)))
    return out


def reverse_check(n: int, budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Verify that reversing every closed LR path gives exactly the closed
    RL paths, and that the area multiset survives the reversal."""
    if n % 2 != 0:
        raise ValueError("closed paths have even length")
    lr = generate_closed(Direction.LR, n, budget=budget)
    rl = generate_closed(Direction.RL, n, budget=budget)
    reversed_lr = {tuple(reversed(p)) for p in lr}
    if len(reversed_lr) != len(lr):
        raise VerificationFailure(f"reversal is not injective at n={n}")
    if reversed_lr != set(rl):
        raise VerificationFailure(f"reversed LR paths != RL paths at n={n}")
    if Counter(map(sum, lr)) != Counter(map(sum, rl)):
        raise VerificationFailure(f"area multisets differ under reversal at n={n}")
    return {"length": n, "closed_paths": len(lr)}


def area_check(n_max: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, int]]:
    """Compare the oracle's total area against the closed binomial sum for
    every half-length n <= n_max; returns the agreed (n, area) pairs."""
    from .closed import area_coeff

    results = []
    for n in range(n_max + 1):
        oracle = enumerate_paths(Direction.LR, 2 * n, budget=budget).total_area
        formula = area_coeff(n)
        if oracle != formula:
            raise VerificationFailure(
                f"area mismatch at n={n}: oracle {oracle} vs formula {formula}"
            )
        results.append((n, formula))
    return results
