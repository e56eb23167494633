"""Brute-force oracle against the DP tables and the area formulas."""

import itertools
from collections import Counter

import pytest

from deutsch_paths.closed import cat3
from deutsch_paths.errors import VerificationFailure
from deutsch_paths.oracle import (
    area_check,
    enumerate_paths,
    generate_closed,
    reverse_check,
)
from deutsch_paths.strip import Direction, dp_counts


class TestEnumerate:
    def test_lr_n4(self):
        rep = enumerate_paths(Direction.LR, 4)
        assert rep.by_level == {0: 3, 2: 3, 4: 1}
        assert rep.total_area == 12

    def test_lr_n2(self):
        rep = enumerate_paths(Direction.LR, 2)
        assert rep.by_level == {0: 1, 2: 1}
        assert rep.total_area == 1

    def test_rl_n2(self):
        assert enumerate_paths(Direction.RL, 2).by_level == {0: 1, 2: 2}

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            enumerate_paths(Direction.LR, 17)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_negative_height_rejected(self, direction):
        with pytest.raises(ValueError, match="height"):
            enumerate_paths(direction, 0, height=-1)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_dp_unbounded(self, direction):
        n_top = 12
        table = dp_counts(direction, n_top)
        for n in range(n_top + 1):
            rep = enumerate_paths(direction, n)
            for k in range(n + 1):
                assert rep.by_level.get(k, 0) == table.count(n, k), (n, k)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("h", [0, 1, 2, 5, 8])
    def test_matches_dp_bounded(self, direction, h):
        n_top = 10
        table = dp_counts(direction, n_top, height=h)
        for n in range(n_top + 1):
            rep = enumerate_paths(direction, n, height=h)
            for k in range(h + 1):
                assert rep.by_level.get(k, 0) == table.count(n, k), (n, k)

    def test_barrier_monotone(self):
        for h in range(5):
            lo = enumerate_paths(Direction.LR, 8, height=h).by_level
            hi = enumerate_paths(Direction.LR, 8, height=h + 1).by_level
            assert all(lo.get(k, 0) <= hi.get(k, 0) for k in hi)
        # equality once the barrier clears the length
        assert (
            enumerate_paths(Direction.LR, 8, height=8).by_level
            == enumerate_paths(Direction.LR, 8).by_level
        )


class TestGenerateClosed:
    def test_n4_paths(self):
        paths = generate_closed(Direction.LR, 4)
        assert sorted(paths) == [
            (0, 1, 0, 1, 0),
            (0, 1, 2, 1, 0),
            (0, 1, 2, 3, 0),
        ]
        assert sorted(sum(p) for p in paths) == [2, 4, 6]

    def test_empty_path(self):
        assert generate_closed(Direction.LR, 0) == [(0,)]


def _raw_paths(direction, n, height, top):
    """Unpruned reference: every sequence of n raw steps, kept when it stays
    in [0, height] and ends at a level <= top.  The alphabet holds every step
    a kept path can take.  An LR drop starts below n and under the height.
    An RL up-step s either leaves the strip or is followed by n - 1 steps of
    at least -1, so the path ends at >= s - (n - 1), and s <= top + n - 1."""
    if direction is Direction.LR:
        deepest = n - 1 if height is None else height
        alphabet = (1, *range(-1, -deepest - 1, -2))
    else:
        highest = top + n - 1 if height is None else height
        alphabet = (-1, *range(1, highest + 1, 2))
    for steps in itertools.product(alphabet, repeat=n):
        path = (0, *itertools.accumulate(steps))
        if min(path) >= 0 and path[-1] <= top and (height is None or max(path) <= height):
            yield path


class TestPruningAgainstRawSteps:
    """The pruned walker against raw step sequences, for n <= 8.  Unbounded
    RL stops at n = 6: its alphabet makes (n + 1)**n sequences, 43 million
    at n = 8."""

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("height", [None, 0, 1, 3])
    def test_enumerate_paths(self, direction, height):
        n_top = 6 if direction is Direction.RL and height is None else 8
        for n in range(n_top + 1):
            top = n if height is None else height
            ref = list(_raw_paths(direction, n, height, top))
            rep = enumerate_paths(direction, n, height=height)
            assert rep.by_level == Counter(p[-1] for p in ref), (n, height)
            assert rep.closed_count == sum(p[-1] == 0 for p in ref)
            assert rep.total_area == sum(sum(p) for p in ref if p[-1] == 0)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_generate_closed(self, direction):
        for n in range(9):
            ref = sorted(_raw_paths(direction, n, None, 0))
            assert sorted(generate_closed(direction, n)) == ref, n


class TestReverseCheck:
    @pytest.mark.parametrize("n", range(0, 17, 2))
    def test_bijection(self, n):
        info = reverse_check(n, budget=16)
        assert info == {"length": n, "closed_paths": cat3(n // 2)}

    def test_default_budget(self):
        with pytest.raises(ValueError, match="budget 16"):
            reverse_check(18)

    def test_counts(self):
        assert reverse_check(4)["closed_paths"] == 3
        assert reverse_check(6)["closed_paths"] == 12
        assert reverse_check(0)["closed_paths"] == 1

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            reverse_check(3)


class TestAreaCheck:
    def test_small(self):
        assert area_check(3) == [(0, 0), (1, 1), (2, 12), (3, 102)]

    def test_raises_on_mismatch(self):
        # sanity: the helper really compares (force a bad formula via monkeypatch)
        import deutsch_paths.closed as closed_mod

        orig = closed_mod.area_coeff
        closed_mod.area_coeff = lambda n: orig(n) + (1 if n == 1 else 0)
        try:
            with pytest.raises(VerificationFailure):
                area_check(2)
        finally:
            closed_mod.area_coeff = orig
