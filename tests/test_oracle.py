"""Brute-force oracle against the DP tables and the area formulas."""

import itertools
import tracemalloc
from collections import Counter

import pytest

from deutsch_paths.closed import cat3
from deutsch_paths import oracle
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
        by_level, total_area = enumerate_paths(Direction.LR, 4)
        assert by_level == {0: 3, 2: 3, 4: 1}
        assert total_area == 12

    def test_lr_n2(self):
        by_level, total_area = enumerate_paths(Direction.LR, 2)
        assert by_level == {0: 1, 2: 1}
        assert total_area == 1

    def test_rl_n2(self):
        assert enumerate_paths(Direction.RL, 2)[0] == {0: 1, 2: 2}

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
            by_level, _ = enumerate_paths(direction, n)
            for k in range(n + 1):
                assert by_level.get(k, 0) == table.count(n, k), (n, k)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("h", [0, 1, 2, 5, 8])
    def test_matches_dp_bounded(self, direction, h):
        n_top = 10
        table = dp_counts(direction, n_top, height=h)
        for n in range(n_top + 1):
            by_level, _ = enumerate_paths(direction, n, height=h)
            for k in range(h + 1):
                assert by_level.get(k, 0) == table.count(n, k), (n, k)

    def test_barrier_monotone(self):
        for h in range(5):
            lo, _ = enumerate_paths(Direction.LR, 8, height=h)
            hi, _ = enumerate_paths(Direction.LR, 8, height=h + 1)
            assert all(lo.get(k, 0) <= hi.get(k, 0) for k in hi)
        # equality once the barrier clears the length
        assert (
            enumerate_paths(Direction.LR, 8, height=8)[0]
            == enumerate_paths(Direction.LR, 8)[0]
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
            by_level, total_area = enumerate_paths(direction, n, height=height)
            assert by_level == Counter(p[-1] for p in ref), (n, height)
            assert by_level.get(0, 0) == sum(p[-1] == 0 for p in ref)
            assert total_area == sum(sum(p) for p in ref if p[-1] == 0)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_generate_closed(self, direction):
        for n in range(9):
            ref = sorted(_raw_paths(direction, n, None, 0))
            assert sorted(generate_closed(direction, n)) == ref, n


def reference_walk(direction, n, height, top, budget, visit):
    """The walker as a recursion over one list: visit(c_0..c_n) on every
    path of length n in the strip [0, height] (if given) that ends at a
    level <= top, with the RL up-steps pruned to top + r (r steps left) and
    no LR step pruned."""
    if n < 0 or (height is not None and height < 0):
        raise ValueError("length and height must be nonnegative")
    if n > budget:
        raise ValueError(f"length {n} exceeds enumeration budget {budget}")
    rl = direction is Direction.RL
    path = [0]

    def walk(pos, level):
        if pos == n:
            if level <= top:
                visit(path)
            return
        cap = top + n - pos - 1 if rl else n
        for nxt in oracle._steps(direction, level, cap if height is None else min(cap, height)):
            path.append(nxt)
            walk(pos + 1, nxt)
            path.pop()

    walk(0, 0)


class TestWalkerAgainstRecursion:
    """The batched walker against the recursive one it replaced: the same
    paths, in the same order."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_generate_closed(self, direction):
        for n in range(13):
            ref = []
            reference_walk(direction, n, None, 0, 16, lambda path: ref.append(tuple(path)))
            assert generate_closed(direction, n) == ref, n

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("height", [None, 0, 1, 3, 5])
    def test_enumerate_paths(self, direction, height):
        for n in range(11):
            ref = []
            top = n if height is None else height
            reference_walk(direction, n, height, top, 16, lambda path: ref.append(tuple(path)))
            by_level, total_area = enumerate_paths(direction, n, height=height)
            assert by_level == Counter(p[-1] for p in ref), (n, height)
            assert total_area == sum(sum(p) for p in ref if p[-1] == 0), (n, height)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_one_list_per_prefix(self, direction):
        split = oracle._split(direction, 12)
        lists = list(oracle._walk(direction, 12, None, 0, 16))
        prefixes = [{p[:split + 1] for p in paths} for paths in lists]
        assert all(len(ps) == 1 for ps in prefixes)
        assert len({ps.pop() for ps in prefixes}) == len(lists)


class TestSplitAtEveryPosition:
    """The walker split at each position 0..n, from one list holding every
    path (0) to one list per path (n), against the recursive walker: the
    same paths in the same order."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_generate_closed(self, monkeypatch, direction):
        for n in range(11):
            ref = []
            reference_walk(direction, n, None, 0, 16, lambda path: ref.append(tuple(path)))
            for split in range(n + 1):
                monkeypatch.setattr(oracle, "_split", lambda d, m, split=split: split)
                assert generate_closed(direction, n) == ref, (n, split)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("height", [None, 0, 1, 3])
    def test_enumerate_paths(self, monkeypatch, direction, height):
        for n in range(9):
            ref = []
            top = n if height is None else height
            reference_walk(direction, n, height, top, 16, lambda path: ref.append(tuple(path)))
            for split in range(n + 1):
                monkeypatch.setattr(oracle, "_split", lambda d, m, split=split: split)
                walked = [p for paths in oracle._walk(direction, n, height, top, 16) for p in paths]
                assert walked == ref, (n, height, split)
                by_level, total_area = enumerate_paths(direction, n, height=height)
                assert by_level == Counter(p[-1] for p in ref), (n, height, split)
                assert total_area == sum(sum(p) for p in ref if p[-1] == 0), (n, height, split)


class TestWalkCost:
    """The work and the memory of the walk, guarded by counts."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_lists_at_n14(self, direction):
        split = oracle._split(direction, 14)
        lists = list(oracle._walk(direction, 14, None, 0, 16))
        prefixes = [{p[:split + 1] for p in paths} for paths in lists]
        assert all(len(ps) == 1 for ps in prefixes)
        assert len({ps.pop() for ps in prefixes}) == len(lists)
        # 7752 closed paths in each direction; a list per path is a stack step per path
        assert sum(map(len, lists)) == 7752
        assert len(lists) <= 7752 / 5

    def test_reverse_check_memory(self):
        # 3.7 MB on CPython 3.11; a table of every LR tail (split 0) peaks at 6.1 MB
        tracemalloc.start()
        try:
            reverse_check(14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


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

    @pytest.mark.parametrize("repeated", list(Direction))
    def test_repeated_path_named(self, monkeypatch, repeated):
        real = oracle.generate_closed

        def generate(direction, n, budget):
            paths = real(direction, n, budget=budget)
            return paths + paths[:1] if direction is repeated else paths

        monkeypatch.setattr(oracle, "generate_closed", generate)
        with pytest.raises(VerificationFailure, match=f"the {repeated.name} walk repeated a path at n=6"):
            reverse_check(6)

    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_reversal_mismatch(self, monkeypatch, edit):
        # RL loses its last path, or gains one that no LR path reverses to
        real = oracle.generate_closed

        def generate(direction, n, budget):
            paths = real(direction, n, budget=budget)
            if direction is Direction.RL:
                return paths[:-1] if edit == "drop" else paths + [(0,) * n + (1,)]
            return paths

        monkeypatch.setattr(oracle, "generate_closed", generate)
        with pytest.raises(VerificationFailure, match="reversed LR paths != RL paths at n=6"):
            reverse_check(6)


class TestAreaCheck:
    def test_small(self):
        assert area_check(3) == [(0, 0), (1, 1), (2, 12), (3, 102)]

    def test_raises_on_mismatch(self, monkeypatch):
        # sanity: the helper really compares (a bad formula, patched where
        # area_check reads it)
        orig = oracle.area_coeff
        monkeypatch.setattr(oracle, "area_coeff", lambda n: orig(n) + (1 if n == 1 else 0))
        with pytest.raises(VerificationFailure, match="area mismatch at n=1"):
            area_check(2)
