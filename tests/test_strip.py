"""Strip enumeration, determinant recurrences, and the Cramer route."""

import builtins
import decimal
import sys
from collections import Counter
from functools import lru_cache, partial
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from deutsch_paths import strip, verify
from deutsch_paths.closed import count_rl_closed
from deutsch_paths.errors import ConsistencyError
from deutsch_paths.oracle import enumerate_paths, generate_closed
from deutsch_paths.series import IntPoly, ZSeries
from deutsch_paths.strip import (
    CountTable,
    Direction,
    bounded_f,
    bounded_g,
    delta,
    deltas_direct,
    det_d,
    det_direct,
    dp_counts,
    dp_rows,
    seq_a,
    seq_b,
    sequence_terms,
    solve_system,
    stabilized,
)


def zs(*coeffs):
    return ZSeries(coeffs)


def reference_dp_rows(direction, n_max, height=None):
    """The unoptimised O(n^2 * ladder) DP: every cell re-sums its parity class."""
    if direction is Direction.LR:
        ladder = n_max if height is None else min(height, n_max)
        report = n_max if height is None else min(height, n_max)
    else:
        ladder = 2 * n_max if height is None else height
        report = n_max if height is None else height
    prev = [0] * (ladder + 1)
    prev[0] = 1
    rows = [(1,)]
    for n in range(1, n_max + 1):
        cur = [0] * (ladder + 1)
        for k in range(ladder + 1):
            if direction is Direction.LR:
                acc = prev[k - 1] if k >= 1 else 0
                j = k + 1
                while j <= ladder:
                    acc += prev[j]
                    j += 2
            else:
                acc = prev[k + 1] if k + 1 <= ladder else 0
                j = k - 1
                while j >= 0:
                    acc += prev[j]
                    j -= 2
            cur[k] = acc
        prev = cur
        reach = n if direction is Direction.LR else report
        rows.append(tuple(cur[: min(reach, report) + 1]))
    return tuple(rows)


def reference_stream(name, order):
    """The dense z-series streams of a_n, b_n and d_m, as the Cramer route
    ran them before it worked in x = z^2."""
    one, zero = ZSeries.one(order), ZSeries.zero(order)
    if name == "b":
        init, step = (one, zero, one), lambda u3, u2, u1: u2 + u3.shift(1)
    else:
        init = (one, one, one if name == "a" else one - one.shift(2))
        step = lambda u3, u2, u1: u1 - u3.shift(2)
    u3, u2, u1 = init
    while True:
        yield u3
        u3, u2, u1 = u2, u1, step(u3, u2, u1)


def reference_delta(m, q, order):
    """The RL Cramer numerator as the cofactor expansion gives it, four
    products of b and a terms (and z(b_{m-2} + z b_{m-3}) for q = m),
    before b_n = b_{n-2} + z b_{n-3} folds each pair into one b term."""
    def a(n):
        return seq_a(n, order)

    def b(n):
        return seq_b(n, order)

    if q == 1:
        return det_d(m - 1, order)
    if q == m:
        return (b(m - 2) + b(m - 3).shift(1)).shift(1)
    return (
        (b(q - 2) * a(m - q)).shift(1)
        + (b(q - 3) * a(m - q)).shift(2)
        + (b(q - 3) * a(m - q - 1)).shift(2)
        + (b(q - 4) * a(m - q - 1)).shift(3)
    )


class RefPoly(IntPoly):
    """IntPoly with the arithmetic it had while det_direct eliminated over
    IntPoly objects; an index past either end reads 0."""

    def __sub__(self, other):
        n = max(len(self), len(other))
        return RefPoly(self[k] - other[k] for k in range(n))

    def __mul__(self, other):
        if not self or not other:
            return RefPoly()
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    out[i + j] += a * b
        return RefPoly(out)

    def __getitem__(self, k):
        return tuple.__getitem__(self, k) if 0 <= k < len(self) else 0

    def divmod_by(self, divisor):
        rem = list(self)
        dd = len(divisor) - 1
        dlead = divisor[dd]
        q = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            if rem[k] == 0:
                continue
            if rem[k] % dlead != 0:
                return RefPoly(), self
            c = rem[k] // dlead
            q[k - dd] = c
            for j, b in enumerate(divisor):
                rem[k - dd + j] -= c * b
        return RefPoly(q), RefPoly(rem)


def reference_solve_system(direction, h, order):
    """solve_system as it eliminated over ZSeries objects, with the series
    operators for every product, difference and pivot inverse."""
    m = h + 1
    mat = [[ZSeries((tuple(p) + (0,) * (order + 1))[: order + 1]) for p in row]
           for row in strip._system_matrix(direction, m)]
    rhs = [ZSeries.one(order)] + [ZSeries.zero(order)] * (m - 1)
    for r in range(m):
        assert mat[r][r][0] in (1, -1)
        pinv = mat[r][r].inverse()
        mat[r] = [e * pinv for e in mat[r]]
        rhs[r] = rhs[r] * pinv
        for i in range(r + 1, m):
            factor = mat[i][r]
            if factor == ZSeries.zero(order):
                continue
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
            rhs[i] = rhs[i] - factor * rhs[r]
    sol = [ZSeries.zero(order)] * m
    for i in range(m - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, m):
            if mat[i][j] != ZSeries.zero(order):
                acc = acc - mat[i][j] * sol[j]
        sol[i] = acc
    return sol


@lru_cache(maxsize=None)
def reference_det_bareiss(m, q=None):
    """det_direct's determinant as the fraction-free elimination over IntPoly
    objects computed it, untruncated."""
    if m == 0:
        return RefPoly((1,))
    mat = [[RefPoly(e) for e in row]
           for row in strip._system_matrix(Direction.LR if q is None else Direction.RL, m)]
    if q is not None:
        for i in range(m):
            mat[i][q - 1] = RefPoly((1,)) if i == 0 else RefPoly()
    sign = 1
    prev = RefPoly((1,))
    for r in range(m - 1):
        if not mat[r][r]:
            swap = next((i for i in range(r + 1, m) if mat[i][r]), None)
            if swap is None:
                return RefPoly()
            mat[r], mat[swap] = mat[swap], mat[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(r + 1, m):
                num = mat[i][j] * mat[r][r] - mat[i][r] * mat[r][j]
                quot, rem = num.divmod_by(prev)
                assert not rem
                mat[i][j] = quot
            mat[i][r] = RefPoly()
        prev = mat[r][r]
    return mat[m - 1][m - 1] * RefPoly((sign,))


def leibniz_det(mat):
    """The determinant as the signed sum over permutations of products."""
    total = RefPoly()
    for perm in permutations(range(len(mat))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = RefPoly(((-1) ** inversions,))
        for i, j in enumerate(perm):
            term = term * RefPoly(mat[i][j])
        total = total - term * RefPoly((-1,))  # RefPoly has no addition
    return list(total)


# each public entry point that takes a direction, called on one direction
ENTRY_POINTS = {
    "dp_rows": lambda d: list(dp_rows(d, 6)),
    "dp_counts": lambda d: dp_counts(d, 6),
    "CountTable": lambda d: CountTable(d, None, dp_counts("rl", 3).rows),
    "stabilized": lambda d: stabilized(d, 1, 7),
    "solve_system": lambda d: solve_system(d, 3, 6),
    "enumerate_paths": lambda d: enumerate_paths(d, 6),
    "generate_closed": lambda d: generate_closed(d, 6),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_direction_value_is_its_direction(name):
    call = ENTRY_POINTS[name]
    lr, rl = call(Direction.LR), call(Direction.RL)
    assert lr != rl
    assert (call("lr"), call("rl")) == (lr, rl)
    with pytest.raises(ValueError):
        call("up")


class TestDpCounts:
    def test_lr_unbounded_row4(self):
        t = dp_counts(Direction.LR, 4)
        assert (t.count(4, 0), t.count(4, 2), t.count(4, 4)) == (3, 3, 1)

    def test_rl_unbounded_overshoot(self):
        # the two paths +1+1 and +3-1 both end at level 2
        assert dp_counts(Direction.RL, 2).count(2, 2) == 2

    def test_lr_closed_form_spot(self):
        assert dp_counts(Direction.LR, 9).count(9, 1) == 143

    def test_lr_barrier_one(self):
        t = dp_counts(Direction.LR, 12, height=1)
        assert all(t.count(2 * n, 0) == 1 for n in range(7))

    def test_lr_parity(self):
        t = dp_counts(Direction.LR, 12)
        assert all(
            t.count(n, k) == 0
            for n in range(13)
            for k in range(n + 1)
            if (n - k) % 2 == 1
        )

    def test_rl_unbounded_levels_beyond_table_rejected(self):
        # the table holds levels 0..n_max; level 4 at length 2 has 3 paths
        # (+1+3, +3+1, +5-1), so a silent 0 would be wrong
        table = dp_counts(Direction.RL, 2)
        with pytest.raises(IndexError, match="level 4"):
            table.count(2, 4)
        assert count_rl_closed(2, 4) == 3
        assert dp_counts(Direction.RL, 4).count(2, 4) == 3

    def test_true_zero_cells_stay_zero(self):
        # LR cells above n and strip cells above h are truly empty
        assert dp_counts(Direction.LR, 2).count(2, 4) == 0
        assert dp_counts(Direction.LR, 4).count(2, 4) == 0
        assert dp_counts(Direction.RL, 2, height=2).count(2, 4) == 0

    def test_row_zero(self):
        assert dp_counts(Direction.RL, 5).rows[0] == (1,)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_negative_height_rejected(self, direction):
        with pytest.raises(ValueError, match="height"):
            dp_counts(direction, 5, height=-1)

    @pytest.mark.parametrize("height", [None, 0, 1, 2, 3, 7])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_unoptimised_loop(self, direction, height):
        for n_max in range(61):
            table = dp_counts(direction, n_max, height=height)
            assert table.rows == reference_dp_rows(direction, n_max, height)

    @pytest.mark.parametrize("height", [None, *range(9)])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_lift_equals_int_table(self, monkeypatch, direction, height):
        # a bound that tables of height >= 2 cross mid-way, under a caller's
        # context that would round any lifted sum of more than 5 digits
        monkeypatch.setattr(strip, "LIFT_BOUND", 10**6)
        with decimal.localcontext(prec=5) as caller:
            for n_max in range(81):
                table = dp_counts(direction, n_max, height=height)
                lifted = tuple(dp_rows(direction, n_max, height=height, lift=True))
                assert [list(map(str, row)) for row in lifted] == [
                    list(map(str, row)) for row in table.rows
                ]
                assert lifted == table.rows
            assert decimal.getcontext() is caller and caller.prec == 5
        # ints up to the lift, Decimals from it on, and a lift when counts grow
        kinds = [type(row[0]) for row in lifted]
        first = kinds.index(decimal.Decimal) if decimal.Decimal in kinds else len(kinds)
        assert set(kinds[:first]) == {int} and set(kinds[first:]) <= {decimal.Decimal}
        assert all(isinstance(v, type(row[0])) for row in lifted for v in row)
        assert (first < len(kinds)) == (height is None or height >= 2)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_rows_checked_at_the_call(self, direction):
        # before the first row is asked for, so a caller fails before it
        # writes anything
        with pytest.raises(ValueError, match="n_max"):
            dp_rows(direction, -1)
        with pytest.raises(ValueError, match="height"):
            dp_rows(direction, 5, height=-1)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_suspended_lift_leaves_caller_context(self, monkeypatch, direction):
        # a lifted generator stopped past its lift, as a consumer that stops
        # reading would leave it: the exact context is entered for each row
        # update only, never held across a yield
        monkeypatch.setattr(strip, "LIFT_BOUND", 10**6)
        n_max, height, stop = 80, 8, 50
        want = dp_counts(direction, n_max, height=height).rows
        ctx = decimal.getcontext()
        state = (ctx.prec, dict(ctx.traps))
        rows = dp_rows(direction, n_max, height=height, lift=True)
        got = []
        for row in rows:
            assert decimal.getcontext() is ctx
            assert (ctx.prec, dict(ctx.traps)) == state
            got.append(row)
            if len(got) == stop:
                break
        assert isinstance(got[-1][0], decimal.Decimal)  # past the lift
        rows.close()
        assert decimal.getcontext() is ctx
        assert (ctx.prec, dict(ctx.traps)) == state
        assert [list(map(str, row)) for row in got] == [
            list(map(str, row)) for row in want[:stop]
        ]
        assert got == list(want[:stop])

    def test_rl_unbounded_matches_closed_form(self):
        table = dp_counts(Direction.RL, 120)
        assert all(
            table.count(n, i) == count_rl_closed(n, i)
            for n in range(121)
            for i in range(13)
        )


class TestSequences:
    def test_a3(self):
        assert seq_a(3, 4) == zs(1, 0, -1, 0, 0)

    def test_b3_b5(self):
        assert seq_b(3, 4) == zs(0, 1, 0, 0, 0)
        assert seq_b(5, 4) == zs(0, 2, 0, 0, 0)

    def test_negative_index_zero(self):
        assert seq_a(-1, 3) == ZSeries.zero(3)
        assert seq_b(-3, 3) == ZSeries.zero(3)

    def test_d_equals_shifted_a(self):
        assert all(det_d(m, 12) == seq_a(m + 1, 12) for m in range(31))

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 20, 61])
    def test_match_dense_reference(self, order):
        for name, term in (("a", seq_a), ("b", seq_b), ("d", det_d)):
            refs = list(zip(range(61), reference_stream(name, order)))
            assert sequence_terms(name, 60, order) == [ref for _, ref in refs], name
            for n, ref in refs:
                assert term(n, order) == ref, (name, n)

    def test_b_keeps_one_parity(self):
        # b_n = z^(n mod 2) beta_n(z^2), the fact the x-streams rely on
        for n, b in zip(range(61), reference_stream("b", 61)):
            assert all(c == 0 for k, c in enumerate(b) if (k - n) % 2), n

    @given(st.integers(3, 25), st.integers(4, 16))
    def test_a_recurrence(self, n, order):
        lhs = seq_a(n, order)
        rhs = seq_a(n - 1, order) - seq_a(n - 3, order).shift(2)
        assert lhs == rhs

    @given(st.integers(3, 25), st.integers(4, 16))
    def test_b_recurrence(self, n, order):
        assert seq_b(n, order) == seq_b(n - 2, order) + seq_b(n - 3, order).shift(1)

    def test_terms_edge_cases(self):
        assert sequence_terms("a", -1, 5) == []
        assert sequence_terms("d", 0, 0) == [ZSeries.one(0)]
        with pytest.raises(ValueError):
            sequence_terms("e", 3, 5)

    def test_terms_one_pass_of_their_own_stream(self, monkeypatch):
        # d comes from its own recurrence, never from the a stream it is
        # checked against, and n terms cost O(n) steps
        real_sequence, real_step = strip._sequence, strip.shifted_sum
        streams, steps = [], 0

        def sequence(name, cap):
            streams.append(name)
            return real_sequence(name, cap)

        def step(*args):
            nonlocal steps
            steps += 1
            return real_step(*args)

        monkeypatch.setattr(strip, "_sequence", sequence)
        monkeypatch.setattr(strip, "shifted_sum", step)
        for name in ("a", "b", "d"):
            streams.clear()
            steps = 0
            sequence_terms(name, 30, 60)
            assert (streams, steps) == ([name], 28)


class TestBinomialTerms:
    # the Cramer route's terms, walked by their binomial sums, against the
    # recurrence streams that `sequence_terms` still runs
    @pytest.mark.parametrize("cap", [0, 1, 5, 7, 40])
    def test_match_recurrence_streams(self, cap):
        for name in ("a", "b", "d"):
            for n, ref in zip(range(120), strip._sequence(name, cap)):
                term = strip._term(name, n, cap)
                assert term == ref, (name, n)
                # trimmed, never padded to cap + 1: `divide` costs
                # len(num) x len(den); d_m is a_(m+1)
                assert len(term) <= min(cap, (n + (name == "d")) // 3) + 1, (name, n)
                assert not term or term[-1], (name, n)

    def test_inexact_ratio_raises(self, monkeypatch):
        def leaves_a_remainder(a, b):
            return builtins.divmod(a, b)[0], 1

        monkeypatch.setattr(strip, "divmod", leaves_a_remainder, raising=False)
        with pytest.raises(ConsistencyError, match=r"^d_\d+: a binomial ratio left remainder 1$"):
            stabilized(Direction.LR, 0, 20)


class TestDeterminants:
    def test_d_small(self):
        assert det_d(2, 4) == zs(1, 0, -1, 0, 0)
        assert det_d(3, 4) == zs(1, 0, -2, 0, 0)
        assert det_d(4, 4) == zs(1, 0, -3, 0, 0)

    def test_delta_first_column(self):
        assert all(delta(m, 1, 10) == det_d(m - 1, 10) for m in range(1, 11))

    def test_delta_spot_values(self):
        assert delta(3, 2, 4) == zs(0, 1, 0, 0, 0)
        assert delta(3, 3, 4) == zs(0, 0, 1, 0, 0)

    def test_delta_range_check(self):
        with pytest.raises(ValueError):
            delta(3, 0, 4)
        with pytest.raises(ValueError):
            delta(3, 4, 4)

    def test_det_direct_identity(self):
        assert det_direct(1, 3) == ZSeries.one(3)

    def test_direct_matches_recurrence(self):
        assert all(det_d(m, 16) == det_direct(m, 16) for m in range(13))

    @pytest.mark.parametrize("order", [0, 1, 7, 30])
    def test_delta_matches_four_product_reference(self, order):
        # det_direct only reaches m <= 12; the reference goes to m = 24
        for m in range(1, 25):
            for q in range(1, m + 1):
                assert delta(m, q, order) == reference_delta(m, q, order), (m, q)

    def test_direct_matches_delta(self):
        # one elimination per m gives every q
        assert all(
            deltas_direct(m, 16) == [delta(m, q, 16) for q in range(1, m + 1)]
            for m in range(1, 13)
        )

    @pytest.mark.parametrize("order", [0, 1, 5, 16, 20])
    def test_direct_matches_intpoly_bareiss(self, order):
        def expected(ref):
            return ZSeries(ref[k] for k in range(order + 1))

        for m in range(13):
            assert det_direct(m, order) == expected(reference_det_bareiss(m)), m
            assert deltas_direct(m, order) == [
                expected(reference_det_bareiss(m, q)) for q in range(1, m + 1)
            ], m

    def test_direct_empty_matrix(self):
        assert det_direct(0, 4) == ZSeries.one(4)


def leading_minors_nonzero(mat):
    """Whether every leading r x r minor of `mat`, r = 1..m, is nonzero."""
    return all(leibniz_det([row[:r] for row in mat[:r]]) for r in range(1, len(mat) + 1))


def systems(max_n, max_len):
    """An n x n matrix over Z[z], n = 1..max_n, and a right-hand side, with
    entries as coefficient lists of at most max_len coefficients.  Three
    draws in four give each diagonal entry a nonzero constant term, which
    makes a zero leading minor rare; the fourth is unconstrained."""
    coeffs = st.integers(-10**6, 10**6)
    entry = st.lists(coeffs, max_size=max_len)
    unit = st.builds(lambda c, rest: [c, *rest], coeffs.filter(bool),
                     st.lists(coeffs, max_size=max_len - 1))

    def system(n, biased):
        diagonal = unit if biased else entry
        rows = [st.tuples(*(diagonal if i == j else entry for j in range(n))).map(list)
                for i in range(n)]
        return st.tuples(st.tuples(*rows).map(list), st.lists(entry, min_size=n, max_size=n))

    biased = st.sampled_from([False, True, True, True])
    return st.tuples(st.integers(1, max_n), biased).flatmap(lambda a: system(*a))


class TestBareiss:
    def test_zero_pivot_raises(self):
        # no row swap: a zero leading minor is a named guard, not a result
        with pytest.raises(ConsistencyError, match="^Bareiss pivot 0 is zero$"):
            strip._bareiss([[[], [1]], [[1], []]], [[1], []])
        with pytest.raises(ConsistencyError, match="^Bareiss pivot 0 is zero$"):
            strip._bareiss([[[], [0, 1], [1]], [[1], [], []], [[], [1], [0, 0, 1]]], [[], [], []])

    def test_singular(self):
        # no determinant [] and no ValueError: the last pivot is zero
        with pytest.raises(ConsistencyError, match="^Bareiss pivot 1 is zero$"):
            strip._bareiss([[[0, 1], [1]], [[0, 0, 1], [0, 1]]], [[], []])

    def test_singular_has_no_adjugate_column(self):
        # a singular system with a nonzero rhs is the same named guard;
        # the empty matrix has determinant 1 and an empty column
        with pytest.raises(ConsistencyError, match="^Bareiss pivot 1 is zero$"):
            strip._bareiss([[[1], [2]], [[2], [4]]], [[1], []])
        assert strip._bareiss([], []) == ([1], [])

    def test_short_column_raises(self):
        # a column shorter than the matrix is an error, not a smaller determinant
        with pytest.raises(ValueError):
            strip._bareiss([[[1], []], [[], [1]]], [[1]])

    @pytest.mark.parametrize("direction", list(Direction))
    def test_system_matrix_leading_blocks(self, direction):
        # the lemma behind "no pivot is zero": every leading block of a
        # system matrix is the smaller system matrix, the identity at z = 0
        for m in range(31):
            mat = strip._system_matrix(direction, m)
            assert all([row[:r] for row in mat[:r]] == strip._system_matrix(direction, r)
                       for r in range(m + 1)), m
            at_zero = [[e[0] if e else 0 for e in row] for row in mat]
            assert at_zero == [[int(i == j) for j in range(m)] for i in range(m)], m

    @given(systems(5, 5))
    @settings(max_examples=120)
    def test_matches_permutation_expansion(self, system):
        mat, rhs = system
        if leading_minors_nonzero(mat):
            det, _ = strip._bareiss(mat, rhs)
            assert det == leibniz_det(mat)
        else:
            with pytest.raises(ConsistencyError, match="^Bareiss pivot [0-9]+ is zero$"):
                strip._bareiss(mat, rhs)

    def test_short_bound_raises(self, monkeypatch):
        # B = 1: det = 1 is then a fixed point of the digit loop, which
        # must stop after the degree bound's one digit instead of spinning
        monkeypatch.setattr(strip, "prod", lambda rows: 0)
        with pytest.raises(ConsistencyError, match="^Bareiss determinant has more than 1 digits$"):
            det_direct(1, 4)

    def test_inexact_division_raises(self, monkeypatch):
        def leaves_a_remainder(a, b):
            return builtins.divmod(a, b)[0], 1

        monkeypatch.setattr(strip, "divmod", leaves_a_remainder, raising=False)
        with pytest.raises(ConsistencyError, match="^Bareiss division was not exact$"):
            det_direct(3, 4)

    @given(systems(4, 4))
    @settings(max_examples=120)
    def test_adjugate_column_matches_permutation_expansion(self, system):
        # entry q: the determinant with column q replaced by rhs (Cramer)
        mat, rhs = system
        if leading_minors_nonzero(mat):
            replaced = [[[r if j == q else e for j, e in enumerate(row)] for row, r in zip(mat, rhs)]
                        for q in range(len(mat))]
            _, column = strip._bareiss(mat, rhs)
            assert column == [leibniz_det(a) for a in replaced]
        else:
            with pytest.raises(ConsistencyError, match="^Bareiss pivot [0-9]+ is zero$"):
                strip._bareiss(mat, rhs)

    def test_adjugate_short_bound_raises(self, monkeypatch):
        # Delta_(1,1) = 1 at B = 1, as in test_short_bound_raises
        monkeypatch.setattr(strip, "prod", lambda rows: 0)
        with pytest.raises(ConsistencyError, match="^Bareiss determinant has more than 1 digits$"):
            strip.deltas_direct(1, 4)

    def test_adjugate_inexact_division_raises(self, monkeypatch):
        # in a 2 x 2 elimination the first pivot (3) divides only in step 1,
        # which clears above the second pivot: the augmented column of row 0
        divisors = []

        def inexact_by_first_pivot(a, b):
            divisors.append(b)
            q, r = builtins.divmod(a, b)
            return (q, 1) if b == 3 else (q, r)

        monkeypatch.setattr(strip, "divmod", inexact_by_first_pivot, raising=False)
        with pytest.raises(ConsistencyError, match="^Bareiss division was not exact$"):
            strip._bareiss([[[3], []], [[], [1]]], [[1], []])
        assert divisors == [1, 1, 3]

    def test_suite_runs_one_elimination_per_m(self, monkeypatch):
        bareiss = strip._bareiss
        runs = Counter()

        def counting_bareiss(mat, rhs):
            runs[sys._getframe(1).f_code.co_name] += 1
            return bareiss(mat, rhs)

        monkeypatch.setattr(strip, "_bareiss", counting_bareiss)
        assert verify.suite_cramer().passed
        # d_m for m = 0..12, and Delta_(m,1..m) for m = 1..12: not 78
        assert runs == {"det_direct": 13, "deltas_direct": 12}


class TestCramer:
    def test_bounded_f_barrier_one(self):
        assert bounded_f(0, 1, 8) == zs(1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_bounded_g_barrier_one(self):
        assert bounded_g(0, 1, 8) == zs(1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_bounded_f_stabilized_coefficient(self):
        assert bounded_f(2, 7, 8)[8] == 55

    def test_level_beyond_barrier(self):
        with pytest.raises(ValueError):
            bounded_f(3, 2, 5)
        with pytest.raises(ValueError):
            bounded_g(3, 2, 5)

    @settings(deadline=None)
    @given(
        st.sampled_from(list(Direction)),
        st.integers(0, 6),
        st.integers(0, 14),
    )
    def test_three_way_equality(self, direction, h, order):
        table = dp_counts(direction, order, height=h)
        sol = solve_system(direction, h, order)
        quot = bounded_f if direction is Direction.LR else bounded_g
        for level in range(h + 1):
            series = quot(level, h, order)
            assert series == sol[level]
            assert series == tuple(
                table.count(n, level) for n in range(order + 1)
            )

    @pytest.mark.parametrize("call", [
        partial(bounded_f, 0, 2, 4),
        partial(bounded_g, 1, 2, 4),
        partial(stabilized, Direction.RL, 2, 4),
    ], ids=["bounded_f", "bounded_g", "stabilized"])
    def test_non_unit_denominator_raises(self, monkeypatch, call):
        # every d_m has constant term 1, so only a broken term walk reaches
        # the guard; `divide` would otherwise say "not invertible over Z"
        term = strip._term

        def non_unit_d(name, n, cap):
            coeffs = term(name, n, cap)
            return [2, *coeffs[1:]] if name == "d" else coeffs

        monkeypatch.setattr(strip, "_term", non_unit_d)
        with pytest.raises(ConsistencyError, match=r"^d_\d+ has constant term 2, not 1$"):
            call()


def replay(calls, bound):
    """Ask `stabilized` for each (direction, level, order) of `calls` in
    turn, on a cache that starts empty and keeps at most `bound` bits.  The
    first call whose series is not the quotient computed cold at the
    barrier order + level, or after which the cache holds more than the
    bound or misstates its bits, as (call, what went wrong); None if none."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strip, "_SERIES", {})
        mp.setattr(strip, "_SERIES_BITS", bound)
        for call in calls:
            direction, level, order = call
            if stabilized(direction, level, order) != strip._cramer(
                    direction, level, order + level, order):
                return call, "not the cold quotient"
            held = strip._SERIES.values()
            if sum(bits for _, bits in held) > bound:
                return call, "over the bound"
            if any(bits != sum(c.bit_length() for c in known) for known, bits in held):
                return call, "bits misstated"
    return None


_STABILIZED_CALLS = st.lists(
    st.tuples(st.sampled_from(list(Direction)), st.integers(0, 24), st.integers(0, 120)),
    min_size=1, max_size=30)


def tight_barrier(direction, level, order):
    """The least barrier at which every path of length <= order ending at
    `level` fits: top is the longest such length, and an LR path of length
    top > level needs a down-step, while an RL path climbs at most
    top + level - 1."""
    top = order - (order - level) % 2
    if direction is Direction.LR:
        return top - 1 if top > level else level
    return top + level - 1 if top >= 1 else level


class TestStabilized:
    def test_lr_level0(self):
        s = stabilized(Direction.LR, 0, 10)
        assert s == zs(1, 0, 1, 0, 3, 0, 12, 0, 55, 0, 273)

    def test_lr_level1(self):
        assert stabilized(Direction.LR, 1, 7) == zs(0, 1, 0, 2, 0, 7, 0, 30)

    def test_rl_level1(self):
        s = stabilized(Direction.RL, 1, 9)
        assert s == zs(0, 1, 0, 3, 0, 12, 0, 55, 0, 273)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_equals_separate_quotients(self, direction):
        quot = bounded_f if direction is Direction.LR else bounded_g
        for level in range(7):
            for order in range(31):
                h = order + level + 2
                limit = stabilized(direction, level, order)
                assert limit == quot(level, h, order) == quot(level, h + 1, order)

    @pytest.mark.parametrize("direction, factors", [(Direction.LR, 1), (Direction.RL, 2)])
    @pytest.mark.parametrize("level", [0, 1, 5])
    def test_one_recurrence_pass(self, monkeypatch, direction, factors, level):
        # The Cramer route takes no recurrence step: every sequence term a
        # quotient or numerator needs is one binomial walk (`_term`), and
        # only those.  A numerator term at level >= 1 is a product of
        # `factors` sequence terms: d_{m-1-k} for LR, beta_q a_{m-q} for RL.
        walks = Counter()
        term = strip._term

        def counting_term(name, n, cap):
            walks[name, n] += 1
            return term(name, n, cap)

        def no_recurrence(*args):
            raise AssertionError("the Cramer route took a recurrence step")

        monkeypatch.setattr(strip, "_term", counting_term)
        monkeypatch.setattr(strip, "_sequence", no_recurrence)

        def numerator_terms(h):
            m = h + 1
            if direction is Direction.LR:
                return {("d", m - 1 - level)}
            if level == 0:
                return {("d", m - 1)}
            q = level + 1
            return {("b", q), ("a", m - q), ("b", q - 1), ("a", m - q - 1)}

        order = 100
        quot = bounded_f if direction is Direction.LR else bounded_g
        calls = [
            (partial(stabilized, direction, level, order), order + level, True),
            (partial(quot, level, level + 7, order), level + 7, True),
        ]
        if direction is Direction.RL:
            calls.append((partial(delta, order + level + 1, level + 1, order), order + level, False))
        for call, h, divides in calls:
            walks.clear()
            call()
            wanted = numerator_terms(h) | ({("d", h + 1)} if divides else set())
            assert walks == Counter(wanted), call
            assert len({name for name, _ in numerator_terms(h)}) == (factors if level else 1)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("level", range(9))
    def test_exact_at_proved_barrier(self, direction, level):
        # the lemma in `stabilized`: the quotient is the limit at the tight
        # barrier h*, at every barrier above it, and at none below it
        quot = bounded_f if direction is Direction.LR else bounded_g
        for order in range(40):
            limit = stabilized(direction, level, order)
            h_star = tight_barrier(direction, level, order)
            for h in (h_star, order + level + 1, order + level + 5):
                assert quot(level, h, order) == limit, (order, h)
            if h_star - 1 >= level:
                assert quot(level, h_star - 1, order) != limit, order

    @pytest.mark.parametrize("level", [2001, 2002])
    def test_far_level(self, level):
        # the barrier is order + level, and no term's cost grows with it
        assert stabilized(Direction.RL, level, 9) == tuple(
            count_rl_closed(n, level) for n in range(10)
        )

    def test_far_height(self):
        assert bounded_f(0, 200000, 4) == bounded_f(0, 4, 4)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("level", [0, 1, 5])
    def test_one_division(self, monkeypatch, direction, level):
        calls = []
        divide = strip.divide

        def counting_divide(*args):
            calls.append(1)
            return divide(*args)

        monkeypatch.setattr(strip, "divide", counting_divide)
        stabilized(direction, level, 30)
        assert len(calls) == 1

    # the cache against the unoptimised form: every call computed cold.  An
    # order-120 series holds ~5000 bits, so the small bounds evict, and 3000
    # keeps none at the top orders
    @settings(max_examples=60, deadline=None)
    @given(_STABILIZED_CALLS, st.sampled_from([0, 3000, 30000, strip._SERIES_BITS]))
    @example([(Direction.RL, 0, 10), (Direction.RL, 0, 40), (Direction.RL, 0, 40),
              (Direction.RL, 0, 20), (Direction.RL, 0, 120), (Direction.LR, 3, 9),
              (Direction.LR, 3, 0), (Direction.LR, 3, 1), (Direction.LR, 3, 30)], 30000)
    @example([(Direction.LR, level, 120 - 5 * level) for level in range(25)]
             + [(Direction.LR, level, 5 * level) for level in range(24, -1, -1)], 30000)
    def test_cache_matches_cold_quotients(self, calls, bound):
        assert replay(calls, bound) is None

    def test_cross_check_catches_a_late_resume(self, monkeypatch):
        # the fault row of test_faults: a cold division is right, a resumed
        # one goes wrong from its first new coefficient
        from test_faults import divide_resumes_one_late

        calls = [(Direction.RL, 0, 24), (Direction.RL, 0, 60)]
        assert replay(calls, strip._SERIES_BITS) is None
        divide_resumes_one_late(monkeypatch)
        assert replay(calls, strip._SERIES_BITS) == (calls[1], "not the cold quotient")

    def test_monotone_in_barrier(self):
        for level in (0, 1, 3):
            limit = stabilized(Direction.LR, level, 10)
            prev = None
            for h in range(level, 15):
                cur = bounded_f(level, h, 10)
                assert all(c <= l for c, l in zip(cur, limit))
                if prev is not None:
                    assert all(a <= b for a, b in zip(prev, cur))
                prev = cur


class TestSolveSystem:
    @pytest.mark.parametrize("order", [0, 1, 7, 20])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_series_elimination(self, direction, order):
        for h in range(11):  # the cramer suite's range
            assert solve_system(direction, h, order) == reference_solve_system(
                direction, h, order
            ), h

    @pytest.mark.parametrize("direction", list(Direction))
    def test_no_product_with_a_zero_operand(self, monkeypatch, direction):
        poly_mul = strip.poly_mul

        def nonzero_mul(u, v, cap=None):
            assert any(u) and any(v), (u, v)
            return poly_mul(u, v, cap)

        monkeypatch.setattr(strip, "poly_mul", nonzero_mul)
        assert solve_system(direction, 10, 20) == reference_solve_system(direction, 10, 20)

    def test_lr_h1(self):
        sol = solve_system(Direction.LR, 1, 8)
        assert sol[0] == zs(1, 0, 1, 0, 1, 0, 1, 0, 1)
        assert sol[1] == zs(0, 1, 0, 1, 0, 1, 0, 1, 0)

    def test_rl_h2_component1(self):
        # Delta_{3,2}/d_3 = z/(1-2z^2)
        sol = solve_system(Direction.RL, 2, 6)
        assert sol[1] == zs(0, 1, 0, 2, 0, 4, 0)

    def test_lr_h7_matches_dp(self):
        table = dp_counts(Direction.LR, 8, height=7)
        sol = solve_system(Direction.LR, 7, 8)
        assert sol[0] == tuple(table.count(n, 0) for n in range(9))

    @pytest.mark.parametrize("direction", list(Direction))
    def test_non_unit_pivot_raises(self, monkeypatch, direction):
        # every off-diagonal entry is a multiple of z, so the elimination
        # keeps each pivot's constant term: the last one starts at 2 here
        system_matrix = strip._system_matrix

        def two_in_last_pivot(direction, m):
            mat = [list(row) for row in system_matrix(direction, m)]
            mat[-1][-1] = (2,)
            return mat

        monkeypatch.setattr(strip, "_system_matrix", two_in_last_pivot)
        with pytest.raises(ConsistencyError, match="^elimination pivot lost its unit constant term$"):
            solve_system(direction, 3, 6)


NEGATIVE_ORDER_CALLS = {
    "bounded_f": lambda: bounded_f(0, 2, -1),
    "bounded_g": lambda: bounded_g(1, 2, -1),
    "det_direct": lambda: det_direct(3, -1),
    "deltas_direct": lambda: deltas_direct(3, -1),
    "solve_system": lambda: solve_system(Direction.RL, 2, -1),
    "sequence_terms": lambda: sequence_terms("b", 4, -1),
    "det_d": lambda: det_d(3, -1),
    "delta": lambda: delta(3, 2, -1),
    "seq_a": lambda: seq_a(3, -1),
    "seq_b": lambda: seq_b(3, -1),
    "seq_a_negative_index": lambda: seq_a(-1, -1),
    "seq_b_negative_index": lambda: seq_b(-2, -1),
    "stabilized": lambda: stabilized(Direction.LR, 0, -1),
}


@pytest.mark.parametrize("name", NEGATIVE_ORDER_CALLS)
def test_negative_order_fails_before_any_work(monkeypatch, name):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} started work on a negative order")

    for helper in ("_sequence", "_term", "_system_matrix", "_bareiss", "poly_mul", "divide"):
        monkeypatch.setattr(strip, helper, no_work)
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        NEGATIVE_ORDER_CALLS[name]()
