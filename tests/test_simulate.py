import hashlib
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import rng, simulate
from carrychain.matrix import amazing_matrix
from carrychain.rng import check_seed, digit_block, stream_block
from carrychain.simulate import (
    EmpiricalMatrix,
    SimulationConfig,
    simulate_carries,
    simulate_shuffle_chain,
)
from reference import run_limited


class TestRng:
    def test_values_are_pure_functions_of_coordinates(self):
        block = stream_block(123, 5, 8, 2, 6)
        assert block.shape == (3, 4)
        assert block.dtype == np.uint64
        again = stream_block(123, 6, 7, 3, 5)
        assert (block[1, 1:3] == again[0]).all()

    def test_seed_changes_everything(self):
        a = stream_block(1, 0, 4, 0, 4)
        b = stream_block(2, 0, 4, 0, 4)
        assert (a != b).all()

    def test_digits_in_range(self):
        digits = digit_block(99, 0, 100, 0, 50, base=7)
        assert digits.min() >= 0 and digits.max() < 7

    def test_base_bound(self):
        top = digit_block(5, 0, 3, 0, 40, base=2**63)
        assert top.tolist() == (stream_block(5, 0, 3, 0, 40) % np.uint64(2**63)).astype(np.int64).tolist()
        assert top.min() >= 0
        for base in (0, 2**63 + 1, 2**64):
            with pytest.raises(ValueError):
                digit_block(5, 0, 3, 0, 40, base=base)

    def test_seed_bounds(self):
        check_seed(0)
        check_seed(2**64 - 1)
        with pytest.raises(ValueError):
            check_seed(-1)
        with pytest.raises(ValueError):
            check_seed(2**64)


class TestSimulationConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SimulationConfig(trials=0, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(trials=1, seed=-5)


class TestEmpiricalMatrix:
    def test_tv_distances(self):
        em = EmpiricalMatrix(((3, 1), (0, 0)))
        tv = em.tv_distances(((1, 1), (1, 1)), 2)
        assert tv[0] == Fraction(1, 4)
        assert tv[1] == Fraction(1)  # unsampled row reports maximal distance
        assert em.samples == 4

    def test_tv_needs_a_states_by_states_matrix(self):
        # zip would truncate: 2 distances against a 2 x 2 matrix, and 3
        # against the wrong rows of a 4 x 4 one
        result = simulate_carries(3, 2, 50, SimulationConfig(trials=1, seed=3))
        rows = amazing_matrix(3, 2).entries
        assert len(result.tv_distances(rows, 8)) == 3
        wrong = (amazing_matrix(2, 2).entries, amazing_matrix(4, 2).entries,
                 rows[:2], rows + rows[:1], rows[:2] + ((8,),))  # too few rows, too many, ragged
        for exact in wrong:
            with pytest.raises(ValueError, match="3 x 3"):
                result.tv_distances(exact, 8)

    @pytest.mark.parametrize("denominator", (0, -8))
    def test_tv_needs_a_positive_denominator(self, denominator):
        result = simulate_carries(3, 2, 50, SimulationConfig(trials=1, seed=3))
        with pytest.raises(ValueError, match="denominator"):
            result.tv_distances(amazing_matrix(3, 2).entries, denominator)


@st.composite
def _counts_and_exact(draw):
    """A square table of counts, some rows empty, and a stochastic matrix as
    integer rows that each sum to one denominator."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, draw(st.sampled_from([3, 1000, 10**12]))), min_size=n, max_size=n)
    counts = draw(st.lists(st.one_of(st.just([0] * n), row), min_size=n, max_size=n))
    denominator = draw(st.one_of(st.integers(1, 100), st.integers(1, 2**200)))
    exact = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=n - 1, max_size=n - 1)))
        exact.append(tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, denominator])))
    return tuple(map(tuple, counts)), tuple(exact), denominator


@settings(max_examples=200, deadline=None)
@given(_counts_and_exact())
def test_tv_distances_follow_the_definition(case):
    counts, exact, denominator = case

    def reference(row, exact_row):
        # half the L1 distance of the row's frequencies to the exact row
        total = sum(row)
        if total == 0:
            return Fraction(1)
        return sum(abs(Fraction(c, total) - Fraction(e, denominator)) for c, e in zip(row, exact_row)) / 2

    tv = EmpiricalMatrix(counts).tv_distances(exact, denominator)
    assert tv == tuple(map(reference, counts, exact))
    assert all(0 <= d <= 1 for d in tv)


class TestShuffleChain:
    def test_deterministic(self):
        cfg = SimulationConfig(trials=2000, seed=42)
        assert simulate_shuffle_chain(3, 2, cfg) == simulate_shuffle_chain(3, 2, cfg)

    def test_partition_independent(self):
        whole = simulate_shuffle_chain(3, 2, SimulationConfig(trials=1000, seed=7))
        head = simulate_shuffle_chain(3, 2, SimulationConfig(trials=400, seed=7), trial_offset=0)
        tail = simulate_shuffle_chain(3, 2, SimulationConfig(trials=600, seed=7), trial_offset=400)
        merged = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(head.counts, tail.counts))
        assert merged == whole.counts

    def test_sample_count(self):
        cfg = SimulationConfig(trials=500, seed=3)
        assert simulate_shuffle_chain(2, 2, cfg).samples == 500  # one shuffle, one sample per trial

    def test_roughly_matches_exact(self):
        cfg = SimulationConfig(trials=100_000, seed=11)
        result = simulate_shuffle_chain(3, 2, cfg)
        exact = amazing_matrix(3, 2)
        tv = result.tv_distances(exact.entries, exact.normalizer)
        assert max(tv) < Fraction(1, 50)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            simulate_shuffle_chain(0, 2, SimulationConfig(trials=1, seed=1))

    def test_base_bound(self):
        assert simulate_shuffle_chain(3, 2**63, SimulationConfig(trials=50, seed=1)).samples == 50
        for b in (2**63 + 1, 2**64):
            with pytest.raises(ValueError):
                simulate_shuffle_chain(3, b, SimulationConfig(trials=50, seed=1))


def _record_sizes(monkeypatch, sizes):
    """Route the simulator's ``stream_block`` and ``digit_block`` through
    recorders that append the size of every block they return."""
    for name, fn in (("stream_block", stream_block), ("digit_block", digit_block)):
        def record(*args, fn=fn):
            block = fn(*args)
            sizes.append(block.size)
            return block

        monkeypatch.setattr(simulate, name, record)


class TestDrawBudget:
    def test_one_draw_over_is_refused_before_any_work(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("values drawn for a call over the budget")

        monkeypatch.setattr(simulate, "stream_block", no_draws)
        monkeypatch.setattr(simulate, "digit_block", no_draws)
        # a shuffle trial takes 2n draws, so the smallest request over the
        # budget is 2^32 + 2 draws, n = 1 with 2^31 + 1 trials; the carries
        # take 2^32 + 1 = 641 * 6700417, where the (n, n) counts of
        # n = 6700417 would take 359 TB
        assert simulate.DRAW_BUDGET == 2**32
        with pytest.raises(ValueError, match="budget"):
            simulate_shuffle_chain(1, 2, SimulationConfig(trials=2**31 + 1, seed=1))
        with pytest.raises(ValueError, match="budget"):
            simulate_carries(6700417, 2, 641, SimulationConfig(trials=1, seed=1))

    def test_the_edge(self, monkeypatch):
        cfg = SimulationConfig(trials=4, seed=3)
        calls = (lambda: simulate_shuffle_chain(3, 2, cfg), lambda: simulate_carries(2, 2, 3, cfg))  # 24 draws each
        monkeypatch.setattr(simulate, "DRAW_BUDGET", 24)
        assert [call().samples for call in calls] == [4, 12]
        monkeypatch.setattr(simulate, "DRAW_BUDGET", 23)
        for call in calls:
            with pytest.raises(ValueError, match="budget"):
                call()


class TestTallyBound:
    EDGE = 1024

    def test_the_edge_runs(self):
        # n * n <= TALLY_CELLS = 2^20 allows n = 1024 and refuses n = 1025
        assert simulate.TALLY_CELLS == 2**20 == self.EDGE**2
        cfg = SimulationConfig(trials=1, seed=3)
        assert simulate_shuffle_chain(self.EDGE, 2, cfg).samples == 1
        assert simulate_carries(self.EDGE, 2, 1, cfg).samples == 1

    def test_one_over_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done for a call over the tally bound")

        for name in ("stream_block", "digit_block", "_rank_chunk", "_sort_chunk"):
            monkeypatch.setattr(simulate, name, no_work)
        cfg = SimulationConfig(trials=1, seed=3)
        with pytest.raises(ValueError, match="tally"):
            simulate_shuffle_chain(self.EDGE + 1, 2, cfg)
        with pytest.raises(ValueError, match="tally"):
            simulate_carries(self.EDGE + 1, 2, 1, cfg)

    @pytest.mark.parametrize("n, refused", [(EDGE, False), (EDGE + 1, True), (65536, True)])
    def test_in_a_subprocess_under_2_gib(self, n, refused):
        # the (n, n) int64 counts of n = 65536 alone would take 32 GiB, with
        # only 131072 draws for the shuffle and 65536 for the carries
        code = (
            "from carrychain.simulate import SimulationConfig, simulate_carries, simulate_shuffle_chain\n"
            f"n, cfg = {n}, SimulationConfig(trials=1, seed=3)\n"
            "for call in (lambda: simulate_shuffle_chain(n, 2, cfg), lambda: simulate_carries(n, 2, 1, cfg)):\n"
            "    try:\n"
            "        print(call().samples)\n"
            "    except ValueError as exc:\n"
            "        print('refused', 'tally' in str(exc))\n"
        )
        proc = run_limited(code)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split("\n") == (["refused True"] * 2 if refused else ["1", "1"]) + [""]


class TestCarries:
    def test_deterministic(self):
        cfg = SimulationConfig(trials=3, seed=9)
        assert simulate_carries(2, 2, 500, cfg) == simulate_carries(2, 2, 500, cfg)

    def test_partition_independent(self):
        whole = simulate_carries(3, 2, 200, SimulationConfig(trials=5, seed=13))
        head = simulate_carries(3, 2, 200, SimulationConfig(trials=2, seed=13), trial_offset=0)
        tail = simulate_carries(3, 2, 200, SimulationConfig(trials=3, seed=13), trial_offset=2)
        merged = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(head.counts, tail.counts))
        assert merged == whole.counts

    def test_single_and_multi_trial_paths_agree(self):
        # one trajectory per call and two per call must tally identical
        # counts for identical (seed, trial) streams
        multi = simulate_carries(2, 3, 400, SimulationConfig(trials=2, seed=21))
        one = simulate_carries(2, 3, 400, SimulationConfig(trials=1, seed=21), trial_offset=0)
        two = simulate_carries(2, 3, 400, SimulationConfig(trials=1, seed=21), trial_offset=1)
        merged = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(one.counts, two.counts))
        assert merged == multi.counts

    def test_roughly_matches_exact(self):
        result = simulate_carries(2, 2, 100_000, SimulationConfig(trials=1, seed=5))
        exact = amazing_matrix(2, 2)
        tv = result.tv_distances(exact.entries, exact.normalizer)
        assert max(tv) < Fraction(1, 50)

    def test_carry_states_stay_in_range(self):
        result = simulate_carries(4, 2, 2000, SimulationConfig(trials=2, seed=17))
        assert len(result.counts) == 4 and all(len(row) == 4 for row in result.counts)
        assert result.samples == 2 * 2000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_carries(1, 2, 10, SimulationConfig(trials=1, seed=1))
        with pytest.raises(ValueError):
            simulate_carries(2, 1, 10, SimulationConfig(trials=1, seed=1))
        with pytest.raises(ValueError):
            simulate_carries(2, 2, 0, SimulationConfig(trials=1, seed=1))

    def test_base_bound(self):
        # 2 + 3 (b - 1) < 2^63 holds up to b = (2^63 + 1) / 3 - 1; at that b
        # the int64 column sums must still be exact
        top = (2**63 + 1) // 3 - 1
        for trials in (1, 3):
            got = simulate_carries(3, top, 40, SimulationConfig(trials=trials, seed=8))
            assert got.counts == _carries_reference(3, top, 40, seed=8, trials=trials)
        for b in (top + 1, 2**63 + 5):
            with pytest.raises(ValueError):
                simulate_carries(3, b, 40, SimulationConfig(trials=1, seed=8))

    @pytest.mark.parametrize("chunk", (1, 5, 7))
    def test_chunking_leaves_counts_unchanged(self, monkeypatch, chunk):
        # column counts that are no multiple of the chunk, one trajectory and
        # several, so the carry must run on across the chunk borders
        whole = {
            (seed, digits, trials): simulate_carries(3, 4, digits, SimulationConfig(trials=trials, seed=seed), 2)
            for seed in (1, 2, 99)
            for digits in (1, 10, 101)
            for trials in (1, 3)
        }
        sizes = []
        _record_sizes(monkeypatch, sizes)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", chunk)
        for (seed, digits, trials), expected in whole.items():
            assert simulate_carries(3, 4, digits, SimulationConfig(trials=trials, seed=seed), 2) == expected
        assert max(sizes) <= max(chunk, 3)  # one column of 3 digits at least


class TestIndexBounds:
    """Trial indices are unsigned 64-bit and draw indices start at 0; out of
    range they are refused with ValueError before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("values drawn for a refused call")

        monkeypatch.setattr(simulate, "stream_block", no_draws)
        monkeypatch.setattr(simulate, "digit_block", no_draws)

    def test_the_last_trial_index_works(self):
        top = 2**64 - 1
        assert stream_block(5, top - 1, top + 1, 0, 9).tolist() == [_draws(5, t, 0, 9) for t in (top - 1, top)]
        got = simulate_carries(3, 10, 50, SimulationConfig(trials=1, seed=5), trial_offset=top)
        assert got.counts == _carries_reference(3, 10, 50, 5, 1, top)
        got = simulate_shuffle_chain(4, 3, SimulationConfig(trials=2, seed=5), trial_offset=top - 1)
        assert got.counts == _shuffle_reference(4, 3, 5, 2, top - 1)

    @pytest.mark.parametrize("offset, trials", [(-1, 2), (2**64 - 1, 2), (2**64, 1)])
    def test_simulators_refuse_trials_out_of_range(self, no_work, offset, trials):
        cfg = SimulationConfig(trials=trials, seed=1)
        with pytest.raises(ValueError, match="trial indices"):
            simulate_carries(2, 2, 10, cfg, trial_offset=offset)
        with pytest.raises(ValueError, match="trial indices"):
            simulate_shuffle_chain(2, 2, cfg, trial_offset=offset)

    @pytest.mark.parametrize("window, match", [
        ((-1, 2, 0, 2), "trial indices"), ((2**64 - 1, 2**64 + 1, 0, 2), "trial indices"),
        ((0, 2, -3, 2), "draw indices"), ((0, 2, -1, -1), "draw indices"),
    ])
    def test_stream_block_refuses_indices_out_of_range(self, window, match):
        with pytest.raises(ValueError, match=match):
            stream_block(1, *window)
        with pytest.raises(ValueError, match=match):
            digit_block(1, *window, 10)

    def test_the_last_draw_index_works(self):
        top = 2**64 - 1
        assert stream_block(1, 0, 2, top, top + 1).tolist() == [_draws(1, t, top, top + 1) for t in (0, 1)]
        assert stream_block(1, 0, 2, top - 3, top + 1).tolist() == [_draws(1, t, top - 3, top + 1) for t in (0, 1)]

    @pytest.mark.parametrize("window", [(2**64, 2**64 + 3), (2**64 - 1, 2**64 + 1), (0, 2**64 + 1)])
    def test_draws_past_the_last_index_are_refused_before_any_allocation(self, monkeypatch, window):
        # draw j + 2^64 would repeat draw j: (2^64, 2^64 + 3) was the block of (0, 3)
        monkeypatch.setattr(rng, "np", None)  # any numpy call, an allocation among them, fails
        for make in (lambda: stream_block(1, 0, 2, *window), lambda: digit_block(1, 0, 2, *window, 10)):
            with pytest.raises(ValueError, match="draw indices"):
                make()


# Pure-Python references, written from the formulas in the rng and simulate
# docstrings and sharing no code with the numpy kernels.

_M64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(x):
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _draws(seed, trial, draw_lo, draw_hi):
    """Draws draw_lo..draw_hi-1 of one trial stream, as Python integers."""
    state = _mix((seed + (trial + 1) * _GAMMA) & _M64)
    return [_mix((state + (j + 1) * _GAMMA) & _M64) for j in range(draw_lo, draw_hi)]


def _descents(seq):
    return sum(x > y for x, y in zip(seq, seq[1:]))


def _shuffle_reference(n, b, seed, trials, offset=0):
    """Descent transitions of one GSR b-shuffle per trial: the start deck
    stably sorts positions by raw key; the digit word stably sorts positions
    by digit (rho), and the deck sigma becomes tau o sigma with
    tau = rho^-1."""
    counts = [[0] * n for _ in range(n)]
    for t in range(offset, offset + trials):
        keys = _draws(seed, t, 0, n)
        deck = sorted(range(n), key=keys.__getitem__)
        digits = [v % b for v in _draws(seed, t, n, 2 * n)]
        rho = sorted(range(n), key=digits.__getitem__)
        tau = [0] * n
        for rank, pos in enumerate(rho):
            tau[pos] = rank
        counts[_descents(deck)][_descents([tau[card] for card in deck])] += 1
    return tuple(tuple(row) for row in counts)


def _carries_reference(n, b, digits, seed, trials, offset=0):
    """Carry transition counts in plain Python integers, from the raw draws."""
    counts = [[0] * n for _ in range(n)]
    for t in range(offset, offset + trials):
        raw = _draws(seed, t, 0, digits * n)
        carry = 0
        for c in range(digits):
            nxt = (carry + sum(v % b for v in raw[c * n : (c + 1) * n])) // b
            counts[carry][nxt] += 1
            carry = nxt
    return tuple(tuple(row) for row in counts)


# (trial_lo, trial_hi, draw_lo, draw_hi): empty, narrower than a block,
# wider than a block in both directions, and windows that straddle the edge
# of a block of 64 values; then one trial fewer than _NARROW (filled trial
# by trial) and exactly _NARROW (one broadcast add), both over several
# blocks of 64 from a draw_lo off any block edge, and more trials than a
# block of 64 with a single draw
_WINDOWS = [
    (0, 0, 0, 5), (3, 5, 7, 7), (0, 1, 0, 1), (0, 3, 0, 5), (5, 8, 2, 30),
    (0, 1, 0, 150), (2, 5, 60, 70), (0, 4, 0, 33), (9, 10, 63, 129), (0, 70, 0, 2),
    (10, 10 + rng._NARROW - 1, 33, 80), (4, 4 + rng._NARROW, 101, 140), (4, 6, 100, 300), (1, 71, 5, 6),
]


class TestRngReference:
    @pytest.mark.parametrize("block", (1, 7, 64, None))
    @pytest.mark.parametrize("seed", (0, 123, 2**64 - 1))
    def test_stream_block(self, monkeypatch, block, seed):
        if block is not None:
            monkeypatch.setattr(rng, "_BLOCK_VALUES", block, raising=False)
        for t0, t1, d0, d1 in _WINDOWS:
            got = stream_block(seed, t0, t1, d0, d1)
            assert got.dtype == np.uint64 and got.shape == (t1 - t0, d1 - d0)
            assert got.tolist() == [_draws(seed, t, d0, d1) for t in range(t0, t1)]

    def test_stream_block_wider_than_the_default_block(self):
        seed = 2**63 + 11
        got = stream_block(seed, 4, 6, 5, 5 + 70_000)
        assert got.tolist() == [_draws(seed, t, 5, 5 + 70_000) for t in (4, 5)]

    def test_more_trials_than_the_default_block_with_one_draw(self):
        seed = 2**63 + 11
        got = stream_block(seed, 3, 3 + 70_000, 9, 10)
        assert got.tolist() == [_draws(seed, t, 9, 10) for t in range(3, 3 + 70_000)]

    @pytest.mark.parametrize("block", (7, None))
    @pytest.mark.parametrize("make", [
        lambda *w: stream_block(5, *w),
        lambda *w: digit_block(5, *w, 8),  # a power of two: one bitwise_and
        lambda *w: digit_block(5, *w, 10),  # the division branch
    ], ids=["stream", "digits-pow2", "digits-div"])
    def test_blocks_are_draw_major(self, monkeypatch, block, make):
        # the kernels read rows of block.T, one draw across all trials: that
        # transpose must be C-contiguous and a view, not a copy
        if block is not None:
            monkeypatch.setattr(rng, "_BLOCK_VALUES", block, raising=False)
        for window in ((0, 1, 0, 40), (2, 2 + rng._NARROW - 1, 3, 20), (0, 30, 7, 17), (0, 70, 0, 2)):
            got = make(*window)
            assert got.shape == (window[1] - window[0], window[3] - window[2])
            assert got.T.flags.c_contiguous and np.shares_memory(got, got.T)

    @pytest.mark.parametrize("block", (1, 7, 64, None))
    @pytest.mark.parametrize("base", (1, 2, 4, 10, 3**20, 2**40, 2**63))
    def test_digit_block(self, monkeypatch, block, base):
        if block is not None:
            monkeypatch.setattr(rng, "_BLOCK_VALUES", block, raising=False)
        for seed in (7, 2**64 - 1):
            for t0, t1, d0, d1 in _WINDOWS:
                got = digit_block(seed, t0, t1, d0, d1, base)
                assert got.dtype == np.int64 and got.shape == (t1 - t0, d1 - d0)
                assert got.tolist() == [[v % base for v in _draws(seed, t, d0, d1)] for t in range(t0, t1)]


    @pytest.mark.parametrize("block", (7, 64, None))
    @pytest.mark.parametrize("base", (2, 3, 10, 256, 2**63))
    def test_narrow_digits_equal_the_int64_ones(self, monkeypatch, block, base):
        # every type that holds base - 1, at and across the block edges
        if block is not None:
            monkeypatch.setattr(rng, "_BLOCK_VALUES", block, raising=False)
        types = [t for t in (np.uint8, np.int8, np.int16, np.int32, np.uint64) if base - 1 <= np.iinfo(t).max]
        for t0, t1, d0, d1 in _WINDOWS:
            wide = digit_block(11, t0, t1, d0, d1, base)
            for dtype in types:
                got = digit_block(11, t0, t1, d0, d1, base, dtype)
                assert got.dtype == dtype and got.T.flags.c_contiguous
                assert (got == wide.astype(dtype)).all() and got.tolist() == wide.tolist()

    @pytest.mark.parametrize("base, dtype", [(257, np.uint8), (129, np.int8), (2**15 + 1, np.int16), (2**63, np.int32)])
    def test_a_type_too_narrow_for_the_digits_is_refused(self, base, dtype):
        with pytest.raises(ValueError, match="cannot hold"):
            digit_block(1, 0, 2, 0, 3, base, dtype)


class TestSimulatorReference:
    @pytest.mark.parametrize("chunks", (1, 3))
    @pytest.mark.parametrize("n, b", [(1, 3), (2, 2), (3, 2), (4, 3), (5, 10), (6, 2**63)])
    def test_shuffle_chain(self, monkeypatch, chunks, n, b):
        for seed, trials, offset in ((1, 300, 0), (2**64 - 1, 57, 1000)):
            # 2n draws a trial: the trials run in ``chunks`` chunks
            monkeypatch.setattr(simulate, "_CHUNK_VALUES", 2 * n * -(-trials // chunks))
            got = simulate_shuffle_chain(n, b, SimulationConfig(trials=trials, seed=seed), offset)
            assert got.counts == _shuffle_reference(n, b, seed, trials, offset)

    @pytest.mark.parametrize("chunk", (1, 7, 50))
    def test_shuffle_chain_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(rng, "_BLOCK_VALUES", 5, raising=False)
        got = simulate_shuffle_chain(4, 3, SimulationConfig(trials=40, seed=5), 3)
        assert got.counts == _shuffle_reference(4, 3, 5, 40, 3)

    @pytest.mark.parametrize("chunk, segment, block", [(None, None, None), (1, 1, 1), (30, 4, 7), (100, 3, 64)])
    def test_one_long_trajectory(self, monkeypatch, chunk, segment, block):
        # 301 columns span several column chunks and several segments, and no
        # chunk or segment size divides it
        for module, name, value in ((simulate, "_CHUNK_VALUES", chunk), (simulate, "_SEGMENT_COLUMNS", segment),
                                    (rng, "_BLOCK_VALUES", block)):
            if value is not None:
                monkeypatch.setattr(module, name, value, raising=False)
        for n, b in ((2, 2), (3, 10), (5, 3)):
            for seed, offset in ((4, 0), (2**64 - 1, 9)):
                got = simulate_carries(n, b, 301, SimulationConfig(trials=1, seed=seed), offset)
                assert got.counts == _carries_reference(n, b, 301, seed, 1, offset)

    @pytest.mark.parametrize("chunk, segment", [(None, None), (1, 1), (40, 3), (1000, 8)])
    def test_many_trials(self, monkeypatch, chunk, segment):
        for module, name, value in ((simulate, "_CHUNK_VALUES", chunk), (simulate, "_SEGMENT_COLUMNS", segment)):
            if value is not None:
                monkeypatch.setattr(module, name, value, raising=False)
        for n, b, digits, trials in ((2, 2, 1, 9), (3, 10, 17, 12), (4, 2, 40, 5), (2, 7, 100, 3)):
            got = simulate_carries(n, b, digits, SimulationConfig(trials=trials, seed=31), 2)
            assert got.counts == _carries_reference(n, b, digits, 31, trials, 2)


# (n, b) on both sides of every edge of the scan's type: carry plus column
# sum (n - 1) + n (b - 1) reaches 127 at (2, 64), 32767 at (2, 16384) and
# 2^31 - 1 at (2, 2^30); the largest code n^2 - 1 is 120 at (11, 2) and 143
# at (12, 2); at (3, 43) the sum alone, 126, fits int8 but carry plus sum
# does not
_TYPE_EDGES = [
    (2, 64, np.int8), (2, 65, np.int16), (11, 2, np.int8), (12, 2, np.int16), (3, 43, np.int16),
    (2, 16384, np.int16), (2, 16385, np.int32), (2, 2**30, np.int32), (2, 2**30 + 1, np.int64),
]


class TestNarrowScan:
    def test_the_type_edges(self):
        for n, b, dtype in _TYPE_EDGES:
            assert simulate._scan_dtype(n, b) is dtype, (n, b)
        assert simulate._scan_dtype(3, 10) is np.int8  # the benchmark's trajectory
        assert simulate._scan_dtype(3, (2**63 + 1) // 3 - 1) is np.int64  # the input bound's top base

    @staticmethod
    def _record_dtypes(monkeypatch, dtypes):
        scan = simulate._carry_scan

        def record(sums, *args):
            dtypes.add(sums.dtype.type)
            return scan(sums, *args)

        monkeypatch.setattr(simulate, "_carry_scan", record)

    @pytest.mark.parametrize("chunk, segment", [(64, 5), (1000, 3)])
    @pytest.mark.parametrize("n, b, dtype", _TYPE_EDGES)
    def test_both_sides_of_every_edge_match_the_reference(self, monkeypatch, chunk, segment, n, b, dtype):
        # small chunks and segments, so that the carry crosses both borders
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(simulate, "_SEGMENT_COLUMNS", segment)
        dtypes = set()
        self._record_dtypes(monkeypatch, dtypes)
        for digits, trials, offset in ((301, 1, 0), (41, 7, 2**64 - 8)):
            got = simulate_carries(n, b, digits, SimulationConfig(trials=trials, seed=77), offset)
            assert got.counts == _carries_reference(n, b, digits, 77, trials, offset)
        assert dtypes == {dtype}

    @pytest.mark.parametrize("n, b, dtype", _TYPE_EDGES)
    def test_the_largest_values_fit(self, monkeypatch, n, b, dtype):
        # every digit b - 1: each column sums to n (b - 1) and the carry climbs
        # to n - 1 and stays, so carry plus sum and the code reach their maxima
        def top_digits(seed, t0, t1, d0, d1, base, dtype):
            return np.full((d1 - d0, t1 - t0), base - 1, dtype=dtype).T

        monkeypatch.setattr(simulate, "digit_block", top_digits)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", 60)
        monkeypatch.setattr(simulate, "_SEGMENT_COLUMNS", 4)
        for digits, trials in ((50, 1), (9, 5)):
            counts, carry = [[0] * n for _ in range(n)], 0
            for _ in range(digits):
                nxt = (carry + n * (b - 1)) // b
                counts[carry][nxt] += trials
                carry = nxt
            assert carry == n - 1
            got = simulate_carries(n, b, digits, SimulationConfig(trials=trials, seed=1))
            assert got.counts == tuple(map(tuple, counts))


class TestShuffleKernels:
    """The rank kernel runs up to n = ``_RANK_MAX_N``, the argsort kernel
    above it."""

    @pytest.mark.parametrize("n", range(1, simulate._RANK_MAX_N + 1))
    def test_start_positions_keep_the_stable_tie_order(self, n):
        # seeded 64-bit keys never tie, so only these keys reach the tie order;
        # 2^64 - 1 must sort above everything, as it would not on int64
        draw = random.Random(n)
        top = 2**64 - 1
        columns = [[draw.choice((0, 1, 2)) for _ in range(n)] for _ in range(300)]
        columns += [[draw.choice((0, 1, top)) for _ in range(n)] for _ in range(100)]
        columns += [[0] * n, [top] * n, list(range(n)), list(range(n))[::-1]]
        got = simulate._start_positions(np.array(columns, dtype=np.uint64).T.copy())
        assert got.dtype == np.int8 and got.shape == (n, len(columns))
        for t, keys in enumerate(columns):
            deck = sorted(range(n), key=keys.__getitem__)
            assert [deck[p] for p in got[:, t]] == list(range(n))

    @pytest.mark.parametrize("chunk", (1, 7, None))
    @pytest.mark.parametrize("n", (simulate._RANK_MAX_N, simulate._RANK_MAX_N + 1))
    def test_both_sides_of_the_crossover_match_the_reference(self, monkeypatch, n, chunk):
        # b = 1 ties every digit and b = 2 most of them, so the labels break ties
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK_VALUES", chunk)
        for s in (1, 2, 3):
            for b in (1, 2, 3, 2**63):
                got = simulate_shuffle_chain(n, b, SimulationConfig(trials=12, seed=b + s), 5)
                assert got.counts == _shuffle_reference(n, b, b + s, 12, 5)

    @pytest.mark.parametrize("chunk", (1, 5, 40, None))
    def test_no_block_exceeds_the_chunk(self, chunk):
        for n, b in ((1, 2), (3, 3), (4, 3), (simulate._RANK_MAX_N + 1, 2)):
            per_chunk = max(1, (chunk or simulate._CHUNK_VALUES) // (2 * n))
            cfg = SimulationConfig(trials=3 * per_chunk + 1, seed=8)
            expected = simulate_shuffle_chain(n, b, cfg, 1)
            sizes = []
            with pytest.MonkeyPatch.context() as patch:
                _record_sizes(patch, sizes)
                if chunk is not None:
                    patch.setattr(simulate, "_CHUNK_VALUES", chunk)
                assert simulate_shuffle_chain(n, b, cfg, 1) == expected
            assert len(sizes) == 8  # a key block and a digit block per chunk
            assert max(sizes) <= max(chunk or simulate._CHUNK_VALUES, 2 * n)


class TestPinnedCounts:
    """SHA-256 of ``repr(counts)`` for multi-chunk seeded runs, pinned from
    the trial-major fill before the blocks became draw-major: a layout slip
    that moves a single count changes the digest."""

    @pytest.mark.parametrize("run, digest", [
        (lambda: simulate_shuffle_chain(10, 2, SimulationConfig(60_000, 2011)),  # 3 chunks
         "7e9dc292cfcbc35750e32dce6d10d69d16aeab96ea7ad84d90b00ee996bccdb4"),
        (lambda: simulate_shuffle_chain(3, 2, SimulationConfig(200_000, 2011)),  # 3 chunks
         "65297b4be46e84fe33d8c1aee379afdc0b63c7fd6046e42efb4d1579cdb93aef"),
        (lambda: simulate_carries(2, 2, 400_000, SimulationConfig(1, 2011)),  # 2 chunks, 3125 segments
         "7a106b4024216cdca70c43058c5578fcee52db69015c914892c06b4df76aa555"),
        (lambda: simulate_carries(2, 10, 20, SimulationConfig(50_000, 2011)),  # 4 chunks
         "6f0ac96f6b7a535729db8ed282d3f7863386085e0db08546f1b8c7231b9d9ebf"),
        # the sort kernel, pinned from its multi-step form
        (lambda: simulate_shuffle_chain(40, 3, SimulationConfig(20_000, 2011)),  # 4 chunks
         "f5be2663e69e095f51ee2ab07cf1ba04449c59b9e0ceb6165c77116acfda51fa"),
        (lambda: simulate_shuffle_chain(40, 70_000, SimulationConfig(7_000, 2011), 5),  # 2 chunks, digits past 2^16
         "91c422d14d9d7f76d7ed3a66defeabd28efa541bb93578577050f9eaf9bebdee"),
    ], ids=["shuffle-n10", "shuffle-n3", "carries-one-trajectory", "carries-trials", "shuffle-sort-n40",
            "shuffle-sort-wide-base"])
    def test_digest(self, run, digest):
        assert hashlib.sha256(repr(run().counts).encode()).hexdigest() == digest


@pytest.fixture(params=(1, 3), ids=("inline", "three-threads"))
def workers(request, monkeypatch):
    monkeypatch.setattr(simulate, "_WORKERS", request.param)


@pytest.mark.usefixtures("workers")
class TestPinnedCountsOnOtherThreadCounts(TestPinnedCounts):
    """The same digests with the chunks run inline and on three threads."""


class TestWorkers:
    """The chunks run on ``_WORKERS`` threads; the counts must not depend on
    how many, and no thread may outlive a call."""

    @pytest.mark.parametrize("count", (1, 2, 3))
    def test_counts_do_not_depend_on_the_threads(self, monkeypatch, count):
        monkeypatch.setattr(simulate, "_WORKERS", count)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", 24)  # many jobs
        monkeypatch.setattr(simulate, "_SEGMENT_COLUMNS", 3)
        before = threading.active_count()
        for n, b in ((3, 2), (4, 3), (simulate._RANK_MAX_N + 1, 2)):
            got = simulate_shuffle_chain(n, b, SimulationConfig(trials=60, seed=4), 2)
            assert got.counts == _shuffle_reference(n, b, 4, 60, 2)
        for n, b, digits, trials in ((3, 10, 301, 1), (2, 7, 40, 9), (4, 2, 5, 13)):
            got = simulate_carries(n, b, digits, SimulationConfig(trials=trials, seed=6), 1)
            assert got.counts == _carries_reference(n, b, digits, 6, trials, 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ("worker", "caller"))
    def test_a_failing_job_reaches_the_caller_and_every_thread_ends(self, monkeypatch, failing):
        monkeypatch.setattr(simulate, "_WORKERS", 2)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", 30)
        main = threading.main_thread()

        def failing_digits(*args):
            if (threading.current_thread() is main) == (failing == "caller"):
                raise RuntimeError(f"a job on the {failing} thread failed")
            return digit_block(*args)

        monkeypatch.setattr(simulate, "digit_block", failing_digits)
        before = threading.active_count()
        for call in (lambda: simulate_shuffle_chain(3, 2, SimulationConfig(trials=100, seed=1)),
                     lambda: simulate_carries(3, 10, 200, SimulationConfig(trials=1, seed=1)),
                     lambda: simulate_carries(2, 10, 5, SimulationConfig(trials=50, seed=1))):
            with pytest.raises(RuntimeError, match=f"on the {failing} thread"):
                call()
            assert threading.active_count() == before

    def test_one_job_runs_inline(self, monkeypatch):
        monkeypatch.setattr(simulate, "_WORKERS", 2)
        threads = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: threads.append(self))
        assert simulate_carries(3, 10, 50, SimulationConfig(trials=4, seed=2)).samples == 200
        assert threads == []

    @pytest.mark.parametrize("count", (2, 3))
    def test_the_helpers_serve_every_round_of_a_call(self, monkeypatch, count):
        # a new thread per round made the monte-carlo workload 4 % slower, so
        # W - 1 helpers serve all rounds of a call, or of one long trial
        monkeypatch.setattr(simulate, "_WORKERS", count)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", 24)  # many rounds
        start, started = threading.Thread.start, []

        def record(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        for call, helpers in (
            (lambda: simulate_shuffle_chain(3, 2, SimulationConfig(trials=100, seed=1)), count - 1),  # 25 chunks
            (lambda: simulate_carries(2, 7, 4, SimulationConfig(trials=60, seed=1)), count - 1),  # 20 chunks
            (lambda: simulate_carries(3, 10, 200, SimulationConfig(trials=2, seed=1)), 2 * (count - 1)),  # 25 pieces each
        ):
            started.clear()
            call()
            assert 0 < len(started) <= helpers

    @pytest.mark.parametrize("count", (1, 2, 3))
    def test_a_long_trial_is_scanned_a_round_per_call(self, monkeypatch, count):
        monkeypatch.setattr(simulate, "_WORKERS", count)
        monkeypatch.setattr(simulate, "_CHUNK_VALUES", 24)
        scan, shapes = simulate._carry_scan, []

        def record(sums, *args):
            shapes.append(sums.shape)
            return scan(sums, *args)

        monkeypatch.setattr(simulate, "_carry_scan", record)
        # two trials of 203 columns, each in 25 pieces of 8 columns and one of 3
        got = simulate_carries(3, 10, 203, SimulationConfig(trials=2, seed=5), 4)
        assert got.counts == _carries_reference(3, 10, 203, 5, 2, 4)
        rounds = -(-26 // count)
        assert len(shapes) == 2 * rounds
        assert [columns for columns, _ in shapes[:rounds]] == [8 * count] * (rounds - 1) + [203 - 8 * count * (rounds - 1)]
        shapes.clear()
        # 60 whole trials of 4 columns in 20 chunks of 3, scanned one by one
        simulate_carries(2, 7, 4, SimulationConfig(trials=60, seed=5))
        assert shapes == [(4, 3)] * 20

    def test_at_most_two_threads_and_two_to_the_19_values_in_flight(self):
        # one CPU runs one chunk of 2^19 values inline, two run two of 2^18
        assert 1 <= simulate._WORKERS <= 2
        assert simulate._WORKERS * simulate._CHUNK_VALUES == 2**19


class TestMemory:
    def test_one_long_trajectory_stays_under_the_in_flight_budget(self):
        # 2^19 values were in flight before the chunks ran on threads, drawn
        # into one uint64 buffer of 4 MiB; the threads and the scan together
        # must stay under that
        cfg = SimulationConfig(1, 7)
        simulate_carries(3, 10, 1000, cfg)  # numpy's own lazy set-up
        tracemalloc.start()
        try:
            simulate_carries(3, 10, 10**6, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19 * 8

    def test_many_trials_stay_under_the_in_flight_budget(self):
        # the other path: chunks of whole trials, a round of them in flight,
        # each scanned on its own
        simulate_carries(2, 10, 20, SimulationConfig(10, 7))
        tracemalloc.start()
        try:
            simulate_carries(2, 10, 20, SimulationConfig(50_000, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19 * 8
