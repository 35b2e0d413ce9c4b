from fractions import Fraction

import numpy as np
import pytest

from carrychain import simulate
from carrychain.matrix import amazing_matrix
from carrychain.rng import check_seed, digit_block, mix64, stream_block
from carrychain.simulate import (
    EmpiricalMatrix,
    SimulationConfig,
    simulate_carries,
    simulate_shuffle_chain,
)


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

    def test_mix64_bijective_on_sample(self):
        xs = np.arange(1000, dtype=np.uint64)
        assert len(set(mix64(xs).tolist())) == 1000

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

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SimulationConfig(trials=1, seed=1, steps=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(trials=1, seed=-5)


class TestEmpiricalMatrix:
    def test_frequencies_and_tv(self):
        em = EmpiricalMatrix(2, ((3, 1), (0, 0)))
        freq = em.frequencies()
        assert freq[0] == (Fraction(3, 4), Fraction(1, 4))
        assert freq[1] == (Fraction(0), Fraction(0))
        exact = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        tv = em.tv_distances(exact)
        assert tv[0] == Fraction(1, 4)
        assert tv[1] == Fraction(1)  # unsampled row reports maximal distance


class TestShuffleChain:
    def test_deterministic(self):
        cfg = SimulationConfig(trials=2000, seed=42, steps=2)
        assert simulate_shuffle_chain(3, 2, cfg) == simulate_shuffle_chain(3, 2, cfg)

    def test_partition_independent(self):
        whole = simulate_shuffle_chain(3, 2, SimulationConfig(trials=1000, seed=7))
        head = simulate_shuffle_chain(3, 2, SimulationConfig(trials=400, seed=7), trial_offset=0)
        tail = simulate_shuffle_chain(3, 2, SimulationConfig(trials=600, seed=7), trial_offset=400)
        merged = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(head.counts, tail.counts))
        assert merged == whole.counts

    def test_sample_count(self):
        cfg = SimulationConfig(trials=500, seed=3, steps=4)
        assert simulate_shuffle_chain(2, 2, cfg).samples == 2000

    def test_roughly_matches_exact(self):
        cfg = SimulationConfig(trials=100_000, seed=11)
        result = simulate_shuffle_chain(3, 2, cfg)
        tv = result.tv_distances(amazing_matrix(3, 2).normalized())
        assert max(tv) < Fraction(1, 50)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            simulate_shuffle_chain(0, 2, SimulationConfig(trials=1, seed=1))

    def test_base_bound(self):
        assert simulate_shuffle_chain(3, 2**63, SimulationConfig(trials=50, seed=1)).samples == 50
        for b in (2**63 + 1, 2**64):
            with pytest.raises(ValueError):
                simulate_shuffle_chain(3, b, SimulationConfig(trials=50, seed=1))


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
        # the one-trajectory integer path and the vectorized path must tally
        # identical counts for identical (seed, trial) streams
        multi = simulate_carries(2, 3, 400, SimulationConfig(trials=2, seed=21))
        one = simulate_carries(2, 3, 400, SimulationConfig(trials=1, seed=21), trial_offset=0)
        two = simulate_carries(2, 3, 400, SimulationConfig(trials=1, seed=21), trial_offset=1)
        merged = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(one.counts, two.counts))
        assert merged == multi.counts

    def test_roughly_matches_exact(self):
        result = simulate_carries(2, 2, 100_000, SimulationConfig(trials=1, seed=5))
        tv = result.tv_distances(amazing_matrix(2, 2).normalized())
        assert max(tv) < Fraction(1, 50)

    def test_carry_states_stay_in_range(self):
        result = simulate_carries(4, 2, 2000, SimulationConfig(trials=2, seed=17))
        assert result.states == 4
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

        def recording_digit_block(*args):
            block = digit_block(*args)
            sizes.append(block.size)
            return block

        monkeypatch.setattr(simulate, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(simulate, "digit_block", recording_digit_block)
        for (seed, digits, trials), expected in whole.items():
            assert simulate_carries(3, 4, digits, SimulationConfig(trials=trials, seed=seed), 2) == expected
        assert max(sizes) <= max(chunk, 3)  # one column of 3 digits at least


def _carries_reference(n, b, digits, seed, trials):
    """Carry transition counts in plain Python integers, from the raw draws."""
    counts = [[0] * n for _ in range(n)]
    for raw in stream_block(seed, 0, trials, 0, digits * n).tolist():
        carry = 0
        for c in range(digits):
            nxt = (carry + sum(v % b for v in raw[c * n : (c + 1) * n])) // b
            counts[carry][nxt] += 1
            carry = nxt
    return tuple(tuple(row) for row in counts)
