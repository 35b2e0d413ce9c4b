"""Monte-Carlo twins of the exact chains: GSR b-shuffles and base-b carries.

Both simulators tally integer transition counts; empirical frequencies and
total-variation distances are exact rationals over those counts, so the only
approximation anywhere is the sampling itself.  Randomness comes from the
counter-based streams in :mod:`carrychain.rng`: trial ``t`` consumes draws
indexed ``(seed, trial_offset + t, j)``, which makes results independent of
how trials are chunked and bit-reproducible for a fixed seed.

The shuffle simulator starts each trial from a uniformly random deck (the
descent-class marginal of a uniform permutation is already the stationary
Eulerian distribution, so every row of the empirical matrix collects mass)
and applies ``steps`` successive b-shuffles, recording each descent-count
transition.  The carries simulator adds ``n_summands`` uniformly random
base-b digit columns per trial, starting from carry 0, and records the
successive carry values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rng import MAX_BASE, check_seed, digit_block, stream_block

_CHUNK_VALUES = 1 << 22  # cap per-chunk random values to bound memory


@dataclass(frozen=True)
class SimulationConfig:
    """Deterministic simulation parameters: identical configs give identical
    output, bit for bit."""

    trials: int
    seed: int
    steps: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")
        check_seed(self.seed)


@dataclass(frozen=True)
class EmpiricalMatrix:
    """Integer transition counts over ``states`` states, with exact-valued
    row frequencies and total-variation helpers."""

    states: int
    counts: tuple[tuple[int, ...], ...]

    @property
    def samples(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def frequencies(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = []
        for row in self.counts:
            total = sum(row)
            if total == 0:
                rows.append(tuple(Fraction(0) for _ in row))
            else:
                rows.append(tuple(Fraction(c, total) for c in row))
        return tuple(rows)

    def tv_distances(self, exact_rows) -> tuple[Fraction, ...]:
        """Per-row total-variation distance to an exact stochastic matrix.
        Rows with no samples are reported at the maximal distance 1."""
        out = []
        for row, exact in zip(self.counts, exact_rows):
            total = sum(row)
            if total == 0:
                out.append(Fraction(1))
                continue
            diff = sum(abs(Fraction(c, total) - Fraction(e)) for c, e in zip(row, exact))
            out.append(diff / 2)
        return tuple(out)


def _descent_counts(decks: np.ndarray) -> np.ndarray:
    return (decks[:, :-1] > decks[:, 1:]).sum(axis=1)


def simulate_shuffle_chain(n: int, b: int, cfg: SimulationConfig, trial_offset: int = 0) -> EmpiricalMatrix:
    """Empirical descent-count transition matrix of repeated GSR b-shuffles.

    Per trial: draws 0..n-1 seed a uniformly random start deck (stable
    argsort of raw 64-bit keys), then step s consumes draws
    n + s*n .. n + (s+1)*n - 1 as the digit word of one shuffle.  The deck
    update composes the shuffle outcome after the current deck, matching the
    exact oracle's orientation.
    """
    if n < 1 or not 1 <= b <= MAX_BASE:
        raise ValueError(f"need n >= 1 and 1 <= b <= 2^63, got n={n}, b={b}")
    counts = np.zeros(n * n, dtype=np.int64)
    chunk = max(1, _CHUNK_VALUES // (n * (cfg.steps + 1)))
    arange_n = np.arange(n)
    for lo in range(0, cfg.trials, chunk):
        hi = min(lo + chunk, cfg.trials)
        t0, t1 = trial_offset + lo, trial_offset + hi
        keys = stream_block(cfg.seed, t0, t1, 0, n)
        decks = np.argsort(keys, axis=1, kind="stable") + 1
        d_prev = _descent_counts(decks)
        for s in range(cfg.steps):
            digits = digit_block(cfg.seed, t0, t1, n + s * n, n + (s + 1) * n, b)
            rho = np.argsort(digits, axis=1, kind="stable")
            tau = np.empty_like(rho)
            np.put_along_axis(tau, rho, np.broadcast_to(arange_n, rho.shape), axis=1)
            # outcome tau = rho^{-1}; new deck = tau composed after the old deck
            decks = np.take_along_axis(tau, decks - 1, axis=1) + 1
            d_new = _descent_counts(decks)
            counts += np.bincount(d_prev * n + d_new, minlength=n * n)
            d_prev = d_new
    grid = counts.reshape(n, n)
    return EmpiricalMatrix(n, tuple(tuple(int(c) for c in row) for row in grid))


def simulate_carries(n_summands: int, b: int, digits: int, cfg: SimulationConfig, trial_offset: int = 0) -> EmpiricalMatrix:
    """Empirical carry transition matrix of adding ``n_summands`` random
    base-b numbers of ``digits`` columns each, ``cfg.trials`` times.

    Carry states are 0..n_summands-1 (a carry can never reach n_summands).
    Trial t consumes draw c*n_summands + m for column c, summand m; each
    trial starts at carry 0.  ``cfg.steps`` plays no role here: ``digits``
    is the chain length.  Carry plus column sum, at most
    (n_summands - 1) + n_summands (b - 1), must fit in int64.
    """
    if n_summands < 2:
        raise ValueError(f"need at least 2 summands, got {n_summands}")
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if (n_summands - 1) + n_summands * (b - 1) >= 2**63:
        raise ValueError(f"carry plus column sum must stay below 2^63, got n_summands={n_summands}, b={b}")
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    n = n_summands
    counts = [[0] * n for _ in range(n)]
    chunk = max(1, _CHUNK_VALUES // (digits * n))
    for lo in range(0, cfg.trials, chunk):
        hi = min(lo + chunk, cfg.trials)
        t0, t1 = trial_offset + lo, trial_offset + hi
        if hi - lo == 1:
            # single trajectory: plain integer loop beats numpy scalar ops;
            # the columns come in chunks and the carry runs on across them
            carry = 0
            step = max(1, _CHUNK_VALUES // n)
            for c0 in range(0, digits, step):
                c1 = min(c0 + step, digits)
                block = digit_block(cfg.seed, t0, t1, c0 * n, c1 * n, b)
                for s in block.reshape(c1 - c0, n).sum(axis=1).tolist():
                    nxt = (carry + s) // b
                    counts[carry][nxt] += 1
                    carry = nxt
        else:
            block = digit_block(cfg.seed, t0, t1, 0, digits * n, b)
            column_sums = block.reshape(hi - lo, digits, n).sum(axis=2)
            trail = np.zeros((hi - lo, digits + 1), dtype=np.int64)
            carry = np.zeros(hi - lo, dtype=np.int64)
            for c in range(digits):
                carry = (carry + column_sums[:, c]) // b
                trail[:, c + 1] = carry
            pairs = trail[:, :-1] * n + trail[:, 1:]
            tally = np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n)
            for i in range(n):
                for j in range(n):
                    counts[i][j] += int(tally[i, j])
    return EmpiricalMatrix(n, tuple(tuple(row) for row in counts))
