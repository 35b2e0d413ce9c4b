"""Counter-based pseudo-random streams built on the SplitMix64 finalizer.

The draw ``j`` of trial stream ``t`` under a 64-bit ``seed`` is

    mix64(mix64(seed + (t+1) * GAMMA) + (j+1) * GAMMA)   (mod 2^64),

where GAMMA is the SplitMix64 golden-ratio increment and mix64 its output
finalizer.  Every value is a pure function of (seed, trial, draw), so trials
can be partitioned across chunks or workers in any way without changing a
single draw, and identical seeds reproduce identical simulations bit for
bit.
"""

from __future__ import annotations

import numpy as np

SEED_BITS = 64
MAX_BASE = 2**63  # digits are handed out as int64, so they must stay below 2^63
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)


def check_seed(seed: int) -> int:
    if not 0 <= seed < 2**SEED_BITS:
        raise ValueError(f"seed must be an unsigned {SEED_BITS}-bit integer, got {seed}")
    return seed


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, elementwise on uint64 arrays."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def stream_block(seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int) -> np.ndarray:
    """uint64 values for trials [trial_lo, trial_hi) x draws [draw_lo, draw_hi)."""
    check_seed(seed)
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)[:, None]
    draws = np.arange(draw_lo, draw_hi, dtype=np.uint64)[None, :]
    with np.errstate(over="ignore"):
        state = mix64(np.uint64(seed) + (trials + _ONE) * _GAMMA)
        return mix64(state + (draws + _ONE) * _GAMMA)


def digit_block(seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int, base: int) -> np.ndarray:
    """Base-``base`` digits on the same grid, as int64.

    The modulo reduction carries a bias of (2^64 mod base) / 2^64, far below
    anything the statistical tolerances of this package can resolve.
    """
    if not 1 <= base <= MAX_BASE:
        raise ValueError(f"base must lie in 1..2^63, got {base}")
    block = stream_block(seed, trial_lo, trial_hi, draw_lo, draw_hi)
    return (block % np.uint64(base)).astype(np.int64)
