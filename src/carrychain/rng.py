"""Counter-based pseudo-random streams built on the SplitMix64 finalizer.

The draw ``j`` of trial stream ``t`` under a 64-bit ``seed`` is

    mix64(mix64(seed + (t+1) * GAMMA) + (j+1) * GAMMA)   (mod 2^64),

where GAMMA is the SplitMix64 golden-ratio increment and mix64 its output
finalizer.  Every value is a pure function of (seed, trial, draw), so trials
can be partitioned across chunks or workers in any way without changing a
single draw, and identical seeds reproduce identical simulations bit for
bit.

The blocks are draw-major: ``stream_block`` fills a C-contiguous
(draws, trials) buffer and returns its transpose, of shape (trials, draws).
So ``block.T`` is a copy-free view whose rows are single draws across all
trials, the rows the simulators' kernels work on.  The fill runs in blocks
of at most ``_BLOCK_VALUES`` values (whole draw rows where they fit, else
pieces of one row), with in-place ufuncs and one scratch block, so the
arithmetic runs in cache and no full-size temporaries are made.  Each block
adds the column of offsets (k+1) * GAMMA to its trials' starting states.
numpy pays per row for such a broadcast add, so a block of fewer than
``_NARROW`` trials is filled trial by trial instead; a single trial is then
one contiguous pass.  ``digit_block`` fills the same blocks in a uint64
scratch block and reduces each one there, as ``x - (x // b) * b``, which
equals ``x % b`` on uint64 and costs less than numpy's ``remainder`` (a
power-of-two base takes one pass, ``x & (b - 1)``).  It writes the digits
straight into a buffer of the narrowest type its caller needs, so no
uint64 buffer of the whole grid is made.  The functions keep no state, so
threads may call them at once.
"""

from __future__ import annotations

import numpy as np

SEED_BITS = 64
MAX_BASE = 2**63  # digits are handed out as int64, so they must stay below 2^63
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_BLOCK_VALUES = 1 << 16  # values per block of the in-place kernels, sized for cache
_NARROW = 8  # blocks of fewer trials than this are filled trial by trial


def check_seed(seed: int) -> int:
    if not 0 <= seed < 2**SEED_BITS:
        raise ValueError(f"seed must be an unsigned {SEED_BITS}-bit integer, got {seed}")
    return seed


def check_trials(trial_lo: int, trial_hi: int) -> None:
    if trial_lo < 0 or trial_hi > 2**64:
        raise ValueError(f"trial indices must lie in 0..2^64 - 1, got [{trial_lo}, {trial_hi})")


def _mix_in_place(x: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 applied to ``x`` in place; ``scratch`` has the shape of ``x``."""
    for shift, factor in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        np.bitwise_xor(x, scratch, out=x)
        if factor is not None:
            np.multiply(x, factor, out=x)


def _blocks(rows: int, cols: int):
    """Row and column slices that tile a (rows, cols) grid in blocks of at
    most ``_BLOCK_VALUES`` values: whole rows where they fit, else pieces of
    one row."""
    step_rows = max(1, _BLOCK_VALUES // max(cols, 1))
    step_cols = max(1, min(cols, _BLOCK_VALUES))
    for r in range(0, rows, step_rows):
        for c in range(0, cols, step_cols):
            yield slice(r, r + step_rows), slice(c, c + step_cols)


def _check_grid(seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int) -> None:
    check_seed(seed)
    check_trials(trial_lo, trial_hi)
    if draw_lo < 0 or draw_hi > 2**64:
        raise ValueError(f"draw indices must lie in 0..2^64 - 1, got [{draw_lo}, {draw_hi})")


def _fill(seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int, dtype, finish=None) -> np.ndarray:
    """The grid of ``stream_block`` in a C-contiguous (draws, trials) buffer
    of ``dtype``, returned transposed.  Each block of at most
    ``_BLOCK_VALUES`` values is filled in uint64: in the buffer itself when
    ``dtype`` is 64 bits wide, else in a scratch block.  ``finish(block,
    target, spare)`` then writes the buffer's piece ``target`` from the
    filled ``block``, with ``spare`` a free uint64 scratch of its shape;
    when ``dtype`` is 64 bits wide ``block`` and ``target`` are the same
    uint64 view.  Without ``finish`` the buffer is uint64.  The caller has
    checked the indices (``_check_grid``)."""
    states = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    states += _ONE
    states *= _GAMMA
    states += np.uint64(seed)
    out = np.empty((max(draw_hi - draw_lo, 0), len(states)), dtype=dtype)
    scratch = np.empty(max(min(out.size, _BLOCK_VALUES), len(states)), dtype=np.uint64)
    _mix_in_place(states, scratch[: len(states)])
    wide = out.dtype.itemsize == 8  # fill in place, as uint64
    # (k+1) * GAMMA for the k-th draw of a block; each block adds its own start
    steps = np.arange(1, min(len(out), _BLOCK_VALUES) + 1, dtype=np.uint64) * _GAMMA
    values = None if wide else np.empty(min(out.size, _BLOCK_VALUES), dtype=np.uint64)
    for rows, cols in _blocks(*out.shape):
        target = out[rows, cols]
        if wide:
            target = block = target.view(np.uint64)
        else:
            block = values[: target.size].reshape(target.shape)
        firsts = states[cols] + np.uint64((draw_lo + rows.start) * int(_GAMMA) % 2**64)
        offsets = steps[: len(block)]
        if block.shape[1] < _NARROW:
            # numpy pays per row for a broadcast add; few trials go trial by trial
            for first, trial in zip(firsts, block.T):
                np.add(offsets, first, out=trial)
        else:
            np.add(offsets[:, None], firsts, out=block)
        spare = scratch[: block.size].reshape(block.shape)
        _mix_in_place(block, spare)
        if finish is not None:
            finish(block, target, spare)
    return out.T


def stream_block(seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int) -> np.ndarray:
    """uint64 values for trials [trial_lo, trial_hi) x draws [draw_lo, draw_hi),
    shape (trials, draws), as the transpose of a C-contiguous draw-major
    buffer.  Trials and draws lie in 0..2^64 - 1: a draw enters the stream
    only as (j + 1) * GAMMA mod 2^64, so draw j + 2^64 would repeat draw j."""
    _check_grid(seed, trial_lo, trial_hi, draw_lo, draw_hi)
    return _fill(seed, trial_lo, trial_hi, draw_lo, draw_hi, np.uint64)


def digit_block(
    seed: int, trial_lo: int, trial_hi: int, draw_lo: int, draw_hi: int, base: int, dtype=np.int64
) -> np.ndarray:
    """Base-``base`` digits on the same grid and in the same layout, in the
    integer ``dtype``, which must hold base - 1.  Each block is reduced in
    its uint64 scratch and its digits written straight into the buffer, so
    no uint64 buffer of the whole grid is made.

    The modulo reduction carries a bias of (2^64 mod base) / 2^64, far below
    anything the statistical tolerances of this package can resolve.
    """
    if not 1 <= base <= MAX_BASE:
        raise ValueError(f"base must lie in 1..2^63, got {base}")
    _check_grid(seed, trial_lo, trial_hi, draw_lo, draw_hi)
    if base - 1 > np.iinfo(dtype).max:
        raise ValueError(f"{np.dtype(dtype)} cannot hold the digits of base {base}")
    divisor, mask = np.uint64(base), np.uint64(base - 1)

    def reduce(block: np.ndarray, target: np.ndarray, q: np.ndarray) -> None:
        if base & (base - 1) == 0:  # 1, 2, 4, ..., 2^63: the low bits are the digit
            np.bitwise_and(block, mask, out=target, casting="unsafe")
            return
        np.floor_divide(block, divisor, out=q)
        np.multiply(q, divisor, out=q)
        np.subtract(block, q, out=target, casting="unsafe")

    return _fill(seed, trial_lo, trial_hi, draw_lo, draw_hi, dtype, reduce)
