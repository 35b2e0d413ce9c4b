"""Monte-Carlo twins of the exact chains: GSR b-shuffles and base-b carries.

Both simulators tally integer transition counts, and their total-variation
distances to an exact matrix, given as integer rows over one denominator, are
exact rationals, so the only approximation anywhere is the sampling itself.
Randomness comes from the counter-based streams in :mod:`carrychain.rng`:
trial ``t`` consumes draws indexed ``(seed, trial_offset + t, j)``, which
makes results independent of how trials are chunked and bit-reproducible for
a fixed seed.

The shuffle simulator starts each trial from a uniformly random deck (the
descent-class marginal of a uniform permutation is already the stationary
Eulerian distribution, so every row of the empirical matrix collects mass)
and applies one b-shuffle, recording its descent-count transition.  The
carries simulator adds ``n_summands`` uniformly random base-b digit columns
per trial, starting from carry 0, and records the successive carry values.

Both run as whole-array numpy passes over chunks of at most
``_CHUNK_VALUES`` = 2^19 / ``_WORKERS`` random values, with no Python loop
per trial or per column.  ``_run_rounds`` runs the chunks in rounds of
``_WORKERS`` = min(2, usable CPUs) at once, the caller running the first
of each and a helper thread each of the others, so at most 2^19 values are
in flight: two chunks of 2^18 on two CPUs, one of 2^19 on one, where no
helper starts.  numpy releases the interpreter lock inside its passes, so
two chunks fill at once.  After each round the caller merges its results
in job order.  A shuffle round adds its chunks' tallies.  A carries chunk
returns its column sums: a chunk of whole trials is scanned on its own
from carry 0, and the pieces of one long trial's columns are scanned a
round per call, the carry carried on from round to round, since a scan's
cost is mostly per call.  The merges are integer sums in a fixed order, so
the counts do not depend on the number of threads.  The random blocks are
draw-major (see :mod:`carrychain.rng`): the transpose of a block is a
C-contiguous (draws, trials) array, so every kernel reads whole rows of one
draw across all trials, with no transposing
copy.  A shuffle step sigma -> tau o sigma relabels the cards and moves
none, so for n up to ``_RANK_MAX_N`` a trial is held as each card's start
position, an int8 row of shape (n, trials).  Compares of card pairs give
the start positions from the keys, and then the descents between adjacent
cards before and after the step.  Above that n the O(n^2) compares cost
more than a stable argsort of the deck, which the larger decks keep.  The
carries, a sequential recurrence, run as a segmented scan: the columns are
cut into segments of ``_SEGMENT_COLUMNS``, one pass gives each segment's
carry map from every possible start carry, pointer doubling composes the
maps into each segment's true start carry, and a second pass tallies the
transitions of all segments at once.  The column sums are draw-major too,
(columns, trials), so the tail segment is read in place and only the body
of whole segments is copied into segment layout.  The digits come from
``digit_block`` already in the narrowest signed type that holds
max(n^2 - 1, (n - 1) + n (b - 1)), the largest transition code and carry
plus column sum; the sums are added and the scan runs in it: (3, 10) runs
in int8.  The shuffle's digits come as the narrowest unsigned type that
holds b - 1, uint8 up to b = 256, since only their order counts.

Two bounds are checked before any work is done.  A call asks for at most
``DRAW_BUDGET`` random draws.  And since the (n, n) int64 tally is
allocated before the first draw, whatever the number of draws, the states
are bounded on their own: n * n <= ``TALLY_CELLS`` = 2^20 cells, 8 MiB of
counts (and as many Python ints in the returned matrix), which allows
n <= 1024.  Without it one trial of n = 65536 would ask for 32 GiB.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinat import BudgetError
from .rng import MAX_BASE, check_seed, check_trials, digit_block, stream_block

DRAW_BUDGET = 2**32  # random draws one call may ask for, about 40 s of drawing
TALLY_CELLS = 2**20  # cells of the (n, n) transition tally one call may allocate
# threads that run chunks, the caller among them
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# random values per chunk: 2^19 in flight on one thread or two, and the rank
# kernel's rows stay in cache
_CHUNK_VALUES = (1 << 19) // _WORKERS
_RANK_MAX_N = 32  # the rank kernel up to here, the argsort above (measured crossover)
# columns per segment of the carry scan: a 4*10^6-column (3, 10) trajectory took
# 191 ms at 256 in int64, 131 at 128 and 135 at 64 in int8 (in process, median of 5)
_SEGMENT_COLUMNS = 128


@dataclass(frozen=True)
class SimulationConfig:
    """Deterministic simulation parameters: identical configs give identical
    output, bit for bit."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        check_seed(self.seed)


@dataclass(frozen=True)
class EmpiricalMatrix:
    """Integer transition counts, row i for the transitions out of state i."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def samples(self) -> int:
        return sum(sum(row) for row in self.counts)

    def tv_distances(self, rows, denominator: int) -> tuple[Fraction, ...]:
        """Per-row total-variation distance to the exact stochastic matrix
        ``rows`` / ``denominator``, integer rows of the shape of ``counts``.
        A row of T samples is at sum |c N - e T| / (2 T N), N the
        denominator, summed in integers; a row with no samples is at the
        maximal distance 1."""
        if len(rows) != len(self.counts) or any(len(e) != len(c) for e, c in zip(rows, self.counts)):
            raise ValueError(f"need a {len(self.counts)} x {len(self.counts)} exact matrix")
        if denominator < 1:
            raise ValueError(f"the denominator must be a positive integer, got {denominator}")
        out = []
        for row, exact in zip(self.counts, rows):
            total = sum(row)
            gap = sum(abs(c * denominator - e * total) for c, e in zip(row, exact))
            out.append(Fraction(gap, 2 * total * denominator) if total else Fraction(1))
        return tuple(out)


def _check_size(n: int, draws: int) -> None:
    if draws > DRAW_BUDGET:
        raise BudgetError(f"the simulation needs {draws} random draws, over the budget of {DRAW_BUDGET}")
    if n * n > TALLY_CELLS:
        raise BudgetError(f"the ({n}, {n}) transition tally has {n * n} cells, over the bound of {TALLY_CELLS}")


def _run_rounds(work, jobs: list, merge, state):
    """Call ``work(*job)`` for every job of ``jobs`` and fold the results
    into ``state`` on the calling thread, a round at a time: ``state =
    merge(state, results)``, ``results`` those of one round in job order.
    Return the last state.

    A round is W = min(``_WORKERS``, len(jobs)) consecutive jobs that run at
    once: the caller runs the first, and each of W - 1 helper threads, which
    live for the whole call, runs one other.  So at most W jobs run and at
    most W results wait at any time, and W = 1 starts no helper.  An
    exception from a job is raised in the caller, at that job's turn, and
    every helper is joined before the call returns or raises.
    """
    width = min(_WORKERS, len(jobs))
    mail = [(queue.SimpleQueue(), queue.SimpleQueue()) for _ in range(width - 1)]  # each helper's inbox, outbox

    def serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
        while (job := inbox.get()) is not None:
            try:
                outbox.put((work(*job), None))
            except BaseException as exc:  # handed to the caller, which raises it
                outbox.put((None, exc))

    def run_round(first: tuple, *others: tuple) -> list:
        for (inbox, _), job in zip(mail, others):
            inbox.put(job)
        results = [work(*first)]
        for _, outbox in mail[: len(others)]:
            result, exc = outbox.get()
            if exc is not None:
                raise exc
            results.append(result)
        return results

    helpers = [threading.Thread(target=serve, args=pair) for pair in mail]
    try:
        for helper in helpers:
            helper.start()
        for k in range(0, len(jobs), width):
            state = merge(state, run_round(*jobs[k : k + width]))
        return state
    finally:
        for (inbox, _), helper in zip(mail, helpers):
            inbox.put(None)
            if helper.ident is not None:
                helper.join()


def simulate_shuffle_chain(n: int, b: int, cfg: SimulationConfig, trial_offset: int = 0) -> EmpiricalMatrix:
    """Empirical descent-count transition matrix of one GSR b-shuffle per
    trial.

    Per trial: draws 0..n-1 are raw 64-bit keys, and the start deck sorts
    the cards 0..n-1 by key, stably; draws n..2n-1 are the digit word w of
    the shuffle.  The deck update composes the shuffle outcome after the
    deck, matching the exact oracle's orientation: the outcome tau sends
    label c to its rank under the key (w_c, c), and the deck sigma becomes
    tau o sigma.  So no card moves: the card at each position takes a new
    label, and a descent is an adjacent pair whose earlier label is the
    larger.  Up to n = ``_RANK_MAX_N``, ``_rank_chunk`` works on start
    positions by pairwise compares; above it, ``_sort_chunk`` builds the
    deck by argsort.  Both give the same counts.
    """
    if n < 1 or not 1 <= b <= MAX_BASE:
        raise ValueError(f"need n >= 1 and 1 <= b <= 2^63, got n={n}, b={b}")
    check_trials(trial_offset, trial_offset + cfg.trials)
    _check_size(n, cfg.trials * 2 * n)
    kernel = _rank_chunk if n <= _RANK_MAX_N else _sort_chunk
    chunk = max(1, _CHUNK_VALUES // (2 * n))
    t0, t1 = trial_offset, trial_offset + cfg.trials
    jobs = [(n, b, cfg.seed, lo, min(lo + chunk, t1)) for lo in range(t0, t1, chunk)]

    def add(counts: np.ndarray, tallies: list) -> np.ndarray:
        for tally in tallies:
            counts += tally
        return counts

    counts = _run_rounds(kernel, jobs, add, np.zeros((n, n), dtype=np.int64))
    return EmpiricalMatrix(tuple(tuple(int(c) for c in row) for row in counts))


def _start_positions(keys: np.ndarray) -> np.ndarray:
    """Each card's position in the stable sort of its trial's keys: uint64
    keys (n, trials) give int8 positions (n, trials).  Row a starts at
    n - 1 - a, card a's position if every card above it came first and no
    card below it did, and each pair a < c corrects it: card a comes before
    card c when key a <= key c."""
    n, trials = keys.shape
    pos = np.repeat(np.arange(n - 1, -1, -1, dtype=np.int8)[:, None], trials, axis=1)
    for a in range(n - 1):
        ones = (keys[a] <= keys[a + 1 :]).view(np.int8)  # numpy adds int8 faster than bool
        pos[a + 1 :] += ones
        pos[a] -= ones.sum(axis=0, dtype=np.int8)
    return pos


def _rank_chunk(n: int, b: int, seed: int, t0: int, t1: int) -> np.ndarray:
    """The (n, n) tally of the descent transitions of trials [t0, t1), in
    rank space.

    Card a is the one with key a.  It starts with label a at position
    pos[a], its rank in the stable sort of the keys.  Cards a < c are
    adjacent when their positions differ by one, and that adjacency is a
    descent when the card in front has the larger label.  The shuffle
    compares the cards by (digit of the label, label): card a reads digit
    a, it takes the lower new label when w_a <= w_c, and the compare of
    a < c tells whether their adjacency becomes a descent.  Rows are int8,
    so n must stay below 128.
    """
    pos = _start_positions(stream_block(seed, t0, t1, 0, n).T)
    w = digit_block(seed, t0, t1, n, 2 * n, b, np.min_scalar_type(b - 1)).T  # only their order counts
    d_prev = np.zeros(t1 - t0, dtype=np.int8)
    d_new = np.zeros(t1 - t0, dtype=np.int8)
    for a in range(n - 1):
        # gap[c - a - 1] = pos[a] + 1 - pos[c]: 2 when c is just in front of
        # a, 0 when just behind it, never either otherwise
        gap = pos[a] + np.int8(1) - pos[a + 1 :]
        d_prev += (gap == 2).view(np.int8).sum(axis=0, dtype=np.int8)
        # a descent after the step: c in front with the larger new label
        # (gap 2, a lower) or a in front with it (gap 0, a not lower)
        ones = (w[a] <= w[a + 1 :]).view(np.int8)
        d_new += (gap == ones + ones).view(np.int8).sum(axis=0, dtype=np.int8)
    codes = d_prev.astype(np.int16)  # n^2 - 1 < 2^15 for n < 128
    codes *= n
    codes += d_new
    return np.bincount(codes, minlength=n * n).reshape(n, n)


def _sort_chunk(n: int, b: int, seed: int, t0: int, t1: int) -> np.ndarray:
    """The (n, n) tally of the descent transitions of trials [t0, t1), by
    building the decks.

    decks[p] is the card at position p, held position-major, (n, trials),
    so every compare runs along rows.  With g_p = w_{sigma_p}, the new deck
    has a descent at p exactly when g_p > g_{p+1}, or g_p = g_{p+1} and
    sigma_p > sigma_{p+1}.
    """
    decks = np.argsort(stream_block(seed, t0, t1, 0, n).T, axis=0, kind="stable")
    digits = digit_block(seed, t0, t1, n, 2 * n, b, np.min_scalar_type(b - 1)).T  # only their order counts
    g = np.take_along_axis(digits, decks, axis=0)
    falls = decks[:-1] > decks[1:]  # the descents of the deck
    d_prev = falls.sum(axis=0)
    ties = g[:-1] == g[1:]
    ties &= falls
    falls = g[:-1] > g[1:]
    falls |= ties  # now the descents of the new deck
    return np.bincount(d_prev * n + falls.sum(axis=0), minlength=n * n).reshape(n, n)


def _scan_dtype(n: int, b: int) -> type:
    """The narrowest signed type that holds every value of the carry scan:
    codes up to n^2 - 1, and carry plus column sum up to (n - 1) + n (b - 1)."""
    top = max(n * n - 1, (n - 1) + n * (b - 1))
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


def _column_sums(block: np.ndarray, n: int) -> np.ndarray:
    """Sums of the ``n`` digits of each column: (trials, columns * n) digits
    give draw-major (columns, trials) sums, by n - 1 row adds in the digits'
    type, the scan's."""
    parts = block.T.reshape(-1, n, len(block))
    sums = np.add(parts[:, 0], parts[:, 1])
    for m in range(2, n):
        sums += parts[:, m]
    return sums


def _segment_starts(segments: np.ndarray, carry: np.ndarray, b: int, n: int) -> np.ndarray:
    """True start carry of every segment, (trials, segments), from the
    start carries ``carry`` of the first ones.  One pass runs every segment
    but the last from all n start carries at once and gives its carry map;
    pointer doubling then composes the maps, so that map s runs segments
    0..s, and segment s + 1 starts where map s takes ``carry``."""
    _, trials, count = segments.shape
    maps = np.empty((n, trials, count - 1), dtype=segments.dtype)
    maps[...] = np.arange(n)[:, None, None]
    for column in segments[:, :, :-1]:
        maps += column
        maps //= b
    rows, segment = np.arange(trials)[:, None], np.arange(count - 1)
    span = 1  # each map runs the span segments that end at it, or all before it
    while span < count - 1:
        maps[:, :, span:] = maps[maps[:, :, :-span], rows, segment[span:]]
        span *= 2
    starts = np.empty((trials, count), dtype=segments.dtype)
    starts[:, 0] = carry
    starts[:, 1:] = maps[carry[:, None], rows, segment]
    return starts


def _carry_scan(sums: np.ndarray, carry: np.ndarray, b: int, counts: np.ndarray) -> np.ndarray:
    """Run the carries over draw-major (columns, trials) column sums on
    from the start carries ``carry``, add every transition to the (n, n)
    ``counts`` and return the end carries.

    The columns are cut into segments of ``_SEGMENT_COLUMNS`` and a shorter
    tail, both laid out (columns, trials, segments) so that one step of
    every segment reads one contiguous row.  The tail, a single segment, is
    the sums' last rows as they stand; only the body is copied into that
    layout.  ``_segment_starts`` finds where each segment starts; a second
    pass then runs all segments at once and tallies the transitions.
    """
    n = len(counts)
    b, width = sums.dtype.type(b), sums.dtype.type(n)  # no per-call conversion of Python ints
    columns, trials = sums.shape
    count, length = divmod(columns, _SEGMENT_COLUMNS)
    body = sums[: columns - length].reshape(count, _SEGMENT_COLUMNS, trials).transpose(1, 2, 0)
    tail = sums[columns - length :, :, None]
    for segments in (np.ascontiguousarray(body), tail):
        if segments.size == 0:
            continue
        state = _segment_starts(segments, carry, b, n) if segments.shape[2] > 1 else carry[:, None].copy()
        codes = np.empty_like(segments)
        for column, code in zip(segments, codes):
            np.multiply(state, width, out=code)
            state += column
            state //= b
            code += state
        counts += np.bincount(codes.ravel(), minlength=n * n).reshape(n, n)
        carry = state[:, -1]
    return carry


def simulate_carries(n_summands: int, b: int, digits: int, cfg: SimulationConfig, trial_offset: int = 0) -> EmpiricalMatrix:
    """Empirical carry transition matrix of adding ``n_summands`` random
    base-b numbers of ``digits`` columns each, ``cfg.trials`` times.

    Carry states are 0..n_summands-1 (a carry can never reach n_summands).
    Trial t consumes draw c*n_summands + m for column c, summand m; each
    trial starts at carry 0.  ``digits`` is the chain length.  Carry plus
    column sum, at most (n_summands - 1) + n_summands (b - 1), must fit in
    int64; the scan runs in the narrowest signed type that holds it and the
    transition codes up to n_summands^2 - 1 (``_scan_dtype``).  The digits
    come in chunks of at most ``_CHUNK_VALUES`` values, whose column sums
    ``_run_rounds`` builds a round at a time; the caller runs the segmented
    scan (``_carry_scan``) over them.  A chunk holds whole trials, and is
    scanned on its own, unless one trial's columns fill more than a chunk.
    Then the trials run one by one, each in pieces of its columns, and the
    pieces of a round are scanned in one call that carries the carry on from
    the round before.  Trials lie in 0..2^64 - 1.
    """
    if n_summands < 2:
        raise ValueError(f"need at least 2 summands, got {n_summands}")
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if (n_summands - 1) + n_summands * (b - 1) >= 2**63:
        raise ValueError(f"carry plus column sum must stay below 2^63, got n_summands={n_summands}, b={b}")
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    check_trials(trial_offset, trial_offset + cfg.trials)
    _check_size(n_summands, cfg.trials * digits * n_summands)
    n, end = n_summands, trial_offset + cfg.trials
    counts = np.zeros((n, n), dtype=np.int64)
    dtype = _scan_dtype(n, b)
    chunk = max(1, _CHUNK_VALUES // (digits * n))  # trials per chunk
    step = max(1, _CHUNK_VALUES // (n * chunk))  # columns per piece of a trial

    def column_sums(t0: int, t1: int, c0: int, c1: int) -> np.ndarray:
        return _column_sums(digit_block(cfg.seed, t0, t1, c0 * n, c1 * n, b, dtype), n)

    def scan_each(_, round_sums: list) -> None:
        for sums in round_sums:
            _carry_scan(sums, np.zeros(sums.shape[1], dtype=dtype), b, counts)

    def scan_on(carry: np.ndarray, round_sums: list) -> np.ndarray:
        return _carry_scan(np.concatenate(round_sums), carry, b, counts)

    if step >= digits:  # chunks of whole trials
        jobs = [(t0, min(t0 + chunk, end), 0, digits) for t0 in range(trial_offset, end, chunk)]
        _run_rounds(column_sums, jobs, scan_each, None)
    else:  # one trial at a time, in pieces of its columns
        for t in range(trial_offset, end):
            jobs = [(t, t + 1, c0, min(c0 + step, digits)) for c0 in range(0, digits, step)]
            _run_rounds(column_sums, jobs, scan_on, np.zeros(1, dtype=dtype))
    return EmpiricalMatrix(tuple(tuple(int(c) for c in row) for row in counts))
