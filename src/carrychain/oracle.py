"""Brute-force ground truth in the group algebra of small symmetric groups.

This module deliberately avoids the closed formulas it is used to check:
every one of the b^n shuffle digit words is enumerated, every pair of terms
of a product is composed, and the descent transition is tallied for every
permutation, not per class.  It imports nothing from ``matrix``: every
comparison of an enumerated result with a closed form is made in ``cli``
(the ``oracle`` commands and the rows of ``verify all``).

The work runs in rank space.  A permutation of S_n is its lexicographic
rank, the number whose factorial-base digits are its Lehmer code, and a
set of permutations is held column by column, ``positions[:, k]`` the
images of permutation k less one.  A group-algebra element is one vector
of integer numerators over the ranks and one denominator, kept in lowest
terms; a shuffle multiset is the ascending ranks of its outcomes, with
their positions and multiplicities.

One lazily built table per n indexes the products without shortcutting
them: S_n in lexicographic order in that column layout, with descent counts,
the rank of each inverse, the composition table, whose every pair is
composed and ranked through a lookup from the mixed-radix key of a
permutation's images to its rank, and the length filters, which count for
each permutation the complete words S^I of each length that hold it,
summed over every composition's descent-set filter.
The kernels work on whole table rows: a product reads its right factor
along the row of p^{-1} for each term p of its left factor, so every pair
of terms is still composed, in int64 under an up-front bound on the sums
and in exact Python ints above it; an S-word expansion, whose coefficients
go by word length, is one product of its numerators with the length
filters; each block of shuffle words is compared pair of positions by pair
of positions; and the transition oracle tallies every (sigma, outcome)
pair in one pass over the table, into integer rows of word counts over
b^n, the layout of the closed-form matrix.

Bounds keep everything at desk scale, each refused with ``BudgetError``
before any work:
group-algebra elements, and every product, expansion and inversion of
them, stop at n <= ``GROUP_ALGEBRA_MAX_N`` = 6, the reach of the table.
Exhaustive shuffle enumeration stays within ``ENUMERATION_BUDGET`` = 10^7
words, drawn in blocks of bounded size, and ``OUTCOME_BUDGET`` = 2^17
distinct outcomes, bounded up front by min(b^n, n!); a shuffle multiset
stops at n <= ``RANK_MAX_N`` = 20, the largest n whose ranks fit in int64
(past the other two budgets only b = 1 reaches that far).

Orientation conventions:

- A digit word w in {0..b-1}^n sorts deck positions stably by digit; the
  resulting sort permutation tau_w has at most b-1 descents, and the shuffle
  outcome is its inverse sigma_w = tau_w^{-1} (so outcomes are exactly the
  inverses of permutations with at most b-1 descents, and the multiplicity
  of an outcome depends on the descent class of its inverse).
- A chain step sends the deck sigma to sigma_w * sigma (composition of
  functions, outcome applied last).  ``oracle_transition_matrix`` checks
  that the descent counts of the deck form a lumpable chain, and ``cli``
  checks that its matrix is the closed formula's.  Neither pins the
  orientation: the step sigma * sigma_w gives the same lumped matrix, so
  the order here is a convention.  The Monte-Carlo twin in ``simulate``
  uses the same one, and its per-trial reference tests pin it there.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm
from numbers import Integral
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .combinat import (
    GROUP_ALGEBRA_MAX_N,
    BudgetError,
    LumpingViolation,
    TransitionMismatch,  # re-exported: the failure that ``cli`` raises for this oracle
    _label,
    binomial,
    compositions,
)
from .eulerian import SWordExpansion, idempotent_s_expansion

ENUMERATION_BUDGET = 10**7
# distinct outcomes held at once, at most min(b^n, n!).  The largest
# enumeration admitted, n = 17 and b = 2 (131,055 outcomes), takes 0.13 s
# and peaks at 41 MiB RSS in enumerate_b_shuffles, and 1.0 s and 113 MiB in
# `oracle shuffles`, on a 2-vCPU x86-64 host with Python 3.11.
OUTCOME_BUDGET = 2**17
RANK_MAX_N = 20  # 20! < 2^63 < 21!: the ranks of S_n fit in int64 up to here

_BLOCK_VALUES = 1 << 15  # cap the values held by one block of a numpy kernel


class _SnTable(NamedTuple):
    """S_n in lexicographic order: column t, and entry t of each vector, is
    the permutation of rank t."""

    positions: np.ndarray  # (n, n!) int8, images less one
    descents: np.ndarray  # (n!,) descent counts
    inverse: np.ndarray  # (n!,) the rank of each permutation's inverse
    compose: np.ndarray  # [i, j] = rank of permutation i after permutation j
    lengths: np.ndarray  # [l, t] = words S^I of length l that hold permutation t, l in 0..n


def _key(columns, n: int, shape) -> np.ndarray:
    """The mixed-radix key sum_s c_s n^(n-1-s) of the 0-based image columns
    c_0, ..., c_{n-1}, accumulated column by column in int32 (n^n fits for
    n <= 6).  Keys order permutations lexicographically."""
    key = np.zeros(shape, dtype=np.int32)
    for column in columns:
        key *= n
        key += column
    return key


def _check_degree(n: int, work: str) -> None:
    """Refuse group-algebra work past the table's reach, before any is done."""
    if n > GROUP_ALGEBRA_MAX_N:
        raise BudgetError(f"{work} limited to n <= {GROUP_ALGEBRA_MAX_N}, got {n}")


@lru_cache(maxsize=None)
def _table(n: int) -> _SnTable:
    _check_degree(n, "S_n tables are")
    size = factorial(n)
    positions = _unrank(np.arange(size), n)
    falls = positions[:-1] > positions[1:]
    masks = (falls.astype(np.int64) << np.arange(n - 1)[:, None]).sum(axis=0)  # position i as bit i-1
    lookup = np.full(n**n, -1, dtype=np.int16)
    lookup[_key(positions, n, size)] = np.arange(size)
    # a block of permutations p_i composes each with every q_j at once:
    # column s of its keys gathers p_i(q_j(s)) - 1 from the rows p_i - 1
    compose = np.empty((size, size), dtype=np.int16)
    rows = max(1, _BLOCK_VALUES // size)
    for start in range(0, size, rows):
        block = positions[:, start : start + rows].T
        columns = (block[:, column] for column in positions)
        compose[start : start + rows] = lookup[_key(columns, n, (len(block), size))]
    inverse = compose.argmin(axis=1)  # p_i q = identity, rank 0
    # S^I holds every permutation whose descent set lies in the cut set of I:
    # each composition's descent-set filter, summed by the length of I
    lengths = np.zeros((n + 1, size), dtype=np.int64)  # only the empty word of S_0 has length 0
    for parts in compositions(n):
        cuts = sum(1 << (i - 1) for i in accumulate(parts[:-1]))
        lengths[len(parts)] += (masks & ~cuts) == 0
    return _SnTable(positions, falls.sum(axis=0), inverse, compose, lengths)


def _unrank(ranks: np.ndarray, n: int) -> np.ndarray:
    """The permutations of S_n with the given lexicographic ranks, one
    column per rank of images less one, as (n, len(ranks)) int8: the rank's
    factorial-base digits are the permutation's Lehmer code."""
    positions = np.empty((n, len(ranks)), dtype=np.int8)
    rest = np.asarray(ranks, dtype=np.int64)
    for p in range(n - 1, -1, -1):  # Lehmer digits, least significant first
        rest, positions[p] = np.divmod(rest, n - p)
    for p in range(n - 2, -1, -1):  # digit p counts the later values below it
        later = positions[p + 1 :]
        later += later >= positions[p]
    return positions


def _dtype(bound: int):
    """int64 for integers whose sums stay below ``bound`` < 2^63, exact
    Python ints (dtype object) otherwise."""
    return np.int64 if bound < 2**63 else object


def _top(values: np.ndarray) -> int:
    """The largest absolute value among ``values``, 0 if there are none,
    taken from their least and greatest as Python ints: the absolute value
    of -2^63 does not fit in int64."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)))


def _zeros(n: int) -> np.ndarray:
    """The n! zero numerators of an element of the group algebra of S_n,
    refused past the table's reach before any is allocated."""
    _check_degree(n, "group-algebra elements are")
    return np.zeros(factorial(n), dtype=np.int64)


class GroupAlgebraElement:
    """An exact rational linear combination of permutations of one S_n.

    ``numerators[t] / denominator`` is the coefficient of the permutation of
    rank t.  The constructor takes the n! integer numerators, as an array or
    a sequence, and a denominator >= 1, and holds a read-only copy in lowest
    terms: the denominator is positive and shares no factor with every
    numerator, so equal elements hold equal data; the numerators are int64
    unless one of them does not fit, and exact Python ints (dtype object)
    then."""

    __slots__ = ("n", "numerators", "denominator")

    def __init__(self, n: int, numerators, denominator: int = 1) -> None:
        _check_degree(n, "group-algebra elements are")
        # a copy, so the caller's array stays writable; a sequence is read as exact Python ints
        numer = np.array(numerators, dtype=None if isinstance(numerators, np.ndarray) else object)
        if numer.dtype.kind in "iu":
            numer = numer.astype(np.int64 if np.can_cast(numer.dtype, np.int64) else object, copy=False)
        elif numer.dtype != object or not all(isinstance(c, Integral) for c in numer.flat):
            raise ValueError(f"numerators must be integers, got dtype {numer.dtype}")
        if numer.shape != (factorial(n),):
            raise ValueError(f"need {factorial(n)} numerators for S_{n}, got shape {numer.shape}")
        if not isinstance(denominator, Integral) or denominator < 1:
            raise ValueError(f"denominator must be an integer >= 1, got {denominator!r}")
        denom = int(denominator)
        common = gcd(int(np.gcd.reduce(numer)), denom)
        if common > 1:  # 2^63, from int64 numerators that are all -2^63 or 0, divides in exact ints
            numer, denom = (numer.astype(object) if common >= 2**63 else numer) // common, denom // common
        if numer.dtype == object and _top(numer) < 2**63:
            numer = numer.astype(np.int64)
        numer.flags.writeable = False
        self.n, self.numerators, self.denominator = n, numer, denom

    def support(self) -> tuple[list[list[int]], list[int]]:
        """The one-line images of the permutations with a nonzero
        coefficient, in lexicographic order, and their numerators."""
        hit = np.flatnonzero(self.numerators)
        return (_unrank(hit, self.n).T + 1).tolist(), self.numerators[hit].tolist()

    @property
    def terms(self) -> Mapping[str, Fraction]:
        """The nonzero coefficients by the label of their permutation
        (``"1,3,2"``), in lexicographic order: a read-only view, built when
        read."""
        images, numers = self.support()
        coeff = {c: Fraction(c, self.denominator) for c in set(numers)}
        return MappingProxyType({_label(im): coeff[c] for im, c in zip(images, numers)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (self.n, self.denominator) == (other.n, other.denominator) and np.array_equal(
            self.numerators, other.numerators
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({self.n}, {self.numerators.tolist()!r}, {self.denominator})"

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")
        denom = lcm(self.denominator, other.denominator)
        a, b = denom // self.denominator, denom // other.denominator
        dtype = _dtype(max(a, b) * (1 + _top(self.numerators) + _top(other.numerators)))
        numer = self.numerators.astype(dtype) * a + other.numerators.astype(dtype) * b
        return GroupAlgebraElement(self.n, numer, denom)

    def invert_support(self) -> "GroupAlgebraElement":
        """Apply the inversion anti-automorphism sigma -> sigma^{-1}."""
        return GroupAlgebraElement(self.n, self.numerators[_table(self.n).inverse], self.denominator)

    def is_zero(self) -> bool:
        return not self.numerators.any()


def group_identity(n: int) -> GroupAlgebraElement:
    numer = _zeros(n)
    numer[0] = 1  # the identity has rank 0
    return GroupAlgebraElement(n, numer)


def group_product(u: GroupAlgebraElement, v: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear extension of permutation composition (u's permutations are
    applied last), on the numerators; the denominators multiply."""
    if u.n != v.n:
        raise ValueError(f"degree mismatch: {u.n} != {v.n}")
    n = u.n
    _check_degree(n, "group products are")
    # The numerators b_j of v sit on the ranks q_j.  p_i q_j = p_t exactly
    # when q_j = p_i^{-1} p_t, and row p_i^{-1} of the table names that j for
    # every t, so it gathers from v the coefficient that each pair with p_i
    # puts on p_t.  A block of terms a_i p_i of u adds its gathered rows
    # weighted by a_i, as one matrix product.  Every partial sum is at most
    # max|a| * max|b| * (terms of u) in size.
    if u.is_zero() or v.is_zero():
        return GroupAlgebraElement(n, np.zeros(len(u.numerators), dtype=np.int64))
    table = _table(n)
    left = np.flatnonzero(u.numerators)
    dtype = _dtype(_top(u.numerators) * _top(v.numerators) * len(left))
    a, b = u.numerators[left].astype(dtype), v.numerators.astype(dtype)
    acc = np.zeros(len(b), dtype=dtype)
    rows = max(1, _BLOCK_VALUES // len(b))
    for start in range(0, len(left), rows):
        acc += a[start : start + rows] @ b.take(table.compose[table.inverse[left[start : start + rows]]])
    return GroupAlgebraElement(n, acc, u.denominator * v.denominator)


def expansion_to_group(expansion: SWordExpansion) -> GroupAlgebraElement:
    """An S-word expansion as a sum of permutations.  The complete word S^I
    is the sum, coefficient 1, of every permutation whose descent set lies
    in the cut set of I, so the words of one length add up to that length's
    filter of the S_n table: one product of the n numerators with the n
    filters."""
    n = expansion.n
    _check_degree(n, "S-word expansions are")
    numer = expansion.numerators
    # a permutation lies in at most C(n - 1, l - 1) words of length l, 2^(n-1) in all
    dtype = _dtype(max(map(abs, numer)) << (n - 1))
    filters = _table(n).lengths[1:].astype(dtype)
    return GroupAlgebraElement(n, np.array(numer, dtype=dtype) @ filters, expansion.denominator)


def idempotent_group(n: int, k: int) -> GroupAlgebraElement:
    """The k-th Eulerian idempotent realized inside the group algebra."""
    _check_degree(n, "group-algebra idempotents are")
    return expansion_to_group(idempotent_s_expansion(n, k))


class ShuffleMultiset:
    """All b^n digit words of a b-shuffle, collected by outcome permutation.

    ``ranks`` holds the lexicographic ranks of the distinct outcomes,
    strictly ascending; ``positions[:, k]`` the images of outcome k less
    one; and ``counts[k]`` its multiplicity, all read-only copies.  The
    multiplicities must account for every word, and every outcome must be
    the inverse of a permutation with at most b - 1 descents."""

    __slots__ = ("n", "b", "ranks", "positions", "counts")

    def __init__(self, n: int, b: int, ranks, counts) -> None:
        if n > RANK_MAX_N:
            raise BudgetError(f"shuffle multisets are limited to n <= {RANK_MAX_N}, got {n}")
        ranks, counts = np.asarray(ranks), np.asarray(counts)
        if ranks.ndim != 1 or ranks.shape != counts.shape:
            raise ValueError(f"need one count per rank, got shapes {ranks.shape} and {counts.shape}")
        if ranks.dtype.kind not in "iu" or not (
            len(ranks) == 0 or 0 <= ranks[0] and ranks[-1] < factorial(n) and (ranks[1:] > ranks[:-1]).all()
        ):
            raise ValueError(f"ranks must be integers ascending strictly inside 0..{factorial(n) - 1}")
        if counts.dtype.kind not in "iu" or (counts < 1).any():
            raise ValueError("multiplicities must be positive integers")
        top = int(counts.max(initial=0))
        if top >= 2**63:
            raise ValueError(f"multiplicities must fit in int64, got {top}")
        if int(counts.astype(_dtype(top * len(counts))).sum()) != b**n:
            raise ValueError(f"multiplicities must account for all {b}^{n} words")
        positions = _unrank(ranks, n)
        # sigma^{-1} has a descent at i when the value i + 1 comes before i in sigma
        inverse = np.empty_like(positions)
        np.put_along_axis(inverse, positions, np.arange(n)[:, None], axis=0)
        if ((inverse[:-1] > inverse[1:]).sum(axis=0) > b - 1).any():
            raise ValueError("support must lie in the inverses of low-descent permutations")
        ranks, counts = ranks.astype(np.int64), counts.astype(np.int64)  # copies: the caller's stay writable
        for array in (ranks, positions, counts):
            array.flags.writeable = False
        self.n, self.b, self.ranks, self.positions, self.counts = n, b, ranks, positions, counts

    def __repr__(self) -> str:
        return f"ShuffleMultiset({self.n}, {self.b}, {self.ranks.tolist()!r}, {self.counts.tolist()!r})"

    def total(self) -> int:
        return int(self.counts.sum())

    def to_group_algebra(self) -> GroupAlgebraElement:
        numer = _zeros(self.n)
        numer[self.ranks] = self.counts
        return GroupAlgebraElement(self.n, numer)


def _outcome_blocks(n: int, b: int):
    """The outcomes of all b^n words, block by block, as ``_outcome_block``
    gives them.  ``BudgetError`` refuses more than
    ``ENUMERATION_BUDGET`` words, more than ``OUTCOME_BUDGET`` possible
    distinct outcomes, min(b^n, n!), or n past ``RANK_MAX_N``, before any
    work is done."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    if b ** min(n, 64) > ENUMERATION_BUDGET:  # any b >= 2 is over by n = 24; no huge b^n is built
        raise BudgetError(f"enumeration budget exceeded: {b}^{n} > {ENUMERATION_BUDGET}")
    if b**n > OUTCOME_BUDGET and factorial(n) > OUTCOME_BUDGET:
        raise BudgetError(f"outcome budget exceeded: min({b}^{n}, {n}!) > {OUTCOME_BUDGET}")
    if n > RANK_MAX_N:  # only b = 1 gets past the two budgets above
        raise BudgetError(f"rank budget exceeded: the ranks of S_{n} overflow int64 past n = {RANK_MAX_N}")
    # word k of itertools.product(range(b), repeat=n) holds k // b^(n-1-s) % b at position s
    place = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK_VALUES // n)
    return (
        _outcome_block(np.arange(start, min(start + step, b**n), dtype=np.int64) // place[:, None] % b)
        for start in range(0, b**n, step)
    )


def _tally(held: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ranks among pairs of (ranks, counts), ascending, with
    their summed counts."""
    ranks, where = np.unique(np.concatenate([r for r, _ in held]), return_inverse=True)
    counts = np.zeros(len(ranks), dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in held]))
    return ranks, counts


def enumerate_b_shuffles(n: int, b: int) -> ShuffleMultiset:
    """Exhaust all b^n digit words.  Each word w stably sorts the positions
    1..n by digit, giving the sort permutation tau_w; the recorded outcome is
    sigma_w = tau_w^{-1}.  The support is exactly the set of permutations
    whose inverse has at most b-1 descents.  The budgets of
    ``_outcome_blocks`` are checked before any work is done."""
    held, size = [], 0
    for ranks, _ in _outcome_blocks(n, b):
        held.append(np.unique(ranks, return_counts=True))
        size += len(held[-1][0])
        if size > OUTCOME_BUDGET:  # fold: at most OUTCOME_BUDGET distinct outcomes stay held
            held = [_tally(held)]
            size = len(held[0][0])
    return ShuffleMultiset(n, b, *_tally(held))


def _outcome_block(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of a block of words, held draw-major: ``digits[s]`` is the
    digit at position s of every word.  Each pair of positions p < q is
    compared once; p sorts before q when its digit is no larger.  So the
    Lehmer code of sigma_w at p counts the later positions that sort before
    p, sigma_w(p) - 1 adds the earlier ones that sort before p, and the
    lexicographic rank of sigma_w is the Lehmer code read in the factorial
    base, below n! < 2^63 for n <= ``RANK_MAX_N``.  Returns the (words,)
    int64 ranks and the (n, words) int8 positions sigma_w - 1."""
    n, words = digits.shape
    lehmer = np.zeros((n, words), dtype=np.int8)
    earlier = np.zeros((n, words), dtype=np.int8)
    for p in range(n - 1):
        before = digits[p] <= digits[p + 1 :]
        lehmer[p] = n - 1 - p - before.sum(axis=0)
        earlier[p + 1 :] += before
    rank = np.zeros(words, dtype=np.int64)
    for p in range(n):
        rank *= n - p
        rank += lehmer[p]
    earlier += lehmer
    return rank, earlier


def oracle_transition_matrix(n: int, b: int) -> tuple[tuple[int, ...], ...]:
    """The descent-count transition matrix by exhaustive enumeration, as
    word counts: entry (i, j) counts the b^n words that take a deck with
    i - 1 descents to one with j - 1, so every row sums to b^n, the layout
    of ``AmazingMatrix.entries``.

    For every permutation sigma (not just one class representative) the full
    outcome distribution of d(sigma_w * sigma) is tallied; all members of a
    descent class must produce the identical row (lumping), or
    ``LumpingViolation`` is raised.  The rows are returned as enumerated,
    compared with nothing."""
    _check_degree(n, "transition oracle is")
    shuffles = enumerate_b_shuffles(n, b)
    table = _table(n)
    size = len(table.descents)
    # tally[sigma, d] sums the counts of the outcomes w with d(w * sigma) = d
    tally = np.zeros((size, n), dtype=np.int64)
    every, rows = np.arange(size), max(1, _BLOCK_VALUES // size)
    for start in range(0, len(shuffles.ranks), rows):
        block = slice(start, start + rows)
        landed = table.descents[table.compose[shuffles.ranks[block]]]
        np.add.at(tally, (every, landed), shuffles.counts[block, None])
    _, first = np.unique(table.descents, return_index=True)  # each class's first member
    rows = tally[first]
    (stray,) = np.nonzero((tally != rows[table.descents]).any(axis=1))
    if len(stray):
        sigma = stray[0]
        raise LumpingViolation(n, b, int(table.descents[sigma]) + 1, (table.positions[:, sigma] + 1).tolist())
    return tuple(map(tuple, rows.tolist()))


def oracle_descent_polynomial(n: int, m: int) -> tuple[int, ...]:
    """Histogram of descent counts over all m^n shuffle words: entry d counts
    the words whose outcome has d descents.  The enumeration-side twin of the
    coefficients of the closed-formula polynomial, tallied block by block
    under the budgets of ``enumerate_b_shuffles``."""
    blocks = _outcome_blocks(n, m)
    coeffs = np.zeros(n, dtype=np.int64)
    for _, positions in blocks:
        coeffs += np.bincount((positions[:-1] > positions[1:]).sum(axis=0), minlength=n)
    return tuple(coeffs.tolist())


def shuffle_element_from_basis(n: int, b: int) -> GroupAlgebraElement:
    """The b-shuffle element assembled from the commutative-basis identity
    S[b] = sum over compositions I of C(b, len(I)) S^I, the coefficient 0
    past b parts, pushed through the S-word realization.  Used to
    cross-check the enumerated multiset (which carries the same coefficients
    on inverse supports) and the product rule S[p] S[q] = S[pq].  ``b = 0``
    gives the zero element.  A negative b is refused: ``binomial`` reads
    C(b, l) as 0 there, which is not the polynomial value
    (C(-2, l) = (-1)^l (l + 1))."""
    _check_degree(n, "S-word realization")
    if b < 0:
        raise ValueError(f"shuffle parameter must be nonnegative, got {b}")
    return expansion_to_group(SWordExpansion(n, [binomial(b, l) for l in range(1, n + 1)]))
