"""Brute-force ground truth in the group algebra of small symmetric groups.

This module deliberately avoids the closed formulas it is used to check:
every one of the b^n shuffle digit words is enumerated, every pair of terms
of a product is composed, and the descent transition is tallied for every
permutation, not per class.  It imports nothing from ``matrix``: every
comparison of an enumerated result with a closed form is made in ``cli``
(the ``oracle`` commands and the rows of ``verify all``).  One lazily built
table per n indexes that work without shortcutting it: S_n in lexicographic
order as a small-int array, with descent counts, descent-set bitmasks, a
lookup from the mixed-radix key of a permutation's images to its rank and
the composition table, whose every pair is composed and ranked through that
lookup.  The kernels work on whole table rows: a product reads
its right factor, as one dense vector, along the row of p^{-1} for each term
p of its left factor, so every pair of terms is still composed, in int64
under an up-front bound on the sums and in exact Python ints above it; an
S-word expansion adds each coefficient over a descent-set mask; and each
block of shuffle words is compared pair of positions by pair of positions.
Bounds keep everything at desk scale: group-algebra work stops at
n <= ``GROUP_ALGEBRA_MAX_N`` = 6, the reach of the table, and is refused
above it before any work; exhaustive shuffle enumeration stays within a
10^7-word budget, drawn in blocks of bounded size, and at most 2^17
distinct outcomes, bounded up front by min(b^n, n!).

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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

import numpy as np

from .combinat import (
    GROUP_ALGEBRA_MAX_N,
    BudgetError,
    Composition,
    LumpingViolation,
    Permutation,
    TransitionMismatch,  # re-exported: the failure that ``cli`` raises for this oracle
    binomial,
    compositions,
)
from .eulerian import SWordExpansion, idempotent_s_expansion

ENUMERATION_BUDGET = 10**7
# distinct outcomes kept as Permutation objects: at most min(b^n, n!).  The
# largest case admitted, n = 17 and b = 2 (131,055 outcomes), peaks at
# 78 MiB RSS in enumerate_b_shuffles and 129 MiB in `oracle shuffles`.
OUTCOME_BUDGET = 2**17

_BLOCK_VALUES = 1 << 15  # cap the values held by one block of a numpy kernel


class OracleBoundError(BudgetError):
    """Requested size exceeds the brute-force budget."""


class _SnTable(NamedTuple):
    """S_n in lexicographic order (the order of ``itertools.permutations``)."""

    images: np.ndarray  # (n!, n) int8, one-line notation, 1-based
    descents: np.ndarray  # (n!,) descent counts
    masks: np.ndarray  # (n!,) descent sets, position i as bit i-1
    lookup: np.ndarray  # (n^n,) int16, ``_key`` of a permutation -> its rank
    compose: np.ndarray  # [i, j] = rank of images[i] after images[j]
    perms: tuple[Permutation, ...]  # the rows as Permutation objects, built once


def _images(perms, n: int) -> np.ndarray:
    """The one-line images of ``perms`` as one (len(perms), n) array."""
    images = [p.images for p in perms]
    return np.array(images, dtype=np.int64).reshape(len(images), n)


def _descent_counts(images: np.ndarray) -> np.ndarray:
    """The descent count of each row of a one-line image array."""
    return (images[:, :-1] > images[:, 1:]).sum(axis=1)


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
        raise OracleBoundError(f"{work} limited to n <= {GROUP_ALGEBRA_MAX_N}, got {n}")


@lru_cache(maxsize=None)
def _table(n: int) -> _SnTable:
    _check_degree(n, "S_n tables are")
    perms = list(itertools.permutations(range(1, n + 1)))
    images = np.array(perms, dtype=np.int8).reshape(len(perms), n)
    falls = images[:, :-1] > images[:, 1:]
    masks = (falls.astype(np.int64) << np.arange(n - 1)).sum(axis=1)
    zero_based = images - 1
    lookup = np.full(n**n, -1, dtype=np.int16)
    lookup[_key(zero_based.T, n, len(perms))] = np.arange(len(perms))
    # a block of rows i composes p_i with every q_j at once: column s of its
    # keys gathers p_i(q_j(s)) - 1 from the rows
    compose = np.empty((len(perms), len(perms)), dtype=np.int16)
    rows = max(1, _BLOCK_VALUES // len(perms))
    for start in range(0, len(perms), rows):
        block = zero_based[start : start + rows]
        columns = (block[:, column] for column in zero_based.T)
        compose[start : start + rows] = lookup[_key(columns, n, (len(block), len(perms)))]
    return _SnTable(images, falls.sum(axis=1), masks, lookup, compose, tuple(map(Permutation, perms)))


def _ranks(table: _SnTable, perms) -> np.ndarray:
    """The ranks of ``perms`` in ``table``, read from its lookup."""
    n = table.images.shape[1]
    zero_based = _images(perms, n) - 1
    return table.lookup[_key(zero_based.T, n, len(zero_based))]


def _element(n: int, acc: np.ndarray, denom: int = 1) -> "GroupAlgebraElement":
    """The element with coefficient acc[t] / denom on the t-th permutation of
    S_n (lexicographic order)."""
    perms = _table(n).perms
    hit = np.flatnonzero(acc)
    return GroupAlgebraElement(n, {perms[t]: Fraction(c, denom) for t, c in zip(hit.tolist(), acc[hit].tolist())})


def _accumulator(size: int, bound: int) -> np.ndarray:
    """Zeros to sum integers into: int64 when every partial sum stays below
    ``bound`` < 2^63, exact Python ints (dtype object) otherwise."""
    return np.zeros(size, dtype=np.int64 if bound < 2**63 else object)


def _descent_filter(comp: Composition) -> np.ndarray:
    """Which rows of ``_table(comp.weight)`` have their descent set in the
    cut set of ``comp``."""
    cut = sum(1 << (i - 1) for i in comp.descent_set())
    return (_table(comp.weight).masks & ~cut) == 0


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An exact rational linear combination of permutations of one S_n."""

    n: int
    terms: dict[Permutation, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for perm, coeff in self.terms.items():
            if perm.n != self.n:
                raise ValueError(f"term {perm} lives in S_{perm.n}, expected S_{self.n}")
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[perm] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")
        merged = dict(self.terms)
        for perm, coeff in other.terms.items():
            merged[perm] = merged.get(perm, Fraction(0)) + coeff
        return GroupAlgebraElement(self.n, merged)

    def invert_support(self) -> "GroupAlgebraElement":
        """Apply the inversion anti-automorphism sigma -> sigma^{-1}."""
        return GroupAlgebraElement(self.n, {perm.inverse(): coeff for perm, coeff in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


def group_identity(n: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(n, {Permutation.identity(n): Fraction(1)})


def _scaled_integers(terms: dict) -> tuple[int, list[tuple]]:
    """One common denominator, and the items with values scaled to integers over it."""
    denom = lcm(*(c.denominator for c in terms.values()))
    return denom, [(key, c.numerator * (denom // c.denominator)) for key, c in terms.items()]


def group_product(u: GroupAlgebraElement, v: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear extension of permutation composition (u's permutations are
    applied last).  Coefficients are cleared to a common denominator so the
    convolution runs on integers."""
    if u.n != v.n:
        raise ValueError(f"degree mismatch: {u.n} != {v.n}")
    n = u.n
    _check_degree(n, "group products are")
    if u.is_zero() or v.is_zero():
        return GroupAlgebraElement(n)
    du, u_items = _scaled_integers(u.terms)
    dv, v_items = _scaled_integers(v.terms)
    # The terms b q_j of v sit in one dense vector over S_n.  p_i q_j = p_t
    # exactly when q_j = p_i^{-1} p_t, and row p_i^{-1} of the table names that
    # j for every t, so it gathers from v the coefficient that each pair with
    # p_i puts on p_t.  A block of terms a p_i of u adds its gathered rows
    # weighted by a, as one matrix product.  Every partial sum is at most
    # max|a| * max|b| * len(u) in size.
    table = _table(n)
    size = len(table.images)
    bound = max(abs(a) for _, a in u_items) * max(abs(b) for _, b in v_items) * len(u_items)
    dense = _accumulator(size, bound)
    dense[_ranks(table, [q for q, _ in v_items])] = [b for _, b in v_items]
    ranks = _ranks(table, [p for p, _ in u_items])
    coeffs = np.array([a for _, a in u_items], dtype=dense.dtype)
    acc = _accumulator(size, bound)
    rows = max(1, _BLOCK_VALUES // size)
    for start in range(0, len(ranks), rows):
        inverses = table.compose[ranks[start : start + rows]].argmin(axis=1)  # p_i q = identity, rank 0
        acc += coeffs[start : start + rows] @ dense[table.compose[inverses]]
    return _element(n, acc, du * dv)


def expansion_to_group(expansion: SWordExpansion) -> GroupAlgebraElement:
    """An S-word expansion as a sum of permutations.  The complete word S^I
    is the sum, coefficient 1, of every permutation whose descent set lies
    in the cut set of I, so each coefficient is added over that descent-set
    filter of the S_n table."""
    n = expansion.n
    _check_degree(n, "S-word expansions are")
    denom, items = _scaled_integers(expansion.terms)
    # a permutation collects at most every coefficient once
    acc = _accumulator(len(_table(n).images), max((abs(c) for _, c in items), default=0) * len(items))
    for comp, coeff in items:
        acc[_descent_filter(comp)] += coeff
    return _element(n, acc, denom)


def idempotent_group(n: int, k: int) -> GroupAlgebraElement:
    """The k-th Eulerian idempotent realized inside the group algebra."""
    _check_degree(n, "group-algebra idempotents are")
    return expansion_to_group(idempotent_s_expansion(n, k))


@dataclass(frozen=True)
class ShuffleMultiset:
    """All b^n digit words of a b-shuffle, collected by outcome permutation."""

    n: int
    b: int
    multiplicity: dict[Permutation, int]

    def __post_init__(self) -> None:
        if sum(self.multiplicity.values()) != self.b**self.n:
            raise ValueError(f"multiplicities must account for all {self.b}^{self.n} words")
        # sigma^{-1} has a descent at i when the value i + 1 comes before i in sigma
        images = _images(self.multiplicity, self.n)
        inverse = np.empty_like(images)
        np.put_along_axis(inverse, images - 1, np.arange(self.n), axis=1)
        if (_descent_counts(inverse) > self.b - 1).any():
            raise ValueError("support must lie in the inverses of low-descent permutations")

    def total(self) -> int:
        return sum(self.multiplicity.values())

    def to_group_algebra(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.n, {p: Fraction(m) for p, m in self.multiplicity.items()})


def enumerate_b_shuffles(n: int, b: int) -> ShuffleMultiset:
    """Exhaust all b^n digit words.  Each word w stably sorts the positions
    1..n by digit, giving the sort permutation tau_w; the recorded outcome is
    sigma_w = tau_w^{-1}.  The support is exactly the set of permutations
    whose inverse has at most b-1 descents.  ``OracleBoundError`` refuses
    more than ``ENUMERATION_BUDGET`` words, or more than ``OUTCOME_BUDGET``
    possible distinct outcomes, min(b^n, n!), before any work is done."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    if b ** min(n, 64) > ENUMERATION_BUDGET:  # any b >= 2 is over by n = 24; no huge b^n is built
        raise OracleBoundError(f"enumeration budget exceeded: {b}^{n} > {ENUMERATION_BUDGET}")
    if b**n > OUTCOME_BUDGET and factorial(n) > OUTCOME_BUDGET:
        raise OracleBoundError(f"outcome budget exceeded: min({b}^{n}, {n}!) > {OUTCOME_BUDGET}")
    if b == 1:  # the one word 0...0, whose stable sort moves no card: n^2 compares would be waste
        return ShuffleMultiset(n, b, {Permutation.identity(n): 1})
    # word k of itertools.product(range(b), repeat=n) holds k // b^(n-1-s) % b at
    # position s; outcomes merge in the order the words first reach them
    place = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK_VALUES // n)
    counts: dict[tuple[int, ...], int] = {}
    for start in range(0, b**n, step):
        digits = np.arange(start, min(start + step, b**n), dtype=np.int64) // place[:, None] % b
        rank, positions = _outcome_block(digits)
        _, first, mult = np.unique(rank, return_index=True, return_counts=True)
        order = np.argsort(first)
        outcomes = positions[:, first[order]].T + 1
        for outcome, m in zip(map(tuple, outcomes.tolist()), mult[order].tolist()):
            counts[outcome] = counts.get(outcome, 0) + m
    return ShuffleMultiset(n, b, {Permutation(images): m for images, m in counts.items()})


def _outcome_block(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcomes of a block of words, held draw-major: ``digits[s]`` is the
    digit at position s of every word.  Each pair of positions p < q is
    compared once; p sorts before q when its digit is no larger.  So the
    Lehmer code of sigma_w at p counts the later positions that sort before
    p, sigma_w(p) - 1 adds the earlier ones that sort before p, and the
    lexicographic rank of sigma_w is the Lehmer code read in the factorial
    base, below n! < 2^63 since b >= 2 admits n <= 17.  Returns the (words,)
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


def oracle_transition_matrix(n: int, b: int) -> tuple[tuple[Fraction, ...], ...]:
    """The descent-count transition matrix by exhaustive enumeration.

    For every permutation sigma (not just one class representative) the full
    outcome distribution of d(sigma_w * sigma) is tallied; all members of a
    descent class must produce the identical row (lumping), or
    ``LumpingViolation`` is raised.  The rows are returned as enumerated,
    compared with nothing."""
    _check_degree(n, "transition oracle is")
    shuffles = enumerate_b_shuffles(n, b)
    table = _table(n)
    outcomes = _ranks(table, shuffles.multiplicity).tolist()
    # tally[sigma, d] sums the multiplicities of the outcomes w with d(w * sigma) = d
    tally = np.zeros((len(table.images), n), dtype=np.int64)
    every = np.arange(len(table.images))
    for w, mult in zip(outcomes, shuffles.multiplicity.values()):
        tally[every, table.descents[table.compose[w]]] += mult
    rows: list[list[int] | None] = [None] * n
    for sigma, (d, row) in enumerate(zip(table.descents.tolist(), tally.tolist())):
        if rows[d] is None:
            rows[d] = row
        elif rows[d] != row:
            raise LumpingViolation(n, b, d + 1, table.perms[sigma])
    return tuple(tuple(Fraction(c, b**n) for c in row) for row in rows if row is not None)


def oracle_descent_polynomial(n: int, m: int) -> tuple[int, ...]:
    """Histogram of descent counts over all m^n shuffle words: entry d counts
    the words whose outcome has d descents.  The enumeration-side twin of the
    coefficients of the closed-formula polynomial."""
    shuffles = enumerate_b_shuffles(n, m)
    coeffs = np.zeros(n, dtype=np.int64)
    np.add.at(coeffs, _descent_counts(_images(shuffles.multiplicity, n)), list(shuffles.multiplicity.values()))
    return tuple(coeffs.tolist())


def shuffle_element_from_basis(n: int, b: int) -> GroupAlgebraElement:
    """The b-shuffle element assembled from the commutative-basis identity
    S[b] = sum over compositions I with at most b parts of C(b, len(I)) S^I,
    pushed through the S-word realization.  Used to cross-check the
    enumerated multiset (which carries the same coefficients on inverse
    supports)."""
    _check_degree(n, "S-word realization")
    terms: dict[Composition, Fraction] = {}
    for comp in compositions(n):
        if comp.length <= b:
            terms[comp] = Fraction(binomial(b, comp.length))
    return expansion_to_group(SWordExpansion(n, terms))
