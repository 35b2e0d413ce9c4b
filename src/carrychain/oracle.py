"""Brute-force ground truth in the group algebra of small symmetric groups.

This module deliberately avoids the closed formulas it is used to check:
every one of the b^n shuffle digit words is enumerated, every pair of terms
of a product is composed, and the descent transition is tallied for every
permutation, not per class.  It imports nothing from ``matrix``: every
comparison of an enumerated result with a closed form is made in ``cli``
(the ``oracle`` commands and the rows of ``verify all``).  One lazily built
table per n indexes that work without shortcutting it: S_n in lexicographic
order as a small-int array, with descent counts, descent-set bitmasks and,
for n <= 6, the composition table, built with numpy gathers and Lehmer-code
ranks.  Bounds keep everything at desk scale (group-algebra work at n <= 8,
exhaustive shuffle enumeration within a 10^7-word budget, drawn in blocks of
bounded size, and at most 2^17 distinct outcomes, bounded up front by
min(b^n, n!)).

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
    IDEMPOTENT_MAX_N,
    TRANSITION_MAX_N,
    Composition,
    LumpingViolation,
    Permutation,
    TransitionMismatch,  # re-exported: the failure that ``cli`` raises for this oracle
    binomial,
    compositions,
)
from .eulerian import SWordExpansion, idempotent_s_expansion

GROUP_ALGEBRA_MAX_N = 8
ENUMERATION_BUDGET = 10**7
# distinct outcomes kept as Permutation objects: at most min(b^n, n!).  The
# largest case admitted, n = 17 and b = 2 (131,055 outcomes), peaks at
# 78 MiB RSS in enumerate_b_shuffles and 129 MiB in `oracle shuffles`.
OUTCOME_BUDGET = 2**17

_TABLE_MAX_N = 6
_BLOCK_VALUES = 1 << 15  # cap the values held by one block of a numpy kernel


class OracleBoundError(ValueError):
    """Requested size exceeds the brute-force budget."""


class _SnTable(NamedTuple):
    """S_n in lexicographic order (the order of ``itertools.permutations``)."""

    images: np.ndarray  # (n!, n) int8, one-line notation, 1-based
    descents: np.ndarray  # (n!,) descent counts
    masks: np.ndarray  # (n!,) descent sets, position i as bit i-1
    compose: np.ndarray | None  # [i, j] = rank of images[i] after images[j]; n <= 6


def _rank(images: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row, by its Lehmer code."""
    n = images.shape[-1]
    rank = np.zeros(images.shape[:-1], dtype=np.int64)
    for i in range(n):
        rank = rank * (n - i) + (images[..., i + 1 :] < images[..., i : i + 1]).sum(axis=-1)
    return rank


@lru_cache(maxsize=None)
def _table(n: int) -> _SnTable:
    if n > GROUP_ALGEBRA_MAX_N:
        raise OracleBoundError(f"S_n tables are limited to n <= {GROUP_ALGEBRA_MAX_N}, got {n}")
    perms = list(itertools.permutations(range(1, n + 1)))
    images = np.array(perms, dtype=np.int8).reshape(len(perms), n)
    falls = images[:, :-1] > images[:, 1:]
    masks = (falls.astype(np.int64) << np.arange(n - 1)).sum(axis=1)
    compose = None
    if n <= _TABLE_MAX_N:
        compose = np.empty((len(perms), len(perms)), dtype=np.int16)
        rows = max(1, _BLOCK_VALUES // len(perms))
        for start in range(0, len(perms), rows):
            compose[start : start + rows] = _rank(images[start : start + rows][:, images - 1])
    return _SnTable(images, falls.sum(axis=1), masks, compose)


def _ranks(n: int, images: list[tuple[int, ...]]) -> list[int]:
    return _rank(np.array(images, dtype=np.int8).reshape(len(images), n)).tolist()


def _descent_filter(comp: Composition, exact: bool = False) -> list[tuple[int, ...]]:
    """Lexicographic images of the permutations whose descent set lies in
    the cut set of ``comp``, or equals it if ``exact``."""
    table = _table(comp.weight)
    cut = sum(1 << (i - 1) for i in comp.descent_set())
    hit = table.masks == cut if exact else (table.masks & ~cut) == 0
    return list(map(tuple, table.images[hit].tolist()))


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
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[perm] = coeff
        object.__setattr__(self, "terms", cleaned)

    def coefficient(self, perm: Permutation) -> Fraction:
        return self.terms.get(perm, Fraction(0))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")
        merged = dict(self.terms)
        for perm, coeff in other.terms.items():
            merged[perm] = merged.get(perm, Fraction(0)) + coeff
        return GroupAlgebraElement(self.n, merged)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        return GroupAlgebraElement(self.n, {perm: c * coeff for perm, coeff in self.terms.items()})

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return group_product(self, other)

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
    if n > GROUP_ALGEBRA_MAX_N:
        raise OracleBoundError(f"group products are limited to n <= {GROUP_ALGEBRA_MAX_N}, got {n}")
    du, u_items = _scaled_integers({p.images: c for p, c in u.terms.items()})
    dv, v_items = _scaled_integers({p.images: c for p, c in v.terms.items()})
    denom = du * dv
    if n <= _TABLE_MAX_N:
        table = _table(n)
        ranks = _ranks(n, [images for images, _ in u_items + v_items])
        v_idx = list(zip(ranks[len(u_items) :], [b for _, b in v_items]))
        acc = [0] * len(table.images)
        for i, (_, a) in zip(ranks, u_items):
            row = table.compose[i].tolist()
            for j, b in v_idx:
                acc[row[j]] += a * b
        perms = table.images.tolist()
        terms = {Permutation(tuple(perms[t])): Fraction(c, denom) for t, c in enumerate(acc) if c}
    else:
        raw: dict[tuple[int, ...], int] = {}
        for p, a in u_items:
            for q, b in v_items:
                key = tuple(p[s - 1] for s in q)
                raw[key] = raw.get(key, 0) + a * b
        terms = {Permutation(images): Fraction(c, denom) for images, c in raw.items() if c}
    return GroupAlgebraElement(n, terms)


def ribbon_sum(comp: Composition) -> GroupAlgebraElement:
    """Sum (coefficient 1) of all permutations with descent composition
    ``comp``."""
    n = comp.weight
    if n > GROUP_ALGEBRA_MAX_N:
        raise OracleBoundError(f"ribbon sums are limited to weight <= {GROUP_ALGEBRA_MAX_N}, got {n}")
    return GroupAlgebraElement(n, dict.fromkeys(map(Permutation, _descent_filter(comp, exact=True)), 1))


def s_word_to_group(comp: Composition) -> GroupAlgebraElement:
    """The complete word S^I as a sum of permutations: the ribbon sums over
    all compositions whose descent set is contained in that of ``comp``,
    i.e. every permutation whose descent set refines the cut points of I."""
    n = comp.weight
    if n > GROUP_ALGEBRA_MAX_N:
        raise OracleBoundError(f"S-words are limited to weight <= {GROUP_ALGEBRA_MAX_N}, got {n}")
    return GroupAlgebraElement(n, dict.fromkeys(map(Permutation, _descent_filter(comp)), 1))


def expansion_to_group(expansion: SWordExpansion) -> GroupAlgebraElement:
    """Push an S-word expansion through ``s_word_to_group`` linearly."""
    n = expansion.n
    denom, items = _scaled_integers(expansion.terms)
    acc: dict[tuple[int, ...], int] = {}
    for comp, coeff in items:
        for images in _descent_filter(comp):
            acc[images] = acc.get(images, 0) + coeff
    return GroupAlgebraElement(n, {Permutation(im): Fraction(c, denom) for im, c in acc.items() if c})


def idempotent_group(n: int, k: int) -> GroupAlgebraElement:
    """The k-th Eulerian idempotent realized inside the group algebra."""
    if n > IDEMPOTENT_MAX_N:
        raise OracleBoundError(f"group-algebra idempotents are limited to n <= {IDEMPOTENT_MAX_N}, got {n}")
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
        if any(p.inverse().descent_count() > self.b - 1 for p in self.multiplicity):
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
    if b**n > ENUMERATION_BUDGET:
        raise OracleBoundError(f"enumeration budget exceeded: {b}^{n} > {ENUMERATION_BUDGET}")
    if b**n > OUTCOME_BUDGET and factorial(n) > OUTCOME_BUDGET:
        raise OracleBoundError(f"outcome budget exceeded: min({b}^{n}, {n}!) > {OUTCOME_BUDGET}")
    # word k of itertools.product(range(b), repeat=n) holds k // b^(n-1-s) % b at
    # position s; outcomes merge in the order the words first reach them
    place = b ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK_VALUES // n)
    counts: dict[tuple[int, ...], int] = {}
    for start in range(0, b**n, step):
        words = np.arange(start, min(start + step, b**n), dtype=np.int64)[:, None] // place % b
        tau = np.argsort(words, axis=1, kind="stable")
        outcomes = np.argsort(tau, axis=1) + 1
        keys = outcomes.view(np.dtype((np.void, outcomes.itemsize * n)))[:, 0]
        _, first, mult = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        for outcome, m in zip(map(tuple, outcomes[first[order]].tolist()), mult[order].tolist()):
            counts[outcome] = counts.get(outcome, 0) + m
    return ShuffleMultiset(n, b, {Permutation(images): m for images, m in counts.items()})


def oracle_transition_matrix(n: int, b: int) -> tuple[tuple[Fraction, ...], ...]:
    """The descent-count transition matrix by exhaustive enumeration.

    For every permutation sigma (not just one class representative) the full
    outcome distribution of d(sigma_w * sigma) is tallied; all members of a
    descent class must produce the identical row (lumping), or
    ``LumpingViolation`` is raised.  The rows are returned as enumerated,
    compared with nothing."""
    if n > TRANSITION_MAX_N:
        raise OracleBoundError(f"transition oracle is limited to n <= {TRANSITION_MAX_N}, got {n}")
    shuffles = enumerate_b_shuffles(n, b)
    table = _table(n)
    outcomes = _ranks(n, [p.images for p in shuffles.multiplicity])
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
            raise LumpingViolation(n, b, d + 1, Permutation(tuple(table.images[sigma].tolist())))
    return tuple(tuple(Fraction(c, b**n) for c in row) for row in rows if row is not None)


def oracle_descent_polynomial(n: int, m: int) -> tuple[int, ...]:
    """Histogram of descent counts over all m^n shuffle words: entry d counts
    the words whose outcome has d descents.  The enumeration-side twin of the
    coefficients of the closed-formula polynomial."""
    shuffles = enumerate_b_shuffles(n, m)
    coeffs = [0] * n
    for perm, mult in shuffles.multiplicity.items():
        coeffs[perm.descent_count()] += mult
    return tuple(coeffs)


def shuffle_element_from_basis(n: int, b: int) -> GroupAlgebraElement:
    """The b-shuffle element assembled from the commutative-basis identity
    S[b] = sum over compositions I with at most b parts of C(b, len(I)) S^I,
    pushed through the S-word realization.  Used to cross-check the
    enumerated multiset (which carries the same coefficients on inverse
    supports)."""
    if n > GROUP_ALGEBRA_MAX_N:
        raise OracleBoundError(f"S-word realization limited to n <= {GROUP_ALGEBRA_MAX_N}, got {n}")
    terms: dict[Composition, Fraction] = {}
    for comp in compositions(n):
        if comp.length <= b:
            terms[comp] = Fraction(binomial(b, comp.length))
    return expansion_to_group(SWordExpansion(n, terms))
