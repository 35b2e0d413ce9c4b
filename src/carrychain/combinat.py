"""Basic combinatorial objects: binomials, compositions, permutations,
descent statistics, Eulerian numbers; and the package's one refusal type,
``BudgetError``, with the work budget of the closed forms.

Conventions used throughout the package:

- Permutations are written in one-line notation with 1-based values, so
  ``Permutation((3, 1, 2))`` maps 1 -> 3, 2 -> 1, 3 -> 2.
- Positions are 1-based as well: position ``i`` of a permutation ``p`` is a
  descent when ``p(i) > p(i+1)``, for ``i`` in ``1..n-1``.
- A composition of ``n`` is an ordered tuple of positive parts summing to
  ``n``; its partial sums (all but the last) encode a descent set.
- Arithmetic is exact everywhere: Python integers and ``fractions.Fraction``.
  No floating point is used in this module or any module built on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# The oracle's cap and failures that the CLI names at import time.  They
# live here, not in ``oracle``, so that the closed-form commands can run
# without importing the oracle and numpy; ``oracle`` re-exports them.  All
# group-algebra work stops at the reach of the S_n composition table.
GROUP_ALGEBRA_MAX_N = 6

# Compositions admitted by ``compositions``, 2^(n-1) (up to n = 18), and S-word
# terms in E[k], 2^(n-1), and in E[1..n], (n + 1) 2^(n-2), as `idempotents`
# writes.  2^17 admits n = 15 (4.9 MB of JSON) there, which takes 1.9 s and
# 67 MiB RSS on a 2-vCPU x86-64 host with Python 3.11; n = 16 (278,528
# terms, 10.7 MB) took 5.0 s and 128 MiB.
IDEMPOTENT_TERMS = 2**17


# Bigint work admitted for one closed-form table, in 64-bit word operations
# as ``_work`` counts them, chosen from measured time on a 2-vCPU x86-64 host
# with Python 3.11.  The largest transition matrix admitted at b = 2,
# amazing_matrix(281, 2) (work 2.66e8), takes 0.04 s, and 0.12 s as
# `carrychain amazing`; the other tables stop at foulkes_matrix(200) and
# worpitzky_matrix(214) (0.7 s), and the matrix products of the checks at
# verify_spectrum(118, 2) (0.6 s) and verify_multiplicativity(176, 2, 2)
# (0.5 s).  Bases of 256 bits and more take the spectral path of ``matrix``,
# which counts less work: amazing_matrix(32, 2^2048), 5.8e8 on the row
# kernel, counts 4.6e7 (0.1 s), and the largest admitted at that base,
# amazing_matrix(46, 2^2048) (2.65e8), takes 0.4 s.  The largest
# benchmarked table, foulkes_determinant(40), counts 7.4e7 (0.04 s), and
# descent_polynomial(16, 3, 3000) 2.9e6 (3.9e7 on the row kernel).
# eulerian_numbers stops at n = 1672, whose row takes about 2.2 s.
WORK_BUDGET = 2**28


class BudgetError(ValueError):
    """A request over one of the package's work or size budgets, refused
    before the work starts.  Every refusal is this one type; its message
    names the operation and the budget."""


def _work(values: int, passes: int, bits: int) -> int:
    """The work of a table of ``values`` integers of at most ``bits`` bits,
    each built by about one full-size multiplication and then touched by
    ``passes`` additions.  With w the size of an integer in 64-bit words,
    that is values * (passes + w) * w word operations."""
    words = bits // 64 + 1
    return values * (passes + words) * words


def _check_work(what: str, values: int, passes: int, bits: int) -> None:
    """Refuse up front, before any bigint is built, a table over the budget,
    its work counted by ``_work``."""
    _check_budget(what, _work(values, passes, bits))


def _check_budget(what: str, work: int) -> None:
    """Refuse ``work`` word operations over ``WORK_BUDGET``."""
    if work > WORK_BUDGET:
        budget = math.log2(WORK_BUDGET)
        raise BudgetError(f"{what}: estimated work 2^{math.log2(work):.1f} exceeds the budget 2^{budget:g}")


class LumpingViolation(RuntimeError):
    """Two permutations in the same descent class produced different
    transition rows."""

    def __init__(self, n: int, b: int, state: int, perm: Permutation):
        self.n, self.b, self.state = n, b, state
        super().__init__(
            f"lumping violated at n={n}, b={b}: representative {perm} of state {state} "
            f"disagrees with its class row"
        )


class TransitionMismatch(RuntimeError):
    """The enumerated transition matrix disagrees with the closed formula."""

    def __init__(self, n: int, b: int, state: int):
        self.n, self.b, self.state = n, b, state
        super().__init__(f"transition row mismatch at n={n}, b={b}, state {state}")


def binomial(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) with the lattice-point convention.

    Returns 0 when ``0 <= a < k`` and also when ``a < 0``.  Negative upper
    arguments never carry weight in any formula of this package; returning 0
    (rather than the polynomial extension) keeps every alternating sum a
    plain count.

    >>> binomial(5, 2)
    10
    >>> binomial(1, 2)
    0
    >>> binomial(-3, 2)
    0
    """
    if k < 0:
        raise ValueError(f"binomial: lower argument must be nonnegative, got {k}")
    if a < 0:
        return 0
    return math.comb(a, k)


def superfactorial(n: int) -> int:
    """Product n! (n-1)! ... 2! 1!.

    >>> superfactorial(4)
    288
    """
    if n < 1:
        raise ValueError(f"superfactorial: n must be positive, got {n}")
    return math.prod(math.factorial(m) for m in range(1, n + 1))


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integer parts.

    ``weight`` is the sum of the parts, ``length`` the number of parts.  The
    empty composition (weight 0) is legal.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive integers: {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def descent_set(self) -> frozenset[int]:
        """Partial sums of all but the last part (a subset of 1..weight-1)."""
        sums = []
        acc = 0
        for p in self.parts[:-1]:
            acc += p
            sums.append(acc)
        return frozenset(sums)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def compositions(n: int) -> list[Composition]:
    """All compositions of ``n``, in lexicographic order on the parts.

    There are 2^(n-1) of them for n >= 1, and exactly the empty composition
    for n = 0.  The order is the canonical one used for serialization.  Each
    is read off one choice, cut or not, after each of the positions
    1..n-1; more than ``IDEMPOTENT_TERMS`` of them are refused with
    ``BudgetError`` before any is built.

    >>> [c.parts for c in compositions(3)]
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 0:
        raise ValueError(f"compositions: n must be nonnegative, got {n}")
    if 2 ** min(n - 1, 64) > IDEMPOTENT_TERMS:
        raise BudgetError(f"compositions: 2^{n - 1} compositions of {n} exceed the budget of {IDEMPOTENT_TERMS}")
    if n == 0:
        return [Composition(())]
    out = []
    for cuts in itertools.product((True, False), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        out.append(Composition(tuple(parts)))
    return out


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation (1-based values)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (p * q)(i) = p(q(i))."""
        if self.n != other.n:
            raise ValueError(f"cannot compose permutations of sizes {self.n} and {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, img in enumerate(self.images):
            inv[img - 1] = pos + 1
        return Permutation(tuple(inv))

    def descent_set(self) -> frozenset[int]:
        """Positions i with p(i) > p(i+1), 1-based."""
        return frozenset(i + 1 for i in range(self.n - 1) if self.images[i] > self.images[i + 1])

    def descent_count(self) -> int:
        return sum(1 for i in range(self.n - 1) if self.images[i] > self.images[i + 1])

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)


def eulerian_numbers(n: int) -> tuple[int, ...]:
    """The Eulerian numbers (E(n,1), ..., E(n,n)), E(n, k) the number of
    permutations of S_n with exactly k-1 descents, built from E(1, 1) = 1 by
    the recurrence E(m, k) = k E(m-1, k) + (m-k+1) E(m-1, k-1).  A row
    whose estimated work exceeds ``WORK_BUDGET`` is refused before any
    product, with ``BudgetError``.

    >>> eulerian_numbers(3)
    (1, 4, 1)
    """
    if n < 1:
        raise ValueError(f"eulerian_numbers: n must be positive, got {n}")
    # row m makes about m products of a small integer by an entry below
    # m! < 2^(m L), L the bit length of n, each one word operation per word;
    # the entries grow with m, so the ~n^2 / 2 products of the rows cost
    # about as much as n^2 / 3 products by an entry of the last row
    _check_budget("eulerian_numbers", n * n // 3 * (n * n.bit_length() // 64 + 1))
    row = [1]
    for m in range(2, n + 1):
        row = [k * a + (m - k + 1) * c for k, a, c in zip(range(1, m + 1), [*row, 0], [0, *row])]
    return tuple(row)
