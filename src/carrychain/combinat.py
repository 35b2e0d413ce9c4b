"""Basic combinatorial objects: binomials, compositions, permutations,
descent statistics, Eulerian numbers.

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


class BudgetError(ValueError):
    """A request over one of the package's work or size budgets, refused
    before the work starts.  ``ClosedFormBudgetError`` and
    ``OracleBoundError`` are its kinds; the simulators and the CLI raise it
    as it is."""


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
    the recurrence E(m, k) = k E(m-1, k) + (m-k+1) E(m-1, k-1).

    >>> eulerian_numbers(3)
    (1, 4, 1)
    """
    if n < 1:
        raise ValueError(f"eulerian_numbers: n must be positive, got {n}")
    row = [1]
    for m in range(2, n + 1):
        row = [k * a + (m - k + 1) * c for k, a, c in zip(range(1, m + 1), [*row, 0], [0, *row])]
    return tuple(row)
