"""Basic combinatorics: binomials, compositions, Eulerian numbers; the
package's one refusal type, ``BudgetError``, with the work budget of the
closed forms; the oracle's failures, with the one label writer; and
``_Checked``, which keeps the checks of the records built on
``collections.namedtuple`` when they are copied.

Conventions used throughout the package:

- A permutation is the tuple of its images in one-line notation, 1-based,
  so ``(3, 1, 2)`` maps 1 -> 3, 2 -> 1, 3 -> 2, and a document labels it
  ``3,1,2``.
- Positions are 1-based as well: position ``i`` of a permutation ``p`` is a
  descent when ``p(i) > p(i+1)``, for ``i`` in ``1..n-1``.
- A composition of ``n`` is a tuple of positive parts summing to ``n``;
  its partial sums (all but the last) encode a descent set.
- Arithmetic is exact everywhere: this module uses Python integers only,
  and no module built on it uses floating point.
"""

from __future__ import annotations

import itertools
import math

# The oracle's cap and failures that the CLI names at import time.  They
# live here, not in ``oracle``, so that the closed-form commands can run
# without importing the oracle and numpy; ``oracle`` re-exports them.  All
# group-algebra work stops at the reach of the S_n composition table.
GROUP_ALGEBRA_MAX_N = 6

# The compositions admitted by ``compositions`` and S-words behind one
# expansion, 2^(n-1) (up to n = 18), and S-word terms in E[1..n],
# (n + 1) 2^(n-2), as `idempotents` writes.  2^17 admits n = 15 (4.9 MB of
# JSON) there, which takes 0.29 s and 50 MiB RSS in a fresh process on a
# 2-vCPU x86-64 host with Python 3.11; n = 16 (278,528 terms, 10.7 MB) would
# take 0.6 s and 88 MiB.
IDEMPOTENT_TERMS = 2**17


# The work model of every closed form: an operation on integers of at most
# x and y bits costs C + w(x) w(y) word operations, w(x) = x // 64 + 1, so a
# sum is a product by one word.  C = _OP is one interpreter operation: on a
# 2-vCPU x86-64 host with Python 3.11 a product of two 32-word integers
# takes 5.3 us, 5 ns a word operation, and one of small integers 50-90 ns.
# A closed form's price sums its path, writing each entry it returns once
# included; README's Bounds table lists the sizes WORK_BUDGET admits.
_OP = 16
WORK_BUDGET = 2**28


class BudgetError(ValueError):
    """A request over one of the package's work or size budgets, refused
    before the work starts.  Every refusal is this one type; its message
    names the operation and the budget."""


def _check_work(what: str, *terms: tuple[int, int, int]) -> None:
    """Refuse with ``BudgetError``, before any bigint is built, a closed form
    whose terms cost more than ``WORK_BUDGET``: a term
    ``(count, bits, factor_bits)`` is ``count`` operations on integers of at
    most ``bits`` and ``factor_bits`` bits, priced as above.  The message
    rounds the exponent up, so that it reads above the budget's."""
    work = sum(count * (_OP + (bits // 64 + 1) * (factor_bits // 64 + 1)) for count, bits, factor_bits in terms)
    if work > WORK_BUDGET:
        exponent = math.ceil(math.log2(work) * 100) / 100
        raise BudgetError(f"{what}: estimated work 2^{exponent:.2f} exceeds the budget 2^{math.log2(WORK_BUDGET):g}")


class _Checked:
    """Mixin for the package's records, ``collections.namedtuple``
    subclasses that check their fields in ``__new__``: ``_make``, and with
    it ``_replace``, go through the constructor, so no copy skips the
    checks.  Put it before the namedtuple base."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _label(values) -> str:
    """A permutation's images or a composition's parts as a document
    labels them: ``1,3,2``."""
    return ",".join(map(str, values))


class LumpingViolation(RuntimeError):
    """Two permutations in the same descent class produced different
    transition rows."""

    def __init__(self, n: int, b: int, state: int, images):
        self.n, self.b, self.state = n, b, state
        super().__init__(
            f"lumping violated at n={n}, b={b}: representative {_label(images)} of state {state} "
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


def _check_words(n: int) -> None:
    """Refuse the 2^(n-1) compositions of n, the S-words of weight n, past
    ``IDEMPOTENT_TERMS``, before any is built."""
    if 2 ** min(n - 1, 64) > IDEMPOTENT_TERMS:
        raise BudgetError(f"compositions: 2^{n - 1} compositions of {n} exceed the budget of {IDEMPOTENT_TERMS}")


def _check_terms(n: int) -> None:
    """Refuse the (n + 1) 2^(n-2) S-word terms of E[1..n], as `idempotents`
    writes them, past ``IDEMPOTENT_TERMS``; 2^min(n, 64) keeps the count
    small for a huge n, over the bound either way."""
    if (n + 1) * 2 ** min(n, 64) // 4 > IDEMPOTENT_TERMS:
        raise BudgetError(f"idempotents: E[1..{n}] over S-words exceed the budget of {IDEMPOTENT_TERMS} terms")


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of ``n`` as tuples of parts, in lexicographic order.

    There are 2^(n-1) of them for n >= 1, and exactly the empty composition
    for n = 0.  The order is the canonical one used for serialization.  Each
    is read off one choice, cut or not, after each of the positions
    1..n-1; more than ``IDEMPOTENT_TERMS`` of them are refused with
    ``BudgetError`` before any is built.

    >>> compositions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 0:
        raise ValueError(f"compositions: n must be nonnegative, got {n}")
    _check_words(n)
    if n == 0:
        return [()]
    out = []
    for cuts in itertools.product((True, False), repeat=n - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        out.append(tuple(parts))
    return out


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
    # row m makes two products of a small integer by an entry below m! and
    # one addition per entry, n^2 / 2 entries in all; the n entries returned
    # are each written once
    bits = n * n.bit_length()
    _check_work("eulerian_numbers", (3 * n * n // 2, bits, 0), (n, bits, bits))
    row = [1]
    for m in range(2, n + 1):
        row = [k * a + (m - k + 1) * c for k, a, c in zip(range(1, m + 1), [*row, 0], [0, *row])]
    return tuple(row)
