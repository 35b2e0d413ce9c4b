"""The n-dimensional commutative Eulerian subalgebra.

The subalgebra of degree n has three distinguished bases, all indexed by
k = 1..n:

- ``E[k]``: the orthogonal idempotents.
- ``S[k]``: the k-shuffle elements, S[k] = sum_j k^j E[j].  ``S[1]`` is the
  identity of the product and ``S[p] S[q] = S[pq]``, which ``verify all``
  checks in the group algebra of ``oracle``.
- ``A[k]``: the descent-class sums (all permutations with k-1 descents),
  obtained from the shuffle elements by an alternating binomial sum.

Two basis-change matrices tie everything together and double as the left
and right eigenvector tables of the shuffle/carries transition matrix:

- the Worpitzky matrix ``W``, whose (i, j) entry is the coefficient of x^j
  in the polynomial C(x + n - i, n), expresses E[j] over the A-basis;
- the Foulkes matrix ``F``, whose (i, j) entry is
  sum_r (-1)^r C(n+1, r) (j-r)^i, expresses A[j] over the E-basis.

``F W = I`` exactly, and det F is the superfactorial.  Both tables are
held as integer rows over one denominator (``BasisMatrix``): F over 1 and
n! W over n!, so the products of ``matrix`` read them in integers and no
``Fraction`` is built.  Row i of F is the x^1..x^n part of
(1 - x)^(n+1) sum_k k^i x^k, and each row follows from the one before it by
one pass of x d/dx over that polynomial.  The rows of n! W follow one from
the next by one multiplication and one exact division by a linear factor.
Tables whose estimated bigint work exceeds ``combinat.WORK_BUDGET`` are
refused before any of it is done, with ``BudgetError``.

The subalgebra also lives on the words S^I of the complete basis, products
indexed by compositions I of n, through one identity:
S[x] = sum_I C(x, len I) S^I.  So S[b] and each E[k], the x^k coefficient,
put on S^I a coefficient that depends only on the length of I, and an
``SWordExpansion`` holds n integer numerators by length over one
denominator.  The expansions of the idempotents are what the brute-force
group-algebra oracle consumes.  No element is held in E-coordinates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from operator import add, mul

from .combinat import _check_words, _check_work, _Checked


def _check_integers(numerators, denominator) -> None:
    """Refuse numerators or a denominator that are not integers over one
    denominator >= 1."""
    if not all(isinstance(c, int) for c in numerators):
        raise ValueError("numerators must be integers")
    if not isinstance(denominator, int) or denominator < 1:
        raise ValueError(f"denominator must be an integer >= 1, got {denominator!r}")


class BasisMatrix(_Checked, namedtuple("BasisMatrix", "n numerators denominator", defaults=(1,))):
    """An exact n x n change-of-basis matrix, held as integer rows over one
    denominator: entry (i, j), 1-based, is ``numerators[i-1][j-1] /
    denominator``.  ``numerators`` is kept as a tuple of tuples.

    Like the other records of the closed forms, it is an immutable named
    tuple that checks its fields when built or ``_replace``d: it can also be
    iterated and indexed, and it equals the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        rows = tuple(map(tuple, self.numerators))
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        _check_integers([c for row in rows for c in row], self.denominator)
        return super().__new__(cls, self.n, rows, self.denominator)


def worpitzky_matrix(n: int) -> BasisMatrix:
    """W(i, j) = coefficient of x^j in C(x + n - i, n), for i, j in 1..n,
    held as the integer rows of n! W over n!.

    Column j holds the A-basis coordinates of the idempotent E[j]; the
    columns are the right eigenvectors of every shuffle transition matrix.
    Row i of n! W holds the coefficients of x^1..x^n in
    p_i(x) = prod_{s=0..n-1} (x + n - i - s).  Row 1 is the rising product
    x (x + 1) ... (x + n - 1), expanded once; each later row follows from
    the one before it in O(n) operations,
    p_{i+1}(x) = p_i(x) (x - i) / (x + n - i), the division exact and done
    by synthetic division.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    # the rising product and each later row make about 5 operations per
    # entry, a product or a sum by a small integer; the n^2 entries, below
    # 2^(n L) with L the bit length of n + 1, are each written once, as a
    # fraction in lowest terms: a gcd with n!, two divisions and the digits
    bits = n * (n + 1).bit_length()
    _check_work("worpitzky_matrix", (5 * n * n, bits, 0), (4 * n * n, bits, bits))
    poly = [1]  # low to high
    for s in range(n):
        poly = [a * s + c for a, c in zip(poly + [0], [0] + poly)]
    rows = [poly[1:]]
    for i in range(1, n):
        # times (x - i), then divided by (x + n - i) from the top down
        prod = [c - i * a for a, c in zip(poly + [0], [0] + poly)]
        c = n - i
        poly[n] = prod[n + 1]
        for k in range(n - 1, -1, -1):
            poly[k] = prod[k + 1] - c * poly[k + 1]
        rows.append(poly[1:])
    # the constant term vanishes because the factor with s = n - i is x
    return BasisMatrix(n, rows, math.factorial(n))


def foulkes_matrix(n: int) -> BasisMatrix:
    """F(i, j) = sum_{r=0..j} (-1)^r C(n+1, r) (j-r)^i, with 0^i = 0, held
    as integer rows over 1.

    Column j holds the E-coordinates of the class sum A[j]; the rows are
    the left eigenvectors of every shuffle transition matrix, and the matrix
    is the inverse of the Worpitzky matrix.  Its last row is the row of
    Eulerian numbers.  Row i holds the coefficients of x^1..x^n in
    H_i(x) = (1 - x)^(n+1) sum_k k^i x^k, a polynomial of degree n.  Each
    row follows from the one before it in O(n) operations: x d/dx takes
    sum_k k^i x^k to sum_k k^(i+1) x^k, which on H_i reads
    (1 - x) H_{i+1} = x (1 - x) H_i' + (n + 1) x H_i, that is
    h'_j = h'_{j-1} + j h_j + (n + 2 - j) h_{j-1} with h'_0 = 0, starting
    from H_0 = (1 - x)^n.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    # each entry of the row recurrence takes two products by a small integer
    # and two sums; each entry, below 2^(n (L + 1)), L the bit length of n,
    # is written once
    bits = n * (n.bit_length() + 1)
    _check_work("foulkes_matrix", (4 * n * n, bits, 0), (n * n, bits, bits))
    h = [(-1) ** j * math.comb(n, j) for j in range(n + 1)]  # H_0, low to high
    up, down, rows = range(1, n + 1), range(n + 1, 1, -1), []  # j and n + 2 - j for j = 1..n
    for _ in range(n):
        h = [0, *accumulate(map(add, map(mul, up, h[1:]), map(mul, down, h)))]
        rows.append(h[1:])
    return BasisMatrix(n, rows)


class SWordExpansion(_Checked, namedtuple("SWordExpansion", "n numerators denominator", defaults=(1,))):
    """An exact linear combination of the complete-basis words S^I of weight
    n whose coefficient depends only on the length of I, held as integers
    over one denominator: every word of length l has the coefficient
    ``numerators[l-1] / denominator``.  A named tuple, checked as
    ``BasisMatrix`` is."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        numerators = tuple(self.numerators)
        if self.n < 1 or len(numerators) != self.n:
            raise ValueError(f"expected one numerator per length 1..{self.n}, got {len(numerators)}")
        _check_integers(numerators, self.denominator)
        return super().__new__(cls, self.n, numerators, self.denominator)


def idempotent_s_expansion(n: int, k: int) -> SWordExpansion:
    """Expansion of the idempotent E[k] over S-words, held over n!.

    E[k] is the x^k coefficient of S[x] = sum_I C(x, len I) S^I, so the
    coefficient of a word of length l is s(l, k) / l!, with s the signed
    Stirling numbers of the first kind (Gelfand, Krob, Lascoux, Leclerc,
    Retakh and Thibon, Noncommutative symmetric functions, 1995); its
    numerator over n! is s(l, k) n! / l!.  The expansion stands for the
    2^(n-1) words of weight n, and more than ``IDEMPOTENT_TERMS`` of them
    are refused before the Stirling row.
    """
    if not 1 <= k <= n:
        raise ValueError(f"idempotent index must lie in 1..{n}, got {k}")
    _check_words(n)
    row, numerators = [1], []  # row holds s(l, 0..l), the x^j coefficients of x(x-1)...(x-l+1)
    whole = math.factorial(n)
    for l in range(1, n + 1):
        row = [a - (l - 1) * c for a, c in zip([0, *row], [*row, 0])]
        numerators.append(row[k] * (whole // math.factorial(l)) if k <= l else 0)
    return SWordExpansion(n, numerators, whole)
