"""The n-dimensional commutative Eulerian subalgebra.

The subalgebra of degree n has three distinguished bases, all indexed by
k = 1..n:

- ``E[k]``: the orthogonal idempotents.  The internal product is
  coordinatewise in this basis, which is why elements are stored by their
  exact E-coordinates.
- ``S[k]``: the k-shuffle elements, with E-coordinates (k, k^2, ..., k^n).
  ``S[1]`` is the identity of the internal product and
  ``S[p] * S[q] = S[pq]``.
- ``A[k]``: the descent-class sums (all permutations with k-1 descents),
  obtained from the shuffle elements by an alternating binomial sum.

Two basis-change matrices tie everything together and double as the left
and right eigenvector tables of the shuffle/carries transition matrix:

- the Worpitzky matrix ``W``, whose (i, j) entry is the coefficient of x^j
  in the polynomial C(x + n - i, n), expresses E[j] over the A-basis;
- the Foulkes matrix ``F``, whose (i, j) entry is
  sum_r (-1)^r C(n+1, r) (j-r)^i, expresses A[j] over the E-basis.

``F W = I`` exactly, and det F is the superfactorial.  Row i of F is the
x^1..x^n part of (1 - x)^(n+1) sum_k k^i x^k; ``_numerator`` applies that
factor as n+1 difference passes, and the transition matrix of ``matrix``
uses the same kernel on binomials.  The rows of n! W follow one from the
next by one multiplication and one exact division by a linear factor.
Tables whose estimated bigint work exceeds ``WORK_BUDGET`` are refused
before any of it is done, with ``ClosedFormBudgetError``.

The idempotents also expand over words in the complete-function basis
(products S^I indexed by compositions I); that expansion is what the
brute-force group-algebra oracle consumes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub

from .combinat import Composition, binomial, compositions


# Bigint work admitted for one closed-form table, in 64-bit word operations
# as ``_work`` counts them, chosen from measured time on a 2-vCPU x86-64 host
# with Python 3.11.  The largest transition matrix admitted at b = 2,
# amazing_matrix(281, 2) (work 2.66e8), takes 1.6 s, and 2.1 s as
# `carrychain amazing`; the other tables stop at foulkes_matrix(200) and
# worpitzky_matrix(214) (0.7 s), and the matrix products of the checks at
# verify_spectrum(118, 2) (0.7 s) and verify_multiplicativity(176, 2, 2)
# (1.5 s).  Bases of 256 bits and more take the spectral path of ``matrix``,
# which counts less work: amazing_matrix(32, 2^2048), 5.8e8 on the row
# kernel, counts 4.6e7 (0.1 s), and the largest admitted at that base,
# amazing_matrix(46, 2^2048) (2.65e8), takes 0.4 s.  The largest
# benchmarked table, foulkes_determinant(40), counts 7.4e7 (0.04 s), and
# descent_polynomial(16, 3, 3000) 2.9e6 (3.9e7 on the row kernel).
WORK_BUDGET = 2**28


class ClosedFormBudgetError(ValueError):
    """The estimated bigint work of a closed-form table exceeds WORK_BUDGET."""


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
        raise ClosedFormBudgetError(f"{what}: estimated work 2^{math.log2(work):.1f} exceeds the budget 2^{budget:g}")


def _numerator(values: list[int]) -> list[int]:
    """Coefficients of x^0..x^d in (1 - x)^(d+1) sum_k v_k x^k, for the
    d + 1 values v_0..v_d: d + 1 backward-difference passes.

    This is the one kernel behind both closed-form tables: fed the
    binomials C(mk + n - i, n) it gives row i of the transition matrix
    P(n, m), fed the powers k^i row i of the Foulkes matrix."""
    for _ in range(len(values)):
        values = [values[0], *map(sub, values[1:], values)]
    return values


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class EulerianElement:
    """An element of the degree-n Eulerian subalgebra, in E-coordinates.

    ``coords[k-1]`` is the exact coefficient of the k-th idempotent.
    """

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"degree must be positive, got {self.n}")
        if len(self.coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", _as_fractions(self.coords))

    def _check_degree(self, other: "EulerianElement") -> None:
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")

    def __add__(self, other: "EulerianElement") -> "EulerianElement":
        self._check_degree(other)
        return EulerianElement(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "EulerianElement") -> "EulerianElement":
        self._check_degree(other)
        return EulerianElement(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "EulerianElement":
        c = Fraction(c)
        return EulerianElement(self.n, tuple(c * a for a in self.coords))

    def __mul__(self, other: "EulerianElement") -> "EulerianElement":
        return internal_product(self, other)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


def zero_element(n: int) -> EulerianElement:
    return EulerianElement(n, (Fraction(0),) * n)


def identity_element(n: int) -> EulerianElement:
    """S[1], the identity of the internal product (all E-coordinates 1)."""
    return EulerianElement(n, (Fraction(1),) * n)


def idempotent_element(n: int, k: int) -> EulerianElement:
    """E[k] itself: the k-th coordinate vector."""
    if not 1 <= k <= n:
        raise ValueError(f"idempotent index must lie in 1..{n}, got {k}")
    return EulerianElement(n, tuple(Fraction(1 if i == k else 0) for i in range(1, n + 1)))


def spow_element(n: int, k: int) -> EulerianElement:
    """The k-shuffle element S[k], with E-coordinates (k, k^2, ..., k^n).

    ``k = 0`` gives the zero element: the degree-n component of the empty
    shuffle vanishes for n >= 1.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if k < 0:
        raise ValueError(f"shuffle parameter must be nonnegative, got {k}")
    return EulerianElement(n, tuple(Fraction(k**i) for i in range(1, n + 1)))


def class_element(n: int, p: int) -> EulerianElement:
    """The descent-class sum A[p] (permutations with p-1 descents), in
    E-coordinates.

    Expanding A[p] = sum_{r=0..p} (-1)^r C(n+1, r) S[p-r] coordinatewise
    gives coordinate i = sum_r (-1)^r C(n+1, r) (p-r)^i, with 0^i = 0 since
    S[0] is the zero element.
    """
    if not 1 <= p <= n:
        raise ValueError(f"class index must lie in 1..{n}, got {p}")
    coords = []
    for i in range(1, n + 1):
        coords.append(Fraction(sum((-1) ** r * binomial(n + 1, r) * (p - r) ** i for r in range(p + 1))))
    return EulerianElement(n, tuple(coords))


def internal_product(u: EulerianElement, v: EulerianElement) -> EulerianElement:
    """Coordinatewise product: the internal product is diagonal on the
    idempotent basis (E[k] * E[l] = delta_kl E[k])."""
    u._check_degree(v)
    return EulerianElement(u.n, tuple(a * b for a, b in zip(u.coords, v.coords)))


def pairing(u: EulerianElement, v: EulerianElement) -> Fraction:
    """The symmetric bilinear form making the idempotents orthonormal."""
    u._check_degree(v)
    return sum((a * b for a, b in zip(u.coords, v.coords)), Fraction(0))


@dataclass(frozen=True)
class BasisMatrix:
    """An exact n x n change-of-basis matrix with 1-based index helpers."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]
    from_basis: str
    to_basis: str

    def __post_init__(self) -> None:
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        object.__setattr__(self, "entries", tuple(_as_fractions(row) for row in self.entries))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i - 1]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j - 1] for row in self.entries)


def _worpitzky_numerators(n: int) -> list[list[int]]:
    """The integer matrix n! W: row i holds the coefficients of x^1..x^n in
    p_i(x) = prod_{s=0..n-1} (x + n - i - s).

    Row 1 is the rising product x (x + 1) ... (x + n - 1), expanded once;
    each later row follows from the one before it in O(n) operations,
    p_{i+1}(x) = p_i(x) (x - i) / (x + n - i), the division exact and done
    by synthetic division.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    _check_work("worpitzky_matrix", n * (n + 1), 2, n * (n + 1).bit_length())
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
    return rows


def worpitzky_matrix(n: int) -> BasisMatrix:
    """W(i, j) = coefficient of x^j in C(x + n - i, n), for i, j in 1..n.

    Column j holds the A-basis coordinates of the idempotent E[j]; the
    columns are the right eigenvectors of every shuffle transition matrix.
    The rows of n! W come from ``_worpitzky_numerators``, one from the next
    in O(n) operations, and are divided by n! at the end.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    # each of the n^2 entries is reduced by a gcd with n!, counted as 8
    # full-size products
    _check_work("worpitzky_matrix", 8 * n * n, 0, n * (n + 1).bit_length())
    numerators = _worpitzky_numerators(n)
    nfact = math.factorial(n)
    rows = tuple(tuple(Fraction(c, nfact) for c in row) for row in numerators)
    return BasisMatrix(n, rows, from_basis="E", to_basis="A")


def _foulkes_numerators(n: int) -> list[list[int]]:
    """The Foulkes matrix as integers: row i holds the coefficients of
    x^1..x^n in (1 - x)^(n+1) sum_k k^i x^k, from the shared kernel."""
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    _check_work("foulkes_matrix", n * (n + 1), n + 1, n * (n.bit_length() + 1))
    ks = range(n + 1)
    powers, rows = list(ks), []
    for _ in range(n):
        rows.append(_numerator(powers)[1:])
        powers = list(map(mul, powers, ks))
    return rows


def foulkes_matrix(n: int) -> BasisMatrix:
    """F(i, j) = sum_{r=0..j} (-1)^r C(n+1, r) (j-r)^i, with 0^i = 0.

    Column j holds the E-coordinates of the class sum A[j]; the rows are
    the left eigenvectors of every shuffle transition matrix, and the matrix
    is the inverse of the Worpitzky matrix.  Its last row is the row of
    Eulerian numbers.  Row i is the x^1..x^n part of (1 - x)^(n+1) times
    sum_k k^i x^k, built by the same difference kernel as the rows of the
    transition matrix; ``class_element`` is the column-by-column reference.
    """
    rows = tuple(tuple(row) for row in _foulkes_numerators(n))
    return BasisMatrix(n, rows, from_basis="A", to_basis="E")


@dataclass
class SWordExpansion:
    """An exact linear combination of complete-basis words S^I, all of one
    weight n.  Keys are compositions of n; zero coefficients are dropped."""

    n: int
    terms: dict[Composition, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {}
        for comp, coeff in self.terms.items():
            if comp.weight != self.n:
                raise ValueError(f"term {comp} has weight {comp.weight}, expected {self.n}")
            coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[comp] = coeff
        self.terms = cleaned

    def coefficient(self, comp: Composition) -> Fraction:
        return self.terms.get(comp, Fraction(0))

    def __add__(self, other: "SWordExpansion") -> "SWordExpansion":
        if self.n != other.n:
            raise ValueError(f"weight mismatch: {self.n} != {other.n}")
        merged = dict(self.terms)
        for comp, coeff in other.terms.items():
            merged[comp] = merged.get(comp, Fraction(0)) + coeff
        return SWordExpansion(self.n, merged)

    def sorted_terms(self) -> list[tuple[Composition, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: item[0].parts)


def _log_coefficient(length: int) -> Fraction:
    # coefficient of any word of that length in log of the complete series
    return Fraction((-1) ** (length - 1), length)


def idempotent_s_expansion(n: int, k: int) -> SWordExpansion:
    """Expansion of the idempotent E[k] over S-words.

    Realized as the degree-n part of L^k / k!, where
    L = sum_I (-1)^(len(I)-1)/len(I) S^I is the logarithm of the complete
    series and words multiply by concatenation.  The coefficient of S^I is
    therefore a sum over the ways to split I into k consecutive blocks.
    """
    if not 1 <= k <= n:
        raise ValueError(f"idempotent index must lie in 1..{n}, got {k}")
    kfact = math.factorial(k)
    terms: dict[Composition, Fraction] = {}
    for comp in compositions(n):
        m = comp.length
        if m < k:
            continue
        total = Fraction(0)
        for cuts in itertools.combinations(range(1, m), k - 1):
            bounds = (0, *cuts, m)
            prod = Fraction(1)
            for a, b in zip(bounds, bounds[1:]):
                prod *= _log_coefficient(b - a)
            total += prod
        if total:
            terms[comp] = total / kfact
    return SWordExpansion(n, terms)


def fundamental_evaluation(comp: Composition, N: int) -> int:
    """Number of ways to realize the descent class of ``comp`` with letters
    from an N-letter alphabet: C(N + n - len(comp), n) where n is the
    weight.  This is the multiplicity with which the class appears in an
    N-shuffle."""
    if N < 0:
        raise ValueError(f"alphabet size must be nonnegative, got {N}")
    return binomial(N + comp.weight - comp.length, comp.weight)
