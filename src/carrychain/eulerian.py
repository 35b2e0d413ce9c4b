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

``F W = I`` exactly, and det F is the superfactorial.  Both tables are
held as integer rows over one denominator (``BasisMatrix``): F over 1 and
n! W over n!, so the products of ``matrix`` read them in integers and a
``Fraction`` is built only when one entry is read.  Row i of F is the
x^1..x^n part of (1 - x)^(n+1) sum_k k^i x^k; ``_numerator`` applies that
factor as n+1 difference passes, and the transition matrix of ``matrix``
uses the same kernel on columns of binomials.  The rows of n! W follow one
from the next by one multiplication and one exact division by a linear factor.
Tables whose estimated bigint work exceeds ``combinat.WORK_BUDGET`` are
refused before any of it is done, with ``BudgetError``.

The idempotents also expand over words in the complete-function basis
(products S^I indexed by compositions I); that expansion is what the
brute-force group-algebra oracle consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub

from .combinat import Composition, _check_work, binomial, compositions


def _numerator(values: list[int], passes: int) -> list[int]:
    """Coefficients of x^0..x^d in (1 - x)^passes sum_k v_k x^k, for the
    d + 1 values v_0..v_d: ``passes`` backward-difference passes.

    The one kernel behind both closed-form tables: fed a column C(mq + s, n)
    it gives the rows i of the transition matrix P(n, m) with
    (n - i) mod m = s, fed the powers k^i row i of the Foulkes matrix."""
    for _ in range(passes):
        values = [values[0], *map(sub, values[1:], values)]
    return values


@dataclass(frozen=True)
class EulerianElement:
    """An element of the degree-n Eulerian subalgebra, in E-coordinates.

    ``coords[k-1]`` is the exact coefficient of the k-th idempotent, an
    ``int`` or a ``Fraction``.
    """

    n: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"degree must be positive, got {self.n}")
        coords = tuple(self.coords)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        if not all(isinstance(c, (int, Fraction)) for c in coords):
            raise ValueError(f"coordinates must be integers or Fractions, got {coords}")
        object.__setattr__(self, "coords", coords)

    def _check_degree(self, other: "EulerianElement") -> None:
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")


def spow_element(n: int, k: int) -> EulerianElement:
    """The k-shuffle element S[k], with E-coordinates (k, k^2, ..., k^n).

    ``k = 0`` gives the zero element: the degree-n component of the empty
    shuffle vanishes for n >= 1.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if k < 0:
        raise ValueError(f"shuffle parameter must be nonnegative, got {k}")
    return EulerianElement(n, tuple(k**i for i in range(1, n + 1)))


def class_element(n: int, p: int) -> EulerianElement:
    """The descent-class sum A[p] (permutations with p-1 descents), in
    E-coordinates.

    Expanding A[p] = sum_{r=0..p} (-1)^r C(n+1, r) S[p-r] coordinatewise
    gives coordinate i = sum_r (-1)^r C(n+1, r) (p-r)^i, with 0^i = 0 since
    S[0] is the zero element.  Column p of ``foulkes_matrix`` holds these
    coordinates; this entry-by-entry sum is its reference, kept out of the
    package's exports.
    """
    if not 1 <= p <= n:
        raise ValueError(f"class index must lie in 1..{n}, got {p}")
    coords = []
    for i in range(1, n + 1):
        coords.append(sum((-1) ** r * binomial(n + 1, r) * (p - r) ** i for r in range(p + 1)))
    return EulerianElement(n, tuple(coords))


def internal_product(u: EulerianElement, v: EulerianElement) -> EulerianElement:
    """Coordinatewise product: the internal product is diagonal on the
    idempotent basis (E[k] * E[l] = delta_kl E[k])."""
    u._check_degree(v)
    return EulerianElement(u.n, tuple(a * b for a, b in zip(u.coords, v.coords)))


@dataclass(frozen=True)
class BasisMatrix:
    """An exact n x n change-of-basis matrix, held as integer rows over one
    denominator: entry (i, j), 1-based, is ``numerators[i-1][j-1] /
    denominator``."""

    n: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.numerators))
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        if not all(isinstance(c, int) for row in rows for c in row):
            raise ValueError("numerators must be integers")
        if not isinstance(self.denominator, int) or self.denominator < 1:
            raise ValueError(f"denominator must be an integer >= 1, got {self.denominator!r}")
        object.__setattr__(self, "numerators", rows)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.numerators[i - 1][j - 1], self.denominator)


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
    # reading the n^2 entries as Fractions reduces each by a gcd with n!,
    # counted as 8 full-size products; that is more than the rows' own
    # product and 2 passes per entry, so this one check bounds both
    _check_work("worpitzky_matrix", 8 * n * n, 0, n * (n + 1).bit_length())
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
    Eulerian numbers.  Row i is the x^1..x^n part of (1 - x)^(n+1) times
    sum_k k^i x^k, built by the same difference kernel as the rows of the
    transition matrix; ``class_element`` is the column-by-column reference.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    _check_work("foulkes_matrix", n * (n + 1), n + 1, n * (n.bit_length() + 1))
    ks = range(n + 1)
    powers, rows = list(ks), []
    for _ in range(n):
        rows.append(_numerator(powers, n + 1)[1:])
        powers = list(map(mul, powers, ks))
    return BasisMatrix(n, rows)


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

    def __add__(self, other: "SWordExpansion") -> "SWordExpansion":
        if self.n != other.n:
            raise ValueError(f"weight mismatch: {self.n} != {other.n}")
        merged = dict(self.terms)
        for comp, coeff in other.terms.items():
            merged[comp] = merged.get(comp, Fraction(0)) + coeff
        return SWordExpansion(self.n, merged)

    def sorted_terms(self) -> list[tuple[Composition, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: item[0].parts)


def idempotent_s_expansion(n: int, k: int) -> SWordExpansion:
    """Expansion of the idempotent E[k] over S-words.

    E[k] is the x^k coefficient of S[x] = sum_I C(x, len I) S^I, so the
    coefficient of S^I is s(len I, k) / (len I)!, with s the signed Stirling
    numbers of the first kind (Gelfand, Krob, Lascoux, Leclerc, Retakh and
    Thibon, Noncommutative symmetric functions, 1995).
    """
    if not 1 <= k <= n:
        raise ValueError(f"idempotent index must lie in 1..{n}, got {k}")
    words = compositions(n)  # refuses more than IDEMPOTENT_TERMS before the Stirling row
    row, coeffs = [1], []  # row holds s(m, 0..m), the x^j coefficients of x(x-1)...(x-m+1)
    for m in range(n + 1):
        coeffs.append(Fraction(row[k] if k <= m else 0, math.factorial(m)))
        row = [a - m * c for a, c in zip([0, *row], [*row, 0])]
    return SWordExpansion(n, {comp: coeffs[comp.length] for comp in words})
