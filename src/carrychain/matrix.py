"""The carries / riffle-shuffle transition matrix and its exact verification.

The unnormalized transition matrix for deck size n and shuffle parameter b
has entries

    P[i][j] = sum_{r=0..j} (-1)^r C(n+1, r) C(n + b(j-r) - i, n),

indexed by i, j in 1..n, where state i means i-1 descents (equivalently,
carry value i-1 in the base-b addition chain).  Every row sums to b^n, so
dividing by b^n gives an exact stochastic matrix.

The rows are built on one of two paths, chosen by the bit length of b
against ``_SPECTRAL_MIN_BITS`` (256):

- the row kernel, for small b: P(i, j) = g(bj + n - i) for
  g = (1 - S^b)^(n+1) C(., n), where 1 - S^b, S^b the shift down by b, is a
  first difference along each residue class mod b.  ``eulerian._numerator``,
  shared with the Foulkes table, makes n+1 passes over each column
  C(bq + s, n), q >= 0, and row i is the slice of column s = (n - i) mod b
  from q0 = (n - i) // b;
- the spectral path, for wide b: the factorization
  n! P = (n! W) diag(b, b^2, ..., b^n) F, with the integer rows of n! W and
  F that ``eulerian.worpitzky_matrix`` and ``eulerian.foulkes_matrix``
  hold, the powers of b built once, and every entry divided exactly by n!.

Only rows 1..ceil(n/2) are computed; the others are mirrored, since P is
centrosymmetric: P(i, j) = P(n+1-i, n+1-j).  ``amazing_entry`` is the
entry-by-entry reference.  Every table and entry, and the matrix products
of every check below, is refused up front, with ``BudgetError``, when its
estimated bigint work on the path it takes exceeds
``combinat.WORK_BUDGET``.

Everything claimed about this matrix is an exact identity and is verified
here in integer arithmetic: the columns of n! W (Worpitzky) and the rows of
F (Foulkes) are its right and left eigenvectors (eigenvalue b^k for the
k-th), matrices for different b multiply as P(b1) P(b2) = P(b1 b2), the
stationary distribution is the Eulerian distribution, det F is the
superfactorial (by fraction-free elimination), and row 1 for parameter b^r
is the descent generating polynomial of b^r-shuffles.  The eigen and
stationary checks take P from the row kernel at every b, since a spectral P
would reduce them to F W = I; the multiplicativity check takes P(b1) and
P(b2) from the row kernel and P(b1 b2) from ``amazing_matrix``, so at a wide
product it also checks one path against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .combinat import _check_budget, _check_work, _work, binomial, eulerian_numbers
from .eulerian import BasisMatrix, _numerator, foulkes_matrix, worpitzky_matrix


# Bit length of m from which amazing_matrix and descent_polynomial build P(n, m)
# by the spectral path rather than the row kernel.  A kernel row costs n + 1
# binomials, each an n-fold product of integers of the size of m; the spectral
# path pays n - 1 powers of m once, then about n^2 / 2 products of a power by
# a small integer per row.  Measured on a 2-vCPU x86-64 host with Python 3.11
# (best of 5, random odd m), kernel time over spectral time:
#
#     bits of m      n = 8    16     32     64
#        32          0.60   0.76   0.89   0.92
#       128          0.81   1.39   2.14   1.57
#       256          1.35   2.37   2.22   2.35
#
# At n <= 4 the spectral path's two small tables make it about 0.03 ms
# slower at any size up to 256 bits.  Measured at m >= n, where no two rows
# of the kernel share a binomial column, as they do at small m.
_SPECTRAL_MIN_BITS = 256


def _kernel_rows(n: int, m: int, rows: int) -> list[list[int]]:
    """Rows 1..rows of P(n, m) from the row kernel: each of the first
    min(m, rows) rows opens the column of its residue, which rows m apart
    share; the degree-0 coefficient of every row, at q0, must vanish."""
    top = [[] for _ in range(rows)]
    for first in range(1, min(m, rows) + 1):
        s, deepest = (n - first) % m, (n - first) // m
        column = _numerator([binomial(m * q + s, n) for q in range(deepest + n + 1)], n + 1)
        for i in range(first, rows + 1, m):
            q0 = (n - i) // m
            if column[q0] != 0:
                raise AssertionError(f"degree-0 coefficient of row {i} must vanish, got {column[q0]}")
            top[i - 1] = column[q0 + 1 : q0 + n + 1]
    return top


def _spectral_rows(n: int, m: int, rows: int) -> list[list[int]]:
    """Rows 1..rows of P(n, m) from the spectral factorization
    n! P = (n! W) diag(m, m^2, ..., m^n) F: row i of n! W, scaled by the
    powers of m (built once, by n - 1 products), dotted with the columns of
    F.  Column n+1-j of F is column j with row k negated when n - k is odd,
    so each dot product over columns 1..ceil(n/2) is split into its parts
    over even and odd n - k, e and o, and gives entries j and n+1-j of
    n! P as e + o and e - o.  Every entry is divided exactly by n!, and a
    remainder raises."""
    powers = [m]
    for _ in range(n - 1):
        powers.append(powers[-1] * m)
    p = (n - 1) % 2  # index parity of the rows k of F with n - k even
    columns = [(col[p::2], col[1 - p :: 2]) for col in list(zip(*foulkes_matrix(n).numerators))[: (n + 1) // 2]]
    W = worpitzky_matrix(n)
    nfact = W.denominator
    top = []
    for i, w in enumerate(W.numerators[:rows], start=1):
        scaled = list(map(mul, w, powers))
        even, odd = scaled[p::2], scaled[1 - p :: 2]
        left, right = [], []
        for col_even, col_odd in columns:
            e, o = sum(map(mul, even, col_even)), sum(map(mul, odd, col_odd))
            left.append(e + o)
            right.append(e - o)
        row = []
        for j, value in enumerate(left + right[: n // 2][::-1], start=1):
            entry, rest = divmod(value, nfact)
            if rest:
                raise AssertionError(f"entry ({i}, {j}) of n! P(n, m) is not divisible by n! = {nfact}")
            row.append(entry)
        top.append(row)
    return top


def _row_work(n: int, rows: int, m_bits: int, spectral: bool) -> int:
    """The estimated work of ``rows`` rows of P(n, m) with m of at most
    ``m_bits`` bits, on the path that will build them.  Row kernel: the
    binomials have at most n (m_bits + 2) bits, and the n + 1 difference
    passes add at most n + 1 more, for each row: at small m that overcounts
    the columns the rows share, but it also bounds the size of the output,
    and counting shared columns would admit P(1000, 2), hundreds of MB of
    JSON.  Spectral path: n - 1 products by m for
    the powers, and the normalizer m^n that the row-sum check builds, then
    n (ceil(n/2) + 1) products of a power by an entry of n! W or F for each
    row."""
    if not spectral:
        return _work(rows * (n + 1), n + 1, n * (m_bits + 3))
    big = (n * m_bits + _eigen_bits(n)) // 64 + 2
    products = rows * n * ((n + 1) // 2 + 1)
    return big * (n * (m_bits // 64 + 2) + products * (_eigen_bits(n) // 64 + 2))


def _top_rows(what: str, n: int, m: int, rows: int, spectral: bool) -> list[list[int]]:
    """Rows 1..rows of P(n, m), entries 1..n, checked against the work
    budget and built on the path asked for."""
    _check_budget(what, _row_work(n, rows, m.bit_length(), spectral))
    return (_spectral_rows if spectral else _kernel_rows)(n, m, rows)


def _check_products(what: str, products: int, bits: int, factor_bits: int) -> None:
    """The budget check for ``products`` products of an integer of at most
    ``bits`` bits by one of at most ``factor_bits`` bits, each added into a
    dot product: (w + 1)(v + 1) word operations for w- and v-word factors."""
    _check_budget(what, products * (bits // 64 + 2) * (factor_bits // 64 + 2))


def _eigen_bits(n: int) -> int:
    """A bound on the bits of an entry of n! W, of F and of the Eulerian row."""
    return n * (n.bit_length() + 1)


def amazing_entry(n: int, b: int, i: int, j: int) -> int:
    """One unnormalized transition count: exact alternating sum, always >= 0.

    Its j + 1 terms are refused up front over the work budget: a term
    C(n+1, r) C(N, n), N = n + b(j-r) - i, takes about one full-size
    multiplication and two passes, and C(N, n) = C(N, N - n) < (n + bj)^k
    for k = min(n, bj), times C(n+1, r) < 2^(n+1)."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}, got i={i}, j={j}")
    _check_work("amazing_entry", j + 1, 2, min(n, b * j) * (n + b * j).bit_length() + n + 1)
    return sum((-1) ** r * binomial(n + 1, r) * binomial(n + b * (j - r) - i, n) for r in range(j + 1))


@dataclass(frozen=True)
class AmazingMatrix:
    """The n x n unnormalized transition matrix for parameter b.

    Entries are nonnegative integers; every row sums to the normalizer b^n.
    """

    n: int
    b: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        bn = self.b**self.n
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError(f"the ({self.n}, {self.b}) matrix needs {self.n} rows of {self.n} entries")
        for i, row in enumerate(self.entries, start=1):
            if any(e < 0 for e in row):
                raise ValueError(f"negative entry in row {i} of the ({self.n}, {self.b}) matrix")
            if sum(row) != bn:
                raise ValueError(f"row {i} of the ({self.n}, {self.b}) matrix sums to {sum(row)}, expected {bn}")

    @property
    def normalizer(self) -> int:
        return self.b**self.n

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i - 1]

    def normalized(self) -> tuple[tuple[Fraction, ...], ...]:
        bn = self.normalizer
        return tuple(tuple(Fraction(e, bn) for e in row) for row in self.entries)


def _matrix(n: int, b: int, spectral: bool) -> AmazingMatrix:
    """The full matrix on the path asked for.  Only rows 1..ceil(n/2) are
    built: row n+1-i is row i reversed, by the centrosymmetry
    P(i, j) = P(n+1-i, n+1-j).  The constructor still checks the row-sum
    and nonnegativity invariants on every row."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    top = [tuple(row) for row in _top_rows("amazing_matrix", n, b, (n + 1) // 2, spectral)]
    bottom = [row[::-1] for row in reversed(top[: n // 2])]
    return AmazingMatrix(n, b, tuple(top + bottom))


def amazing_matrix(n: int, b: int) -> AmazingMatrix:
    """Build the full matrix: by the row kernel for b below
    ``_SPECTRAL_MIN_BITS`` bits, by the spectral path from there on."""
    return _matrix(n, b, b.bit_length() >= _SPECTRAL_MIN_BITS)


@dataclass(frozen=True)
class Report:
    """Outcome of one verification suite: which identities were checked and
    which failed.  ``failures`` holds one message per failed identity."""

    name: str
    params: dict
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = "" if self.ok else " | " + "; ".join(self.failures[:3])
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{status} {self.name} ({params}) [{self.checked} identities]{detail}"


def verify_spectrum(n: int, b: int) -> Report:
    """Check, in integers, that the columns of n! W are right eigenvectors
    and the rows of F left eigenvectors of P(n, b), with eigenvalues b^k.
    The 2 n^2 (n + 1) products are checked against the work budget first,
    and the eigenvector tables are built before P, so that a size over the
    budget is refused before the largest table is built."""
    _check_products("verify_spectrum", 2 * n * n * (n + 1), n * b.bit_length(), _eigen_bits(n))
    W, F = worpitzky_matrix(n).numerators, foulkes_matrix(n).numerators
    P = _matrix(n, b, spectral=False).entries
    failures = []
    for j, col in enumerate(zip(*W), start=1):
        bj = b**j
        if [sum(map(mul, row, col)) for row in P] != [bj * c for c in col]:
            failures.append(f"right eigenpair failed: n={n}, b={b}, j={j}")
    columns = list(zip(*P))
    for i, row in enumerate(F, start=1):
        bi = b**i
        if [sum(map(mul, row, col)) for col in columns] != [bi * c for c in row]:
            failures.append(f"left eigenpair failed: n={n}, b={b}, i={i}")
    return Report("spectrum", {"n": n, "b": b}, 2 * n, tuple(failures))


def verify_stationary(n: int, b: int) -> Report:
    """Check pi P = b^n pi for the Eulerian distribution pi, as E P = b^n E
    in integers on the Eulerian row E = n! pi.  Its n (n + 1) products are
    checked against the work budget before P is built."""
    _check_products("verify_stationary", n * (n + 1), n * b.bit_length(), _eigen_bits(n))
    P = _matrix(n, b, spectral=False).entries
    E = eulerian_numbers(n)
    bn = b**n
    failures = []
    if [sum(map(mul, E, col)) for col in zip(*P)] != [bn * e for e in E]:
        failures.append(f"stationary identity failed: n={n}, b={b}")
    return Report("stationary", {"n": n, "b": b}, 1, tuple(failures))


def verify_multiplicativity(n: int, b1: int, b2: int) -> Report:
    """Check P(b1) P(b2) = P(b1 b2) on unnormalized entries.  The n^3
    products are checked against the work budget before any matrix is
    built."""
    _check_products("verify_multiplicativity", n**3, n * b1.bit_length(), n * b2.bit_length())
    A = _matrix(n, b1, spectral=False).entries
    columns = list(zip(*_matrix(n, b2, spectral=False).entries))
    C = amazing_matrix(n, b1 * b2)
    product = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in A)
    failures = []
    if product != C.entries:
        failures.append(f"multiplicativity failed: n={n}, b1={b1}, b2={b2}")
    return Report("multiplicativity", {"n": n, "b1": b1, "b2": b2}, 1, tuple(failures))


def _bareiss_determinant(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination with row pivoting: every division is exact."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk, top = m[k][k], m[k][k + 1 :]
        for r in range(k + 1, len(m)):
            rk = m[r][k]
            m[r][k + 1 :] = [(a * pk - rk * c) // prev for a, c in zip(m[r][k + 1 :], top)]
        prev = pk
    return sign * m[-1][-1]


def _check_determinant(n: int) -> None:
    # Bareiss makes about n^3/3 updates of k x k minors of F; weighted by
    # the updates per step, their root-mean-square size is about n/3
    # entries of F, of at most n (log2 n + 1) bits each
    _check_work("foulkes_determinant", n**3 // 3, 0, n * n * (n.bit_length() + 1) // 3)


def foulkes_determinant(n: int, F: BasisMatrix | None = None) -> int:
    """Exact determinant of the Foulkes matrix (equals the superfactorial),
    read from ``F`` when the caller has built that matrix already."""
    _check_determinant(n)
    if F is not None and (F.n, F.denominator) != (n, 1):
        raise ValueError(f"expected the degree-{n} Foulkes matrix, got degree {F.n} over {F.denominator}")
    return _bareiss_determinant((foulkes_matrix(n) if F is None else F).numerators)


@dataclass(frozen=True)
class DescentPolynomial:
    """Descent generating vector of m-shuffles: ``coeffs[k-1]`` counts the
    shuffle outcomes (with multiplicity, out of m^n words) having k-1
    descents."""

    n: int
    base: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n or any(c < 0 for c in self.coeffs):
            raise ValueError(f"expected {self.n} nonnegative coefficients, got {self.coeffs}")

    @property
    def mass(self) -> int:
        return sum(self.coeffs)


def descent_polynomial(n: int, b: int, r: int) -> DescentPolynomial:
    """Descent generating vector of b^r-shuffles, by the closed formula

        c_k = sum_{i=0..k} (-1)^i C(n+1, i) C(m(k-i) + n - 1, n),  m = b^r,

    that is row 1 of P(n, m), on the same path as ``amazing_matrix``.
    """
    if n < 1 or b < 1 or r < 1:
        raise ValueError(f"need n, b, r >= 1, got n={n}, b={b}, r={r}")
    # b^r < 2^(r L) with L the bit length of b - 1.  Before b^r is built, its
    # repeated squaring, about a third of one product of its size, is counted
    # with the row on the path that size selects
    bits = r * (b - 1).bit_length() + 1
    _check_budget("descent_polynomial", (bits // 64 + 2) ** 2 // 3 + _row_work(n, 1, bits, bits >= _SPECTRAL_MIN_BITS))
    m = b**r
    (row,) = _top_rows("descent_polynomial", n, m, 1, m.bit_length() >= _SPECTRAL_MIN_BITS)
    return DescentPolynomial(n, m, tuple(row))
