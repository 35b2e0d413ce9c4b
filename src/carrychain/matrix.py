"""The carries / riffle-shuffle transition matrix and its exact verification.

The unnormalized transition matrix for deck size n and shuffle parameter b
has entries

    P[i][j] = sum_{r=0..j} (-1)^r C(n+1, r) C(n + b(j-r) - i, n),

indexed by i, j in 1..n, where state i means i-1 descents (equivalently,
carry value i-1 in the base-b addition chain).  Every row sums to b^n, so
dividing by b^n gives an exact stochastic matrix.

The rows are built on one of two paths, whichever the work model prices
lower (``_path``):

- the row kernel, which wins at a small b: P(i, j) = g(bj + n - i) for
  g = (1 - S^b)^(n+1) C(., n), where 1 - S^b, S^b the shift down by b, is a
  first difference along each residue class mod b.  ``_numerator`` makes
  n+1 passes over each column of binomials, which the rows of one residue
  share, and ``_walk`` steps those binomials by exact ratios;
- the spectral path, which wins at a wide b and small n: the factorization
  n! P = (n! W) diag(b, b^2, ..., b^n) F, with the integer rows of n! W and
  F that ``eulerian.worpitzky_matrix`` and ``eulerian.foulkes_matrix``
  hold, the powers of b built once, and every entry divided exactly by n!.

Only rows 1..ceil(n/2) are computed; the others are mirrored, since P is
centrosymmetric: P(i, j) = P(n+1-i, n+1-j).  ``amazing_entry`` is the
entry-by-entry reference.  Every table, entry and check below is priced
on the path it runs, by one call of ``combinat._check_work``, and refused
up front over the work budget, with ``BudgetError``.

Everything claimed about this matrix is an exact identity and is verified
here in integer arithmetic: the columns of n! W (Worpitzky) and the rows of
F (Foulkes) are its right and left eigenvectors (eigenvalue b^k for the
k-th), matrices for different b multiply as P(b1) P(b2) = P(b1 b2), the
stationary distribution is the Eulerian distribution, det F is the
superfactorial (by fraction-free elimination of the two blocks of about
half its size that the mirror of F, below, splits it into), and row 1 for
parameter b^r is the descent generating polynomial of b^r-shuffles.  The
eigen and stationary checks take P from the row kernel at every b, since a
spectral P would reduce them to F W = I; the multiplicativity check takes
P(b1) and P(b2) from the row kernel and P(b1 b2) on the path of
``amazing_matrix``, so at a wide product it also checks one path against
the other.

The same mirror cuts each product these checks form to about a quarter.
With P centrosymmetric, n! W(n+1-i, j) = (-1)^(n+j) n! W(i, j),
F(i, n+1-j) = (-1)^(n-i) F(i, j) and E(n+1-k) = E(k) for the Eulerian
row E, the rows 1..ceil(n/2) of P W = W D, the columns 1..ceil(n/2) of
F P = D F and of E P = b^n E, and the rows 1..ceil(n/2) of
P(b1) P(b2) = P(b1 b2) decide the rest, and each inner sum is folded,
term k onto term n+1-k.  Each check first tests every mirror it relies on,
in O(n^2) compares, on the tables it got, and reports failed each identity
whose mirror fails; so a fault in the half that is not read is still
seen.  The determinant raises on a row of F that does not mirror.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, mul, neg, sub

from .combinat import _check_work, _Checked, _work, binomial, eulerian_numbers
from .eulerian import BasisMatrix, foulkes_matrix, worpitzky_matrix


def _numerator(values: list[int], passes: int) -> list[int]:
    """Coefficients of x^0..x^d in (1 - x)^passes sum_k v_k x^k, for the
    d + 1 values v_0..v_d: ``passes`` backward-difference passes."""
    for _ in range(passes):
        values = [values[0], *map(sub, values[1:], values)]
    return values


def _walk(n: int, starts, length: int) -> list[int]:
    """C(x, n) for the runs x = s..s + length - 1 of the ``starts`` s: by
    ``binomial`` at s, then by C(x, n) = C(x - 1, n) x / (x - n), exact,
    and 0 below n and 1 at n."""
    values = []
    for start in starts:
        value = binomial(start, n)
        values.append(value)
        for x in range(start + 1, start + length):
            value = value * x // (x - n) if x > n else int(x == n)
            values.append(value)
    return values


def _kernel_rows(n: int, m: int, rows: int) -> list[list[int]]:
    """Rows 1..rows of P(n, m) from the row kernel.  Row i = first + mu,
    first <= w = min(m, rows), reads the column C(n - first + mt, n),
    t = -d..n, d = (n - 1) // m, from t = -u.  In (t, first descending)
    order these x are one run when m <= rows, else one run of w per t.  At
    t <= 0 every x is below n, so the degree-0 coefficient of every row must
    vanish."""
    width, deep = min(m, rows), (n - 1) // m
    low = n - width - m * deep
    end = low + m * (deep + n + 1)
    values = _walk(n, (low,), end - low) if width == m else _walk(n, range(low, end, m), width)
    top = [[] for _ in range(rows)]
    for first in range(1, width + 1):
        column = _numerator(values[width - first :: width], n + 1)
        for i in range(first, rows + 1, m):
            q0 = deep - (i - first) // m
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


def _eigen_bits(n: int) -> int:
    """A bound on the bits of an entry of n! W, of F and of the Eulerian row."""
    return n * (n.bit_length() + 1)


def _row_terms(n: int, m: int, rows: int, spectral: bool, bits: int) -> tuple:
    """The ``_check_work`` terms of rows 1..rows of P(n, m), m of at most
    ``bits`` bits, on the path asked for; for one row, ``m`` may be a lower
    bound of the base.  Row kernel: the binomials of ``_kernel_rows``,
    below 2^(n (bits + 3)), each run's first priced as a product of its
    size, each other as a product and a division by an x of about
    bits + log2(n) bits, and n + 1 difference passes of one bit each over
    every column.  Spectral path: the 9 n^2 row-recurrence operations that
    build F and n! W, on entries below 2^e; n - 1 powers of m; then per row
    n ceil(n/2) + n products and n ceil(n/2) sums on scaled entries, of
    n bits / 2 + e bits on average, the products by entries of n! W or F,
    which average below e / 2 bits (at most 0.36 e for n = 8..100); and n
    divisions by n!.  An n or m below 1 raises ValueError."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={m}")
    if spectral:
        e, sums = _eigen_bits(n), rows * n * ((n + 1) // 2)
        average = n * bits // 2 + e
        built = (9 * n * n, e, 0), (n - 1, n * bits, bits)  # F and n! W, and the powers of m
        return *built, (sums + rows * n, average, e // 2), (sums, average, 0), (rows * n, n * bits + e, e)
    width, blocks = min(m, rows), (n - 1) // m + n + 1
    values, runs = width * blocks, 1 if width == m else blocks
    big = n * (bits + 4)
    return (runs, big, big), (2 * (values - runs), big, bits + n.bit_length() + 1), (values * (n + 1), big, 0)


def _path(n: int, m: int, rows: int, bits: int) -> tuple[bool, tuple]:
    """Whether rows 1..rows of P(n, m) take the spectral path, priced lower
    by ``_work`` (the row kernel at a tie), and their ``_row_terms`` there."""
    kernel, spectral = _row_terms(n, m, rows, False, bits), _row_terms(n, m, rows, True, bits)
    return (True, spectral) if _work(*spectral) < _work(*kernel) else (False, kernel)


def amazing_entry(n: int, b: int, i: int, j: int) -> int:
    """One unnormalized transition count: exact alternating sum, always >= 0.

    Its j + 1 terms are refused up front over the work budget: a term
    C(n+1, r) C(N, n), N = n + b(j-r) - i, is one binomial, priced as a
    product of its size, then a product by C(n+1, r) < 2^(n+1) and a sum,
    where C(N, n) = C(N, N - n) < (n + bj)^k for k = min(n, bj)."""
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}, got i={i}, j={j}")
    bits = min(n, b * j) * (n + b * j).bit_length() + n + 1
    _check_work("amazing_entry", (j + 1, bits, bits), (2 * (j + 1), bits, n + 1))
    return sum((-1) ** r * binomial(n + 1, r) * binomial(n + b * (j - r) - i, n) for r in range(j + 1))


class AmazingMatrix(_Checked, namedtuple("AmazingMatrix", "n b entries")):
    """The n x n unnormalized transition matrix for parameter b.

    Entries are nonnegative integers; every row sums to the normalizer b^n,
    so ``entries`` over ``normalizer`` is the exact stochastic matrix, with
    row and column i for state i (i - 1 descents).  A named tuple, checked
    when built or ``_replace``d, as ``eulerian.BasisMatrix`` is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        bn = self.b**self.n
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError(f"the ({self.n}, {self.b}) matrix needs {self.n} rows of {self.n} entries")
        for i, row in enumerate(self.entries, start=1):
            if min(row) < 0:
                raise ValueError(f"negative entry in row {i} of the ({self.n}, {self.b}) matrix")
            if sum(row) != bn:
                raise ValueError(f"row {i} of the ({self.n}, {self.b}) matrix sums to {sum(row)}, expected {bn}")
        return self

    @property
    def normalizer(self) -> int:
        return self.b**self.n


def _matrix(n: int, b: int, spectral: bool) -> AmazingMatrix:
    """The full matrix on the path asked for.  Only rows 1..ceil(n/2) are
    built: row n+1-i is row i reversed, by the centrosymmetry
    P(i, j) = P(n+1-i, n+1-j).  The constructor still checks the row-sum
    and nonnegativity invariants on every row.  Its callers price it."""
    top = [tuple(row) for row in (_spectral_rows if spectral else _kernel_rows)(n, b, (n + 1) // 2)]
    bottom = [row[::-1] for row in reversed(top[: n // 2])]
    return AmazingMatrix(n, b, tuple(top + bottom))


def _check_matrix(n: int, b: int, normalized: bool = False) -> bool:
    """Whether ``amazing_matrix(n, b)`` takes the spectral path, once the
    rows on ``_path``'s path and writing each entry, below b^n, are priced.
    An entry written ``normalized``, over b^n in lowest terms, costs a gcd
    with b^n and two written integers; at b = 1 it is written as it is."""
    bits = b.bit_length()
    spectral, rows = _path(n, b, (n + 1) // 2, bits)
    entry = 3 if normalized and b > 1 else 1
    _check_work("amazing_matrix", *rows, (entry * n * n, n * bits, n * bits))
    return spectral


def amazing_matrix(n: int, b: int) -> AmazingMatrix:
    """Build the full matrix, by the row kernel or the spectral path,
    whichever the work model prices lower."""
    return _matrix(n, b, _check_matrix(n, b))


class Report(namedtuple("Report", "name params checked failures")):
    """Outcome of one verification suite: which identities were checked and
    which failed.  ``failures`` holds one message per failed identity.  A
    named tuple with nothing to check, so it needs no ``_Checked``; its
    ``params`` dict makes it unhashable."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        detail = "" if self.ok else " | " + "; ".join(self.failures[:3])
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{status} {self.name} ({params}) [{self.checked} identities]{detail}"


def _centrosymmetric(rows: tuple) -> bool:
    """Whether the tuple ``rows`` read from the bottom is its rows reversed:
    the mirror P(n+1-i, n+1-j) = P(i, j) that lets a product check read only
    half of P."""
    return rows[::-1] == tuple(row[::-1] for row in rows)


def _mirrors(vector: tuple, negated: int) -> bool:
    """Whether the tuple ``vector`` reversed is itself, or, when ``negated``
    is 1, itself negated."""
    return vector[::-1] == (tuple(map(neg, vector)) if negated else vector)


def _pairs(vector: tuple, op, count: int) -> list[int]:
    """op(v_k, v_{n+1-k}) for k = 1..count, over the n entries of ``vector``."""
    return list(map(op, vector[:count], vector[: -count - 1 : -1]))


def _folds(vectors, n: int) -> tuple[list, list]:
    """Each vector v of n entries folded onto 1..ceil(n/2): v_k + v_{n+1-k},
    and v_k - v_{n+1-k}, for k <= n/2, then the middle entry of odd n.
    Dotted with w_1..w_ceil(n/2), each gives the whole v.w of a w with
    w_{n+1-k} = w_k, or -w_k."""
    h, plus, minus = n // 2, [], []
    for v in vectors:
        head, tail, middle = v[:h], v[: -h - 1 : -1], v[h : n - h]
        plus.append([*map(add, head, tail), *middle])
        minus.append([*map(sub, head, tail), *middle])
    return plus, minus


def verify_spectrum(n: int, b: int) -> Report:
    """Check, in integers, that the columns of n! W are right eigenvectors
    and the rows of F left eigenvectors of P(n, b), with eigenvalues b^k.

    Only a quarter of each product is formed.  Row n+1-i of P W is
    (-1)^(n+j) times row i in column j, and so is row n+1-i of W D, once P
    is centrosymmetric and n! W(n+1-i, j) = (-1)^(n+j) n! W(i, j); so
    P w_j = b^j w_j is checked on rows 1..ceil(n/2), each folded by that
    sign.  Likewise F(i, n+1-j) = (-1)^(n-i) F(i, j) carries f_i P = b^i f_i
    from columns 1..ceil(n/2), folded by that sign, to the rest.  Each
    mirror is tested, in O(n^2) compares, and an eigenpair whose mirror
    fails is reported failed.  The rows of P on the row kernel, the folds
    and the products are priced before any table is built."""
    half, bits = (n + 1) // 2, b.bit_length()
    terms = (2 * n * half * (half + 1), n * bits, _eigen_bits(n)), (4 * half * (n // 2), n * bits, 0)
    _check_work("verify_spectrum", *_row_terms(n, b, half, False, bits), *terms)
    W, F = worpitzky_matrix(n).numerators, foulkes_matrix(n).numerators
    P = _matrix(n, b, spectral=False).entries
    mirrored, failures = _centrosymmetric(P), []
    rows = _folds(P[:half], n)
    for j, col in enumerate(zip(*W), start=1):
        sign, w = (n + j) % 2, col[:half]
        if not (
            mirrored
            and _mirrors(col, sign)
            and [sum(map(mul, row, w)) for row in rows[sign]] == [b**j * c for c in w]
        ):
            failures.append(f"right eigenpair failed: n={n}, b={b}, j={j}")
    columns = _folds(list(zip(*P))[:half], n)
    for i, row in enumerate(F, start=1):
        sign, f = (n - i) % 2, row[:half]
        if not (
            mirrored
            and _mirrors(row, sign)
            and [sum(map(mul, f, col)) for col in columns[sign]] == [b**i * c for c in f]
        ):
            failures.append(f"left eigenpair failed: n={n}, b={b}, i={i}")
    return Report("spectrum", {"n": n, "b": b}, 2 * n, tuple(failures))


def verify_stationary(n: int, b: int) -> Report:
    """Check pi P = b^n pi for the Eulerian distribution pi, as E P = b^n E
    in integers on the Eulerian row E = n! pi.  Entry n+1-j of E P is entry
    j once P is centrosymmetric and E(n+1-k) = E(k), so, with both mirrors
    tested, only columns 1..ceil(n/2) are formed, each folded.  The rows of
    P, the folds and the products are priced before P is built."""
    half, bits = (n + 1) // 2, b.bit_length()
    terms = (half * (half + 1), n * bits, _eigen_bits(n)), (half * (n // 2), n * bits, 0)
    _check_work("verify_stationary", *_row_terms(n, b, half, False, bits), *terms)
    P = _matrix(n, b, spectral=False).entries
    E = eulerian_numbers(n)
    bn, e = b**n, E[:half]
    failures = []
    if not (
        _centrosymmetric(P)
        and E[::-1] == E
        and [sum(map(mul, e, col)) for col in _folds(list(zip(*P))[:half], n)[0]] == [bn * x for x in e]
    ):
        failures.append(f"stationary identity failed: n={n}, b={b}")
    return Report("stationary", {"n": n, "b": b}, 1, tuple(failures))


def verify_multiplicativity(n: int, b1: int, b2: int) -> Report:
    """Check P(b1) P(b2) = P(b1 b2) on unnormalized entries, A B = C.  A
    product of two centrosymmetric matrices is centrosymmetric, so once all
    three are tested to be, the rows 1..ceil(n/2) of the product decide the
    rest; and with B(n+1-k, j) = B(k, n+1-j), for j' = n+1-j,

        C(i, j) + C(i, j') = sum_k (A(i, k) + A(i, k')) (B(k, j) + B(k', j))
                             + 2 A(i, mid) B(mid, j),
        C(i, j) - C(i, j') = sum_k (A(i, k) - A(i, k')) (B(k, j) - B(k', j)),

    over k <= n/2, k' = n+1-k, the middle term for odd n only, are checked
    for j <= ceil(n/2) and j <= n/2: about n^3 / 4 products.  The rows of
    the three matrices, each on its path, and the products and folds are
    priced before any matrix is built, P(b1 b2) on ``_path``'s path."""
    half, h, bits1, bits2, b = (n + 1) // 2, n // 2, b1.bit_length(), b2.bit_length(), b1 * b2
    kernels = (*_row_terms(n, b1, half, False, bits1), *_row_terms(n, b2, half, False, bits2))
    spectral, product = _path(n, b, half, b.bit_length())
    terms = (half * half * n, n * bits1, n * bits2), (3 * n * half, n * (bits1 + bits2), 0)
    _check_work("verify_multiplicativity", *kernels, *product, *terms)
    A = _matrix(n, b1, spectral=False).entries
    B = _matrix(n, b2, spectral=False).entries
    C = _matrix(n, b, spectral).entries
    # taken over k <= ceil(n/2), a column of B folds the middle term twice by
    # add, to 0 by sub
    columns = list(zip(*B))[:half]
    plus, minus = [_pairs(col, add, half) for col in columns], [_pairs(col, sub, half) for col in columns[:h]]
    ok = all(map(_centrosymmetric, (A, B, C))) and all(
        [sum(map(mul, a, col)) for col in plus] == _pairs(c, add, half)
        and [sum(map(mul, d, col)) for col in minus] == _pairs(c, sub, h)
        for a, d, c in zip(*_folds(A[:half], n), C)
    )
    failures = () if ok else (f"multiplicativity failed: n={n}, b1={b1}, b2={b2}",)
    return Report("multiplicativity", {"n": n, "b1": b1, "b2": b2}, 1, failures)


def _bareiss_determinant(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination with row pivoting: every division is exact.  The 0 x 0
    matrix has determinant 1, the empty product."""
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
    return sign * m[-1][-1] if m else 1


def _check_determinant(n: int) -> None:
    """Refuse ``foulkes_determinant(n)`` over the work budget, before F is
    built.  Its two blocks, of about n / 2 rows, make about n^3 / 12
    Bareiss updates in all, each two products, a sum and an exact division
    of minors of F, which average about n^2 / 6 bits, weighted by the
    updates (measured for n = 30..100); the determinant, below 2^(n e / 2)
    for e the bits of an entry of F, is written once."""
    bits, e = n * n // 6, _eigen_bits(n)
    _check_work("foulkes_determinant", (n**3 // 3, bits, bits), (1, n * e // 2, n * e // 2))


def foulkes_determinant(n: int, F: BasisMatrix | None = None) -> int:
    """Exact determinant of the Foulkes matrix (equals the superfactorial),
    read from ``F`` when the caller has built that matrix already.

    F is split by its mirror F(i, n+1-j) = (-1)^(n-i) F(i, j), h = floor(n/2):
    A holds the rows i with n - i even, in increasing i, on columns
    1..ceil(n/2), B the rows with n - i odd on columns 1..h, and
    det F = 2^h det A det B, two Bareiss eliminations of about half the
    size.  Replacing c_j by c_j + c_{n+1-j} and c_{n+1-j} by
    c_j - c_{n+1-j}, j = 1..h, multiplies det F by (-2)^h and leaves, in
    the even rows, A with columns 1..h doubled on columns 1..ceil(n/2); in
    the odd rows, 2B with its h columns reversed on columns ceil(n/2)+1..n;
    zeros elsewhere.  Rows n, n-1, ... alternate even, odd, ..., so moving
    the even rows above the odd ones passes h (h + 1) / 2 pairs, and
    reversing h columns swaps h (h - 1) / 2: the signs make
    (-1)^(h^2) = (-1)^h, so (-2)^h det F = (-1)^h 4^h det A det B, the
    same sign for every n.  Each row of F is first tested to mirror, and a
    row that does not raises ``AssertionError``, since the columns right of
    the middle are never read."""
    _check_determinant(n)
    if F is not None and (F.n, F.denominator) != (n, 1):
        raise ValueError(f"expected the degree-{n} Foulkes matrix, got degree {F.n} over {F.denominator}")
    rows = (foulkes_matrix(n) if F is None else F).numerators
    for i, row in enumerate(rows, start=1):
        if not _mirrors(row, (n - i) % 2):
            raise AssertionError(f"row {i} of the degree-{n} Foulkes matrix breaks F(i, n+1-j) = (-1)^(n-i) F(i, j)")
    p = (n - 1) % 2  # index parity of the rows i with n - i even
    A = [row[: (n + 1) // 2] for row in rows[p::2]]
    B = [row[: n // 2] for row in rows[1 - p :: 2]]
    return 2 ** (n // 2) * _bareiss_determinant(A) * _bareiss_determinant(B)


class DescentPolynomial(_Checked, namedtuple("DescentPolynomial", "n base coeffs")):
    """Descent generating vector of m-shuffles: ``coeffs[k-1]`` counts the
    shuffle outcomes (with multiplicity, out of m^n words) having k-1
    descents.  A named tuple, checked as ``AmazingMatrix`` is."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.coeffs) != self.n or min(self.coeffs, default=0) < 0:
            raise ValueError(f"expected {self.n} nonnegative coefficients, got {self.coeffs}")
        return self

    @property
    def mass(self) -> int:
        return sum(self.coeffs)


def _check_descent(n: int, b: int, r: int) -> bool:
    """Whether ``descent_polynomial(n, b, r)`` takes the spectral path, the
    one ``_path`` prices lower, once b^r, its row and writing each
    coefficient are priced, before b^r is built.  b^r < 2^bits,
    bits = r L + 1 with L the bit length of b - 1; the repeated squaring of
    b^r is priced as one product of its size, and the row on each path with
    b a lower bound of its base."""
    if n < 1 or b < 1 or r < 1:
        raise ValueError(f"need n, b, r >= 1, got n={n}, b={b}, r={r}")
    bits = r * (b - 1).bit_length() + 1
    spectral, row = _path(n, b, 1, bits)
    _check_work("descent_polynomial", (1, bits, bits), *row, (n, n * bits, n * bits))
    return spectral


def descent_polynomial(n: int, b: int, r: int) -> DescentPolynomial:
    """Descent generating vector of b^r-shuffles, by the closed formula

        c_k = sum_{i=0..k} (-1)^i C(n+1, i) C(m(k-i) + n - 1, n),  m = b^r,

    that is row 1 of P(n, m), by the row kernel or the spectral path of
    ``amazing_matrix``, whichever the work model prices lower for a base of
    at least b and below 2^(r L + 1), L the bit length of b - 1.
    """
    spectral = _check_descent(n, b, r)
    m = b**r
    (row,) = (_spectral_rows if spectral else _kernel_rows)(n, m, 1)
    return DescentPolynomial(n, m, tuple(row))
