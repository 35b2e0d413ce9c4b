"""Independent reference code for the benchmark's output checks.

Nothing here imports ``carrychain``: every quantity is recomputed from its
definition, in plain Python integers and ``fractions.Fraction``, so a check
that compares the program's output with these functions compares two
separately written computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def closed_entry(n: int, b: int, i: int, j: int) -> int:
    """P[i][j] = sum_{r=0..j} (-1)^r C(n+1, r) C(n + b(j-r) - i, n), with
    C(a, n) = 0 for a < 0; states i, j are 1-based."""
    total = 0
    for r in range(j + 1):
        top = n + b * (j - r) - i
        if top >= 0:
            total += (-1) ** r * math.comb(n + 1, r) * math.comb(top, n)
    return total


def closed_row(n: int, b: int, i: int) -> list[int]:
    return [closed_entry(n, b, i, j) for j in range(1, n + 1)]


def closed_matrix(n: int, b: int) -> list[list[int]]:
    return [closed_row(n, b, i) for i in range(1, n + 1)]


def eulerian_numbers(n: int) -> list[int]:
    """A(n, k) for k = 1..n from the explicit alternating sum
    sum_{r=0..k} (-1)^r C(n+1, r) (k - r)^n."""
    return [sum((-1) ** r * math.comb(n + 1, r) * (k - r) ** n for r in range(k + 1)) for k in range(1, n + 1)]


def descents(images) -> int:
    return sum(1 for x, y in zip(images, images[1:]) if x > y)


def permutations(n: int):
    """S_n in one-line notation, lexicographic."""
    return itertools.permutations(range(1, n + 1))


def gsr_outcomes(n: int, b: int) -> dict[tuple[int, ...], int]:
    """All b^n digit words of a GSR b-shuffle, collected by outcome.

    A word sorts the deck positions stably by digit; the outcome is the
    inverse of that sort, in one-line notation.
    """
    counts: dict[tuple[int, ...], int] = {}
    for word in itertools.product(range(b), repeat=n):
        outcome = [0] * n
        for rank, pos in enumerate(sorted(range(n), key=word.__getitem__)):
            outcome[pos] = rank + 1
        counts[tuple(outcome)] = counts.get(tuple(outcome), 0) + 1
    return counts


def gsr_matrix(n: int, b: int) -> list[list[int]]:
    """P(n, b) by brute force over all b^n digit words.

    Each state is represented by one deck with the right descent count (the
    identity with a reversed tail), and every shuffle outcome is applied
    after it.  Row i counts the words that take a deck with i-1 descents to
    each descent count.
    """
    outcomes = gsr_outcomes(n, b)
    rows = []
    for d in range(n):
        deck = list(range(1, n - d)) + list(range(n, n - d - 1, -1))
        row = [0] * n
        for outcome, mult in outcomes.items():
            row[descents([outcome[card - 1] for card in deck])] += mult
        rows.append(row)
    return rows


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(m: list[list[int]], r: int) -> list[list[int]]:
    """Integer matrix power by repeated squaring."""
    size = len(m)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [row[:] for row in m]
    while r:
        if r & 1:
            result = mat_mul(result, base)
        r >>= 1
        if r:
            base = mat_mul(base, base)
    return result


def vec_mat(v: list[int], m: list[list[int]]) -> list[int]:
    return [sum(x * row[j] for x, row in zip(v, m)) for j in range(len(m[0]))]


def foulkes_matrix(n: int) -> list[list[int]]:
    """F(i, j) = sum_{r=0..j} (-1)^r C(n+1, r) (j-r)^i, with 0^i = 0."""
    return [
        [sum((-1) ** r * math.comb(n + 1, r) * (j - r) ** i for r in range(j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def worpitzky_matrix(n: int) -> list[list[Fraction]]:
    """W(i, j) = [x^j] C(x + n - i, n), from the falling-factorial product
    (x + n - i)(x + n - i - 1)...(x - i + 1) / n!."""
    nfact = math.factorial(n)
    rows = []
    for i in range(1, n + 1):
        poly = [1]  # coefficients, lowest degree first
        for root in range(n - i, -i, -1):
            poly = [a + root * c for a, c in zip([0] + poly, poly + [0])]
        rows.append([Fraction(poly[j], nfact) for j in range(1, n + 1)])
    return rows


def superfactorial(n: int) -> int:
    return math.prod(math.factorial(m) for m in range(1, n + 1))


def tv_distance(counts: list[int], exact: list[Fraction]) -> Fraction:
    total = sum(counts)
    return sum((abs(Fraction(c, total) - e) for c, e in zip(counts, exact)), Fraction(0)) / 2


def tv_bound(states: int, samples: int, visits_max: int, delta: float = 1e-12) -> float:
    """A total-variation radius that an empirical row of ``samples`` draws
    exceeds with probability below ``delta``.

    From P(|p_hat - p|_1 >= eps) <= 2^k exp(-N eps^2 / 2) over k states, with
    a union over every possible visit count up to ``visits_max`` because a
    trajectory's row sizes are random.  Returns eps / 2.
    """
    log_terms = states * math.log(2) + math.log(max(visits_max, 1)) + math.log(1 / delta)
    return math.sqrt(2 * log_terms / samples) / 2
