import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import eulerian
from carrychain.combinat import BudgetError, binomial, compositions, eulerian_numbers
from carrychain.eulerian import SWordExpansion, foulkes_matrix, idempotent_s_expansion, worpitzky_matrix
from carrychain.oracle import (
    GroupAlgebraElement,
    group_identity,
    group_product,
    idempotent_group,
    shuffle_element_from_basis,
)
from reference import LARGEST_ADMITTED, Built, refuse_building


def coords(*values):
    return tuple(Fraction(v) for v in values)


def entry(M, i: int, j: int) -> Fraction:
    """Entry (i, j), 1-based, of a ``BasisMatrix``."""
    return Fraction(M.numerators[i - 1][j - 1], M.denominator)


def unit(n: int, k: int) -> tuple[int, ...]:
    """The E-coordinates of the idempotent E[k]: the k-th unit vector."""
    return tuple(int(i == k) for i in range(1, n + 1))


def spow(n: int, k: int) -> tuple[int, ...]:
    """The E-coordinates of the shuffle element S[k]: (k, k^2, ..., k^n)."""
    return tuple(k**i for i in range(1, n + 1))


def class_element(n: int, p: int) -> tuple[int, ...]:
    """The E-coordinates of the descent-class sum A[p] (permutations with
    p-1 descents), the reference for column p of ``foulkes_matrix``.

    Expanding A[p] = sum_{r=0..p} (-1)^r C(n+1, r) S[p-r] coordinatewise
    gives coordinate i = sum_r (-1)^r C(n+1, r) (p-r)^i, with 0^i = 0 since
    S[0] is the zero element.
    """
    if not 1 <= p <= n:
        raise ValueError(f"class index must lie in 1..{n}, got {p}")
    return tuple(
        sum((-1) ** r * binomial(n + 1, r) * (p - r) ** i for r in range(p + 1)) for i in range(1, n + 1)
    )


def eulerian_element(n: int, weights) -> GroupAlgebraElement:
    """sum_k c_k S[k] in the group algebra of S_n, for the integer weights c_1, c_2, ..."""
    numerators = sum(c * shuffle_element_from_basis(n, k).numerators for k, c in enumerate(weights, start=1))
    return GroupAlgebraElement(n, numerators)


class TestSpowElement:
    # the shuffle element S[k] in the group algebra, sum_I C(k, len I) S^I
    def test_unit(self):
        assert shuffle_element_from_basis(2, 1) == group_identity(2)

    def test_two(self):
        # 3 of the 4 two-packet words of two cards leave the deck in order
        assert shuffle_element_from_basis(2, 2).numerators.tolist() == [3, 1]

    def test_zero_parameter(self):
        assert shuffle_element_from_basis(3, 0).is_zero()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shuffle_element_from_basis(3, -1)


class TestClassElement:
    def test_first_class(self):
        assert class_element(2, 1) == coords(1, 1)

    def test_second_class(self):
        assert class_element(2, 2) == coords(-1, 1)

    def test_degree_one(self):
        assert class_element(1, 1) == coords(1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            class_element(2, 3)
        with pytest.raises(ValueError):
            class_element(2, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_sum_to_top_idempotent(self, n):
        # the sum over all descent classes is the full sum over S_n, which
        # absorbs every shuffle operator; its E-coordinates are n! e_n
        total = tuple(map(sum, zip(*(class_element(n, p) for p in range(1, n + 1)))))
        assert total == tuple(math.factorial(n) * c for c in unit(n, n))


class TestInternalProduct:
    # the product of the Eulerian subalgebra is the group algebra's, every pair of terms composed
    def test_spow_multiplicative(self):
        S = shuffle_element_from_basis
        assert group_product(S(3, 2), S(3, 3)) == S(3, 6)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_spow_multiplicative_grid(self, n):
        S = {b: shuffle_element_from_basis(n, b) for b in range(1, 37)}
        for p in range(1, 7):
            for q in range(1, 7):
                assert group_product(S[p], S[q]) == S[p * q]

    def test_idempotents_orthogonal(self):
        for n in range(1, 6):
            idems = [idempotent_group(n, k) for k in range(1, n + 1)]
            for k, l in itertools.product(range(n), repeat=2):
                product = group_product(idems[k], idems[l])
                assert product == idems[k] if k == l else product.is_zero()

    def test_coordinates_stay_integers(self):
        assert all(type(c) is int for c in spow(5, 3) + class_element(5, 2))
        element = shuffle_element_from_basis(5, 3)
        assert element.numerators.dtype == np.int64 and element.denominator == 1
        with pytest.raises(ValueError, match="^numerators must be integers"):
            SWordExpansion(2, (1, Fraction(1, 2)))

    def test_identity_element(self):
        u, one = eulerian_element(4, (3, -1, 0, 7)), shuffle_element_from_basis(4, 1)
        assert group_product(u, one) == group_product(one, u) == u
        assert one == group_identity(4)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            group_product(shuffle_element_from_basis(2, 1), shuffle_element_from_basis(3, 1))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(-5, 5), min_size=n, max_size=n)] * 3).map(
                lambda ws: [eulerian_element(n, w) for w in ws]
            )
        )
    )
    def test_commutative_associative(self, uvw):
        # commutative on the subalgebra, though the group algebra is not
        u, v, w = uvw
        assert group_product(u, v) == group_product(v, u)
        assert group_product(group_product(u, v), w) == group_product(u, group_product(v, w))


class TestBasisMatrix:
    @pytest.mark.parametrize(
        "numerators, denominator, message",
        [
            (((1, 2),), 1, "expected a 2x2 matrix"),
            (((1, 2), (3,)), 1, "expected a 2x2 matrix"),
            (((1, Fraction(1, 2)), (0, 1)), 1, "numerators must be integers"),
            (((1, 0), (0, 1)), 0, "denominator must be an integer >= 1, got 0"),
            (((1, 0), (0, 1)), Fraction(2), "denominator must be an integer >= 1"),
        ],
    )
    def test_malformed_tables_are_refused(self, numerators, denominator, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            eulerian.BasisMatrix(2, numerators, denominator)

    def test_rows_are_held_as_tuples(self):
        rows = [[2, 4], [6, 8]]
        M = eulerian.BasisMatrix(2, rows, 4)
        rows[0][0] = 99
        assert M.numerators == ((2, 4), (6, 8))
        assert (entry(M, 1, 1), entry(M, 2, 2)) == (Fraction(1, 2), 2)


class TestWorpitzkyMatrix:
    def test_degree_one(self):
        W = worpitzky_matrix(1)
        assert (W.numerators, W.denominator) == (((1,),), 1)
        assert entry(W, 1, 1) == 1

    def test_degree_two(self):
        # 2! W over 2!, each entry read as a Fraction in lowest terms
        W = worpitzky_matrix(2)
        assert (W.numerators, W.denominator) == (((1, 1), (-1, 1)), 2)
        entries = tuple(tuple(entry(W, i, j) for j in (1, 2)) for i in (1, 2))
        assert entries == (coords("1/2", "1/2"), coords("-1/2", "1/2"))

    def test_columns_rebuild_idempotents(self):
        n = 3
        W = worpitzky_matrix(n)
        for j in range(1, n + 1):
            columns = [[entry(W, i, j) * c for c in class_element(n, i)] for i in range(1, n + 1)]
            assert tuple(map(sum, zip(*columns))) == unit(n, j)


def _expanded_product(n: int, i: int) -> list[int]:
    """Coefficients of x^0..x^n in prod_{s=0..n-1} (x + n - i - s), one
    linear factor at a time."""
    coeffs = [1]
    for s in range(n):
        const = n - i - s
        nxt = [0] * (len(coeffs) + 1)
        for t, c in enumerate(coeffs):
            nxt[t + 1] += c
            nxt[t] += const * c
        coeffs = nxt
    return coeffs


class TestWorpitzkyNumerators:
    def test_recurrence_matches_the_expanded_product(self):
        for n in range(1, 41):
            expected = []
            for i in range(1, n + 1):
                coeffs = _expanded_product(n, i)
                assert coeffs[0] == 0
                expected.append(coeffs[1:])
            assert worpitzky_matrix(n).numerators == tuple(map(tuple, expected))


class TestFoulkesMatrix:
    def test_degree_two(self):
        F = foulkes_matrix(2)
        assert (F.numerators, F.denominator) == (((1, -1), (1, 1)), 1)

    def test_first_column_ones(self):
        for n in range(1, 9):
            F = foulkes_matrix(n)
            assert all(entry(F, i, 1) == 1 for i in range(1, n + 1))

    def test_last_row_is_eulerian(self):
        for n in range(1, 9):
            F = foulkes_matrix(n)
            assert F.numerators[n - 1] == eulerian_numbers(n)

    def test_columns_are_class_elements(self):
        # every column up to n = 14 and at the benchmarked n = 40
        for n in [*range(1, 15), 40]:
            F = foulkes_matrix(n)
            for j in range(1, n + 1):
                assert tuple(row[j - 1] for row in F.numerators) == class_element(n, j)

    def test_sampled_entries_at_the_largest_size(self):
        n = LARGEST_ADMITTED["foulkes_matrix(n)"][1]
        F = foulkes_matrix(n)
        for i, j in itertools.product((1, 2, 3, 99, 100, 199, 200), (1, 2, 50, 100, 101, 199, 200)):
            direct = sum((-1) ** r * binomial(n + 1, r) * (j - r) ** i for r in range(j + 1))
            assert F.numerators[i - 1][j - 1] == direct, (i, j)
        assert F.numerators[-1] == eulerian_numbers(n)

    def test_inverse_of_worpitzky_in_integers_at_the_benchmarked_size(self):
        # F (n! W) = n! I, every entry, at n = 40
        n = 40
        F, W = foulkes_matrix(n), worpitzky_matrix(n)
        columns = list(zip(*W.numerators))
        for i, row in enumerate(F.numerators):
            assert [sum(map(operator.mul, row, col)) for col in columns] == [
                W.denominator if i == j else 0 for j in range(n)
            ]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_inverse_of_worpitzky(self, n):
        F, W = foulkes_matrix(n), worpitzky_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                value = sum(entry(F, i, t) * entry(W, t, j) for t in range(1, n + 1))
                assert value == (1 if i == j else 0)

    def test_power_identity(self):
        # sum_i F(k, i) C(x + n - i, n) = x^k for integer x
        for n in range(1, 6):
            F = foulkes_matrix(n)
            for x in range(1, 11):
                for k in range(1, n + 1):
                    total = sum(entry(F, k, i) * binomial(x + n - i, n) for i in range(1, n + 1))
                    assert total == x**k


class TestTriangularity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_minus_spow_in_lower_span(self, n):
        # solve the Vandermonde system expressing A(n, i) over S[1..i]:
        # the leading coefficient must be 1 and nothing beyond index i occurs
        for i in range(1, n + 1):
            target = list(class_element(n, i))
            basis = [list(spow(n, m)) for m in range(1, i + 1)]
            solution = _solve_exact([list(col) for col in zip(*basis)], target)
            assert solution is not None
            assert solution[-1] == 1
            terms = [[c * s for s in spow(n, m)] for m, c in enumerate(solution, start=1)]
            assert tuple(map(sum, zip(*terms))) == class_element(n, i)


def _solve_exact(rows, rhs):
    """Least-structure exact solver for a tall column system (or None)."""
    m, k = len(rows), len(rows[0])
    aug = [rows[r][:] + [Fraction(rhs[r])] for r in range(m)]
    pivot_cols = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        scale = aug[row][col]
        aug[row] = [v / scale for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    if any(all(v == 0 for v in aug[r][:k]) and aug[r][k] != 0 for r in range(m)):
        return None
    solution = [Fraction(0)] * k
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][k]
    return solution


def _split_sum_expansion(n: int, k: int) -> dict:
    """E[k] over S-words as the degree-n part of L^k / k!, where
    L = sum_I (-1)^(len(I)-1)/len(I) S^I is the logarithm of the complete
    series and words multiply by concatenation: the coefficient of S^I is a
    sum over the ways to split I into k consecutive blocks."""
    terms = {}
    for parts in compositions(n):
        total = Fraction(0)
        for cuts in itertools.combinations(range(1, len(parts)), k - 1):
            bounds = (0, *cuts, len(parts))
            total += math.prod(Fraction((-1) ** (b - a - 1), b - a) for a, b in zip(bounds, bounds[1:]))
        if total:
            terms[parts] = total / math.factorial(k)
    return terms


def _terms(expansion: SWordExpansion) -> dict:
    """The nonzero coefficient of every word, by the parts of its composition."""
    numerators, denominator = expansion.numerators, expansion.denominator
    return {
        parts: Fraction(numerators[len(parts) - 1], denominator)
        for parts in compositions(expansion.n)
        if numerators[len(parts) - 1]
    }


class TestSWordExpansion:
    @pytest.mark.parametrize(
        "n, numerators, denominator, message",
        [
            (2, (1,), 1, "expected one numerator per length 1..2, got 1"),
            (0, (), 1, "expected one numerator per length 1..0, got 0"),
            (2, (1, 0.5), 1, "numerators must be integers"),
            (2, (1, 0), 0, "denominator must be an integer >= 1, got 0"),
        ],
    )
    def test_malformed_expansions_are_refused(self, n, numerators, denominator, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            SWordExpansion(n, numerators, denominator)

    def test_numerators_are_held_as_a_tuple(self):
        numerators = [1, -2, 3]
        expansion = SWordExpansion(3, numerators, 6)
        numerators[0] = 99
        assert (expansion.numerators, expansion.denominator) == ((1, -2, 3), 6)


class TestIdempotentExpansion:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_split_sum(self, n):
        # the split sum is taken word by word, so it also shows that a
        # coefficient depends only on the length of its word
        for k in range(1, n + 1):
            assert _terms(idempotent_s_expansion(n, k)) == _split_sum_expansion(n, k)

    def test_first_of_degree_two(self):
        expansion = idempotent_s_expansion(2, 1)
        assert (expansion.numerators, expansion.denominator) == ((2, -1), 2)
        assert _terms(expansion) == {
            (2,): Fraction(1),
            (1, 1): Fraction(-1, 2),
        }

    def test_second_of_degree_two(self):
        assert _terms(idempotent_s_expansion(2, 2)) == {(1, 1): Fraction(1, 2)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sum_is_complete_word(self, n):
        total = {}
        for k in range(1, n + 1):
            for parts, coeff in _terms(idempotent_s_expansion(n, k)).items():
                total[parts] = total.get(parts, 0) + coeff
        assert {parts: c for parts, c in total.items() if c} == {(n,): Fraction(1)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            idempotent_s_expansion(3, 0)
        with pytest.raises(ValueError):
            idempotent_s_expansion(3, 4)

    def test_one_past_the_largest_admitted_is_refused_before_the_row(self, monkeypatch):
        # the expansion stands for 2^(n-1) S-words and builds none of them;
        # its work starts with n!, so past the largest n admitted the
        # refusal comes before it and the Stirling row, which for 10^20
        # would never end
        monkeypatch.setattr(eulerian, "math", SimpleNamespace(factorial=refuse_building))
        n = LARGEST_ADMITTED["idempotent_s_expansion(n, 1)"][1]
        with pytest.raises(Built):
            idempotent_s_expansion(n, 1)
        for n in (n + 1, 10**20):
            with pytest.raises(BudgetError, match="^idempotent_s_expansion: estimated work"):
                idempotent_s_expansion(n, 1)
