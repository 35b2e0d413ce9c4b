import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import combinat, eulerian
from carrychain.combinat import BudgetError, Composition, binomial, compositions, eulerian_numbers
from carrychain.eulerian import (
    EulerianElement,
    class_element,
    foulkes_matrix,
    idempotent_s_expansion,
    internal_product,
    spow_element,
    worpitzky_matrix,
)


def coords(*values):
    return tuple(Fraction(v) for v in values)


def unit(n: int, k: int) -> EulerianElement:
    """The idempotent E[k]: the k-th E-coordinate vector."""
    return EulerianElement(n, tuple(int(i == k) for i in range(1, n + 1)))


def elements(n: int):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return st.lists(coeff, min_size=n, max_size=n).map(lambda cs: EulerianElement(n, tuple(cs)))


class TestSpowElement:
    def test_unit(self):
        assert spow_element(2, 1).coords == coords(1, 1)

    def test_two(self):
        assert spow_element(2, 2).coords == coords(2, 4)

    def test_zero_parameter(self):
        assert spow_element(3, 0) == EulerianElement(3, (0,) * 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spow_element(3, -1)


class TestClassElement:
    def test_first_class(self):
        assert class_element(2, 1).coords == coords(1, 1)

    def test_second_class(self):
        assert class_element(2, 2).coords == coords(-1, 1)

    def test_degree_one(self):
        assert class_element(1, 1).coords == coords(1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            class_element(2, 3)
        with pytest.raises(ValueError):
            class_element(2, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_sum_to_top_idempotent(self, n):
        # the sum over all descent classes is the full sum over S_n, which
        # absorbs every shuffle operator; its E-coordinates are n! e_n
        total = tuple(map(sum, zip(*(class_element(n, p).coords for p in range(1, n + 1)))))
        assert total == tuple(math.factorial(n) * c for c in unit(n, n).coords)


class TestInternalProduct:
    def test_spow_multiplicative(self):
        assert internal_product(spow_element(3, 2), spow_element(3, 3)) == spow_element(3, 6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spow_multiplicative_grid(self, n):
        for p in range(1, 7):
            for q in range(1, 7):
                assert internal_product(spow_element(n, p), spow_element(n, q)) == spow_element(n, p * q)

    def test_idempotents_orthogonal(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    product = internal_product(unit(n, k), unit(n, l))
                    assert product == (unit(n, k) if k == l else EulerianElement(n, (0,) * n))

    def test_coordinates_stay_integers(self):
        assert all(type(c) is int for c in spow_element(5, 3).coords + class_element(5, 2).coords)
        with pytest.raises(ValueError, match="^coordinates must be integers or Fractions"):
            EulerianElement(2, (1, 0.5))

    def test_identity_element(self):
        u, one = EulerianElement(4, coords(3, "-1/2", 0, 7)), EulerianElement(4, (1,) * 4)
        assert internal_product(u, one) == u
        assert one == spow_element(4, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            internal_product(spow_element(2, 1), spow_element(3, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n))))
    def test_commutative_associative(self, uvw):
        u, v, w = uvw
        assert internal_product(u, v) == internal_product(v, u)
        assert internal_product(internal_product(u, v), w) == internal_product(u, internal_product(v, w))


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
        assert (M.entry(1, 1), M.entry(2, 2)) == (Fraction(1, 2), 2)


class TestWorpitzkyMatrix:
    def test_degree_one(self):
        W = worpitzky_matrix(1)
        assert (W.numerators, W.denominator) == (((1,),), 1)
        assert W.entry(1, 1) == 1

    def test_degree_two(self):
        # 2! W over 2!, each entry read as a Fraction in lowest terms
        W = worpitzky_matrix(2)
        assert (W.numerators, W.denominator) == (((1, 1), (-1, 1)), 2)
        entries = tuple(tuple(W.entry(i, j) for j in (1, 2)) for i in (1, 2))
        assert entries == (coords("1/2", "1/2"), coords("-1/2", "1/2"))

    def test_columns_rebuild_idempotents(self):
        n = 3
        W = worpitzky_matrix(n)
        for j in range(1, n + 1):
            columns = [[W.entry(i, j) * c for c in class_element(n, i).coords] for i in range(1, n + 1)]
            assert tuple(map(sum, zip(*columns))) == unit(n, j).coords


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
            assert all(F.entry(i, 1) == 1 for i in range(1, n + 1))

    def test_last_row_is_eulerian(self):
        for n in range(1, 9):
            F = foulkes_matrix(n)
            assert F.numerators[n - 1] == eulerian_numbers(n)

    def test_columns_are_class_elements(self):
        for n in range(1, 15):
            F = foulkes_matrix(n)
            for j in range(1, n + 1):
                assert tuple(row[j - 1] for row in F.numerators) == class_element(n, j).coords

    @pytest.mark.parametrize("n", range(1, 11))
    def test_inverse_of_worpitzky(self, n):
        F, W = foulkes_matrix(n), worpitzky_matrix(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                value = sum(F.entry(i, t) * W.entry(t, j) for t in range(1, n + 1))
                assert value == (1 if i == j else 0)

    def test_power_identity(self):
        # sum_i F(k, i) C(x + n - i, n) = x^k for integer x
        for n in range(1, 6):
            F = foulkes_matrix(n)
            for x in range(1, 11):
                for k in range(1, n + 1):
                    total = sum(F.entry(k, i) * binomial(x + n - i, n) for i in range(1, n + 1))
                    assert total == x**k


class TestTriangularity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_minus_spow_in_lower_span(self, n):
        # solve the Vandermonde system expressing A(n, i) over S[1..i]:
        # the leading coefficient must be 1 and nothing beyond index i occurs
        for i in range(1, n + 1):
            target = list(class_element(n, i).coords)
            basis = [list(spow_element(n, m).coords) for m in range(1, i + 1)]
            solution = _solve_exact([list(col) for col in zip(*basis)], target)
            assert solution is not None
            assert solution[-1] == 1
            terms = [[c * s for s in spow_element(n, m).coords] for m, c in enumerate(solution, start=1)]
            assert tuple(map(sum, zip(*terms))) == class_element(n, i).coords


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
    for comp in compositions(n):
        total = Fraction(0)
        for cuts in itertools.combinations(range(1, comp.length), k - 1):
            bounds = (0, *cuts, comp.length)
            total += math.prod(Fraction((-1) ** (b - a - 1), b - a) for a, b in zip(bounds, bounds[1:]))
        if total:
            terms[comp] = total / math.factorial(k)
    return terms


class TestIdempotentExpansion:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_split_sum(self, n):
        for k in range(1, n + 1):
            assert idempotent_s_expansion(n, k).terms == _split_sum_expansion(n, k)

    def test_first_of_degree_two(self):
        expansion = idempotent_s_expansion(2, 1)
        assert expansion.terms == {
            Composition((2,)): Fraction(1),
            Composition((1, 1)): Fraction(-1, 2),
        }

    def test_second_of_degree_two(self):
        assert idempotent_s_expansion(2, 2).terms == {Composition((1, 1)): Fraction(1, 2)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sum_is_complete_word(self, n):
        total = idempotent_s_expansion(n, 1)
        for k in range(2, n + 1):
            total = total + idempotent_s_expansion(n, k)
        assert total.terms == {Composition((n,)): Fraction(1)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            idempotent_s_expansion(3, 0)
        with pytest.raises(ValueError):
            idempotent_s_expansion(3, 4)

    def test_words_over_the_budget_are_refused_before_any_composition(self, monkeypatch):
        # 2^(n-1) S-words: n = 18 gives 2^17, the most admitted
        monkeypatch.setattr(eulerian, "compositions", _refuse_building)
        with pytest.raises(_Built):
            idempotent_s_expansion(18, 1)
        monkeypatch.undo()
        # past it, compositions(n) refuses before it builds one and before the Stirling row
        monkeypatch.setattr(combinat, "Composition", _refuse_building)
        monkeypatch.setattr(eulerian, "Fraction", _refuse_building)
        for n in (19, 40, 10**20):
            with pytest.raises(BudgetError, match=f"^compositions: 2\\^{n - 1} compositions of {n} exceed"):
                idempotent_s_expansion(n, 1)


class _Built(Exception):
    """Raised in place of the first object a computation builds."""


def _refuse_building(*args):
    raise _Built
