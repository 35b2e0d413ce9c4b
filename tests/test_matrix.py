import itertools
import math
import random
from fractions import Fraction

import pytest

from carrychain import combinat, eulerian, matrix
from carrychain.combinat import WORK_BUDGET, BudgetError, binomial, superfactorial
from carrychain.matrix import (
    AmazingMatrix,
    amazing_entry,
    amazing_matrix,
    descent_polynomial,
    foulkes_determinant,
    verify_multiplicativity,
    verify_spectrum,
    verify_stationary,
)


class TestAmazingEntry:
    def test_two_by_two(self):
        assert amazing_matrix(2, 2).entries == ((3, 1), (1, 3))

    def test_three_by_three(self):
        assert amazing_matrix(3, 2).entries == ((4, 4, 0), (1, 6, 1), (0, 4, 4))

    def test_single_state(self):
        for b in range(1, 8):
            assert amazing_entry(1, b, 1, 1) == b

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            amazing_entry(3, 2, 0, 1)
        with pytest.raises(ValueError):
            amazing_entry(3, 2, 1, 4)

    def test_nonnegative(self):
        for n in range(1, 13):
            for b in range(1, 11):
                assert all(amazing_entry(n, b, i, j) >= 0 for i in range(1, n + 1) for j in range(1, n + 1))

    def test_an_entry_over_the_budget_is_refused_before_any_binomial(self, monkeypatch):
        monkeypatch.setattr(matrix, "binomial", lambda a, k: pytest.fail("binomial computed over the budget"))
        for n, b, i, j in ((2000, 2**64, 1000, 1000), (1500, 2**100, 1, 1500), (60, 2**3000, 1, 60)):
            with pytest.raises(BudgetError, match="^amazing_entry: estimated work"):
                amazing_entry(n, b, i, j)

    def test_a_large_deck_at_a_small_column_is_admitted(self):
        # C(n + bj - i, n) = C(n + bj - i, bj - i) is a product of at most bj
        # factors, so column 1 of a deck of 20,000 costs two small terms
        assert amazing_entry(20_000, 2, 1, 1) == 20_001


class TestRowKernel:
    @staticmethod
    def entry_grid(n, b):
        return tuple(tuple(amazing_entry(n, b, i, j) for j in range(1, n + 1)) for i in range(1, n + 1))

    def test_matches_alternating_sums(self):
        for n in range(1, 13):
            for b in range(1, 11):
                assert amazing_matrix(n, b).entries == self.entry_grid(n, b)

    @pytest.mark.parametrize("b", (2**200, 3**1000))
    def test_matches_alternating_sums_for_huge_bases(self, b):
        # odd n has a middle row that is its own mirror, even n a seam
        # between the computed half and the mirrored half; amazing_matrix
        # takes the row kernel at 2^200 and the spectral path at 3^1000
        for n in range(1, 10):
            grid = self.entry_grid(n, b)
            assert amazing_matrix(n, b).entries == grid
            for spectral in (False, True):
                assert matrix._matrix(n, b, spectral).entries == grid

    # b = 1, b < n/2, b near n, b > n and a 255-bit base, on the row kernel
    # at every size; one row, and the ceil(n/2) rows amazing_matrix builds
    @pytest.mark.parametrize("n", (1, 2, 7, 12, 25))
    def test_residue_columns_match_the_alternating_sums(self, n):
        for b in sorted({1, 2, max(1, n // 3), max(1, n - 1), n, n + 1, 2 * n + 3, 2**255 - 19}):
            for rows in sorted({1, (n + 1) // 2}):
                expected = [[amazing_entry(n, b, i, j) for j in range(1, n + 1)] for i in range(1, rows + 1)]
                assert matrix._kernel_rows(n, b, rows) == expected, (n, b, rows)

    def test_rows_of_one_residue_share_a_column(self, monkeypatch):
        # P(100, 2): two residues, each one column of 100 + 1 + 99 // 2 = 150
        # binomials; a column per row would take 50 x 101
        calls = []
        monkeypatch.setattr(matrix, "binomial", lambda a, k: calls.append(a) or binomial(a, k))
        amazing_matrix(100, 2)
        assert len(calls) == 2 * 150
        assert sorted(calls) == sorted(2 * q + s for s in (0, 1) for q in range(150))

    @pytest.mark.parametrize(
        "wrong_at, caught",
        [
            # columns of 15 binomials C(2q + s, 10): s = 0 for rows 2 and 4
            # (q0 = 4, 3), s = 1 for rows 1, 3 and 5 (q0 = 4, 3, 2)
            (0, "degree-0 coefficient of row 2 must vanish"),
            (1, "degree-0 coefficient of row 1 must vanish"),
            (10, "negative entry in row 2 "),
            (28, "row 2 of the \\(10, 2\\) matrix sums to"),  # the last entry of row 2 only
            (29, "row 1 of the \\(10, 2\\) matrix sums to"),
        ],
    )
    def test_a_corrupted_binomial_is_caught(self, monkeypatch, wrong_at, caught):
        monkeypatch.setattr(matrix, "binomial", lambda a, k: binomial(a, k) + (a == wrong_at))
        with pytest.raises((AssertionError, ValueError), match=caught):
            amazing_matrix(10, 2)

    def test_rejects_bad_arguments(self):
        for n, b in ((0, 2), (2, 0), (-1, 3)):
            with pytest.raises(ValueError):
                amazing_matrix(n, b)

    def test_checks_see_a_swap_that_keeps_row_sums(self, monkeypatch):
        exact = amazing_matrix(4, 2)
        rows = [list(row) for row in exact.entries]
        rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
        assert rows[1][0] != rows[1][1]
        swapped = AmazingMatrix(4, 2, tuple(map(tuple, rows)))  # row sums still b^n
        exact_matrix = matrix._matrix

        def swap_p_4_2(n, b, spectral):
            return swapped if (n, b) == (4, 2) else exact_matrix(n, b, spectral)

        monkeypatch.setattr(matrix, "_matrix", swap_p_4_2)
        spectrum = verify_spectrum(4, 2)
        assert not spectrum.ok and spectrum.checked == 8
        assert all("eigenpair failed: n=4, b=2" in f for f in spectrum.failures)
        stationary = verify_stationary(4, 2)
        assert stationary.failures == ("stationary identity failed: n=4, b=2",)
        # the swapped P(2) squared is compared with the exact P(4)
        multiplicativity = verify_multiplicativity(4, 2, 2)
        assert multiplicativity.failures == ("multiplicativity failed: n=4, b1=2, b2=2",)


def _base(bits: int) -> int:
    """An odd base of exactly ``bits`` bits, fixed by its size."""
    return random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1


class TestSpectralPath:
    # bit lengths on both sides of the threshold
    BITS = (2, 64, matrix._SPECTRAL_MIN_BITS - 1, matrix._SPECTRAL_MIN_BITS, 700)

    @pytest.mark.parametrize("bits", BITS)
    def test_paths_agree(self, bits, monkeypatch):
        m = _base(bits)
        for n in range(1, 17):
            assert matrix._matrix(n, m, spectral=True) == matrix._matrix(n, m, spectral=False)
        for r in (1, 2):
            polynomials = []
            for threshold in (1, 10**9):  # every base spectral, then none
                monkeypatch.setattr(matrix, "_SPECTRAL_MIN_BITS", threshold)
                polynomials.append([descent_polynomial(n, m, r) for n in (1, 2, 7, 16)])
            assert polynomials[0] == polynomials[1]

    def test_dispatch_follows_the_bit_length(self, monkeypatch):
        paths = []

        def recording(build, spectral):
            def rows_and_path(n, m, rows):
                paths.append(spectral)
                return build(n, m, rows)

            return rows_and_path

        monkeypatch.setattr(matrix, "_kernel_rows", recording(matrix._kernel_rows, False))
        monkeypatch.setattr(matrix, "_spectral_rows", recording(matrix._spectral_rows, True))
        for bits in self.BITS:
            amazing_matrix(3, _base(bits))
        descent_polynomial(3, 2, matrix._SPECTRAL_MIN_BITS - 2)
        descent_polynomial(3, 2, matrix._SPECTRAL_MIN_BITS - 1)
        assert paths == [False, False, False, True, True, False, True]

    def test_foulkes_columns_mirror_up_to_the_row_sign(self):
        # the symmetry that lets the spectral path compute half the columns
        for n in range(1, 16):
            F = eulerian.foulkes_matrix(n).numerators
            for k, row in enumerate(F, start=1):
                assert row[::-1] == tuple((-1) ** (n - k) * f for f in row)

    def test_a_wrong_worpitzky_entry_is_refused(self, monkeypatch):
        exact = eulerian.worpitzky_matrix

        def corrupted(n):
            W = exact(n)
            rows = [list(row) for row in W.numerators]
            rows[0][0] += 1
            return eulerian.BasisMatrix(n, rows, W.denominator)

        monkeypatch.setattr(matrix, "worpitzky_matrix", corrupted)
        # 3^1000 = 9 mod 4!, so the wrong entry leaves a remainder 9 F(1, 1)
        with pytest.raises(AssertionError, match="not divisible by n! = 24"):
            descent_polynomial(4, 3, 1000)
        with pytest.raises(AssertionError, match="not divisible by n! = 24"):
            amazing_matrix(4, 3**1000)

    def test_checks_use_the_row_kernel(self, monkeypatch):
        # a spectral P would reduce the eigen checks to F W = I
        monkeypatch.setattr(matrix, "_spectral_rows", _refuse_building)
        assert verify_spectrum(12, 2**1000).ok
        assert verify_stationary(12, 2**1000).ok

    def test_multiplicativity_builds_one_matrix_spectrally(self, monkeypatch):
        calls = []
        build = matrix._spectral_rows
        monkeypatch.setattr(matrix, "_spectral_rows", lambda n, m, rows: calls.append(m) or build(n, m, rows))
        assert verify_multiplicativity(10, 2**500, 3**300).ok
        assert calls == [2**500 * 3**300]


class TestAmazingMatrix:
    def test_normalized(self):
        assert amazing_matrix(2, 2).normalized() == (
            (Fraction(3, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(3, 4)),
        )

    def test_normalized_builds_the_normalizer_once(self, monkeypatch):
        m = amazing_matrix(10, 3**600)
        rows = tuple(tuple(Fraction(e, 3**6000) for e in row) for row in m.entries)
        built = []
        power = AmazingMatrix.normalizer.fget
        monkeypatch.setattr(AmazingMatrix, "normalizer", property(lambda self: built.append(1) or power(self)))
        assert m.normalized() == rows
        assert len(built) == 1

    def test_one_shuffle_is_identity(self):
        for n in range(1, 8):
            m = amazing_matrix(n, 1)
            assert m.entries == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def test_row_sums(self):
        for n in range(1, 13):
            for b in (2, 3, 10):
                m = amazing_matrix(n, b)
                assert all(sum(m.row(i)) == b**n for i in range(1, n + 1))

    def test_normalized_rows_are_probabilities(self):
        for row in amazing_matrix(5, 3).normalized():
            assert sum(row) == 1
            assert all(x >= 0 for x in row)

    def test_rejects_a_wrong_shape(self):
        # every row below is nonnegative and sums to 2^3: only the shape is wrong
        for entries in (
            ((4, 4, 0), (1, 6, 1)),
            ((4, 4, 0), (1, 6, 1), (0, 8)),
            ((4, 4, 0), (1, 6, 1), (0, 4, 4), (8, 0, 0)),
        ):
            with pytest.raises(ValueError, match="3 rows of 3 entries"):
                AmazingMatrix(3, 2, entries)


class TestSpectrum:
    def test_hand_checked_pair(self):
        # for n = 2, b = 2: P (1/2, -1/2)^T = 2 (1/2, -1/2)^T and (1,1) P = 4 (1,1)
        report = verify_spectrum(2, 2)
        assert report.ok and report.checked == 4

    def test_degree_one(self):
        for b in (1, 2, 5):
            assert verify_spectrum(1, b).ok

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("b", (2, 3, 5))
    def test_grid(self, n, b):
        assert verify_spectrum(n, b).ok


class TestStationary:
    def test_values(self):
        # the Eulerian distribution E(n, k) / n! is fixed by the normalized matrix
        for n, b, pi in ((1, 2, (1,)), (2, 3, ("1/2", "1/2")), (3, 2, ("1/6", "4/6", "1/6"))):
            pi = tuple(map(Fraction, pi))
            P = amazing_matrix(n, b).normalized()
            assert tuple(sum(p * row[j] for p, row in zip(pi, P)) for j in range(n)) == pi
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("b", (2, 3))
    def test_fixed_point(self, n, b):
        assert verify_stationary(n, b).ok


class TestMultiplicativity:
    def test_squared_two_shuffle(self):
        m2 = amazing_matrix(2, 2)
        product = tuple(
            tuple(sum(m2.entry(i, t) * m2.entry(t, j) for t in range(1, 3)) for j in range(1, 3))
            for i in range(1, 3)
        )
        assert product == ((10, 6), (6, 10))
        assert product == amazing_matrix(2, 4).entries

    def test_one_is_neutral(self):
        for n in range(1, 6):
            for b in (2, 5):
                assert verify_multiplicativity(n, b, 1).ok
                assert verify_multiplicativity(n, 1, b).ok

    def test_commuting_factors(self):
        assert verify_multiplicativity(3, 2, 3).ok
        assert verify_multiplicativity(3, 3, 2).ok

    @pytest.mark.parametrize("n", range(1, 7))
    def test_grid(self, n):
        for b1 in range(1, 5):
            for b2 in range(1, 5):
                assert verify_multiplicativity(n, b1, b2).ok


class TestFoulkesDeterminant:
    def test_small_values(self):
        assert foulkes_determinant(1) == 1
        assert foulkes_determinant(2) == 2
        assert foulkes_determinant(4) == 288

    @pytest.mark.parametrize("n", range(1, 16))
    def test_superfactorial(self, n):
        assert foulkes_determinant(n) == superfactorial(n)
        assert foulkes_determinant(n, eulerian.foulkes_matrix(n)) == superfactorial(n)

    def test_a_table_of_another_degree_is_refused(self):
        with pytest.raises(ValueError, match="degree-5"):
            foulkes_determinant(5, eulerian.foulkes_matrix(4))

    def test_a_table_with_a_denominator_is_refused(self):
        # the integer rows of 4! W are not F, though they have its degree
        with pytest.raises(ValueError, match="^expected the degree-4 Foulkes matrix, got degree 4 over 24$"):
            foulkes_determinant(4, eulerian.worpitzky_matrix(4))

    def test_elimination_against_leibniz_formula(self):
        # sparse random matrices, so zero pivots, row swaps and singular
        # matrices all occur
        rng = random.Random(3)
        for size in range(1, 6):
            for _ in range(40):
                rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(size)] for _ in range(size)]
                leibniz = sum(
                    (-1) ** sum(p[a] > p[c] for a, c in itertools.combinations(range(size), 2))
                    * math.prod(rows[t][p[t]] for t in range(size))
                    for p in itertools.permutations(range(size))
                )
                assert matrix._bareiss_determinant(rows) == leibniz


class TestDescentPolynomial:
    def test_two_cards_two_shuffle(self):
        poly = descent_polynomial(2, 2, 1)
        assert poly.coeffs == (3, 1)
        assert poly.base == 2

    def test_single_card(self):
        assert descent_polynomial(1, 3, 1).coeffs == (3,)

    def test_mass_of_four_shuffle(self):
        poly = descent_polynomial(2, 2, 2)
        assert poly.mass == 16
        assert poly.coeffs == (10, 6)

    def test_mass_invariant(self):
        for n in range(1, 9):
            for b, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (9, 1)):
                poly = descent_polynomial(n, b, r)
                assert poly.mass == (b**r) ** n
                assert all(c >= 0 for c in poly.coeffs)

    def test_matches_first_matrix_row(self):
        # the start state of the chain from a sorted deck has 0 descents, so
        # row 1 of the matrix for parameter b^r is the descent polynomial
        for n in range(1, 7):
            for b, r in ((2, 1), (2, 2), (3, 1), (2, 200), (3, 1000), (7, 40)):
                assert descent_polynomial(n, b, r).coeffs == amazing_matrix(n, b**r).row(1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            descent_polynomial(0, 2, 1)
        with pytest.raises(ValueError):
            descent_polynomial(2, 2, 0)


class _Built(Exception):
    """Raised in place of the first bigint a computation builds."""


def _refuse_building(*args):
    raise _Built


class TestWorkBudget:
    def test_matrix_is_refused_before_any_binomial(self, monkeypatch):
        # the documented largest case at b = 2 passes the check, the next
        # size is refused before the first binomial
        monkeypatch.setattr(matrix, "binomial", _refuse_building)
        with pytest.raises(_Built):
            amazing_matrix(281, 2)
        for n, b in ((282, 2), (100_000, 2), (121, 2**70)):
            with pytest.raises(BudgetError, match="amazing_matrix"):
                amazing_matrix(n, b)

    def test_descent_polynomial_is_refused_before_the_power(self):
        # 3^(10^12) would take far longer than any test to build
        with pytest.raises(BudgetError, match="descent_polynomial"):
            descent_polynomial(4, 3, 10**12)
        with pytest.raises(BudgetError, match="^descent_polynomial: estimated work"):
            descent_polynomial(1, 2, 10**6)

    def test_foulkes_tables_are_refused_before_they_are_built(self, monkeypatch):
        monkeypatch.setattr(eulerian, "_numerator", _refuse_building)
        with pytest.raises(_Built):
            eulerian.foulkes_matrix(200)
        with pytest.raises(BudgetError, match="foulkes_matrix"):
            eulerian.foulkes_matrix(201)
        monkeypatch.setattr(matrix, "foulkes_matrix", _refuse_building)
        with pytest.raises(_Built):
            foulkes_determinant(48)
        with pytest.raises(BudgetError, match="foulkes_determinant"):
            foulkes_determinant(49)

    def test_worpitzky_table_is_refused_before_it_is_built(self, monkeypatch):
        # the table is built past its one check, so a check that refuses
        # whatever it admits stands for the build
        check = eulerian._check_work

        def refused_past_the_check(*args):
            check(*args)
            raise _Built

        monkeypatch.setattr(eulerian, "_check_work", refused_past_the_check)
        with pytest.raises(_Built):
            eulerian.worpitzky_matrix(214)
        with pytest.raises(BudgetError, match="worpitzky_matrix"):
            eulerian.worpitzky_matrix(215)

    def test_spectrum_is_refused_before_the_transition_matrix(self, monkeypatch):
        # the eigen products are counted before any table is built
        for name in ("binomial", "worpitzky_matrix", "foulkes_matrix"):
            monkeypatch.setattr(matrix, name, _refuse_building)
        with pytest.raises(_Built):
            verify_spectrum(118, 2)
        for n in (119, 200, 201):
            with pytest.raises(BudgetError, match="verify_spectrum"):
                verify_spectrum(n, 2)

    def test_matrix_products_are_refused_before_any_matrix(self, monkeypatch):
        monkeypatch.setattr(matrix, "binomial", _refuse_building)
        with pytest.raises(_Built):
            verify_multiplicativity(176, 2, 2)
        with pytest.raises(BudgetError, match="verify_multiplicativity"):
            verify_multiplicativity(177, 2, 2)
        # at b = 2 the transition matrix is refused before its stationary
        # products are; a smaller budget shows that they are counted first
        monkeypatch.setattr(combinat, "WORK_BUDGET", 100)
        with pytest.raises(BudgetError, match="verify_stationary"):
            verify_stationary(10, 2)

    def test_deep_matrices_are_counted_on_the_spectral_path(self, monkeypatch):
        # the row kernel refuses n = 32 at 2049 bits; the spectral path builds
        # it in about 0.1 s and admits sizes up to n = 46
        assert amazing_matrix(32, 2**2048).n == 32
        with pytest.raises(BudgetError, match="amazing_matrix"):
            matrix._matrix(32, 2**2048, spectral=False)
        monkeypatch.setattr(matrix, "_spectral_rows", _refuse_building)
        with pytest.raises(_Built):
            amazing_matrix(46, 2**2048)
        with pytest.raises(BudgetError, match="amazing_matrix"):
            amazing_matrix(47, 2**2048)

    def test_deep_descent_polynomials_are_counted_before_the_power(self, monkeypatch):
        monkeypatch.setattr(matrix, "_spectral_rows", _refuse_building)
        with pytest.raises(_Built):
            descent_polynomial(16, 3, 32287)
        with pytest.raises(BudgetError, match="descent_polynomial"):
            descent_polynomial(16, 3, 32288)

    def test_benchmarked_sizes_pass_a_third_of_the_budget(self, monkeypatch):
        monkeypatch.setattr(combinat, "WORK_BUDGET", WORK_BUDGET // 3)
        amazing_matrix(100, 2)
        amazing_matrix(16, 3**1000)
        amazing_matrix(12, 2**3000)
        descent_polynomial(16, 3, 3000)
        assert verify_multiplicativity(10, 2**500, 3**300).ok
        assert verify_multiplicativity(40, 3, 5).ok
        assert verify_spectrum(40, 3).ok
        assert verify_spectrum(12, 2**1000).ok
        assert verify_stationary(60, 2).ok
        assert foulkes_determinant(40) == superfactorial(40)
