import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from carrychain import combinat, eulerian, matrix
from carrychain.cli import run_verify_all
from carrychain.combinat import WORK_BUDGET, BudgetError, binomial, superfactorial
from carrychain.eulerian import BasisMatrix
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
from reference import (
    LARGEST_ADMITTED,
    Built,
    full_foulkes_determinant,
    full_multiplicativity,
    full_spectrum,
    full_stationary,
    largest,
    refuse_building,
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

    # n - 1, n and n + 1 put the rows of one column on either side of the
    # seam of the walk's runs; 2^256 + 1 walks one run of ceil(n/2) per t
    @pytest.mark.parametrize("n", range(1, 21))
    def test_walked_columns_match_the_alternating_sums(self, n):
        for m in sorted({1, 2, n - 1, n, n + 1, 2**256 + 1} - {0}):
            for rows in sorted({1, (n + 1) // 2}):
                expected = [[amazing_entry(n, m, i, j) for j in range(1, n + 1)] for i in range(1, rows + 1)]
                assert matrix._kernel_rows(n, m, rows) == expected, (n, m, rows)

    @staticmethod
    def walked_x(starts, length):
        return [start + r for start in starts for r in range(length)]

    def recorded(self, monkeypatch):
        """The x of every ``binomial`` and of every walked binomial."""
        taken, walked = [], []
        walk = matrix._walk

        def recorded_walk(n, starts, length):
            walked.extend(self.walked_x(starts, length))
            return walk(n, starts, length)

        monkeypatch.setattr(matrix, "binomial", lambda a, k: taken.append(a) or binomial(a, k))
        monkeypatch.setattr(matrix, "_walk", recorded_walk)
        return taken, walked

    def test_rows_of_one_residue_share_a_column(self, monkeypatch):
        # P(100, 2): two residues, each one column of 100 + 1 + 99 // 2 = 150
        # binomials, whose x = 2q + s are together 0..299, one run: one
        # binomial at its start and 299 steps of the walk; a column per row
        # would take 50 x 101 binomials
        taken, walked = self.recorded(monkeypatch)
        amazing_matrix(100, 2)
        assert (taken, walked) == ([0], list(range(2 * 150)))

    def test_a_wide_base_walks_one_run_per_power(self, monkeypatch):
        # P(10, m), m > 5 = ceil(10/2): rows 1..5 read x = 10 - i + mt,
        # t = 0..10, a run of five for each t
        m = 2**64 + 1
        taken, walked = self.recorded(monkeypatch)
        amazing_matrix(10, m)
        assert taken == [5 + m * t for t in range(11)]
        assert walked == [x + r for x in taken for r in range(5)]

    def wrong(self, monkeypatch, where, wrong_at):
        """One more at x = ``wrong_at``, in ``binomial``, where a run starts,
        or in what ``_walk`` gives, along a run, where the error stays put."""
        if where == "binomial":
            monkeypatch.setattr(matrix, "binomial", lambda a, k: binomial(a, k) + (a == wrong_at))
            return
        walk = matrix._walk

        def wrong_walk(n, starts, length):
            return [v + (x == wrong_at) for x, v in zip(self.walked_x(starts, length), walk(n, starts, length))]

        monkeypatch.setattr(matrix, "_walk", wrong_walk)

    @pytest.mark.parametrize(
        "b, where, wrong_at, caught",
        [
            # P(10, 2) walks x = 0..29 in one run from C(0, 10); the columns
            # C(2q + s, 10) are s = 0 for rows 2 and 4 (q0 = 4, 3), s = 1 for
            # rows 1, 3 and 5 (q0 = 4, 3, 2)
            (2, "binomial", 0, "degree-0 coefficient of row 2 must vanish"),
            (2, "_walk", 1, "degree-0 coefficient of row 1 must vanish"),
            (2, "_walk", 10, "negative entry in row 2 "),
            (2, "_walk", 28, "row 2 of the \\(10, 2\\) matrix sums to"),  # the last entry of row 2 only
            (2, "_walk", 29, "row 1 of the \\(10, 2\\) matrix sums to"),
            # P(10, 11) walks x = 5..9 + 11t, t = 0..10: a wrong start below n
            # stays put, one above n carries along its run
            (11, "binomial", 5, "degree-0 coefficient of row 5 must vanish"),
            (11, "binomial", 16, "negative entry in row 1 "),
            (11, "_walk", 18, "row 3 of the \\(10, 11\\) matrix sums to"),
        ],
    )
    def test_a_corrupted_binomial_is_caught(self, monkeypatch, b, where, wrong_at, caught):
        self.wrong(monkeypatch, where, wrong_at)
        with pytest.raises((AssertionError, ValueError), match=caught):
            amazing_matrix(10, b)

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


def _faulty_matrix(n, b, change):
    """``matrix._matrix`` with ``change`` made to the rows of P(n, b)."""
    exact = matrix._matrix

    def faulty(n_, b_, spectral):
        P = exact(n_, b_, spectral)
        if (n_, b_) != (n, b):
            return P
        rows = [list(row) for row in P.entries]
        change(rows)
        return AmazingMatrix(n, b, tuple(map(tuple, rows)))

    return faulty


def _faulty_table(build, change):
    """``build``, the Worpitzky or Foulkes table, with ``change`` made to
    its integer rows."""

    def faulty(n):
        table = build(n)
        rows = [list(row) for row in table.numerators]
        change(rows)
        return BasisMatrix(n, rows, table.denominator)

    return faulty


def _move_a_unit_in_the_last_row(rows):
    # from column n-1 to column n: the row sum stays b^n, and at n = 7 both
    # columns lie right of ceil(n/2) = 4
    rows[-1][-2] -= 1
    rows[-1][-1] += 1


def _shifted_mirror(n, b, spectral):
    """``_matrix`` for odd n with the mirror shifted by one row: row
    n+1-i is row i+1 reversed.  Every row still sums to b^n."""
    top = [tuple(row) for row in (matrix._spectral_rows if spectral else matrix._kernel_rows)(n, b, (n + 1) // 2)]
    return AmazingMatrix(n, b, tuple(top + [row[::-1] for row in reversed(top[1:])]))


def _mirrored(moves):
    """A change that keeps P centrosymmetric, with its row sums: each
    ``(i, j): d`` of ``moves`` is added at (i, j) and, unless that is its
    own mirror, at (n+1-i, n+1-j)."""

    def change(rows):
        n = len(rows)
        for (i, j), d in moves.items():
            rows[i - 1][j - 1] += d
            if (i, j) != (n + 1 - i, n + 1 - j):
                rows[n - i][n - j] += d

    return change


class TestHalfProducts:
    """The product checks multiply rows or columns 1..ceil(n/2), fold each
    inner sum onto k <= ceil(n/2) and test the mirrors that both rely on:
    they must report what the full products report, and see a fault that
    only the other half holds."""

    @pytest.mark.parametrize("b", (1, 2, 3, 7, 2**300 + 1))
    def test_reports_equal_the_full_products(self, b):
        # odd n has a middle row (and column) that is its own mirror
        for n in range(1, 14):
            assert verify_spectrum(n, b) == full_spectrum(n, b)
            assert verify_stationary(n, b) == full_stationary(n, b)
            for b2 in (1, 3):
                assert verify_multiplicativity(n, b, b2) == full_multiplicativity(n, b, b2)

    EIGENPAIRS = tuple(f"right eigenpair failed: n=7, b=2, j={j}" for j in range(1, 8)) + tuple(
        f"left eigenpair failed: n=7, b=2, i={i}" for i in range(1, 8)
    )

    # At n = 7, b = 2 the eigen checks multiply rows 1..4 and columns 1..4
    # of P, and the multiplicativity check rows 1..4 of P(b1): a unit moved
    # in the last row of P(2) lies outside all of them, and a shifted mirror
    # outside the right eigen products
    @pytest.mark.parametrize(
        "fault",
        [_faulty_matrix(7, 2, _move_a_unit_in_the_last_row), _shifted_mirror],
        ids=["a-unit-moved-in-the-last-row", "mirror-shifted-by-one-row"],
    )
    @pytest.mark.parametrize(
        "check, args, failures",
        [
            (verify_spectrum, (7, 2), EIGENPAIRS),
            (verify_stationary, (7, 2), ("stationary identity failed: n=7, b=2",)),
            (verify_multiplicativity, (7, 2, 3), ("multiplicativity failed: n=7, b1=2, b2=3",)),
        ],
        ids=["spectrum", "stationary", "multiplicativity"],
    )
    def test_a_fault_in_the_mirrored_rows_of_p_fails_every_identity(self, monkeypatch, fault, check, args, failures):
        monkeypatch.setattr(matrix, "_matrix", fault)
        assert check(*args).failures == failures

    def test_a_sign_flipped_in_a_bottom_row_of_w_fails_its_eigenpair(self, monkeypatch):
        # rows 1..4 of P(7, 2) are 0 in column 7, so the multiplied rows of
        # P W never read row 7 of n! W
        def flip(rows):
            rows[-1][2] = -rows[-1][2]

        monkeypatch.setattr(matrix, "worpitzky_matrix", _faulty_table(eulerian.worpitzky_matrix, flip))
        assert verify_spectrum(7, 2).failures == ("right eigenpair failed: n=7, b=2, j=3",)

    # Every row of P(7, 2) is nonzero in a column <= 4, so the multiplied
    # columns see any one changed entry of F or E.  The change below they
    # cannot see: rows 5, 6 and 7 of P are (0, 0, 8, 56), (0, 0, 1, 28) and
    # (0, 0, 0, 8) in columns 1..4, and 1 (8, 56) - 8 (1, 28) + 21 (0, 8) = 0
    UNSEEN = {4: 1, 5: -8, 6: 21}

    @pytest.mark.parametrize("change", [{6: 1}, UNSEEN], ids=["one-entry", "unseen-by-the-left-columns"])
    def test_a_change_in_the_right_half_of_f_fails_its_eigenpair(self, monkeypatch, change):
        def add(rows):
            for k, d in change.items():
                rows[2][k] += d

        monkeypatch.setattr(matrix, "foulkes_matrix", _faulty_table(eulerian.foulkes_matrix, add))
        assert verify_spectrum(7, 2).failures == ("left eigenpair failed: n=7, b=2, i=3",)

    def test_a_change_in_the_right_half_of_the_eulerian_row_fails(self, monkeypatch):
        exact = combinat.eulerian_numbers
        monkeypatch.setattr(
            matrix, "eulerian_numbers", lambda n: tuple(e + self.UNSEEN.get(k, 0) for k, e in enumerate(exact(n)))
        )
        assert verify_stationary(7, 2).failures == ("stationary identity failed: n=7, b=2",)

    # P(2) P(3) = P(6): the multiplied rows 1..4 of P(2) are 0 in column 7,
    # so they never read row 7 of P(3); nor is any row of P(6) past row 4 read
    @pytest.mark.parametrize("b", (3, 6), ids=["second-factor", "product"])
    def test_a_fault_in_the_bottom_rows_of_p_b2_or_p_b1_b2_fails(self, monkeypatch, b):
        monkeypatch.setattr(matrix, "_matrix", _faulty_matrix(7, b, _move_a_unit_in_the_last_row))
        assert verify_multiplicativity(7, 2, 3).failures == ("multiplicativity failed: n=7, b1=2, b2=3",)
        assert verify_spectrum(7, 2).ok and verify_stationary(7, 2).ok

    # Every entry that a change below lowers is positive in P(n, 5) and P(n, 3)
    FOLDED_FAULTS = {
        "7-middle-row": (7, {(4, 2): 1, (4, 4): -2}),  # row 4 is its own mirror
        "7-middle-column": (7, {(2, 4): 1, (2, 3): -1}),  # the middle term of each column's fold
        "7-paired-half": (7, {(2, 6): 1, (2, 5): -1}),  # folded onto columns 2 and 3 of row 2
        "8-middle-row": (8, {(4, 2): 1, (4, 3): -1}),  # row 4, paired with row 5
        # columns 4 and 5, paired with each other; a unit moved between them
        # in row 2 and back in row 7 would be lost on E P = b^n E
        "8-middle-columns": (8, {(2, 4): 1, (2, 2): -1}),
        "8-paired-half": (8, {(2, 7): 1, (2, 6): -1}),
    }

    @pytest.mark.parametrize("fault", FOLDED_FAULTS)
    @pytest.mark.parametrize("b", (5, 3), ids=["p-and-first-factor", "second-factor"])
    def test_a_centrosymmetric_fault_fails_as_in_the_full_products(self, monkeypatch, fault, b):
        # every mirror holds, so only the folded sums can see the change
        n, moves = self.FOLDED_FAULTS[fault]
        monkeypatch.setattr(matrix, "_matrix", _faulty_matrix(n, b, _mirrored(moves)))
        reports = [(verify_multiplicativity(n, 5, 3), full_multiplicativity(n, 5, 3))]
        if b == 5:
            reports += [(verify_spectrum(n, b), full_spectrum(n, b)), (verify_stationary(n, b), full_stationary(n, b))]
        for folded, full in reports:
            assert folded == full and not folded.ok

    @pytest.mark.parametrize("n", (7, 8))
    def test_a_fault_in_the_right_half_of_the_second_factor_is_seen_by_its_mirror(self, monkeypatch, n):
        # the folded sums read columns 1..ceil(n/2) of B = P(n, 3) only; a
        # unit moved from column n-2 to column n-1 of row 1 leaves them, and
        # B no longer centrosymmetric
        def move(rows):
            rows[0][n - 3] -= 1
            rows[0][n - 2] += 1

        monkeypatch.setattr(matrix, "_matrix", _faulty_matrix(n, 3, move))
        failed = (f"multiplicativity failed: n={n}, b1=5, b2=3",)
        assert verify_multiplicativity(n, 5, 3).failures == full_multiplicativity(n, 5, 3).failures == failed
        monkeypatch.setattr(matrix, "_centrosymmetric", lambda rows: True)
        assert verify_multiplicativity(n, 5, 3).ok


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
        monkeypatch.setattr(matrix, "_spectral_rows", refuse_building)
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
        # the normalized matrix is entries over normalizer: (3/4, 1/4), (1/4, 3/4)
        m = amazing_matrix(2, 2)
        assert (m.entries, m.normalizer) == (((3, 1), (1, 3)), 4)

    def test_one_shuffle_is_identity(self):
        for n in range(1, 8):
            m = amazing_matrix(n, 1)
            assert m.entries == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def test_row_sums(self):
        for n in range(1, 13):
            for b in (2, 3, 10):
                m = amazing_matrix(n, b)
                assert all(sum(row) == b**n for row in m.entries)

    def test_normalized_rows_are_probabilities(self):
        m = amazing_matrix(5, 3)
        for row in m.entries:
            assert sum(Fraction(e, m.normalizer) for e in row) == 1
            assert all(e >= 0 for e in row)

    def test_rejects_a_wrong_shape(self):
        # every row below is nonnegative and sums to 2^3: only the shape is wrong
        for entries in (
            ((4, 4, 0), (1, 6, 1)),
            ((4, 4, 0), (1, 6, 1), (0, 8)),
            ((4, 4, 0), (1, 6, 1), (0, 4, 4), (8, 0, 0)),
        ):
            with pytest.raises(ValueError, match="3 rows of 3 entries"):
                AmazingMatrix(3, 2, entries)


# one record of each library type, its field-named repr, and for the
# checked ones, a field value that the checks must refuse
_RECORDS = [
    (
        matrix.AmazingMatrix(2, 2, ((3, 1), (1, 3))),
        "AmazingMatrix(n=2, b=2, entries=((3, 1), (1, 3)))",
        {"entries": ((3, 1), (2, 3))},
        "row 2 of the \\(2, 2\\) matrix sums to 5, expected 4",
    ),
    (
        eulerian.BasisMatrix(2, ((1, 2), (3, 4)), 5),
        "BasisMatrix(n=2, numerators=((1, 2), (3, 4)), denominator=5)",
        {"numerators": ((1, 2),)},
        "expected a 2x2 matrix",
    ),
    (
        eulerian.SWordExpansion(2, (1, -1), 2),
        "SWordExpansion(n=2, numerators=(1, -1), denominator=2)",
        {"numerators": (1,)},
        "expected one numerator per length 1..2, got 1",
    ),
    (
        matrix.DescentPolynomial(2, 2, (3, 1)),
        "DescentPolynomial(n=2, base=2, coeffs=(3, 1))",
        {"coeffs": (5, -1)},
        "expected 2 nonnegative coefficients",
    ),
    (
        matrix.Report("spectrum", {"n": 2, "b": 2}, 4, ()),
        "Report(name='spectrum', params={'n': 2, 'b': 2}, checked=4, failures=())",
        None,
        None,
    ),
]
_IDS = [type(record).__name__ for record, *_ in _RECORDS]


class TestRecords:
    """The records are named tuples: immutable, checked on every path that
    builds one, with a field-named repr."""

    @pytest.mark.parametrize("record, shown, bad, message", _RECORDS, ids=_IDS)
    def test_fields_cannot_be_assigned(self, record, shown, bad, message):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record, shown, bad, message", _RECORDS[:4], ids=_IDS[:4])
    def test_an_invalid_field_is_refused_by_the_constructor_and_by_replace(self, record, shown, bad, message):
        fields = record._asdict() | bad
        with pytest.raises(ValueError, match=message):
            type(record)(**fields)
        with pytest.raises(ValueError, match=message):
            record._replace(**bad)

    @pytest.mark.parametrize("record, shown, bad, message", _RECORDS, ids=_IDS)
    def test_repr_names_the_fields(self, record, shown, bad, message):
        assert repr(record) == shown

    @pytest.mark.parametrize("record, shown, bad, message", _RECORDS, ids=_IDS)
    def test_a_pickle_round_trip_gives_an_equal_record(self, record, shown, bad, message):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record

    def test_replace_normalizes_as_the_constructor_does(self):
        M = eulerian.BasisMatrix(2, ((1, 0), (0, 1)))
        assert M._replace(numerators=[[2, 0], [0, 2]]).numerators == ((2, 0), (0, 2))
        assert M.denominator == 1

    def test_a_record_is_the_tuple_of_its_fields(self):
        assert matrix.DescentPolynomial(2, 2, (3, 1)) == (2, 2, (3, 1))


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
            m = amazing_matrix(n, b)
            P = [[Fraction(e, m.normalizer) for e in row] for row in m.entries]
            assert tuple(sum(p * row[j] for p, row in zip(pi, P)) for j in range(n)) == pi
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("b", (2, 3))
    def test_fixed_point(self, n, b):
        assert verify_stationary(n, b).ok


class TestMultiplicativity:
    def test_squared_two_shuffle(self):
        m2 = amazing_matrix(2, 2).entries
        product = tuple(tuple(sum(m2[i][t] * m2[t][j] for t in range(2)) for j in range(2)) for i in range(2))
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

    @pytest.mark.parametrize("n", [*range(1, 31), 40, 41, 48])
    def test_the_split_equals_the_full_elimination(self, n):
        assert foulkes_determinant(n) == full_foulkes_determinant(n)

    # The split reads only columns 1..ceil(n/2), so a fault right of them,
    # or in the middle column of a row whose mirror negates it, is seen only
    # by the mirror test
    @pytest.mark.parametrize(
        "n, i, j",
        [(7, 3, 6), (7, 4, 7), (8, 2, 5), (8, 5, 8), (7, 2, 4), (7, 6, 4)],
        ids=["7-even-row", "7-odd-row", "8-even-row", "8-odd-row", "7-middle-of-row-2", "7-middle-of-row-6"],
    )
    def test_a_fault_the_split_does_not_read_raises(self, n, i, j):
        def add(rows):
            rows[i - 1][j - 1] += 1

        F = _faulty_table(eulerian.foulkes_matrix, add)(n)
        with pytest.raises(AssertionError, match=f"^row {i} of the degree-{n} Foulkes matrix breaks"):
            foulkes_determinant(n, F)

    def test_a_fault_the_split_does_not_read_fails_verify_all(self, monkeypatch):
        def add(rows):
            if len(rows) == 6:
                rows[2][-1] += 1

        monkeypatch.setattr(matrix, "foulkes_matrix", _faulty_table(eulerian.foulkes_matrix, add))
        (report,) = [r for r in run_verify_all(6) if r.name == "foulkes-determinant"]
        assert (report.checked, report.failures) == (
            5,
            ("AssertionError: row 3 of the degree-6 Foulkes matrix breaks F(i, n+1-j) = (-1)^(n-i) F(i, j)",),
        )

    def test_elimination_against_leibniz_formula(self):
        # sparse random matrices, so zero pivots, row swaps and singular
        # matrices all occur; the 0 x 0 matrix has determinant 1
        rng = random.Random(3)
        for size in range(0, 6):
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
                assert descent_polynomial(n, b, r).coeffs == amazing_matrix(n, b**r).entries[0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            descent_polynomial(0, 2, 1)
        with pytest.raises(ValueError):
            descent_polynomial(2, 2, 0)


def _refuse_past_the_check(monkeypatch):
    """Every closed form builds right past its one work check, so a check
    that refuses whatever it admits stands for the build."""
    check = combinat._check_work

    def refused_past_the_check(*args):
        check(*args)
        raise Built

    for module in (combinat, eulerian, matrix):
        monkeypatch.setattr(module, "_check_work", refused_past_the_check)


class TestLimits:
    @pytest.mark.parametrize("name", LARGEST_ADMITTED)
    def test_the_largest_admitted_size_follows_from_the_price(self, monkeypatch, name):
        # doubling, then bisection, over the price alone: nothing is built
        _refuse_past_the_check(monkeypatch)
        build, pinned = LARGEST_ADMITTED[name]

        def admitted(n):
            try:
                build(n)
            except Built:
                return True
            except BudgetError:
                return False
            raise AssertionError(f"{name} at n = {n} neither passed nor failed its check")

        low, high = 0, 1
        while admitted(high):
            low, high = high, 2 * high
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if admitted(middle) else (low, middle)
        assert low == pinned

    def test_a_refusal_just_past_a_limit_shows_the_excess(self):
        # 2^28.01: rounded to one decimal, the exponent read as the budget's
        n = largest("amazing_matrix(n, 1)") + 1
        with pytest.raises(BudgetError) as refused:
            amazing_matrix(n, 1)
        message = re.fullmatch(r"amazing_matrix: estimated work 2\^([\d.]+) exceeds the budget 2\^28", str(refused.value))
        assert float(message[1]) > 28


class TestWorkBudget:
    def test_matrix_is_refused_before_any_binomial(self, monkeypatch):
        # the largest case at b = 2 passes the check, the next size is
        # refused before the first binomial
        monkeypatch.setattr(matrix, "binomial", refuse_building)
        n = largest("amazing_matrix(n, 2)")
        with pytest.raises(Built):
            amazing_matrix(n, 2)
        for n, b in ((n + 1, 2), (100_000, 2), (121, 2**70)):
            with pytest.raises(BudgetError, match="amazing_matrix"):
                amazing_matrix(n, b)

    def test_descent_polynomial_is_refused_before_the_power(self):
        # 3^(10^12) would take far longer than any test to build
        with pytest.raises(BudgetError, match="descent_polynomial"):
            descent_polynomial(4, 3, 10**12)
        with pytest.raises(BudgetError, match="^descent_polynomial: estimated work"):
            descent_polynomial(1, 2, 10**6)

    def test_foulkes_tables_are_refused_before_they_are_built(self, monkeypatch):
        _refuse_past_the_check(monkeypatch)
        n = largest("foulkes_matrix(n)")
        with pytest.raises(Built):
            eulerian.foulkes_matrix(n)
        with pytest.raises(BudgetError, match="foulkes_matrix"):
            eulerian.foulkes_matrix(n + 1)
        monkeypatch.setattr(matrix, "foulkes_matrix", refuse_building)
        n = largest("foulkes_determinant(n)")
        with pytest.raises(Built):
            foulkes_determinant(n)
        with pytest.raises(BudgetError, match="foulkes_determinant"):
            foulkes_determinant(n + 1)

    def test_worpitzky_table_is_refused_before_it_is_built(self, monkeypatch):
        _refuse_past_the_check(monkeypatch)
        n = largest("worpitzky_matrix(n)")
        with pytest.raises(Built):
            eulerian.worpitzky_matrix(n)
        with pytest.raises(BudgetError, match="worpitzky_matrix"):
            eulerian.worpitzky_matrix(n + 1)

    def test_spectrum_is_refused_before_the_transition_matrix(self, monkeypatch):
        # the eigen products are counted before any table is built
        for name in ("binomial", "worpitzky_matrix", "foulkes_matrix"):
            monkeypatch.setattr(matrix, name, refuse_building)
        n = largest("verify_spectrum(n, 2)")
        with pytest.raises(Built):
            verify_spectrum(n, 2)
        for n in (n + 1, 200, 201):
            with pytest.raises(BudgetError, match="verify_spectrum"):
                verify_spectrum(n, 2)

    def test_matrix_products_are_refused_before_any_matrix(self, monkeypatch):
        monkeypatch.setattr(matrix, "binomial", refuse_building)
        n = largest("verify_multiplicativity(n, 2, 2)")
        with pytest.raises(Built):
            verify_multiplicativity(n, 2, 2)
        with pytest.raises(BudgetError, match="verify_multiplicativity"):
            verify_multiplicativity(n + 1, 2, 2)
        n = largest("verify_stationary(n, 2)")
        with pytest.raises(Built):
            verify_stationary(n, 2)
        with pytest.raises(BudgetError, match="verify_stationary"):
            verify_stationary(n + 1, 2)
        # a smaller budget shows that the stationary products are counted
        monkeypatch.setattr(combinat, "WORK_BUDGET", 100)
        with pytest.raises(BudgetError, match="verify_stationary"):
            verify_stationary(10, 2)

    def test_deep_matrices_are_counted_on_the_spectral_path(self, monkeypatch):
        n = largest("amazing_matrix(n, 2**2048)")
        assert amazing_matrix(n, 2**2048).n == n
        monkeypatch.setattr(matrix, "_spectral_rows", refuse_building)
        with pytest.raises(Built):
            amazing_matrix(n, 2**2048)
        with pytest.raises(BudgetError, match="amazing_matrix"):
            amazing_matrix(n + 1, 2**2048)
        # at b = 2^8192 the spectral path admits n = 11 and the row kernel
        # would refuse it
        with pytest.raises(Built):
            amazing_matrix(11, 2**8192)
        monkeypatch.setattr(matrix, "_SPECTRAL_MIN_BITS", 2**14)
        with pytest.raises(BudgetError, match="amazing_matrix"):
            amazing_matrix(11, 2**8192)

    def test_deep_descent_polynomials_are_counted_before_the_power(self, monkeypatch):
        monkeypatch.setattr(matrix, "_spectral_rows", refuse_building)
        with pytest.raises(Built):
            descent_polynomial(16, 3, 7939)
        with pytest.raises(BudgetError, match="descent_polynomial"):
            descent_polynomial(16, 3, 7940)

    def test_benchmarked_sizes_pass_a_third_of_the_budget(self, monkeypatch):
        # every closed-form size of the benchmark's full workloads
        monkeypatch.setattr(combinat, "WORK_BUDGET", WORK_BUDGET // 3)
        amazing_matrix(100, 2)
        amazing_matrix(80, 3)
        amazing_matrix(30, 15)
        amazing_matrix(16, 3**1000)
        amazing_matrix(12, 2**3000)
        amazing_matrix(10, 2**400)
        descent_polynomial(60, 2, 20)
        descent_polynomial(16, 3, 1000)
        descent_polynomial(16, 3, 3000)
        descent_polynomial(12, 2, 1000)
        eulerian.worpitzky_matrix(30)
        assert verify_multiplicativity(10, 2**500, 3**300).ok
        assert verify_multiplicativity(40, 3, 5).ok
        assert verify_spectrum(40, 3).ok
        assert verify_spectrum(12, 2**1000).ok
        assert verify_stationary(60, 2).ok
        assert foulkes_determinant(40) == superfactorial(40)
