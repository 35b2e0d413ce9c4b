import doctest
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import combinat
from carrychain.combinat import (
    BudgetError,
    _label,
    binomial,
    compositions,
    eulerian_numbers,
    superfactorial,
)
from reference import LARGEST_ADMITTED, Permutation


def test_doctests():
    assert doctest.testmod(combinat).failed == 0


class TestBinomial:
    def test_plain(self):
        assert binomial(5, 2) == 10

    def test_upper_smaller_than_lower(self):
        assert binomial(1, 2) == 0

    def test_negative_upper(self):
        assert binomial(-3, 2) == 0

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binomial(5, -1)

    def test_pascal_recurrence(self):
        for a in range(1, 65):
            for k in range(1, a + 2):
                assert binomial(a, k) == binomial(a - 1, k - 1) + binomial(a - 1, k)


class TestCompositions:
    def test_three(self):
        assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_empty(self):
        assert compositions(0) == [()]

    def test_counts(self):
        # every composition once, in lexicographic order on the parts
        for n in range(0, 13):
            parts = compositions(n)
            assert len(parts) == (2 ** (n - 1) if n else 1)
            assert parts == sorted(set(parts))
            assert all(sum(part) == n and min(part, default=1) >= 1 for part in parts)

    def test_the_budget_admits_n_18(self):
        assert len(compositions(18)) == 2**17 == combinat.IDEMPOTENT_TERMS

    @pytest.mark.parametrize("n", [19, 1200, 10**20])
    def test_over_the_budget_is_refused_without_recursion(self, n):
        # the recursive version raised RecursionError at n = 1200
        with pytest.raises(BudgetError, match=f"compositions: 2\\^{n - 1} compositions of {n} exceed the budget"):
            compositions(n)


class TestDescentStatistics:
    def test_identity(self):
        p = Permutation.identity(4)
        assert (p.descent_set(), p.descent_count()) == (frozenset(), 0)

    def test_single_descent(self):
        p = Permutation((1, 3, 2))
        assert (p.descent_set(), p.descent_count()) == (frozenset({2}), 1)

    def test_reverse(self):
        p = Permutation((4, 3, 2, 1))
        assert (p.descent_set(), p.descent_count()) == (frozenset({1, 2, 3}), 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_round_trip(self, images):
        # the descent set is the cut set of the composition with the same cuts
        p = Permutation(tuple(images))
        dset, count = p.descent_set(), p.descent_count()
        bounds = [0, *sorted(dset), p.n]
        parts = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        assert parts in compositions(p.n)
        assert set(itertools.accumulate(parts[:-1])) == dset
        assert count == len(dset)


class TestPermutation:
    """The tests' reference for rank space, which lives in ``reference``."""

    def test_compose_then_apply(self):
        p, q = Permutation((2, 3, 1)), Permutation((1, 3, 2))
        assert (p * q).images == tuple(p.images[q.images[i] - 1] for i in range(3))

    def test_inverse(self):
        p = Permutation((3, 1, 4, 2))
        assert p * p.inverse() == Permutation.identity(4)
        assert p.inverse().images == (2, 4, 1, 3)

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_empty_permutation_legal(self):
        p = Permutation(())
        assert p.descent_count() == 0
        assert p.descent_set() == frozenset()


def test_labels_join_the_values_with_commas():
    assert (_label((1, 3, 2)), _label([12, 1]), _label(())) == ("1,3,2", "12,1", "")


class TestEulerianNumbers:
    def test_single(self):
        assert eulerian_numbers(1) == (1,)

    def test_small(self):
        assert eulerian_numbers(3) == (1, 4, 1)

    def test_row_sum_is_factorial(self):
        for n in range(1, 21):
            assert sum(eulerian_numbers(n)) == math.factorial(n)

    def test_symmetry(self):
        for n in range(1, 21):
            row = eulerian_numbers(n)
            assert row == row[::-1]

    def test_a_deep_row_needs_no_recursion(self):
        # the deepest row admitted; a recursion once per n raised
        # RecursionError at n = 1500 in a fresh process
        n = LARGEST_ADMITTED["eulerian_numbers(n)"][1]
        row = eulerian_numbers(n)
        assert sum(row) == math.factorial(n)
        assert row == row[::-1]

    def test_a_row_over_the_work_budget_is_refused_before_any_product(self, monkeypatch):
        # the largest row admitted takes seconds to build, so a check that
        # stops whatever it admits stands for the recurrence
        check = combinat._check_work

        def refused_past_the_check(*args):
            check(*args)
            raise AssertionError("admitted")

        monkeypatch.setattr(combinat, "_check_work", refused_past_the_check)
        n = LARGEST_ADMITTED["eulerian_numbers(n)"][1]
        with pytest.raises(AssertionError, match="^admitted$"):
            eulerian_numbers(n)
        for n in (n + 1, 4000, 10**30):
            with pytest.raises(BudgetError, match=r"^eulerian_numbers: estimated work 2\^[\d.]+ exceeds the budget 2\^28$"):
                eulerian_numbers(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n):
        histogram = [0] * n
        for images in itertools.permutations(range(1, n + 1)):
            histogram[Permutation(images).descent_count()] += 1
        assert tuple(histogram) == eulerian_numbers(n)

    def test_out_of_range(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                eulerian_numbers(n)


class TestSuperfactorial:
    def test_values(self):
        assert superfactorial(1) == 1
        assert superfactorial(2) == 2
        assert superfactorial(4) == 288

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            superfactorial(0)
