import doctest
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import combinat
from carrychain.combinat import (
    Composition,
    Permutation,
    all_permutations,
    binomial,
    compositions,
    eulerian_number,
    eulerian_numbers,
    superfactorial,
)


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
        assert [c.parts for c in compositions(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_empty(self):
        assert compositions(0) == [Composition(())]

    def test_counts(self):
        for n in range(1, 11):
            assert len(compositions(n)) == 2 ** (n - 1)

    def test_weights(self):
        for c in compositions(5):
            assert c.weight == 5
            assert c.length == len(c.parts)

    def test_bad_parts_rejected(self):
        with pytest.raises(ValueError):
            Composition((2, 0, 1))

    def test_descent_set_round_trip(self):
        for c in compositions(6):
            assert Composition.from_descent_set(6, c.descent_set()) == c


class TestDescentStatistics:
    def test_identity(self):
        p = Permutation.identity(4)
        dset, count, comp = p.descent_set(), p.descent_count(), p.descent_composition()
        assert (dset, count, comp.parts) == (frozenset(), 0, (4,))

    def test_single_descent(self):
        p = Permutation((1, 3, 2))
        dset, count, comp = p.descent_set(), p.descent_count(), p.descent_composition()
        assert (dset, count, comp.parts) == (frozenset({2}), 1, (2, 1))

    def test_reverse(self):
        p = Permutation((4, 3, 2, 1))
        dset, count, comp = p.descent_set(), p.descent_count(), p.descent_composition()
        assert (dset, count, comp.parts) == (frozenset({1, 2, 3}), 3, (1, 1, 1, 1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_round_trip(self, images):
        p = Permutation(tuple(images))
        dset, count, comp = p.descent_set(), p.descent_count(), p.descent_composition()
        assert comp.descent_set() == dset
        assert count == len(dset)
        assert comp.weight == p.n


class TestPermutation:
    def test_compose_then_apply(self):
        p, q = Permutation((2, 3, 1)), Permutation((1, 3, 2))
        assert (p * q).images == tuple(p(q(i)) for i in (1, 2, 3))

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
        assert p.descent_composition() == Composition(())


class TestEulerianNumbers:
    def test_single(self):
        assert eulerian_number(1, 1) == 1

    def test_small(self):
        assert eulerian_number(3, 2) == 4

    def test_row_sum_is_factorial(self):
        for n in range(1, 21):
            assert sum(eulerian_numbers(n)) == math.factorial(n)

    def test_symmetry(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert eulerian_number(n, k) == eulerian_number(n, n + 1 - k)

    def test_a_deep_row_needs_no_recursion(self):
        # a recursion once per n raised RecursionError here in a fresh process
        row = eulerian_numbers(1500)
        assert sum(row) == math.factorial(1500)
        assert row == row[::-1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n):
        histogram = [0] * n
        for p in all_permutations(n):
            histogram[p.descent_count()] += 1
        assert tuple(histogram) == eulerian_numbers(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eulerian_number(3, 0)
        with pytest.raises(ValueError):
            eulerian_number(3, 4)


class TestSuperfactorial:
    def test_values(self):
        assert superfactorial(1) == 1
        assert superfactorial(2) == 2
        assert superfactorial(4) == 288

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            superfactorial(0)
