import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrychain import oracle
from carrychain.cli import run_verify_all
from carrychain.combinat import BudgetError, Composition, Permutation, compositions
from carrychain.eulerian import SWordExpansion
from carrychain.matrix import amazing_matrix, descent_polynomial
from carrychain.oracle import (
    GroupAlgebraElement,
    LumpingViolation,
    ShuffleMultiset,
    enumerate_b_shuffles,
    expansion_to_group,
    group_identity,
    group_product,
    idempotent_group,
    oracle_descent_polynomial,
    oracle_transition_matrix,
    shuffle_element_from_basis,
)


def perm(*images):
    return Permutation(images)


def support(element):
    return set(element.terms)


def every_permutation(n):
    """S_n in lexicographic order of one-line notation."""
    return [Permutation(images) for images in itertools.permutations(range(1, n + 1))]


# The oracle's types are built from vectors over the ranks.  The helpers
# below rank by the order of itertools.permutations, so that these tests do
# not rest on the oracle's own ranking, and read outcomes back by permutation.


def element_of(n, terms=None):
    """The element sum c p of a {Permutation: c} mapping, over a common denominator."""
    coeffs = {p: Fraction(c) for p, c in (terms or {}).items()}
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    numer = [0] * math.factorial(n)
    for t, p in enumerate(every_permutation(n)):
        if p in coeffs:
            numer[t] = coeffs[p].numerator * (denom // coeffs[p].denominator)
    return GroupAlgebraElement(n, numer, denom)


def shuffle_multiset(n, b, counts):
    """The multiset of a {Permutation: multiplicity} mapping."""
    ranked = [(t, counts[p]) for t, p in enumerate(every_permutation(n)) if p in counts]
    return ShuffleMultiset(n, b, [t for t, _ in ranked], [c for _, c in ranked])


def multiplicity(shuffles):
    """The multiplicities by outcome, in rank order, read from the positions."""
    images = (shuffles.positions.T + 1).tolist()
    return {Permutation(tuple(im)): c for im, c in zip(images, shuffles.counts.tolist())}


def lex_rank(p):
    """The position of p in lexicographic order: its Lehmer code read in the factorial base."""
    return sum(sum(q < v for q in p.images[i + 1 :]) * math.factorial(p.n - 1 - i) for i, v in enumerate(p.images))


# S-words and ribbons reach the group algebra only through expansion_to_group


def word(comp):
    """The complete word S^I, as the expansion with the one term S^I."""
    return expansion_to_group(SWordExpansion(comp.weight, {comp: Fraction(1)}))


def ribbon(comp):
    """The ribbon sum of I, every permutation whose descent set is exactly
    the cut set of I: the signed sum of the words S^J over the J whose cuts
    lie among those of I."""
    cuts = comp.descent_set()
    coarser = {J: (-1) ** (comp.length - J.length) for J in compositions(comp.weight) if J.descent_set() <= cuts}
    return expansion_to_group(SWordExpansion(comp.weight, coarser))


class TestRibbonSum:
    def test_single_part_is_identity(self):
        for n in range(1, 6):
            assert support(ribbon(Composition((n,)))) == {Permutation.identity(n)}

    def test_all_ones_degree_two(self):
        assert support(ribbon(Composition((1, 1)))) == {perm(2, 1)}

    def test_two_one(self):
        assert support(ribbon(Composition((2, 1)))) == {perm(1, 3, 2), perm(2, 3, 1)}

    def test_partitions_the_group(self):
        for n in range(1, 6):
            assert sum(len(ribbon(comp).terms) for comp in compositions(n)) == math.factorial(n)

    def test_bound(self):
        with pytest.raises(BudgetError, match="^S-word expansions are limited to n <= 6, got 9$"):
            ribbon(Composition((9,)))


class TestSWordToGroup:
    def test_single_part(self):
        assert support(word(Composition((2,)))) == {Permutation.identity(2)}

    def test_one_one(self):
        assert support(word(Composition((1, 1)))) == {perm(1, 2), perm(2, 1)}

    def test_finest_word_is_whole_group(self):
        element = word(Composition((1, 1, 1)))
        assert len(element.terms) == 6
        assert all(coeff == 1 for coeff in element.terms.values())

    def test_is_sum_of_coarser_ribbons(self):
        comp = Composition((2, 1, 2))
        total = element_of(5)
        for other in compositions(5):
            if other.descent_set() <= comp.descent_set():
                total = total + ribbon(other)
        assert word(comp) == total


class TestGroupProduct:
    def test_identity_neutral(self):
        u = element_of(3, {perm(2, 3, 1): Fraction(5, 7), perm(1, 3, 2): Fraction(-2)})
        assert group_product(group_identity(3), u) == u
        assert group_product(u, group_identity(3)) == u

    def test_degree_two_idempotents(self):
        e1 = element_of(2, {perm(1, 2): Fraction(1, 2), perm(2, 1): Fraction(-1, 2)})
        e2 = element_of(2, {perm(1, 2): Fraction(1, 2), perm(2, 1): Fraction(1, 2)})
        assert group_product(e1, e1) == e1
        assert group_product(e2, e2) == e2
        assert group_product(e1, e2).is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            group_product(group_identity(2), group_identity(3))

    def test_bound(self):
        # no element of S_9 can be built: stand-ins of degree 9 reach the product's own check
        with pytest.raises(BudgetError, match="^group products are limited"):
            group_product(SimpleNamespace(n=9), SimpleNamespace(n=9))

    def test_composition_order(self):
        # (p * q)(i) = p(q(i)) carried bilinearly
        u = element_of(3, {perm(2, 3, 1): Fraction(1)})
        v = element_of(3, {perm(1, 3, 2): Fraction(1)})
        product = group_product(u, v)
        assert support(product) == {perm(2, 3, 1) * perm(1, 3, 2)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(*(_group_elements(n) for _ in range(3)))))
    def test_associative(self, uvw):
        u, v, w = uvw
        assert group_product(group_product(u, v), w) == group_product(u, group_product(v, w))


def _group_elements(n):
    permutation = st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.lists(st.tuples(permutation, coeff), max_size=4).map(
        lambda items: element_of(n, dict(items))
    )


class TestNormalForm:
    """Elements hold one numerator vector over the ranks and one positive
    denominator in lowest terms, so equal elements hold equal data however
    they were written."""

    def test_unreduced_inputs_give_one_element(self):
        p, q, r = perm(2, 3, 1), perm(1, 3, 2), perm(3, 2, 1)
        quarter = element_of(3, {p: Fraction(1, 4), q: Fraction(-1, 6)})
        forms = [
            element_of(3, {p: Fraction(1, 2), q: Fraction(-1, 3)}),
            element_of(3, {p: Fraction(2, 4), q: Fraction(-2, 6), r: 0}),
            element_of(3, {q: Fraction(1, -3), r: Fraction(0, 5), p: Fraction(-3, -6)}),
            GroupAlgebraElement(3, np.array([0, -4, 0, 6, 0, 0], dtype=np.int8), 12),
            quarter + quarter,
        ]
        for element in forms:
            assert element == forms[0]
            assert (element.numerators.tolist(), element.denominator) == (forms[0].numerators.tolist(), 6)
            assert element.terms == {q: Fraction(-1, 3), p: Fraction(1, 2)}
            assert list(element.terms) == [q, p]  # lexicographic: (1,3,2) before (2,3,1)

    def test_integers_and_cancellation(self):
        p = perm(2, 1, 3)
        two = element_of(3, {p: Fraction(6, 3)})
        assert (two.numerators[2], two.denominator) == (2, 1)
        zero = two + element_of(3, {p: -2})
        assert zero.is_zero() and zero == element_of(3) == GroupAlgebraElement(3, [0] * 6, 7)
        assert (zero.denominator, zero.terms) == (1, {})

    def test_terms_come_out_in_lexicographic_order(self):
        everyone = every_permutation(4)
        shuffled = everyone[::7] + everyone[1::7] + everyone[5::7]
        element = element_of(4, {p: Fraction(i + 1, 3) for i, p in enumerate(shuffled)})
        assert list(element.terms) == sorted(element.terms, key=lambda p: p.images)
        images, numers = element.support()
        assert images == [list(p.images) for p in element.terms]
        assert [Fraction(c, element.denominator) for c in numers] == list(element.terms.values())

    def test_the_views_are_read_only(self):
        element = idempotent_group(3, 2)
        with pytest.raises(TypeError):
            element.terms[Permutation.identity(3)] = Fraction(1)
        with pytest.raises(ValueError):
            element.numerators[0] = 1
        shuffles = enumerate_b_shuffles(3, 2)
        for array in (shuffles.ranks, shuffles.positions[0], shuffles.counts):
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("big", [2**63 - 1, 2**63, 2**63 + 1, 2**70])
    def test_both_sides_of_the_int64_bound(self, big):
        # one numerator past int64 holds the vector as exact Python ints; a
        # sum that comes back under the bound holds int64 again
        identity, swap = Permutation.identity(3), perm(2, 1, 3)
        u = element_of(3, {identity: big, swap: Fraction(1, 3)})
        assert u.numerators.dtype == (np.int64 if 3 * big < 2**63 else object)
        back = u + element_of(3, {identity: -big})
        assert back.numerators.dtype == np.int64
        assert back == element_of(3, {swap: Fraction(1, 3)})
        bigger = element_of(3, {identity: big + 1, swap: Fraction(1, 3)})
        assert u + element_of(3, {identity: 1}) == bigger
        assert u.terms == {identity: big, swap: Fraction(1, 3)}

    def test_elements_are_bounded_by_their_numerators(self):
        # the bound is the S_n table's, which every product, expansion and inversion needs
        assert len(group_identity(6).numerators) == math.factorial(6)
        for n in (7, 10**6):
            for build in (lambda: GroupAlgebraElement(n, []), lambda: group_identity(n)):
                with pytest.raises(BudgetError, match=f"^group-algebra elements are limited to n <= 6, got {n}$"):
                    build()

    @pytest.mark.parametrize("numerators, denominator, message", [
        ([1, 2, 3, 4, 5], 1, "need 6 numerators for S_3"),
        (np.ones((2, 3), dtype=np.int64), 1, "need 6 numerators for S_3"),
        (np.ones(6), 1, "numerators must be integers"),
        ([1, 2, 3, 4, 5, Fraction(1, 2)], 1, "numerators must be integers"),
        (np.ones(6, dtype=bool), 1, "numerators must be integers"),
        (np.ones(6, dtype=np.int64), 0, "denominator must be an integer >= 1"),
        (np.ones(6, dtype=np.int64), -6, "denominator must be an integer >= 1"),
        (np.ones(6, dtype=np.int64), 2.0, "denominator must be an integer >= 1"),
    ])
    def test_malformed_numerators_and_denominators_are_refused(self, numerators, denominator, message):
        with pytest.raises(ValueError, match=message):
            GroupAlgebraElement(3, numerators, denominator)

    def test_the_callers_arrays_stay_writable(self):
        numer = np.arange(6, dtype=np.int64) * 2
        u = GroupAlgebraElement(3, numer, 4)
        assert numer.flags.writeable and not u.numerators.flags.writeable
        numer[0] = 99
        assert (u.numerators.tolist(), u.denominator) == ([0, 1, 2, 3, 4, 5], 2)
        ranks, counts = np.array([0, 1]), np.array([3, 1])  # the outcomes of 2-shuffles of two cards
        shuffles = ShuffleMultiset(2, 2, ranks, counts)
        assert ranks.flags.writeable and counts.flags.writeable
        ranks[1], counts[0] = 7, 7
        assert (shuffles.ranks.tolist(), shuffles.counts.tolist()) == ([0, 1], [3, 1])


class TestIdempotentGroup:
    def test_degree_two(self):
        assert idempotent_group(2, 1).terms == {perm(1, 2): Fraction(1, 2), perm(2, 1): Fraction(-1, 2)}
        assert idempotent_group(2, 2).terms == {perm(1, 2): Fraction(1, 2), perm(2, 1): Fraction(1, 2)}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_idempotent_orthogonal_sum(self, n):
        idems = [idempotent_group(n, k) for k in range(1, n + 1)]
        for k, e in enumerate(idems):
            assert group_product(e, e) == e
            for l in range(k + 1, n):
                assert group_product(e, idems[l]).is_zero()
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        assert total == group_identity(n)

    def test_bound(self):
        with pytest.raises(BudgetError, match="^group-algebra idempotents are limited to n <= 6, got 7$"):
            idempotent_group(7, 1)


class TestEnumerateShuffles:
    def test_two_cards(self):
        shuffles = enumerate_b_shuffles(2, 2)
        assert multiplicity(shuffles) == {perm(1, 2): 3, perm(2, 1): 1}

    def test_single_card(self):
        for b in range(1, 6):
            assert multiplicity(enumerate_b_shuffles(1, b)) == {perm(1): b}

    def test_one_packet_keeps_a_large_deck(self):
        # b = 1 admits n up to 20, the last whose ranks fit in int64: one
        # word, whose stable sort moves no card
        shuffles = enumerate_b_shuffles(20, 1)
        assert (shuffles.ranks.tolist(), shuffles.counts.tolist()) == ([0], [1])
        assert multiplicity(shuffles) == {Permutation.identity(20): 1}

    def test_one_packet_past_the_int64_ranks_is_refused_before_any_work(self, monkeypatch):
        assert math.factorial(20) < 2**63 < math.factorial(21)
        monkeypatch.setattr(oracle, "_unrank", lambda *args: pytest.fail("work started past the rank bound"))
        for n in (21, 10**6, 10**100):
            with pytest.raises(BudgetError, match="^rank budget exceeded: .* past n = 20$"):
                enumerate_b_shuffles(n, 1)
            with pytest.raises(BudgetError, match="^rank budget exceeded"):
                oracle_descent_polynomial(n, 1)

    def test_an_outcome_outside_the_support_is_refused(self):
        # (2,4,1,3) has an inverse with two descents: no 2-shuffle reaches it
        shuffle_multiset(4, 2, {Permutation.identity(4): 15, perm(3, 1, 4, 2): 1})
        with pytest.raises(ValueError, match="support"):
            shuffle_multiset(4, 2, {Permutation.identity(4): 15, perm(2, 4, 1, 3): 1})
        with pytest.raises(ValueError, match="all 2\\^4 words"):
            shuffle_multiset(4, 2, {Permutation.identity(4): 15})

    @pytest.mark.parametrize("ranks, counts, message", [
        ([0, 1], [15], "one count per rank"),
        ([[0, 1]], [[15, 1]], "one count per rank"),
        ([1, 0], [1, 15], "ascending strictly inside 0..23"),
        ([0, 0], [15, 1], "ascending strictly"),
        ([-1, 0], [1, 15], "ascending strictly"),
        ([0, 24], [15, 1], "ascending strictly"),
        ([0.0, 1.0], [15, 1], "ranks must be integers"),
        ([0, 1], [16, 0], "multiplicities must be positive"),
        ([0, 1], [15.0, 1.0], "multiplicities must be positive"),
    ])
    def test_malformed_ranks_and_counts_are_refused(self, ranks, counts, message):
        # rank 1 is (1,2,4,3), a 2-shuffle outcome: ([0, 1], [15, 1]) is admitted
        assert ShuffleMultiset(4, 2, [0, 1], [15, 1]).total() == 16
        with pytest.raises(ValueError, match=message):
            ShuffleMultiset(4, 2, ranks, counts)

    def test_total_is_word_count(self):
        for n in range(1, 6):
            for b in range(1, 5):
                assert enumerate_b_shuffles(n, b).total() == b**n

    def test_outcome_bound_refuses_before_any_work(self, monkeypatch):
        # 2^23 words pass the word budget, but up to min(2^23, 23!) distinct
        # outcomes would be kept; nothing may be enumerated
        def no_sorting(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(np, "argsort", no_sorting)
        for n, b in ((23, 2), (9, 4), (18, 2)):
            with pytest.raises(BudgetError, match="outcome budget"):
                enumerate_b_shuffles(n, b)

    def test_outcome_bound_is_min_of_words_and_permutations(self, monkeypatch):
        monkeypatch.setattr(oracle, "OUTCOME_BUDGET", 24)
        # at or under the budget: min(81, 4!) = 24, min(125, 3!) = 6, min(1, 8!) = 1
        for n, b in ((4, 3), (3, 5), (8, 1)):
            assert enumerate_b_shuffles(n, b).total() == b**n
        # over it: min(32, 5!) = 32, min(243, 5!) = 120, min(64, 6!) = 64
        for n, b in ((5, 2), (5, 3), (6, 2)):
            with pytest.raises(BudgetError, match="outcome budget"):
                enumerate_b_shuffles(n, b)

    def test_support_rule_detects_orientation(self):
        # at n = 4 the set of permutations with at most one descent is not
        # closed under inversion, so this check pins the orientation:
        # (3,1,4,2) has two descents but its inverse only one, hence it IS
        # a 2-shuffle outcome; its inverse (2,4,1,3) is not
        shuffles = enumerate_b_shuffles(4, 2)
        assert perm(3, 1, 4, 2) in multiplicity(shuffles)
        assert perm(2, 4, 1, 3) not in multiplicity(shuffles)
        expected = {p for p in every_permutation(4) if p.inverse().descent_count() <= 1}
        assert set(multiplicity(shuffles)) == expected

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"^enumeration budget exceeded: 2\^30 > 10000000$"):
            enumerate_b_shuffles(30, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("b", (1, 2, 3, 4))
    def test_matches_basis_realization(self, n, b):
        # the enumerated multiset carries the basis coefficients on the
        # inverse supports (multiplicity is a function of the inverse's
        # descent class)
        enumerated = enumerate_b_shuffles(n, b).to_group_algebra()
        assert enumerated == shuffle_element_from_basis(n, b).invert_support()


class TestOracleTransition:
    # the rows are word counts out of b^n, as the closed form's entries are

    def test_two_cards(self):
        assert oracle_transition_matrix(2, 2) == ((3, 1), (1, 3))

    def test_three_cards(self):
        assert oracle_transition_matrix(3, 2) == ((4, 4, 0), (1, 6, 1), (0, 4, 4))

    def test_single_card(self):
        assert oracle_transition_matrix(1, 4) == ((4,),)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("b", (2, 3))
    def test_equals_closed_formula(self, n, b):
        # oracle_transition_matrix raises on lumping violations only
        rows = oracle_transition_matrix(n, b)
        assert rows == amazing_matrix(n, b).entries
        assert all(type(c) is int for row in rows for c in row)

    def test_bound(self):
        with pytest.raises(BudgetError, match="^transition oracle is limited to n <= 6, got 7$"):
            oracle_transition_matrix(7, 2)


class TestOracleDescentPolynomial:
    def test_two_cards_two_shuffle(self):
        assert oracle_descent_polynomial(2, 2) == (3, 1)

    def test_two_cards_four_shuffle(self):
        assert oracle_descent_polynomial(2, 4) == (10, 6)

    def test_single_card(self):
        for m in range(1, 6):
            assert oracle_descent_polynomial(1, m) == (m,)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_closed_formula(self, n):
        for b, r in ((2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1), (8, 1)):
            assert oracle_descent_polynomial(n, b**r) == descent_polynomial(n, b, r).coeffs


# The kernels above read one cached S_n table per n; the tests below hold
# each against a naive reference written in this file.


def _table_perms(n):
    return [Permutation(tuple(column)) for column in (oracle._table(n).positions.T + 1).tolist()]


class TestSnTable:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_lexicographic_with_descents(self, n):
        table = oracle._table(n)
        perms = _table_perms(n)
        assert perms == list(every_permutation(n))
        assert table.descents.tolist() == [p.descent_count() for p in perms]
        assert table.masks.tolist() == [sum(1 << (i - 1) for i in p.descent_set()) for p in perms]
        assert [perms[t] for t in table.inverse] == [p.inverse() for p in perms]
        assert table.compose.shape == (len(perms), len(perms))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_compose_every_pair(self, n):
        compose, perms = oracle._table(n).compose, _table_perms(n)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                assert perms[compose[i, j]] == p * q

    def test_compose_every_pair_degree_six(self):
        # all 518,400 pairs against a gather: [i, j, s] holds p_i(p_j(s)) - 1
        table = oracle._table(6)
        images = table.positions.T.astype(np.int64)  # row i holds p_i - 1
        assert np.array_equal(images[table.compose], images[:, images])

    def test_bound(self):
        assert oracle.GROUP_ALGEBRA_MAX_N == 6
        with pytest.raises(BudgetError, match="S_n tables are limited to n <= 6, got 7"):
            oracle._table(7)


class TestRanks:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_ranks_are_lexicographic_positions(self, n):
        images = np.array(list(itertools.permutations(range(n))), dtype=np.int8).reshape(-1, n)
        assert np.array_equal(oracle._unrank(np.arange(len(images)), n), images.T)

    def test_the_last_ranks_that_fit_in_int64(self):
        n = oracle.RANK_MAX_N
        last = np.arange(n - 1, -1, -1, dtype=np.int8)  # n, n-1, ..., 1, less one
        before = np.array([*last[:-2], 0, 1], dtype=np.int8)  # n, ..., 3, 1, 2, less one
        ranks = np.array([math.factorial(n) - 2, math.factorial(n) - 1])
        assert np.array_equal(oracle._unrank(ranks, n), np.stack([before, last], axis=1))


class TestDescentFilter:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ribbons_and_words_in_lexicographic_order(self, n):
        perms = every_permutation(n)
        for comp in compositions(n):
            cuts = comp.descent_set()
            assert list(ribbon(comp).terms.items()) == [(p, 1) for p in perms if p.descent_set() == cuts]
            assert list(word(comp).terms.items()) == [(p, 1) for p in perms if p.descent_set() <= cuts]


def _shuffles_word_by_word(n, b):
    """Every word's outcome, counted in a dict, in lexicographic order."""
    counts = {}
    for word in itertools.product(range(b), repeat=n):
        tau = Permutation(tuple(pos + 1 for pos in sorted(range(n), key=word.__getitem__)))
        counts[tau.inverse()] = counts.get(tau.inverse(), 0) + 1
    return sorted(counts.items(), key=lambda item: item[0].images)


class TestShuffleBlocks:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_word_by_word_in_order(self, n):
        for b in range(1, 71):
            if b**n <= 5000:
                shuffles, expected = enumerate_b_shuffles(n, b), _shuffles_word_by_word(n, b)
                assert list(multiplicity(shuffles).items()) == expected
                assert shuffles.ranks.tolist() == [lex_rank(p) for p, _ in expected]

    @pytest.mark.parametrize("n, b", [(1, 5), (3, 4), (4, 7), (6, 3)])
    def test_block_size_changes_nothing(self, monkeypatch, n, b):
        def results():
            return (list(multiplicity(enumerate_b_shuffles(n, b)).items()), oracle_descent_polynomial(n, b),
                    oracle_transition_matrix(n, b))

        default = results()
        for values in (1, 7):
            monkeypatch.setattr(oracle, "_BLOCK_VALUES", values)
            assert results() == default

    def test_folding_the_held_outcomes_changes_nothing(self, monkeypatch):
        # one word per block, and a fold each time more than 24 outcomes are held
        default = list(multiplicity(enumerate_b_shuffles(4, 3)).items())
        monkeypatch.setattr(oracle, "_BLOCK_VALUES", 1)
        monkeypatch.setattr(oracle, "OUTCOME_BUDGET", 24)
        folds = []
        tally = oracle._tally
        monkeypatch.setattr(oracle, "_tally", lambda held: folds.append(len(held)) or tally(held))
        assert list(multiplicity(enumerate_b_shuffles(4, 3)).items()) == default
        assert len(folds) > 2

    def test_blocks_bound_memory(self):
        # 2^20 words of 4 digits would take 32 MiB as one int64 array
        tracemalloc.start()
        try:
            shuffles = enumerate_b_shuffles(4, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shuffles.total() == 32**4
        assert peak < 4 * 2**20


def _convolve(u, v):
    """Every pair of terms, composed as image tuples, summed in a dict."""
    scale = math.lcm(*(c.denominator for c in (*u.terms.values(), *v.terms.values())))
    v_items = [(q.images, int(b * scale)) for q, b in v.terms.items()]
    acc = {}
    for p, a in u.terms.items():
        a = int(a * scale)
        for q, b in v_items:
            key = tuple(p.images[j - 1] for j in q)
            acc[key] = acc.get(key, 0) + a * b
    return {Permutation(key): Fraction(c, scale**2) for key, c in acc.items() if c}


class TestTableKernels:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_idempotent_products_match_convolution(self, n):
        idems = [idempotent_group(n, k) for k in range(1, n + 1)]
        for e in idems:
            for f in idems:
                assert group_product(e, f).terms == _convolve(e, f)

    @pytest.mark.parametrize(
        "a, b",
        [
            (2**31, (2**63 - 1) // (6 * 2**31)),  # the bound 6 * 2^31 * b just holds: int64
            (2**62, 1),  # over it: each product fits int64, the sums of six do not
            (Fraction(2**62 - 1, 3), Fraction(-1, 5)),  # each factor over its own denominator
        ],
    )
    def test_products_near_the_int64_bound_are_exact(self, a, b):
        # each permutation collects one pair per term of the left factor, six in all
        n = 3
        u = element_of(n, {p: a if p.descent_count() else -a for p in every_permutation(n)})
        v = element_of(n, {p: b for p in every_permutation(n)})
        for x, y in ((u, v), (v, u), (u, u)):
            assert group_product(x, y).terms == _convolve(x, y)

    @pytest.mark.parametrize("n", (3, 6))
    def test_a_zero_factor_gives_zero(self, n):
        u = element_of(n, {Permutation.identity(n): Fraction(2**70)})
        assert group_product(element_of(n), u).is_zero()
        assert group_product(u, element_of(n)).is_zero()

    def test_expansion_near_the_int64_bound_is_exact(self):
        # the identity lies in every S-word, so it collects both coefficients, 2^63 in all
        top, finest = Composition((3,)), Composition((1, 1, 1))
        element = expansion_to_group(SWordExpansion(3, {top: Fraction(2**62), finest: Fraction(2**62)}))
        identity = Permutation.identity(3)
        assert element.terms == {p: 2**63 if p == identity else 2**62 for p in every_permutation(3)}

    def test_corrupt_table_breaks_lumping(self, monkeypatch):
        table = oracle._table(3)
        compose = table.compose.copy()
        compose[:, 1] = compose[:, 0]  # (1,3,2) now acts as the identity
        monkeypatch.setattr(oracle, "_table", lambda n: table._replace(compose=compose))
        with pytest.raises(LumpingViolation):
            oracle_transition_matrix(3, 2)


def test_verify_all_builds_no_permutation(monkeypatch):
    # the rows of `verify all` run in rank space: Permutation objects belong
    # to the views at the edge, which no row reads
    built = []
    original = Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__", lambda self: built.append(self.images) or original(self))
    reports = run_verify_all(5)
    assert all(report.ok for report in reports)
    assert built == []
    assert Permutation.identity(2) and built == [(1, 2)]  # the counter counts


class TestReach:
    """All group-algebra work stops at n = 6, the reach of the S_n table, and
    a request past it is refused, naming its operation, before any table,
    composition, expansion or enumeration is built."""

    @pytest.mark.parametrize("call, operation", [
        (lambda: group_identity(7), "group-algebra elements"),
        # no element of S_7 can be built: stand-ins of degree 7 reach the product's own check
        (lambda: group_product(SimpleNamespace(n=7), SimpleNamespace(n=7)), "group products"),
        (lambda: expansion_to_group(SWordExpansion(7, {Composition((7,)): Fraction(1)})), "S-word expansions"),
        (lambda: shuffle_element_from_basis(7, 2), "S-word realization"),
        (lambda: idempotent_group(7, 1), "group-algebra idempotents"),
        (lambda: oracle_transition_matrix(7, 2), "transition oracle"),
    ], ids=["group_identity", "group_product", "expansion_to_group", "shuffle_element_from_basis",
            "idempotent_group", "oracle_transition_matrix"])
    def test_degree_seven_is_refused_before_any_work(self, monkeypatch, call, operation):
        def no_work(*args):
            raise AssertionError("work started past the cap")

        for name in ("_table", "compositions", "idempotent_s_expansion", "enumerate_b_shuffles"):
            monkeypatch.setattr(oracle, name, no_work)
        with pytest.raises(BudgetError, match=f"^{operation} .*limited to n <= 6, got 7$"):
            call()
