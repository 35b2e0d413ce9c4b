"""Acceptance gate: every criterion below is exact (tolerances are stated
inline where statistical) and prints one PASS/FAIL line.  The exact
identities are the rows of ``carrychain.cli.SUITES``, the table behind
``verify all``, each run here up to its own cap.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from carrychain.cli import SUITES
from carrychain.matrix import amazing_matrix
from carrychain.simulate import SimulationConfig, simulate_carries, simulate_shuffle_chain

SEED = 20260809
TV_TOLERANCE = Fraction(1, 200)  # 0.005
FULL_CAPS = max(suite.cap for suite in SUITES)  # a max_n that reaches every row's cap
# identities each row checks at its full cap: a narrower grid fails here
FULL_COUNTS = {
    "row-sums": 234, "nonnegative-entries": 6500, "spectrum": 330, "foulkes-worpitzky-inverse": 385,
    "foulkes-determinant": 8, "worpitzky-power-identity": 360, "foulkes-eulerian-row": 36, "multiplicativity": 128,
    "stationary": 20, "shuffle-power-product": 216, "idempotent-expansion-sum": 8, "group-idempotents": 62,
    "shuffle-element": 72, "oracle-transition": 12, "descent-polynomials": 134,
}


@contextmanager
def criterion(label: str, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label} FAIL ({time.perf_counter() - start:.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {label} PASS ({time.perf_counter() - start:.1f}s): {description}")


def test_criterion_01_matrix_matches_enumeration():
    # the enumeration oracle itself is the table's oracle-transition row
    with criterion("01", "normalized matrix equals frozen values (n in {2,3}, b = 2)"):
        m = amazing_matrix(3, 2)
        assert (m.entries, m.normalizer) == (((4, 4, 0), (1, 6, 1), (0, 4, 4)), 8)
        m = amazing_matrix(2, 2)
        assert (m.entries, m.normalizer) == (((3, 1), (1, 3)), 4)


@pytest.mark.parametrize("suite", SUITES, ids=lambda suite: suite.name)
def test_identity_table(suite):
    with criterion(suite.name, f"every identity of the row, n <= {suite.cap}"):
        report = suite.run(FULL_CAPS)
        assert report.ok, report.failures
        assert report.checked == FULL_COUNTS[suite.name]


def test_criterion_10a_shuffle_simulation():
    with criterion("10a", "GSR shuffle chain (n=3, b=2), 1e6 seeded trials, per-row TV <= 0.005, bit-reproducible"):
        cfg = SimulationConfig(trials=10**6, seed=SEED)
        result = simulate_shuffle_chain(3, 2, cfg)
        exact = amazing_matrix(3, 2)
        for row_tv in result.tv_distances(exact.entries, exact.normalizer):
            assert row_tv <= TV_TOLERANCE
        assert simulate_shuffle_chain(3, 2, cfg) == result


def test_criterion_10b_carries_simulation():
    with criterion("10b", "carries chain (2 summands, b in {2,10}), 1e6 seeded columns, per-row TV <= 0.005, bit-reproducible"):
        for b in (2, 10):
            cfg = SimulationConfig(trials=1, seed=SEED)
            result = simulate_carries(2, b, digits=10**6, cfg=cfg)
            exact = amazing_matrix(2, b)
            for row_tv in result.tv_distances(exact.entries, exact.normalizer):
                assert row_tv <= TV_TOLERANCE
            assert simulate_carries(2, b, digits=10**6, cfg=cfg) == result
