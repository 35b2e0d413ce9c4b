"""Plain references that the tests hold the library against, and the
corrupted S_3 table that breaks the oracle's lumping check; imported by the
test modules and collected by none.

``full_spectrum``, ``full_stationary`` and ``full_multiplicativity`` form
every entry of the products that ``matrix.verify_spectrum``,
``verify_stationary`` and ``verify_multiplicativity`` check, where the
library forms half of each, folds every inner sum by the mirror and tests
the mirror first.  They read P through ``matrix._matrix`` when called, so
a test that plants a fault there plants it in both.
``full_foulkes_determinant`` eliminates all of F, where
``matrix.foulkes_determinant`` eliminates the two half-size blocks that
the mirror of F splits it into.

``LARGEST_ADMITTED`` pins the largest n that each closed form admits at a
stated base under the work budget, ``CLI_LIMITS`` each command's limits,
and ``run_limited`` runs a child under real memory and CPU limits.

The library keeps permutations as tuples of images and, in the oracle, as
lexicographic ranks.  ``Permutation`` below is an object written apart from
both, in one-line notation with 1-based values, so that a test which ranks,
composes or inverts through it does not rest on the oracle's own kernels.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from operator import mul
from pathlib import Path

import pytest

from carrychain import matrix, oracle
from carrychain.combinat import eulerian_numbers
from carrychain.eulerian import foulkes_matrix, worpitzky_matrix
from carrychain.matrix import (
    Report,
    _bareiss_determinant,
    amazing_entry,
    amazing_matrix,
    descent_polynomial,
    foulkes_determinant,
    verify_multiplicativity,
    verify_spectrum,
    verify_stationary,
)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation (1-based values)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    def __mul__(self, other: Permutation) -> Permutation:
        """Function composition: (p * q)(i) = p(q(i))."""
        if self.n != other.n:
            raise ValueError(f"cannot compose permutations of sizes {self.n} and {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for pos, img in enumerate(self.images):
            inv[img - 1] = pos + 1
        return Permutation(tuple(inv))

    def descent_set(self) -> frozenset[int]:
        """Positions i with p(i) > p(i+1), 1-based."""
        return frozenset(i + 1 for i in range(self.n - 1) if self.images[i] > self.images[i + 1])

    def descent_count(self) -> int:
        return sum(1 for i in range(self.n - 1) if self.images[i] > self.images[i + 1])


# With (1,3,2) acting as the identity in the S_3 composition table, the deck
# (2,1,3) is the first whose row differs from its descent class's row.
LUMPING_MESSAGE = "lumping violated at n=3, b=2: representative 2,1,3 of state 2 disagrees with its class row"


def corrupt_table(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make (1,3,2) act as the identity in the oracle's S_3 composition table."""
    table = oracle._table(3)
    compose = table.compose.copy()
    compose[:, 1] = compose[:, 0]
    monkeypatch.setattr(oracle, "_table", lambda n: table._replace(compose=compose))


def full_spectrum(n: int, b: int) -> Report:
    """``verify_spectrum`` by the full products P W and F P."""
    W, F = worpitzky_matrix(n).numerators, foulkes_matrix(n).numerators
    P = matrix._matrix(n, b, spectral=False).entries
    failures = []
    for j, col in enumerate(zip(*W), start=1):
        if [sum(map(mul, row, col)) for row in P] != [b**j * c for c in col]:
            failures.append(f"right eigenpair failed: n={n}, b={b}, j={j}")
    for i, row in enumerate(F, start=1):
        if [sum(map(mul, row, col)) for col in zip(*P)] != [b**i * c for c in row]:
            failures.append(f"left eigenpair failed: n={n}, b={b}, i={i}")
    return Report("spectrum", {"n": n, "b": b}, 2 * n, tuple(failures))


def full_stationary(n: int, b: int) -> Report:
    """``verify_stationary`` by the full product E P."""
    P = matrix._matrix(n, b, spectral=False).entries
    E = eulerian_numbers(n)
    ok = [sum(map(mul, E, col)) for col in zip(*P)] == [b**n * e for e in E]
    return Report("stationary", {"n": n, "b": b}, 1, () if ok else (f"stationary identity failed: n={n}, b={b}",))


def full_multiplicativity(n: int, b1: int, b2: int) -> Report:
    """``verify_multiplicativity`` by the full product P(b1) P(b2)."""
    A = matrix._matrix(n, b1, spectral=False).entries
    columns = list(zip(*matrix._matrix(n, b2, spectral=False).entries))
    product = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in A)
    ok = product == amazing_matrix(n, b1 * b2).entries
    failures = () if ok else (f"multiplicativity failed: n={n}, b1={b1}, b2={b2}",)
    return Report("multiplicativity", {"n": n, "b1": b1, "b2": b2}, 1, failures)


def full_foulkes_determinant(n: int) -> int:
    """``foulkes_determinant`` by Bareiss elimination on all of F."""
    return _bareiss_determinant(foulkes_matrix(n).numerators)


# Each closed form at a stated base, as a call of n, with the largest n its
# price admits, found by tests/test_matrix.py's ``TestLimits`` from the
# price alone.  README's Bounds table gives the time and memory at each.
# ``_check_matrix`` with ``normalized`` prices P written over b^n in lowest
# terms, as ``amazing --normalized`` writes it.
LARGEST_ADMITTED = {
    "amazing_matrix(n, 1)": (lambda n: amazing_matrix(n, 1), 844),
    "amazing_matrix(n, 2)": (lambda n: amazing_matrix(n, 2), 639),
    "amazing_matrix(n, 2**2048)": (lambda n: amazing_matrix(n, 2**2048), 22),
    "_check_matrix(n, 2, normalized=True)": (lambda n: matrix._check_matrix(n, 2, normalized=True), 511),
    "descent_polynomial(n, 2, 20)": (lambda n: descent_polynomial(n, 2, 20), 652),
    "foulkes_matrix(n)": (foulkes_matrix, 313),
    "foulkes_determinant(n)": (foulkes_determinant, 101),
    "worpitzky_matrix(n)": (worpitzky_matrix, 247),
    "verify_spectrum(n, 2)": (lambda n: verify_spectrum(n, 2), 158),
    "verify_stationary(n, 2)": (lambda n: verify_stationary(n, 2), 605),
    "verify_multiplicativity(n, 2, 2)": (lambda n: verify_multiplicativity(n, 2, 2), 229),
    "eulerian_numbers(n)": (eulerian_numbers, 980),
    "amazing_entry(n, 2, 1, n)": (lambda n: amazing_entry(n, 2, 1, n), 1695),
}


BUDGET, DIGITS = "budget", "Python's int-to-str limit"


def largest(name: str) -> int:
    return LARGEST_ADMITTED[name][1]


def _edge(words: str, n: int, refusal: str) -> tuple:
    """The command ``words`` at ``n``, written, and at n + 1, refused by
    ``refusal``: pairs of an argv and its refusal, None if written."""
    return (f"{words} --n {n}", None), (f"{words} --n {n + 1}", refusal)


# Each closed-form command at the largest n it writes and the next one up,
# refused by the budget or, first, by the int-to-str limit: 1! 2! ... 82!
# has 4400 digits, 2^(24 * 596) 4306.  ``idempotents`` stops at
# combinat.IDEMPOTENT_TERMS.  tests/test_cli.py runs every argv in one real
# child, and CI every refused one through the installed script.
CLI_LIMITS = (
    *_edge("amazing --b 1", largest("amazing_matrix(n, 1)"), BUDGET),
    *_edge("amazing --b 2", largest("amazing_matrix(n, 2)"), BUDGET),
    *_edge("amazing --b 2 --normalized", largest("_check_matrix(n, 2, normalized=True)"), BUDGET),
    *_edge("descent-poly --b 2 --r 20", largest("descent_polynomial(n, 2, 20)"), BUDGET),
    *_edge("descent-poly --b 2 --r 24", 595, DIGITS),
    *_edge("foulkes", largest("foulkes_matrix(n)"), BUDGET),
    *_edge("foulkes --det", 81, DIGITS),
    (f"foulkes --det --n {largest('foulkes_determinant(n)') + 1}", BUDGET),
    *_edge("worpitzky", largest("worpitzky_matrix(n)"), BUDGET),
    *_edge("eigen --b 2", largest("verify_spectrum(n, 2)"), BUDGET),
    *_edge("idempotents", 15, BUDGET),
)


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))


def run_limited(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code *args``, importing the ``carrychain`` under test, in a
    child under 2 GiB of address space and 120 s of CPU, both set in the
    child only, and 120 s of wall time; stdout and stderr come back as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(matrix.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, preexec_fn=_limits,
    )


class Built(Exception):
    """Raised in place of the first object a computation builds."""


def refuse_building(*args):
    raise Built
