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
``PINNED`` the digest of each pinned document, and ``run_limited`` runs a
child under real memory and CPU limits.

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
from carrychain.combinat import _check_terms, compositions, eulerian_numbers, superfactorial
from carrychain.eulerian import foulkes_matrix, idempotent_s_expansion, worpitzky_matrix
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
# terms, as ``amazing --normalized`` writes it, and ``_check_terms`` the
# S-word terms that ``idempotents`` writes.
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
    "compositions(n)": (compositions, 20),
    "idempotent_s_expansion(n, 1)": (lambda n: idempotent_s_expansion(n, 1), 1213),
    "_check_terms(n)": (_check_terms, 17),
    "superfactorial(n)": (superfactorial, 543),
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
# has 4400 digits, 2^(24 * 596) 4306.  tests/test_cli.py runs every argv in
# one real child, and CI every refused one through the installed script.
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
    *_edge("idempotents", largest("_check_terms(n)"), BUDGET),
)


# The SHA-256 of the stdout document of each argv, by id: tests/test_cli.py
# runs every one through ``cli.main``, and CI through the installed script.
# The `verify all` documents were pinned from the release before the oracle
# was imported lazily; the three `eigen` runs, odd n with a middle row
# that is its own mirror, a base of spectral size and the walk's runs of a
# wide base, from the release that wrote each CLI limit once in
# ``CLI_LIMITS``; the two priced `amazing` runs last from the release that
# chose the path by a bit length; the others from the release whose oracle
# held Permutation objects and Fraction coefficients, whose Foulkes and
# Worpitzky tables held Fraction entries, and whose normalized matrix,
# frequencies and TV distances were built from Fraction rows.
PINNED = {
    "transition": (
        "oracle transition --n 6 --b 3", "67c8df6487ba69e607211546733821342fc8fe40d3a0f57268f11e2dc13b7158"),
    "shuffles": ("oracle shuffles --n 6 --b 3", "cd1c3b4b082798fe37f6404c28c984b774b473049a378df4a9f42dbd17ad9776"),
    "idempotents": (
        "idempotents --basis group --n 6", "9b7b8a6d097f83b2446164ec6719c3053d29fca25c0ab6e91ba49f9dcc87a56c"),
    "idempotents-s": ("idempotents --n 12", "838feafae0384b8fc260f4a190c1b84bf07e0e1a99157003f2544ca06e7c460d"),
    "idempotents-s-n1": ("idempotents --n 1", "0ee767523502b982186a00380e0971b7e7448afc74f0e048cc80a99d9716ca4d"),
    "foulkes-det": ("foulkes --n 12 --det", "e06ce516f188010bcdb7f056bdf79de2626d67a7d9a63339687a382e167a2eab"),
    "worpitzky": ("worpitzky --n 12", "23e27952574c93222af3cd965bc19e7ed0d021231f54cb5a9320e5e19c5b955e"),
    "amazing-normalized": (
        "amazing --n 12 --b 3 --normalized", "fa97134305153cfc4fb45731ae61325db142e3765b223a6538d56fff6bf6b20f"),
    "amazing-normalized-csv": (
        "amazing --n 12 --b 3 --normalized --format csv --header",
        "64e003a0f2baa377fe27843600c8484233ac5c03a9f0d514a85fd1dc88abe805",
    ),
    # three rows with no samples, whose frequencies are 0 and distances 1
    "simulate-shuffle-unsampled-rows": (
        "simulate shuffle --n 10 --b 2 --trials 1000 --seed 1",
        "407861f4417381c0617684f6c2150c48c4382817363fef63f7482bef2d9f02ea",
    ),
    "simulate-shuffle": (
        "simulate shuffle --n 3 --b 2 --trials 100000 --seed 42",
        "24b4f14597baaacfcbc63d455279c476adc79376e67947f436d866bd740000e9",
    ),
    "simulate-carries": (
        "simulate carries --n 3 --b 10 --trials 100000 --seed 7",
        "a85a4704b701f4da445c5a39d744bc4378cbf8bace7dca9bea814e8f4a9d8c3c",
    ),
    "amazing-wide": ("amazing --n 100 --b 2", "34e47ba5998a507b4685d1a482841f5a852e65ed2ad4c773096bae93a8af642a"),
    "amazing-csv": (
        "amazing --n 80 --b 3 --format csv", "b08bc0ef444f3c58ad08dbbb198c2746a97b53066ad38421a90c70d2a7a19837"),
    "eigen-wide": ("eigen --n 40 --b 3", "ddec655fe75bc9b74486889f5b004c98e94b9f2537ca3c52ff4583ecc77e905d"),
    "foulkes-det-wide": ("foulkes --n 40 --det", "7be8224464b3426fd80e2bb196ee062f6196cc94439ab035ed440948bb988f78"),
    "descent-poly-wide": (
        "descent-poly --n 60 --b 2 --r 20", "7cabee423902849fba5bb14aee898b6d2f2863a4eb6a98f6776f9990fcf3cfa6"),
    # a base of 401 bits, on the spectral path
    "amazing-spectral": (
        f"amazing --n 10 --b {2**400}", "fbf1ad611a275041bb0a2f57de507c4b8aff85fd3993bbeba5e1a16183f32232"),
    **{
        f"verify-all-{max_n}": (f"verify all --max-n {max_n}", digest)
        for max_n, digest in enumerate(
            (
                "80e186212c6aef8dd3ebed7e491be330ce43b442aa6ec7b6695ffd5dbee86933",
                "9f2aa03cc7a018bfe1b9d6b44a869cf4b7d2a459a19ece09db41f4dd5be2f27a",
                "1b1a29898475c8fece3d67731476aea921010f2362897e9a5469dee76eb769b5",
                "f7bc26d9ddd086ab31c48332cbe1c3ed551fa4af4478307966eb51b96cdcf898",
                "7389d551a76f7f049a410698333c0603650fe21656c993803c47aca7389ed92e",
                "c995b6cf7015ba3f9ef2123a9d33b4aeb15de49d934045a23a6e1c00d71dc18c",
            ),
            start=1,
        )
    },
    "eigen-odd": ("eigen --n 13 --b 3", "545cb19611b4e4bf169e1e9ee7d7655100943af2d71f7f58cec3815835a857f4"),
    "eigen-spectral-base": (
        f"eigen --n 12 --b {2**300 + 1}", "569dded3795ce0c9492506bfe9bfa595c6bc419cc2700c6a233904b3b674355b"),
    "eigen-walk-runs": (
        f"eigen --n 13 --b {3**300}", "1ba7e2d44eb59836168ee875d760b6714491d1654cb980cac6cdccc5d084a13e"),
    # the smallest n at which the price moves a base below 256 bits to the
    # spectral path, and one of 256 bits or more to the row kernel
    "amazing-priced-spectral": (
        f"amazing --n 4 --b {2**255 - 19}", "938182684ad887256cd5b137603092f829e932d561c086ecc85ed2f0547fad47"),
    "amazing-priced-kernel": (
        f"amazing --n 1 --b {2**300 + 1}", "b9aa3283939e19af056e818cb4f8403b6a6519c4a9d81c240e9e1a9cf0647c32"),
}


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


def refuse_building(*args, **kwargs):
    raise Built
