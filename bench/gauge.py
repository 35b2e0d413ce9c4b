"""Gauges, timed next to the measured work, of the host's speed.

The host the benchmark was tuned on is a shared VM whose speed changes by up
to 2x, in episodes from tens of milliseconds to minutes.  A whole 30 s run
can fall in a slow episode, so no estimator over an operation's own times
(fastest, median) is steady from run to run.  Each round therefore times a
kernel before its first operation and after each one.  An operation's time
divided by the mean of the two kernel times around it is its time in kernel
units, and the host's state moves that ratio far less than either time.
Set-up is gauged the same way by ``interpreter_s``, run just before the
round's process starts.  ``run.py`` turns the median ratios back into
seconds with ``REFERENCE_S``.

There are three kernels, because the state does not slow all code alike:
interpreted Python (``math.comb`` on small numbers, tuples and dicts,
Fractions) for closed-form-wide and oracle-crosscheck, ``math.comb`` on
numbers of hundreds of digits for closed-form-deep, and numpy (a multiply,
an argsort and a bincount) for monte-carlo, whose time goes to numpy.  The
gauges are part of the benchmark, not of the program, so a change to the
program leaves them alone.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import refimpl as ref

_WORDS = np.arange(100_000, dtype=np.uint64)
_BIG = 3**1000


def _python() -> None:
    ref.closed_row(40, 3, 20)
    ref.gsr_outcomes(6, 2)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 1)


def _bigint() -> None:
    sum(math.comb(_BIG * k + 16, 16) for k in range(1, 4))


def _numpy() -> None:
    mixed = (_WORDS * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
    np.bincount(np.argsort(mixed, kind="stable")[:50_000] % 7)


KERNELS = {"python": _python, "bigint": _bigint, "numpy": _numpy}
# the kernel whose work is most like each workload's
KIND = {"closed-form-wide": "python", "closed-form-deep": "bigint", "oracle-crosscheck": "python", "monte-carlo": "numpy"}

# The scale of each gauge: chosen so that on the reference host in its fast
# state (2 vCPUs, Python 3.11.7, numpy 2.4.6) setup_s and wall_s read about
# the measured times.  Each is near the gauge's own time there.
REFERENCE_S = {"python": 0.0012, "bigint": 0.00065, "numpy": 0.0041, "interpreter": 0.17}


def kernel_s(kind: str) -> float:
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


def interpreter_s(cwd, env: dict) -> float:
    """The time a fresh interpreter takes to start, import numpy and exit.

    This gauges set-up, which is the same kind of work plus the program's
    own imports.  The in-process kernels do not fit it: the slow state
    slowed them about 1.9x but set-up only about 1.3x.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start
