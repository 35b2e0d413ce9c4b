"""One round of a benchmark workload, in a fresh Python process.

``run.py`` starts this script once per round.  The first thing it does is
import the package and its CLI module, the set-up a CLI user pays on every
call; the time from the parent's spawn call until that import returns is the
round's ``setup_s``.  Everything else lives in ``rounds.py``.
"""

import sys
import time

if __name__ == "__main__":
    import carrychain.cli  # noqa: F401
    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    import rounds

    sys.exit(rounds.main(sys.argv[1:], imported_ns))
