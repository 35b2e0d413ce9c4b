"""Command-line front end.

Every command writes one machine-readable document to stdout (JSON by
default, CSV for matrices on request) or nothing; diagnostics and the
human-readable pass/fail table of ``verify all`` go to stderr.  Exit codes:
0 success or all checks passed, 1 a verification failed, 2 bad input or
input over a budget.  ``_DESCRIPTION`` says so in ``carrychain --help``.

Output is byte-identical across repeated identical invocations (simulations
included: the seed is part of the invocation).

The commands are the rows of one table, ``_COMMANDS``, which
``build_parser`` walks.  ``main`` has it build only the path of the command
whose words lead the arguments: the top parser, the group parser if any and
that one leaf.  Help above a leaf and the top-level usage errors (no
command, an unknown one, a group alone) fall back to the full parser.  A
row's words also name the command in its document's meta block: the parser
stores them in ``args.command``, and each handler hands that to ``_emit`` or
``_write``.

``verify all`` walks one table, ``SUITES``.  A row (``Suite``) holds the
suite name, the cap on n, the report's parameters beyond max_n, the grid of
cases for a given cap, and a check that returns the identity count and the
failure messages for one case.  Adding an identity is adding a row; the
acceptance tests run every row at its full cap.

Every comparison of a brute-force twin with a closed form is made here, as
``oracle`` only enumerates: ``_check_transition`` serves ``oracle
transition`` and the ``oracle-transition`` row alike.

``oracle`` and ``simulate`` (and numpy with them) are imported inside the
handlers and checks that use them, so the closed-form commands start
without numpy.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

from . import __version__
from .combinat import (
    GROUP_ALGEBRA_MAX_N,
    LumpingViolation,
    TransitionMismatch,
    _check_terms,
    _label,
    binomial,
    compositions,
    eulerian_numbers,
    superfactorial,
)
from .eulerian import foulkes_matrix, idempotent_s_expansion, worpitzky_matrix
from .matrix import (
    Report,
    _check_descent,
    _check_determinant,
    _check_matrix,
    amazing_entry,
    amazing_matrix,
    descent_polynomial,
    foulkes_determinant,
    verify_multiplicativity,
    verify_spectrum,
    verify_stationary,
)


def _integer(text: str, wanted: str) -> int:
    """``text`` read as an integer: an optional ``-`` and the ASCII digits
    0-9, nothing else, since ``int`` alone would also take underscores,
    whitespace, a ``+`` and other scripts' digits.  Anything else is refused
    by an ArgumentTypeError that says what was ``wanted``; from a
    ValueError, argparse would name the converter that called this."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than Python's int->str limit
            pass
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        wanted, text = f"{wanted} of at most {limit} digits", f"{len(text)} characters"
    raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")


def _positive(text: str) -> int:
    value = _integer(text, "a positive integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed_value(text: str) -> int:
    value = _integer(text, "an integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _fmt(numerator: int, denominator: int = 1):
    """Exact scalar for a document, ``numerator / denominator`` of an
    integer over a positive integer: a whole number stays a number, a
    proper fraction becomes a 'p/q' string in lowest terms.  The library
    hands over integers over one denominator, and they are reduced here by
    one gcd."""
    if denominator == 1:
        return numerator
    g = math.gcd(numerator, denominator)
    return numerator // g if g == denominator else f"{numerator // g}/{denominator // g}"


def _matrix_payload(rows, denominator: int = 1):
    if denominator == 1:  # the library's integer rows, which ``_json_parts`` writes as lists, one join each
        return rows
    return [[_fmt(v, denominator) for v in row] for row in rows]


def _report_payload(report: Report) -> dict:
    return {
        "name": report.name,
        "params": report.params,
        "checked": report.checked,
        "ok": report.ok,
        "failures": list(report.failures),
    }


def _over_the_digit_limit(command: str) -> ValueError:
    limit = sys.get_int_max_str_digits()
    return ValueError(f"{command}: the output holds an integer of more than {limit} digits, Python's int-to-str limit")


def _check_digits(command: str, largest: int) -> None:
    """Refuse, before the work, the document of ``command`` whose largest
    integer, known exactly up front, is ``largest``, if it has more digits
    than Python's int->str limit allows, as ``_write`` would after the
    work."""
    limit = sys.get_int_max_str_digits()
    if limit and largest >= 10**limit:
        raise _over_the_digit_limit(command)


def _write(command: str, render: Callable[[], str]) -> None:
    """Write the whole document at once.  A document holding an integer over
    Python's int->str digit limit is refused, before anything reaches
    stdout, by a ValueError that names the command and the limit."""
    try:
        text = render()
    except ValueError:
        raise _over_the_digit_limit(command) from None
    sys.stdout.write(text)


def _json(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, for the types
    a document holds: dicts with str keys, lists, tuples, str, int, bool and
    None.  An int over the int->str digit limit raises ValueError, as it
    does in ``json``."""
    parts: list[str] = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


def _json_parts(value, indent: str, parts: list[str]) -> None:
    """Append the pieces of ``value`` to ``parts``; ``indent`` is the newline
    and indentation of its own level.  A list of plain ints is one piece,
    written by one join."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts += (sep, encode_basestring_ascii(key), ": ")
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts += (indent, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        if all(type(item) is int for item in value):
            parts += ("[", inner, ("," + inner).join(map(int.__repr__, value)), indent, "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts += (indent, "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(command: str, params: dict, payload: Callable[[], dict]) -> None:
    """Write the JSON document of ``command``: its meta block, then the
    fields that ``payload()`` builds.  They are built inside ``_write``, so
    that an exact value over the digit limit is refused there too; the work
    whose results they format is done before."""
    meta = {"meta": {"command": command, "version": __version__, "params": params}}
    _write(command, lambda: _json({**meta, **payload()}) + "\n")


def _csv(labels: list[int], rows, header: bool) -> str:
    lines = [",".join(map(str, labels))] if header else []
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _state_labels(n: int, zero_based: bool) -> list[int]:
    return list(range(0, n)) if zero_based else list(range(1, n + 1))


def _cmd_amazing(args) -> int:
    _check_matrix(args.n, args.b, args.normalized)
    # refuse the digits before P is built: the largest integer of the JSON is
    # the normalizer b^n, and a row of the integer CSV sums to b^n over n
    # entries, so one of them is at least b^n // n
    if args.format == "json":
        _check_digits(args.command, args.b**args.n)
    elif not args.normalized:
        _check_digits(args.command, args.b**args.n // args.n)
    m = amazing_matrix(args.n, args.b)
    denominator = m.normalizer if args.normalized else 1
    labels = _state_labels(args.n, args.zero_based)
    if args.format == "csv":
        _write(args.command, lambda: _csv(labels, _matrix_payload(m.entries, denominator), args.header))
        return 0
    params = {
        "n": args.n,
        "b": args.b,
        "normalized": args.normalized,
        "zero_based": args.zero_based,
        "states": labels,
        "normalizer": m.normalizer,
    }
    _emit(args.command, params, lambda: {"matrix": _matrix_payload(m.entries, denominator)})
    return 0


def _cmd_foulkes(args) -> int:
    if args.det:  # the determinant's budget is the tighter one, then its digits; refuse before F is built
        _check_determinant(args.n)
        _check_digits(args.command, superfactorial(args.n))
    F = foulkes_matrix(args.n)
    det = foulkes_determinant(args.n, F) if args.det else None

    def payload() -> dict:
        extra = {} if det is None else {"determinant": str(det)}
        return {"matrix": _matrix_payload(F.numerators), **extra}

    _emit(args.command, {"n": args.n}, payload)
    return 0


def _cmd_worpitzky(args) -> int:
    W = worpitzky_matrix(args.n)
    _emit(args.command, {"n": args.n}, lambda: {"matrix": _matrix_payload(W.numerators, W.denominator)})
    return 0


def _cmd_eigen(args) -> int:
    report = verify_spectrum(args.n, args.b)
    _emit(args.command, {"n": args.n, "b": args.b}, lambda: {"report": _report_payload(report)})
    return 0 if report.ok else 1


def _cmd_idempotents(args) -> int:
    n, table = args.n, {}
    if args.basis == "s":
        _check_terms(n)
        words = [(_label(parts), len(parts) - 1) for parts in compositions(n)]  # in lexicographic order
        for k in range(1, n + 1):
            expansion = idempotent_s_expansion(n, k)
            value = [_fmt(c, expansion.denominator) for c in expansion.numerators]  # by length less one
            table[str(k)] = {word: value[l] for word, l in words if expansion.numerators[l]}
    else:
        from .oracle import idempotent_group

        for k in range(1, n + 1):
            element = idempotent_group(n, k)
            images, numers = element.support()
            value = {c: _fmt(c, element.denominator) for c in set(numers)}
            table[str(k)] = {_label(im): value[c] for im, c in zip(images, numers)}
    _emit(args.command, {"n": n, "basis": args.basis}, lambda: {"idempotents": table})
    return 0


def _cmd_descent_poly(args) -> int:
    # its largest integer is the mass (b^r)^n; refuse its digits before the row is built
    _check_descent(args.n, args.b, args.r)
    _check_digits(args.command, args.b ** (args.r * args.n))
    poly = descent_polynomial(args.n, args.b, args.r)
    params = {"n": args.n, "b": args.b, "r": args.r, "base": poly.base}
    _emit(args.command, params, lambda: {"coefficients": poly.coeffs, "mass": poly.mass})
    return 0


def _check_transition(n: int, b: int, rows) -> None:
    """Raise ``TransitionMismatch`` at the first enumerated row of word
    counts that differs from the closed-formula matrix."""
    expected = amazing_matrix(n, b).entries
    for state in range(1, n + 1):
        if rows[state - 1] != expected[state - 1]:
            raise TransitionMismatch(n, b, state)


def _cmd_oracle_transition(args) -> int:
    from .oracle import oracle_transition_matrix

    rows = oracle_transition_matrix(args.n, args.b)
    _check_transition(args.n, args.b, rows)
    _emit(args.command, {"n": args.n, "b": args.b}, lambda: {"matrix": _matrix_payload(rows, args.b**args.n)})
    return 0


def _cmd_oracle_shuffles(args) -> int:
    from .oracle import enumerate_b_shuffles

    shuffles = enumerate_b_shuffles(args.n, args.b)
    images = (shuffles.positions.T + 1).tolist()
    payload = {"total": shuffles.total(), "multiplicities": dict(zip(map(_label, images), shuffles.counts.tolist()))}
    _emit(args.command, {"n": args.n, "b": args.b}, lambda: payload)
    return 0


def _simulation_payload(result, exact) -> dict:
    """The counts of a simulation, their frequencies row by row and each
    row's total-variation distance to the exact matrix."""
    totals = [sum(row) or 1 for row in result.counts]  # a row with no samples has frequencies 0
    return {
        "counts": result.counts,
        "frequencies": [[_fmt(c, t) for c in row] for row, t in zip(result.counts, totals)],
        "tv_per_row": [str(d) for d in result.tv_distances(exact.entries, exact.normalizer)],
    }


def _cmd_simulate_shuffle(args) -> int:
    from .simulate import SimulationConfig, simulate_shuffle_chain

    cfg = SimulationConfig(trials=args.trials, seed=args.seed)
    exact = amazing_matrix(args.n, args.b)  # its budget check comes before any simulation
    result = simulate_shuffle_chain(args.n, args.b, cfg)
    params = {"n": args.n, "b": args.b, "trials": cfg.trials, "steps": 1, "seed": cfg.seed}
    _emit(args.command, params, lambda: _simulation_payload(result, exact))
    return 0


def _cmd_simulate_carries(args) -> int:
    from .simulate import SimulationConfig, simulate_carries

    cfg = SimulationConfig(trials=1, seed=args.seed)
    exact = amazing_matrix(args.n, args.b)  # its budget check comes before any simulation
    result = simulate_carries(args.n, args.b, digits=args.trials, cfg=cfg)
    params = {
        "n_summands": args.n,
        "b": args.b,
        "columns": args.trials,
        "seed": cfg.seed,
        "states": _state_labels(args.n, True),
    }
    _emit(args.command, params, lambda: _simulation_payload(result, exact))
    return 0


# ---------------------------------------------------------------------------
# the identity table behind `verify all`


class Suite(namedtuple("Suite", "name cap params grid check shown_cap", defaults=(None,))):
    """One row of the identity table: ``check(*case)`` runs for every case
    of ``grid(top)``, top = min(max_n, cap), and returns how many identities
    it checked and one message per failed identity.  ``params`` are the
    report's parameters beyond max_n.  ``shown_cap`` lowers the max_n the
    report shows, for a row whose grid reaches further in n for some checks
    than for others.  A named tuple, like the records of ``matrix``."""

    __slots__ = ()

    def run(self, max_n: int) -> Report:
        top = min(max_n, self.cap)
        shown = top if self.shown_cap is None else min(top, self.shown_cap)
        checked, failures = 0, []
        try:
            for case in self.grid(top):
                count, failed = self.check(*case)
                checked += count
                failures.extend(failed)
        except Exception as exc:  # a crash in a suite is a failure, not an abort
            failures.append(f"{type(exc).__name__}: {exc}")
        return Report(self.name, {"max_n": shown, **self.params}, checked, tuple(failures))


def _cases(*axes):
    """The grid of every n in 1..top crossed with the fixed ``axes``."""
    return lambda top: itertools.product(range(1, top + 1), *axes)


def _tally(report: Report) -> tuple[int, list[str]]:
    return report.checked, list(report.failures)


def _row_sums(n: int, b: int):
    rows = amazing_matrix(n, b).entries
    return n, [f"row sum failed at n={n}, b={b}, i={i}" for i, row in enumerate(rows, start=1) if sum(row) != b**n]


def _nonnegative(n: int, b: int):
    """Each entry by its alternating sum is nonnegative and is the entry of
    the matrix built by the row kernel."""
    rows = amazing_matrix(n, b).entries
    failures = []
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        entry = amazing_entry(n, b, i, j)
        if entry < 0:
            failures.append(f"negative entry at n={n}, b={b}, i={i}, j={j}")
        elif entry != rows[i - 1][j - 1]:
            failures.append(f"entry != matrix at n={n}, b={b}, i={i}, j={j}")
    return n * n, failures


def _foulkes_inverse(n: int):
    """F W = I, checked in integers as F (n! W) = n! I."""
    F, W = foulkes_matrix(n).numerators, worpitzky_matrix(n)
    columns = list(zip(*W.numerators))
    failures = []
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        if sum(f * w for f, w in zip(F[i - 1], columns[j - 1])) != (W.denominator if i == j else 0):
            failures.append(f"F*W != I at n={n}, ({i},{j})")
    return n * n, failures


def _foulkes_determinant(n: int):
    ok = foulkes_determinant(n) == superfactorial(n)
    return 1, [] if ok else [f"determinant != superfactorial at n={n}"]


def _worpitzky_powers(n: int):
    F = foulkes_matrix(n).numerators
    failures = []
    for x, k in itertools.product(range(1, 11), range(1, n + 1)):
        if sum(f * binomial(x + n - i, n) for i, f in enumerate(F[k - 1], start=1)) != x**k:
            failures.append(f"power identity failed at n={n}, x={x}, k={k}")
    return 10 * n, failures


def _foulkes_eulerian_row(n: int):
    F = foulkes_matrix(n).numerators
    bad = [j for j, (f, e) in enumerate(zip(F[-1], eulerian_numbers(n)), start=1) if f != e]
    return n, [f"last Foulkes row != Eulerian numbers at n={n}, j={j}" for j in bad]


def _shuffle_product(n: int):
    """S[p] S[q] = S[pq] in the group algebra of S_n, every pair of terms
    composed, for p, q in 1..6."""
    from .oracle import group_product, shuffle_element_from_basis

    pairs = list(itertools.product(range(1, 7), repeat=2))
    S = {b: shuffle_element_from_basis(n, b) for b in {p * q for p, q in pairs}}
    bad = [(p, q) for p, q in pairs if group_product(S[p], S[q]) != S[p * q]]
    return len(pairs), [f"S[p]*S[q] != S[pq] at n={n}, p={p}, q={q}" for p, q in bad]


def _idempotent_sum(n: int):
    """sum_k E[k] is the one word of length 1, S^(n): by length l over n!,
    sum_k s(l, k) n!/l! = [l = 1] n!."""
    expansions = [idempotent_s_expansion(n, k) for k in range(1, n + 1)]
    totals = [sum(column) for column in zip(*(e.numerators for e in expansions))]
    whole = expansions[0].denominator
    ok = all(e.denominator == whole for e in expansions) and totals == [whole] + [0] * (n - 1)
    return 1, [] if ok else [f"idempotent expansions do not sum to the complete word at n={n}"]


def _group_idempotents(n: int):
    from .oracle import group_identity, group_product, idempotent_group

    idems = [idempotent_group(n, k) for k in range(1, n + 1)]
    failures = [f"idempotency failed at n={n}, k={k}" for k, e in enumerate(idems, start=1) if group_product(e, e) != e]
    pairs = list(itertools.combinations(range(n), 2))
    for k, l in pairs:
        if not group_product(idems[k], idems[l]).is_zero():
            failures.append(f"orthogonality failed at n={n}, k={k + 1}, l={l + 1}")
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    if total != group_identity(n):
        failures.append(f"idempotents do not sum to the identity at n={n}")
    return n + len(pairs) + 1, failures


def _shuffle_element(n: int, b: int):
    from .oracle import enumerate_b_shuffles, shuffle_element_from_basis

    shuffles = enumerate_b_shuffles(n, b)
    failures = []
    if shuffles.total() != b**n:
        failures.append(f"word count != b^n at n={n}, b={b}")
    # ShuffleMultiset has refused any outcome whose inverse has more than b - 1
    # descents, so the support rule is the count of its outcomes
    expected_size = sum(eulerian_numbers(n)[:b])  # permutations with at most b - 1 descents
    if len(shuffles.ranks) != expected_size:
        failures.append(f"support rule failed at n={n}, b={b}")
    if shuffles.to_group_algebra() != shuffle_element_from_basis(n, b).invert_support():
        failures.append(f"multiset != basis realization at n={n}, b={b}")
    return 3, failures


def _oracle_transition(n: int, b: int):
    from .oracle import oracle_transition_matrix

    try:
        _check_transition(n, b, oracle_transition_matrix(n, b))
    except (LumpingViolation, TransitionMismatch) as exc:
        return 1, [str(exc)]
    return 1, []


_POWERS = ((2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1))


def _descent_cases(top: int):
    """Bases b^r <= 8 against the enumeration for n <= GROUP_ALGEBRA_MAX_N,
    then mass and positivity for bases <= 9 up to the row's cap."""
    for n, (b, r) in itertools.product(range(1, min(top, GROUP_ALGEBRA_MAX_N) + 1), _POWERS):
        yield n, b, r, True
    for n, (b, r) in itertools.product(range(1, top + 1), _POWERS + ((9, 1),)):
        yield n, b, r, False


def _descent_polynomial(n: int, b: int, r: int, against_oracle: bool):
    poly = descent_polynomial(n, b, r)
    if against_oracle:
        from .oracle import oracle_descent_polynomial

        ok = poly.coeffs == oracle_descent_polynomial(n, b**r)
        return 1, [] if ok else [f"closed formula != enumeration at n={n}, base={b ** r}"]
    ok = poly.mass == (b**r) ** n and all(c >= 0 for c in poly.coeffs)
    return 1, [] if ok else [f"mass/positivity failed at n={n}, base={b ** r}"]


# The exact identities of ``verify all``, in report order; adding an identity
# is adding a row.
SUITES = (
    Suite("row-sums", 12, {"b": [2, 3, 10]}, _cases((2, 3, 10)), _row_sums),
    Suite("nonnegative-entries", 12, {"b": "1..10"}, _cases(range(1, 11)), _nonnegative),
    Suite("spectrum", 10, {"b": [2, 3, 5]}, _cases((2, 3, 5)), lambda n, b: _tally(verify_spectrum(n, b))),
    Suite("foulkes-worpitzky-inverse", 10, {}, _cases(), _foulkes_inverse),
    Suite("foulkes-determinant", 8, {}, _cases(), _foulkes_determinant),
    Suite("worpitzky-power-identity", 8, {"x": "1..10"}, _cases(), _worpitzky_powers),
    Suite("foulkes-eulerian-row", 8, {}, _cases(), _foulkes_eulerian_row),
    Suite(
        "multiplicativity", 8, {"b": "1..4"}, _cases(range(1, 5), range(1, 5)),
        lambda n, b1, b2: _tally(verify_multiplicativity(n, b1, b2)),
    ),
    Suite("stationary", 10, {"b": [2, 3]}, _cases((2, 3)), lambda n, b: _tally(verify_stationary(n, b))),
    Suite("shuffle-power-product", GROUP_ALGEBRA_MAX_N, {"p,q": "1..6"}, _cases(), _shuffle_product),
    Suite("idempotent-expansion-sum", 8, {}, _cases(), _idempotent_sum),
    Suite("group-idempotents", GROUP_ALGEBRA_MAX_N, {}, _cases(), _group_idempotents),
    Suite("shuffle-element", GROUP_ALGEBRA_MAX_N, {"b": "1..4"}, _cases(range(1, 5)), _shuffle_element),
    Suite("oracle-transition", GROUP_ALGEBRA_MAX_N, {"b": [2, 3]}, _cases((2, 3)), _oracle_transition),
    Suite("descent-polynomials", 8, {"base": "<= 9"}, _descent_cases, _descent_polynomial, GROUP_ALGEBRA_MAX_N),
)


def run_verify_all(max_n: int) -> list[Report]:
    """Every row of ``SUITES``, bounded by ``max_n`` (each row's cap still
    applies)."""
    return [suite.run(max_n) for suite in SUITES]


def _cmd_verify_all(args) -> int:
    reports = run_verify_all(args.max_n)
    for report in reports:
        print(report, file=sys.stderr)
    ok = all(r.ok for r in reports)
    print(f"{'all checks passed' if ok else 'FAILURES detected'} (max_n={args.max_n})", file=sys.stderr)
    payload = {"report": {"suites": [_report_payload(r) for r in reports], "ok": ok}}
    _emit(args.command, {"max_n": args.max_n}, lambda: payload)
    return 0 if ok else 1


_DESCRIPTION = (
    "Exact tables, identity checks and seeded simulations of the carries chain and of riffle shuffles. "
    "Every command writes one document to stdout (JSON, or CSV for a matrix on request) or nothing; "
    "diagnostics go to stderr. Exit status: 0 success, 1 a verification failed, "
    "2 bad input or input over a budget."
)
_SWITCH = {"action": "store_true"}

# Every command, in help order: its words, its help, its handler, its required
# integer flags and its other flags.  The words name the command in its
# document's meta block; a command of two words sits in the group of the
# first, which is created on first use with its help from ``_GROUPS``.
_COMMANDS = (
    ("amazing", "the (un)normalized transition matrix", _cmd_amazing, "n b", {
        "--normalized": _SWITCH, "--zero-based": _SWITCH, "--format": {"choices": ("csv", "json"), "default": "json"},
        "--header": {**_SWITCH, "help": "column labels on CSV output"},
    }),
    ("foulkes", "the Foulkes character table", _cmd_foulkes, "n", {"--det": _SWITCH}),
    ("worpitzky", "the Worpitzky coefficient matrix", _cmd_worpitzky, "n", {}),
    ("eigen", "exact spectral verification report", _cmd_eigen, "n b", {}),
    ("idempotents", "Eulerian idempotents in a chosen basis", _cmd_idempotents, "n",
     {"--basis": {"choices": ("s", "group"), "default": "s"}}),
    ("descent-poly", "descent polynomial of b^r-shuffles", _cmd_descent_poly, "n b r", {}),
    ("oracle transition", "transition matrix by exhaustive enumeration", _cmd_oracle_transition, "n b", {}),
    ("oracle shuffles", "shuffle outcomes with multiplicities", _cmd_oracle_shuffles, "n b", {}),
    ("simulate shuffle", "GSR shuffle chain transitions", _cmd_simulate_shuffle, "n b trials seed", {}),
    ("simulate carries", "base-b carries chain (--trials counts digit columns)", _cmd_simulate_carries,
     "n b trials seed", {}),
    ("verify all", "all suites up to --max-n", _cmd_verify_all, "",
     {"--max-n": {"type": _positive, "default": 6, "dest": "max_n"}}),
)
_GROUPS = {
    "oracle": "brute-force enumeration oracles",
    "simulate": "seeded Monte-Carlo chains",
    "verify": "run exact identity suites",
}


def build_parser(commands: tuple = _COMMANDS) -> argparse.ArgumentParser:
    """The parser of the rows ``commands``, by default of every command.
    With fewer rows the top parser still names every command in its usage
    line, which a leftover word after a command makes it print."""
    parser = argparse.ArgumentParser(prog="carrychain", description=_DESCRIPTION)
    metavar = None  # on the full parser a metavar would also rename the command in its errors
    if commands != _COMMANDS:
        metavar = "{" + ",".join(dict.fromkeys(words.split()[0] for words, *_ in _COMMANDS)) + "}"
    subparsers = {"": parser.add_subparsers(dest="command", required=True, metavar=metavar)}
    for words, summary, handler, ints, flags in commands:
        group, _, name = words.rpartition(" ")
        if group not in subparsers:
            p = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = p.add_subparsers(dest="subcommand", required=True)
        p = subparsers[group].add_parser(name, help=summary)
        for flag in ints.split():
            p.add_argument(f"--{flag}", type=_seed_value if flag == "seed" else _positive, required=True)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        # a group stores its own word in ``command`` before its leaf parses;
        # the leaf's default then puts every word of the command there
        p.set_defaults(func=handler, command=words)
    return parser


def _named(argv: list[str]) -> tuple:
    """The one row whose words lead ``argv``, or every row: help and errors
    above a leaf need the full parser."""
    for row in _COMMANDS:
        words = row[0].split()
        if argv[: len(words)] == words:
            return (row,)
    return _COMMANDS


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(_named(argv)).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LumpingViolation, TransitionMismatch) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # every BudgetError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
