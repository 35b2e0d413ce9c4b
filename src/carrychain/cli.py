"""Command-line front end.

Every command writes one machine-readable document to stdout (JSON by
default, CSV for matrices on request); diagnostics and the human-readable
pass/fail table of ``verify all`` go to stderr.  Exit codes: 0 success or
all checks passed, 1 a verification failed, 2 usage error.

Output is byte-identical across repeated identical invocations (simulations
included: the seed is part of the invocation).

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
import json
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .combinat import (
    GROUP_ALGEBRA_MAX_N,
    IDEMPOTENT_TERMS,
    BudgetError,
    Composition,
    LumpingViolation,
    TransitionMismatch,
    binomial,
    eulerian_numbers,
    superfactorial,
)
from .eulerian import (
    foulkes_matrix,
    idempotent_s_expansion,
    internal_product,
    spow_element,
    worpitzky_matrix,
)
from .matrix import (
    Report,
    _check_determinant,
    amazing_entry,
    amazing_matrix,
    descent_polynomial,
    foulkes_determinant,
    verify_multiplicativity,
    verify_spectrum,
    verify_stationary,
)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _fmt(value, denominator: int = 1):
    """Exact scalar for a document, ``value / denominator``: integers stay
    numbers, proper fractions become 'p/q' strings.  The one place the CLI
    builds a ``Fraction``: the library hands over integers over one
    denominator, and an integer over 1 builds none."""
    if denominator != 1:
        value = Fraction(value, denominator)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    return value


def _label(images) -> str:
    """A permutation's one-line images as ``str(Permutation)`` writes them,
    without building the object."""
    return ",".join(map(str, images))


def _matrix_payload(rows, denominator: int = 1) -> list[list]:
    return [[_fmt(v, denominator) for v in row] for row in rows]


def _report_payload(report: Report) -> dict:
    return {
        "name": report.name,
        "params": report.params,
        "checked": report.checked,
        "ok": report.ok,
        "failures": list(report.failures),
    }


def _write(command: str, render: Callable[[], str]) -> None:
    """Write the whole document at once.  A document holding an integer over
    Python's int->str digit limit is refused, before anything reaches
    stdout, by a ValueError that names the command and the limit."""
    try:
        text = render()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"{command}: the output holds an integer of more than {limit} digits, Python's int-to-str limit"
        ) from None
    sys.stdout.write(text)


def _emit(command: str, params: dict, payload: dict) -> None:
    doc = {"meta": {"command": command, "version": __version__, "params": params}}
    doc.update(payload)
    _write(command, lambda: json.dumps(doc, indent=2) + "\n")


def _csv(labels: list[int], rows, header: bool) -> str:
    lines = [",".join(map(str, labels))] if header else []
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _state_labels(n: int, zero_based: bool) -> list[int]:
    return list(range(0, n)) if zero_based else list(range(1, n + 1))


def _cmd_amazing(args) -> int:
    m = amazing_matrix(args.n, args.b)
    rows = m.normalized() if args.normalized else m.entries
    labels = _state_labels(args.n, args.zero_based)
    if args.format == "csv":
        _write("amazing", lambda: _csv(labels, rows, args.header))
        return 0
    params = {
        "n": args.n,
        "b": args.b,
        "normalized": args.normalized,
        "zero_based": args.zero_based,
        "states": labels,
        "normalizer": m.normalizer,
    }
    _emit("amazing", params, {"matrix": _matrix_payload(rows)})
    return 0


def _cmd_foulkes(args) -> int:
    if args.det:  # the determinant's budget is the tighter one; refuse before F is built
        _check_determinant(args.n)
    F = foulkes_matrix(args.n)
    payload: dict = {"matrix": _matrix_payload(F.numerators)}
    if args.det:
        payload["determinant"] = str(foulkes_determinant(args.n, F))
    _emit("foulkes", {"n": args.n}, payload)
    return 0


def _cmd_worpitzky(args) -> int:
    W = worpitzky_matrix(args.n)
    _emit("worpitzky", {"n": args.n}, {"matrix": _matrix_payload(W.numerators, W.denominator)})
    return 0


def _cmd_eigen(args) -> int:
    report = verify_spectrum(args.n, args.b)
    _emit("eigen", {"n": args.n, "b": args.b}, {"report": _report_payload(report)})
    return 0 if report.ok else 1


def _cmd_idempotents(args) -> int:
    # 2^min(n, 64) keeps the count small for a huge n, over the bound either way
    if args.basis == "s" and (args.n + 1) * 2 ** min(args.n, 64) // 4 > IDEMPOTENT_TERMS:
        raise BudgetError(f"idempotents: E[1..{args.n}] over S-words exceed the budget of {IDEMPOTENT_TERMS} terms")
    table = {}
    for k in range(1, args.n + 1):
        if args.basis == "s":
            expansion = idempotent_s_expansion(args.n, k)
            table[str(k)] = {str(comp): _fmt(coeff) for comp, coeff in expansion.sorted_terms()}
        else:
            from .oracle import idempotent_group

            element = idempotent_group(args.n, k)
            images, numers = element.support()
            value = {c: _fmt(c, element.denominator) for c in set(numers)}
            table[str(k)] = {_label(im): value[c] for im, c in zip(images, numers)}
    _emit("idempotents", {"n": args.n, "basis": args.basis}, {"idempotents": table})
    return 0


def _cmd_descent_poly(args) -> int:
    poly = descent_polynomial(args.n, args.b, args.r)
    params = {"n": args.n, "b": args.b, "r": args.r, "base": poly.base}
    _emit("descent-poly", params, {"coefficients": list(poly.coeffs), "mass": poly.mass})
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
    _emit("oracle transition", {"n": args.n, "b": args.b}, {"matrix": _matrix_payload(rows, args.b**args.n)})
    return 0


def _cmd_oracle_shuffles(args) -> int:
    from .oracle import enumerate_b_shuffles

    shuffles = enumerate_b_shuffles(args.n, args.b)
    images = (shuffles.positions.T + 1).tolist()
    payload = {"total": shuffles.total(), "multiplicities": dict(zip(map(_label, images), shuffles.counts.tolist()))}
    _emit("oracle shuffles", {"n": args.n, "b": args.b}, payload)
    return 0


def _cmd_simulate_shuffle(args) -> int:
    from .simulate import SimulationConfig, simulate_shuffle_chain

    cfg = SimulationConfig(trials=args.trials, seed=args.seed)
    exact = amazing_matrix(args.n, args.b).normalized()  # its budget check comes before any simulation
    result = simulate_shuffle_chain(args.n, args.b, cfg)
    params = {"n": args.n, "b": args.b, "trials": cfg.trials, "steps": 1, "seed": cfg.seed}
    payload = {
        "counts": [list(row) for row in result.counts],
        "frequencies": _matrix_payload(result.frequencies()),
        "tv_per_row": [str(d) for d in result.tv_distances(exact)],
    }
    _emit("simulate shuffle", params, payload)
    return 0


def _cmd_simulate_carries(args) -> int:
    from .simulate import SimulationConfig, simulate_carries

    cfg = SimulationConfig(trials=1, seed=args.seed)
    exact = amazing_matrix(args.n, args.b).normalized()  # its budget check comes before any simulation
    result = simulate_carries(args.n, args.b, digits=args.trials, cfg=cfg)
    params = {
        "n_summands": args.n,
        "b": args.b,
        "columns": args.trials,
        "seed": cfg.seed,
        "states": _state_labels(args.n, True),
    }
    payload = {
        "counts": [list(row) for row in result.counts],
        "frequencies": _matrix_payload(result.frequencies()),
        "tv_per_row": [str(d) for d in result.tv_distances(exact)],
    }
    _emit("simulate carries", params, payload)
    return 0


# ---------------------------------------------------------------------------
# the identity table behind `verify all`


@dataclass(frozen=True)
class Suite:
    """One row of the identity table: ``check(*case)`` runs for every case
    of ``grid(top)``, top = min(max_n, cap), and returns how many identities
    it checked and one message per failed identity.  ``params`` are the
    report's parameters beyond max_n.  ``shown_cap`` lowers the max_n the
    report shows, for a row whose grid reaches further in n for some checks
    than for others."""

    name: str
    cap: int
    params: dict
    grid: Callable[[int], Iterable[tuple]]
    check: Callable[..., tuple[int, list[str]]]
    shown_cap: int | None = None

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
    m = amazing_matrix(n, b)
    return n, [f"row sum failed at n={n}, b={b}, i={i}" for i in range(1, n + 1) if sum(m.row(i)) != b**n]


def _nonnegative(n: int, b: int):
    cells = itertools.product(range(1, n + 1), repeat=2)
    return n * n, [f"negative entry at n={n}, b={b}, i={i}, j={j}" for i, j in cells if amazing_entry(n, b, i, j) < 0]


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


def _spow_product(n: int, p: int, q: int):
    ok = internal_product(spow_element(n, p), spow_element(n, q)) == spow_element(n, p * q)
    return 1, [] if ok else [f"S[p]*S[q] != S[pq] at n={n}, p={p}, q={q}"]


def _idempotent_sum(n: int):
    total = idempotent_s_expansion(n, 1)
    for k in range(2, n + 1):
        total = total + idempotent_s_expansion(n, k)
    ok = total.terms == {Composition((n,)): 1}
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
    Suite("shuffle-power-product", 8, {"p,q": "1..6"}, _cases(range(1, 7), range(1, 7)), _spow_product),
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
    _emit("verify all", {"max_n": args.max_n}, payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carrychain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amazing", help="the (un)normalized transition matrix")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--zero-based", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--header", action="store_true", help="column labels on CSV output")
    p.set_defaults(func=_cmd_amazing)

    p = sub.add_parser("foulkes", help="the Foulkes character table")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--det", action="store_true")
    p.set_defaults(func=_cmd_foulkes)

    p = sub.add_parser("worpitzky", help="the Worpitzky coefficient matrix")
    p.add_argument("--n", type=_positive, required=True)
    p.set_defaults(func=_cmd_worpitzky)

    p = sub.add_parser("eigen", help="exact spectral verification report")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("idempotents", help="Eulerian idempotents in a chosen basis")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--basis", choices=("s", "group"), default="s")
    p.set_defaults(func=_cmd_idempotents)

    p = sub.add_parser("descent-poly", help="descent polynomial of b^r-shuffles")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--r", type=_positive, required=True)
    p.set_defaults(func=_cmd_descent_poly)

    oracle = sub.add_parser("oracle", help="brute-force enumeration oracles")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    p = oracle_sub.add_parser("transition", help="transition matrix by exhaustive enumeration")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.set_defaults(func=_cmd_oracle_transition)
    p = oracle_sub.add_parser("shuffles", help="shuffle outcomes with multiplicities")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.set_defaults(func=_cmd_oracle_shuffles)

    sim = sub.add_parser("simulate", help="seeded Monte-Carlo chains")
    sim_sub = sim.add_subparsers(dest="subcommand", required=True)
    p = sim_sub.add_parser("shuffle", help="GSR shuffle chain transitions")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--trials", type=_positive, required=True)
    p.add_argument("--seed", type=_seed_value, required=True)
    p.set_defaults(func=_cmd_simulate_shuffle)
    p = sim_sub.add_parser("carries", help="base-b carries chain (--trials counts digit columns)")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--b", type=_positive, required=True)
    p.add_argument("--trials", type=_positive, required=True)
    p.add_argument("--seed", type=_seed_value, required=True)
    p.set_defaults(func=_cmd_simulate_carries)

    verify = sub.add_parser("verify", help="run exact identity suites")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("all", help="all suites up to --max-n")
    p.add_argument("--max-n", type=_positive, default=6, dest="max_n")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
