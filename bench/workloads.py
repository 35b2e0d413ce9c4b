"""The benchmark's workloads: the operations of one round and their checks.

A round runs every operation of a workload once, in order, through the
public surface a user has: ``carrychain.cli.main(argv)`` with stdout and
stderr captured, or a function exported by the ``carrychain`` package.  Only
the operations are timed.  Afterwards each output is checked against the
independent code in ``refimpl`` or against a property the method must have;
nothing is compared with a stored copy of an earlier output.

The closed-form and oracle inputs are fixed.  The workload seed only picks
the simulation seeds.  ``SIZES`` gives each workload a ``full`` size, which
the benchmark runs, and a ``tiny`` one for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import carrychain
import carrychain.cli

import refimpl as ref

SIZES = {
    "full": {
        "wide_json": (100, 2), "wide_csv": (80, 3), "eigen": (40, 3), "stationary": (60, 2),
        "mult": (40, 3, 5), "product": (30, 3, 5), "foulkes": 40, "worpitzky": 30, "wide_poly": (60, 2, 20),
        "deep": (16, 3, 1000), "deep_poly_r": 3000, "deep_wide": (12, 2, 3000), "deep_mult": (10, 2, 500, 3, 300),
        "deep_spectrum": (12, 2, 1000), "deep_cli_poly": (12, 2, 1000), "deep_cli_amazing": (10, 2, 400),
        "verify_max_n": 5, "oracle": (6, 3), "idempotents": 6, "group_product": (6, 3),
        "shuffle_small": (3, 2, 10**6), "shuffle_large": (10, 2, 10**6), "carries": (3, 10, 4 * 10**6),
        "carries_lib": (2, 10, 20, 50_000, 20_000), "shuffle_lib": (4, 3, 200_000, 80_000),
    },
    "tiny": {
        "wide_json": (6, 2), "wide_csv": (5, 3), "eigen": (4, 3), "stationary": (5, 2),
        "mult": (4, 3, 5), "product": (4, 3, 5), "foulkes": 4, "worpitzky": 4, "wide_poly": (5, 2, 3),
        "deep": (4, 3, 20), "deep_poly_r": 50, "deep_wide": (3, 2, 40), "deep_mult": (3, 2, 20, 3, 10),
        "deep_spectrum": (3, 2, 30), "deep_cli_poly": (3, 2, 20), "deep_cli_amazing": (3, 2, 10),
        "verify_max_n": 3, "oracle": (3, 2), "idempotents": 3, "group_product": (3, 2),
        "shuffle_small": (3, 2, 2000), "shuffle_large": (5, 2, 2000), "carries": (3, 10, 5000),
        "carries_lib": (2, 10, 5, 300, 100), "shuffle_lib": (4, 3, 500, 200),
    },
}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutput:
    """Run the CLI in-process, as a shell user would, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = carrychain.cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One operation: ``run`` produces the output (timed), ``check`` raises
    ``CheckFailed`` if it is wrong.  ``check`` also sees every earlier
    output of the round, by operation name."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]
    cli: bool = False


def cli_op(name: str, argv: list[str], check: Callable[[dict | str, dict], None], parse: bool = True) -> Op:
    def checked(out: CliOutput, results: dict) -> None:
        check(json.loads(out.stdout) if parse else out.stdout, results)

    return Op(name, lambda: run_cli(argv), checked, cli=True)


def as_int_matrix(rows) -> list[list[int]]:
    return [[int(v) for v in row] for row in rows]


def as_fraction_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


# --- checks -----------------------------------------------------------------


def check_transition(P: list[list[int]], n: int, b: int, sample_rows: tuple[int, ...]) -> None:
    """Row sums b^n, nonnegative entries, pi P = b^n pi for the Eulerian pi,
    and the sampled rows equal the closed formula evaluated directly."""
    expect(len(P) == n and all(len(row) == n for row in P), f"P({n},{b}) is not {n}x{n}")
    bn = b**n
    for i, row in enumerate(P, start=1):
        expect(sum(row) == bn, f"P({n},{b}) row {i} sums to {sum(row)}, not b^n")
        expect(min(row) >= 0, f"P({n},{b}) row {i} has a negative entry")
    euler = ref.eulerian_numbers(n)
    expect(ref.vec_mat(euler, P) == [bn * e for e in euler], f"pi P != b^n pi for P({n},{b})")
    for i in sample_rows:
        expect(P[i - 1] == ref.closed_row(n, b, i), f"P({n},{b}) row {i} differs from the closed formula")


def sample_rows(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, (n + 1) // 2, n}))


def check_report(report, name: str, checked: int) -> None:
    expect(report.ok and not report.failures, f"{name} report failed: {report.failures[:3]}")
    expect(report.checked == checked, f"{name} checked {report.checked} identities, expected {checked}")


def check_json_report(doc: dict, checked: int) -> None:
    rep = doc["report"]
    expect(rep["ok"] is True and rep["failures"] == [], f"{doc['meta']['command']} report failed")
    expect(rep["checked"] == checked, f"{doc['meta']['command']} checked {rep['checked']}, expected {checked}")


def check_counts(counts: list[list[int]], exact: list[list[Fraction]], total: int, label: str) -> None:
    """Counts add up to the samples requested, and each row's TV distance to
    the exact matrix stays under the bound for its sample size."""
    expect(sum(map(sum, counts)) == total, f"{label}: counts sum to {sum(map(sum, counts))}, expected {total}")
    for i, (row, exact_row) in enumerate(zip(counts, exact), start=1):
        expect(min(row) >= 0, f"{label}: negative count in row {i}")
        if sum(row):
            tv = ref.tv_distance(row, exact_row)
            bound = ref.tv_bound(len(row), sum(row), total)
            expect(tv <= bound, f"{label}: row {i} TV {float(tv):.3g} exceeds {bound:.3g}")


def check_simulation_doc(doc: dict, exact: list[list[Fraction]], total: int) -> None:
    """The CLI's counts pass ``check_counts``, and its exact frequencies and
    TV distances are the ones its counts give."""
    label = doc["meta"]["command"]
    counts = doc["counts"]
    check_counts(counts, exact, total, label)
    for i, (row, freq, tv, exact_row) in enumerate(zip(counts, doc["frequencies"], doc["tv_per_row"], exact), 1):
        s = sum(row)
        expect([Fraction(f) for f in freq] == [Fraction(c, s) if s else 0 for c in row], f"{label}: row {i} frequencies")
        expect(Fraction(tv) == (ref.tv_distance(row, exact_row) if s else 1), f"{label}: row {i} TV distance")


def normalized(P: list[list[int]], b: int) -> list[list[Fraction]]:
    bn = b ** len(P)
    return [[Fraction(e, bn) for e in row] for row in P]


def split_sum(head, tail) -> list[list[int]]:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(head.counts, tail.counts)]


# --- workloads --------------------------------------------------------------


def closed_form_wide(size: dict, seed: int) -> list[Op]:
    n1, b1 = size["wide_json"]
    n2, b2 = size["wide_csv"]
    ne, be = size["eigen"]
    ns, bs = size["stationary"]
    nm, m1, m2 = size["mult"]
    npd, p1, p2 = size["product"]
    nf, nw = size["foulkes"], size["worpitzky"]
    nd, bd, rd = size["wide_poly"]

    def check_csv(text: str, _) -> None:
        check_transition([[int(v) for v in line.split(",")] for line in text.splitlines()], n2, b2, sample_rows(n2))

    def check_foulkes(doc: dict, _) -> None:
        F = as_int_matrix(doc["matrix"])
        expect(F == ref.foulkes_matrix(nf), f"Foulkes matrix n={nf} differs from its definition")
        expect(F[-1] == ref.eulerian_numbers(nf), "last Foulkes row is not the Eulerian row")
        expect(int(doc["determinant"]) == ref.superfactorial(nf), "det F is not the superfactorial")

    def check_poly(doc: dict, _) -> None:
        coeffs = doc["coefficients"]
        expect(doc["mass"] == sum(coeffs) == (bd**rd) ** nd, "descent polynomial mass is not b^(rn)")
        expect(coeffs == ref.closed_row(nd, bd**rd, 1), "descent polynomial != row 1 of P(b^r)")

    def check_product(m, _) -> None:
        expected = ref.mat_mul(ref.closed_matrix(npd, p1), ref.closed_matrix(npd, p2))
        expect([list(r) for r in m.entries] == expected, f"P({p1 * p2}) != P({p1}) P({p2}) at n={npd}")

    return [
        cli_op("amazing", ["amazing", "--n", str(n1), "--b", str(b1)],
               lambda doc, _: check_transition(as_int_matrix(doc["matrix"]), n1, b1, sample_rows(n1))),
        cli_op("amazing-csv", ["amazing", "--n", str(n2), "--b", str(b2), "--format", "csv"], check_csv, parse=False),
        cli_op("eigen", ["eigen", "--n", str(ne), "--b", str(be)], lambda doc, _: check_json_report(doc, 2 * ne)),
        Op("verify-stationary", lambda: carrychain.verify_stationary(ns, bs),
           lambda rep, _: check_report(rep, "stationary", 1)),
        Op("verify-multiplicativity", lambda: carrychain.verify_multiplicativity(nm, m1, m2),
           lambda rep, _: check_report(rep, "multiplicativity", 1)),
        Op("amazing-product", lambda: carrychain.amazing_matrix(npd, p1 * p2), check_product),
        cli_op("foulkes-det", ["foulkes", "--n", str(nf), "--det"], check_foulkes),
        cli_op("worpitzky", ["worpitzky", "--n", str(nw)],
               lambda doc, _: expect(as_fraction_matrix(doc["matrix"]) == ref.worpitzky_matrix(nw), "Worpitzky matrix")),
        cli_op("descent-poly", ["descent-poly", "--n", str(nd), "--b", str(bd), "--r", str(rd)], check_poly),
    ]


def closed_form_deep(size: dict, seed: int) -> list[Op]:
    n, b, r = size["deep"]
    r_poly = size["deep_poly_r"]
    nw, bw, rw = size["deep_wide"]
    nm, x, rx, y, ry = size["deep_mult"]
    ns, bsp, rs = size["deep_spectrum"]
    ncp, bcp, rcp = size["deep_cli_poly"]
    nca, bca, rca = size["deep_cli_amazing"]
    cache: dict = {}

    def power(n_: int, b_: int, r_: int) -> list[list[int]]:
        key = (n_, b_, r_)
        if key not in cache:
            cache[key] = ref.mat_pow(ref.closed_matrix(n_, b_), r_)
        return cache[key]

    def check_power(n_: int, b_: int, r_: int):
        def check(m, _) -> None:
            expect([list(row) for row in m.entries] == power(n_, b_, r_), f"P({n_}, {b_}^{r_}) != P({n_}, {b_})^{r_}")

        return check

    def check_poly(coeffs, n_: int, b_: int, r_: int) -> None:
        expect(sum(coeffs) == b_ ** (r_ * n_), f"descent polynomial ({n_}, {b_}^{r_}) mass")
        expect(list(coeffs) == power(n_, b_, r_)[0], f"descent polynomial ({n_}, {b_}^{r_}) != row 1 of P^r")

    def check_long_poly(poly, _) -> None:
        # row 1 of P^(r_poly) from row 1 of P^r times P^r, as often as r_poly / r needs
        row, left = power(n, b, r)[0], r_poly - r
        while left >= r:
            row, left = ref.vec_mat(row, power(n, b, r)), left - r
        if left:
            row = ref.vec_mat(row, power(n, b, left))
        expect(list(poly.coeffs) == row and poly.mass == b ** (r_poly * n), f"descent polynomial ({n}, {b}^{r_poly})")

    return [
        Op("amazing-deep", lambda: carrychain.amazing_matrix(n, b**r), check_power(n, b, r)),
        Op("descent-poly-deep", lambda: carrychain.descent_polynomial(n, b, r),
           lambda poly, _: check_poly(poly.coeffs, n, b, r)),
        Op("descent-poly-longer", lambda: carrychain.descent_polynomial(n, b, r_poly), check_long_poly),
        Op("amazing-deeper", lambda: carrychain.amazing_matrix(nw, bw**rw), check_power(nw, bw, rw)),
        Op("verify-multiplicativity-deep", lambda: carrychain.verify_multiplicativity(nm, x**rx, y**ry),
           lambda rep, _: check_report(rep, "multiplicativity", 1)),
        Op("verify-spectrum-deep", lambda: carrychain.verify_spectrum(ns, bsp**rs),
           lambda rep, _: check_report(rep, "spectrum", 2 * ns)),
        cli_op("descent-poly", ["descent-poly", "--n", str(ncp), "--b", str(bcp), "--r", str(rcp)],
               lambda doc, _: check_poly(doc["coefficients"], ncp, bcp, rcp)),
        cli_op("amazing", ["amazing", "--n", str(nca), "--b", str(bca**rca)],
               lambda doc, _: expect(as_int_matrix(doc["matrix"]) == power(nca, bca, rca), "CLI P(n, b^r) != P^r")),
    ]


VERIFY_SUITES = (
    "row-sums", "nonnegative-entries", "spectrum", "foulkes-worpitzky-inverse", "foulkes-determinant",
    "worpitzky-power-identity", "foulkes-eulerian-row", "multiplicativity", "stationary",
    "shuffle-power-product", "idempotent-expansion-sum", "group-idempotents", "shuffle-element",
    "oracle-transition", "descent-polynomials",
)


def oracle_crosscheck(size: dict, seed: int) -> list[Op]:
    max_n = size["verify_max_n"]
    n, b = size["oracle"]
    ni = size["idempotents"]
    ng, kg = size["group_product"]

    def check_verify(out: CliOutput, _) -> None:
        doc = json.loads(out.stdout)
        suites = doc["report"]["suites"]
        expect([s["name"] for s in suites] == list(VERIFY_SUITES), "verify all ran another set of suites")
        bad = [s["name"] for s in suites if not s["ok"] or s["failures"] or s["checked"] < 1]
        expect(not bad and doc["report"]["ok"] is True, f"verify all suites not ok: {bad}")
        expect(out.stderr.rstrip().endswith(f"all checks passed (max_n={max_n})"), "verify all stderr verdict")

    def check_transition_doc(doc: dict, _) -> None:
        expect(as_fraction_matrix(doc["matrix"]) == normalized(ref.gsr_matrix(n, b), b),
               f"oracle transition ({n}, {b}) != GSR enumeration")

    def check_shuffles(doc: dict, _) -> None:
        expected = {",".join(map(str, p)): m for p, m in ref.gsr_outcomes(n, b).items()}
        expect(doc["total"] == b**n and doc["multiplicities"] == expected, f"oracle shuffles ({n}, {b})")

    def expected_idempotent(n_: int, k: int) -> dict[str, Fraction]:
        # E[k] = sum_i W(i, k) A[i]: the coefficient of a permutation with
        # d descents is W(d + 1, k); zero coefficients are left out
        W = ref.worpitzky_matrix(n_)
        coeffs = {",".join(map(str, perm)): W[ref.descents(perm)][k - 1] for perm in ref.permutations(n_)}
        return {perm: c for perm, c in coeffs.items() if c}

    def check_idempotents(doc: dict, _) -> None:
        table = doc["idempotents"]
        expect(sorted(table, key=int) == [str(k) for k in range(1, ni + 1)], "idempotent indices")
        for k in range(1, ni + 1):
            got = {p: Fraction(c) for p, c in table[str(k)].items()}
            expect(got == expected_idempotent(ni, k), f"E[{k}] at n={ni} != Worpitzky column over descent classes")

    def check_square(element, _) -> None:
        got = {str(perm): c for perm, c in element.terms.items()}
        expect(got == expected_idempotent(ng, kg), f"E[{kg}] E[{kg}] != E[{kg}] at n={ng}")

    def square_idempotent():
        e = carrychain.idempotent_group(ng, kg)
        return carrychain.group_product(e, e)

    return [
        Op("verify-all", lambda: run_cli(["verify", "all", "--max-n", str(max_n)]), check_verify, cli=True),
        cli_op("oracle-transition", ["oracle", "transition", "--n", str(n), "--b", str(b)], check_transition_doc),
        cli_op("oracle-shuffles", ["oracle", "shuffles", "--n", str(n), "--b", str(b)], check_shuffles),
        cli_op("idempotents-group", ["idempotents", "--n", str(ni), "--basis", "group"], check_idempotents),
        Op("idempotent-square", square_idempotent, check_square),
    ]


def monte_carlo(size: dict, seed: int) -> list[Op]:
    rng = random.Random(seed)
    seeds = [rng.getrandbits(64) for _ in range(5)]
    ns, bs, ts = size["shuffle_small"]
    nl, bl, tl = size["shuffle_large"]
    nc, bc, cols = size["carries"]
    nk, bk, digits, tk, head_k = size["carries_lib"]
    nh, bh, th, head_h = size["shuffle_lib"]
    carries_cfg = carrychain.SimulationConfig(trials=tk, seed=seeds[3])
    shuffle_cfg = carrychain.SimulationConfig(trials=th, seed=seeds[4])

    def sim_argv(kind: str, n: int, b: int, trials: int, s: int) -> list[str]:
        return ["simulate", kind, "--n", str(n), "--b", str(b), "--trials", str(trials), "--seed", str(s)]

    def check_whole(exact, total: int, label: str):
        return lambda m, _: check_counts([list(r) for r in m.counts], exact, total, label)

    def check_split(whole: str, head: str):
        def check(tail, results: dict) -> None:
            expect(split_sum(results[head], tail) == [list(r) for r in results[whole].counts],
                   f"{whole}: head + tail counts != whole run")

        return check

    exact_k = normalized(ref.closed_matrix(nk, bk), bk)
    exact_h = normalized(ref.gsr_matrix(nh, bh), bh)
    return [
        cli_op("simulate-shuffle-small", sim_argv("shuffle", ns, bs, ts, seeds[0]),
               lambda doc, _: check_simulation_doc(doc, normalized(ref.gsr_matrix(ns, bs), bs), ts)),
        cli_op("simulate-shuffle-large", sim_argv("shuffle", nl, bl, tl, seeds[1]),
               lambda doc, _: check_simulation_doc(doc, normalized(ref.closed_matrix(nl, bl), bl), tl)),
        cli_op("simulate-carries", sim_argv("carries", nc, bc, cols, seeds[2]),
               lambda doc, _: check_simulation_doc(doc, normalized(ref.closed_matrix(nc, bc), bc), cols)),
        Op("carries-trials", lambda: carrychain.simulate_carries(nk, bk, digits, carries_cfg),
           check_whole(exact_k, tk * digits, "carries-trials")),
        Op("carries-head",
           lambda: carrychain.simulate_carries(nk, bk, digits, carrychain.SimulationConfig(head_k, seeds[3])),
           check_whole(exact_k, head_k * digits, "carries-head")),
        Op("carries-tail",
           lambda: carrychain.simulate_carries(
               nk, bk, digits, carrychain.SimulationConfig(tk - head_k, seeds[3]), trial_offset=head_k),
           check_split("carries-trials", "carries-head")),
        Op("shuffle-trials", lambda: carrychain.simulate_shuffle_chain(nh, bh, shuffle_cfg),
           check_whole(exact_h, th, "shuffle-trials")),
        Op("shuffle-head",
           lambda: carrychain.simulate_shuffle_chain(nh, bh, carrychain.SimulationConfig(head_h, seeds[4])),
           check_whole(exact_h, head_h, "shuffle-head")),
        Op("shuffle-tail",
           lambda: carrychain.simulate_shuffle_chain(
               nh, bh, carrychain.SimulationConfig(th - head_h, seeds[4]), trial_offset=head_h),
           check_split("shuffle-trials", "shuffle-head")),
    ]


BUILDERS = {
    "closed-form-wide": closed_form_wide,
    "closed-form-deep": closed_form_deep,
    "oracle-crosscheck": oracle_crosscheck,
    "monte-carlo": monte_carlo,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, scale: str = "full") -> list[Op]:
    return BUILDERS[workload](SIZES[scale], seed)
