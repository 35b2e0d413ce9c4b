import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrychain import cli, eulerian, matrix, simulate
from carrychain.cli import main, run_verify_all
from carrychain.combinat import superfactorial
from carrychain.eulerian import SWordExpansion
from carrychain.matrix import amazing_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAmazing:
    def test_normalized_csv(self, capsys):
        code, out, _ = run_cli(capsys, "amazing", "--n", "2", "--b", "2", "--normalized", "--format", "csv")
        assert code == 0
        assert out == "3/4,1/4\n1/4,3/4\n"

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "amazing", "--n", "2", "--b", "2", "--format", "csv", "--header")
        assert code == 0
        assert out.splitlines()[0] == "1,2"

    def test_json_unnormalized(self, capsys):
        code, out, _ = run_cli(capsys, "amazing", "--n", "3", "--b", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["matrix"] == [[4, 4, 0], [1, 6, 1], [0, 4, 4]]
        assert doc["meta"]["params"]["normalizer"] == 8
        assert doc["meta"]["params"]["states"] == [1, 2, 3]

    def test_zero_based_relabels_without_changing_values(self, capsys):
        code, out, _ = run_cli(capsys, "amazing", "--n", "3", "--b", "2", "--zero-based")
        doc = json.loads(out)
        assert code == 0
        assert doc["meta"]["params"]["states"] == [0, 1, 2]
        assert doc["matrix"] == [[4, 4, 0], [1, 6, 1], [0, 4, 4]]

    def test_rejects_zero_n(self, capsys):
        code, _, _ = run_cli(capsys, "amazing", "--n", "0", "--b", "2")
        assert code == 2

    def test_normalized_json_uses_fraction_strings(self, capsys):
        code, out, _ = run_cli(capsys, "amazing", "--n", "2", "--b", "2", "--normalized")
        doc = json.loads(out)
        assert doc["matrix"] == [["3/4", "1/4"], ["1/4", "3/4"]]

    def test_over_the_work_budget_writes_nothing(self, capsys):
        code, out, err = run_cli(capsys, "amazing", "--n", "100000", "--b", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: amazing_matrix: estimated work")

    def test_repeated_invocations_are_byte_identical(self, capsys):
        args = ("amazing", "--n", "5", "--b", "3", "--normalized")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestFoulkesWorpitzky:
    def test_determinant(self, capsys):
        code, out, _ = run_cli(capsys, "foulkes", "--n", "4", "--det")
        doc = json.loads(out)
        assert code == 0
        assert doc["determinant"] == "288"
        assert doc["matrix"][3] == [1, 11, 11, 1]

    def test_determinant_reads_the_table_it_writes(self, capsys, monkeypatch):
        built = []

        def counted(n):
            built.append(n)
            return build(n)

        build = eulerian.foulkes_matrix
        monkeypatch.setattr(cli, "foulkes_matrix", counted)
        monkeypatch.setattr(matrix, "foulkes_matrix", counted)
        code, out, _ = run_cli(capsys, "foulkes", "--n", "40", "--det")
        assert (code, built) == (0, [40])
        assert json.loads(out)["determinant"] == str(superfactorial(40))
        # the determinant's budget is checked before any table is built
        code, out, err = run_cli(capsys, "foulkes", "--n", "100", "--det")
        assert (code, out, built) == (2, "", [40])
        assert err.startswith("error: foulkes_determinant: estimated work")

    def test_worpitzky(self, capsys):
        code, out, _ = run_cli(capsys, "worpitzky", "--n", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["matrix"] == [["1/2", "1/2"], ["-1/2", "1/2"]]


class TestEigen:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--n", "4", "--b", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["ok"] is True
        assert doc["report"]["checked"] == 8

    def test_over_the_work_budget_writes_nothing(self, capsys):
        # every table of n = 200 passes the budget; the 2 n^3 eigen products do not
        code, out, err = run_cli(capsys, "eigen", "--n", "200", "--b", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify_spectrum: estimated work")


class TestIdempotents:
    def test_s_basis(self, capsys):
        code, out, _ = run_cli(capsys, "idempotents", "--n", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["idempotents"]["1"] == {"1,1": "-1/2", "2": 1}
        assert doc["idempotents"]["2"] == {"1,1": "1/2"}

    def test_group_basis(self, capsys):
        code, out, _ = run_cli(capsys, "idempotents", "--n", "2", "--basis", "group")
        doc = json.loads(out)
        assert code == 0
        assert doc["idempotents"]["1"] == {"1,2": "1/2", "2,1": "-1/2"}

    def test_group_basis_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "idempotents", "--n", "7", "--basis", "group")
        assert code == 2
        assert "error" in err

    def test_s_basis_terms_are_bounded_before_any_expansion(self, capsys, monkeypatch):
        # n = 15 writes (15 + 1) 2^13 = 2^17 terms, the most admitted
        built = []
        monkeypatch.setattr(cli, "idempotent_s_expansion", lambda n, k: built.append(k) or SWordExpansion(n))
        code, out, _ = run_cli(capsys, "idempotents", "--n", "15")
        assert code == 0 and built == list(range(1, 16))
        assert json.loads(out)["idempotents"] == {str(k): {} for k in range(1, 16)}
        built.clear()
        for n in ("16", str(10**20)):
            code, out, err = run_cli(capsys, "idempotents", "--n", n)
            assert (code, out, built) == (2, "", [])
            assert err == f"error: idempotents: E[1..{n}] over S-words exceed the budget of 131072 terms\n"


class TestBudgets:
    def test_every_refusal_is_a_budget_error(self):
        from carrychain import oracle
        from carrychain.combinat import BudgetError, compositions

        config = simulate.SimulationConfig(trials=1, seed=1)
        many = dataclasses.replace(config, trials=2**31)
        # each message names the refused operation or the budget it is over
        refusals = [
            ("^amazing_matrix: estimated work", lambda: amazing_matrix(100_000, 2)),  # WORK_BUDGET
            ("^enumeration budget exceeded", lambda: oracle.enumerate_b_shuffles(30, 2)),  # ENUMERATION_BUDGET
            ("^outcome budget exceeded", lambda: oracle.enumerate_b_shuffles(23, 2)),  # OUTCOME_BUDGET
            ("^the simulation needs .* random draws", lambda: simulate.simulate_shuffle_chain(3, 2, many)),  # DRAW_BUDGET
            ("transition tally has", lambda: simulate.simulate_carries(1025, 2, digits=1, cfg=config)),  # TALLY_CELLS
            ("^idempotents: ", lambda: cli._cmd_idempotents(argparse.Namespace(n=16, basis="s"))),  # IDEMPOTENT_TERMS
            ("^compositions: 2\\^39 ", lambda: cli.idempotent_s_expansion(40, 1)),  # IDEMPOTENT_TERMS, one expansion
            ("^compositions: 2\\^1199 ", lambda: compositions(1200)),  # IDEMPOTENT_TERMS, compositions
        ]
        for message, refused in refusals:
            with pytest.raises(BudgetError, match=message) as caught:
                refused()
            assert type(caught.value) is BudgetError and isinstance(caught.value, ValueError)


class TestDescentPoly:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "descent-poly", "--n", "2", "--b", "2", "--r", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["coefficients"] == [10, 6]
        assert doc["mass"] == 16
        assert doc["meta"]["params"]["base"] == 4

    def test_over_the_digit_limit_writes_nothing(self, capsys):
        # the coefficients pass Python's int->str limit of 4300 digits
        code, out, err = run_cli(capsys, "descent-poly", "--n", "4", "--b", "2", "--r", "5000")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_both_edges_of_the_digit_limit(self, capsys):
        # 10^4299 has 4300 digits, the most Python converts by default
        code, out, _ = run_cli(capsys, "descent-poly", "--n", "1", "--b", "10", "--r", "4299")
        assert code == 0 and len(out) == 13_100
        assert json.loads(out)["coefficients"] == [10**4299]
        code, out, err = run_cli(capsys, "descent-poly", "--n", "1", "--b", "10", "--r", "4300")
        assert code == 2 and out == ""
        limit = "the output holds an integer of more than 4300 digits, Python's int-to-str limit"
        assert err == f"error: descent-poly: {limit}\n"

    def test_the_digit_limit_names_the_command_in_csv(self, capsys):
        code, out, err = run_cli(capsys, "amazing", "--n", "3", "--b", str(10**1500), "--format", "csv")
        assert code == 2 and out == ""
        assert err.startswith("error: amazing: the output holds an integer of more than 4300 digits")
        assert "set_int_max_str_digits" not in err


class TestOracle:
    def test_transition(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "transition", "--n", "2", "--b", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["matrix"] == [["3/4", "1/4"], ["1/4", "3/4"]]

    def test_shuffles(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "shuffles", "--n", "2", "--b", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["total"] == 4
        assert doc["multiplicities"] == {"1,2": 3, "2,1": 1}

    def test_outcome_bound_is_usage_error(self, capsys):
        # 2^23 words pass the word budget, but up to min(2^23, 23!) outcomes
        # do not pass the outcome budget
        code, out, err = run_cli(capsys, "oracle", "shuffles", "--n", "23", "--b", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: outcome budget exceeded")

    def test_transition_bound_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "transition", "--n", "7", "--b", "2")
        assert code == 2
        assert out == ""
        assert err == "error: transition oracle is limited to n <= 6, got 7\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("oracle", "transition", "--n", "6", "--b", "3"),
             "67c8df6487ba69e607211546733821342fc8fe40d3a0f57268f11e2dc13b7158"),
            (("oracle", "shuffles", "--n", "6", "--b", "3"),
             "cd1c3b4b082798fe37f6404c28c984b774b473049a378df4a9f42dbd17ad9776"),
            (("idempotents", "--basis", "group", "--n", "6"),
             "9b7b8a6d097f83b2446164ec6719c3053d29fca25c0ab6e91ba49f9dcc87a56c"),
            (("foulkes", "--n", "12", "--det"),
             "e06ce516f188010bcdb7f056bdf79de2626d67a7d9a63339687a382e167a2eab"),
            (("worpitzky", "--n", "12"),
             "23e27952574c93222af3cd965bc19e7ed0d021231f54cb5a9320e5e19c5b955e"),
            (("amazing", "--n", "12", "--b", "3", "--normalized"),
             "fa97134305153cfc4fb45731ae61325db142e3765b223a6538d56fff6bf6b20f"),
        ],
        ids=["transition", "shuffles", "idempotents", "foulkes-det", "worpitzky", "amazing-normalized"],
    )
    def test_output_is_pinned(self, capsys, argv, digest):
        # SHA-256 of the stdout document, pinned from the release whose
        # oracle held Permutation objects and Fraction coefficients, and
        # whose Foulkes and Worpitzky tables held Fraction entries
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_packet_deck_bound_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "shuffles", "--n", "20", "--b", "1")
        assert code == 0 and json.loads(out)["multiplicities"] == {",".join(map(str, range(1, 21))): 1}
        code, out, err = run_cli(capsys, "oracle", "shuffles", "--n", "21", "--b", "1")
        assert (code, out) == (2, "")
        assert err == "error: rank budget exceeded: the ranks of S_21 overflow int64 past n = 20\n"

    def test_a_mismatch_is_a_failed_verification(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "amazing_matrix", lambda n, b: amazing_matrix(n, b + 1))
        code, out, err = run_cli(capsys, "oracle", "transition", "--n", "3", "--b", "2")
        assert code == 1
        assert out == ""
        assert err == "verification failed: transition row mismatch at n=3, b=2, state 1\n"

    def test_corrupt_closed_matrix_is_a_mismatch(self, monkeypatch):
        monkeypatch.setattr(cli, "amazing_matrix", lambda n, b: amazing_matrix(n, b + 1))
        (row,) = [suite for suite in cli.SUITES if suite.name == "oracle-transition"]
        report = row.run(3)
        # the rows are compared as word counts, so even the one row of n = 1,
        # b words against b + 1, differs
        assert (report.ok, report.checked) == (False, 6)
        assert report.failures == tuple(f"transition row mismatch at n={n}, b={b}, state 1" for n in (1, 2, 3) for b in (2, 3))


# each simulation is cheap to draw, but its exact matrix is over the
# closed-form work budget
_OVER_THE_CLOSED_FORM_BUDGET = [
    ("simulate", "shuffle", "--n", "1000000", "--b", "2", "--trials", "1", "--seed", "1"),
    ("simulate", "carries", "--n", "3000", "--b", "2", "--trials", "10", "--seed", "1"),
]


class TestSimulate:
    def test_shuffle_repeatable_bytes(self, capsys):
        args = ("simulate", "shuffle", "--n", "2", "--b", "2", "--trials", "3000", "--seed", "99")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert sum(sum(row) for row in doc["counts"]) == 3000
        assert doc["meta"]["params"]["seed"] == 99

    def test_carries_payload(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "carries", "--n", "2", "--b", "10", "--trials", "5000", "--seed", "7")
        doc = json.loads(out)
        assert code == 0
        assert doc["meta"]["params"]["states"] == [0, 1]
        assert doc["meta"]["params"]["columns"] == 5000
        assert sum(sum(row) for row in doc["counts"]) == 5000
        assert len(doc["tv_per_row"]) == 2

    def test_rejects_huge_seed(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "shuffle", "--n", "2", "--b", "2", "--trials", "10", "--seed", str(2**64))
        assert code == 2

    @pytest.mark.parametrize(
        "kind, n, b, expected",
        [
            ("shuffle", 3, 2**63, 0),
            ("shuffle", 3, 2**63 + 1, 2),
            ("shuffle", 3, 2**64, 2),
            # carries: 2 + 3 (b - 1) < 2^63 holds up to b = (2^63 + 1) / 3 - 1
            ("carries", 3, (2**63 + 1) // 3 - 1, 0),
            ("carries", 3, (2**63 + 1) // 3, 2),
            ("carries", 3, 2**63 + 5, 2),
        ],
    )
    def test_base_bounds(self, capsys, kind, n, b, expected):
        code, out, err = run_cli(capsys, "simulate", kind, "--n", str(n), "--b", str(b), "--trials", "100", "--seed", "1")
        assert code == expected
        assert "Traceback" not in err
        if expected == 0:
            assert sum(sum(row) for row in json.loads(out)["counts"]) == 100
        else:
            assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", _OVER_THE_CLOSED_FORM_BUDGET)
    def test_the_closed_form_budget_is_checked_before_simulating(self, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("simulated before the closed-form budget check")

        monkeypatch.setattr(simulate, "simulate_shuffle_chain", never)
        monkeypatch.setattr(simulate, "simulate_carries", never)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "budget" in err


def _two_gib_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv",
    _OVER_THE_CLOSED_FORM_BUDGET + [
        ("simulate", "shuffle", "--n", "3", "--b", "2", "--trials", str(10**12), "--seed", "1"),
        ("oracle", "shuffles", "--n", str(10**7), "--b", str(10**9)),
        ("oracle", "shuffles", "--n", str(10**6), "--b", "1"),
    ],
)
def test_oversized_simulations_exit_2_at_once(argv):
    # the (n, n) counts of n = 10^6 alone would take 8 TB; 10^12 trials are
    # over the draw budget and would draw for hours; (10^9)^(10^7), built in
    # full before the word budget was compared, took over two minutes; the
    # one outcome of 10^6 cards at b = 1, built before n was bounded, took
    # 0.6 s and 143 MiB
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "carrychain.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_two_gib_of_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "budget" in proc.stderr and "Traceback" not in proc.stderr


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["ok"] is True
        assert len(doc["report"]["suites"]) == 15
        assert "all checks passed" in err

    def test_suites_at_max_n_6(self):
        # (name, params, identities checked), in report order
        expected = [
            ("row-sums", {"max_n": 6, "b": [2, 3, 10]}, 63),
            ("nonnegative-entries", {"max_n": 6, "b": "1..10"}, 910),
            ("spectrum", {"max_n": 6, "b": [2, 3, 5]}, 126),
            ("foulkes-worpitzky-inverse", {"max_n": 6}, 91),
            ("foulkes-determinant", {"max_n": 6}, 6),
            ("worpitzky-power-identity", {"max_n": 6, "x": "1..10"}, 210),
            ("foulkes-eulerian-row", {"max_n": 6}, 21),
            ("multiplicativity", {"max_n": 6, "b": "1..4"}, 96),
            ("stationary", {"max_n": 6, "b": [2, 3]}, 12),
            ("shuffle-power-product", {"max_n": 6, "p,q": "1..6"}, 216),
            ("idempotent-expansion-sum", {"max_n": 6}, 6),
            ("group-idempotents", {"max_n": 6}, 62),
            ("shuffle-element", {"max_n": 6, "b": "1..4"}, 72),
            ("oracle-transition", {"max_n": 6, "b": [2, 3]}, 12),
            ("descent-polynomials", {"max_n": 6, "base": "<= 9"}, 114),
        ]
        assert [(r.name, r.params, r.checked) for r in run_verify_all(6)] == expected

    @pytest.mark.parametrize(
        "max_n, digest",
        [
            (1, "80e186212c6aef8dd3ebed7e491be330ce43b442aa6ec7b6695ffd5dbee86933"),
            (2, "9f2aa03cc7a018bfe1b9d6b44a869cf4b7d2a459a19ece09db41f4dd5be2f27a"),
            (3, "1b1a29898475c8fece3d67731476aea921010f2362897e9a5469dee76eb769b5"),
            (4, "f7bc26d9ddd086ab31c48332cbe1c3ed551fa4af4478307966eb51b96cdcf898"),
            (5, "7389d551a76f7f049a410698333c0603650fe21656c993803c47aca7389ed92e"),
            (6, "c995b6cf7015ba3f9ef2123a9d33b4aeb15de49d934045a23a6e1c00d71dc18c"),
        ],
    )
    def test_all_json_is_pinned(self, capsys, max_n, digest):
        # SHA-256 of the stdout document, pinned from the release before the
        # oracle was imported lazily
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", str(max_n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_failing_and_a_crashing_row_do_not_stop_the_run(self, capsys, monkeypatch):
        def crash(*case):
            raise RuntimeError("planted crash")

        rows = list(cli.SUITES)
        rows[1] = dataclasses.replace(rows[1], check=lambda *case: (1, [f"planted failure at {case}"]))
        rows[2] = dataclasses.replace(rows[2], check=crash)
        monkeypatch.setattr(cli, "SUITES", tuple(rows))
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", "2")
        assert code == 1
        assert "FAILURES detected" in err
        suites = json.loads(out)["report"]["suites"]
        assert suites[1]["ok"] is False and suites[1]["checked"] == 20
        assert suites[1]["failures"][0] == "planted failure at (1, 1)"
        assert suites[2]["ok"] is False and suites[2]["failures"] == ["RuntimeError: planted crash"]
        assert len(suites) == 15 and all(s["ok"] and s["checked"] > 0 for s in suites[3:])


class TestUsage:
    def test_missing_command(self, capsys):
        code, _, _ = run_cli(capsys, )
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "foulkes")
        assert code == 2


def _command(argv: list[str]) -> str:
    """The leaf command of ``argv``: its words before the first option."""
    return " ".join(itertools.takewhile(lambda word: not word.startswith("-"), argv))


def _keeps_the_contract(argv: list[str]) -> tuple[int, str]:
    """Run ``argv`` in process and assert the CLI contract: exit code 0, 1
    or 2; no traceback; nothing on stdout with exit 2 and something with
    exit 0; and stdout, when it holds anything, exactly one document ending
    in a newline: CSV of equal-length rows for ``--format csv``, else JSON
    whose meta names the command.  Returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert text == ""
    if code == 0:
        assert text
    if text:
        assert text.endswith("\n")
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(text)))
            assert rows and len({len(row) for row in rows}) == 1
        else:
            assert json.loads(text)["meta"]["command"] == _command(argv)
    return code, text


def _leaf_commands(parser: argparse.ArgumentParser) -> set[str]:
    leaves = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                below = _leaf_commands(sub)
                leaves |= {f"{name} {leaf}" for leaf in below} if below else {name}
    return leaves


# small sizes with the edge values 0 and negatives, plus sizes over every
# oracle budget (b^n > 10^7, n > 6 for the transition and the idempotents);
# for `verify all` the size is --max-n, past every row's cap at 30
_ORACLE_COMMANDS = ["transition", "shuffles", "idempotents", "verify"]
_ORACLE_SIZES = st.one_of(st.integers(-2, 7), st.just(30))
_ORACLE_BASES = st.one_of(st.integers(-2, 4), st.just(10**8))


def _oracle_argv(command: str, n: int, b: int) -> list[str]:
    if command == "idempotents":
        return ["idempotents", "--n", str(n), "--basis", "group"]
    if command == "verify":
        return ["verify", "all", "--max-n", str(n)]
    return ["oracle", command, "--n", str(n), "--b", str(b)]


@settings(max_examples=30, deadline=None)
@example("verify", 0, 1)
@given(st.sampled_from(_ORACLE_COMMANDS), _ORACLE_SIZES, _ORACLE_BASES)
def test_oracle_commands_keep_the_contract(command, n, b):
    _keeps_the_contract(_oracle_argv(command, n, b))


# simulator sizes kept small, with n = 1, bases at and past 2^63 and seeds at
# and past 2^64
_SIM_COMMANDS = ["shuffle", "carries"]
_SIM_SIZES = st.integers(-1, 5)
_SIM_BASES = st.one_of(st.integers(-1, 12), st.sampled_from([2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**70]))
_SIM_TRIALS = st.integers(-1, 300)
_SIM_SEEDS = st.one_of(st.integers(-1, 2**64 - 1), st.integers(2**64, 2**70))


def _simulate_argv(command: str, n: int, b: int, trials: int, seed: int) -> list[str]:
    return ["simulate", command, "--n", str(n), "--b", str(b), "--trials", str(trials), "--seed", str(seed)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SIM_COMMANDS), _SIM_SIZES, _SIM_BASES, _SIM_TRIALS, _SIM_SEEDS)
def test_simulate_commands_keep_the_contract(command, n, b, trials, seed):
    _, text = _keeps_the_contract(_simulate_argv(command, n, b, trials, seed))
    if text:
        assert sum(map(sum, json.loads(text)["counts"])) == trials


# sizes up to 40 with the edge values 0 and negatives, plus a size and an
# exponent over the closed-form work budget; bases up to 2^70
_CLOSED_COMMANDS = [
    "amazing", "amazing-csv", "amazing-normalized", "amazing-normalized-csv",
    "descent-poly", "foulkes", "worpitzky", "eigen", "idempotents",
]
_CLOSED_SIZES = st.one_of(st.integers(-2, 40), st.just(100_000))
_CLOSED_BASES = st.one_of(st.integers(-1, 12), st.sampled_from([2**31, 2**64, 2**70]))
_CLOSED_EXPONENTS = st.one_of(st.integers(-1, 30), st.just(10**9))


def _closed_form_argv(command: str, n: int, b: int, r: int) -> list[str]:
    size = ["--n", str(n)]
    return {
        "amazing": ["amazing", *size, "--b", str(b)],
        "amazing-csv": ["amazing", *size, "--b", str(b), "--format", "csv"],
        "amazing-normalized": ["amazing", *size, "--b", str(b), "--normalized"],
        "amazing-normalized-csv": ["amazing", *size, "--b", str(b), "--normalized", "--format", "csv"],
        "descent-poly": ["descent-poly", *size, "--b", str(b), "--r", str(r)],
        "foulkes": ["foulkes", *size, "--det"],
        "worpitzky": ["worpitzky", *size],
        "eigen": ["eigen", *size, "--b", str(b)],
        "idempotents": ["idempotents", *size, "--basis", "s"],
    }[command]


@settings(max_examples=40, deadline=None)
@example("amazing", 40, 2**70, 1)
@example("amazing-csv", 40, 3, 1)
@example("amazing-normalized", 12, 3, 1)
@example("amazing-normalized-csv", 12, 2**70, 1)
@example("descent-poly", 40, 2**70, 30)  # over the int->str digit limit
@example("descent-poly", 3, 2**70, 10**9)
@example("foulkes", 40, 1, 1)
@example("worpitzky", 40, 1, 1)
@example("eigen", 40, 2**70, 1)
@example("eigen", 200, 2, 1)
@example("eigen", 100_000, 2, 1)
@example("amazing", 16, 3**1000, 1)  # the spectral path
@example("amazing-csv", 12, 2**3000, 1)
@example("eigen", 12, 2**1000, 1)
@example("descent-poly", 1, 10, 4300)  # one digit over the int->str limit
@example("idempotents", 16, 1, 1)  # one size over the term budget, refused before any expansion
@given(st.sampled_from(_CLOSED_COMMANDS), _CLOSED_SIZES, _CLOSED_BASES, _CLOSED_EXPONENTS)
def test_closed_form_commands_keep_the_contract(command, n, b, r):
    code, text = _keeps_the_contract(_closed_form_argv(command, n, b, r))
    if command == "idempotents" and n > 15:
        assert code == 2
    if text and command == "amazing-csv":
        rows = [line.split(",") for line in text.splitlines()]
        assert len(rows) == n and all(len(row) == n for row in rows)
        assert all(sum(map(int, row)) == b**n for row in rows)
    elif text and command == "amazing-normalized-csv":
        rows = [line.split(",") for line in text.splitlines()]
        assert len(rows) == n and all(len(row) == n for row in rows)
        assert all(sum(map(Fraction, row)) == 1 for row in rows)
    elif text:
        assert json.loads(text)["meta"]["params"]["n"] == n


def test_the_contract_tests_draw_every_command():
    # a new subcommand fails here until one of the tests above draws it
    drawn = [_oracle_argv(command, 1, 2) for command in _ORACLE_COMMANDS]
    drawn += [_simulate_argv(command, 1, 2, 1, 1) for command in _SIM_COMMANDS]
    drawn += [_closed_form_argv(command, 1, 2, 1) for command in _CLOSED_COMMANDS]
    leaves = _leaf_commands(cli.build_parser())
    assert len(leaves) == 11
    assert {_command(argv) for argv in drawn} == leaves
