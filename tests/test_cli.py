import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrychain import cli
from carrychain.cli import main, run_verify_all


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
        code, _, _ = run_cli(capsys, "oracle", "transition", "--n", "7", "--b", "2")
        assert code == 2


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


# small sizes with the edge values 0 and negatives, plus sizes over every
# oracle budget (b^n > 10^7, n > 6 for the transition and the idempotents)
_ORACLE_SIZES = st.one_of(st.integers(-2, 7), st.just(30))
_ORACLE_BASES = st.one_of(st.integers(-2, 4), st.just(10**8))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["transition", "shuffles", "idempotents"]), _ORACLE_SIZES, _ORACLE_BASES)
def test_oracle_commands_keep_the_contract(command, n, b):
    if command == "idempotents":
        argv = ["idempotents", "--n", str(n), "--basis", "group"]
    else:
        argv = ["oracle", command, "--n", str(n), "--b", str(b)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert out.getvalue().endswith("}\n")
        json.loads(out.getvalue())
    assert bool(out.getvalue()) == (code == 0)


# simulator sizes kept small, with n = 1, bases at and past 2^63 and seeds at
# and past 2^64
_SIM_SIZES = st.integers(-1, 5)
_SIM_BASES = st.one_of(st.integers(-1, 12), st.sampled_from([2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**70]))
_SIM_TRIALS = st.integers(-1, 300)
_SIM_SEEDS = st.one_of(st.integers(-1, 2**64 - 1), st.integers(2**64, 2**70))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["shuffle", "carries"]), _SIM_SIZES, _SIM_BASES, _SIM_TRIALS, _SIM_SEEDS)
def test_simulate_commands_keep_the_contract(command, n, b, trials, seed):
    argv = ["simulate", command, "--n", str(n), "--b", str(b), "--trials", str(trials), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        assert out.getvalue().endswith("}\n")
        doc = json.loads(out.getvalue())
        assert sum(map(sum, doc["counts"])) == trials
    assert bool(out.getvalue()) == (code == 0)


# sizes up to 40 with the edge values 0 and negatives, plus a size and an
# exponent over the closed-form work budget; bases up to 2^70
_CLOSED_SIZES = st.one_of(st.integers(-2, 40), st.just(100_000))
_CLOSED_BASES = st.one_of(st.integers(-1, 12), st.sampled_from([2**31, 2**64, 2**70]))
_CLOSED_EXPONENTS = st.one_of(st.integers(-1, 30), st.just(10**9))


def _closed_form_argv(command: str, n: int, b: int, r: int) -> list[str]:
    size = ["--n", str(n)]
    return {
        "amazing": ["amazing", *size, "--b", str(b)],
        "amazing-csv": ["amazing", *size, "--b", str(b), "--format", "csv"],
        "descent-poly": ["descent-poly", *size, "--b", str(b), "--r", str(r)],
        "foulkes": ["foulkes", *size, "--det"],
        "worpitzky": ["worpitzky", *size],
        "eigen": ["eigen", *size, "--b", str(b)],
    }[command]


@settings(max_examples=40, deadline=None)
@example("amazing", 40, 2**70, 1)
@example("amazing-csv", 40, 3, 1)
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
@given(
    st.sampled_from(["amazing", "amazing-csv", "descent-poly", "foulkes", "worpitzky", "eigen"]),
    _CLOSED_SIZES,
    _CLOSED_BASES,
    _CLOSED_EXPONENTS,
)
def test_closed_form_commands_keep_the_contract(command, n, b, r):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_closed_form_argv(command, n, b, r))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    assert bool(text) == (code in (0, 1))
    if not text:
        return
    assert text.endswith("\n")
    if command == "amazing-csv":
        rows = [line.split(",") for line in text.splitlines()]
        assert len(rows) == n and all(len(row) == n for row in rows)
        assert all(sum(map(int, row)) == b**n for row in rows)
    else:
        doc = json.loads(text)
        assert doc["meta"]["params"]["n"] == n
