"""CLI: dispatch, exact payloads, file outputs, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from click.testing import CliRunner

import fermatgroups
from fermatgroups import cli as cli_module
from fermatgroups import stroboscope
from fermatgroups.cli import cli, main
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.monomial import MonomialMatrix
from fermatgroups.rationals import format_point, format_projective, format_rational, parse_point, parse_projective
from fermatgroups.search import SearchReport


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


class TestDispatchExamples:
    def test_compose_pole(self, runner):
        result = run(runner, "circle", "compose", "--d1", "1", "--d2", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "inf"

    def test_triples_json(self, runner):
        result = run(runner, "triples", "--height", "2", "--format", "json")
        assert result.output.strip() == "[[3,4,5]]"

    def test_kgroup_order(self, runner):
        result = run(runner, "kgroup", "order", "--k", "3", "--n", "2")
        assert result.output.strip() == "18"

    def test_invalid_k_exits_two(self):
        assert main(["kgroup", "order", "--k", "2", "--n", "2"]) == 2

    def test_python_dash_m_runs_the_cli(self):
        source = Path(fermatgroups.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "fermatgroups", "kgroup", "order", "--k", "3", "--n", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(source)},
            timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "18\n", "")


class TestExitCodes:
    def test_success(self):
        assert main(["circle", "compose", "--d1", "1/2", "--d2", "1/3"]) == 0

    def test_malformed_rational(self, capsys):
        assert main(["circle", "compose", "--d1", "1/0", "--d2", "1"]) == 2
        assert "1/0" in capsys.readouterr().err

    def test_malformed_point(self):
        assert main(["circle", "act", "--delta", "1", "--point", "1;0"]) == 2

    def test_off_curve_point(self):
        assert main(["circle", "act", "--delta", "1", "--point", "1,1"]) == 2

    def test_unknown_flag(self):
        assert main(["triples", "--height", "2", "--frobnicate"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_resource_limit_exit_three(self, monkeypatch):
        monkeypatch.setenv("FERMAT_ORBIT_LIMIT", "5")
        assert main(["kgroup", "enumerate", "--k", "3", "--n", "2"]) == 3

    def test_explicit_limit_beats_env(self, monkeypatch):
        monkeypatch.setenv("FERMAT_ORBIT_LIMIT", "5")
        assert main(["kgroup", "enumerate", "--k", "3", "--n", "2", "--limit", "100"]) == 0

    def test_hyper_unit_parameter(self):
        assert main(["hyper", "compose", "--d1", "1", "--d2", "1/2"]) == 2

    def test_search_budget(self):
        # n=4 at this height overflows the prefix budget
        assert main(["search", "--k", "3", "--height", "50", "--n", "4"]) == 3

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["iterate", "--delta", "1/2", "--steps", "2", "--csv"],
            ["search", "--k", "3", "--height", "5", "--json"],
        ],
        ids=["iterate-csv", "search-json"],
    )
    def test_unwritable_side_file_exits_two(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error_lines = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert error_lines == [f"error: cannot write {path}: No such file or directory"]
        assert "Traceback" not in captured.err


class TestCirclePayloads:
    def test_act_text_and_json(self, runner):
        text = run(runner, "circle", "act", "--delta", "1/2", "--point", "1,0")
        assert text.output.strip() == "3/5,4/5"
        payload = run(
            runner, "circle", "act", "--delta", "1/2", "--point", "1,0", "--format", "json"
        )
        assert json.loads(payload.output) == ["3/5", "4/5"]

    def test_act_reflect(self, runner):
        result = run(runner, "circle", "act", "--delta", "0", "--reflect", "--point", "3/5,4/5")
        assert result.output.strip() == "3/5,-4/5"

    def test_solve_round_trip(self, runner):
        solved = run(
            runner, "circle", "solve", "--from", "3/5,4/5", "--to", "5/13,12/13",
            "--format", "json",
        )
        payload = json.loads(solved.output)
        assert payload == {"delta": "1/8", "reflected": False}
        acted = run(
            runner, "circle", "act", "--delta", payload["delta"], "--point", "3/5,4/5"
        )
        assert acted.output.strip() == "5/13,12/13"

    def test_audit_single_pair(self, runner):
        result = run(
            runner, "circle", "audit-exy", "--from", "3/5,4/5", "--to", "5/13,12/13",
            "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["left"] == payload["right"] == payload["solver"] == "1/8"

    def test_audit_sweep(self, runner):
        result = run(runner, "circle", "audit-exy", "--height", "5", "--format", "json")
        payload = json.loads(result.output)
        assert payload["identity_holds"] is True
        assert payload["points"] == 12

    def test_audit_rejects_mixed_modes(self):
        assert main(["circle", "audit-exy", "--height", "5", "--from", "1,0", "--to", "0,1"]) == 2
        assert main(["circle", "audit-exy", "--from", "1,0"]) == 2


class TestHyperPayloads:
    def test_compose(self, runner):
        result = run(runner, "hyper", "compose", "--d1", "1/2", "--d2", "1/3")
        assert result.output.strip() == "5/7"

    def test_solve_witness(self, runner):
        result = run(
            runner, "hyper", "solve", "--from", "5/4,3/4", "--to", "5/3,4/3", "--format", "json"
        )
        assert json.loads(result.output) == {"delta": "1/5", "reflected": False}

    def test_audit_single_pair_keeps_discrepancy(self, runner):
        result = run(
            runner, "hyper", "audit", "--from", "5/4,3/4", "--to", "5/3,4/3", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["left"] == "-3/55"
        assert payload["right"] == "1/5"
        assert payload["sides_equal"] is False


class TestTriples:
    def test_text(self, runner):
        result = run(runner, "triples", "--height", "3")
        assert result.output.splitlines() == ["3 4 5", "5 12 13"]

    def test_csv(self, runner):
        result = run(runner, "triples", "--height", "3", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows == [["a", "b", "c"], ["3", "4", "5"], ["5", "12", "13"]]


class TestKgroupPayloads:
    def test_enumerate_json_round_trips(self, runner):
        result = run(runner, "kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "json")
        elements = json.loads(result.output)
        assert len(elements) == 18
        from fermatgroups.monomial import MonomialMatrix

        rebuilt = {MonomialMatrix.from_dict(3, e) for e in elements}
        assert len(rebuilt) == 18

    def test_orbit_sizes(self, runner):
        result = run(
            runner, "kgroup", "orbit", "--k", "3", "--point", "2,3", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["orbit_size"] == 18
        assert payload["stabilizer_order"] == 1
        assert payload["group_order"] == 18

    def test_orbit_cyclotomic_component_syntax(self, runner):
        # [0,1] is omega itself; the orbit of (omega, 0) matches (1, 0)
        result = run(
            runner, "kgroup", "orbit", "--k", "3", "--point", "[0,1],0", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["orbit_size"] == 6

    def test_rational_subgroup(self, runner):
        result = run(runner, "kgroup", "rational", "--k", "4", "--n", "2", "--format", "json")
        payload = json.loads(result.output)
        assert payload["order"] == 8
        assert payload["is_group"] is True
        assert payload["permutations_only"] is False

    def test_orbit_rational_points(self, runner):
        result = run(runner, "kgroup", "orbit-rational", "--k", "3", "--format", "json")
        assert json.loads(result.output) == [["0/1", "1/1"], ["1/1", "0/1"]]


class TestSearchCommands:
    def test_search_writes_json_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = run(
            runner, "search", "--k", "3", "--height", "8", "--json", str(out)
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 3 and payload["height"] == 8
        assert payload["nontrivial"] == 0
        assert ["0/1", "1/1"] in payload["solutions"]
        assert "elapsed" not in payload

    def test_search_csv(self, runner):
        result = run(runner, "search", "--k", "2", "--height", "1", "--format", "csv")
        rows = list(csv.reader(result.stdout.splitlines()))
        assert rows[0] == ["x1", "x2"]
        assert ["1/1", "0/1"] in rows[1:]

    def test_elapsed_goes_to_stderr_not_stdout(self, runner):
        result = runner.invoke(
            cli, ["search", "--k", "3", "--height", "3", "--format", "json"],
            catch_exceptions=False,
        )
        assert "elapsed" not in result.stdout

    def test_coverage(self, runner):
        result = run(runner, "coverage", "--height", "1", "--format", "json")
        payload = json.loads(result.output)
        assert payload["coverage"] == "1/1"
        assert payload["total"] == 4
        assert payload["unreachable"] == []

    def test_counterexample(self, runner):
        result = run(runner, "counterexample", "--k", "3", "--x1", "7/2", "--format", "json")
        payload = json.loads(result.output)
        assert payload["witness"] == ["7/2", "-7/2", "1/1"]
        assert payload["verified"] is True

    def test_counterexample_even_k_rejected(self):
        assert main(["counterexample", "--k", "4", "--x1", "2/1"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "10000", "--height", "1"], "scan at height 1 with n = 10000"),
            (["--height", str(10**12)], "scan at height 1000000000000 with n = 2"),
            (["--height", "50", "--n", "4"], "scan of 29647082375 coordinate prefixes"),
        ],
    )
    def test_search_past_the_budget_exits_three(self, argv, message, capsys):
        started = perf_counter()
        assert main(["search", "--k", "3", *argv]) == 3
        assert perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.endswith("the budget 5000000\n")


class TestIterate:
    def test_csv_file(self, runner, tmp_path):
        out = tmp_path / "trajectory.csv"
        result = run(
            runner, "iterate", "--delta", "1/2", "--steps", "3", "--csv", str(out)
        )
        assert result.exit_code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["step", "x", "y", "height"]
        assert rows[1] == ["1", "3/5", "4/5", "5"]
        assert rows[3] == ["3", "-117/125", "44/125", "125"]

    def test_json_payload(self, runner):
        result = run(
            runner, "iterate", "--delta", "1", "--steps", "4", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["period"] == 4
        assert payload["points"][3] == ["1/1", "0/1"]
        assert payload["heights"] == [1, 1, 1, 1]

    def test_custom_start(self, runner):
        result = run(
            runner, "iterate", "--delta", "inf", "--steps", "1", "--start", "3/5,4/5"
        )
        assert result.output.splitlines()[0] == "step 1: -3/5,-4/5 height 5"

    def test_off_curve_start_rejected(self):
        assert main(["iterate", "--delta", "1/2", "--steps", "2", "--start", "1,1"]) == 2

    def test_csv_format_and_file_build_the_text_once(self, runner, monkeypatch, tmp_path):
        calls = []
        csv_text = cli_module._csv_text

        def counted(header, rows):
            calls.append(header)
            return csv_text(header, rows)

        monkeypatch.setattr(cli_module, "_csv_text", counted)
        path = tmp_path / "trajectory.csv"
        result = run(runner, "iterate", "--delta", "1/2", "--steps", "3", "--csv", str(path), "--format", "csv")
        assert len(calls) == 1
        assert result.output == path.read_text(encoding="utf-8")


def _iterate_payload_json(delta, start, steps) -> str:
    # the iterate JSON as json.dumps prints it, with the heights as ints
    trajectory = stroboscope.iterate(parse_projective(delta), parse_point(start), steps)
    payload = {
        "delta": format_projective(trajectory.delta),
        "start": format_point(trajectory.start),
        "period": trajectory.period,
        "points": [[format_rational(x), format_rational(y)] for x, y in trajectory.points],
        "heights": trajectory.heights,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "delta, start, steps",
    [
        ("1/2", "1,0", 0),
        ("1/2", "1,0", 1),
        ("1", "0,1", 8),  # period 4
        ("inf", "-3/5,4/5", 3),  # period 2
        ("-7/4", "3/5,-4/5", 25),  # negative coordinates
        ("4/7", "1,0", 800),  # 1,450-digit heights, as in the bench
    ],
)
def test_iterate_json_equals_json_dumps(delta, start, steps, capsys):
    assert main(["iterate", "--delta", delta, "--start", start, "--steps", str(steps), "--format", "json"]) == 0
    assert capsys.readouterr().out == _iterate_payload_json(delta, start, steps)


def test_iterate_json_past_the_digit_limit_exits_three(capsys):
    # 2/7 has s = 53: at the smallest limit, 640 digits, step 372 is too wide
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["iterate", "--delta", "2/7", "--steps", "400", "--format", "json"]) == 3
        captured = capsys.readouterr()
        heights = stroboscope.iterate(Fraction(2, 7), (1, 0), 400).heights
        with pytest.raises(ValueError):
            json.dumps(heights)
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == ""
    assert captured.err == "error: cannot print a rational with more than 640 digits (Python's int-to-str conversion limit)\n"


@pytest.mark.parametrize("args", [["--format", "text"], ["--format", "csv"], ["--csv", "trajectory.csv"]])
def test_iterate_past_the_digit_limit_exits_three_in_every_format(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["iterate", "--delta", "2/7", "--steps", "400", *args])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: cannot print a rational with more than 640 digits (Python's int-to-str conversion limit)\n"
    assert list(tmp_path.iterdir()) == []


def test_iterate_as_wide_as_the_digit_limit_prints_and_one_digit_wider_exits_three(capsys):
    # from (1, 0), 2/7 has heights 53^m, and the last height is the widest
    # component: find steps whose last height has exactly L >= 640 digits
    # while one step more has L + 1
    steps = next(m for m in range(372, 500) if len(str(53 ** (m + 1))) == len(str(53**m)) + 1)
    digits = len(str(53**steps))
    assert max(len(str(h)) for h in stroboscope.iterate(Fraction(2, 7), (1, 0), steps).heights) == digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        at_limit = main(["iterate", "--delta", "2/7", "--steps", str(steps)])
        at_limit_out = capsys.readouterr().out
        past_limit = main(["iterate", "--delta", "2/7", "--steps", str(steps + 1)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert at_limit == 0
    assert at_limit_out.splitlines()[-2].endswith(f" height {53**steps}")
    assert past_limit == 3
    assert capsys.readouterr().out == ""


class TestAuditCommand:
    def test_deterministic_bytes(self, runner):
        args = ["audit", "--seed", "3", "--height", "6", "--pairs", "40"]
        first = run(runner, *args)
        second = run(runner, *args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_report_content(self, runner):
        result = run(runner, "audit", "--seed", "0", "--height", "6", "--pairs", "40")
        payload = json.loads(result.output)
        assert payload["all_expected_results"] is True
        assert payload["hyperbola_delta_identity"]["witness"]["left"] == "-3/55"


class TestRoundTrips:
    def test_compose_output_feeds_back_in(self, runner):
        first = run(runner, "circle", "compose", "--d1", "1/2", "--d2", "1/3")
        second = run(runner, "circle", "compose", "--d1", first.output.strip(), "--d2", "1/1")
        assert second.output.strip() == "inf"

    def test_point_payloads_reparse(self, runner):
        acted = run(runner, "circle", "act", "--delta", "2/9", "--point", "1,0")
        solved = run(
            runner, "circle", "solve", "--from", "1/1,0/1", "--to", acted.output.strip()
        )
        assert solved.output.strip() == "2/9"


class TestLimitsAndRanges:
    WIDE = "1" + "0" * 2201  # 2202 digits: the product of two has 4403

    @pytest.mark.parametrize("group", ["circle", "hyper"])
    def test_output_past_int_str_limit_exits_three(self, group, capsys):
        assert main([group, "compose", "--d1", self.WIDE, "--d2", self.WIDE]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4300" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_orbit_coefficient_past_int_str_limit_exits_three(self, fmt, capsys):
        # omega * (N - N*omega) = N + 2N*omega, and 2N has 4301 digits
        nines = "9" * 4300
        argv = ["kgroup", "orbit", "--k", "3", "--point", f"[{nines},-{nines}]", "--format", fmt]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4300" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_point_past_int_str_limit_exits_three(self, fmt, capsys):
        argv = ["kgroup", "orbit", "--k", "3", "--point", f"{'9' * 5000},1", "--format", fmt]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4300" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["order", "--k", "3", "--n", "1400"],
            ["order", "--k", "3", "--n", "2000"],
            ["order", "--k", "3", "--n", str(10**9)],
            ["enumerate", "--k", "3", "--n", "2000"],
            ["rational", "--k", "4", "--n", "2000"],
            ["orbit", "--k", "3", "--point", ",".join(["1"] * 2000)],
        ],
        ids=["order-1400", "order-2000", "order-1e9", "enumerate", "rational", "orbit"],
    )
    def test_kgroup_past_the_digit_limit_exits_three(self, argv, capsys):
        started = perf_counter()
        assert main(["kgroup", *argv]) == 3
        assert perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert len(captured.err) < 200

    def test_small_cap_message_prints_the_count(self, capsys):
        assert main(["kgroup", "enumerate", "--k", "3", "--n", "2", "--limit", "5"]) == 3
        assert capsys.readouterr().err == "error: group order 18 exceeds the element cap 5\n"

    @pytest.mark.parametrize("vector", ["[1,2", "1]", "1,,2", "", "[[1],2]", "[1/0]"])
    def test_malformed_vector_exits_two(self, vector, capsys):
        assert main(["kgroup", "orbit", "--k", "3", "--point", vector]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_negative_audit_pairs_exits_two(self):
        assert main(["audit", "--pairs", "-5"]) == 2

    def test_audit_help_names_the_special_pairs(self, runner):
        result = run(runner, "audit", "--help")
        assert "16 special pairs" in " ".join(result.output.split())


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8"))
# every recorded call that prints CSV or writes a CSV file
CSV_ARGVS = sorted({tuple(case["argv"]) for case in GOLDEN_CASES if {"csv", "--csv"} & set(case["argv"])})


def _csv_writer_text(header, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows((header, *rows))
    return buffer.getvalue()


@pytest.mark.parametrize("argv", CSV_ARGVS, ids=" ".join)
def test_csv_text_equals_csv_writer(argv, monkeypatch, tmp_path):
    # the CLI joins CSV fields itself; csv.writer would quote none of them
    calls = []
    csv_text = cli_module._csv_text

    def recording_csv_text(header, rows):
        rows = list(rows)
        calls.append((header, rows))
        return csv_text(header, rows)

    monkeypatch.setattr(cli_module, "_csv_text", recording_csv_text)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    assert calls
    for header, rows in calls:
        assert csv_text(header, rows) == _csv_writer_text(header, rows)


def _count_calls(monkeypatch, owner, name):
    """Wrap `owner.name` so that each call is recorded; return the list of calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        (["kgroup", "orbit", "--k", "3", "--point", "[0,1],2", "--format", "json"], CyclotomicNumber, "__str__"),
        (["kgroup", "orbit", "--k", "3", "--point", "[0,1],2", "--format", "text"], cli_module, "_component_payload"),
        (["kgroup", "rational", "--k", "4", "--n", "2", "--format", "text"], MonomialMatrix, "as_dict"),
        (["kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "text"], MonomialMatrix, "as_dict"),
        (["kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "csv"], MonomialMatrix, "as_dict"),
        (["search", "--k", "2", "--height", "5", "--format", "text"], SearchReport, "payload"),
        (["search", "--k", "2", "--height", "5", "--format", "csv"], SearchReport, "payload"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_only_the_chosen_format_is_built(argv, owner, name, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, owner, name)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_search_json_file_and_format_build_the_payload_once(monkeypatch, tmp_path, capsys):
    calls = _count_calls(monkeypatch, SearchReport, "payload")
    path = tmp_path / "report.json"
    assert main(["search", "--k", "3", "--height", "6", "--json", str(path), "--format", "json"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes that carry text (click probes a stream with empty writes)."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += bool(text)
        return super().write(text)

    def writelines(self, lines):
        lines = list(lines)
        self.writes += any(lines)
        return super().writelines(lines)


@pytest.mark.parametrize(
    "case", [case for case in GOLDEN_CASES if case["exit"] == 0], ids=lambda case: case["name"]
)
def test_one_stdout_write_per_call(case, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    out = _CountingStdout()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(list(case["argv"])) == 0
    assert out.getvalue()
    assert out.writes <= 1
