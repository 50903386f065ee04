"""CLI: dispatch, exact payloads, file outputs, exit codes, determinism."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import monomial_oracle
import pytest
import search_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fermatgroups
from fermatgroups import cli as cli_module
from fermatgroups import circle, cyclotomic, monomial, search, stroboscope
from fermatgroups.cli import COMMANDS, main
from fermatgroups.cyclotomic import CyclotomicNumber
from fermatgroups.errors import ResourceLimitError
from fermatgroups.monomial import MonomialMatrix
from fermatgroups.rationals import format_point, format_projective, format_rational, parse_point, parse_projective


@pytest.fixture()
def run(capsys):
    """Call the CLI in-process; return its exit code and what it printed on stdout and stderr."""

    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return SimpleNamespace(exit_code=code, output=captured.out, stderr=captured.err)

    return invoke


class TestDispatchExamples:
    def test_compose_pole(self, run):
        result = run("circle", "compose", "--d1", "1", "--d2", "1")
        assert result.exit_code == 0
        assert result.output.strip() == "inf"

    def test_triples_json(self, run):
        result = run("triples", "--height", "2", "--format", "json")
        assert result.output.strip() == "[[3,4,5]]"

    def test_kgroup_order(self, run):
        result = run("kgroup", "order", "--k", "3", "--n", "2")
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
    def test_act_text_and_json(self, run):
        text = run("circle", "act", "--delta", "1/2", "--point", "1,0")
        assert text.output.strip() == "3/5,4/5"
        payload = run(
            "circle", "act", "--delta", "1/2", "--point", "1,0", "--format", "json"
        )
        assert json.loads(payload.output) == ["3/5", "4/5"]

    def test_act_reflect(self, run):
        result = run("circle", "act", "--delta", "0", "--reflect", "--point", "3/5,4/5")
        assert result.output.strip() == "3/5,-4/5"

    def test_solve_round_trip(self, run):
        solved = run(
            "circle", "solve", "--from", "3/5,4/5", "--to", "5/13,12/13",
            "--format", "json",
        )
        payload = json.loads(solved.output)
        assert payload == {"delta": "1/8", "reflected": False}
        acted = run(
            "circle", "act", "--delta", payload["delta"], "--point", "3/5,4/5"
        )
        assert acted.output.strip() == "5/13,12/13"

    def test_audit_single_pair(self, run):
        result = run(
            "circle", "audit-exy", "--from", "3/5,4/5", "--to", "5/13,12/13",
            "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["left"] == payload["right"] == payload["solver"] == "1/8"

    def test_audit_sweep(self, run):
        result = run("circle", "audit-exy", "--height", "5", "--format", "json")
        payload = json.loads(result.output)
        assert payload["identity_holds"] is True
        assert payload["points"] == 12

    def test_audit_rejects_mixed_modes(self):
        assert main(["circle", "audit-exy", "--height", "5", "--from", "1,0", "--to", "0,1"]) == 2
        assert main(["circle", "audit-exy", "--from", "1,0"]) == 2


class TestHyperPayloads:
    def test_compose(self, run):
        result = run("hyper", "compose", "--d1", "1/2", "--d2", "1/3")
        assert result.output.strip() == "5/7"

    def test_solve_witness(self, run):
        result = run(
            "hyper", "solve", "--from", "5/4,3/4", "--to", "5/3,4/3", "--format", "json"
        )
        assert json.loads(result.output) == {"delta": "1/5", "reflected": False}

    def test_audit_single_pair_keeps_discrepancy(self, run):
        result = run(
            "hyper", "audit", "--from", "5/4,3/4", "--to", "5/3,4/3", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["left"] == "-3/55"
        assert payload["right"] == "1/5"
        assert payload["sides_equal"] is False


class TestTriples:
    def test_text(self, run):
        result = run("triples", "--height", "3")
        assert result.output.splitlines() == ["3 4 5", "5 12 13"]

    def test_csv(self, run):
        result = run("triples", "--height", "3", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows == [["a", "b", "c"], ["3", "4", "5"], ["5", "12", "13"]]


class TestKgroupPayloads:
    def test_enumerate_json_round_trips(self, run):
        result = run("kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "json")
        elements = json.loads(result.output)
        assert len(elements) == 18
        from fermatgroups.monomial import MonomialMatrix

        rebuilt = {MonomialMatrix.from_dict(3, e) for e in elements}
        assert len(rebuilt) == 18

    def test_orbit_sizes(self, run):
        result = run(
            "kgroup", "orbit", "--k", "3", "--point", "2,3", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["orbit_size"] == 18
        assert payload["stabilizer_order"] == 1
        assert payload["group_order"] == 18

    def test_orbit_cyclotomic_component_syntax(self, run):
        # [0,1] is omega itself; the orbit of (omega, 0) matches (1, 0)
        result = run(
            "kgroup", "orbit", "--k", "3", "--point", "[0,1],0", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["orbit_size"] == 6

    def test_rational_subgroup(self, run):
        result = run("kgroup", "rational", "--k", "4", "--n", "2", "--format", "json")
        payload = json.loads(result.output)
        assert payload["order"] == 8
        assert payload["is_group"] is True
        assert payload["permutations_only"] is False

    def test_orbit_rational_points(self, run):
        result = run("kgroup", "orbit-rational", "--k", "3", "--format", "json")
        assert json.loads(result.output) == [["0/1", "1/1"], ["1/1", "0/1"]]


def _point_text(vector):
    """The `--point` text of a cyclotomic vector: a rational component as "p/q", any other as its coefficient list."""
    return ",".join(
        str(value) if (value := c.is_rational()) is not None else f"[{','.join(c.coefficient_texts())}]"
        for c in vector
    )


@st.composite
def orbit_calls(draw):
    # k^n * n! stays within 2,000 elements, so that the oracles stay fast
    k = draw(st.integers(3, 9))
    n = draw(st.integers(1, 4).filter(lambda n: monomial.group_order(k, n) <= 2000))
    return k, _point_text(draw(monomial_oracle.orbit_vectors(k, n)))


_FORMER_ORBIT_PRINTERS = {"json": monomial_oracle.kgroup_orbit_json, "text": monomial_oracle.kgroup_orbit_text}


@settings(max_examples=100, deadline=None)
@given(call=orbit_calls(), fmt=st.sampled_from(("text", "json")))
@example(call=(5, "5/7"), fmt="json")  # n = 1
@example(call=(5, "5/7"), fmt="text")
@example(call=(3, "0,0"), fmt="json")  # the zero vector, an orbit of one point
@example(call=(3, "0,0"), fmt="text")
@example(call=(4, "1,1,0"), fmt="json")  # repeated components
@example(call=(4, "1,1,0"), fmt="text")
@example(call=(6, "1,[0,1],[0,1]"), fmt="json")  # a twist shared by all three positions
@example(call=(6, "1,[0,1],[0,1]"), fmt="text")
@example(call=(6, "[1,1],0,[0,-1/2]"), fmt="json")  # cyclotomic components
@example(call=(6, "[1,1],0,[0,-1/2]"), fmt="text")
@example(call=(12, "[1/2,0,-1/3,0,0,5/7],2/5"), fmt="json")
@example(call=(12, "[1/2,0,-1/3,0,0,5/7],2/5"), fmt="text")
@example(call=(3, "1,2,3,4,5"), fmt="json")  # 29,160 points, the group order
@example(call=(3, "1,2,3,4,5"), fmt="text")
def test_orbit_prints_as_the_former_printers(call, fmt):
    k, point = call
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["kgroup", "orbit", "--k", str(k), "--point", point, "--limit", "29160", "--format", fmt]) == 0
    printed = out.getvalue()
    expected = _FORMER_ORBIT_PRINTERS[fmt](k, monomial.cyclo_vector(k, cli_module._parse_vector(point)))
    if printed != expected:
        # pytest's own diff of two texts of megabytes would take minutes
        at = len(os.path.commonprefix([printed, expected]))
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"first difference at {at}: {printed[near]!r} != {expected[near]!r}")


@pytest.mark.parametrize("k", range(3, 7))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_enumerate_and_rational_print_as_the_former_printers(k, n, fmt, capsys):
    assert main(["kgroup", "enumerate", "--k", str(k), "--n", str(n), "--limit", "1296", "--format", fmt]) == 0
    assert capsys.readouterr().out == monomial_oracle.kgroup_enumerate_stdout(k, n, fmt)
    if fmt != "csv":
        assert main(["kgroup", "rational", "--k", str(k), "--n", str(n), "--limit", "48", "--format", fmt]) == 0
        assert capsys.readouterr().out == monomial_oracle.kgroup_rational_stdout(k, n, fmt)


@pytest.mark.parametrize(
    "command, fmt", [("enumerate", "text"), ("enumerate", "json"), ("enumerate", "csv"), ("rational", "text"), ("rational", "json")]
)
def test_enumerate_and_rational_print_without_building_an_element(command, fmt, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, MonomialMatrix, "_make")
    assert main(["kgroup", command, "--k", "4", "--n", "3", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert calls == []


fragment_coefficient = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-(10**30), 10**30),
)


@st.composite
def orbit_components(draw):
    k = draw(st.integers(3, 12))
    return CyclotomicNumber(k, draw(st.lists(fragment_coefficient, max_size=2 * k)))


@settings(max_examples=300, deadline=None)
@given(orbit_components())
@example(CyclotomicNumber(3, []))  # zero
@example(CyclotomicNumber(4, [Fraction(-3, 4)]))  # a negative rational
@example(CyclotomicNumber(5, [7] + [0] * 9))  # a rational written on more than phi(k) places
@example(CyclotomicNumber(6, [Fraction(1, 2), Fraction(-1, 3)]))  # cyclotomic, two denominators
@example(CyclotomicNumber(12, [0, 0, 0, 0, -2]))  # cyclotomic and negative
def test_component_json_equals_json_dumps_of_the_former_payload(component):
    assert cli_module._component_json(component) == monomial_oracle.component_json(component)


def test_component_json_past_the_digit_limit_raises():
    digits = sys.get_int_max_str_digits()
    for coeffs in ([10**digits, 1], [Fraction(1, 10**digits), 1], [10**digits]):
        with pytest.raises(ResourceLimitError, match=f"more than {digits} digits"):
            cli_module._component_json(CyclotomicNumber(3, coeffs))


class TestSearchCommands:
    def test_search_writes_json_file(self, run, tmp_path):
        out = tmp_path / "report.json"
        result = run(
            "search", "--k", "3", "--height", "8", "--json", str(out)
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 3 and payload["height"] == 8
        assert payload["nontrivial"] == 0
        assert ["0/1", "1/1"] in payload["solutions"]
        assert payload.keys() == {"k", "n", "height", "count", "trivial", "nontrivial", "solutions"}

    def test_search_csv(self, run):
        result = run("search", "--k", "2", "--height", "1", "--format", "csv")
        rows = list(csv.reader(result.output.splitlines()))
        assert rows[0] == ["x1", "x2"]
        assert ["1/1", "0/1"] in rows[1:]

    def test_coverage(self, run):
        result = run("coverage", "--height", "1", "--format", "json")
        payload = json.loads(result.output)
        assert payload["coverage"] == "1/1"
        assert payload["total"] == 4
        assert payload["unreachable"] == []

    def test_coverage_reports_a_refused_point(self, run, monkeypatch):
        from fermatgroups.conic import CIRCLE

        carries_pair = CIRCLE.carries_pair
        monkeypatch.setattr(
            CIRCLE,
            "carries_pair",
            lambda delta, source, target: target != (0, 1, 1) and carries_pair(delta, source, target),
        )
        text = run("coverage", "--height", "5")
        assert text.exit_code == 0
        assert text.output.splitlines()[0] == "covered 11/12 (coverage 11/12)"
        assert "0/1,1/1 <- delta" not in text.output
        result = run("coverage", "--height", "5", "--format", "json")
        assert result.exit_code == 0
        assert '"unreachable":["0/1,1/1"]' in result.output
        payload = json.loads(result.output)
        assert (payload["total"], payload["covered"], payload["coverage"]) == (12, 11, "11/12")

    def test_counterexample(self, run):
        result = run("counterexample", "--k", "3", "--x1", "7/2", "--format", "json")
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


# the largest height drawn at each n: every call stays near a millisecond
_SEARCH_HEIGHTS = {2: 40, 3: 8, 4: 3}


@st.composite
def search_calls(draw):
    n = draw(st.integers(2, 4))
    return draw(st.integers(2, 7)), n, draw(st.integers(1, _SEARCH_HEIGHTS[n]))


@settings(max_examples=60, deadline=None)
@given(call=search_calls(), fmt=st.sampled_from(("text", "json", "csv")))
@example(call=(2, 2, 1), fmt="json")  # the four trivial points only
@example(call=(3, 3, 6), fmt="text")  # (1/2, 2/3, 5/6) and its orderings
@example(call=(5, 3, 8), fmt="csv")
@example(call=(3, 4, 3), fmt="json")
def test_search_prints_as_the_former_printers(call, fmt):
    k, n, bound = call
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory, redirect_stdout(out):
        path = Path(directory) / "report.json"
        argv = ["search", "--k", str(k), "--n", str(n), "--height", str(bound), "--json", str(path), "--format", fmt]
        assert main(argv) == 0
        side = path.read_text(encoding="utf-8")
    assert out.getvalue() == search_oracle.search_stdout(k, n, bound, fmt)
    assert side == search_oracle.search_stdout(k, n, bound, "json")


@settings(max_examples=30, deadline=None)
@given(bound=st.integers(1, 60), fmt=st.sampled_from(("text", "json", "csv")))
@example(bound=101, fmt="json")
def test_coverage_prints_as_the_former_printers(bound, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["coverage", "--height", str(bound), "--format", fmt]) == 0
    assert out.getvalue() == search_oracle.coverage_stdout(bound, fmt)


@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_coverage_with_refused_points_prints_as_the_former_printers(fmt, monkeypatch, capsys):
    from fermatgroups.conic import CIRCLE

    carries_pair = CIRCLE.carries_pair
    refused = {(0, 1, 1), (-3, 4, 5)}
    monkeypatch.setattr(
        CIRCLE, "carries_pair", lambda delta, source, target: target not in refused and carries_pair(delta, source, target)
    )
    assert main(["coverage", "--height", "5", "--format", fmt]) == 0
    assert capsys.readouterr().out == search_oracle.coverage_stdout(5, fmt)


class TestIterate:
    def test_csv_file(self, run, tmp_path):
        out = tmp_path / "trajectory.csv"
        result = run(
            "iterate", "--delta", "1/2", "--steps", "3", "--csv", str(out)
        )
        assert result.exit_code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["step", "x", "y", "height"]
        assert rows[1] == ["1", "3/5", "4/5", "5"]
        assert rows[3] == ["3", "-117/125", "44/125", "125"]

    def test_json_payload(self, run):
        result = run(
            "iterate", "--delta", "1", "--steps", "4", "--format", "json"
        )
        payload = json.loads(result.output)
        assert payload["period"] == 4
        assert payload["points"][3] == ["1/1", "0/1"]
        assert payload["heights"] == [1, 1, 1, 1]

    def test_custom_start(self, run):
        result = run(
            "iterate", "--delta", "inf", "--steps", "1", "--start", "3/5,4/5"
        )
        assert result.output.splitlines()[0] == "step 1: -3/5,-4/5 height 5"

    def test_off_curve_start_rejected(self):
        assert main(["iterate", "--delta", "1/2", "--steps", "2", "--start", "1,1"]) == 2

    def test_csv_format_and_file_build_the_text_once(self, run, monkeypatch, tmp_path):
        calls = []
        iterate_table = cli_module._iterate_table

        def counted(rows, form, head, tail):
            calls.append(head)
            return iterate_table(rows, form, head, tail)

        monkeypatch.setattr(cli_module, "_iterate_table", counted)
        path = tmp_path / "trajectory.csv"
        result = run("iterate", "--delta", "1/2", "--steps", "3", "--csv", str(path), "--format", "csv")
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


def test_iterate_with_the_digit_limit_off_prints_every_height(capsys):
    # the default limit stops 2/7 near step 2,500; with the limit off, the
    # 3,000th height 53^3000 prints in full
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = main(["iterate", "--delta", "2/7", "--steps", "3000"])
        last = str(53**3000)
    finally:
        sys.set_int_max_str_digits(limit)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 3001
    assert lines[-2].startswith("step 3000: ") and lines[-2].endswith(f" height {last}")


def _iterate_former_text_and_csv(delta, start, steps) -> tuple[str, str]:
    # the former printers: an f-string per row and csv.writer, over the Fraction points
    trajectory = stroboscope.iterate(parse_projective(delta), parse_point(start), steps)
    rows = [
        (step, f"{x.numerator}/{x.denominator}", f"{y.numerator}/{y.denominator}", height)
        for step, ((x, y), height) in enumerate(zip(trajectory.points, trajectory.heights), start=1)
    ]
    period = trajectory.period if trajectory.period is not None else "none"
    text = "".join(f"step {step}: {x},{y} height {h}\n" for step, x, y, h in rows) + f"period: {period}\n"
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows([("step", "x", "y", "height"), *rows])
    return text, table.getvalue()


ITERATE_DELTAS = st.one_of(
    st.sampled_from(["0", "1", "-1", "inf"]),  # the periodic parameters
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(lambda d: f"{d.numerator}/{d.denominator}"),
)
# the zero coordinates step through Decimal products that can be -0
ITERATE_STARTS = st.sampled_from(["1/1,0/1", "0,1", "-1,0", "0,-1", "3/5,-4/5", "-5/13,12/13"])


@settings(max_examples=60, deadline=None)
@given(delta=ITERATE_DELTAS, start=ITERATE_STARTS, steps=st.integers(0, 30))
@example(delta="1", start="0,1", steps=0)
@example(delta="-1", start="0,-1", steps=1)
@example(delta="inf", start="-1,0", steps=4)
def test_iterate_text_and_csv_equal_the_former_printers(delta, start, steps):
    text, table = _iterate_former_text_and_csv(delta, start, steps)
    argv = ["iterate", "--delta", delta, "--start", start, "--steps", str(steps)]
    with tempfile.TemporaryDirectory() as folder:
        side = Path(folder) / "trajectory.csv"
        for fmt, expected in (("text", text), ("csv", table)):
            out = io.StringIO()
            with redirect_stdout(out):
                assert main([*argv, "--format", fmt, "--csv", str(side)]) == 0
            assert out.getvalue() == expected
            assert side.read_text(encoding="utf-8") == table


class TestAuditCommand:
    def test_deterministic_bytes(self, run):
        args = ["audit", "--seed", "3", "--height", "6", "--pairs", "40"]
        first = run(*args)
        second = run(*args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_report_content(self, run):
        result = run("audit", "--seed", "0", "--height", "6", "--pairs", "40")
        payload = json.loads(result.output)
        assert payload["all_expected_results"] is True
        assert payload["hyperbola_delta_identity"]["witness"]["left"] == "-3/55"


class TestRoundTrips:
    def test_compose_output_feeds_back_in(self, run):
        first = run("circle", "compose", "--d1", "1/2", "--d2", "1/3")
        second = run("circle", "compose", "--d1", first.output.strip(), "--d2", "1/1")
        assert second.output.strip() == "inf"

    def test_point_payloads_reparse(self, run):
        acted = run("circle", "act", "--delta", "2/9", "--point", "1,0")
        solved = run(
            "circle", "solve", "--from", "1/1,0/1", "--to", acted.output.strip()
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

    @pytest.mark.parametrize("vector", ["[1,2],3", "1,2"])
    def test_over_cap_orbit_is_refused_before_phi_k(self, vector, capsys, monkeypatch):
        # building any component of Q(omega_24000) computes Phi_24000
        calls = []
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", calls.append)
        monkeypatch.delenv("FERMAT_ORBIT_LIMIT", raising=False)
        assert main(["kgroup", "orbit", "--k", "24000", "--point", vector]) == 3
        assert calls == []
        assert capsys.readouterr().err == "error: group order 1152000000 exceeds the element cap 1000000\n"

    def test_over_cap_orbit_rational_is_refused_before_phi_k(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", calls.append)
        monkeypatch.delenv("FERMAT_ORBIT_LIMIT", raising=False)
        assert main(["kgroup", "orbit-rational", "--k", "24000"]) == 3
        assert calls == []
        assert capsys.readouterr().err == "error: group order 1152000000 exceeds the element cap 1000000\n"

    def test_orbit_below_k_3_names_the_group_degree(self, capsys):
        # a coefficient-list component is lifted only after k is checked
        assert main(["kgroup", "orbit", "--k", "0", "--point", "[1,2],3"]) == 2
        assert capsys.readouterr().err == "error: monomial group degree k must be an integer >= 3, got 0\n"

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

    def test_text_after_a_coefficient_list_is_malformed(self, capsys):
        assert main(["kgroup", "orbit", "--k", "3", "--point", "[1,2]3"]) == 2
        assert capsys.readouterr().err == "error: malformed cyclotomic component: '[1,2]3'\n"

    def test_negative_audit_pairs_exits_two(self):
        assert main(["audit", "--pairs", "-5"]) == 2

    def test_audit_help_names_the_special_pairs(self, run):
        result = run("audit", "--help")
        assert "16 special pairs" in " ".join(result.output.split())


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8"))
# every recorded call that prints CSV or writes a CSV file
CSV_ARGVS = sorted({tuple(case["argv"]) for case in GOLDEN_CASES if {"csv", "--csv"} & set(case["argv"])})


def _csv_writer_text(header, rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows((header, *rows))
    return buffer.getvalue()


def _library_csv_rows(argv):
    """The header and the rows that a CSV call of `triples`, `kgroup`, `search` or `coverage` prints, read from the library."""
    option = dict(zip(argv[1:], argv[2:]))
    if argv[0] == "triples":
        return ("a", "b", "c"), circle.primitive_triples(int(option["--height"]))
    if argv[:2] == ("kgroup", "enumerate"):
        elements = monomial.enumerate_group(int(option["--k"]), int(option["--n"]))
        return ("perm", "exp"), [(" ".join(map(str, e.perm)), " ".join(map(str, e.exponents))) for e in elements]
    if argv[:2] == ("kgroup", "orbit-rational"):
        points = sorted(monomial.orbit_rational_points(int(option["--k"])))
        return ("x", "y"), [(format_rational(x), format_rational(y)) for x, y in points]
    if argv[0] == "search":
        report = search.search_n(int(option["--k"]), int(option.get("--n", 2)), int(option["--height"]))
        return [f"x{i}" for i in range(1, report.n + 1)], [list(map(format_rational, row)) for row in report.solutions]
    report = search.verify_orbit_coverage(int(option["--height"]))
    return ("x", "y", "delta"), [(format_rational(x), format_rational(y), format_projective(d)) for (x, y), d in report.entries]


@pytest.mark.parametrize(
    "argv",
    [
        *CSV_ARGVS,
        ("search", "--n", "3", "--k", "3", "--height", "8", "--format", "csv"),
        ("search", "--n", "4", "--k", "2", "--height", "3", "--format", "csv"),
        ("coverage", "--height", "30", "--format", "csv"),
        ("kgroup", "orbit-rational", "--k", "6", "--format", "csv"),
    ],
    ids=" ".join,
)
def test_csv_text_equals_csv_writer(argv, monkeypatch, tmp_path, capsys):
    # the CLI joins CSV fields itself; csv.writer, which shares no code with
    # it, writes the same bytes of the rows the library reports, quoting none
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == 0
    if argv[0] == "iterate":
        # joined from each coordinate's numerator, "/" and height, not through
        # `_csv_text`: the file is what csv.writer writes of the former rows
        options = dict(zip(argv[1::2], argv[2::2]))
        _, table = _iterate_former_text_and_csv(options["--delta"], options.get("--start", "1/1,0/1"), int(options["--steps"]))
        assert (tmp_path / options["--csv"]).read_text(encoding="utf-8") == table
        return
    assert capsys.readouterr().out == _csv_writer_text(*_library_csv_rows(argv))


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
        (["kgroup", "orbit", "--k", "3", "--point", "[0,1],2", "--format", "text"], cli_module, "_component_json"),
        (["kgroup", "rational", "--k", "4", "--n", "2", "--format", "text"], MonomialMatrix, "as_dict"),
        (["kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "text"], MonomialMatrix, "as_dict"),
        (["kgroup", "enumerate", "--k", "3", "--n", "2", "--format", "csv"], MonomialMatrix, "as_dict"),
        (["search", "--k", "2", "--height", "5", "--format", "text"], cli_module, "_json"),
        (["search", "--k", "2", "--height", "5", "--format", "csv"], cli_module, "_json"),
        (["coverage", "--height", "5", "--format", "text"], cli_module, "_json"),
        (["coverage", "--height", "5", "--format", "csv"], cli_module, "_json"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_only_the_chosen_format_is_built(argv, owner, name, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, owner, name)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_orbit_twists_by_omega_steps_without_a_rotation(fmt, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, CyclotomicNumber, "_rotated")
    assert main(["kgroup", "orbit", "--k", "5", "--point", "[0,1,-1/2],2,0", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert calls == []


class _ByteCount(io.TextIOBase):
    """A stdout that keeps no text, only the count of what was written (every payload is ASCII)."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)


# tracemalloc peak over stdout bytes for 29,160 points, on CPython 3.10 to
# 3.13: 3.07-3.20 (text) and 2.47-2.49 (JSON); the former product-and-sort
# printer read 6.26-6.53 and 3.10-3.16
@pytest.mark.parametrize("fmt, bound", [("text", 4.5), ("json", 2.8)])
def test_large_orbit_peak_memory_per_output_byte(fmt, bound, monkeypatch):
    out = _ByteCount()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        assert main(["kgroup", "orbit", "--k", "3", "--point", "1,2,3,4,5", "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.count > 900_000
    assert peak / out.count < bound


def test_search_json_file_and_format_build_the_payload_once(monkeypatch, tmp_path, capsys):
    calls = _count_calls(monkeypatch, cli_module, "_json")
    path = tmp_path / "report.json"
    assert main(["search", "--k", "3", "--height", "6", "--json", str(path), "--format", "json"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_search_formats_each_coordinate_once(fmt, monkeypatch, tmp_path, capsys):
    # the --json file and the chosen format read the same names
    calls = _count_calls(monkeypatch, cli_module, "format_pair")
    assert main(["search", "--n", "3", "--k", "3", "--height", "6", "--json", str(tmp_path / "r.json"), "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert sorted(calls) == sorted(search.search_n(3, 3, 6).coordinates)


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes that carry text (an empty write puts nothing on the stream)."""

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


# Every command path with the options its --help names.
COMMAND_OPTIONS = {
    ("circle", "compose"): ("--d1", "--d2", "--format"),
    ("circle", "act"): ("--delta", "--reflect", "--point", "--format"),
    ("circle", "solve"): ("--from", "--to", "--format"),
    ("circle", "audit-exy"): ("--height", "--from", "--to", "--format"),
    ("hyper", "compose"): ("--d1", "--d2", "--format"),
    ("hyper", "act"): ("--delta", "--reflect", "--point", "--format"),
    ("hyper", "solve"): ("--from", "--to", "--format"),
    ("hyper", "audit"): ("--height", "--from", "--to", "--format"),
    ("triples",): ("--height", "--format"),
    ("kgroup", "order"): ("--k", "--n", "--format"),
    ("kgroup", "enumerate"): ("--k", "--n", "--limit", "--format"),
    ("kgroup", "orbit"): ("--k", "--point", "--limit", "--format"),
    ("kgroup", "rational"): ("--k", "--n", "--limit", "--format"),
    ("kgroup", "orbit-rational"): ("--k", "--limit", "--format"),
    ("search",): ("--k", "--height", "--n", "--json", "--format"),
    ("coverage",): ("--height", "--format"),
    ("counterexample",): ("--k", "--x1", "--format"),
    ("iterate",): ("--delta", "--steps", "--start", "--csv", "--format"),
    ("audit",): ("--seed", "--height", "--pairs", "--format"),
}


@pytest.mark.parametrize("path", COMMAND_OPTIONS, ids=" ".join)
def test_help_names_every_option(path, capsys):
    assert main([*path, "--help"]) == 0
    out = capsys.readouterr().out
    assert " ".join(path) in out
    for option in COMMAND_OPTIONS[path]:
        assert option in out


@pytest.mark.parametrize(
    "argv, out",
    [
        # an option's value is the next token, even when it starts with "-"
        (["circle", "act", "--delta", "1/2", "--point", "-3/5,-4/5"], "7/25,-24/25\n"),
        (["circle", "act", "--delta", "-1/2", "--point", "-3/5,4/5"], "7/25,24/25\n"),
        (["hyper", "compose", "--d1", "-7/1", "--d2", "1/3"], "5/1\n"),
        (["counterexample", "--k", "3", "--x1", "-7/2"], "-7/2,7/2,1/1\n"),
        (["iterate", "--delta", "1/2", "--steps", "1", "--start", "-1/1,0/1"], "step 1: -3/5,-4/5 height 5\nperiod: none\n"),
        # or the text after "="
        (["kgroup", "order", "--k=3", "--n=2"], "18\n"),
        (["circle", "act", "--delta=-1/2", "--point=-3/5,4/5"], "7/25,24/25\n"),
        # a repeated option: the last one wins
        (["kgroup", "order", "--k", "5", "--k", "3", "--n", "2"], "18\n"),
        (["kgroup", "order", "--k", "3", "--n", "2", "--format", "json", "--format", "text"], "18\n"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_parser_accepts(argv, out, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["kgroup"],
        ["frobnicate"],
        ["kgroup", "frobnicate"],
        ["kgroup", "order", "--k", "3", "--n", "2", "--bogus"],
        ["kgroup", "order", "--k", "3", "--n", "2", "extra"],
        ["kgroup", "order", "--k"],
        ["kgroup", "order", "--n", "2", "--k"],
        ["kgroup", "order", "--k", "x", "--n", "2"],
        ["kgroup", "order", "--n", "2"],
        ["triples", "--height", "2", "--format", "xml"],
        ["audit", "--format", "text"],
        ["audit", "--pairs", "-5"],
        ["circle", "act", "--reflect=1", "--delta", "1", "--point", "1,0"],
        ["search", "--k", "3", "--height", "5", "--json", "."],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_usage_errors_exit_two_and_print_nothing(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def _python(code, *args, flags=()):
    """Run `code` in a fresh interpreter, given the interpreter `flags`, with the package on its path; return the finished process."""
    source = Path(fermatgroups.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source)},
        timeout=60,
    )


def test_start_up_loads_only_what_the_call_uses():
    result = _python("import sys\nimport fermatgroups.cli\nprint('click' in sys.modules)\n")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "False\n"


_CONIC = ("conic",)
_AUDIT = ("audit", "conic", "cyclotomic", "monomial", "search")
_KGROUP = ("cyclotomic", "monomial")
_SEARCH = ("conic", "search")
# command path -> (a small call, the package modules it loads past
# fermatgroups, cli, errors and rationals, which every call loads)
_MODULES_LOADED = {
    ("circle", "compose"): (["--d1", "1/2", "--d2", "1/3"], _CONIC),
    ("circle", "act"): (["--delta", "1/2", "--point", "1,0"], _CONIC),
    ("circle", "solve"): (["--from", "1,0", "--to", "0,1"], _CONIC),
    ("circle", "audit-exy"): (["--height", "3"], _AUDIT),
    ("hyper", "compose"): (["--d1", "1/2", "--d2", "1/3"], _CONIC),
    ("hyper", "act"): (["--delta", "1/2", "--point", "1,0"], _CONIC),
    ("hyper", "solve"): (["--from", "1,0", "--to", "5/3,4/3"], _CONIC),
    ("hyper", "audit"): (["--height", "3"], _AUDIT),
    ("triples",): (["--height", "3"], ("circle", "conic")),
    ("kgroup", "order"): (["--k", "3", "--n", "2"], _KGROUP),
    ("kgroup", "enumerate"): (["--k", "3", "--n", "2"], _KGROUP),
    ("kgroup", "orbit"): (["--k", "3", "--point", "1,0"], _KGROUP),
    ("kgroup", "rational"): (["--k", "3", "--n", "2"], _KGROUP),
    ("kgroup", "orbit-rational"): (["--k", "3"], _KGROUP),
    ("search",): (["--k", "3", "--height", "5"], _SEARCH),
    ("coverage",): (["--height", "5"], _SEARCH),
    ("counterexample",): (["--k", "3", "--x1", "2/3"], _SEARCH),
    ("iterate",): (["--delta", "1/2", "--steps", "3"], ("conic", "stroboscope")),
    ("audit",): (["--height", "3", "--pairs", "20"], _AUDIT),
}


def _named_imports(*names):
    """The top-level modules that the import statements of the package modules `names` name, each with its C twin `_name`."""
    package = Path(fermatgroups.__file__).resolve().parent
    named = set()
    for name in names:
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                named.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                named.add(node.module.partition(".")[0])
    return named | {f"_{module}" for module in named}


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--k", "3", "--height", "5"],
        ["search", "--n", "3", "--k", "3", "--height", "5"],
    ],
)
def test_search_calls_load_only_the_search_modules(argv):
    # past the CLI import, a search at either exponent loads its own module
    # and the conic it solves on, and nothing else of the package; of the
    # stdlib it may load only what those two import by name (and its C
    # twin, as bisect loads _bisect), which some Pythons load at start-up
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import fermatgroups.cli as cli\n"
        "before = set(sys.modules)\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    result = _python(code, *argv)
    assert (result.returncode, result.stderr) == (0, "")
    code, *loaded = result.stdout.split()
    assert code == "0"
    assert [name for name in loaded if name.partition(".")[0] == "fermatgroups"] == [
        "fermatgroups.conic",
        "fermatgroups.search",
    ]
    assert {name for name in loaded if name.partition(".")[0] != "fermatgroups"} <= _named_imports("search", "conic")


def test_module_table_covers_every_command():
    assert set(_MODULES_LOADED) == set(COMMANDS)


# stdlib modules that no call loads: `csv`, since the CLI joins its CSV
# itself, `dataclasses`, the `inspect` it imports with `ast`, `dis` and
# `tokenize`, and `typing`
_NEVER_LOADED = ("ast", "csv", "dataclasses", "dis", "inspect", "tokenize", "typing")


@pytest.mark.parametrize("path", list(_MODULES_LOADED), ids=" ".join)
def test_each_call_loads_only_the_modules_its_handler_imports(path):
    # start-up is part of every call's time: a call loads the package modules
    # its handler imports and what those import, and nothing else; with `site`
    # off (-S), nothing has loaded a module of _NEVER_LOADED before the call
    args, extra = _MODULES_LOADED[path]
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "import fermatgroups.cli as cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'fermatgroups'))\n"
        f"print(sorted(set({_NEVER_LOADED}) & set(sys.modules)))\n"
    )
    result = _python(code, *path, *args, flags=["-S"])
    assert (result.returncode, result.stderr) == (0, "")
    loaded = sorted(["fermatgroups", *(f"fermatgroups.{m}" for m in ("cli", "errors", "rationals", *extra))])
    assert result.stdout == f"0 {loaded}\n[]\n"


def test_closed_stdout_exits_one_without_a_traceback():
    # the reader of stdout is gone before the command prints
    code = (
        "import os, sys\n"
        "read, write = os.pipe()\n"
        "os.close(read)\n"
        "os.dup2(write, 1)\n"
        "from fermatgroups.cli import main\n"
        "sys.exit(main(['triples', '--height', '300']))\n"
    )
    result = _python(code)
    assert (result.returncode, result.stderr) == (1, "")
