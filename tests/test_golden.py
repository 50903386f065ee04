"""Golden corpus: the README's CLI examples replay byte for byte.

`tests/golden/cases.json` lists every recorded call: its name, its argv and
its exit code, and the files it writes.  Each README example is recorded
once per `--format` it accepts, plus calls that must fail.  Next to the
manifest lie the recorded bytes: `<name>.stdout`, `<name>.stderr` and
`<name>.<file>` for each file the call writes into its working directory.

Calls run in-process through `fermatgroups.cli.main`, as the installed
`fermatgroups` script runs them.  To replay every call through the script
itself, each in a fresh temporary directory, run from outside the checkout
with the package installed and no PYTHONPATH:

    python /path/to/tests/test_golden.py --replay fermatgroups

or through the module entry point with `--replay python -m fermatgroups`,
which prints the name of each call whose exit code, stdout, stderr or
written files differ and exits 1 if there is one.  Each call inherits the
environment, so `PYTHONHASHSEED=0` (or any fixed seed) before the command
replays the corpus under that string hash seed.  After an intended change
of output, re-record the bytes of the calls it changes, named as in the
manifest:

    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]

With no name, every listed call is re-recorded.  To add a case, append an
entry with its `name` and `argv` to `cases.json` (any `exit` and an empty
`files` list; recording fills in both), then record it by name at a commit
whose output is known good, before the change it is meant to pin, and
commit the new files with the manifest.
"""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fermatgroups.cli import COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_case(argv, workdir: Path):
    """Run one call in `workdir`; return (exit code, stdout, stderr, written files)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), files


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_replays_byte_identically(case, tmp_path):
    code, stdout, stderr, files = run_case(case["argv"], tmp_path)
    name = case["name"]
    assert code == case["exit"]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()
    assert sorted(files) == case["files"]
    for filename, data in files.items():
        assert data == (GOLDEN / f"{name}.{filename}").read_bytes()


def _format_choices():
    """Yield (command path, format, default format) for every `--format` choice in the command table."""
    for path, (_, _, options) in COMMANDS.items():
        for option in options:
            if option.name == "--format":
                for choice in option.convert:
                    yield path, choice, option.default


def _case_format(argv, default):
    return argv[argv.index("--format") + 1] if "--format" in argv else default


def test_every_command_format_has_a_case():
    missing = [
        f"{' '.join(path)} --format {fmt}"
        for path, fmt, default in _format_choices()
        if not any(
            case["exit"] == 0
            and tuple(case["argv"][: len(path)]) == path
            and _case_format(case["argv"], default) == fmt
            for case in CASES
        )
    ]
    assert missing == []


def replay(command) -> int:
    """Run every call through the command line `command` in a fresh directory; print each that differs, return 1 if any."""
    differing = []
    for case in CASES:
        name = case["name"]
        with tempfile.TemporaryDirectory() as scratch:
            result = subprocess.run([*command, *case["argv"]], cwd=scratch, capture_output=True)
            files = {path.name: path.read_bytes() for path in sorted(Path(scratch).iterdir())}
        if (
            result.returncode != case["exit"]
            or result.stdout != (GOLDEN / f"{name}.stdout").read_bytes()
            or result.stderr != (GOLDEN / f"{name}.stderr").read_bytes()
            or sorted(files) != case["files"]
            or any(data != (GOLDEN / f"{name}.{filename}").read_bytes() for filename, data in files.items())
        ):
            differing.append(name)
            print(f"differs: {name}")
    print(f"{len(CASES) - len(differing)} of {len(CASES)} golden calls replay through {' '.join(command)}")
    return 1 if differing else 0


def record(names=()) -> None:
    """Re-run the named calls of the manifest, or all of them, and rewrite their exit codes and bytes."""
    unknown = set(names) - {case["name"] for case in CASES}
    if unknown:
        raise SystemExit(f"no golden case named {', '.join(sorted(unknown))}")
    for case in CASES:
        if names and case["name"] not in names:
            continue
        with tempfile.TemporaryDirectory() as scratch:
            code, stdout, stderr, files = run_case(case["argv"], Path(scratch))
        name = case["name"]
        case["exit"] = code
        case["files"] = sorted(files)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
        for filename, data in files.items():
            (GOLDEN / f"{name}.{filename}").write_bytes(data)
    manifest = json.dumps(CASES, indent=1) + "\n"
    (GOLDEN / "cases.json").write_text(manifest, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        sys.exit(replay(sys.argv[2:]))
    record(sys.argv[1:])
