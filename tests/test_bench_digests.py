"""The benchmark's recorded stdout digests replay for every op that reads the search scan, the monomial group or a conic payload printer.

`bench/digests.json` maps the argv of each benchmark op, over seeds 0-9, to
the sha256 of its stdout.  `search`, `coverage` and the `--height` sweeps of
`circle audit-exy` and `hyper audit` all read `search._scan`; every
`kgroup` op (`orbit`, `rational` and `orbit-rational`, the whole `orbit`
workload) reads the monomial group's index tables; and `iterate`, `audit
--seed` and `triples`, the long ops of the `conic` workload, print through
the integer identity sweeps, the law sample and the joined text, CSV and
JSON payloads.  Replaying their argvs here fails the suite when a kernel or
printer change moves one byte of their output, not only the benchmark's
share of passing ops.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fermatgroups.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text(encoding="utf-8")
)


def command(argv):
    """The command of an argv replayed here, else None."""
    if argv[0] in ("search", "coverage", "iterate", "audit", "triples"):
        return argv[0]
    if argv[:2] in (["circle", "audit-exy"], ["hyper", "audit"]) and "--height" in argv:
        return " ".join(argv[:2])
    if argv[0] == "kgroup":
        return " ".join(argv[:2])
    return None


SCAN_COMMANDS = {"search", "coverage", "circle audit-exy", "hyper audit"}
KGROUP_COMMANDS = {"kgroup orbit", "kgroup rational", "kgroup orbit-rational"}
SCAN_OPS = sorted(key for key in DIGESTS if command(key.split()) in SCAN_COMMANDS)
KGROUP_OPS = sorted(key for key in DIGESTS if command(key.split()) in KGROUP_COMMANDS)
CONIC_COMMANDS = {"iterate": 19, "audit": 10, "triples": 23}
CONIC_OPS = sorted(key for key in DIGESTS if command(key.split()) in CONIC_COMMANDS)


def test_every_scan_command_is_recorded():
    assert {command(key.split()) for key in SCAN_OPS} == SCAN_COMMANDS


def test_every_kgroup_op_is_replayed():
    assert {command(key.split()) for key in KGROUP_OPS} == KGROUP_COMMANDS
    assert len(KGROUP_OPS) == len([key for key in DIGESTS if key.startswith("kgroup ")]) == 319


def test_every_conic_payload_op_is_replayed():
    recorded = {name: sum(key.split()[0] == name for key in DIGESTS) for name in CONIC_COMMANDS}
    assert recorded == CONIC_COMMANDS
    assert len(CONIC_OPS) == sum(CONIC_COMMANDS.values())
    assert all(key.startswith("audit --seed ") for key in CONIC_OPS if key.startswith("audit"))


@pytest.mark.parametrize("key", SCAN_OPS + KGROUP_OPS + CONIC_OPS)
def test_stdout_matches_the_recorded_digest(key):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(key.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[key]
