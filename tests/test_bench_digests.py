"""The benchmark's recorded stdout digests replay for every op that reads the search scan, the monomial group or a conic payload printer.

`bench/digests.json` maps the argv of each benchmark op, over seeds 0-9, to
the sha256 of its stdout.  `search`, `coverage` and the `--height` sweeps of
`circle audit-exy` and `hyper audit` all read `search._scan`; every
`kgroup` op (`orbit`, `rational` and `orbit-rational`, the whole `orbit`
workload) reads the monomial group's index tables; `iterate`, `audit
--seed` and `triples`, the long ops of the `conic` workload, print through
the integer identity sweeps, the law sample and the joined text, CSV and
JSON payloads; and the short point ops of the `conic` workload, `circle`
and `hyper` `compose`, `act` and `solve` and the `--from/--to` pair
audits, run the conic kernel from the parsed pairs.  Replaying their argvs
here fails the suite when a kernel or printer change moves one byte of
their output, not only the benchmark's share of passing ops.  Every one of
these ops exits 0, as the recorder keeps no other.
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
    """The command of an argv replayed here; a pair audit is its command and `--from`."""
    if argv[0] in ("search", "coverage", "iterate", "audit", "triples"):
        return argv[0]
    if argv[:2] in (["circle", "audit-exy"], ["hyper", "audit"]):
        return " ".join(argv[:2] if "--height" in argv else [*argv[:2], "--from"])
    return " ".join(argv[:2])


SCAN_COMMANDS = {"search", "coverage", "circle audit-exy", "hyper audit"}
KGROUP_COMMANDS = {"kgroup orbit", "kgroup rational", "kgroup orbit-rational"}
SCAN_OPS = sorted(key for key in DIGESTS if command(key.split()) in SCAN_COMMANDS)
KGROUP_OPS = sorted(key for key in DIGESTS if command(key.split()) in KGROUP_COMMANDS)
CONIC_COMMANDS = {"iterate": 19, "audit": 10, "triples": 23}
CONIC_OPS = sorted(key for key in DIGESTS if command(key.split()) in CONIC_COMMANDS)
POINT_COMMANDS = {
    "circle compose": 50, "circle act": 50, "circle solve": 41,
    "hyper compose": 49, "hyper act": 48, "hyper solve": 40,
    "circle audit-exy --from": 20, "hyper audit --from": 21,
}
POINT_OPS = sorted(key for key in DIGESTS if command(key.split()) in POINT_COMMANDS)


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


def test_every_point_op_is_replayed():
    recorded = {name: sum(command(key.split()) == name for key in DIGESTS) for name in POINT_COMMANDS}
    assert recorded == POINT_COMMANDS
    assert len(POINT_OPS) == sum(POINT_COMMANDS.values())


def test_every_recorded_op_is_replayed():
    assert len(SCAN_OPS + KGROUP_OPS + CONIC_OPS + POINT_OPS) == len(DIGESTS)


@pytest.mark.parametrize("key", SCAN_OPS + KGROUP_OPS + CONIC_OPS + POINT_OPS)
def test_stdout_matches_the_recorded_digest(key):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(key.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[key]
