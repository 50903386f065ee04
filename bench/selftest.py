"""Self-tests of the benchmark itself (not of fermatgroups).

    python3 bench/selftest.py

1. The same seed always generates the same argv list; other seeds differ.
2. Every op of seed 0 passes its check, and the checks reject corrupted
   output: per op, the last digit changed, the first digit changed, and the
   last line dropped; every corruption must be rejected.
3. Tracing leaves stdout byte-identical, resolves every name in
   tracer.LAYERS, and the per-layer self times add up to the op time.
4. In a directory holding only BENCHMARK.json and bench/, run.py exits with
   a nonzero code and prints no result.
5. Scaling to the reference speed: loops at the reference time leave times
   unchanged, a host twice as slow halves them, and each factor comes from
   the loops around its own op.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import speed
import workloads
from tracer import LAYERS, Tracer
from worker import ROOT, TRACE_DIR, call


def _mutants(stdout):
    digits = [m.start() for m in re.finditer(r"\d", stdout)]
    for index in (digits[-1], digits[0]):
        yield stdout[:index] + str((int(stdout[index]) + 1) % 10) + stdout[index + 1:]
    lines = stdout.rstrip("\n").split("\n")
    yield "\n".join(lines[:-1]) + "\n" if len(lines) > 1 else stdout[: len(stdout) // 2]


def test_seeds():
    for workload in workloads.WORKLOADS:
        lists = [workloads.generate(workload, seed) for seed in range(10)]
        assert lists == [workloads.generate(workload, seed) for seed in range(10)], workload
        assert len({tuple(ops) for ops in lists}) == 10, workload
        assert len({tuple(sorted(c for c, _ in ops)) for ops in lists}) == 1, workload
    print("seeds: same seed, same argv; each seed differs; op classes fixed")


def test_checks():
    killed, total = Counter(), Counter()
    outputs = {}
    for workload in workloads.WORKLOADS:
        for op_class, argv in workloads.generate(workload, 0):
            _, outcome, stdout = call(argv)
            assert outcome == 0, argv
            workloads.check(op_class, argv, stdout)
            outputs[argv] = stdout
            for mutant in _mutants(stdout):
                total[op_class] += 1
                try:
                    workloads.check(op_class, argv, mutant)
                except workloads.CheckError:
                    killed[op_class] += 1
    for op_class in sorted(total):
        print(f"checks: {op_class:15s} rejected {killed[op_class]}/{total[op_class]} corrupted outputs")
    assert killed == total, "a check accepts corrupted output"
    return outputs


def test_tracer(outputs):
    tracer = Tracer()
    tracer.install()
    wrapped = sum(len(names) for names in LAYERS.values())
    for workload in workloads.WORKLOADS:
        for op_class, argv in workloads.generate(workload, 0)[:12]:
            _, outcome, stdout = call(argv, tracer)
            assert outcome == 0 and stdout == outputs[argv], argv
    summary = tracer.summary()
    layer_sum = sum(summary["self_s"].values())
    assert abs(layer_sum - summary["op_s"]) <= 1e-9 * summary["op_s"], (layer_sum, summary["op_s"])
    print(f"tracer: {wrapped} functions wrapped, outputs unchanged, "
          f"self times sum to op time ({layer_sum:.4f} s of {summary['op_s']:.4f} s)")


def test_bare_directory():
    bare = TRACE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done
    print(f"bare directory: run.py exits {done.returncode} without a result")


def test_speed():
    times = [0.5, 0.1, 0.3]
    assert speed.scale(times, [speed.REFERENCE_S] * 3) == times
    assert speed.scale(times, [2 * speed.REFERENCE_S] * 3) == [t / 2 for t in times]
    loops = [speed.REFERENCE_S] * 20 + [2 * speed.REFERENCE_S] * 20
    factors = speed.factors(loops)
    assert factors[:16] == [1.0] * 16 and factors[24:] == [0.5] * 16, factors
    assert speed.reference_loop() > 0
    print("speed: times scale with the loops around their own op")


def main():
    test_seeds()
    test_speed()
    outputs = test_checks()
    test_tracer(outputs)
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
