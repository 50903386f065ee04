"""One benchmark worker: a closed loop with one caller over a workload's ops.

Run by run.py, one process per measurement.  The worker imports the CLI,
generates the seeded op list, runs one warm-up op and records the moment it
is ready; that is the end of set-up.  Unless --setup-only is given it then
runs the op list pass after pass in one thread, each op only after the
previous one returned, until --seconds have passed.  Every op's stdout is
captured and checked; stderr is discarded.  After every op the worker times
the reference loop of speed.py, and reports op times scaled to the
reference CPU speed.

With --trace 1 the run is split in two halves: untraced passes first, then,
after the known-failure probe, traced passes (see tracer.py).  The worker
prints one JSON object on stdout and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

from fermatgroups.cli import main  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRACE_DIR = ROOT / ".bench_out"

MIN_SAMPLES = 100  # call_p90_ms needs ten samples beyond it
MIN_PASSES = 2

# A known failure, run untimed: the iterate heights pass 4300 digits near
# step 2500, and printing them hits CPython's int-to-str conversion limit.
PROBE_NAME = "iterate_int_str_limit"
PROBE_ARGV = ("iterate", "--delta", "2/7", "--steps", "3000")


# click caches every stream object it writes to, keyed weakly but holding the
# stream itself as the value, so a fresh StringIO per call would never be
# freed.  All calls share these two buffers instead.
_OUT = io.StringIO()
_ERR = io.StringIO()


def call(argv, tracer=None):
    """Run one CLI invocation; return (seconds, exit code or exception, stdout)."""
    for buffer in (_OUT, _ERR):
        buffer.seek(0)
        buffer.truncate()
    with contextlib.redirect_stdout(_OUT), contextlib.redirect_stderr(_ERR):
        if tracer is not None:
            tracer.begin_op(argv)
        started = time.perf_counter()
        try:
            outcome = main(list(argv))
        except Exception as exc:  # any exception is a failed op, not a failed run
            outcome = exc
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op(elapsed)
    return elapsed, outcome, _OUT.getvalue()


class Runner:
    """Runs ops, checks their output and keeps latencies and failures."""

    def __init__(self, golden):
        self.golden = golden
        self.seen = {}  # argv -> sha256 of the first output
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def verdict(self, op_class, argv, outcome, stdout):
        """None when the op passed, else a one-line reason."""
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"[:200]
        if outcome != 0:
            return f"exit code {outcome}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        key = " ".join(argv)
        if key in self.seen:
            return None if self.seen[key] == digest else "stdout differs from the first identical call"
        self.seen[key] = digest
        if key in self.golden and self.golden[key] != digest:
            return "stdout differs from the recorded digest"
        try:
            workloads.check(op_class, argv, stdout)
        except CheckError as exc:
            return str(exc)
        return None

    def run(self, op_class, argv):
        """Run one op; return (seconds, reference loop seconds, stdout bytes)."""
        elapsed, outcome, stdout = call(argv, self.tracer)
        loop = speed.reference_loop()
        self.attempted += 1
        reason = self.verdict(op_class, argv, outcome, stdout)
        if reason is not None:
            self.failures.append({"argv": " ".join(argv), "reason": reason})
        return elapsed, loop, len(stdout.encode())

    def passes(self, ops, seconds, min_samples=0):
        """Run whole passes over ops until `seconds` pass.

        Returns one list of (op class, seconds at reference speed, stdout
        bytes) per pass, and the raw timings: op seconds and loop seconds.
        """
        runs = []  # one list of (op class, seconds, loop seconds, stdout bytes) per pass
        started = time.perf_counter()
        while (
            len(runs) < MIN_PASSES
            or time.perf_counter() - started < seconds
            or len(runs) * len(ops) < min_samples
        ):
            runs.append([(c, *self.run(c, argv)) for c, argv in ops])
        raw = [s for one in runs for _, s, _, _ in one]
        loops = [loop for one in runs for _, _, loop, _ in one]
        scaled = iter(speed.scale(raw, loops))
        samples = [[(c, next(scaled), b) for c, _, _, b in one] for one in runs]
        return samples, {"raw": raw, "loops": loops}


def host(timings, passes):
    """Raw wall time per pass and the median reference loop time, for the report."""
    return {
        "raw_wall_s": sum(timings["raw"]) / passes,
        "loop_ms": 1000 * statistics.median(timings["loops"]),
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def end_to_end(samples):
    latencies = [s for one in samples for _, s, _ in one]
    return {
        # the op sequence's time per pass, as total op time over passes; op
        # times are at the reference speed of speed.py
        "wall_s": statistics.mean(sum(s for _, s, _ in one) for one in samples),
        "call_p50_ms": 1000 * statistics.median(latencies),
        "call_p90_ms": 1000 * _quantile(latencies, 90),
        "samples": len(latencies),
    }


def per_class(samples):
    """Median latency and median per-pass total of every op class."""
    out = {}
    for op_class in sorted({c for one in samples for c, _, _ in one}):
        latencies = [s for one in samples for c, s, _ in one if c == op_class]
        totals = [sum(s for c, s, _ in one if c == op_class) for one in samples]
        out[op_class] = {
            "count": len(latencies) // len(samples),
            "p50_ms": 1000 * statistics.median(latencies),
            "pass_s": statistics.median(totals),
        }
    return out


def probe():
    _, outcome, _ = call(PROBE_ARGV)
    if isinstance(outcome, Exception):
        status = f"fails: {type(outcome).__name__}: {str(outcome).split(';')[0]}"
    else:
        status = f"fixed: exit code {outcome}"
    return {"name": PROBE_NAME, "argv": " ".join(PROBE_ARGV), "failing": isinstance(outcome, Exception),
            "status": status}


def traced_run(runner, ops, seconds, workload, seed):
    from tracer import Tracer

    untraced, _ = runner.passes(ops, seconds / 2)
    known = probe()
    tracer = runner.tracer = Tracer()
    tracer.install()
    traced, traced_timings = runner.passes(ops, seconds / 2)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"trace-{workload}-{seed}.jsonl")
    return {
        "untraced": end_to_end(untraced),
        "traced": end_to_end(traced),
        "classes": per_class(untraced),
        "traced_passes": len(traced),
        "out_bytes": sum(b for one in traced for _, _, b in one),
        "summary": tracer.summary(),
        # span times are raw; one factor for the traced half scales them
        "speed_factor": statistics.median(speed.factors(traced_timings["loops"])),
        "host": host(traced_timings, len(traced)),
        "probe": known,
    }


def main_worker(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.generate(args.workload, args.seed)
    runner = Runner(json.loads(DIGESTS.read_text()))
    runner.run(*workloads.WARMUP[args.workload])
    result = {"ready_at": time.monotonic()}
    if not args.setup_only:
        if args.trace:
            result["trace"] = traced_run(runner, ops, args.seconds, args.workload, args.seed)
        else:
            samples, timings = runner.passes(ops, args.seconds, MIN_SAMPLES)
            result["host"] = host(timings, len(samples))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["end_to_end"] = end_to_end(samples)
            result["passes"] = len(samples)
            result["classes"] = per_class(samples)
        result["attempted"] = runner.attempted
        result["failures"] = runner.failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
