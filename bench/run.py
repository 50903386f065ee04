"""fermatgroups benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload scan|orbit|conic --seed N --seconds S --trace 0|1

Run from the repository root.  The program is the source tree under src/;
nothing is installed or built.  Set-up is measured by spawning fresh worker
processes (worker.py) and timing each until it is ready; then one more
worker runs the timed closed loop.  Every time reported is at the reference
CPU speed of speed.py: op times are scaled by reference loops timed after
each op, set-up times by loops timed just before and after each spawn.
With --trace 0 the last line printed is a JSON object with the end-to-end
metrics, with --trace 1 one with the per-layer metrics from a traced run.
Lines before it are a human-readable report.
See NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SPAWNS = 15  # set-up samples per run
SETUP_LOOPS = 3  # reference loops timed before and after each set-up spawn
WORKER_TIMEOUT = 150

OP_CLASSES = (
    "search_n2", "search_n3", "coverage",
    "orbit", "rational", "orbit_rational",
    "audit", "sweep", "iterate", "point_ops",
)


def spawn(args, setup_only):
    """Run one worker; return (set-up seconds as measured, its JSON result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    # Workers may cache bytecode, as an installed package does, whatever the
    # caller's environment says; the first spawn of a fresh tree compiles.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    spawned_at = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT} s")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["ready_at"] - spawned_at, result


def loop_s():
    return statistics.median(speed.reference_loop() for _ in range(SETUP_LOOPS))


def setup_sample(args):
    """Set-up seconds of one fresh worker at the reference speed."""
    before = loop_s()
    setup, _ = spawn(args, setup_only=True)
    return setup * speed.REFERENCE_S / ((before + loop_s()) / 2)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_s, result):
    e2e = result["end_to_end"]
    ok = result["attempted"] - len(result["failures"])
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(e2e["wall_s"], "s"),
        "call_p50_ms": _metric(e2e["call_p50_ms"], "ms"),
        "call_p90_ms": _metric(e2e["call_p90_ms"], "ms"),
        "ok_ratio": _metric(ok / result["attempted"], "ratio"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(trace):
    s = trace["summary"]
    passes = trace["traced_passes"]
    factor = trace["speed_factor"]  # span times are raw
    self_s, total_s, calls, counts = s["self_s"], s["total_s"], s["calls"], s["counts"]

    def per_pass(value):
        return value / passes

    def t(name):
        return per_pass(total_s.get(name, 0.0)) * factor

    def n(*names):
        return per_pass(sum(calls.get(name, 0) for name in names))

    def c(name):
        return per_pass(counts.get(name, 0))

    root_tests = n("search.rational_kth_root")
    applies = n("monomial.MonomialMatrix.apply")
    m = {}
    for layer in ("search", "monomial", "cyclotomic", "circle", "hyperbola", "rationals",
                  "stroboscope", "cli", "audit"):
        m[f"{layer}.self_s"] = (per_pass(self_s.get(layer, 0.0)) * factor, "s")
    m.update({
        "search.n2.total_s": (t("search.search_n[n=2]"), "s"),
        "search.n3.total_s": (t("search.search_n[n=3]"), "s"),
        "search.coverage.total_s": (t("search.verify_orbit_coverage"), "s"),
        "search.candidates": (c("search.candidates"), "count"),
        "search.root_tests": (root_tests, "count"),
        "search.solutions": (c("search.solutions"), "count"),
        "search.hit_ratio": (c("search.solutions") / root_tests if root_tests else 0.0, "ratio"),
        "monomial.elements": (c("monomial.elements"), "count"),
        "monomial.apply_calls": (applies, "count"),
        "monomial.mul_calls": (n("monomial.MonomialMatrix.__mul__"), "count"),
        "monomial.orbit_yield": (c("monomial.orbit_points") / applies if applies else 0.0, "ratio"),
        "cyclotomic.constructs": (n("cyclotomic.CyclotomicNumber.__init__"), "count"),
        "cyclotomic.mul_calls": (n("cyclotomic.CyclotomicNumber.__mul__", "cyclotomic.CyclotomicNumber.__rmul__"), "count"),
        "rationals.mat2_ops": (n(*(f"rationals.Mat2.{op}" for op in ("__mul__", "__neg__", "__pow__", "det", "apply"))), "count"),
        "rationals.format_calls": (n("rationals.format_rational", "rationals.format_projective", "rationals.format_point"), "count"),
        "rationals.max_digits": (s["max_digits"], "digits"),
        "stroboscope.total_s": (t("stroboscope.iterate"), "s"),
        "stroboscope.steps": (c("stroboscope.steps"), "count"),
        "cli.out_bytes": (per_pass(trace["out_bytes"]), "bytes"),
        "audit.circle_law.total_s": (t("audit.circle_law_sample"), "s"),
        "audit.monomial_law.total_s": (t("audit.monomial_law_sample"), "s"),
        "audit.circle_sweep.total_s": (t("audit.circle_identity_sweep"), "s"),
        "audit.hyperbola_sweep.total_s": (t("audit.hyperbola_identity_sweep"), "s"),
        "audit.orbit_census.total_s": (t("audit.orbit_cardinality_audit"), "s"),
        "audit.subgroup_census.total_s": (t("audit.rational_subgroup_audit"), "s"),
        "trace.overhead_ratio": (trace["traced"]["wall_s"] / trace["untraced"]["wall_s"], "ratio"),
        "trace.layer_sum_ratio": (sum(self_s.values()) / s["op_s"], "ratio"),
        "trace.op_s": (per_pass(s["op_s"]) * factor, "s"),
        "known_failure.iterate_int_str_limit": (1 if trace["probe"]["failing"] else 0, "count"),
    })
    for layer in ("circle", "hyperbola"):
        element = "CircleElement" if layer == "circle" else "HyperbolicElement"
        m[f"{layer}.solve_calls"] = (n(f"{layer}.solve_delta"), "count")
        m[f"{layer}.act_calls"] = (n(f"{layer}.{element}.act"), "count")
        m[f"{layer}.compose_calls"] = (n(f"{layer}.compose_delta", f"{layer}.{element}.compose"), "count")
    classes = trace["classes"]
    for op_class in OP_CLASSES:
        row = classes.get(op_class, {"p50_ms": 0.0, "pass_s": 0.0})
        m[f"class.{op_class}.p50_ms"] = (row["p50_ms"], "ms")
        m[f"class.{op_class}.pass_s"] = (row["pass_s"], "s")
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


def report(args, setup_samples, result):
    """Human-readable lines printed before the JSON result."""
    failures = result["failures"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}",
        f"ops attempted {result['attempted']}  failed {len(failures)}  "
        f"fail_ratio {len(failures) / result['attempted']:.4f}",
    ]
    host = result["trace"]["host"] if args.trace else result["host"]
    lines.append(f"raw wall_s {host['raw_wall_s']:.4f} (unscaled)  reference loop median "
                 f"{host['loop_ms']:.3f} ms (reference {1000 * speed.REFERENCE_S:.3f} ms)")
    if args.trace:
        trace = result["trace"]
        lines.append(f"untraced wall_s {trace['untraced']['wall_s']:.4f}  traced wall_s "
                     f"{trace['traced']['wall_s']:.4f}  traced passes {trace['traced_passes']}")
        probe = trace["probe"]
        lines.append(f"known failure {probe['name']}: {probe['argv']} -> {probe['status']}")
        classes = trace["classes"]
    else:
        e2e = result["end_to_end"]
        beyond = e2e["samples"] - int(0.9 * e2e["samples"])
        lines.append(f"passes {result['passes']}  call_p90_ms over {e2e['samples']} samples "
                     f"({beyond} beyond it)")
        classes = result["classes"]
    for op_class, row in classes.items():
        lines.append(f"  class {op_class:15s} ops/pass {row['count']:3d}  p50 {row['p50_ms']:10.3f} ms  "
                     f"per pass {row['pass_s']:.4f} s")
    lines.extend(f"  FAILED {f['argv']}: {f['reason']}" for f in failures[:10])
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("scan", "orbit", "conic"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermatgroups" / "cli.py").is_file():
        print(f"error: no fermatgroups source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_samples = [setup_sample(args) for _ in range(SETUP_SPAWNS)]
    _, result = spawn(args, setup_only=False)
    setup_s = statistics.median(setup_samples)

    for line in report(args, setup_samples, result):
        print(line)
    if args.trace:
        metrics = per_layer_metrics(result["trace"])
    else:
        metrics = end_to_end_metrics(setup_s, result)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
