"""The ytwo benchmark.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 20 --trace 0

Runs one workload the way users run ytwo, through ``ytwo.cli.run`` with
``--json``, in fresh child processes started one after another (no
threads, no pool).  With ``--trace 0`` it repeats the workload until
``--seconds`` have passed and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-module metrics of the traced ones plus the tracing overhead.
Every repetition reads back every named check of every report.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Repetitions of set-up alone (import ytwo.cli, build the parser) per run,
# after one unmeasured start that writes the bytecode cache.  Children
# always use that cache, as an installed ytwo does, whatever the caller's
# PYTHONDONTWRITEBYTECODE says.
SETUP_SAMPLES = 5
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
# Every run ends well inside three minutes, whatever --seconds says.  A
# repetition is started only if one more of the length of the last fits
# before the deadline; a child still running at the deadline is stopped
# and counted as timed out, not as a failed check (see run_workload).
DEADLINE_S = 170

LIFT_M = 4
LIFT_WORDS = 2000


def workload_calls(name: str, seed: int) -> list:
    """The CLI argv lists of one repetition of a workload.

    lift: the trivial lifting pi(psi(w)) == phi(w) on random words; the
    seed picks the words.  At m = 4 the cost of a word varies far less
    than at m = 6 (where a few dense words dominate), so the total over
    2000 words barely depends on the seed.
    relators: relator suites of all three representations at m = 8,
    dominated by 64x64 matrix products over the quadratic extension.
    enum: packed BFS enumeration of the (3,5) and (3,7) rows, orders
    4080 and 254016, single- and two-component eta paths.
    certify: centre dimension at m = 8 (GF(2**d) rank of a large matrix)
    and spinor-basis independence at m = 7.
    The last three have no random input; the seed is only recorded.
    """
    if name == "lift":
        return [["verify", "lifting", "--m", str(LIFT_M),
                 "--words", str(LIFT_WORDS), "--seed", str(seed)]]
    if name == "relators":
        return [["verify", "relations", "--m", "8", "--rep", "all", "--kmax", "20"]]
    if name == "enum":
        return [["specialize", "--m", "3", "--n", "5", "--enumerate"],
                ["specialize", "--m", "3", "--n", "7", "--enumerate"]]
    if name == "certify":
        return [["verify", "center", "--m", "8", "--n", "5"],
                ["verify", "basis", "--m", "7"]]
    raise KeyError(name)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Runner:
    """Starts child repetitions one at a time and keeps their records."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list = []
        # (traced, seconds run) of each child stopped at the deadline
        self.timeouts: list = []

    def child(self, calls, trace=False, trace_out=None):
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--calls", json.dumps(calls), "--trace", str(int(trace))]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  text=True, timeout=max(self.deadline - start, 1))
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.timeouts.append((trace, time.monotonic() - start))
            return None
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.attempted += 1
            self.failures.append(f"child {calls}: exit code {proc.returncode}, no record")
            return None
        self.attempted += record["attempted"]
        self.failures += record["failures"]
        return record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns metrics plus what was run and checked."""
    calls = workload_calls(name, seed)
    runner = Runner(time.monotonic() + DEADLINE_S)
    os.makedirs(OUT, exist_ok=True)

    runner.child([])
    setups = [r for r in (runner.child([]) for _ in range(SETUP_SAMPLES)) if r]

    plain, traced = [], []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        if trace:
            trace_out = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            record = runner.child(calls, trace=True, trace_out=trace_out)
            if record:
                traced.append(record)
        record = runner.child(calls)
        if record:
            plain.append(record)
        now = time.monotonic()
        if now - start >= seconds or now + (now - rep_start) > runner.deadline:
            break

    if trace and not traced:
        raise RuntimeError(f"no traced repetition of {name} ended within {DEADLINE_S} s")
    setups += plain
    if not plain:
        # A repetition stopped at the deadline still reads as a time: the
        # seconds it ran (uncorrected) and the largest RSS of the
        # children, lower bounds on its wall time and peak RSS.
        cut = [t for traced_child, t in runner.timeouts if not traced_child]
        if not cut:
            raise RuntimeError(f"no repetition of {name} ended: {runner.failures}")
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        plain = [{"wall_s": t, "raw_wall_s": t, "speed": 1.0, "peak_rss_mb": rss,
                  "letters": None} for t in cut]
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    raw = {
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        "speed": statistics.median(r["speed"] for r in plain),
    }
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median_low(r["layers"][key] for r in traced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_ratio"] = traced_wall / wall - 1
    return {
        "workload": name,
        "seed": seed,
        "calls": calls,
        "reps": len(plain),
        "traced_reps": len(traced),
        "timed_out": len(runner.timeouts),
        "letters": next((r["letters"] for r in traced + plain), None),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "fail_ratio": len(runner.failures) / max(runner.attempted, 1),
        "metrics": metrics,
        "raw": raw,
    }


def declared_metrics(spec: dict, trace: bool) -> list:
    return spec["per_layer"] if trace else spec["end_to_end"]


def render(result: dict, spec: dict, trace: bool) -> list:
    """Human-readable lines: what ran, every metric by name and unit."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"reps {result['reps']}  traced reps {result['traced_reps']}"]
    lines += ["  ytwo " + " ".join(argv) + " --json" for argv in result["calls"]]
    if result["letters"] is not None:
        lines.append(f"  {'letters':<36} {result['letters']} count (work the seed produced)")
    for m in declared_metrics(spec, trace):
        lines.append(f"  {m['name']:<36} {result['metrics'][m['name']]:.6g} {m['unit']}")
    raw = result["raw"]
    lines.append(f"  {'raw_wall_s':<36} {raw['raw_wall_s']:.6g} s (not speed-corrected)")
    lines.append(f"  {'raw_setup_s':<36} {raw['raw_setup_s']:.6g} s (not speed-corrected)")
    lines.append(f"  {'speed':<36} {raw['speed']:.6g} (raw-to-corrected multiplier)")
    lines.append(f"  {'fail_ratio':<36} {result['fail_ratio']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} checks)")
    if result["timed_out"]:
        lines.append(f"  {result['timed_out']} repetition(s) stopped at the "
                     f"{DEADLINE_S} s deadline (not counted as failed)")
    lines += [f"  FAIL {f}" for f in result["failures"]]
    return lines


def summary(result: dict, spec: dict, trace: bool) -> dict:
    """The result line: correctness counts and every declared metric."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared_metrics(spec, trace)
        },
    }


def main():
    parser = argparse.ArgumentParser(description="ytwo benchmark run")
    parser.add_argument("--workload", required=True,
                        choices=("lift", "relators", "enum", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ytwo", "cli.py")):
        sys.exit(f"no ytwo source tree under {ROOT}")
    spec = load_spec()
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    print("\n".join(render(result, spec, trace)))
    print(json.dumps(summary(result, spec, trace)))


if __name__ == "__main__":
    main()
