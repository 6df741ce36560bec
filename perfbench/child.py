"""One benchmark repetition, in a fresh process.

    python3 perfbench/child.py --calls '[["verify", "basis", "--m", "5"]]' [--trace 1]

Times the import of ``ytwo.cli`` plus building its parser (set-up), then
runs each argv through ``ytwo.cli.run`` with ``--json``, one after the
other, and reads every report back: every named check must pass, the
exit code must be 0, and enumerated group orders must equal the
classical formulas and agree between phi and eta.  With ``--trace 1``
the package is traced from outside (see ``tracer.py``).  The last line
of standard output is one JSON record of the repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Speed correction.  On a shared 2-vCPU Xeon VM the same Python code runs up to
# 1.8x slower for seconds at a time, so raw wall times of one repetition
# spread by 30% between repetitions.  A fixed pure-integer loop, timed
# every PROBE_INTERVAL_S from a timer signal while the workload runs,
# slows down with it: corrected times track a known change in work on all
# four workloads (README.md, "Speed correction").  Reported times are
# rescaled to the speed at which that loop takes REF_PROBE_NS; the raw
# times are kept beside them.  The probe
# allocates no container objects, so it never triggers a garbage
# collection of the workload's heap.
PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 1500
REF_PROBE_NS = 160_000


def probe_ns() -> int:
    start = time.perf_counter_ns()
    x = 0
    for j in range(PROBE_LOOPS):
        x = (x * 31 + j) & 0xFFFFFFFF
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Times ``probe_ns`` every PROBE_INTERVAL_S while the block runs."""

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        self.samples.append(probe_ns())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Multiplier taking raw times of the block to reference speed.

        The slowest tenth of the samples is dropped: a probe that happens
        to be preempted reads many times its length.
        """
        samples = sorted(self.samples or [probe_ns() for _ in range(5)])
        return REF_PROBE_NS / statistics.fmean(samples[: max(1, len(samples) * 9 // 10)])


def sl2_order(q: int) -> int:
    return q * (q * q - 1)


def coset_sizes(n: int) -> list:
    """Sizes of the 2-cyclotomic cosets of 1..n-1 modulo n."""
    seen, sizes = set(), []
    for c in range(1, n):
        if c in seen:
            continue
        x, size = c, 0
        while x not in seen:
            seen.add(x)
            size += 1
            x = 2 * x % n
        sizes.append(size)
    return sizes


def expected_order(m: int, n: int):
    """Classical order of the group the b-generators generate, or None.

    At m = 3 and an odd prime n the image is a product of SL2(2**d), one
    factor per irreducible factor of degree d of (x**n + 1)/(x + 1).
    """
    if m == 3 and n > 2 and all(n % p for p in range(2, n)):
        order = 1
        for d in coset_sizes(n):
            order *= sl2_order(2 ** d)
        return order
    return None


def check_call(argv, code, text, error) -> tuple:
    """(attempted, failures) for one CLI call and its JSON report."""
    label = " ".join(argv)
    if error is not None:
        return 1, [f"{label}: {error}"]
    failures = []
    attempted = 1
    if code != 0:
        failures.append(f"{label}: exit code {code}")
    try:
        report = json.loads(text)
    except ValueError:
        return attempted + 1, failures + [f"{label}: report is not JSON"]
    checks = {c["name"]: c for c in report["checks"]}
    for c in report["checks"]:
        attempted += 1
        if c["status"] != "pass":
            failures.append(
                f"{label}: {c['name']} {c['status']} "
                f"(expected {c['expected']}, got {c['actual']})"
            )
    if argv[0] == "specialize":
        params = report["params"]
        m, n = int(params["m"]), int(params["n"])
        want = expected_order(m, n)
        orders = {}
        for rep in ("phi", "eta"):
            attempted += 1
            got = checks.get(f"group_order_{rep}", {}).get("actual")
            orders[rep] = got
            if want is None or got != str(want):
                failures.append(f"{label}: {rep} order {got}, formula gives {want}")
        attempted += 1
        if orders["phi"] is None or orders["phi"] != orders["eta"]:
            failures.append(f"{label}: phi order {orders['phi']} != eta {orders['eta']}")
    return attempted, failures


def lift_letters(cli, calls):
    """Total letters of the random words the ``verify lifting`` calls
    draw (the work their seed produced), or None without such calls.

    The words are drawn again from the seed exactly as the lifting suite
    draws them, outside the timed block.
    """
    total = None
    for argv in calls:
        if list(argv[:2]) != ["verify", "lifting"]:
            continue
        args = cli.build_parser().parse_args(list(argv))
        letters = cli.OrthoRep(cli.QuadSpace(args.m)).letters()
        rng = random.Random(args.seed)
        total = total or 0
        for _ in range(args.words):
            length = rng.randint(0, args.maxlen)
            for _ in range(length):
                rng.choice(letters)
            total += length
    return total


def run_calls(calls, trace: bool, trace_out=None) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with SpeedProbe() as probe:
        start = time.perf_counter()
        from ytwo import cli

        cli.build_parser()
        setup_s = time.perf_counter() - start
        probe.samples += [probe_ns() for _ in range(5)]
    setup_speed = probe.factor()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for argv in calls:
            buf = io.StringIO()
            code = error = None
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.run(list(argv) + ["--json"])
            except (Exception, SystemExit) as exc:
                error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            outputs.append((argv, code, buf.getvalue(), error))
        wall_s = time.perf_counter() - start
    wall_speed = probe.factor()

    attempted, failures = 0, []
    for argv, code, text, error in outputs:
        a, f = check_call(argv, code, text, error)
        attempted += a
        failures += f

    record = {
        "setup_s": setup_s * setup_speed,
        "raw_setup_s": setup_s,
        "wall_s": wall_s * wall_speed if calls else None,
        "raw_wall_s": wall_s if calls else None,
        "speed": wall_speed,
        "letters": lift_letters(cli, calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        from tracer import cache_entries, scalar_op_metrics

        tracer.uninstall()
        layers = tracer.layer_metrics()
        for key, value in layers.items():
            if key.endswith(("_s", "_us")):
                layers[key] = value * wall_speed
        # the per-op timings run after the workload, under their own probe
        with SpeedProbe() as probe:
            ops = scalar_op_metrics(tracer.pools, tracer.seen)
        op_speed = probe.factor()
        layers.update((key, value * op_speed) for key, value in ops.items())
        layers["clifford.cache_entries"] = cache_entries()
        record["layers"] = layers
        if trace_out:
            tracer.write(trace_out)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", required=True, help="JSON list of CLI argv lists")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="file for the recorded spans")
    args = parser.parse_args()
    record = run_calls(json.loads(args.calls), bool(args.trace), args.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
