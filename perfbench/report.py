"""Run every workload once, print the end-to-end table, optionally save it.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace] [--out perfbench/baseline.json]

Prints ``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``fail_ratio`` by name
and unit for each workload.  With ``--trace`` each workload also gets a
traced run and its per-module metrics are saved.  ``--out`` writes the
results together with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import run

WORKLOADS = ("lift", "relators", "enum", "certify")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run.load_spec()["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = run.load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    print(f"{'workload':<10} {'wall_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} {'fail_ratio':>11}")
    print(f"{'':<10} {units['wall_s']:>10} {units['setup_s']:>10} "
          f"{units['peak_rss_mb']:>12} {'ratio':>11}")
    for name in WORKLOADS:
        entry = results[name] = {"end_to_end": run.run_workload(name, args.seed, args.seconds, False)}
        e2e = entry["end_to_end"]
        m = e2e["metrics"]
        print(f"{name:<10} {m['wall_s']:>10.4f} {m['setup_s']:>10.4f} "
              f"{m['peak_rss_mb']:>12.2f} {e2e['fail_ratio']:>11.4g}", flush=True)
        if args.trace:
            entry["traced"] = run.run_workload(name, args.seed, args.seconds, True)
    for name in WORKLOADS:
        for f in results[name]["end_to_end"]["failures"]:
            print(f"FAIL {name}: {f}")
    if args.out:
        doc = {
            "environment": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "cpu_model": cpu_model(),
                "seed": args.seed,
                "run_seconds": args.seconds,
            },
            "units": units,
            "results": results,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
