"""Run the benchmark over several seeds and report medians and run-to-run spread.

    python3 bench/baseline.py --seeds 10 --seconds 30
    python3 bench/baseline.py --seeds 5 --workloads stream-small
    python3 bench/baseline.py --seeds 10 --trace-seed 1 --write bench/baseline.json

For every workload and gated end-to-end metric this prints the median
of the per-seed values and the spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4), next to the metric's
bound.  --trace-seed adds one traced run per workload for the per-layer
figures; --write stores everything with the environment it ran in.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "machine": platform.machine(), "system": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run with this seed")
    parser.add_argument("--write", type=Path, default=None, help="write the results as JSON here")
    args = parser.parse_args(argv)

    report = {"environment": environment(), "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        entry = {"why": workloads.WORKLOADS[workload], "seeds": list(range(1, args.seeds + 1)),
                 "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for name, (unit, better, bound) in metrics.END_TO_END.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": unit, "better": better, "bound": bound, **stats}
            steady = name == "setup_s" or stats["spread"] < bound / 3
            ok &= steady
            print(f"{workload:<13} {name:<12} median {stats['median']:>10.5g} {unit:<3} "
                  f"spread {stats['spread']:.4f} bound {bound} {'ok' if steady else 'WIDE'}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        ok &= entry["failed"] == 0
        report["workloads"][workload] = entry
    if args.write is not None:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
