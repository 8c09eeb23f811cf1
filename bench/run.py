"""qmarkov benchmark: run one workload (or all three) and print its metrics.

    python3 bench/run.py --workload stream-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the program is taken from `src/` next to this
directory.  Each workload runs in a fresh child process (bench/worker.py)
that imports qmarkov, reports `ready`, and runs the workload's op list
back to back: one client, one thread, BLAS pinned to one thread.  The
parent times set-up (spawn until `ready`, median of several spawns),
reads the peak RSS of a child that runs the op list exactly twice from
os.wait4, and prints a table of every
metric by name and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the JSON carries the gated end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Inputs,
the op list and results are kept in bench/runs/<workload>-seed<n>-trace<t>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
# set-up spawns before and after the measuring children (plus their own)
SETUP_SAMPLES_EACH_SIDE = 4


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def spawn(run_dir: Path, extra: list) -> tuple:
    """Run the worker; returns (seconds from spawn to `ready`, peak RSS in MB)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(run_dir), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=run_dir)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        # wait4 reports this child's own peak RSS, unlike RUSAGE_CHILDREN
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready_s, usage.ru_maxrss / 1024.0


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _untraced(data, present_kinds) -> dict:
    passes = data["passes"]
    out = {
        "wall_s": _median(p["norm"]["wall_s"] for p in passes),
        "wall_raw_s": _median(p["wall_s"] for p in passes),
        "calibration_s": _median(t for p in passes for t in p["loop_s"]),
    }
    for kind in metrics.OP_KINDS:
        if kind in present_kinds:
            out[f"cmd.{kind}_s"] = _median(p["norm"]["kind_s"].get(kind, 0.0) for p in passes)
    rates = [p["sim_steps"] / p["norm"]["sim_s"] for p in passes if p["sim_steps"] and p["norm"]["sim_s"] > 0]
    if rates:
        out["steps_per_s"] = _median(rates)
    errs = [p["max_abs_err"] for p in passes if p["max_abs_err"] is not None]
    if errs:
        out["max_abs_err"] = max(errs)
    return out


def _all_passes(data) -> list:
    return [data["warmup"], *data["passes"], *data["traced"], *([data["memory_pass"]] if "memory_pass" in data else [])]


def summarize(data, two_passes, ops, setup, peak_rss_mb, trace) -> tuple:
    """(table metrics, JSON metrics, attempted, failed, errors) of one workload run.

    `data` and `two_passes` are the worker.json of the measuring child
    and of the two-pass child; `setup` holds (raw seconds, calibration
    loop seconds) per set-up spawn.
    """
    every = _all_passes(data) + _all_passes(two_passes)
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    kinds = {op["kind"] for op in ops}
    table = {"setup_s": _median(calibrate.normalized(t, [loop]) for t, loop in setup),
             "setup_raw_s": _median(t for t, _ in setup),
             "peak_rss_mb": peak_rss_mb, "ops_failed": failed / attempted, **_untraced(data, kinds)}
    if not trace:
        shown = {name: table[name] for name in metrics.END_TO_END}
    else:
        layers = {name: _median(t["layers"][name] for t in data["traced"]) for name in data["traced"][0]["layers"]}
        layers.update(data["memory"])
        layers["trace.overhead_s"] = _median(t["norm"]["wall_s"] for t in data["traced"]) - table["wall_s"]
        layers["cli.stdout_bytes"] = data["passes"][0]["stdout_bytes"]
        layers["serialization.trajectory_bytes"] = data["passes"][0]["trajectory_bytes"]
        table.update(layers)
        shown = {name: table.get(name, 0.0) for name in metrics.PER_LAYER}
    errors = [e for p in every for e in p["errors"]]
    return table, shown, attempted, failed, errors


def _setup_sample(run_dir, extra) -> tuple:
    loop = calibrate.loop_s()
    ready_s, peak_rss_mb = spawn(run_dir, extra)
    return (ready_s, loop), peak_rss_mb


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    run_dir = RUNS / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.generate(workload, seed, run_dir, scale)
    (run_dir / "ops.json").write_text(json.dumps({"workload": workload, "seed": seed, "scale": scale, "ops": ops}, indent=1))
    # samples on both sides of the measuring child see the machine at two moments
    setup = [_setup_sample(run_dir, ["--setup-only"])[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    # peak RSS creeps with the number of passes a process has run (heap
    # fragmentation), so it is read from a child that runs exactly two
    sample, peak_rss_mb = _setup_sample(run_dir, ["--seconds", "0"])
    two_passes = json.loads((run_dir / "worker.json").read_text())
    setup.append(sample)
    setup.append(_setup_sample(run_dir, ["--seconds", str(seconds), "--trace", str(trace)])[0])
    setup += [_setup_sample(run_dir, ["--setup-only"])[0] for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    data = json.loads((run_dir / "worker.json").read_text())
    table, shown, attempted, failed, errors = summarize(data, two_passes, ops, setup, peak_rss_mb, trace)
    result = {"workload": workload, "seed": seed, "trace": trace, "setup_samples_s": setup,
              "passes": len(data["passes"]), "table": table, "metrics": shown,
              "attempted": attempted, "failed": failed, "errors": errors[:20]}
    (run_dir / "results.json").write_text(json.dumps(result, indent=1))
    return result


def _unit(name):
    return (metrics.END_TO_END.get(name) or metrics.PER_LAYER.get(name))[0]


def print_table(result) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']}")
    for name, value in result["table"].items():
        print(f"{result['workload']:<13} {name:<45} {value:>14.6g} {_unit(name)}")
    for error in result["errors"][:5]:
        print(f"# failed op {error['op']} ({error['kind']}): {'; '.join(error['errors'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmarkov benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="step-count multiplier (tests use small values)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qmarkov" / "cli.py").is_file():
        print(f"error: no qmarkov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace, args.scale) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_table(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        shown = results[0]["metrics"]
    else:
        shown = {f"{r['workload']}.{name}": value for r in results for name, value in r["metrics"].items()}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name.split(".", 1)[1] if len(results) > 1 else name)}
                    for name, value in shown.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
