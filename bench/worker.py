"""Benchmark child process: runs passes of one recorded op list and checks every output.

    python3 bench/worker.py RUN_DIR [--seconds S] [--trace 0|1] [--setup-only]

RUN_DIR holds `ops.json` and the input files the generator wrote; running
this on a kept run directory replays that run exactly.  The process
prints `ready` once `qmarkov.cli` is imported (the end of set-up), runs
one warm-up pass, then timed passes until S seconds have passed, and
writes `worker.json` into RUN_DIR.  Timed passes interleave the
calibration loop (calibrate.py) with their ops.  With --trace 1 it alternates
untraced and traced passes and ends with one tracemalloc pass over the
ops that allocate per step; spans of the traced passes go to
`spans.json`.
"""

import argparse
import io
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATING = ("coin-toss", "simulate.spin", "simulate.qubit", "simulate.matrix-file")
MEMORY_KINDS = ("simulate.spin", "reload")
# the machine's speed changes within a pass, so timed passes recalibrate this often
CALIBRATION_INTERVAL_S = 0.25


def _reload(op):
    """Read a trajectory back and compare it with theory through the library."""
    from qmarkov import HalfInt, markov, serialization, spin_chain, stats

    e = op["expect"]
    trajectory, _header = serialization.trajectory_from_text(Path(e["file"]).read_text())
    counts = stats.transition_counts(trajectory)
    spec = spin_chain.SpinChainSpec(s=HalfInt(e["twice_s"]), beta=e["beta"])
    theory = spin_chain.spin_transition_matrix(spec)
    if [str(label) for label in theory.labels] != list(trajectory.labels):
        raise ValueError("trajectory labels do not match the spin chain's")
    # file labels are strings; per_row_tv compares label tuples
    theory = markov.StochasticMatrix(labels=trajectory.labels, rows=theory.rows)
    row_tv = stats.per_row_tv(stats.empirical_matrix(counts), theory)
    return {"steps": trajectory.steps, "seed": trajectory.seed, "labels": list(trajectory.labels),
            "counts": counts.counts.tolist(), "row_tv": row_tv}


def run_op(cli_main, op, tracer):
    """Run one op with stdout and stderr captured; returns (result, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    result = {"code": None, "error": None, "payload": None}
    start = time.perf_counter()
    try:
        with (tracer.op(op) if tracer else nullcontext()), redirect_stdout(out), redirect_stderr(err):
            if op["kind"] == "reload":
                result["payload"] = _reload(op)
                result["code"] = 0
            else:
                result["code"] = cli_main(op["argv"])
    except SystemExit as exc:  # argparse rejects bad argv this way
        result["code"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that crashes is a failed op, not a failed run
        result["error"] = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    result["stdout"], result["stderr"] = out.getvalue(), err.getvalue()
    return result, seconds


def run_pass(cli_main, ops, refs, tracer=None, calibrated=False) -> dict:
    """Run and check every op once.

    With `calibrated`, the calibration loop runs before the first op and
    then whenever CALIBRATION_INTERVAL_S of pass time has gone by; each
    stretch of the pass between two loops is normalized by the mean of
    those two loop times (see calibrate.py).  Loop time is excluded from
    every time the pass reports.
    """
    import calibrate
    import checks

    seen = {}
    norm = {"wall_s": 0.0, "sim_s": 0.0, "kind_s": defaultdict(float)}
    record = {"attempted": 0, "failed": 0, "errors": [], "sim_steps": 0,
              "stdout_bytes": 0, "trajectory_bytes": 0, "max_abs_err": None, "wall_s": 0.0, "loop_s": []}
    if calibrated:
        record["loop_s"].append(calibrate.loop_s())
    stretch = []  # (kind, seconds, simulating) since the last loop
    stretch_start = time.perf_counter()
    for index, op in enumerate(ops):
        result, seconds = run_op(cli_main, op, tracer)
        try:
            errors, err = checks.check(op, result, refs[op["id"]], seen, ".")
        except Exception as exc:  # unparsable output fails the op
            errors, err = [f"check failed: {type(exc).__name__}: {exc}"], None
        simulating = op["kind"] in SIMULATING
        stretch.append((op["kind"], seconds, simulating))
        record["attempted"] += 1
        record["stdout_bytes"] += len(result["stdout"].encode())
        if errors:
            record["failed"] += 1
            record["errors"].append({"op": op["id"], "kind": op["kind"], "errors": errors[:3]})
        if err is not None:
            record["max_abs_err"] = max(err, record["max_abs_err"] or 0.0)
        if simulating:
            e = op["expect"]
            record["sim_steps"] += e.get("steps", e.get("count", 0))
            if "--out" in op["argv"]:
                path = op["argv"][op["argv"].index("--out") + 1]
                record["trajectory_bytes"] += os.path.getsize(path) if os.path.exists(path) else 0
        elapsed = time.perf_counter() - stretch_start
        if index == len(ops) - 1 or (calibrated and elapsed >= CALIBRATION_INTERVAL_S):
            record["wall_s"] += elapsed
            if calibrated:
                record["loop_s"].append(calibrate.loop_s())
                factor = calibrate.REFERENCE_S / statistics.fmean(record["loop_s"][-2:])
                norm["wall_s"] += elapsed * factor
                for kind, op_s, sim in stretch:
                    norm["kind_s"][kind] += op_s * factor
                    norm["sim_s"] += op_s * factor if sim else 0.0
            stretch = []
            stretch_start = time.perf_counter()
    if calibrated:
        record["norm"] = {**norm, "kind_s": dict(norm["kind_s"])}
    return record


def measure(cli_main, ops, refs, seconds, trace_on, run_dir) -> dict:
    import tracing

    out = {"warmup": run_pass(cli_main, ops, refs), "passes": [], "traced": []}
    tracer = tracing.Tracer() if trace_on else None
    spans = []
    start = time.perf_counter()
    while not out["passes"] or time.perf_counter() - start < seconds:
        out["passes"].append(run_pass(cli_main, ops, refs, calibrated=True))
        if tracer is None:
            continue
        tracer.reset()
        tracer.install()
        try:
            record = run_pass(cli_main, ops, refs, tracer, calibrated=True)
        finally:
            tracer.uninstall()
        record["layers"] = tracing.layer_metrics(tracer.spans, tracer.aggregates, record["wall_s"])
        out["traced"].append(record)
        spans.append([span.as_dict() for span in tracer.spans])
    if tracer is not None:
        memory_ops = [op for op in ops if op["kind"] in MEMORY_KINDS]
        with tracing.MemoryProbe() as probe:
            out["memory_pass"] = run_pass(cli_main, memory_ops, refs)
        out["memory"] = probe.metrics()
        (run_dir / "spans.json").write_text(json.dumps(spans))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit once qmarkov.cli is imported")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qmarkov.cli

    if Path(qmarkov.cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported qmarkov from {qmarkov.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import checks

    run_dir = args.run_dir.resolve()
    os.chdir(run_dir)
    ops = json.loads((run_dir / "ops.json").read_text())["ops"]
    refs = {op["id"]: checks.references(op, run_dir) for op in ops}
    out = measure(qmarkov.cli.main, ops, refs, args.seconds, args.trace == 1, run_dir)
    (run_dir / "worker.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
