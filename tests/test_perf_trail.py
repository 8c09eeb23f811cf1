"""The perf trail: each BENCH_*.json at the repo root records one run of bench/run.py.

A trail file holds the last stdout line of `bench/run.py --workload all`
(`correct`, `attempted`, `failed` and `metrics`), with what a reader
needs to redo the run: the PR, the parent commit, the seed, the
seconds per workload, nproc, and the Python and numpy versions.  Each
file must come from a correct run that lost no op, and name only
`<workload>.<metric>` keys whose workload and metric BENCHMARK.json
declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRAIL = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in DECLARED["workloads"]}
METRICS = {metric["name"] for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def _faults(record: dict) -> list:
    """What keeps one trail record from being a correct run over the declared metrics; empty if nothing does."""
    faults = []
    if record.get("correct") is not True:
        faults.append(f"correct is {record.get('correct')!r}")
    if record.get("failed") != 0:
        faults.append(f"failed is {record.get('failed')!r}")
    if not record.get("metrics"):
        faults.append("no metrics")
    for key in record.get("metrics") or ():
        workload, _, metric = key.partition(".")
        if workload not in WORKLOADS or metric not in METRICS:
            faults.append(f"undeclared metric {key!r}")
    return faults


def test_the_trail_has_a_file():
    assert TRAIL


@pytest.mark.parametrize("path", TRAIL, ids=lambda path: path.name)
def test_a_trail_file_is_a_correct_run_over_declared_metrics(path):
    assert _faults(json.loads(path.read_text())) == []


def test_a_lost_op_or_an_undeclared_metric_is_a_fault():
    metrics = {"stream-small.wall_s": {"value": 0.03, "unit": "s"}, "analytic.wigner.small_d.calls": {"value": 9, "unit": "count"}}
    good = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    assert _faults(good) == []
    assert _faults({**good, "correct": False, "failed": 1}) == ["correct is False", "failed is 1"]
    assert _faults({**good, "metrics": {}}) == ["no metrics"]
    for key in ("stream-small.wall", "stream-tiny.wall_s", "wall_s"):
        assert _faults({**good, "metrics": {**metrics, key: {"value": 1.0, "unit": "s"}}}) == [f"undeclared metric {key!r}"]
