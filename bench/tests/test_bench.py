"""Tests of the benchmark itself (not of qmarkov); run with `python3 -m pytest -q bench/tests`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import qmarkov.cli  # noqa: E402
from qmarkov import HalfInt, QubitChainSpec, SpinChainSpec, stationary  # noqa: E402
from qmarkov import qubit_transition_matrix, spin_transition_matrix  # noqa: E402


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


STREAM_KINDS = ("simulate.spin", "simulate.qubit", "simulate.matrix-file")
TABLE = {
    "stream-small": ["steps_per_s", "cmd.coin-toss_s", *(f"cmd.{k}_s" for k in STREAM_KINDS)],
    "stream-large": ["steps_per_s", "max_abs_err", "cmd.reload_s", "cmd.spin-matrix_s",
                     *(f"cmd.{k}_s" for k in STREAM_KINDS)],
    "analytic": ["max_abs_err", "cmd.spin-matrix_s", "cmd.qubit-matrix_s", "cmd.stationary_s", "cmd.verify_s"],
}


def test_smoke_run_of_every_workload_has_no_failed_op():
    done = _bench("--workload", "all", "--seed", "11", "--seconds", "0", "--scale", "0.01")
    assert done.returncode == 0, done.stderr
    line = _last_json(done.stdout)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    table = {}
    for row in done.stdout.splitlines()[:-1]:
        if not row.startswith("#"):
            workload, name, value, unit = row.split()
            table[workload, name] = (float(value), unit)
    for workload, reported in TABLE.items():
        assert table[workload, "ops_failed"] == (0.0, "ratio")
        for name in [*metrics.END_TO_END, *reported]:
            assert table[workload, name][1] == metrics.PER_LAYER.get(name, metrics.END_TO_END.get(name))[0]
        for name in metrics.END_TO_END:
            assert line["metrics"][f"{workload}.{name}"]["value"] > 0


def test_traced_run_prints_every_layer_metric_and_no_negative_self_time():
    done = _bench("--workload", "stream-large", "--seed", "3", "--seconds", "0", "--scale", "0.01",
                  "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = _last_json(done.stdout)
    assert line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.PER_LAYER)
    spans = json.loads((BENCH / "runs" / "stream-large-seed3-trace1" / "spans.json").read_text())
    assert spans and all(span["self_ns"] >= 0 for run in spans for span in run)


def test_tracer_nests_library_calls_and_restores_them():
    original = qmarkov.cli.spin_transition_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = {"id": 0, "kind": "spin-matrix"}
        with tracer.op(op):
            qmarkov.cli.spin_transition_matrix(SpinChainSpec(s=HalfInt(30), beta=0.7))
    finally:
        tracer.uninstall()
    assert qmarkov.cli.spin_transition_matrix is original
    names = [span.name for span in tracer.spans]
    assert names == ["op", "spin_chain.transition_matrix", "wigner.big_D", "wigner.small_d"]
    parents = [span.parent for span in tracer.spans]
    assert parents == [None, 0, 1, 2]
    assert all(span.self_ns >= 0 for span in tracer.spans)
    layers = tracing.layer_metrics(tracer.spans, tracer.aggregates, 1.0)
    assert layers["wigner.small_d.exact_s"] > 0 and layers["wigner.small_d.float_s"] == 0
    assert layers["wigner.orthogonality_defect"] < 1e-10


def test_corrupted_matrix_file_counts_as_a_failed_op(tmp_path, monkeypatch):
    rows = [[1.0 / 3] * 3 for _ in range(3)]
    rows[0][0] += 1e-6  # row 0 sums to 1 + 1e-6
    workloads.write_matrix_file(tmp_path / "bad.json", ["a", "b", "c"], rows)
    op = {"id": 0, "kind": "simulate.matrix-file",
          "argv": ["simulate", "--kind", "matrix-file", "--file", "bad.json", "--steps", "100", "--seed", "1"],
          "expect": {"file": "bad.json", "steps": 100, "seed": 1}}
    monkeypatch.chdir(tmp_path)
    refs = {0: checks.references(op, tmp_path)}
    record = worker.run_pass(qmarkov.cli.main, [op, op], refs)
    assert record["attempted"] == 2 and record["failed"] == 2
    assert "exit code 2" in record["errors"][0]["errors"][0]


def test_references_agree_with_the_library():
    for twice_s, beta in ((1, 0.4), (2, 1.3), (7, 2.2), (26, 0.9), (41, 1.7), (50, 2.6)):
        ours = reference.spin_matrix(twice_s, beta)
        theirs = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice_s), beta=beta))
        assert np.abs(ours - theirs.rows).max() < 1e-11
        assert reference.descending_labels(twice_s) == [str(x) for x in theirs.labels]
    for n, beta in ((1, 0.5), (8, 1.1), (33, 2.0), (64, 0.35)):
        ours = reference.register_matrix(n, beta)
        theirs = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta))
        assert np.abs(ours - theirs.rows).max() < 1e-12
        pi = stationary(theirs).distribution.probs
        assert np.abs(pi - reference.register_stationary(n)).max() < 1e-7
    assert reference.tv_bound(100, 9) > reference.tv_bound(10_000, 9) > 0


def test_generator_is_deterministic_in_its_seed(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    for path in (a, b, c):
        path.mkdir()
    first = workloads.generate("stream-small", 7, a)
    assert first == workloads.generate("stream-small", 7, b)
    assert (a / "m9.json").read_bytes() == (b / "m9.json").read_bytes()
    assert first != workloads.generate("stream-small", 8, c)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = _bench("--workload", "stream-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
