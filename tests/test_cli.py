import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qmarkov
from qmarkov import (
    Distribution,
    HalfInt,
    QubitChainSpec,
    RngState,
    SpinChainSpec,
    coin_toss_stream,
    matrix_from_json,
    simulate_chain,
    simulate_measurements,
    simulate_register,
    stationary,
    trajectory_from_text,
)
from qmarkov.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_spin_matrix_coin(capsys):
    code, payload = run_json(capsys, "spin-matrix", "--s", "1/2", "--beta-pi", "0.5")
    assert code == 0
    assert payload["kind"] == "spin"
    assert payload["labels"] == ["1/2", "-1/2"]
    assert payload["params"] == {"s": "1/2", "beta": math.pi / 2.0}
    rows = np.array(payload["rows"])
    assert np.abs(rows - 0.5).max() < 1e-12


def test_beta_pi_matches_explicit_radians(capsys):
    _, a = run(capsys, "spin-matrix", "--s", "1", "--beta-pi", "0.5")
    _, b = run(capsys, "spin-matrix", "--s", "1", "--beta", repr(0.5 * math.pi))
    assert a == b


def test_beta_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spin-matrix", "--s", "1/2", "--beta", "1.0", "--beta-pi", "0.5"])
    assert info.value.code == 2


def test_qubit_matrix_formats(capsys, tmp_path):
    code, payload = run_json(capsys, "qubit-matrix", "--n", "2", "--beta", "1.0")
    assert code == 0
    assert payload["kind"] == "qubit"
    assert payload["labels"] == ["1", "0", "-1"]
    code, out = run(capsys, "qubit-matrix", "--n", "2", "--beta", "1.0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "1,0,-1"
    code, out = run(capsys, "qubit-matrix", "--n", "2", "--beta", "1.0", "--format", "table")
    assert code == 0
    assert len(out.splitlines()) == 4
    target = tmp_path / "m.json"
    code, out = run(capsys, "qubit-matrix", "--n", "2", "--beta", "1.0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "qubit"


def test_single_qubit_rows_equal_spin_half_rows(capsys):
    _, qubit = run_json(capsys, "qubit-matrix", "--n", "1", "--beta", "0.9")
    _, spin = run_json(capsys, "spin-matrix", "--s", "1/2", "--beta", "0.9")
    assert qubit["rows"] == spin["rows"]
    assert qubit["labels"] == spin["labels"]


def test_simulate_spin_summary(capsys):
    code, payload = run_json(
        capsys, "simulate", "--kind", "spin", "--s", "1", "--beta", "1.2", "--steps", "2000", "--seed", "7"
    )
    assert code == 0
    assert payload["config"]["kind"] == "spin"
    assert payload["config"]["seed"] == 7
    assert payload["rng"] == "pcg64"
    assert payload["labels"] == ["1", "0", "-1"]
    assert sum(payload["visits"]) == 2000
    assert payload["max_row_tv"] < 0.1


def test_simulate_writes_trajectory_file(capsys, tmp_path):
    target = tmp_path / "t.txt"
    code, payload = run_json(
        capsys,
        "simulate", "--kind", "qubit", "--n", "3", "--beta", "1.0",
        "--steps", "50", "--seed", "5", "--out", str(target),
    )
    assert code == 0
    trajectory, header = trajectory_from_text(target.read_text())
    assert trajectory.steps == 50
    assert trajectory.seed == 5
    assert header["config"]["kind"] == "qubit"
    assert header["config"]["initial"] == "3/2"
    assert payload["visits"] and sum(payload["visits"]) == 50


def test_simulate_spin_initial_label(capsys):
    code, payload = run_json(
        capsys,
        "simulate", "--kind", "spin", "--s", "1", "--beta", "0.4",
        "--steps", "10", "--seed", "1", "--initial", "-1",
    )
    assert code == 0
    assert payload["config"]["initial"] == "-1"
    with pytest.raises(SystemExit):
        main(["simulate", "--kind", "spin", "--s", "1", "--beta", "0.4", "--steps"])
    capsys.readouterr()  # argparse's usage message
    # half-integer outcome for an integer spin
    argv = ["simulate", "--kind", "spin", "--s", "1", "--beta", "0.4", "--steps", "5", "--initial", "1/2"]
    assert main(argv) == 2
    assert_one_error_line(capsys)


def test_simulate_matrix_file_round_trip(capsys, tmp_path):
    target = tmp_path / "m.json"
    run(capsys, "qubit-matrix", "--n", "2", "--beta", "1.0", "--out", str(target))
    code, payload = run_json(
        capsys,
        "simulate", "--kind", "matrix-file", "--file", str(target),
        "--steps", "3000", "--seed", "2",
    )
    assert code == 0
    assert payload["config"]["initial"] == "uniform"
    assert payload["labels"] == ["1", "0", "-1"]
    assert payload["max_row_tv"] < 0.1
    code, payload = run_json(
        capsys,
        "simulate", "--kind", "matrix-file", "--file", str(target),
        "--steps", "10", "--seed", "2", "--initial", "0",
    )
    assert code == 0
    assert payload["config"]["initial"] == "0"
    argv = ["simulate", "--kind", "matrix-file", "--file", str(target), "--steps", "10", "--initial", "bogus"]
    assert main(argv) == 2
    assert_one_error_line(capsys)


def test_simulate_out_is_utf8_under_the_c_locale(tmp_path):
    # under the C locale, with coercion and UTF-8 mode off, Python's default file encoding is ASCII
    matrix = tmp_path / "m.json"
    rows = [[0.3, 0.7], [0.6, 0.4]]
    matrix.write_text(json.dumps({"kind": "generic", "labels": ["α", "b"], "rows": rows, "version": 1}), "utf-8")
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    src = str(Path(qmarkov.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    c_locale = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    argv = ["-m", "qmarkov.cli", "simulate", "--kind", "matrix-file", "--file", str(matrix), "--steps", "300"]
    runs = {}
    for name, flags, environ in (("c", ["-X", "utf8=0"], c_locale), ("default", [], env)):
        out = tmp_path / f"{name}.txt"
        argv_out = [sys.executable, *flags, *argv, "--seed", "4", "--out", str(out)]
        done = subprocess.run(argv_out, env=environ, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        trajectory, _ = trajectory_from_text(out.read_bytes().decode("utf-8"))
        runs[name] = (done.stdout, trajectory.labels, trajectory.states.tolist())
    assert runs["c"] == runs["default"]
    assert runs["c"][1] == ("α", "b")


def never(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before an input error was reported")

    return fail


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    return err


def test_simulate_usage_errors(capsys, tmp_path):
    for argv in (
        ("simulate", "--kind", "spin", "--beta", "1.0", "--steps", "5"),  # missing --s
        ("simulate", "--kind", "spin", "--s", "1/2", "--steps", "5"),  # missing beta
        ("simulate", "--kind", "matrix-file", "--steps", "5"),  # missing --file
        ("simulate", "--kind", "qubit", "--beta", "1", "--steps", "3"),  # missing --n
        ("simulate", "--kind", "matrix-file", "--file", "/nonexistent.json", "--steps", "5"),
        ("simulate", "--kind", "spin", "--s", "1/2", "--beta", "1.0", "--steps", str(10**8 + 1)),  # step cap
    ):
        assert main(list(argv)) == 2, argv
        assert_one_error_line(capsys)
    unwritable = str(tmp_path / "missing" / "out")
    for argv in (
        ("spin-matrix", "--s", "1", "--beta", "1", "--out", unwritable),
        ("simulate", "--kind", "spin", "--s", "1", "--beta", "1", "--steps", "5", "--out", unwritable),
    ):
        assert main(list(argv)) == 2
        assert unwritable in assert_one_error_line(capsys)


def test_qubit_register_above_the_cap_fails_before_simulating(capsys, monkeypatch):
    import qmarkov.cli as cli

    monkeypatch.setattr(cli, "_realize", never("_realize"))
    assert main(["simulate", "--kind", "qubit", "--n", "65", "--beta", "1.0", "--steps", str(10**8)]) == 2
    assert_one_error_line(capsys)


def test_qubit_register_past_the_closed_form_fails_before_simulating(capsys, monkeypatch):
    # the draws are under the cap, but the matrix is built first, so a
    # register past N_MAX_FORMULA never reaches the walk
    import qmarkov.cli as cli

    monkeypatch.setattr(cli, "_realize", never("_realize"))
    assert main(["simulate", "--kind", "qubit", "--n", "100000", "--beta", "1.0", "--steps", "1000"]) == 2
    assert "closed form limited to N <= 64" in assert_one_error_line(capsys)


def test_qubit_draws_at_the_cap_reach_the_simulator(capsys, monkeypatch):
    import qmarkov.cli as cli

    calls = []
    realize = cli._realize

    def record(P, start, steps, rng):
        # a register of N qubits has N + 1 labels
        calls.append((P.dim - 1, steps))
        return realize(P, start, 0, rng)

    monkeypatch.setattr(cli, "_realize", record)
    code, _ = run(capsys, "simulate", "--kind", "qubit", "--n", "64", "--beta", "1.0", "--steps", str(10**8))
    assert code == 0
    assert calls == [(64, 10**8)]


def test_unwritable_out_fails_before_the_first_draw(capsys, monkeypatch, tmp_path):
    import qmarkov.cli as cli

    monkeypatch.setattr(cli, "_realize", never("_realize"))
    monkeypatch.setattr(cli, "sample", never("sample"))
    unwritable = str(tmp_path / "missing" / "t.txt")
    argv = ["simulate", "--kind", "spin", "--s", "1", "--beta", "1", "--steps", str(10**8), "--out", unwritable]
    assert main(argv) == 2
    assert unwritable in assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv, work",
    [
        (("coin-toss", "--count", str(10**8)), "coin_toss_stream"),
        (("verify", "--n-max", "12"), "q_formula"),
        (("stationary", "--kind", "spin", "--s", "1", "--beta", "0.9"), "stationary"),
        (("spin-matrix", "--s", "1", "--beta", "1"), "matrix_to_json"),
        (("qubit-matrix", "--n", "3", "--beta", "1", "--format", "csv"), "matrix_to_csv"),
    ],
    ids=["coin-toss", "verify", "stationary", "spin-matrix", "qubit-matrix"],
)
def test_unwritable_out_fails_before_the_work(capsys, monkeypatch, tmp_path, argv, work):
    import qmarkov.cli as cli

    monkeypatch.setattr(cli, work, never(work))
    unwritable = str(tmp_path / "missing" / "out.json")
    assert main([*argv, "--out", unwritable]) == 2
    assert unwritable in assert_one_error_line(capsys)


# matrix files past the parser's limits (not UTF-8, nesting, integer
# digits, double range) or with a label that a trajectory file cannot
# hold on one line; an argv entry "@name" stands for the path of a file
# holding BAD_MATRIX_FILES[name]
_TWO_STATES = json.dumps({"kind": "generic", "labels": ["a", "b"], "rows": [[0.5, 0.5], [0.5, 0.5]],
                          "params": {}, "version": 1})
BAD_MATRIX_FILES = {
    "non-utf-8": _TWO_STATES.encode().replace(b"generic", b"gen\xffric"),
    "nested": b"[" * 10**5 + b"]" * 10**5,
    "digits": _TWO_STATES.replace("0.5,", "1" + "0" * 5000 + ",", 1).encode(),
    "overflow": _TWO_STATES.replace("0.5,", "1" + "0" * 400 + ",", 1).encode(),
    "line-break": _TWO_STATES.replace('"a"', '"a\\r\\nb"', 1).encode(),
}
LONG_DIGITS = "1" * 5000


def _short(arg: str) -> str:
    return arg if len(arg) <= 40 else f"<{len(arg)} digits>"


def _file_arg(tmp_path, arg: str) -> str:
    """arg, or for "@name" the path of a new file holding BAD_MATRIX_FILES[name]."""
    if not arg.startswith("@"):
        return arg
    path = tmp_path / f"{arg[1:]}.json"
    path.write_bytes(BAD_MATRIX_FILES[arg[1:]])
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("coin-toss", "--count", "-1"),
        ("coin-toss", "--count", str(10**8 + 1)),
        ("coin-toss", "--count", "5", "--seed", "-1"),
        ("coin-toss", "--count", "5", "--seed", str(2**64)),
        ("verify", "--n-max", "0"),
        ("verify", "--n-max", "2", "--beta", "nan"),
        ("stationary", "--kind", "spin", "--s", "1", "--beta", "0.9", "--tol", "-1"),
        ("stationary", "--kind", "spin", "--s", "1", "--beta", "0.9", "--max-iters", "0"),
        ("stationary", "--kind", "spin", "--s", "1/3", "--beta", "0.9"),
        ("spin-matrix", "--s", "1/3", "--beta", "1"),
        ("qubit-matrix", "--n", "65", "--beta", "1"),
        ("simulate", "--kind", "qubit", "--n", "64", "--beta", "1", "--steps", str(10**8 + 1)),
        ("simulate", "--kind", "qubit", "--n", "2", "--beta", "1", "--steps", "5", "--initial", "7"),
        ("simulate", "--kind", "qubit", "--n", "2", "--beta", "1", "--steps", "5", "--initial", "1/2"),
        ("simulate", "--kind", "spin", "--s", "1", "--beta", "1", "--steps", "5", "--initial", "1/2"),
        ("simulate", "--kind", "spin", "--s", "1", "--beta", "1", "--steps", "5", "--initial", LONG_DIGITS),
        ("simulate", "--kind", "spin", "--s", LONG_DIGITS, "--beta", "1", "--steps", "5"),
        ("simulate", "--kind", "spin", "--s", "\u0663/2", "--beta", "1", "--steps", "5"),
        ("spin-matrix", "--s", LONG_DIGITS, "--beta", "1"),
        *(("simulate", "--kind", "matrix-file", "--file", f"@{name}", "--steps", "3") for name in BAD_MATRIX_FILES),
        ("stationary", "--kind", "matrix-file", "--file", "@nested"),
    ],
    ids=lambda argv: " ".join(map(_short, argv)),
)
def test_rejected_input_leaves_the_out_file_alone(capsys, monkeypatch, tmp_path, argv):
    import qmarkov.cli as cli

    work_names = ("coin_toss_stream", "sample", "_realize", "q_formula", "stationary")
    for work in work_names:
        monkeypatch.setattr(cli, work, never(work))
    argv = [_file_arg(tmp_path, arg) for arg in argv]
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    assert main([*argv, "--out", str(out)]) == 2
    assert_one_error_line(capsys)
    assert out.read_text() == "kept\n"


def test_stationary_iteration_cap(capsys, monkeypatch, tmp_path):
    import qmarkov.cli as cli

    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"kind": "generic", "labels": ["a", "b"], "rows": [[0.0, 1.0], [1.0, 0.0]],
                                 "params": {}, "version": 1}))
    monkeypatch.setattr(cli, "stationary", never("stationary"))
    for max_iters in (cli.ITERS_MAX + 1, 10**12):
        argv = ["stationary", "--kind", "matrix-file", "--file", str(cycle), "--max-iters", str(max_iters)]
        assert main(argv) == 2
        assert f"max_iters must be at most {cli.ITERS_MAX}" in assert_one_error_line(capsys)
    seen = []

    def recording(matrix, tol, max_iters):
        seen.append(max_iters)
        return stationary(matrix, tol=tol)

    monkeypatch.setattr(cli, "stationary", recording)
    code, payload = run_json(capsys, "stationary", "--kind", "spin", "--s", "1", "--beta", "0.9",
                             "--max-iters", str(cli.ITERS_MAX))
    assert code == 0 and payload["converged"] is True
    assert seen == [cli.ITERS_MAX]


def test_repeated_matrix_labels_fail_before_the_first_draw(capsys, monkeypatch, tmp_path):
    import qmarkov.cli as cli

    monkeypatch.setattr(cli, "_realize", never("_realize"))
    monkeypatch.setattr(cli, "sample", never("sample"))
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"kind": "generic", "labels": ["a", "a"], "rows": [[0.5, 0.5], [0.5, 0.5]],
                               "params": {}, "version": 1}))
    out = tmp_path / "dup.txt"
    argv = ["simulate", "--kind", "matrix-file", "--file", str(dup), "--steps", "1000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "distinct" in assert_one_error_line(capsys)
    assert not out.exists()


def test_ragged_matrix_file_is_a_usage_error(capsys, tmp_path):
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"kind": "generic", "labels": ["a", "b"], "rows": [[1.0], [0.5, 0.5]],
                                  "params": {}, "version": 1}))
    assert main(["stationary", "--kind", "matrix-file", "--file", str(ragged)]) == 2
    assert_one_error_line(capsys)


def test_malformed_matrix_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "generic", "version": 1}\n')
    assert main(["simulate", "--kind", "matrix-file", "--file", str(bad), "--steps", "5"]) == 2
    assert_one_error_line(capsys)


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.delenv("QMARKOV_SEED", raising=False)
    _, default = run(capsys, "coin-toss", "--count", "50")
    _, zero = run(capsys, "coin-toss", "--count", "50", "--seed", "0")
    assert default == zero  # the default seed is 0
    for env in ("99", "zzz"):
        monkeypatch.setenv("QMARKOV_SEED", env)
        code, out = run(capsys, "coin-toss", "--count", "50")
        assert code == 0 and out == default  # the seed comes from --seed alone


def _three_labels(tmp_path):
    target = tmp_path / "m.json"
    target.write_text(json.dumps({"kind": "generic", "labels": ["1", "0", "-1"], "rows": [[1 / 3] * 3] * 3,
                                  "params": {}, "version": 1}))
    return ("--kind", "matrix-file", "--file", str(target))


@pytest.mark.parametrize(
    "kind, label, echoed, foreign",
    [
        ("spin", "+1", "1", "3/2"),
        ("qubit", "1", "1", "1/2"),
        ("matrix-file", "-1", "-1", "+1"),  # file labels match only as exact strings
    ],
)
def test_initial_label_for_every_kind(capsys, tmp_path, kind, label, echoed, foreign):
    source = {
        "spin": ("--kind", "spin", "--s", "1", "--beta", "0.4"),
        "qubit": ("--kind", "qubit", "--n", "2", "--beta", "0.4"),
        "matrix-file": _three_labels(tmp_path),
    }[kind]
    code, payload = run_json(capsys, "simulate", *source, "--steps", "10", "--seed", "1", "--initial", label)
    assert code == 0
    assert payload["config"]["initial"] == echoed
    assert main(["simulate", *source, "--steps", "10", "--initial", foreign]) == 2
    assert foreign in assert_one_error_line(capsys)


def test_negative_fraction_initial_takes_the_equals_form(capsys, tmp_path):
    # argparse reads "--initial -1/2" as a missing value, as -1/2 does not
    # look like a negative number to it; "--initial=-1/2" names the label
    for source in (("--kind", "spin", "--s", "1/2", "--beta", "1"), ("--kind", "qubit", "--n", "1", "--beta", "1")):
        out = tmp_path / "t.txt"
        code, payload = run_json(capsys, "simulate", *source, "--steps", "5", "--initial=-1/2", "--out", str(out))
        assert code == 0
        assert payload["config"]["initial"] == "-1/2"
        trajectory, header = trajectory_from_text(out.read_text())
        assert trajectory.states[0] == 1 and trajectory.labels[1] == "-1/2"
        assert header["config"]["initial"] == "-1/2"


def _nine_states(tmp_path):
    """A matrix file of 9 states with distinct rows, and its path."""
    rows = [[1 + (3 * i + 5 * j) % 11 for j in range(9)] for i in range(9)]
    target = tmp_path / "nine.json"
    target.write_text(json.dumps({"kind": "generic", "labels": [f"s{i}" for i in range(9)],
                                  "rows": [[w / sum(row) for w in row] for row in rows], "params": {}, "version": 1}))
    return target


# each chain's simulate flags, and the label that --initial names
WRAPPER_CHAINS = {
    "spin-1/2": (("--kind", "spin", "--s", "1/2", "--beta", "1.1"), "-1/2"),
    "spin-25": (("--kind", "spin", "--s", "25", "--beta", "2.1"), "3"),
    "qubit-1": (("--kind", "qubit", "--n", "1", "--beta", "1.1"), "-1/2"),
    "qubit-8": (("--kind", "qubit", "--n", "8", "--beta", "1.1"), "-2"),
    "qubit-64": (("--kind", "qubit", "--n", "64", "--beta", "2.1"), "-10"),
    "file-9": (("--kind", "matrix-file"), "s4"),
}


# 1000 steps walk by bisect and 40000, over _MIN_SEGMENTS * _SEGMENT =
# 32768, in lockstep batches (two-state chains scan either way)
@pytest.mark.parametrize("steps", [1000, 40_000])
@pytest.mark.parametrize("named", [False, True], ids=["default", "initial"])
@pytest.mark.parametrize("chain", list(WRAPPER_CHAINS))
def test_library_simulators_walk_as_simulate_does(capsys, tmp_path, chain, named, steps):
    # simulate walks its matrix directly, so the library's simulators are
    # pinned to its --out file: the same seed and start give the same states
    source, label = WRAPPER_CHAINS[chain]
    kind = source[1]
    if kind == "matrix-file":
        source = (*source, "--file", str(_nine_states(tmp_path)))
    out = tmp_path / "t.txt"
    initial = (f"--initial={label}",) if named else ()
    assert main(["simulate", *source, "--steps", str(steps), "--seed", "11", *initial, "--out", str(out)]) == 0
    capsys.readouterr()
    walked, _ = trajectory_from_text(out.read_text())
    rng = RngState(11)
    if kind == "qubit":
        spec = QubitChainSpec(n_qubits=int(source[3]), beta=float(source[5]))
        trajectory = simulate_register(spec, HalfInt.parse(label) if named else spec.labels[0], steps, rng)
    else:
        if kind == "spin":
            spec = SpinChainSpec(s=HalfInt.parse(source[3]), beta=float(source[5]))
            labels = spec.labels
        else:
            matrix = matrix_from_json(Path(source[3]).read_text())
            labels = matrix.labels
        dim = len(labels)
        probs = np.full(dim, 1 / dim)
        if named:
            probs = np.zeros(dim)
            probs[[str(x) for x in labels].index(label)] = 1.0
        law = Distribution(labels, probs)
        if kind == "spin":
            trajectory, _ = simulate_measurements(spec, law, steps, rng)
        else:
            trajectory = simulate_chain(matrix, law, steps, rng)
    assert [str(x) for x in trajectory.labels] == list(walked.labels)
    assert trajectory.seed == walked.seed
    assert np.array_equal(trajectory.states, walked.states)


def test_coin_toss_output(capsys):
    code, payload = run_json(capsys, "coin-toss", "--count", "1000", "--seed", "42")
    assert code == 0
    assert len(payload["bits"]) == 1000
    assert set(payload["bits"]) <= {"0", "1"}
    assert payload["ones"] == payload["bits"].count("1")
    assert abs(payload["mean"] - 0.5) < 0.1
    assert payload["chi_square"]["dof"] == 1
    assert payload["chi_square"]["pass"] is True
    bits = coin_toss_stream(1000, RngState(42))
    assert payload["bits"] == "".join("1" if b else "0" for b in bits)
    code, payload = run_json(capsys, "coin-toss", "--count", "0", "--seed", "1")
    assert code == 0
    assert payload["bits"] == ""
    assert payload["mean"] is None
    assert payload["chi_square"] is None
    # both expected counts fall below 5 and pool into one cell: no test
    code, payload = run_json(capsys, "coin-toss", "--count", "5", "--seed", "1")
    assert code == 0
    assert payload["chi_square"] is None
    # seed 4 draws three zeros: the centred bits are all zero, so no autocorrelation
    code, payload = run_json(capsys, "coin-toss", "--count", "3", "--seed", "4")
    assert code == 0
    assert payload["bits"] == "000"
    assert payload["lag1_autocorrelation"] is None


def _exact_lag1(bits):
    """The lag-1 autocorrelation of the bits in exact rationals, as the sums of centred bits define it."""
    n = len(bits)
    mean = Fraction(sum(bits), n)
    x = [b - mean for b in bits]
    return sum(a * b for a, b in zip(x, x[1:])) / sum(a * a for a in x)


def test_coin_toss_lag1_is_the_correctly_rounded_exact_value(capsys):
    for count, seed in ((2, 1), (3, 2), (7, 3), (1000, 4), (20001, 5), (20001, 20260)):
        code, payload = run_json(capsys, "coin-toss", "--count", str(count), "--seed", str(seed))
        assert code == 0
        bits = [int(b) for b in payload["bits"]]
        expected = None if len(set(bits)) == 1 else float(_exact_lag1(bits))
        assert payload["lag1_autocorrelation"] == expected, (count, seed)


def test_coin_toss_output_does_not_depend_on_the_blas_threads():
    argv = ("-m", "qmarkov.cli", "coin-toss", "--count", "250000", "--seed", "1")
    one = fresh_interpreter(*argv, OPENBLAS_NUM_THREADS="1")
    two = fresh_interpreter(*argv, OPENBLAS_NUM_THREADS="2")
    assert one[0] == 0
    assert one == two


def test_verify_passes_and_reports_counts(capsys):
    code, payload = run_json(capsys, "verify", "--n-max", "3", "--beta", "0.7")
    assert code == 0
    assert payload["pass"] is True
    assert payload["failures"] == []
    assert payload["checks"] > 0


def test_verify_catches_an_injected_error(capsys, monkeypatch):
    import qmarkov.cli as cli

    oracle = cli.brute_force_q

    def skewed(spec):
        value = oracle(spec)
        if spec.n_qubits == 2:
            value[0, 0] += 1e-6  # j = j' = 1
        return value

    monkeypatch.setattr(cli, "brute_force_q", skewed)
    code, payload = run_json(capsys, "verify", "--n-max", "2", "--beta", "0.7")
    assert code == 4
    assert payload["pass"] is False
    checks = {f["check"] for f in payload["failures"]}
    assert "formula_vs_oracle" in checks
    named = [f for f in payload["failures"] if f["check"] == "formula_vs_oracle"]
    assert named[0]["n"] == 2
    assert named[0]["j"] == "1"
    assert named[0]["j_prime"] == "1"


def test_verify_reports_a_branch_seam_break(capsys, monkeypatch):
    from qmarkov import qubit_chain

    # a negative tolerance fails every diagonal, so each (N, beta) breaks at its first one
    monkeypatch.setattr(qubit_chain, "_BRANCH_SEAM_TOL", -1.0)
    code, payload = run_json(capsys, "verify", "--n-max", "2", "--beta", "0.7")
    assert code == 4
    assert payload["pass"] is False
    assert [(f["check"], f["n"], f["beta"]) for f in payload["failures"]] == [
        ("branch_seam", 1, 0.7),
        ("branch_seam", 2, 0.7),
    ]
    assert payload["failures"][0]["detail"].startswith("branch formulas disagree at j=j'=1/2 for N=1")
    assert payload["failures"][1]["detail"].startswith("branch formulas disagree at j=j'=1 for N=2")


def test_verify_reports_a_builder_row_sum_defect(capsys, monkeypatch):
    import qmarkov.cli as cli
    from qmarkov import StochasticMatrix

    builder = cli.qubit_transition_matrix

    def excess(spec):
        matrix = builder(spec)
        rows = matrix.rows.copy()
        rows[0, 0] += 2e-9
        return StochasticMatrix(matrix.labels, rows)

    monkeypatch.setattr(cli, "qubit_transition_matrix", excess)
    code = main(["verify", "--n-max", "2", "--beta", "0.7"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["pass"] is False
    assert [(f["check"], f["n"], f["beta"]) for f in payload["failures"]] == [
        ("row_sum", 1, 0.7),
        ("row_sum", 2, 0.7),
    ]
    assert all(f["detail"].startswith("probabilities in row 0 sum to 1.000000002") for f in payload["failures"])


def test_verify_reports_a_spin_identity_defect(capsys, monkeypatch):
    import qmarkov.cli as cli
    from qmarkov import StochasticMatrix

    builder = cli.spin_transition_matrix

    def shifted(spec):
        matrix = builder(spec)
        rows = matrix.rows.copy()
        rows[0] += [1e-9, -1e-9]  # row 0 still sums to 1
        return StochasticMatrix(matrix.labels, rows)

    monkeypatch.setattr(cli, "spin_transition_matrix", shifted)
    code, payload = run_json(capsys, "verify", "--n-max", "2", "--beta", "0.7")
    assert code == 4
    assert payload["pass"] is False
    assert [(f["check"], f["n"], f["beta"]) for f in payload["failures"]] == [("spin_identity", 1, 0.7)]
    assert abs(payload["failures"][0]["diff"] - 1e-9) < 1e-12


def test_verify_range_check(capsys):
    assert main(["verify", "--n-max", "30"]) == 2
    assert_one_error_line(capsys)


def test_stationary_spin_coin(capsys):
    code, payload = run_json(capsys, "stationary", "--kind", "spin", "--s", "1/2", "--beta-pi", "0.5")
    assert code == 0
    assert payload["converged"] is True
    assert payload["iterations"] == 1
    assert np.allclose(payload["probs"], [0.5, 0.5], atol=1e-10)


def test_stationary_two_cycle_exits_3(capsys, tmp_path):
    target = tmp_path / "cycle.json"
    target.write_text(
        json.dumps(
            {
                "kind": "generic",
                "labels": ["a", "b"],
                "rows": [[0.0, 1.0], [1.0, 0.0]],
                "params": {},
                "version": 1,
            }
        )
        + "\n"
    )
    code, payload = run_json(
        capsys, "stationary", "--kind", "matrix-file", "--file", str(target), "--max-iters", "200"
    )
    assert code == 3
    assert payload["converged"] is False
    assert payload["iterations"] == 200
    assert abs(sum(payload["last_iterate"]) - 1.0) < 1e-9


def test_stationary_on_a_near_stochastic_file_exits_3(capsys, tmp_path):
    # rows inside SUM_TOL whose converged iterate is not: a computed
    # result, reported as non-convergence with its payload, not as an input error
    near = tmp_path / "near.json"
    rows = [[0.3 + 4e-10, 0.7 + 4e-10], [0.6 + 4e-10, 0.4 + 4e-10]]
    near.write_text(json.dumps({"kind": "generic", "labels": ["a", "b"], "rows": rows, "params": {}, "version": 1}))
    out = tmp_path / "out.json"
    argv = ["stationary", "--kind", "matrix-file", "--file", str(near), "--tol", "1e-6", "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and captured.err == ""
    payload = json.loads(out.read_text())
    assert payload["converged"] is False
    assert payload["residual"] <= 1e-6
    assert len(payload["last_iterate"]) == 2


def test_stationary_stops_on_a_near_stochastic_file_at_the_default_tol(capsys, tmp_path):
    # the iterate's mass grows by the rows' 8e-10 excess each step, so the
    # residual stays near 4e-10, above the default tol of 1e-10; the
    # iterates scaled to sum 1 meet within it after a few steps
    near = tmp_path / "near.json"
    rows = [[0.3 + 4e-10, 0.7 + 4e-10], [0.6 + 4e-10, 0.4 + 4e-10]]
    near.write_text(json.dumps({"kind": "generic", "labels": ["a", "b"], "rows": rows, "params": {}, "version": 1}))
    code, payload = run_json(capsys, "stationary", "--kind", "matrix-file", "--file", str(near))
    assert code == 3
    assert payload["converged"] is False
    assert payload["iterations"] < 100


def test_reruns_are_byte_identical(capsys, tmp_path):
    cases = [
        ("spin-matrix", "--s", "3/2", "--beta", "1.1"),
        ("qubit-matrix", "--n", "5", "--beta", "2.2", "--format", "csv"),
        ("simulate", "--kind", "spin", "--s", "1", "--beta", "0.8", "--steps", "500", "--seed", "13"),
        ("simulate", "--kind", "qubit", "--n", "4", "--beta", "1.7", "--steps", "500", "--seed", "13"),
        ("verify", "--n-max", "2"),
        ("stationary", "--kind", "qubit", "--n", "3", "--beta", "1.0"),
        ("coin-toss", "--count", "2000", "--seed", "42"),
    ]
    for argv in cases:
        code_a, out_a = run(capsys, *argv)
        code_b, out_b = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a.encode() == out_b.encode()

    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    base = ["simulate", "--kind", "spin", "--s", "1/2", "--beta-pi", "0.5", "--steps", "4000", "--seed", "3"]
    run(capsys, *base, "--out", str(file_a))
    run(capsys, *base, "--out", str(file_b))
    assert file_a.read_bytes() == file_b.read_bytes()


def fresh_interpreter(*args, **environ):
    """(exit code, stdout) of python ARGS in a new process importing this qmarkov, with environ set."""
    env = dict(os.environ, **environ)
    src = str(Path(qmarkov.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def test_repeated_main_calls_share_no_parse_state(capsys):
    verify_two = ("verify", "--n-max", "2")
    spin = ("spin-matrix", "--s", "1/2", "--beta", "1.0")
    qubit = ("qubit-matrix", "--n", "2", "--beta", "1.0")
    outputs = {}
    for argv in (("verify", "--n-max", "2", "--beta", "0.3"), verify_two, spin, qubit):
        code, outputs[argv] = run(capsys, *argv)
        assert code == 0
    assert json.loads(outputs[verify_two])["betas"] == [0.3, 1.0, math.pi / 2.0, 2.2, 2.7]
    assert json.loads(outputs[spin])["kind"] == "spin"
    assert json.loads(outputs[qubit])["kind"] == "qubit"
    # a parse that exits 2 leaves nothing behind for the next call
    with pytest.raises(SystemExit) as info:
        main(["qubit-matrix", "--n", "2", "--beta", "1.0", "--beta-pi", "0.5"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, *qubit) == (0, outputs[qubit])
    for argv, out in outputs.items():
        assert fresh_interpreter("-m", "qmarkov.cli", *argv) == (0, out), argv


def test_the_parser_is_built_on_the_first_main_call_only():
    # counts every ArgumentParser made (the subcommands' parsers included)
    script = """
import argparse, contextlib, io
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import qmarkov.cli
counts = [len(made)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        qmarkov.cli.main(["qubit-matrix", "--n", "2", "--beta", "1.0"])
    counts.append(len(made))
print(counts)
"""
    code, out = fresh_interpreter("-c", script)
    assert code == 0
    at_import, first, second = json.loads(out)
    assert at_import == 0
    assert first == second > 0


def test_help_names_the_generator():
    import qmarkov.cli as cli

    assert "pcg64" in cli.build_parser().epilog


def test_readme_command_lines_match_the_parser(capsys):
    import qmarkov.cli as cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line, comments=True) for line in section.splitlines() if line.startswith("qmarkov ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # parse only: a stale flag exits 2 here
    blocks = section.split("```")
    table_argv = shlex.split(blocks[1].strip())
    assert table_argv == ["qmarkov", "spin-matrix", "--s", "1", "--beta-pi", "0.5", "--format", "table"]
    code, out = run(capsys, *table_argv[1:])
    assert code == 0
    assert out == blocks[3].lstrip("\n")
