"""Seeded workload generator.

A workload is a fixed list of ops run back to back by one client (a
closed loop, single-threaded).  Every op except `reload` is one CLI
invocation; `reload` reads a trajectory back through the library, since
the CLI has no command for that.  The workload seed determines every
per-op RNG seed, every angle and every generated matrix file; the
program only ever sees the resulting argv lists and files.

Angles stay away from 0 and pi (the coin's pi/2 is the one fixed angle).
Costs do not depend on the drawn angles, except the stationary ops,
whose angle range is kept narrow so their iteration count stays near 400.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = {
    "stream-small": "measurement streams at dims 2-9: per-step Python overhead and record allocation dominate",
    "stream-large": "the same step kernels at dims 51-65 plus trajectory and matrix files written and read back",
    "analytic": "matrix builders and solvers with no simulated steps: the Wigner cores and the register builder",
}

# transitions per simulating op at scale 1
STEPS = 250_000
SPIN_TWICE_MAX = 50
QUBIT_N_MAX = 64
VERIFY_N_MAX = 20
MATRIX_FILE_DIM = 9
FORMATS = ("json", "csv", "table")


def _beta(rng: random.Random) -> float:
    return rng.uniform(0.3, math.pi - 0.3)


def _slow_mixing_beta(rng: random.Random) -> float:
    # second eigenvalue cos(beta): about 400 power iterations to 1e-10
    return rng.uniform(0.33, 0.36)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def _spin_text(twice_s: int) -> str:
    return str(twice_s // 2) if twice_s % 2 == 0 else f"{twice_s}/2"


def _stochastic_rows(rng: random.Random, dim: int) -> list:
    rows = []
    for _ in range(dim):
        raw = [0.05 + rng.random() for _ in range(dim)]
        total = sum(raw)
        rows.append([x / total for x in raw])
    return rows


def write_matrix_file(path: Path, labels: list, rows: list) -> None:
    """A matrix file in the CLI's JSON matrix format."""
    payload = {"kind": "generic", "labels": labels, "rows": rows, "params": {}, "version": 1}
    path.write_text(json.dumps(payload) + "\n")


def _simulate_spin(rng, twice_s, steps, out=None):
    beta, seed = _beta(rng), _seed(rng)
    argv = ["simulate", "--kind", "spin", "--s", _spin_text(twice_s), "--beta", repr(beta),
            "--steps", str(steps), "--seed", str(seed)]
    if out is not None:
        argv += ["--out", out]
    return {"kind": "simulate.spin", "argv": argv,
            "expect": {"twice_s": twice_s, "beta": beta, "steps": steps, "seed": seed}}


def _simulate_qubit(rng, n, steps):
    beta, seed = _beta(rng), _seed(rng)
    argv = ["simulate", "--kind", "qubit", "--n", str(n), "--beta", repr(beta),
            "--steps", str(steps), "--seed", str(seed)]
    return {"kind": "simulate.qubit", "argv": argv,
            "expect": {"n": n, "beta": beta, "steps": steps, "seed": seed}}


def _simulate_file(rng, name, steps, spin=None):
    seed = _seed(rng)
    argv = ["simulate", "--kind", "matrix-file", "--file", name, "--steps", str(steps), "--seed", str(seed)]
    expect = {"file": name, "steps": steps, "seed": seed}
    if spin is not None:
        expect["spin"] = spin
    return {"kind": "simulate.matrix-file", "argv": argv, "expect": expect}


def _spin_matrix(rng, twice_s, fmt="json", out=None):
    beta = _beta(rng)
    argv = ["spin-matrix", "--s", _spin_text(twice_s), "--beta", repr(beta), "--format", fmt]
    if out is not None:
        argv += ["--out", out]
    return {"kind": "spin-matrix", "argv": argv,
            "expect": {"twice_s": twice_s, "beta": beta, "format": fmt, "out": out}}


def _stream_small(rng, steps, run_dir):
    rows = _stochastic_rows(rng, MATRIX_FILE_DIM)
    write_matrix_file(run_dir / "m9.json", [f"s{i}" for i in range(MATRIX_FILE_DIM)], rows)
    count, seed = steps, _seed(rng)
    return [
        {"kind": "coin-toss", "argv": ["coin-toss", "--count", str(count), "--seed", str(seed)],
         "expect": {"count": count, "seed": seed}},
        _simulate_spin(rng, 1, steps),
        _simulate_spin(rng, 2, steps),
        _simulate_qubit(rng, 8, steps),
        _simulate_file(rng, "m9.json", steps),
    ]


def _stream_large(rng, steps, run_dir):
    spin_run = _simulate_spin(rng, SPIN_TWICE_MAX, steps, out="traj.txt")
    reload = {"kind": "reload", "argv": ["traj.txt"], "expect": dict(spin_run["expect"], file="traj.txt")}
    matrix = _spin_matrix(rng, SPIN_TWICE_MAX, out="m51.json")
    spin = [SPIN_TWICE_MAX, matrix["expect"]["beta"]]
    return [
        spin_run,
        reload,
        _simulate_qubit(rng, QUBIT_N_MAX, steps),
        matrix,
        _simulate_file(rng, "m51.json", steps, spin=spin),
    ]


def _analytic(rng, steps, run_dir):
    ops = [_spin_matrix(rng, t, FORMATS[t % len(FORMATS)]) for t in range(1, SPIN_TWICE_MAX + 1)]
    for n in range(1, QUBIT_N_MAX + 1):
        beta = _beta(rng)
        ops.append({"kind": "qubit-matrix", "argv": ["qubit-matrix", "--n", str(n), "--beta", repr(beta)],
                    "expect": {"n": n, "beta": beta}})
    for source, size_flag, size in (("spin", "--s", SPIN_TWICE_MAX), ("qubit", "--n", QUBIT_N_MAX)):
        beta = _slow_mixing_beta(rng)
        size_text = _spin_text(size) if source == "spin" else str(size)
        ops.append({"kind": "stationary",
                    "argv": ["stationary", "--kind", source, size_flag, size_text, "--beta", repr(beta)],
                    "expect": {"source": source, "size": size, "beta": beta}})
    betas = [_beta(rng) for _ in range(3)]
    argv = ["verify", "--n-max", str(VERIFY_N_MAX)]
    for beta in betas:
        argv += ["--beta", repr(beta)]
    ops.append({"kind": "verify", "argv": argv, "expect": {"n_max": VERIFY_N_MAX, "betas": betas}})
    return ops


_BUILDERS = {"stream-small": _stream_small, "stream-large": _stream_large, "analytic": _analytic}


def generate(workload: str, seed: int, run_dir: Path, scale: float = 1.0) -> list:
    """The op list for (workload, seed); input files are written into run_dir.

    `scale` multiplies the step counts only (tests use small scales).
    """
    rng = random.Random(f"{workload}:{seed}")
    steps = max(1000, round(STEPS * scale))
    ops = _BUILDERS[workload](rng, steps, Path(run_dir))
    for op_id, op in enumerate(ops):
        op["id"] = op_id
        if op["kind"] == "reload":
            # reads back the trajectory the op before it wrote
            op["expect"]["from_op"] = op_id - 1
    return ops
