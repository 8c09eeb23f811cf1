"""CLI output pinned to SHA-256 digests recorded from earlier versions.

The determinism tests elsewhere compare two runs of the same code; these
digests compare against output recorded before a rewrite: the simulate
digests before the shared step kernel, the matrix, stationary and
verify digests before the CLI's one chain-source resolver.  The
coin-toss digest was recorded when its lag-1 autocorrelation became an
exact ratio of integer counts, rounded once, so it no longer depends on
the order in which a BLAS dot product sums.  The spin-25,
spin-matrix-json and spin-matrix-csv digests were recorded again when
the spin overlap |d^s|^2 became symmetric bit for bit, its upper
triangle copied into the lower one: the matrix outputs moved in the last
bits of entries below the diagonal, and spin-25 only in its row_tv,
which compares the counts with the theory rows.  Its trajectory file,
spin-25:out, kept its digest.  When both chain matrices were built with
their second exact symmetry, the spin overlap persymmetric and the
register matrix centrosymmetric, each orbit of cells holding one float,
the spin-25, qubit-8, qubit-64, spin-matrix-json, spin-matrix-csv,
qubit-matrix-json, qubit-matrix-csv and stationary-qubit digests were
recorded again: the matrix outputs moved in the last bits of mirrored
entries, the simulate outputs only in their row_tv, and stationary-qubit
in the last bits of its iterate and so in its residual, with the same
iteration count; every :out digest kept its value.  The qubit-8 and
qubit-64 digests were recorded again when the register came to build
each step's flips from raw 64-bit words as bit planes, with a second
stream of the seed for the lanes the planes leave undecided: the
register's law stayed Bernoulli(sin^2(beta/2)) per qubit, but its draws
and so its trajectories moved, and every other digest stayed as it was.
The qubit-8, qubit-64, qubit-matrix-csv, stationary-qubit and
stationary-file digests were recorded again when the register builder's
convolution and stationary's products of a vector and the matrix came
to add their terms in a fixed order with elementwise numpy, where the
BLAS dot and gemv they replaced summed in an order of each kernel's
own: the CSV moved in the last bits of some entries, qubit-8 and
qubit-64 only in their row_tv, and the stationary outputs in the last
bits of their iterates and residuals, with the same iteration counts.
The trajectories of qubit-8 and qubit-64, written with --out, kept
their digests, and so did every other output.  Since then every digest
holds whichever kernel OpenBLAS picks (checked under Prescott, Nehalem,
Sandybridge, Haswell, Zen and SkylakeX), and a test checks it under
Prescott, the oldest.  The qubit-8 and qubit-64 digests were recorded
again when the register came to walk the rows of its own matrix, one
uniform a step, as every other chain walks: its law became that of the
matrix's floats, within about 1e-15 of the binomial convolution, and
its trajectories moved, while every other digest stayed as it was.
Any change to a draw, a state, a key order or a rendered
byte fails here.  Step counts are odd so the last step reads the
n-axis.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import qmarkov
from qmarkov.cli import main

SEED = 20260
STEPS = "20001"
MATRIX_FILE = "chain9.json"
CHAIN3_FILE = "chain3.json"
CYCLE_FILE = "cycle2.json"

CASES = {
    "coin": ("coin-toss", "--count", STEPS, "--seed", str(SEED)),
    "spin-1/2": ("simulate", "--kind", "spin", "--s", "1/2", "--beta-pi", "0.5",
                 "--steps", STEPS, "--seed", str(SEED)),
    "spin-1": ("simulate", "--kind", "spin", "--s", "1", "--beta", "0.8",
               "--steps", STEPS, "--seed", str(SEED)),
    "spin-25": ("simulate", "--kind", "spin", "--s", "25", "--beta", "2.2",
                "--steps", STEPS, "--seed", str(SEED)),
    "qubit-8": ("simulate", "--kind", "qubit", "--n", "8", "--beta", "1.0",
                "--steps", STEPS, "--seed", str(SEED)),
    "qubit-64": ("simulate", "--kind", "qubit", "--n", "64", "--beta", "0.7",
                 "--steps", STEPS, "--seed", str(SEED)),
    "matrix-9": ("simulate", "--kind", "matrix-file", "--file", MATRIX_FILE,
                 "--steps", STEPS, "--seed", str(SEED)),
    "spin-matrix-json": ("spin-matrix", "--s", "3/2", "--beta", "1.1"),
    "spin-matrix-csv": ("spin-matrix", "--s", "5/2", "--beta-pi", "0.3", "--format", "csv"),
    "spin-matrix-table": ("spin-matrix", "--s", "2", "--beta", "2.5", "--format", "table"),
    "qubit-matrix-json": ("qubit-matrix", "--n", "5", "--beta", "0.9"),
    "qubit-matrix-csv": ("qubit-matrix", "--n", "7", "--beta-pi", "0.25", "--format", "csv"),
    "qubit-matrix-table": ("qubit-matrix", "--n", "4", "--beta", "1.7", "--format", "table"),
    "stationary-spin": ("stationary", "--kind", "spin", "--s", "1", "--beta", "0.9"),
    "stationary-qubit": ("stationary", "--kind", "qubit", "--n", "6", "--beta", "1.3"),
    "stationary-file": ("stationary", "--kind", "matrix-file", "--file", CHAIN3_FILE),
    "stationary-cycle": ("stationary", "--kind", "matrix-file", "--file", CYCLE_FILE,
                         "--max-iters", "50"),
    "verify": ("verify", "--n-max", "6"),
}

# exit status of every case that does not exit 0
EXIT_CODES = {"stationary-cycle": 3}

DIGESTS = {
    "coin": "188bab0bb00ea16cfec6273cfb0e3bd296ef76a4b114f17b83a9e2c7fec43d56",
    "spin-1/2": "afd50a7e10e796e20f2d9d8002ec0358f1cbc97eec6bb507346288cfd1463869",
    "spin-1/2:out": "cf15d7fe8ec75f11a80747139003befa3729eee539613652de09d840703ec9bf",
    "spin-1": "6a60156ace60bf16a8238af1d60e0987c0a0a3316883a57a3356e82364d475a2",
    "spin-1:out": "9019e7d0966cd5d76b62671addd93cee3b1eba58150827e9022b9a42f8efb2c0",
    "spin-25": "5c521e990ba75f4a3b2fff5bb42a696e801c43370ed7d9b667f81997b524f728",
    "spin-25:out": "eec886cd3e6b751d9d489839a7661cddb36817d949629c273ba112cb7a97d7b6",
    "qubit-8": "6aa2b053798379f3cca58aeeabfcf23f4b4e32dbac8a84e34ee6e2cf90b9b3c4",
    "qubit-64": "adf990075ebc605314f39f04243f70520b8eb1a49399efb8929d440e20cfba91",
    "matrix-9": "9ad2fc97072197e796ebb556f22ea0ad9eda16c41fbb29ddf9ec1afc2a0534a7",
    "spin-matrix-json": "bd6d969759426112ab713773bb91771594e48730a0dbab310bcadfe9f40ba640",
    "spin-matrix-csv": "3102f514695f4eab60a05c6a4653c1c7472c834068b7f40c5179edd7ba6c27ea",
    "spin-matrix-table": "cdb580a6a2f218ba94b4ff0e8158e77b94059effde342f3a2b255f9ffa844ebc",
    "qubit-matrix-json": "93e2f9522f3e8ca800702d221d367e5b068e08f6a671ba6fd6901b80997b9fd9",
    "qubit-matrix-csv": "3726c45e36e210598fd7d07c99f7c84a77551c5e7d7630f4dce41e86a11f8ce2",
    "qubit-matrix-table": "da9439374a810d4397d7e7849c5709add1344e481fa921d171c2988733339891",
    "stationary-spin": "14148c5b7ae8a03e92ab25713614801b574feb67bd403fa97a6e437e6c9d66f1",
    "stationary-qubit": "121a3dbcb2ec3aae271795b38ec3a6914e3bc025df386b951c32c81795a53b18",
    "stationary-file": "b647e6925d24b72b34aa45eca8d3b4489e34371522703945840aa65a8695f234",
    "stationary-cycle": "aa1797234042c59b4720574d787ae91c1267474dc25d1a6d4f59305709db964f",
    "verify": "f801086329babd14b298fe02f9c5003a0b8ac219c2e9158e7b2a05b9f24e8bcf",
}


def _matrix_text() -> str:
    # 9 states with zero entries, some of them trailing, so the inverse
    # CDF sees flat stretches and rows whose mass ends before the last label
    rows = []
    for i in range(9):
        weights = [(3 * i + 5 * j + 1) % 7 if j <= i + 4 else 0 for j in range(9)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return _file_text(rows)


def _file_text(rows) -> str:
    labels = [f"s{i}" for i in range(len(rows))]
    return json.dumps({"version": 1, "kind": "file", "labels": labels, "rows": rows}) + "\n"


def outputs(directory) -> dict:
    """Name -> bytes of every pinned output, with relative paths inside `directory`."""
    (directory / MATRIX_FILE).write_text(_matrix_text())
    (directory / CHAIN3_FILE).write_text(_file_text([[0.5, 0.25, 0.25], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]]))
    (directory / CYCLE_FILE).write_text(_file_text([[0.0, 1.0], [1.0, 0.0]]))
    produced = {}
    for name, argv in CASES.items():
        argv = list(argv)
        trajectory_file = None
        if argv[:3] == ["simulate", "--kind", "spin"]:
            trajectory_file = directory / f"{name.replace('/', '_')}.txt"
            argv += ["--out", trajectory_file.name]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(argv) == EXIT_CODES.get(name, 0), name
        produced[name] = buffer.getvalue().encode()
        if trajectory_file is not None:
            produced[f"{name}:out"] = trajectory_file.read_bytes()
    return produced


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path).items()}
    assert got == DIGESTS


def test_cli_output_does_not_depend_on_the_blas_kernel(tmp_path, monkeypatch):
    # OpenBLAS reads OPENBLAS_CORETYPE once, as it loads, so the outputs are
    # made again in a new process under Prescott, its SSE3 kernel, which
    # every x86-64 host can run; elsewhere the variable is ignored
    src = str(Path(qmarkov.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    (tmp_path / "prescott").mkdir()
    script = (
        "import hashlib, json, pathlib, test_byte_identity as t; "
        "print(json.dumps({k: hashlib.sha256(v).hexdigest() for k, v in t.outputs(pathlib.Path.cwd()).items()}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path / "prescott", env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    monkeypatch.chdir(tmp_path)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path).items()}
    assert json.loads(done.stdout) == got
