"""CLI output pinned to SHA-256 digests recorded before the shared step kernel.

The determinism tests elsewhere compare two runs of the same code; these
digests compare against the output of the per-module step loops that the
shared kernel replaced, so any change to a draw, a state or a rendered
byte fails here.  Step counts are odd so the last step reads the n-axis.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from qmarkov.cli import main

SEED = 20260
STEPS = "20001"
MATRIX_FILE = "chain9.json"

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
}

DIGESTS = {
    "coin": "9e5a9479214d4ac0f9ef0f041e5668f753d32b37f8d110bb3ab25e6e806cba5b",
    "spin-1/2": "afd50a7e10e796e20f2d9d8002ec0358f1cbc97eec6bb507346288cfd1463869",
    "spin-1/2:out": "cf15d7fe8ec75f11a80747139003befa3729eee539613652de09d840703ec9bf",
    "spin-1": "6a60156ace60bf16a8238af1d60e0987c0a0a3316883a57a3356e82364d475a2",
    "spin-1:out": "9019e7d0966cd5d76b62671addd93cee3b1eba58150827e9022b9a42f8efb2c0",
    "spin-25": "02c7d483d8d603147991a4bcfdd56d402703641b9ed0bba362f7cb158becb156",
    "spin-25:out": "eec886cd3e6b751d9d489839a7661cddb36817d949629c273ba112cb7a97d7b6",
    "qubit-8": "0a2a1ce566979f9f4bf9070e020a55f9ee94447df7cebbcbd9017448d62083ad",
    "qubit-64": "d8689c066736dc8734f5bdedf86def15c95089f7c87dd77de98d158c5b4cbc00",
    "matrix-9": "9ad2fc97072197e796ebb556f22ea0ad9eda16c41fbb29ddf9ec1afc2a0534a7",
}


def _matrix_text() -> str:
    # 9 states with zero entries, some of them trailing, so the inverse
    # CDF sees flat stretches and rows whose mass ends before the last label
    rows = []
    for i in range(9):
        weights = [(3 * i + 5 * j + 1) % 7 if j <= i + 4 else 0 for j in range(9)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    payload = {"version": 1, "kind": "file", "labels": [f"s{i}" for i in range(9)], "rows": rows}
    return json.dumps(payload) + "\n"


def outputs(directory) -> dict:
    """Name -> bytes of every pinned output, with relative paths inside `directory`."""
    (directory / MATRIX_FILE).write_text(_matrix_text())
    produced = {}
    for name, argv in CASES.items():
        argv = list(argv)
        trajectory_file = None
        if name.startswith("spin"):
            trajectory_file = directory / f"{name.replace('/', '_')}.txt"
            argv += ["--out", trajectory_file.name]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(argv) == 0, name
        produced[name] = buffer.getvalue().encode()
        if trajectory_file is not None:
            produced[f"{name}:out"] = trajectory_file.read_bytes()
    return produced


def test_cli_output_matches_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path).items()}
    assert got == DIGESTS
