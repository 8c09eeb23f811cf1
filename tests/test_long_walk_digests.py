"""CLI output at walk lengths that reach the lockstep kernel, pinned to SHA-256 digests.

The digests in test_byte_identity run 20001 steps, under the length at
which a chain of three or more states is walked in lockstep, so they
never reach markov._lockstep_block, its bisect fallback partway through
a walk, or the block loops of write_trajectory and transition_counts.
These run 100001 steps, two blocks of uniforms, each walked in lockstep
up to a tail walked by bisect; the walk that never couples is finished
by bisect from inside its first block.  The digests were recorded before the
bisect walker read its block in place.  A wrapper around the lockstep
kernel checks that it ran, and whether each of its blocks coupled.  The
register walks never reach it; they cross 13 blocks of flips at N = 8
and 98 at N = 64, and their digests were recorded before the register
simulator packed each block of flips at once.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from qmarkov.cli import main

from test_byte_identity import MATRIX_FILE, SEED, _matrix_text
from test_markov import _record_lockstep

STEPS = "100001"

CASES = {
    "spin-1": ("--kind", "spin", "--s", "1", "--beta", "0.8"),
    "spin-25": ("--kind", "spin", "--s", "25", "--beta", "2.2"),
    "matrix-9": ("--kind", "matrix-file", "--file", MATRIX_FILE),
    # at beta = pi the spin-1 chain maps m to -m, so the walk from m = 0
    # stays there while the segments guessed to start at m = 1 never meet it
    "spin-1-pi": ("--kind", "spin", "--s", "1", "--beta", "3.141592653589793", "--initial", "0"),
    "qubit-8": ("--kind", "qubit", "--n", "8", "--beta", "1.0"),
    "qubit-64": ("--kind", "qubit", "--n", "64", "--beta", "0.7"),
}

# whether the lockstep kernel couples on each block it walks
COUPLED = {
    "spin-1": [True, True],
    "spin-25": [True, True],
    "matrix-9": [True, True],
    "spin-1-pi": [False],
    "qubit-8": [],
    "qubit-64": [],
}

DIGESTS = {
    "spin-1": "1a2b8e3e7d1059bc357f8887045aa2474712c41c72b9bb77073e1b2dd5c0e95b",
    "spin-1:out": "e5796cbf6ff83b5d95b10d34e302f9c13da7a470c23a0366fad456f71a033ec4",
    "spin-25": "c11568c13a10f6801d6b6aded4dd08a0bca2c2d57218e3962ad895ff9e151ba6",
    "spin-25:out": "3560cd482dc156915c4cf75991b2a518ef06a7fe791bb755487dcc50ea7a449d",
    "matrix-9": "e7d70bb875c8ef1ddef8643c186de3328a81fc202c13916ef11ab1081458bc6f",
    "matrix-9:out": "14708c4824e3733b71c6d99aaf12348ab4ce210725e54be675a1d22e4759a8b6",
    "spin-1-pi": "72bc1cbf077e4d1b6f9f59bd0f2986ccd17bf5a10d52fa866f224c1490123bb7",
    "spin-1-pi:out": "308c816cb946398ee9d70dbfa7025278fb9e094e1d1d9ded82585d6f26902594",
    "qubit-8": "84a6a5376c7f038fbe7e88a6368acbbc88b8f01d51a7769e3d34778aa6adb63c",
    "qubit-8:out": "ef4468271cdf9d854350e0f06769e2f9f01f8a0dde90f077af590e42325b0eec",
    "qubit-64": "f2edc549e398c5d4a879b681069ae409d04118b663ce0f778d99d070e9e6f8f6",
    "qubit-64:out": "b617ca981609ace5cd1a36bfd8a0d095f8b469d72700e48748970c2471a92cf7",
}


@pytest.mark.parametrize("name", CASES)
def test_long_walk_output_matches_the_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / MATRIX_FILE).write_text(_matrix_text())
    coupled = _record_lockstep(monkeypatch)
    buffer = io.StringIO()
    argv = ["simulate", *CASES[name], "--steps", STEPS, "--seed", str(SEED), "--out", "walk.txt"]
    with redirect_stdout(buffer):
        assert main(argv) == 0
    got = {
        name: hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
        f"{name}:out": hashlib.sha256((tmp_path / "walk.txt").read_bytes()).hexdigest(),
    }
    assert got == {key: DIGESTS[key] for key in got}
    assert coupled == COUPLED[name]
