"""CLI output at walk lengths that reach the lockstep kernel, pinned to SHA-256 digests.

The digests in test_byte_identity run 20001 steps, under the length at
which a chain of three or more states is walked in lockstep, so they
never reach a batch of markov._lockstep, the one driver of the lut
chain and register walks, or the block loops of write_trajectory and
transition_counts.  These run 100001 steps, two blocks of uniforms,
walked in lockstep batches of whole segments up to a tail walked one
step at a time through the lut: one batch of 390 segments at 3 and 9
states, whose lut offsets take one or two bytes, and batches of 256 and
134 at 51 states.  The walk that never couples is finished one step at
a time from inside its batch, through its stored offsets, and through
the lut after it.  The digests were recorded while each block was its
own batch, while bisect walked the tails and the rest of a walk that
never couples, before the bisect walker read its block in place, and,
for spin-25, while the spin walk read the overlap's rows and columns in
turn.  A wrapper around markov._couple, which the driver calls on each
batch, checks that the driver ran, and whether each of its batches
coupled.  The register walks go in one batch of 390 segments at up to
16 qubits, and in two, of 256 and 134, at 63 and 64, each followed by
its tail walked one step at a time; at beta = 0 and beta = pi the first
batch never couples and the rest of the walk goes one step at a time.
Their digests were recorded before the register simulator walked in
lockstep: qubit-8 and qubit-64 before it packed each block of flips at
once.  The spin-25 stdout digest was recorded again when the spin
overlap became symmetric bit for bit, its upper triangle copied into the
lower one: only its row_tv moved, which compares the counts with the
theory rows; spin-25:out and every COUPLED list stayed as they were.
The spin-25, qubit-8, qubit-9, qubit-63 and qubit-64 stdout digests
were recorded again when the spin overlap was also made persymmetric
and the register matrix centrosymmetric bit for bit, each orbit of
cells holding one float: again only their row_tv moved, and every :out
digest and every COUPLED list stayed as they were.
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
    "qubit-1": ("--kind", "qubit", "--n", "1", "--beta", "0.4"),
    "qubit-2": ("--kind", "qubit", "--n", "2", "--beta", "2.6"),
    "qubit-9": ("--kind", "qubit", "--n", "9", "--beta", "1.7"),
    "qubit-63": ("--kind", "qubit", "--n", "63", "--beta", "2.2"),
    # beta = 0 keeps every index and beta = pi maps i to N - i, so the
    # walk from all qubits up never meets a segment guessed to start near N/2
    "qubit-8-0": ("--kind", "qubit", "--n", "8", "--beta", "0"),
    "qubit-64-pi": ("--kind", "qubit", "--n", "64", "--beta", "3.141592653589793"),
}

# whether the lockstep driver couples on each batch it walks
COUPLED = {
    "spin-1": [True],
    "spin-25": [True, True],
    "matrix-9": [True],
    "spin-1-pi": [False],
    "qubit-8": [True],
    "qubit-64": [True, True],
    "qubit-1": [True],
    "qubit-2": [True],
    "qubit-9": [True],
    "qubit-63": [True, True],
    "qubit-8-0": [False],
    "qubit-64-pi": [False],
}

DIGESTS = {
    "spin-1": "1a2b8e3e7d1059bc357f8887045aa2474712c41c72b9bb77073e1b2dd5c0e95b",
    "spin-1:out": "e5796cbf6ff83b5d95b10d34e302f9c13da7a470c23a0366fad456f71a033ec4",
    "spin-25": "782232183793f4056a0f3e98b30aa5f68a2522ba76038c4d2d935efa61980f1b",
    "spin-25:out": "3560cd482dc156915c4cf75991b2a518ef06a7fe791bb755487dcc50ea7a449d",
    "matrix-9": "e7d70bb875c8ef1ddef8643c186de3328a81fc202c13916ef11ab1081458bc6f",
    "matrix-9:out": "14708c4824e3733b71c6d99aaf12348ab4ce210725e54be675a1d22e4759a8b6",
    "spin-1-pi": "72bc1cbf077e4d1b6f9f59bd0f2986ccd17bf5a10d52fa866f224c1490123bb7",
    "spin-1-pi:out": "308c816cb946398ee9d70dbfa7025278fb9e094e1d1d9ded82585d6f26902594",
    "qubit-8": "59d0fcef775e74413062a8e937a869af25192ded968bc3ad7c8b9473fb38d5f0",
    "qubit-8:out": "ef4468271cdf9d854350e0f06769e2f9f01f8a0dde90f077af590e42325b0eec",
    "qubit-64": "4f1373ba8a0514c2da45a55bfe2f67419f0a0aab1bf2a8bd47ab27429a8122d5",
    "qubit-64:out": "b617ca981609ace5cd1a36bfd8a0d095f8b469d72700e48748970c2471a92cf7",
    "qubit-1": "352a2637b23a38f7584de54df45d58cdbdf246a7b3af39e8078e74d1400931bd",
    "qubit-1:out": "76d5276530df2e4c6112cc81979e279c5a6657f020feddf8026067493fd52e91",
    "qubit-2": "42dda3e5e1d525b4eefb409729ff41dc07deb5f4f7bcf269bb1677bbbdd51029",
    "qubit-2:out": "ad7b123d91facd16686bab51c336169775686ec24354275f0366458d227d7228",
    "qubit-9": "f6f5ae06e2a12cfb860aa70ce57efeefac0f86d137d39d68225cf9ed4cc81b60",
    "qubit-9:out": "209f310cfb2afba9914f609f2dff41c689260b171bac44cec079e056e460dbbc",
    "qubit-63": "8970879089d47189b44ef9b4d3c311c2c6cc71a041b8505207c318132bab2956",
    "qubit-63:out": "b382904441586c80b36d96f2035a9cfd4f44cecee232490aa0163bc2c0699e19",
    "qubit-8-0": "42856e4d59a745f063b838ad31b1eaf1394c2777cb7d3692839b04a6a27d9254",
    "qubit-8-0:out": "f6a09223a080b84fdb584b57942948bb0d2954988de4920d096f865773bc1ba0",
    "qubit-64-pi": "35861cd59296b5a06cb0f77c6b58c9cb5f5926087f569af6f60310b9f3238cb1",
    "qubit-64-pi:out": "9c5f06d24d12c2020064d0b5a7de49b3295686146b0f32e4ceeb99d105a6fdcb",
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
