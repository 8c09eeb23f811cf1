"""CLI output at walk lengths that reach the lockstep kernel, pinned to SHA-256 digests.

The digests in test_byte_identity run 20001 steps, under the length at
which a chain of three or more states is walked in lockstep, so they
never reach a batch of markov._lockstep, the one draw loop of every
walk, or the block loops of write_trajectory and transition_counts.
These run 100001 steps, 781 segments of 128 steps and a tail of 33,
walked in lockstep batches of whole segments up to a tail walked one
step at a time through the lut: one batch of 781 segments at 3 and 9
states, whose keys (a lut offset at 3 states, a bucket at 9) take one
byte, and two, of 512 and 269, at 51, 64 and 65 states, whose two-byte
buckets sit beside tables of half a block of uniforms and more.  The
walk that never couples is finished one draw's worth of segments at a
time from inside its batch, through its stored keys, and through the
lut after it.  The digests were recorded while each block was its own
batch, while bisect walked the tails and the rest of a walk that never
couples, before the bisect walker read its block in place, while
segments were 256 steps long and batches were sized without the
tables, and, for spin-25, while the spin walk read the overlap's rows
and columns in turn.  A wrapper around markov._couple, which the driver
calls on each batch, checks that the driver ran, and whether each of
its batches coupled.  The register is walked as the chain of its own
matrix, from the start's label index: qubit-1 is the two-state scan,
which no batch walks, and at beta = 0 and beta = pi the walk from all
qubits up keeps index 0 or returns to it every second step, so every
segment, guessed to start at index 0 and 128 steps long, is right.

The spin-25 stdout digest was recorded again when the spin overlap
became symmetric bit for bit, its upper triangle copied into the lower
one: only its row_tv moved, which compares the counts with the theory
rows; spin-25:out and every COUPLED list stayed as they were.  The
spin-25 and register stdout digests were recorded again when the spin
overlap was also made persymmetric and the register matrix
centrosymmetric bit for bit, each orbit of cells holding one float:
again only their row_tv moved.  The register digests were recorded
again when its flips came from raw 64-bit words as bit planes; when the
register builder came to add its convolution's terms in a fixed order
with elementwise numpy, where only their row_tv moved; and last when
the register came to walk its own matrix, one uniform a step, with the
law of the matrix's floats.  Every qubit digest, stdout and :out, moved
then but those of qubit-8-0 and qubit-64-pi, whose walks are certain.
That change also cut segments to 128 steps and put the lookup tables in
the batches' budget, so the COUPLED lists of spin-25, qubit-1,
qubit-8-0 and qubit-64-pi moved; every spin and matrix-file digest
held.
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
    # beta = 0 keeps every index and beta = pi maps i to N - i: the walk
    # from all qubits up, index 0, is certain, and every segment guessed
    # to start at index 0 is right
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
    "qubit-1": [],
    "qubit-2": [True],
    "qubit-9": [True],
    "qubit-63": [True, True],
    "qubit-8-0": [True],
    "qubit-64-pi": [True],
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
    "qubit-8": "46043a10dc4a480ce0895e18f6ca1f24e8083239868f9b0e59123a712d8429bc",
    "qubit-8:out": "4cd2cf6c3b4e42c03f1b57c1c12fc2ca64dc47071930008ed237c72af49c18fc",
    "qubit-64": "396f07c64aabfc7554aba1d454484db6918cff7c5bddda54d7a5d3f9757bf019",
    "qubit-64:out": "0f9ae3daa8d9d91d07be4057bc22b6e72e8fb7a808a618e1713b8d23fd8f40ee",
    "qubit-1": "7a68c7fc96910a1625ba38962a3837f041d7885989c36ee903e047de075a5c84",
    "qubit-1:out": "ae72729938d6d301b001fa07b1b193ec62e68739ccc5c290ad16260a2db24569",
    "qubit-2": "89b1e5ef0ee5fe5a7bc0d2793ce276656230fc62773cffff0d9bdb783514911a",
    "qubit-2:out": "32ecec24ab1c6984bae5d489b8912aff69365e3b3b46f6d4624e5732ba743a5d",
    "qubit-9": "1cf1dc01102589b5f0d8d7c90bda4c61adfd4c6b8ce2be6d3a7547bcb11b8fdf",
    "qubit-9:out": "0f0220386dd41385a5dcaa0faea10d7c6f2b59d23601265dd81fbae2eb84a82a",
    "qubit-63": "fa309ace83eb4c3d4df6f018773e5add49acdf0544f8ce5510b559d66b64253f",
    "qubit-63:out": "f500c9d240383ff478b67fd2aae31fac404ffc47057265ea286f18ecab177a16",
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
