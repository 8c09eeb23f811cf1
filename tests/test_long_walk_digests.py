"""CLI output at walk lengths that reach the lockstep kernel, pinned to SHA-256 digests.

The digests in test_byte_identity run 20001 steps, under the length at
which a chain of three or more states is walked in lockstep, so they
never reach a batch of markov._lockstep, the one driver of the lut
chain and register walks, or the block loops of write_trajectory and
transition_counts.  These run 100001 steps, two blocks of uniforms,
walked in lockstep batches of whole segments up to a tail walked one
step at a time through the lut: one batch of 390 segments at 3, 9 and
51 states, whose keys (a lut offset at 3 states, a bucket at 9 and 51)
take one, one and two bytes.  The walk that never couples is finished
one step at a time from inside its batch, through its stored keys, and
through the lut after it.  The digests were recorded while each block
was its own batch, while bisect walked the tails and the rest of a walk
that never couples, before the bisect walker read its block in place, and,
for spin-25, while the spin walk read the overlap's rows and columns in
turn.  A wrapper around markov._couple, which the driver calls on each
batch, checks that the driver ran, and whether each of its batches
coupled.  The register walks go in one batch of 390 segments at up to
16 qubits, and in two, of 256 and 134, at 63 and 64, each followed by
its tail walked one step at a time; at beta = 0 and beta = pi the first
batch never couples and the rest of the walk goes one step at a time.
Their digests were recorded before the register simulator walked in
lockstep, and all but qubit-8-0 and qubit-64-pi again since (see
below).  The spin-25 stdout digest was recorded again when the spin
overlap became symmetric bit for bit, its upper triangle copied into the
lower one: only its row_tv moved, which compares the counts with the
theory rows; spin-25:out and every COUPLED list stayed as they were.
The spin-25, qubit-8, qubit-9, qubit-63 and qubit-64 stdout digests
were recorded again when the spin overlap was also made persymmetric
and the register matrix centrosymmetric bit for bit, each orbit of
cells holding one float: again only their row_tv moved, and every :out
digest and every COUPLED list stayed as they were.  The qubit-1,
qubit-2, qubit-8, qubit-9, qubit-63 and qubit-64 digests, stdout and
:out, were recorded again when the register came to build each step's
flips from raw 64-bit words as bit planes, with a second stream of the
seed for the lanes the planes leave undecided.  Every COUPLED list
stayed as it was, and so did qubit-8-0 and qubit-64-pi, whose flips are
certain at beta = 0 and beta = pi whichever draws decide them.  The
spin-25 COUPLED list went from two batches, of 256 and 134 segments, to
one of 390 when the lut walk came to store each step's bucket, two bytes
at 51 states, in place of its four-byte lut offset; no digest moved.
The qubit-8, qubit-9, qubit-63 and qubit-64 stdout digests were recorded
again when the register builder came to add its convolution's terms in
a fixed order with elementwise numpy, not through a BLAS dot whose
order depends on the kernel: only their row_tv moved, which compares
the counts with the theory rows, and every :out digest and every
COUPLED list stayed as they were.
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
    "spin-25": [True],
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
    "qubit-8": "79b5d0efa2d3e95f7055ecc73b1089a4d406dbc0e43eb214639f95de52e694e6",
    "qubit-8:out": "fbb900d18569c4a30a3ee67541a65f90368f7a1c9140febb42f450f55f941d2a",
    "qubit-64": "07c9d922e8953f1775c83b3afbcf68a994b62feb01c5ee9e7d08a290a2771a97",
    "qubit-64:out": "1f9304a02e2740fed015e072b627b05bb56c217cba206761d97d67e218b682df",
    "qubit-1": "88f379ea69c69e22d4659ea4686bc2fcd7a4d6bcc7a5cecdb1ed6491242fbae9",
    "qubit-1:out": "05f172fa37f20621bf81cbbafeadd972b04f34f5507ac03dbb28978f752b1d2a",
    "qubit-2": "9c93c43dd5c25df8c426c71dfbfb06707fc904fb168c7ef3993e1a65438d5d84",
    "qubit-2:out": "f7f7890ad8a652cf89d14f87283e13dd26371f7f68d5b55afbc6365258c3edc9",
    "qubit-9": "51eb2f62a0ea226ac04a70148c767f36b06633ae599294ac5425ed71730d10b7",
    "qubit-9:out": "1803f7d3258850039eda6bebd5aabb2107f094258af3e17acb26aa8652a1f2f3",
    "qubit-63": "394364899ec5ca60ce8eed1602e8ecdbf07545781a9c4ba84487975419bad74f",
    "qubit-63:out": "23d9daf111607f2fcde43f3aa1bac530b07cb6930b2e364a68a5e714ac8e098a",
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
