"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: rotation
matrices come from an eigendecomposition of the angular momentum
operator rather than a closed-form sum, and register transition
probabilities come from enumerating every flip pattern of every qubit.
The trajectory parser splits the whole file into lines and looks each
label up on its own.  Slow is fine; different is the point.
"""

import itertools
import json
import math

import numpy as np

from qmarkov.errors import FormatError, InvalidArgumentError, check_int
from qmarkov.halfint import HalfInt
from qmarkov.markov import Trajectory, _labels
from qmarkov.serialization import FORMAT_VERSION


def sy_matrix(twice_s: int) -> np.ndarray:
    """Spin-y operator in the basis m = s..-s via ladder operators."""
    dim = twice_s + 1
    s = twice_s / 2.0
    ms = [s - i for i in range(dim)]
    raising = np.zeros((dim, dim))
    for i in range(dim - 1):
        m = ms[i + 1]
        raising[i, i + 1] = math.sqrt(s * (s + 1) - m * (m + 1))
    return (raising - raising.T) / 2j


def oracle_small_d(twice_s: int, beta: float) -> np.ndarray:
    """d^s(beta) = exp(-i beta S_y) by eigendecomposition; real part."""
    w, v = np.linalg.eigh(sy_matrix(twice_s))
    d = v @ np.diag(np.exp(-1j * beta * w)) @ v.conj().T
    assert np.abs(d.imag).max() < 1e-12
    return d.real


def oracle_big_D(twice_s: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    d = oracle_small_d(twice_s, beta)
    ms = np.array([(twice_s - 2 * i) / 2.0 for i in range(twice_s + 1)])
    return np.exp(-1j * ms * alpha)[:, None] * d * np.exp(-1j * ms * gamma)[None, :]


def enumerate_q(n_qubits: int, beta: float, j: HalfInt, j_prime: HalfInt) -> float:
    """Transition probability by summing over every flip mask of the register.

    Each qubit independently flips its reading between the two bases
    with probability sin^2(beta/2).  O(2^N); keep N small.
    """
    p = math.sin(beta / 2.0) ** 2
    ups = (n_qubits + j.twice) // 2
    if ups < 0 or ups > n_qubits or (n_qubits + j.twice) % 2:
        raise ValueError(f"j={j} impossible for {n_qubits} qubits")
    total = 0.0
    for mask in itertools.product((0, 1), repeat=n_qubits):
        weight = 1.0
        for bit in mask:
            weight *= p if bit else (1.0 - p)
        flipped_down = sum(mask[:ups])
        flipped_up = sum(mask[ups:])
        ups_after = ups - flipped_down + flipped_up
        if 2 * ups_after - n_qubits == j_prime.twice:
            total += weight
    return total


def oracle_trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    """Parse a trajectory file one whole-file line list at a time."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty trajectory file", line=1)
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid header JSON: {exc}", line=1) from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object", line=1)
    labels = header.get("labels")
    seed = header.get("seed")
    steps = header.get("steps")
    rng_name = header.get("rng")
    if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
        raise FormatError("header 'labels' must be a non-empty list of strings", line=1)
    try:
        labels = _labels(labels)
        check_int("header 'seed'", seed, 0)
        check_int("header 'steps'", steps, 0)
    except InvalidArgumentError as exc:
        raise FormatError(str(exc), line=1) from None
    if not isinstance(rng_name, str):
        raise FormatError("header 'rng' must be a string", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header.get('version')!r}", line=1)
    index = {label: i for i, label in enumerate(labels)}
    if len(lines) - 1 != steps + 1:
        raise FormatError(
            f"expected {steps + 1} outcome lines for {steps} steps, found {len(lines) - 1}",
            line=len(lines),
        )
    states = np.empty(steps + 1, dtype=np.int64)
    for offset, line in enumerate(lines[1:]):
        i = index.get(line)
        if i is None:
            raise FormatError(f"unknown outcome label {line!r}", line=offset + 2)
        states[offset] = i
    trajectory = Trajectory(labels=labels, states=states, seed=seed, steps=steps)
    return trajectory, header
