"""Markov chains induced by alternately measuring a spin along two axes.

A spin-s system is measured along the z-axis, then along a rotated axis
n, then z again, and so on.  After each measurement the state collapses
to a basis vector of the axis just measured, so the next outcome depends
only on the current one: the outcome sequence is a Markov chain on
{s, s-1, ..., -s} whose transition probabilities are squared rotation
matrix elements |d^s(beta)|^2.

Two independent routes to that chain live here: the analytic transition
matrix, and a simulator that tracks the collapse measurement by
measurement.  Tests close the loop between them.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidStateError,
    check_int,
    check_real,
)
from .halfint import HalfInt, m_values
from .markov import Distribution, StochasticMatrix, Trajectory, _cumulative, _state_dtype, _walk, sample
from .rng import RngState
from .wigner import EulerAngles, big_D

AXIS_Z = "z"
AXIS_N = "n"

_DOUBLY_STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class SpinChainSpec:
    """Chain parameters: spin magnitude s and the angle beta from z to n.

    The chain is (s, beta) alone: the other two Euler angles of the
    rotation only multiply its entries by phases, which cancel in every
    squared magnitude.  Any finite beta is accepted; the matrix elements
    are entire in beta.  Range limits on s surface at evaluation.
    """

    s: HalfInt
    beta: float

    def __post_init__(self):
        if not isinstance(self.s, HalfInt):
            raise InvalidArgumentError(f"s must be a HalfInt, got {self.s!r}")
        if self.s.twice < 1:
            raise InvalidArgumentError(f"spin must be at least 1/2, got s={self.s}")
        check_real("beta", self.beta)

    @property
    def labels(self) -> tuple[HalfInt, ...]:
        return m_values(self.s)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """State vector over the z-basis {|s,m>}, m descending from s to -s."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidStateError(f"expected a non-empty 1-d amplitude vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidStateError("amplitudes must be finite")
        norm = float(np.sum(arr.real**2 + arr.imag**2))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidStateError(f"state norm squared is {norm!r}, not 1 within 1e-9")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One measurement: which axis was read at which step, and the outcome."""

    step: int
    kind: str
    outcome: HalfInt

    def __post_init__(self):
        expected = AXIS_Z if self.step % 2 == 0 else AXIS_N
        if self.kind != expected:
            raise InvalidArgumentError(
                f"step {self.step} must measure axis {expected!r}, got {self.kind!r}"
            )


def _overlap_squared(spec: SpinChainSpec) -> np.ndarray:
    """Matrix O with O[a, b] = |<m_a| R |m_b>|^2 for the spec's rotation R.

    Row a indexes the z-basis outcome, column b the rotated-basis outcome,
    both in descending-m order.  O[a, b] is the probability of either
    cross-basis transition between outcomes m_a and m_b; the two readings
    agree because squared magnitudes kill the phases.
    """
    entries = big_D(spec.s, EulerAngles(0.0, spec.beta, 0.0)).entries
    return np.square(entries.real) + np.square(entries.imag)


def spin_transition_matrix(spec: SpinChainSpec) -> StochasticMatrix:
    """The chain's transition matrix: entry (i, j) = |d^s(beta)|^2 at (j, i).

    Row i is the current outcome, column j the next.  Unitarity of the
    rotation makes the matrix doubly stochastic; both sum directions are
    asserted here because a failure means the rotation matrix itself is
    wrong.
    """
    overlap = _overlap_squared(spec)
    rows = overlap.T.copy()
    col_defect = float(np.abs(rows.sum(axis=0) - 1.0).max())
    row_defect = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if max(col_defect, row_defect) > _DOUBLY_STOCHASTIC_TOL:
        raise InternalConsistencyError(
            f"transition matrix not doubly stochastic: row defect {row_defect:.3e}, "
            f"column defect {col_defect:.3e}"
        )
    return StochasticMatrix(labels=spec.labels, rows=rows)


def initial_distribution(spec: SpinChainSpec, psi: QuantumState) -> Distribution:
    """Outcome distribution of the first z-axis measurement on psi."""
    if not isinstance(psi, QuantumState):
        psi = QuantumState(np.asarray(psi))
    if psi.dim != spec.s.twice + 1:
        raise DimensionMismatchError(
            f"state dimension {psi.dim} does not match 2s+1 = {spec.s.twice + 1}"
        )
    amps = psi.amplitudes
    probs = np.square(amps.real) + np.square(amps.imag)
    return Distribution(labels=spec.labels, probs=probs)


class MeasurementRecords(Sequence):
    """Read-only view of a trajectory as one MeasurementRecord per step.

    Nothing is stored per step: record k is built on access from the
    trajectory, with axis z at even k, n at odd k, and outcome
    labels[states[k]].  Slices return lists of records.
    """

    __slots__ = ("trajectory",)

    def __init__(self, trajectory: Trajectory):
        self.trajectory = trajectory

    def __len__(self) -> int:
        return self.trajectory.states.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"record index {index} out of range for {len(self)} records")
        outcome = self.trajectory.labels[self.trajectory.states[k]]
        return MeasurementRecord(step=k, kind=AXIS_Z if k % 2 == 0 else AXIS_N, outcome=outcome)


def simulate_measurements(
    spec: SpinChainSpec, psi: QuantumState, steps: int, rng: RngState
) -> tuple[Trajectory, MeasurementRecords]:
    """Realize the alternating measurement sequence with explicit collapse.

    Step 0 reads the z-axis on psi; afterwards the state is always a
    known basis vector of the axis just measured, so only (axis, outcome)
    is tracked.  Outcome probabilities at every later step are squared
    overlaps between the current basis vector and the next axis's basis:
    from a z-outcome the overlap matrix is read along its row, from an
    n-outcome along its column.  No transition matrix is consulted; the
    chain law is emergent and is what the tests verify.

    The records are a lazy view derived from the trajectory, so the
    simulation stores one integer per step and nothing else.
    """
    check_int("steps", steps, 0)
    init = initial_distribution(spec, psi)
    overlap = _overlap_squared(spec)
    states = np.empty(steps + 1, dtype=_state_dtype(init.dim))
    states[0] = sample(init, rng)
    # odd steps read n from a z basis vector (a row of the overlap), even
    # steps read z from an n basis vector (a column)
    _walk((_cumulative(overlap), _cumulative(overlap.T)), int(states[0]), states[1:], rng)
    trajectory = Trajectory(labels=spec.labels, states=states, seed=rng.seed, steps=steps)
    return trajectory, MeasurementRecords(trajectory)


def coin_toss_stream(count: int, rng: RngState) -> np.ndarray:
    """Fair bits from a spin-1/2 chain at beta = pi/2.

    Measuring alternately along z and x starting from the balanced
    superposition gives i.i.d. fair outcomes; +1/2 maps to 1 and -1/2
    to 0.
    """
    if check_int("count", count, 0) == 0:
        return np.zeros(0, dtype=np.uint8)
    spec = SpinChainSpec(s=HalfInt(1), beta=math.pi / 2.0)
    amp = math.sqrt(0.5)
    psi = QuantumState(np.array([amp, amp], dtype=complex))
    trajectory, _ = simulate_measurements(spec, psi, count - 1, rng)
    # outcome index 0 is m = +1/2
    return np.subtract(1, trajectory.states, dtype=np.uint8)
