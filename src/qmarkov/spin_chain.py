"""Markov chains induced by alternately measuring a spin along two axes.

A spin-s system is measured along the z-axis, then along a rotated axis
n, then z again, and so on.  After each measurement the state collapses
to a basis vector of the axis just measured, so the next outcome depends
only on the current one: the outcome sequence is a Markov chain on
{s, s-1, ..., -s} whose transition probabilities are squared rotation
matrix elements |d^s(beta)|^2.

The analytic transition matrix lives here, from one builder,
spin_transition_matrix, which keeps the last spec's matrix, and a
simulator that walks its rows, one measurement a step, with each step
readable as a MeasurementRecord.  Tests check the walk's frequencies
against the matrix, and the matrix against spins measured by the Born
rule.
"""

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    check_int,
    check_real,
)
from .halfint import HalfInt, m_values
from .markov import Distribution, StochasticMatrix, Trajectory, _realize, sample
from .rng import RngState
from .wigner import big_D

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

    @functools.cached_property
    def labels(self) -> tuple[HalfInt, ...]:
        return m_values(self.s)


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


@functools.lru_cache(maxsize=1)
def spin_transition_matrix(spec: SpinChainSpec) -> StochasticMatrix:
    """The chain's transition matrix, kept for the last spec: entry (i, j) = |d^s(beta)|^2 at (i, j).

    Row i is the current outcome, column j the next, both in
    descending-m order.  Entry (i, j) is the probability of either
    cross-basis transition between outcomes m_i and m_j, from z to n
    and from n to z, as squared magnitudes kill the phases.  The matrix
    is symmetric and persymmetric: d^s_{m'm} = (-1)^(m - m') d^s_{mm'}
    = d^s_{-m,-m'} (Edmonds, Angular Momentum in Quantum Mechanics,
    1957), so with n = 2s, entry (i, j) equals (j, i), (n - j, n - i)
    and (n - i, n - j).  The floats of those cells can differ in their
    last bits, so only the cells with i <= j and i + j <= n are kept:
    the upper triangle is copied into the lower one, then (n - j, n - i)
    into every cell with i + j > n.  rows == rows.T and rows ==
    rows[::-1, ::-1] then hold bit for bit, and about a quarter of the
    entries are distinct (26.5% over 2s = 1..50, one random beta each).

    Unitarity of the rotation makes the matrix doubly stochastic.  The
    row sums are checked here, and being symmetric the matrix has the
    same column sums, so a failure means the rotation matrix itself is
    wrong.  The last spec's matrix is kept, so library code that
    simulates a chain and then builds its transition matrix, as a reload
    of a just-written trajectory does, evaluates d^s once; equal specs
    give the same matrix bit for bit, as beta = -0.0 and 0.0 differ at
    most in the sign of a zero entry, which the squares drop.
    """
    entries = big_D(spec.s, 0.0, spec.beta, 0.0)
    rows = np.square(entries.real) + np.square(entries.imag)
    below = np.tri(len(rows), k=-1, dtype=bool)
    np.copyto(rows, rows.T, where=below)
    # below[i, n - j] holds where i + j > n
    np.copyto(rows, rows[::-1, ::-1].T, where=below[:, ::-1])
    defect = float(np.abs(rows.sum(axis=1) - 1.0).max())
    if defect > _DOUBLY_STOCHASTIC_TOL:
        raise InternalConsistencyError(f"transition matrix not doubly stochastic: row defect {defect:.3e}")
    return StochasticMatrix(labels=spec.labels, rows=rows)


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
    spec: SpinChainSpec, initial: Distribution, steps: int, rng: RngState
) -> tuple[Trajectory, MeasurementRecords]:
    """Realize the alternating measurement sequence, one outcome per measurement.

    Step 0 reads the z-axis: its outcome is drawn from the start law
    over spec.labels, which holds the Born probabilities |<m|psi>|^2 of
    whatever state psi was prepared; nothing else about psi reaches the
    chain.  Afterwards the state is always a known basis vector of the
    axis just measured, so only (axis, outcome) is tracked.  Outcome
    probabilities at every later step are squared overlaps between the
    current basis vector and the next axis's basis: from a z-outcome
    they are read along a row of |d^s(beta)|^2, from an n-outcome along
    a column.  |<m_a| R |m_b>| = |<m_b| R |m_a>|, as d^s_{m'm} and
    d^s_{mm'} differ only in sign, so the column through an outcome is
    the same law as its row.  spin_transition_matrix(spec) builds that
    matrix symmetric bit for bit and keeps it, so every step after the
    first walks its rows through markov._realize, as every chain walks,
    and building the matrix again for the same spec, as a reload of the
    trajectory does, costs nothing.

    The records are a lazy view derived from the trajectory, so the
    simulation stores one integer per step and nothing else.
    """
    if initial.labels != spec.labels:
        raise DimensionMismatchError("spin chain and initial distribution have different labels")
    trajectory = _realize(spin_transition_matrix(spec), sample(initial, rng), steps, rng)
    return trajectory, MeasurementRecords(trajectory)


def coin_toss_stream(count: int, rng: RngState) -> np.ndarray:
    """Fair bits from a spin-1/2 chain at beta = pi/2.

    Measuring alternately along z and x starting from the balanced
    superposition (first outcome law 1/2, 1/2) gives i.i.d. fair
    outcomes; +1/2 maps to 1 and -1/2 to 0.
    """
    if check_int("count", count, 0) == 0:
        return np.zeros(0, dtype=np.uint8)
    spec = SpinChainSpec(s=HalfInt(1), beta=math.pi / 2.0)
    trajectory, _ = simulate_measurements(spec, Distribution(spec.labels, [0.5, 0.5]), count - 1, rng)
    # outcome index 0 is m = +1/2
    return np.subtract(1, trajectory.states, dtype=np.uint8)
