"""Distributions, stochastic matrices, and chain simulation.

A chain is specified by a row-stochastic matrix over a fixed ordered
label set plus an initial distribution; trajectories store outcome
indices into that label order.  Distributions and matrix rows pass one
probability check, which never renormalizes: a vector that fails it is
reported, not repaired, because the stochasticity of quantum-derived
matrices is a correctness signal.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidDistributionError,
    check_int,
    check_real,
)
from .rng import RngState

SUM_TOL = 1e-9

# uniforms per block draw, shared by every simulator; block draws equal
# one-at-a-time draws, so the size changes no trajectory
_BLOCK = 1 << 16


def _state_dtype(dim: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index of dim labels."""
    return np.min_scalar_type(dim - 1)


def _labels(labels) -> tuple:
    """The outcome labels as a tuple, if no label appears twice."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError(f"outcome labels must be distinct, got {labels!r}")
    return labels


def _probabilities(values, labels: tuple, ndim: int) -> np.ndarray:
    """Distribution.probs (ndim 1) or StochasticMatrix.rows (ndim 2), checked, as a read-only copy.

    In order: len(labels) entries along each axis, finite and non-negative
    entries, and each vector along the last axis summing to 1 within SUM_TOL.
    """
    arr = np.array(values, dtype=float)
    n = len(labels)
    if arr.shape != (n,) * ndim:
        raise DimensionMismatchError(f"expected shape {(n,) * ndim} for {n} labels, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistributionError("probabilities must be finite")
    if np.any(arr < 0.0):
        raise InvalidDistributionError(f"negative probability: min entry {arr.min()}")
    sums = arr.sum(axis=-1).reshape(-1)
    errors = np.abs(sums - 1.0)
    if np.any(errors > SUM_TOL):
        i = int(np.argmax(errors))
        where = f" in row {i}" if ndim == 2 else ""
        raise InvalidDistributionError(f"probabilities{where} sum to {float(sums[i])!r}, not 1 within {SUM_TOL}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over an ordered outcome label set."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = _labels(self.labels)
        object.__setattr__(self, "probs", _probabilities(self.probs, labels, 1))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic matrix; row i is the next-outcome distribution from outcome i."""

    labels: tuple
    rows: np.ndarray

    def __post_init__(self):
        labels = _labels(self.labels)
        object.__setattr__(self, "rows", _probabilities(self.rows, labels, 2))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A realized outcome sequence: states[n] indexes labels; steps + 1 states.

    States are stored in the narrowest unsigned dtype that holds every
    label index: one byte per step for up to 256 labels.
    """

    labels: tuple
    states: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.states)
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidArgumentError("trajectory states must be integer indices")
        labels = _labels(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidArgumentError(f"expected a non-empty 1-d array of states, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= len(labels):
            raise InvalidArgumentError("trajectory contains an out-of-range outcome index")
        # a read-only view: the caller's array stays writable, and no copy is made
        arr = arr.astype(_state_dtype(len(labels)), copy=False).view()
        arr.flags.writeable = False
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def steps(self) -> int:
        return self.states.size - 1


@dataclass(frozen=True)
class StationaryResult:
    distribution: Distribution
    iterations: int
    residual: float


def _cumulative(rows) -> list:
    """Inverse-CDF tables in stored label order, one per row.

    Each table holds the row's running sums with the last one replaced by
    inf, so bisect_right never returns len(row): a uniform at or above the
    row's float sum, which can fall short of 1, lands on the last label.
    """
    tables = []
    for row in rows:
        cum = np.cumsum(row).tolist()
        cum[-1] = math.inf
        tables.append(cum)
    return tables


def _walk(tables: tuple, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states after steps 1..out.size into out, one uniform per step.

    Step k leaves `state` through tables[(k - 1) % p][state], for a period
    p of 1 (a plain chain) or 2 (alternating measurement axes).  Uniforms
    come in blocks of _BLOCK; each block's tables follow from the global
    step index, so any block length keeps the phase.

    With more than two states every step is a bisect in Python.  A
    two-state chain is scanned with numpy instead, with the same result
    bit for bit: the table [c_r, inf] of row r sends a uniform u to
    u >= c_r, so with a = u >= c_0 and b = u >= c_1 each uniform maps the
    state by one of four maps: constant a when a == b, the identity when
    a < b, a swap when a > b.  Either non-constant map sends x to x ^ a.
    So a state is the value of the last constant draw XOR the running
    parity of a since then, and both come from array scans.
    """
    walk_block = _scan_block if len(tables[0]) == 2 else _bisect_block
    steps = out.size
    done = 0
    while done < steps:
        count = min(_BLOCK, steps - done)
        state = walk_block(tables, done, state, rng, out[done : done + count])
        done += count


def _bisect_block(tables: tuple, done: int, state: int, rng: RngState, out: np.ndarray) -> int:
    """Steps done + 1..done + out.size by bisect, into out; returns the last state.

    Uniforms are read in pairs, the first through the tables of step done + 1.
    """
    period = len(tables)
    bisect = bisect_right
    block = rng.random_block(out.size).tolist()
    first = tables[done % period]
    second = tables[(done + 1) % period]
    path = []
    append = path.append
    pairs = iter(block)
    for u, v in zip(pairs, pairs):
        state = bisect(first[state], u)
        append(state)
        state = bisect(second[state], v)
        append(state)
    if out.size % 2:
        state = bisect(first[state], block[-1])
        append(state)
    out[:] = np.fromiter(path, dtype=out.dtype, count=out.size)
    return state


def _scan_block(tables: tuple, done: int, state: int, rng: RngState, out: np.ndarray) -> int:
    """Steps done + 1..done + out.size of a two-state chain by scans; as _bisect_block.

    Index 0 of the scans stands for the start state, taken as a constant
    draw; index k >= 1 is the block's step k, which is step done + k.
    """
    period = len(tables)
    block = rng.random_block(out.size)
    a = np.empty(block.size + 1, dtype=bool)
    b = np.empty(block.size + 1, dtype=bool)
    a[0] = b[0] = state
    for phase in range(period):
        table = tables[(done + phase) % period]
        np.greater_equal(block[phase::period], table[0][0], out=a[1 + phase :: period])
        np.greater_equal(block[phase::period], table[1][0], out=b[1 + phase :: period])
    constant = np.equal(a, b, out=b)
    # last[k]: index of the last constant draw at or before k
    last = np.arange(block.size + 1, dtype=np.int32)
    last *= constant
    np.maximum.accumulate(last, out=last)
    parity = np.bitwise_xor.accumulate(a)
    # parity before each index, so parity ^ before[last] is the parity
    # since the last constant draw, XOR that draw's value
    before = np.bitwise_xor(parity, a, out=a)
    states = np.bitwise_xor(parity, np.take(before, last), out=parity)
    out[:] = states[1:]
    return int(states[-1])


def sample(dist: Distribution, rng: RngState) -> int:
    """One outcome index drawn from dist, consuming exactly one uniform."""
    return bisect_right(_cumulative([dist.probs])[0], rng.random())


def _realize(initial: Distribution, rows: tuple, steps: int, rng: RngState) -> Trajectory:
    """steps transitions from a start drawn from initial; step k walks rows[(k - 1) % len(rows)]."""
    check_int("steps", steps, 0)
    states = np.empty(steps + 1, dtype=_state_dtype(initial.dim))
    states[0] = sample(initial, rng)
    _walk(tuple(map(_cumulative, rows)), int(states[0]), states[1:], rng)
    return Trajectory(labels=initial.labels, states=states, seed=rng.seed)


def simulate_chain(P: StochasticMatrix, initial: Distribution, steps: int, rng: RngState) -> Trajectory:
    """Realize steps transitions of the chain; states[0] is drawn from initial."""
    if P.labels != initial.labels:
        raise DimensionMismatchError("matrix and initial distribution have different labels")
    return _realize(initial, (P.rows,), steps, rng)


def _check_tol(tol) -> None:
    """Refuse a tol that is not a finite positive real."""
    if check_real("tol", tol) <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")


def stationary(P: StochasticMatrix, tol: float = 1e-10, max_iters: int = 100_000) -> StationaryResult:
    """Power-iterate to a distribution pi with TV(pi P, pi) <= tol.

    The start vector is a deterministic descending ramp rather than the
    uniform vector: uniform is exactly fixed by every doubly stochastic
    matrix, which would mask non-convergence of periodic chains.
    ConvergenceError is raised when max_iters pass without reaching tol,
    and when the iterate that reaches it fails the probability check:
    rows that each pass SUM_TOL can still carry its mass past it.
    """
    _check_tol(tol)
    check_int("max_iters", max_iters, 1)
    dim = P.dim
    ramp = np.arange(dim, 0, -1, dtype=float)
    curr = (ramp / ramp.sum()) @ P.rows
    residual = np.inf
    for iteration in range(1, max_iters + 1):
        nxt = curr @ P.rows
        residual = 0.5 * float(np.abs(nxt - curr).sum())
        if residual <= tol:
            try:
                distribution = Distribution(P.labels, curr)
            except InvalidDistributionError as exc:
                raise ConvergenceError(
                    f"the iterate converged (residual {residual:.3e}) but is not a distribution: {exc}",
                    last_iterate=curr,
                    residual=residual,
                    iterations=iteration,
                ) from None
            return StationaryResult(distribution=distribution, iterations=iteration, residual=residual)
        curr = nxt
    raise ConvergenceError(
        f"no stationary distribution within {max_iters} iterations "
        f"(residual {residual:.3e}); the chain may be periodic",
        last_iterate=curr,
        residual=residual,
        iterations=max_iters,
    )
