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
# steps per lockstep segment; even, so all segments share each step's phase
_SEGMENT = 256
# a fix-up pass tests every this many steps whether all segments have met
_MEET_CHECK = 8
# a block of fewer segments, and the rest of a walk that fails to
# couple, is walked by bisect
_MIN_SEGMENTS = 128
# guide cells per lookup-table breakpoint, rounded up to a power of two
_GUIDE_CELLS = 16
# lookup-table entries per phase; a larger chain is walked by bisect
_LUT_CAP = 1 << 20


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
    step index, so any block length keeps the phase.  Every walker below
    gives the states `bisect_right` gives, bit for bit.

    A two-state chain is scanned with numpy: the table [c_r, inf] of row r
    sends a uniform u to u >= c_r, so with a = u >= c_0 and b = u >= c_1
    each uniform maps the state by one of four maps: constant a when
    a == b, the identity when a < b, a swap when a > b.  Either
    non-constant map sends x to x ^ a.  So a state is the value of the
    last constant draw XOR the running parity of a since then, and both
    come from array scans.

    A chain of three or more states is walked in lockstep with numpy.
    Each phase gets a lookup table, built once per walk: its breakpoints
    are the finite entries of all its rows, sorted, and lut[b, x] is
    bisect_right(tables[x], breaks[b - 1]), the next state from x for
    every uniform u in bucket b, the number of breakpoints at or below u.
    Since every table entry is a breakpoint, the lookup is exact.  The
    bucket comes from a guide of equal cells over [0, 1): a cell holding
    no breakpoint has one bucket, and only uniforms in the other cells
    are searched for.  A block is cut into segments of _SEGMENT steps,
    walked side by side with one gather per step, every segment but the
    first from a guessed start, into one path.  Each fix-up pass walks
    the segments again from their true starts (the end of the segment
    before), rewriting the path in place until every one is back on its
    stored path; passes repeat until no start changes.  That is cheap
    because the maps of successive uniforms coalesce: walks started from
    different states meet within a few steps, the coupling behind Propp
    and Wilson's exact sampling.  A chain that does not coalesce (a
    permutation, the identity started off 0) leaves most of the segments
    that the first pass started wrong still wrong; then the block is
    finished by bisect from the first segment not yet resolved, and so is
    the rest of the walk.  Blocks of fewer than _MIN_SEGMENTS segments,
    and chains whose table would pass _LUT_CAP entries (about 101 states),
    are walked by bisect alone, so memory stays bounded for any chain.
    """
    dim = len(tables[0])
    luts = _lookup_tables(tables) if dim > 2 and out.size >= _MIN_SEGMENTS * _SEGMENT else None
    for done in range(0, out.size, _BLOCK):
        block = rng.random_block(min(_BLOCK, out.size - done))
        part = out[done : done + block.size]
        if dim == 2:
            state = _scan_block(tables, done, state, block, part)
        elif luts is None or block.size < _MIN_SEGMENTS * _SEGMENT:
            state = _bisect_block(tables, done, state, block, part)
        else:
            state, coupled = _lockstep_block(tables, luts, done, state, block, part)
            if not coupled:
                luts = None


def _bisect_block(tables: tuple, done: int, state: int, block: np.ndarray, out: np.ndarray) -> int:
    """Steps done + 1..done + out.size by bisect, into out; returns the last state.

    Uniforms are read in pairs, the first through the tables of step done + 1.
    """
    period = len(tables)
    bisect = bisect_right
    view = memoryview(block)
    first = tables[done % period]
    second = tables[(done + 1) % period]
    path = []
    append = path.append
    pairs = iter(view)
    for u, v in zip(pairs, pairs):
        state = bisect(first[state], u)
        append(state)
        state = bisect(second[state], v)
        append(state)
    if out.size % 2:
        state = bisect(first[state], view[-1])
        append(state)
    out[:] = np.fromiter(path, dtype=out.dtype, count=out.size)
    return state


def _lookup_tables(tables: tuple) -> list | None:
    """Per table, (breaks, guide, lut) for _lockstep_block; None if a lut would pass _LUT_CAP entries.

    lut is the (len(breaks) + 1, dim) table of next states, raveled, in
    the state dtype: an entry table[x][j] equal to breaks[r] is at or
    below every uniform of bucket r + 1 and above, so counting entries
    per row by bucket and summing down the buckets gives bisect_right.
    guide cuts [0, 1) into a power of two of equal cells, at least
    _GUIDE_CELLS per breakpoint: a cell that holds no breakpoint has one
    bucket, stored as its lut offset (bucket * dim), and a cell that
    holds one stores -1.
    """
    dim = len(tables[0])
    luts = []
    for table in tables:
        # gathered row by row, so a wide chain stops at the cap and not
        # after a pass over all dim**2 entries
        breaks = set()
        for row in table:
            breaks.update(row[:-1])
            if (len(breaks) + 1) * dim > _LUT_CAP:
                return None
        breaks = np.array(sorted(breaks))
        entries = np.array(table)[:, :-1]
        lut = np.zeros((breaks.size + 1, dim), dtype=_state_dtype(dim))
        np.add.at(lut, (np.searchsorted(breaks, entries) + 1, np.arange(dim)[:, None]), 1)
        np.add.accumulate(lut, axis=0, out=lut)
        cells = 1 << (_GUIDE_CELLS * breaks.size).bit_length()
        # each breakpoint's cell: b * cells is exact, as cells is a power of
        # two, and a breakpoint at or above 1 is above every uniform
        cell = (breaks * cells).astype(np.intp)
        cell = cell[cell < cells]
        guide = np.zeros(cells, dtype=np.int32)
        np.add.at(guide, cell[cell + 1 < cells] + 1, dim)
        np.add.accumulate(guide, out=guide)
        guide[cell] = -1
        luts.append((breaks, guide, lut.ravel()))
    return luts


def _lut_offsets(luts: list, done: int, dim: int, uniforms: np.ndarray) -> np.ndarray:
    """keys[k, s]: the lut offset of uniforms[k, s], which goes through the tables of step done + 1 + k."""
    period = len(luts)
    keys = np.empty(uniforms.shape, dtype=np.int32)
    cells = np.empty((uniforms.shape[0] // period, uniforms.shape[1]), dtype=np.intp)
    for phase in range(period):
        breaks, guide, _ = luts[(done + phase) % period]
        phase_keys = keys[phase::period]
        phase_uniforms = uniforms[phase::period]
        # u * guide.size is exact, so the cast, a floor, is u's cell
        np.multiply(phase_uniforms, guide.size, out=cells, casting="unsafe")
        guide.take(cells, out=phase_keys, mode="clip")
        busy = np.nonzero(phase_keys < 0)
        phase_keys[busy] = np.searchsorted(breaks, phase_uniforms[busy], side="right") * dim
    return keys


def _lockstep_block(tables: tuple, luts: list, done: int, state: int, block: np.ndarray, out: np.ndarray) -> tuple:
    """Steps done + 1..done + out.size in lockstep segments; returns (last state, coupled).

    Step k of segment s (block step s * _SEGMENT + k) leaves through
    keys[k, s], its lut offset, and path[k, s] is the state after it.
    coupled is False when the first fix-up pass left more than half of
    the segments it started wrong still wrong; the block is then finished
    by _bisect_block from the first segment not yet resolved, as is the
    tail past the last whole segment in any case.
    """
    period, dim, seg = len(tables), len(tables[0]), _SEGMENT
    count = out.size // seg
    keys = _lut_offsets(luts, done, dim, block[: count * seg].reshape(count, seg).T)
    step_luts = [luts[(done + k) % period][2] for k in range(period)] * (seg // period)
    path = np.empty((seg, count), dtype=_state_dtype(dim))
    starts = np.zeros(count, dtype=path.dtype)
    starts[0] = state
    index = np.empty(count, dtype=np.intp)
    states = starts
    for k in range(seg):
        states = step_luts[k].take(np.add(keys[k], states, out=index), out=path[k], mode="clip")
    # a fix-up pass rewrites path in place, walking every segment again
    # from the end of the one before it; once every segment is back on
    # its stored path, it repeats that path to the end
    stored = np.empty(count, dtype=path.dtype)
    wrong = np.flatnonzero(path[-1, :-1] != starts[1:]) + 1
    first_pass = coupled = True
    while wrong.size and coupled:
        starts[1:] = path[-1, :-1]
        states = starts
        for k in range(seg):
            check = k % _MEET_CHECK == _MEET_CHECK - 1
            if check:
                stored[:] = path[k]
            states = step_luts[k].take(np.add(keys[k], states, out=index), out=path[k], mode="clip")
            if check and (states == stored).all():
                break
        before, wrong = wrong.size, np.flatnonzero(path[-1, :-1] != starts[1:]) + 1
        coupled = not first_pass or 2 * wrong.size <= before
        first_pass = False
    first = int(wrong[0]) if wrong.size else count
    out[: first * seg].reshape(first, seg)[:] = path[:, :first].T
    state = int(path[-1, first - 1])
    start = first * seg
    return _bisect_block(tables, done + start, state, block[start:], out[start:]), coupled


def _scan_block(tables: tuple, done: int, state: int, block: np.ndarray, out: np.ndarray) -> int:
    """Steps done + 1..done + out.size of a two-state chain by scans; as _bisect_block.

    Index 0 of the scans stands for the start state, taken as a constant
    draw; index k >= 1 is the block's step k, which is step done + k.
    """
    period = len(tables)
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
