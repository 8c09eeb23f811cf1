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
from .rng import _SEED_MAX, RngState

SUM_TOL = 1e-9

# uniforms per block draw, shared by every simulator; block draws equal
# one-at-a-time draws, so the size changes no trajectory
_BLOCK = 1 << 16
# steps per lockstep segment
_SEGMENT = 256
# a fix-up pass tests every this many steps whether all segments have met
_MEET_CHECK = 8
# a batch of fewer segments, and the rest of a walk that fails to
# couple, is walked one step at a time; a chain walk of fewer segments
# is walked by bisect
_MIN_SEGMENTS = 128
# guide cells per lookup-table breakpoint, rounded up to a power of two
_GUIDE_CELLS = 16
# lookup-table entries; a larger chain is walked by bisect
_LUT_CAP = 1 << 20


def _state_dtype(dim: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index of dim labels."""
    return np.min_scalar_type(dim - 1)


def _batch_segments(step_bytes: int) -> int:
    """Segments in one lockstep batch whose per-step arrays take step_bytes a segment-step.

    The batch rule: whole blocks of _BLOCK // _SEGMENT segments, as many
    as fit their arrays in 8 * _BLOCK bytes, the size of one block of
    uniforms, and never fewer than one: 4 blocks at 2 bytes a step, 2 at
    3 or 4 bytes and 1 from 5.  Each numpy step of _couple then walks
    more segments for the same cost.
    """
    return max(1, 8 // step_bytes) * (_BLOCK // _SEGMENT)


def _labels(labels) -> tuple:
    """The outcome labels as a tuple: at least one, none whose str holds a line break, no two with the same str.

    This is the one label rule.  Every labelled object is built under it
    and every file is read under it, so whatever is built can be written
    and read back: a file gives each label's str its own line, and
    labels are read back as those strings.  So two labels with the same
    str are refused whether or not they are equal: HalfInt(2) and 1 are
    not, and both render as "1".
    """
    labels = tuple(labels)
    strings = [str(label) for label in labels]
    if not labels:
        raise InvalidArgumentError("there must be at least one outcome label")
    for label in strings:
        if "\n" in label or "\r" in label:
            raise InvalidArgumentError(f"label {label!r} contains a line break")
    if len(set(strings)) != len(labels):
        raise InvalidArgumentError(f"outcome labels must be distinct, got {tuple(strings)!r}")
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
        check_int("seed", self.seed, 0, _SEED_MAX)
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


def _walk(table: list, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states after steps 1..out.size into out, one uniform per step.

    out takes the chain's state dtype, _state_dtype(len(table)).  Every
    step leaves `state` through table[state], the running sums of its
    row.  Uniforms come in blocks of _BLOCK, and every walker below
    gives the states `bisect_right` gives, bit for bit.  Each walk takes
    one of three kernels.

    A two-state chain is scanned with numpy: the table [c_r, inf] of row r
    sends a uniform u to u >= c_r, so with a = u >= c_0 and b = u >= c_1
    each uniform maps the state by one of four maps: constant a when
    a == b, the identity when a < b, a swap when a > b.  Either
    non-constant map sends x to x ^ a.  So a state is the value of the
    last constant draw XOR the running parity of a since then, and both
    come from array scans.

    A chain of three or more states is walked through a lookup table,
    built once per walk: its breakpoints are the finite entries of all
    its rows, sorted, and lut[b, x] is bisect_right(table[x], breaks[b -
    1]), the next state from x for every uniform u in bucket b, the
    number of breakpoints at or below u.  Since every table entry is a
    breakpoint, the lookup is exact.  The bucket comes from a guide of
    equal cells over [0, 1): a cell holding no breakpoint has one
    bucket, and only uniforms in the other cells are searched for.  Each
    uniform's lut offset is stored in the narrowest unsigned dtype of
    the lut's size, and _walk_chain walks the whole walk from those
    offsets through _lockstep.  Walks shorter than _MIN_SEGMENTS
    segments are walked by bisect, since they would not repay building
    the lut, and so are chains whose lut would pass _LUT_CAP entries
    (about 101 states), so memory stays bounded for any chain.
    """
    dim = len(table)
    lookup = dim > 2 and out.size >= _MIN_SEGMENTS * _SEGMENT and _lookup_table(table)
    if lookup:
        _walk_chain(lookup, dim, state, out, rng)
        return
    walker = _scan_block if dim == 2 else _bisect_block
    for start in range(0, out.size, _BLOCK):
        block = rng.random_block(min(_BLOCK, out.size - start))
        state = walker(table, state, block, out[start : start + block.size])


def _bisect_block(table: list, state: int, block: np.ndarray, out: np.ndarray) -> int:
    """The state after each uniform of block by bisect, from state, into out; returns the last state."""
    bisect = bisect_right
    path = []
    append = path.append
    for u in memoryview(block):
        state = bisect(table[state], u)
        append(state)
    out[:] = np.fromiter(path, dtype=out.dtype, count=out.size)
    return state


def _lookup_table(table: list) -> tuple | None:
    """(breaks, guide, lut) for the lockstep walk; None if the lut would pass _LUT_CAP entries.

    lut is the (len(breaks) + 1, dim) table of next states, raveled, in
    the state dtype: an entry table[x][j] equal to breaks[r] is at or
    below every uniform of bucket r + 1 and above, so counting entries
    per row by bucket and summing down the buckets gives bisect_right.
    guide cuts [0, 1) into a power of two of equal cells, at least
    _GUIDE_CELLS per breakpoint: a cell that holds no breakpoint has one
    bucket, stored as its lut offset (bucket * dim), and a cell that
    holds one stores the dtype's largest value.  The guide takes the
    narrowest unsigned dtype of the lut's size, which holds each offset
    and stays above them all.
    """
    dim = len(table)
    # gathered row by row, so a wide chain stops at the cap and not after
    # a pass over all dim**2 entries
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
    key = _state_dtype(lut.size)
    cells = 1 << (_GUIDE_CELLS * breaks.size).bit_length()
    # each breakpoint's cell: b * cells is exact, as cells is a power of
    # two, and a breakpoint at or above 1 is above every uniform
    cell = (breaks * cells).astype(np.intp)
    cell = cell[cell < cells]
    guide = np.zeros(cells, dtype=key)
    np.add.at(guide, cell[cell + 1 < cells] + 1, dim)
    np.add.accumulate(guide, out=guide)
    guide[cell] = np.iinfo(key).max
    return breaks, guide, lut.ravel()


def _lut_offsets(breaks: np.ndarray, guide: np.ndarray, dim: int, uniforms: np.ndarray) -> np.ndarray:
    """The lut offset of each uniform, in the guide's dtype."""
    cells = np.empty(uniforms.size, dtype=np.intp)
    # u * guide.size is exact, so the cast, a floor, is u's cell
    np.multiply(uniforms, guide.size, out=cells, casting="unsafe")
    offsets = guide.take(cells, mode="clip")
    busy = np.flatnonzero(offsets == np.iinfo(guide.dtype).max)
    offsets[busy] = np.searchsorted(breaks, uniforms[busy], side="right") * dim
    return offsets


def _walk_chain(lookup: tuple, dim: int, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states of a chain of dim states after steps 1..out.size from state into out, through _lockstep.

    lookup is the chain's (breaks, guide, lut).  A step takes one
    uniform, and its value is the uniform's lut offset, so the driver's
    rules give batches of 4 blocks of segments at 3 states (1-byte
    offsets), 2 at 9 (2 bytes) and 1 at 51 (4 bytes), and draws of a
    quarter block of steps.  Step k of segment s of a batch leaves
    through lut at batch[k, s]; every segment but the first is guessed
    to start at state 0.
    """
    breaks, guide, lut = lookup

    def draw(count):
        return _lut_offsets(breaks, guide, dim, rng.random_block(count))

    def guess(state, batch):
        index = np.empty(batch.shape[1], dtype=np.intp)

        def advance(k, states, into):
            # the sum is formed in the offsets' dtype, which holds every lut index
            offsets = np.add(batch[k], states, out=index)
            return lut.take(offsets, out=into, mode="clip")

        starts = np.zeros(batch.shape[1], dtype=lut.dtype)
        starts[0] = state
        return starts, advance

    def walk(offsets, state, into):
        return _walk_offsets(lut, offsets, state, into)

    _lockstep(out, state, 1, guide.dtype, draw, guess, walk)


def _couple(advance, path: np.ndarray, starts: np.ndarray) -> tuple:
    """Walk the columns of path, segments of path.shape[0] steps, side by side; returns (first, coupled).

    advance(k, states, into) writes into `into`, and returns, the states
    after step k of every segment from states.  Segment 0 starts at
    starts[0] and every other one at its guess starts[s], which the
    passes overwrite; path[k, s] is the state after step k of segment
    s.  Each fix-up pass walks the segments again from the end of the
    one before, rewriting path in place, and stops once every segment is
    back on its stored path; passes repeat until no start changes.
    first is the first segment whose path is not yet right.  coupled is
    False when the first fix-up pass left more than half of the segments
    it started wrong still wrong; the passes then stop, and _lockstep
    walks the rest of the walk one step at a time, from segment first on.
    """
    seg, count = path.shape
    states = starts
    for k in range(seg):
        states = advance(k, states, path[k])
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
            states = advance(k, states, path[k])
            if check and (states == stored).all():
                break
        before, wrong = wrong.size, np.flatnonzero(path[-1, :-1] != starts[1:]) + 1
        coupled = not first_pass or 2 * wrong.size <= before
        first_pass = False
    return (int(wrong[0]) if wrong.size else count), coupled


def _lockstep(out: np.ndarray, state: int, per_step: int, dtype: np.dtype, draw, guess, walk) -> None:
    """Walk all of out from state, in lockstep batches and then one step at a time.

    The one walk loop of the lut chain and register walkers, which
    supply the parts:
    - per_step, the uniforms one step takes, and dtype, that of the
      value each step is walked by;
    - draw(count) returns the values of the next count steps;
    - guess(state, batch) returns the starts of the segments of batch,
      whose column s holds the values of segment s, the first at state
      and the rest guessed, and the advance that _couple walks them by;
    - walk(values, state, into) walks the values one step at a time
      from state into `into` and returns the last state.
    The driver sizes both its batches and its draws, each by one rule.
    A batch holds _batch_segments(step_bytes) segments of _SEGMENT
    steps, where a step stores its value and its state in out's dtype.
    A draw is a quarter block of uniforms, _BLOCK // 4 // per_step
    steps, cut to whole segments when it holds at least one: draws of
    half or a whole block, with their cells, walked chains slower.
    A batch is drawn a draw at a time, and never less than a segment
    at a time, stored transposed, and walked by _couple, whose coupled
    prefix is copied into out.  A batch that
    _couple gives up on is finished by walk from the first segment not
    yet resolved, from the values it stores, since its uniforms are
    gone.  Batches stop before one of fewer than _MIN_SEGMENTS segments
    and after one that gave up; walk takes the rest of out, a draw at a
    time.  The batch arrays are allocated only once a batch is walked.
    """
    seg = _SEGMENT
    width = _batch_segments(dtype.itemsize + out.itemsize)
    draw_steps = max(1, _BLOCK // 4 // per_step)
    chunk = max(1, draw_steps // seg)
    draw_steps = draw_steps // seg * seg or draw_steps
    done, coupled = 0, True
    if min(width, out.size // seg) >= _MIN_SEGMENTS:
        values = np.empty((seg, width), dtype=dtype)
        path = np.empty((seg, width), dtype=out.dtype)
        while coupled and (count := min(width, (out.size - done) // seg)) >= _MIN_SEGMENTS:
            batch = values[:, :count]
            for s in range(0, count, chunk):
                drawn = min(chunk, count - s)
                batch[:, s : s + drawn] = draw(drawn * seg).reshape(drawn, seg).T
            starts, advance = guess(state, batch)
            first, coupled = _couple(advance, path[:, :count], starts)
            walked = out[done : done + count * seg].reshape(count, seg)
            walked[:first] = path[:, :first].T
            state = int(path[-1, first - 1])
            for s in range(first, count):
                state = walk(batch[:, s], state, walked[s])
            done += count * seg
    for start in range(done, out.size, draw_steps):
        count = min(draw_steps, out.size - start)
        state = walk(draw(count), state, out[start : start + count])


def _walk_offsets(lut: np.ndarray, offsets: np.ndarray, state: int, out: np.ndarray) -> int:
    """One step from x to lut[offset + x] per offset, from state, into out; returns the last state."""
    lut = memoryview(lut)
    out[:] = [state := lut[offset + state] for offset in offsets.tolist()]
    return state


def _scan_block(table: list, state: int, block: np.ndarray, out: np.ndarray) -> int:
    """The states of a two-state chain after each uniform of block by scans; as _bisect_block.

    Index 0 of the scans stands for the start state, taken as a constant
    draw; index k >= 1 is the block's step k.
    """
    a = np.empty(block.size + 1, dtype=bool)
    b = np.empty(block.size + 1, dtype=bool)
    a[0] = b[0] = state
    np.greater_equal(block, table[0][0], out=a[1:])
    np.greater_equal(block, table[1][0], out=b[1:])
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


def _realize(initial: Distribution, rows: np.ndarray, steps: int, rng: RngState) -> Trajectory:
    """steps transitions through the chain of rows from a start drawn from initial."""
    check_int("steps", steps, 0)
    states = np.empty(steps + 1, dtype=_state_dtype(initial.dim))
    states[0] = sample(initial, rng)
    _walk(_cumulative(rows), int(states[0]), states[1:], rng)
    return Trajectory(labels=initial.labels, states=states, seed=rng.seed)


def simulate_chain(P: StochasticMatrix, initial: Distribution, steps: int, rng: RngState) -> Trajectory:
    """Realize steps transitions of the chain; states[0] is drawn from initial."""
    if P.labels != initial.labels:
        raise DimensionMismatchError("matrix and initial distribution have different labels")
    return _realize(initial, P.rows, steps, rng)


def _check_tol(tol) -> None:
    """Refuse a tol that is not a finite positive real."""
    if check_real("tol", tol) <= 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")


def stationary(P: StochasticMatrix, tol: float = 1e-10, max_iters: int = 100_000) -> StationaryResult:
    """Power-iterate to a distribution pi with TV(pi P, pi) <= tol.

    The start vector is a deterministic descending ramp rather than the
    uniform vector: uniform is exactly fixed by every doubly stochastic
    matrix, which would mask non-convergence of periodic chains.  The
    iteration also stops when the iterates, each scaled to sum 1, are
    within tol of each other: rows that each pass SUM_TOL can still
    carry the iterate's mass past it, a little further each step, so the
    unscaled residual stays near their excess.  The residual reported is
    the unscaled one.  ConvergenceError is raised when max_iters pass
    without either, and when the iterate that stops fails the
    probability check.

    For iterates of masses a and b, the unscaled residual is at most a
    times the scaled one plus |a - b| / 2, so the scaled iterates are
    formed only when the unscaled residual is within a * tol + |a - b| /
    2, widened by a margin for rounding that grows with dim and the
    masses; each iteration sums one iterate, whose mass is the next a.
    """
    _check_tol(tol)
    check_int("max_iters", max_iters, 1)
    dim = P.dim
    ramp = np.arange(dim, 0, -1, dtype=float)
    curr = (ramp / ramp.sum()) @ P.rows
    mass = float(curr.sum())
    # more than the rounding of the sums, the scaling and the differences
    margin = 8 * dim * np.finfo(float).eps
    residual = np.inf
    for iteration in range(1, max_iters + 1):
        nxt = curr @ P.rows
        next_mass = float(nxt.sum())
        residual = 0.5 * float(np.abs(nxt - curr).sum())
        # the scaled iterates can be within tol only where this holds
        near = 2 * residual <= 2 * mass * tol + abs(mass - next_mass) + margin * (mass + next_mass)
        if residual <= tol or (near and 0.5 * float(np.abs(nxt / next_mass - curr / mass).sum()) <= tol):
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
        curr, mass = nxt, next_mass
    raise ConvergenceError(
        f"no stationary distribution within {max_iters} iterations "
        f"(residual {residual:.3e}); the chain may be periodic",
        last_iterate=curr,
        residual=residual,
        iterations=max_iters,
    )
