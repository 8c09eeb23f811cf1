"""Distributions, stochastic matrices, and chain simulation.

A chain is specified by a row-stochastic matrix over a fixed ordered
label set plus an initial distribution; trajectories store outcome
indices into that label order.  Distributions and matrix rows pass one
probability check, which never renormalizes: a vector that fails it is
reported, not repaired, because the stochasticity of quantum-derived
matrices is a correctness signal.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

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

# uniforms per block, shared by every simulator, whose walks draw an
# eighth of a block at a time; block draws equal one-at-a-time draws,
# so the size changes no trajectory
_BLOCK = 1 << 16
# steps per lockstep segment
_SEGMENT = 128
# a fix-up pass tests every this many steps whether all segments have met
_MEET_CHECK = 8
# a batch of fewer segments, and the rest of a walk that fails to
# couple, is walked one step at a time; a chain walk of fewer segments
# is walked by bisect
_MIN_SEGMENTS = 256
# guide cells per lookup-table breakpoint, rounded up to a power of two
_GUIDE_CELLS = 16
# lookup-table entries; a larger chain is walked by bisect
_LUT_CAP = 1 << 20


def _state_dtype(dim: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every index of dim labels."""
    return np.min_scalar_type(dim - 1)


def _batch_segments(step_bytes: int, table_bytes: int) -> int:
    """Segments in one lockstep batch whose arrays take step_bytes a segment-step, beside tables of table_bytes.

    The batch rule: whole blocks of _BLOCK // _SEGMENT segments, as many
    as fit their arrays in 8 * _BLOCK bytes, the size of one block of
    uniforms, after the walk's lookup tables, rounded to the nearest
    block and never fewer than one: 4 blocks at 3 and 9 states, and 1 at
    51 and 65, whose tables take half a block and more.  Rounding keeps
    a small chain's fourth block, which its few table bytes would cost
    it under a floor.  Each numpy step of _couple walks more segments
    for the same cost in a wider batch.
    """
    return max(1, round((8 * _BLOCK - table_bytes) / (step_bytes * _BLOCK))) * (_BLOCK // _SEGMENT)


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


def _cumulative(rows) -> np.ndarray:
    """Inverse-CDF tables in stored label order, one per row, from one cumsum along the rows.

    Each table holds the row's running sums with the last one replaced by
    inf, so bisect_right never returns len(row): a uniform at or above the
    row's float sum, which can fall short of 1, lands on the last label.
    A running sum along the last axis adds each row's entries in order,
    as a cumsum of that row alone does, so the sums are the same floats.
    """
    tables = np.cumsum(rows, axis=-1)
    tables[..., -1] = np.inf
    return tables


def _walk(table: np.ndarray, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states after steps 1..out.size into out, one uniform per step.

    out takes the chain's state dtype, _state_dtype(len(table)).  Every
    step leaves `state` through table[state], the running sums of its
    row.  Each walk takes one of three kernels, and every one gives the
    states `bisect_right` gives, bit for bit.  All three are walked by
    _lockstep, so every walk draws its uniforms an eighth of a block,
    8192, at a time; the scan and bisect are given no guess, so the
    driver walks them one draw at a time.

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
    uniform's key, its lut offset or, where the offsets would take more
    bytes, its bucket, is stored in the narrowest unsigned dtype that
    holds every bucket, and _walk_chain walks the whole walk from those
    keys through _lockstep.  Walks shorter than _MIN_SEGMENTS
    segments are walked by bisect, since they would not repay building
    the lut, and so are chains whose lut would pass _LUT_CAP entries
    (about 101 states), so memory stays bounded for any chain.  Such a
    chain is refused only once its breakpoints are sorted: while it is
    refused it holds the sorted copy of its entries, 8 bytes an entry,
    and the distinct ones with their mask, up to 9 more, so the attempt
    takes less than the lists of Python floats that bisect then walks,
    32 bytes an entry.
    """
    dim = len(table)
    lookup = dim > 2 and out.size >= _MIN_SEGMENTS * _SEGMENT and _lookup_table(table)
    if lookup:
        _walk_chain(lookup, dim, state, out, rng)
        return
    walk = partial(_scan_block, table) if dim == 2 else partial(_bisect_block, table.tolist())
    _lockstep(out, state, 0, None, rng.random_block, None, walk)


def _bisect_block(table: list, block: np.ndarray, state: int, out: np.ndarray) -> int:
    """The state after each uniform of block by bisect, from state, into out; returns the last state."""
    out[:] = [state := bisect_right(table[state], u) for u in memoryview(block)]
    return state


def _lookup_table(table: np.ndarray) -> tuple | None:
    """(breaks, guide, lut, scale) for the lockstep walk; None if the lut would pass _LUT_CAP entries.

    breaks are the distinct finite entries of all the rows, from one sort
    of all of them with each run of equal values kept once, so -0.0 and
    0.0 are one breakpoint; the cap is checked on their count.  lut is
    the (len(breaks) + 1, dim) table of next states, raveled, in the
    state dtype: an entry table[x][j] equal to breaks[r] is at or
    below every uniform of bucket r + 1 and above, so counting entries
    per row by bucket and summing down the buckets gives bisect_right.
    guide cuts [0, 1) into a power of two of equal cells, at least
    _GUIDE_CELLS per breakpoint: a cell that holds no breakpoint has one
    bucket, and stores its key, bucket * scale, and a cell that holds
    one stores the dtype's largest value.  The guide takes the narrowest
    unsigned dtype that holds len(breaks) + 1, which holds each bucket
    and stays above them all.  A key is the bucket's lut offset (scale
    dim) when the lut's size fits that dtype too, and the bucket itself
    (scale 1) when it does not, so it never takes more bytes than the
    bucket and is scaled in the walk only when it must be.
    """
    dim = len(table)
    entries = table[:, :-1]
    breaks = np.sort(entries, axis=None)
    breaks = breaks[np.append(True, breaks[1:] != breaks[:-1])]
    if (breaks.size + 1) * dim > _LUT_CAP:
        return None
    lut = np.zeros((breaks.size + 1, dim), dtype=_state_dtype(dim))
    np.add.at(lut, (np.searchsorted(breaks, entries) + 1, np.arange(dim)[:, None]), 1)
    np.add.accumulate(lut, axis=0, out=lut)
    key = _state_dtype(breaks.size + 2)
    scale = dim if _state_dtype(lut.size) == key else 1
    cells = 1 << (_GUIDE_CELLS * breaks.size).bit_length()
    # each breakpoint's cell: b * cells is exact, as cells is a power of
    # two, and a breakpoint at or above 1 is above every uniform
    cell = (breaks * cells).astype(np.intp)
    cell = cell[cell < cells]
    guide = np.zeros(cells, dtype=key)
    np.add.at(guide, cell[cell + 1 < cells] + 1, scale)
    np.add.accumulate(guide, out=guide)
    guide[cell] = np.iinfo(key).max
    return breaks, guide, lut.ravel(), scale


def _keys(breaks: np.ndarray, guide: np.ndarray, scale: int, uniforms: np.ndarray) -> np.ndarray:
    """The key, bucket * scale, of each uniform, in the guide's dtype; uniforms is scaled in place.

    u * guide.size is exact, as guide.size is a power of two, so its
    cast, a floor, is u's cell, and scaled / guide.size is u again.
    Scaling in place lets the float-to-intp cast run with no buffer.
    """
    scaled = np.multiply(uniforms, guide.size, out=uniforms)
    keys = guide.take(scaled.astype(np.intp), mode="clip")
    busy = np.flatnonzero(keys == np.iinfo(guide.dtype).max)
    keys[busy] = np.searchsorted(breaks, scaled[busy] / guide.size, side="right") * scale
    return keys


def _walk_chain(lookup: tuple, dim: int, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states of a chain of dim states after steps 1..out.size from state into out, through _lockstep.

    lookup is the chain's (breaks, guide, lut, scale).  A step takes one
    uniform, and its value is the uniform's key, so the driver's rules
    give batches of 4 blocks of segments at 3 states (1-byte lut
    offsets) and at 9 (1-byte buckets), 1 at 51 and 65 (2-byte buckets,
    beside half a block of tables and more), and draws of an eighth of
    a block of steps.  Step k of segment s of a batch leaves x through
    lut at its key plus x, once a bucket key is scaled by dim; that
    product is formed in intp, as a narrow bucket times dim would wrap.
    Every segment but the first is guessed to start at state 0.
    """
    breaks, guide, lut, scale = lookup

    def offsets(keys, out=None):
        return keys if scale == dim else np.multiply(keys, dim, out=out, dtype=np.intp)

    def draw(count):
        return _keys(breaks, guide, scale, rng.random_block(count))

    def guess(state, batch):
        index = np.empty(batch.shape[1], dtype=np.intp)

        def advance(k, states, into):
            # an offset key plus a state is formed in the keys' dtype, which holds every lut index
            return lut.take(np.add(offsets(batch[k], index), states, out=index), out=into, mode="clip")

        starts = np.zeros(batch.shape[1], dtype=lut.dtype)
        starts[0] = state
        return starts, advance

    def walk(keys, state, into):
        return _walk_offsets(lut, offsets(keys), state, into)

    _lockstep(out, state, breaks.nbytes + guide.nbytes + lut.nbytes, guide.dtype, draw, guess, walk)


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


def _lockstep(out: np.ndarray, state: int, tables: int, dtype: np.dtype | None, draw, guess, walk) -> None:
    """Walk all of out from state, in lockstep batches and then one step at a time.

    The one draw loop of every walker: the two-state scan, bisect and
    the lut chain walk, which the register takes too.  Each supplies
    the parts:
    - tables, the bytes of the walk's lookup tables, and dtype, that of
      the value each step is walked by, one uniform's key;
    - draw(count) returns the values of the next count steps;
    - guess(state, batch) returns the starts of the segments of batch,
      whose column s holds the values of segment s, the first at state
      and the rest guessed, and the advance that _couple walks them by;
      the scan and bisect give None, no tables and no dtype, and are
      never batched;
    - walk(values, state, into) walks the values one step at a time
      from state into `into` and returns the last state.
    The driver sizes both its batches and its draws, each by one rule.
    A batch holds _batch_segments(step_bytes, tables) segments of
    _SEGMENT steps, where a step stores its value and its state in
    out's dtype, so the batch and the tables share 8 * _BLOCK bytes.  A
    draw is an eighth of a block of uniforms, 8192, cut to whole
    segments when it holds at least one: a draw, its cells and its keys
    sit beside the tables and the batch, and with quarter-block draws a
    65-state walk peaked at 1.79 blocks of uniforms, against 1.51.  A
    batch is drawn a draw at a time, and never less than a segment at a
    time, stored transposed, and walked by _couple, whose coupled prefix
    is copied into out.  A batch that _couple gives
    up on is finished by walk from the first segment not yet resolved,
    from the values it stores, since its uniforms are gone, a draw's
    worth of segments per call.  Batches stop before one of fewer than
    _MIN_SEGMENTS segments and after one that gave up; walk takes the
    rest of out, a draw at a time.  The batch arrays are allocated only
    once a batch is walked.
    """
    seg = _SEGMENT
    width = _batch_segments(dtype.itemsize + out.itemsize, tables) if guess else 0
    draw_steps = max(1, _BLOCK // 8)
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
            for s in range(first, count, chunk):
                state = walk(batch[:, s : s + chunk].T.ravel(), state, walked[s : s + chunk].reshape(-1))
            done += count * seg
    for start in range(done, out.size, draw_steps):
        count = min(draw_steps, out.size - start)
        state = walk(draw(count), state, out[start : start + count])


def _walk_offsets(lut: np.ndarray, offsets: np.ndarray, state: int, out: np.ndarray) -> int:
    """One step from x to lut[offset + x] per offset, from state, into out; returns the last state."""
    lut = memoryview(lut)
    out[:] = [state := lut[offset + state] for offset in offsets.tolist()]
    return state


def _scan_block(table: np.ndarray, block: np.ndarray, state: int, out: np.ndarray) -> int:
    """The states of a two-state chain after each uniform of block by scans; as _bisect_block.

    Index 0 of the scans stands for the start state, taken as a constant
    draw; index k >= 1 is the block's step k.  Only the table's first
    column, c_0 and c_1, is read.
    """
    a = np.empty(block.size + 1, dtype=bool)
    b = np.empty(block.size + 1, dtype=bool)
    a[0] = b[0] = state
    np.greater_equal(block, table[0, 0], out=a[1:])
    np.greater_equal(block, table[1, 0], out=b[1:])
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
    return bisect_right(_cumulative(dist.probs).tolist(), rng.random())


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
    # v P as elementwise products summed down the rows in row order, not a
    # BLAS gemv, so the iterates' bits do not depend on the BLAS kernel
    curr = ((ramp / ramp.sum())[:, None] * P.rows).sum(axis=0)
    mass = float(curr.sum())
    # more than the rounding of the sums, the scaling and the differences
    margin = 8 * dim * np.finfo(float).eps
    residual = np.inf
    for iteration in range(1, max_iters + 1):
        nxt = (curr[:, None] * P.rows).sum(axis=0)
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
