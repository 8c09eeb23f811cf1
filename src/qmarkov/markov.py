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
    states `bisect_right` gives, bit for bit.  Every walk draws its
    uniforms an eighth of a block, 8192, at a time, cut to whole
    segments, through _draws; the lut walk fills its lockstep batches
    from such draws too.

    A two-state chain is scanned with numpy: the table [c_r, inf] of row r
    sends a uniform u to u >= c_r, so with a = u >= c_0 and b = u >= c_1
    each uniform maps the state by one of four maps: constant a when
    a == b, the identity when a < b, a swap when a > b.  Either
    non-constant map sends x to x ^ a.  So a state is the value of the
    last constant draw XOR the running parity of a since then, and both
    come from array scans.  A draw of constant maps alone, as the fair
    coin's almost always is, is its comparisons a and needs no scan.

    A chain of three or more states is walked through a lookup table,
    built once per walk: its breakpoints are the finite entries of all
    its rows, sorted, and lut[b, x] is bisect_right(table[x], breaks[b -
    1]), the next state from x for every uniform u in bucket b, the
    number of breakpoints at or below u.  Since every table entry is a
    breakpoint, the lookup is exact.  The bucket comes from a guide of
    equal cells over [0, 1): a cell holding no breakpoint has one
    bucket, and only uniforms in the other cells are searched for.  Each
    uniform's key is its bucket, in the narrowest unsigned dtype that
    holds every bucket, and _lockstep walks the whole walk from those
    keys.  Walks shorter than _MIN_SEGMENTS segments, 32,768 steps, are
    walked by bisect, and so are chains whose lut would pass _LUT_CAP
    entries (about 101 states), so memory stays bounded for any chain.
    Such a chain is refused only once its breakpoints are sorted: while
    it is refused it holds the sort's order and the sorted copy of its
    entries, 16 bytes an entry, and the distinct ones with their mask,
    up to 9 more, so the attempt takes less than the lists of Python
    floats that bisect then walks, 32 bytes an entry.
    """
    dim = len(table)
    lookup = dim > 2 and out.size >= _MIN_SEGMENTS * _SEGMENT and _lookup_table(table)
    if lookup:
        _lockstep(lookup, state, out, rng)
        return
    _draws(partial(_scan_block, table) if dim == 2 else partial(_bisect_block, table.tolist()), state, out, rng)


def _draws(walk, state: int, out: np.ndarray, rng: RngState) -> None:
    """Walk all of out from state, a draw of uniforms at a time; walk(uniforms, state, into) walks one draw.

    The one draw loop of every walk: the two-state scan's, bisect's and
    the tail of the lut walk.  A draw is an eighth of a block of
    uniforms, 8192, cut to whole segments when it holds at least one: a
    draw, its cells and its keys sit beside the lut walk's tables and
    batch, and with quarter-block draws a 65-state walk peaked at 1.79
    blocks of uniforms, against 1.51.
    """
    count = max(1, _BLOCK // 8)
    count = count // _SEGMENT * _SEGMENT or count
    for start in range(0, out.size, count):
        into = out[start : start + count]
        state = walk(rng.random_block(into.size), state, into)


def _bisect_block(table: list, block: np.ndarray, state: int, out: np.ndarray) -> int:
    """The state after each uniform of block by bisect, from state, into out; returns the last state."""
    out[:] = [state := bisect_right(table[state], u) for u in memoryview(block)]
    return state


def _lookup_table(table: np.ndarray) -> tuple | None:
    """(breaks, guide, lut) for the lockstep walk; None if the lut would pass _LUT_CAP entries.

    Every table is built from np.repeat runs over one stable argsort of
    the whole table, whose infs, one closing each row, sort last and
    are one run.  breaks are the distinct finite entries, each run of
    equal values kept once, so -0.0 and 0.0 are one breakpoint; the cap
    is checked on their count.  An entry's rank is its run's, so an
    entry table[x][j] of rank r is at or below every uniform of bucket
    r + 1 and above, and each row's inf has the last rank,
    len(breaks).  lut is the (len(breaks) + 1, dim) table of next
    states, raveled, in the state dtype: lut[b, x] is
    bisect_right(table[x], breaks[b - 1]), so column x holds j over the
    buckets after table[x][j - 1]'s rank through table[x][j]'s, one run
    per j, as the running sums of a row never fall.  guide cuts [0, 1)
    into a power of two of equal cells, at least _GUIDE_CELLS per
    breakpoint: a cell that holds no breakpoint has one bucket, the
    number of breakpoints in the cells before it, so the guide is a run
    of each bucket up to the cell of the next breakpoint under 1, and
    each cell that holds a breakpoint is then set to the dtype's
    largest value.  The guide takes the narrowest unsigned dtype that
    holds len(breaks) + 1, which holds each bucket and stays above them
    all.
    """
    dim = len(table)
    order = np.argsort(table, axis=None, kind="stable")
    ordered = table.ravel()[order]
    # edge[i]: ordered[i] starts a run of equal entries, or i is the end
    edge = np.empty(ordered.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    breaks = ordered[edge[:-1]][:-1]
    if (breaks.size + 1) * dim > _LUT_CAP:
        return None
    ends = np.flatnonzero(edge)
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.repeat(np.arange(breaks.size + 1), ends[1:] - ends[:-1])
    # column x's runs end at the ranks of row x's entries
    bounds = np.empty((dim, dim + 1), dtype=np.intp)
    bounds[:, 0] = -1
    bounds[:, 1:] = rank.reshape(dim, dim)
    columns = np.broadcast_to(np.arange(dim, dtype=_state_dtype(dim)), (dim, dim))
    lut = np.repeat(columns, (bounds[:, 1:] - bounds[:, :-1]).ravel())
    lut = lut.reshape(dim, breaks.size + 1).T.ravel()
    cells = 1 << (_GUIDE_CELLS * breaks.size).bit_length()
    # the cells of the breakpoints under 1 end the guide's runs: b * cells
    # is exact, as cells is a power of two, and its cast is a floor
    cell = np.empty(np.searchsorted(breaks, 1.0) + 2, dtype=np.intp)
    cell[0], cell[-1] = -1, cells - 1
    cell[1:-1] = breaks[: cell.size - 2] * cells
    key = _state_dtype(breaks.size + 2)
    guide = np.repeat(np.arange(cell.size - 1, dtype=key), cell[1:] - cell[:-1])
    guide[cell[1:-1]] = np.iinfo(key).max
    return breaks, guide, lut


def _keys(breaks: np.ndarray, guide: np.ndarray, busy: int, uniforms: np.ndarray) -> np.ndarray:
    """The bucket of each uniform, in the guide's dtype; uniforms is scaled in place.

    busy is the guide's mark of a cell that holds a breakpoint, its
    dtype's largest value, found once a walk rather than once a draw;
    only the uniforms in such cells are searched for.  u * guide.size
    is exact, as guide.size is a power of two, so its cast, a floor, is
    u's cell, and scaled / guide.size is u again.  Scaling in place lets
    the float-to-intp cast run with no buffer.
    """
    scaled = np.multiply(uniforms, guide.size, out=uniforms)
    keys = guide.take(scaled.astype(np.intp), mode="clip")
    searched = np.flatnonzero(keys == busy)
    keys[searched] = np.searchsorted(breaks, scaled[searched] / guide.size, side="right")
    return keys


def _advance(lut: np.ndarray, dim: int, keys: np.ndarray):
    """_couple's advance over a batch of keys, whose column s holds the keys of segment s.

    Step k of segment s leaves x through lut at keys[k, s] * dim + x.
    The advance scales the keys of a meet-check's steps in one multiply
    into a scratch of offsets, in the narrowest dtype that holds every
    lut index while that takes at most 2 bytes and in intp past that, as
    a narrow bucket times dim would wrap and a 4-byte offset is slower
    to add to a state than an 8-byte one.  So each step is one add of
    the states to the step's offsets into an index and one gather of lut
    at the index.  The scratch lives as long as the advance, one batch:
    kept for the whole walk, it sat beside every draw and passed the
    walk's memory bounds.
    """
    index_dtype = _state_dtype(lut.size) if _state_dtype(lut.size).itemsize <= 2 else np.intp
    index = np.empty(keys.shape[1], dtype=index_dtype)
    scratch = np.empty((_MEET_CHECK, keys.shape[1]), dtype=index_dtype)

    def advance(k, states, rows):
        offsets = np.multiply(keys[k : k + len(rows)], dim, out=scratch[: len(rows)], dtype=index_dtype)
        for offset, row in zip(offsets, rows):
            states = lut.take(np.add(offset, states, out=index), out=row, mode="clip")
        return states

    return advance


def _couple(path: np.ndarray, starts: np.ndarray, advance) -> int:
    """Walk the columns of path, segments of path.shape[0] steps, side by side; returns first.

    advance(k, states, rows) writes into rows, and returns, the states
    after steps k, k + 1, ... of every segment from states, one row of
    rows per step; it is handed a meet-check's _MEET_CHECK rows of path
    at a time.  Segment 0 starts at starts[0] and every other one at its
    guess starts[s], which the passes overwrite; path[k, s] is the state
    after step k of segment s.  Each fix-up pass walks the segments
    again from the end of the one before, rewriting path in place, and
    stops once every segment is back on its stored path at the end of a
    meet-check's rows; passes repeat until no start changes.  first is
    the first segment whose path is not yet right, path.shape[1] when
    every one is.  When the first fix-up pass leaves more than half of
    the segments it started wrong still wrong, the passes stop with
    first short of path.shape[1], and _lockstep walks the rest of the
    walk one step at a time, from segment first on.
    """
    seg, count = path.shape
    checks = range(0, seg, _MEET_CHECK)
    states = starts
    for k in checks:
        states = advance(k, states, path[k : k + _MEET_CHECK])
    stored = np.empty(count, dtype=path.dtype)
    wrong = np.flatnonzero(path[-1, :-1] != starts[1:]) + 1
    first_pass = True
    while wrong.size:
        starts[1:] = path[-1, :-1]
        states = starts
        for k in checks:
            rows = path[k : k + _MEET_CHECK]
            stored[:] = rows[-1]
            states = advance(k, states, rows)
            if (states == stored).all():
                break
        before, wrong = wrong.size, np.flatnonzero(path[-1, :-1] != starts[1:]) + 1
        if first_pass and 2 * wrong.size > before:
            break
        first_pass = False
    return int(wrong[0]) if wrong.size else count


def _lockstep(lookup: tuple, state: int, out: np.ndarray, rng: RngState) -> None:
    """Write the states after steps 1..out.size from state into out through lookup, the chain's (breaks, guide, lut).

    A step's value is its uniform's key, the bucket.  A batch holds
    _batch_segments segments of _SEGMENT steps, where a step stores its
    key and its state in out's dtype, beside the bytes of the three
    tables, so the batch and the tables share 8 * _BLOCK bytes: 4 blocks
    of segments at 3 and 9 states (1-byte keys) and 1 at 51 and 65
    (2-byte keys, beside half a block of tables and more).  A batch is
    filled a draw at a time, as _draws sizes a draw and never less than
    a segment, its keys stored transposed, and walked by _couple through
    its own advance, every segment but the first guessed to start at
    state 0; the coupled prefix is copied into out.  A batch that
    _couple gives up on is finished one step at a time from the first
    segment not yet resolved, through the keys it stores, since its
    uniforms are gone, a draw's worth of segments a call.  Batches stop
    before one of fewer than _MIN_SEGMENTS segments and after one that
    gave up, and _draws walks the rest of out one step at a time.  A step
    walked one at a time leaves x through lut at its key times dim plus
    x, formed in intp.  _walk calls it only for walks of at least
    _MIN_SEGMENTS segments, and a batch holds at least _BLOCK // _SEGMENT
    of them, so a first batch is always walked.
    """
    breaks, guide, lut = lookup
    dim = lut.size // (breaks.size + 1)
    busy = np.iinfo(guide.dtype).max
    seg = _SEGMENT
    width = _batch_segments(guide.itemsize + out.itemsize, breaks.nbytes + guide.nbytes + lut.nbytes)
    chunk = max(1, _BLOCK // 8 // seg)

    def walk(keys, state, into):
        return _walk_offsets(lut, np.multiply(keys, dim, dtype=np.intp), state, into)

    done = first = count = 0
    keys = np.empty((seg, width), dtype=guide.dtype)
    path = np.empty((seg, width), dtype=out.dtype)
    while first == count and (count := min(width, (out.size - done) // seg)) >= _MIN_SEGMENTS:
        batch = keys[:, :count]
        for s in range(0, count, chunk):
            drawn = min(chunk, count - s)
            batch[:, s : s + drawn] = _keys(breaks, guide, busy, rng.random_block(drawn * seg)).reshape(drawn, seg).T
        starts = np.zeros(count, dtype=lut.dtype)
        starts[0] = state
        # no name holds the batch's advance, and its scratch, past _couple
        first = _couple(path[:, :count], starts, _advance(lut, dim, batch))
        walked = out[done : done + count * seg].reshape(count, seg)
        walked[:first] = path[:, :first].T
        state = int(path[-1, first - 1])
        for s in range(first, count, chunk):
            state = walk(batch[:, s : s + chunk].T.ravel(), state, walked[s : s + chunk].reshape(-1))
        done += count * seg
    _draws(lambda uniforms, state, into: walk(_keys(breaks, guide, busy, uniforms), state, into), state, out[done:], rng)


def _walk_offsets(lut: np.ndarray, offsets: np.ndarray, state: int, out: np.ndarray) -> int:
    """One step from x to lut[offset + x] per offset, from state, into out; returns the last state."""
    lut = memoryview(lut)
    out[:] = [state := lut[offset + state] for offset in offsets.tolist()]
    return state


def _scan_block(table: np.ndarray, block: np.ndarray, state: int, out: np.ndarray) -> int:
    """The states of a two-state chain after each uniform of block by scans; as _bisect_block.

    Index 0 of the scans stands for the start state, taken as a constant
    draw; index k >= 1 is the block's step k.  Only the table's first
    column, c_0 and c_1, is read.  A block whose every map is constant
    leaves each step in a, its comparison with c_0, whatever the state
    before it, so a is the block's states and the scans are skipped.
    This is a test of the block's own draws, not of the chain: the fair
    coin's c_0 and c_1 are 0.5 within an ulp either side, so a uniform
    between them, a swap or an identity map, is rare but not excluded,
    and a block that draws one is scanned.
    """
    a = np.empty(block.size + 1, dtype=bool)
    b = np.empty(block.size + 1, dtype=bool)
    a[0] = b[0] = state
    np.greater_equal(block, table[0, 0], out=a[1:])
    np.greater_equal(block, table[1, 0], out=b[1:])
    constant = np.equal(a, b, out=b)
    if constant.all():
        out[:] = a[1:]
        return int(a[-1])
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


def _realize(P: StochasticMatrix, start: int, steps: int, rng: RngState) -> Trajectory:
    """steps transitions of the chain P from the label index start, one uniform a step.

    The one walk of every simulator and of the CLI's simulate: it alone
    allocates a trajectory's states, and _walk steps them over the
    running sums of P's rows.  The start takes no draw here; a caller
    that draws it, from a law over P's labels, does so first.
    """
    check_int("steps", steps, 0)
    states = np.empty(steps + 1, dtype=_state_dtype(P.dim))
    states[0] = start
    _walk(_cumulative(P.rows), start, states[1:], rng)
    return Trajectory(labels=P.labels, states=states, seed=rng.seed)


def simulate_chain(P: StochasticMatrix, initial: Distribution, steps: int, rng: RngState) -> Trajectory:
    """Realize steps transitions of the chain; states[0] is drawn from initial."""
    if P.labels != initial.labels:
        raise DimensionMismatchError("matrix and initial distribution have different labels")
    return _realize(P, sample(initial, rng), steps, rng)


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
