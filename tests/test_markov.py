import itertools
import json
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest

from qmarkov import (
    ConvergenceError,
    DimensionMismatchError,
    Distribution,
    HalfInt,
    InvalidArgumentError,
    InvalidDistributionError,
    QubitChainSpec,
    RngState,
    SpinChainSpec,
    StochasticMatrix,
    Trajectory,
    coin_toss_stream,
    markov,
    qubit_transition_matrix,
    sample,
    simulate_chain,
    simulate_measurements,
    simulate_register,
    stationary,
)
from qmarkov.markov import _cumulative, _walk
from qmarkov.spin_chain import _overlap_squared


def coin_matrix():
    return StochasticMatrix(labels=("h", "t"), rows=np.array([[0.5, 0.5], [0.5, 0.5]]))


def lazy_walk():
    return StochasticMatrix(labels=("a", "b"), rows=np.array([[0.9, 0.1], [0.1, 0.9]]))


def two_cycle():
    return StochasticMatrix(labels=("a", "b"), rows=np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_validate_distribution_accepts_probability_vectors():
    d = Distribution((0, 1), [0.25, 0.75])
    assert d.labels == (0, 1)
    assert d.dim == 2
    assert np.array_equal(d.probs, [0.25, 0.75])
    named = Distribution(["only"], [1.0])
    assert named.labels == ("only",)


@pytest.mark.parametrize(
    "probs",
    [[0.5, 0.6], [0.5, 0.4], [-0.1, 1.1], [float("nan"), 1.0], [float("inf"), 0.0]],
)
def test_validate_distribution_rejects_bad_vectors(probs):
    with pytest.raises(InvalidDistributionError):
        Distribution(tuple(range(len(probs))), probs)


def test_distribution_label_length_must_match():
    with pytest.raises(DimensionMismatchError):
        Distribution(labels=("a",), probs=np.array([0.5, 0.5]))
    # the shape is checked against the labels before any entry
    with pytest.raises(DimensionMismatchError):
        Distribution(labels=("a", "b"), probs=np.array([[0.5, 0.5]]))


def test_stochastic_matrix_validation():
    with pytest.raises(InvalidDistributionError):
        StochasticMatrix(labels=("a", "b"), rows=np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        StochasticMatrix(labels=("a", "b"), rows=np.array([[1.0, 0.0]]))
    # an entry above 1 next to non-negative entries fails its row's sum
    with pytest.raises(InvalidDistributionError, match=r"in row 0 sum to 1\.5,"):
        StochasticMatrix(labels=("a", "b"), rows=np.array([[1.5, 0.0], [0.5, 0.5]]))
    m = coin_matrix()
    assert m.dim == 2
    assert m.labels == ("h", "t")
    assert np.array_equal(m.rows[1], [0.5, 0.5])


def test_sample_is_deterministic_and_in_range():
    d = Distribution((0, 1), [0.25, 0.75])
    rng_a, rng_b = RngState(7), RngState(7)
    a = [sample(d, rng_a) for _ in range(100)]
    b = [sample(d, rng_b) for _ in range(100)]
    assert a == b
    assert set(a) <= {0, 1}
    assert len(set(a)) == 2  # both outcomes appear in 100 draws


def test_sample_frequencies_follow_the_distribution():
    d = Distribution((0, 1), [0.25, 0.75])
    rng = RngState(11)
    draws = np.array([sample(d, rng) for _ in range(20_000)])
    assert abs(draws.mean() - 0.75) < 0.01


def test_simulate_chain_shape_and_determinism():
    start = Distribution(labels=("h", "t"), probs=np.array([1.0, 0.0]))
    t1 = simulate_chain(coin_matrix(), start, 100, RngState(3))
    t2 = simulate_chain(coin_matrix(), start, 100, RngState(3))
    assert t1.steps == 100
    assert t1.states.shape == (101,)
    assert t1.states[0] == 0
    assert np.array_equal(t1.states, t2.states)
    assert t1.labels[t1.states[0]] == "h"
    empty = simulate_chain(coin_matrix(), start, 0, RngState(3))
    assert empty.states.shape == (1,)


def test_states_take_the_narrowest_unsigned_dtype():
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    spin, _ = simulate_measurements(spec, Distribution(spec.labels, np.eye(3)[0]), 50, RngState(1))
    register = simulate_register(QubitChainSpec(n_qubits=8, beta=1.0), HalfInt(8), 50, RngState(1))
    assert spin.states.dtype == register.states.dtype == np.uint8
    for dim, dtype in ((9, np.uint8), (256, np.uint8), (257, np.uint16), (300, np.uint16)):
        rows = np.random.default_rng(dim).random((dim, dim))
        P = StochasticMatrix(labels=tuple(range(dim)), rows=rows / rows.sum(axis=1, keepdims=True))
        start = Distribution(P.labels, np.full(dim, 1.0 / dim))
        t = simulate_chain(P, start, 2000, RngState(dim))
        assert t.states.dtype == dtype
        assert t.states.max() < dim
        # the constructor narrows indices given in any integer dtype
        assert Trajectory(P.labels, t.states.astype(np.int64), 0).states.dtype == dtype
    assert t.states.max() > 255  # the 300-label run needs the second byte


def test_simulate_chain_requires_matching_labels():
    start = Distribution(labels=("x", "y"), probs=np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        simulate_chain(coin_matrix(), start, 10, RngState(0))


def test_simulate_chain_transition_frequencies_match_rows():
    P = lazy_walk()
    start = Distribution(labels=("a", "b"), probs=np.array([0.5, 0.5]))
    t = simulate_chain(P, start, 100_000, RngState(5))
    from qmarkov import empirical_matrix, transition_counts

    emp = empirical_matrix(transition_counts(t))
    assert np.abs(emp.rows - P.rows).max() < 0.01


def test_stationary_fair_coin_converges_immediately():
    result = stationary(coin_matrix())
    assert result.iterations == 1
    assert np.allclose(result.distribution.probs, [0.5, 0.5], atol=1e-10)
    assert result.residual <= 1e-10


def test_stationary_lazy_walk():
    result = stationary(lazy_walk())
    assert np.allclose(result.distribution.probs, [0.5, 0.5], atol=1e-8)
    assert result.distribution.labels == ("a", "b")


def test_stationary_identity_returns_any_fixed_point():
    eye = StochasticMatrix(labels=("a", "b", "c"), rows=np.eye(3))
    result = stationary(eye)
    assert result.iterations == 1
    assert abs(result.distribution.probs.sum() - 1.0) < 1e-12


def test_stationary_two_cycle_fails_to_converge():
    with pytest.raises(ConvergenceError) as info:
        stationary(two_cycle(), max_iters=500)
    err = info.value
    assert err.iterations == 500
    assert err.residual > 0.1
    assert err.last_iterate.shape == (2,)
    assert abs(err.last_iterate.sum() - 1.0) < 1e-12


def test_stationary_reports_a_converged_iterate_that_is_not_a_distribution():
    # each row sums to 1 + 8e-10, inside SUM_TOL, but the iterate's mass
    # grows by that excess every step and has passed SUM_TOL when it converges
    near = StochasticMatrix(("a", "b"), np.array([[0.3, 0.7], [0.6, 0.4]]) + 4e-10)
    with pytest.raises(ConvergenceError) as info:
        stationary(near, tol=1e-6)
    err = info.value
    assert "not a distribution" in str(err)
    assert err.residual <= 1e-6
    assert 1 <= err.iterations < 100
    assert abs(err.last_iterate.sum() - 1.0) > markov.SUM_TOL


def _stationary_scaling_every_iterate(P, tol, max_iters):
    """(iterations, residual, stopped) of stationary's loop with the scaled iterates formed on every iteration."""
    ramp = np.arange(P.dim, 0, -1, dtype=float)
    curr = ((ramp / ramp.sum())[:, None] * P.rows).sum(axis=0)
    for iteration in range(1, max_iters + 1):
        nxt = (curr[:, None] * P.rows).sum(axis=0)
        residual = 0.5 * float(np.abs(nxt - curr).sum())
        if residual <= tol or 0.5 * float(np.abs(nxt / nxt.sum() - curr / curr.sum()).sum()) <= tol:
            return iteration, residual, True
        curr = nxt
    return max_iters, residual, False


def _stationary_stop(P, tol, max_iters):
    """(iterations, residual, stopped) of stationary; an iterate that stops but is no distribution counts as stopped."""
    try:
        result = stationary(P, tol=tol, max_iters=max_iters)
    except ConvergenceError as exc:
        return exc.iterations, exc.residual, "not a distribution" in str(exc)
    return result.iterations, result.residual, True


def _stationary_chains():
    """Random stochastic rows, rows whose sums each miss 1 inside SUM_TOL, and rows whose iterates are proportional."""
    rng = np.random.default_rng(17)
    chains = [_spin_rows(50, 0.34), _spin_rows(2, 0.3)]
    for dim in (2, 3, 9, 51):
        rows = rng.random((dim, dim)) + 0.01
        rows /= rows.sum(axis=1, keepdims=True)
        chains.append(rows)
        for excess in (8e-10, -6e-10, 2.0**-31):
            # every row's sum misses 1 by the same excess, so the mass
            # drifts by it every step
            chains.append(rows * (1.0 + excess))
            # every iterate is the last one times 1 + excess: the scaled
            # iterates are equal, up to rounding, from the first step on
            chains.append(np.eye(dim) * (1.0 + excess))
            chains.append(np.tile(rows[0], (dim, 1)) * (1.0 + excess))
    return [StochasticMatrix(tuple(range(len(rows))), rows) for rows in chains]


def test_stationary_forms_the_scaled_iterates_only_where_they_could_stop_it():
    # the scaled iterates are formed only when the unscaled residual lets
    # them pass; every walk stops at the iteration, and with the residual,
    # of the loop that forms them on every iteration, down to tol = 1e-300
    scaled_stops = 0
    for P in _stationary_chains():
        for tol in (1e-1, 1e-6, 1e-10, 1e-13, 1e-15, 1e-16, 1e-300):
            expected = _stationary_scaling_every_iterate(P, tol, 400)
            assert _stationary_stop(P, tol, 400) == expected, (P.rows[0], tol)
            scaled_stops += expected[2] and expected[1] > tol
    # many walks stop on the scaled iterates alone
    assert scaled_stops > 20


def test_constructors_leave_the_callers_array_writable():
    probs = np.array([0.5, 0.5])
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    states = np.array([0, 1, 1], dtype=np.uint8)
    built = (
        Distribution(("x", "y"), probs).probs,
        StochasticMatrix(("x", "y"), rows).rows,
        Trajectory(labels=("x", "y"), states=states, seed=0).states,
    )
    for caller in (probs, rows, states):
        assert caller.flags.writeable
        caller.flat[0] = 1
    for own in built:
        assert not own.flags.writeable
        with pytest.raises(ValueError):
            own.flat[0] = 0
    # a Distribution and a StochasticMatrix keep their own copy; the
    # caller's write above reached neither
    assert built[0][0] == 0.5 and built[1][0, 0] == 0.5


def test_trajectory_validation():
    for states in (np.array([], dtype=int), np.array([[0, 1]]), np.array([0, 2]), np.array([0, -1]), np.array([0.0])):
        with pytest.raises(InvalidArgumentError):
            Trajectory(labels=("a", "b"), states=states, seed=0)
    t = Trajectory(labels=("a", "b"), states=np.array([0, 1, 1]), seed=9)
    assert [t.labels[i] for i in t.states] == ["a", "b", "b"]
    assert t.steps == 2
    assert Trajectory(labels=("a", "b"), states=np.array([1]), seed=0).steps == 0


class StubRng:
    """Feeds chosen uniforms to the kernel in order, through either draw method."""

    seed = 0

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self):
        return self.uniforms.pop(0)

    def random_block(self, count):
        block, self.uniforms = self.uniforms[:count], self.uniforms[count:]
        return np.array(block)


def clamped_pick(cum, u, dim):
    # the inverse CDF with an explicit clamp for the float gap below 1
    i = bisect_right(cum, u)
    return i if i < dim else dim - 1


def _spin_half_rows():
    overlap = _overlap_squared(SpinChainSpec(s=HalfInt(1), beta=math.pi / 2.0))
    return [*overlap, *overlap.T]


def _cumulative_by_row(rows):
    """The inverse-CDF tables one row at a time: each row's running sums, the last one inf."""
    return [[*np.cumsum(row).tolist()[:-1], math.inf] for row in rows]


@pytest.mark.parametrize(
    "row",
    [[0.1] * 10, [0.25, 0.75, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0, 0.0], *_spin_half_rows()],
    ids=lambda row: f"dim{len(row)}:{float(np.cumsum(row)[-1])!r}",
)
def test_inf_sentinel_picks_what_the_clamp_picks(row):
    cum = np.cumsum(row).tolist()
    dim = len(row)
    uniforms = [0.0, 1.0 - 2.0**-53]
    for c in cum:
        uniforms += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
    expected = [clamped_pick(cum, u, dim) for u in uniforms]
    # equal rows: every step draws from `row` whatever the current state
    states = np.empty(len(uniforms), dtype=np.int64)
    _walk(_cumulative([row] * dim), 0, states, StubRng(uniforms))
    assert states.tolist() == expected
    dist = Distribution(tuple(range(dim)), np.array(row))
    # sample's one-row table is that row's running sums
    assert _cumulative(dist.probs).tolist() == _cumulative_by_row([row])[0]
    stub = StubRng(uniforms)
    assert [sample(dist, stub) for _ in uniforms] == expected


def _random_two_state(seed):
    p, q = np.random.default_rng(seed).random(2)
    return np.array([[p, 1.0 - p], [q, 1.0 - q]])


# 2x2 matrices for the two-state scan: identity and swap never draw a
# constant map, the two "stay" matrices always do, and the spin-1/2
# overlap at pi/2 has cumulative sums 1 ulp either side of 0.5
TWO_STATE = {
    "random-a": _random_two_state(1),
    "random-b": _random_two_state(2),
    "identity": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "stay-0": np.array([[1.0, 0.0], [1.0, 0.0]]),
    "stay-1": np.array([[0.0, 1.0], [0.0, 1.0]]),
    "spin-z": np.array(_spin_half_rows()[0:2]),
    "spin-n": np.array(_spin_half_rows()[2:4]),
}


def bisect_loop(matrix, start, uniforms):
    """States after each uniform by the clamped inverse CDF of the current state's row."""
    cums = np.cumsum(matrix, axis=1).tolist()
    state, path = start, []
    for u in uniforms:
        state = clamped_pick(cums[state], u, len(cums))
        path.append(state)
    return path


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("name", list(TWO_STATE))
def test_two_state_scan_matches_the_bisect_loop(monkeypatch, name, start):
    default_block = markov._BLOCK
    matrix = TWO_STATE[name]
    # every cumulative entry and its neighbours, where the maps change
    edges = {0.0, 1.0 - 2.0**-53}
    for c in np.cumsum(matrix, axis=1).ravel().tolist():
        edges |= {math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)}
    edges = sorted(u for u in edges if 0.0 <= u < 1.0)
    table = _cumulative(matrix)
    for steps in (0, 1, 2, 3, 7, 8, 1000):
        uniforms = RngState(steps).random_block(steps).tolist()
        uniforms[::3] = (edges * steps)[: len(uniforms[::3])]
        expected = bisect_loop(matrix, start, uniforms)
        for block in (default_block, 3):
            monkeypatch.setattr(markov, "_BLOCK", block)
            out = np.empty(steps, dtype=np.int64)
            _walk(table, start, out, StubRng(uniforms))
            assert out.tolist() == expected, (steps, block)


def test_block_size_changes_no_trajectory(monkeypatch):
    spin = SpinChainSpec(s=HalfInt(2), beta=1.0)
    spin_start = Distribution(spin.labels, np.full(3, 1.0 / 3.0))
    spin_half = SpinChainSpec(s=HalfInt(1), beta=1.0)
    half_start = Distribution(spin_half.labels, np.array([0.36, 0.64]))
    chain = StochasticMatrix(labels=("a", "b", "c"), rows=np.array(
        [[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]]))
    start = Distribution(chain.labels, np.full(3, 1.0 / 3.0))
    pair = StochasticMatrix(labels=("a", "b"), rows=np.array([[0.3, 0.7], [0.6, 0.4]]))
    pair_start = Distribution(pair.labels, np.array([0.5, 0.5]))

    def trajectories():
        out = [simulate_measurements(spin, spin_start, steps, RngState(5))[0].states for steps in (100, 101)]
        out += [simulate_measurements(spin_half, half_start, steps, RngState(5))[0].states for steps in (100, 101)]
        out.append(simulate_chain(chain, start, 101, RngState(6)).states)
        out.append(simulate_chain(pair, pair_start, 101, RngState(6)).states)
        # the register at n = 1 takes the two-state scan, and above it bisect
        for n, steps in ((1, 61), (3, 60), (8, 60), (9, 61), (64, 61)):
            out.append(simulate_register(QubitChainSpec(n_qubits=n, beta=1.0), HalfInt(n), steps, RngState(7)).states)
        out += [coin_toss_stream(count, RngState(8)) for count in (100, 101)]
        return out

    default = trajectories()
    sizes = []
    monkeypatch.setattr(RngState, "random_block", _recording(RngState.random_block, sizes))
    for block in (1, 7):
        monkeypatch.setattr(markov, "_BLOCK", block)
        sizes.clear()
        small = trajectories()
        # every walker draws through the one draw loop, an eighth of a block at a time
        assert 0 < max(sizes) <= max(1, block // 8)
        assert len(default) == len(small)
        for a, b in zip(default, small):
            assert np.array_equal(a, b)


def _recording(method, counts):
    """method, with the count of each call appended to counts."""

    def recording(self, count):
        counts.append(count)
        return method(self, count)

    return recording


def _spin_rows(twice_s, beta):
    return _overlap_squared(SpinChainSpec(s=HalfInt(twice_s), beta=beta))


def _random_rows(dim, seed):
    rows = np.random.default_rng(seed).random((dim, dim)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _zero_pattern_rows():
    from test_byte_identity import _matrix_text

    return np.array(json.loads(_matrix_text())["rows"])


def _cycle(dim, stay):
    shift = np.roll(np.eye(dim), 1, axis=1)
    return stay * shift + (1.0 - stay) / dim


def _register_rows(n, beta):
    return qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows


THREE_STATE = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]])
# running sums that repeat across rows, 0.5 and 0.75 in every row, and
# start at -0.0 in one row and at 0.0 in another, as a matrix file may give
SIGNED_ZEROS = np.array(
    [[-0.0, 0.5, 0.25, 0.25], [0.0, 0.5, 0.25, 0.25], [0.5, -0.0, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]
)
# chains whose walks coalesce; all but SLOW couple within the tests' 16-step segments
COUPLING = {
    "spin1-0.3": _spin_rows(2, 0.3),
    "spin1-0.9": _spin_rows(2, 0.9),
    "spin1-1.5": _spin_rows(2, 1.5),
    "spin1-2.84": _spin_rows(2, 2.84),
    "spin4-0.9": _spin_rows(8, 0.9),
    "spin4-2.2": _spin_rows(8, 2.2),
    "spin25-1.0": _spin_rows(50, 1.0),
    "spin25-2.2": _spin_rows(50, 2.2),
    "random-9": _random_rows(9, 1),
    # two-byte buckets as keys, scaled into a two-byte lut index
    "random-20": _random_rows(20, 4),
    "random-51": _random_rows(51, 2),
    "zero-pattern-9": _zero_pattern_rows(),
    "signed-zeros-4": SIGNED_ZEROS,
    # 65 states, the widest register, whose rows end in runs of equal sums
    "register-64-1.0": _register_rows(64, 1.0),
    "register-64-2.2": _register_rows(64, 2.2),
    # the beta ends, where most breakpoints lie in tail buckets and later
    # fix-up passes take a larger share of a walk
    "spin25-2.84": _spin_rows(50, 2.84),
    "register-64-0.3": _register_rows(64, 0.3),
}
# near the identity and near a permutation: a block may give up
SLOW = {"spin1-0.3", "spin1-2.84", "spin25-2.84", "register-64-0.3"}
# chains whose walks never meet: the first fix-up pass gives up; (rows, start)
NON_COUPLING = {
    "identity-from-1": (np.eye(3), 1),
    "cycle-5": (_cycle(5, 1.0), 0),
    "near-cycle-5": (_cycle(5, 0.999), 0),
    "spin1-pi": (_spin_rows(2, math.pi), 1),
}

# lockstep in tier-1 time: segments of 16 steps, odd blocks of 160
# segments and a tail, so blocks and batches do not share their edges,
# and batches of at least 128 segments
SEGMENT = 16
BLOCK = 160 * SEGMENT + 7
MIN_SEGMENTS = 128


def _edge_uniforms(matrix, steps, seed):
    """Uniforms from RngState(seed), every third one a cumulative entry or its neighbour 1 ulp away.

    The edges are taken in order, and repeat when all fit; a 51-state
    chain has more of them than the walk has slots.
    """
    edges = {0.0, 1.0 - 2.0**-53}
    for c in np.cumsum(matrix, axis=1).ravel().tolist():
        edges |= {math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)}
    edges = sorted(u for u in edges if 0.0 <= u < 1.0)
    uniforms = RngState(seed).random_block(steps).tolist()
    uniforms[::3] = itertools.islice(itertools.cycle(edges), len(uniforms[::3]))
    return uniforms


def _record_lockstep(monkeypatch):
    """The coupled flag of each batch the lockstep walk walks from now on, in order."""
    couple, coupled = markov._couple, []

    def recording(*args):
        first, flag = couple(*args)
        coupled.append(flag)
        return first, flag

    monkeypatch.setattr(markov, "_couple", recording)
    return coupled


def _record_walk_offsets(monkeypatch):
    """The number of offsets of each _walk_offsets call from now on, in order."""
    walk_offsets, sizes = markov._walk_offsets, []

    def recording(lut, offsets, state, out):
        sizes.append(offsets.size)
        return walk_offsets(lut, offsets, state, out)

    monkeypatch.setattr(markov, "_walk_offsets", recording)
    return sizes


def _recorded_walk(monkeypatch, matrix, start, uniforms):
    """_walk over uniforms with small blocks; returns (states, coupled flag of each lockstep batch, bisect offsets)."""
    monkeypatch.setattr(markov, "_SEGMENT", SEGMENT)
    monkeypatch.setattr(markov, "_BLOCK", BLOCK)
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", MIN_SEGMENTS)
    coupled = _record_lockstep(monkeypatch)
    out = np.empty(len(uniforms), dtype=markov._state_dtype(len(matrix)))
    bisect, offsets = markov._bisect_block, []

    def recording_bisect(table, block, state, part):
        # the step of the walk at which part starts
        offsets.append((part.ctypes.data - out.ctypes.data) // out.itemsize)
        return bisect(table, block, state, part)

    monkeypatch.setattr(markov, "_bisect_block", recording_bisect)
    _walk(_cumulative(matrix), start, out, StubRng(uniforms))
    return out.tolist(), coupled, offsets


# walks of 451 and 448 whole segments and a tail
LENGTHS = (2 * BLOCK + 130 * SEGMENT + 5, 2 * BLOCK + 127 * SEGMENT + 3)
# lockstep batches of the walks of LENGTHS, by the bytes of a key:
# batches of 3 or 4 blocks of 160 segments at 1 byte (3 to 9 states,
# whose tables take 0.01-0.16 of the batch budget of 8 * BLOCK bytes;
# 480 or 640 segments, more than either walk) and 1 at 2 (20, 51 and 65
# states, whose tables pass that budget); there the last batches are
# 131 and 128 segments, the shortest batch lockstep walks (MIN_SEGMENTS)
LOCKSTEP_BATCHES = {1: (1, 1), 2: (3, 3)}


def _key_bytes(matrix):
    """The bytes of one key, a bucket, of the chain's lockstep walk."""
    return markov._lookup_table(_cumulative(matrix))[1].itemsize


# (rows, dtype of a key): a key is the bucket, in the narrowest dtype
# that holds every bucket and the guide's mark above them all
KEYS = {
    "3": (THREE_STATE, np.uint8),
    "signed-zeros-4": (SIGNED_ZEROS, np.uint8),
    "random-9": (_random_rows(9, 1), np.uint8),
    "random-20": (_random_rows(20, 4), np.uint16),
    "random-51": (_random_rows(51, 2), np.uint16),
    "register-64-1.0": (_register_rows(64, 1.0), np.uint16),
    "register-64-pi/2": (_register_rows(64, math.pi / 2), np.uint16),
}


def test_the_tables_are_the_running_sums_of_each_row():
    from test_spin_chain import SWEEP_BETAS

    chains = [_spin_rows(twice, beta) for twice in range(1, 51) for beta in SWEEP_BETAS]
    for rows in [*chains, *COUPLING.values()]:
        assert _cumulative(rows).tolist() == _cumulative_by_row(rows)


@pytest.mark.parametrize("name", list(KEYS))
def test_a_key_is_the_bucket_in_the_narrowest_dtype_that_holds_every_bucket(name):
    matrix, dtype = KEYS[name]
    table = _cumulative(matrix)
    breaks, guide, lut = markov._lookup_table(table)
    assert guide.dtype == dtype
    # one breakpoint per distinct entry: equal entries and signed zeros merge
    assert breaks.tolist() == sorted({c for row in table for c in row[:-1]})
    # every key, of a cell or searched for, is the bucket; _keys scales
    # the uniforms it is given in place, so it is given a copy
    uniforms = RngState(9).random_block(20000)
    buckets = np.searchsorted(breaks, uniforms, side="right")
    keys = markov._keys(breaks, guide, np.iinfo(dtype).max, uniforms.copy())
    assert keys.dtype == dtype and np.array_equal(keys, buckets)
    for x in range(len(matrix)):
        assert lut[buckets * len(matrix) + x].tolist() == [bisect_right(table[x], u) for u in uniforms.tolist()]


# chains whose lookup tables are checked entry by entry: at the beta
# ends most of a wide chain's breakpoints lie outside [1e-4, 1 - 1e-4]
# (53-56% at spin 25, 77-78% at 64 qubits), in buckets too narrow for
# any sample of uniforms to reach
TABLE_CHAINS = {
    **{f"spin{twice}-{beta}": _spin_rows(twice, beta) for twice in (2, 8, 50) for beta in (0.3, 1.0, 2.8)},
    **{f"register-{n}-{beta}": _register_rows(n, beta) for n in (8, 17, 64) for beta in (0.3, 1.0, 2.8)},
    **{f"random-{dim}": _random_rows(dim, dim) for dim in (9, 51, 101)},
}


@pytest.mark.parametrize("name", list(TABLE_CHAINS))
def test_every_bucket_and_every_guide_cell_of_the_tables(name):
    table = _cumulative(TABLE_CHAINS[name])
    breaks, guide, lut = markov._lookup_table(table)
    # lut[b * dim + x] is the next state from x in bucket b, the
    # uniforms from breaks[b - 1] up, and 0 in bucket 0, below them all
    rows = table.tolist()
    assert lut.dtype == np.min_scalar_type(len(rows) - 1)
    assert lut.tolist() == [bisect_right(row, c) for c in [-math.inf, *breaks.tolist()] for row in rows]
    # a power of two of cells, at least _GUIDE_CELLS per breakpoint; a
    # cell that holds no breakpoint holds its bucket, and one that holds
    # a breakpoint the dtype's largest value
    cells = guide.size
    assert cells & (cells - 1) == 0 and markov._GUIDE_CELLS * breaks.size <= cells
    assert guide.dtype == np.min_scalar_type(breaks.size + 1)
    low, high = np.arange(cells) / cells, np.arange(1, cells + 1) / cells
    held = np.searchsorted(breaks, high) > np.searchsorted(breaks, low)
    buckets = np.searchsorted(breaks, low, side="right")
    assert np.array_equal(guide, np.where(held, np.iinfo(guide.dtype).max, buckets))


@pytest.mark.parametrize("edges", [False, True], ids=["random", "edges"])
@pytest.mark.parametrize("name", list(COUPLING))
def test_lockstep_matches_the_bisect_loop(monkeypatch, name, edges):
    matrix = COUPLING[name]
    for steps, batches in zip(LENGTHS, LOCKSTEP_BATCHES[_key_bytes(matrix)]):
        uniforms = _edge_uniforms(matrix, steps, steps) if edges else RngState(steps).random_block(steps).tolist()
        for start in (0, len(matrix) - 1):
            states, coupled, offsets = _recorded_walk(monkeypatch, matrix, start, uniforms)
            assert states == bisect_loop(matrix, start, uniforms), (steps, start)
            assert offsets == []  # the lut walk takes the tail too
            if name in SLOW:
                assert coupled
            else:
                assert coupled == [True] * batches


# uniform chains at the dtype edges of the lockstep walk: (lut entries,
# the narrowest dtype that holds every lut index, the keys' dtype, the
# states'); an index past 2 bytes is formed in intp
DTYPE_EDGES = {
    16: (256, np.uint8, np.uint8, np.uint8),
    17: (289, np.uint16, np.uint8, np.uint8),
    256: (65536, np.uint16, np.uint16, np.uint8),
    257: (66049, np.uint32, np.uint16, np.uint16),
}


@pytest.mark.parametrize("dim", list(DTYPE_EDGES))
def test_lockstep_at_the_dtype_edges_matches_the_bisect_loop(monkeypatch, dim):
    entries, index, key, state = DTYPE_EDGES[dim]
    matrix = np.full((dim, dim), 1.0 / dim)
    table = _cumulative(matrix)
    breaks, guide, lut = markov._lookup_table(table)
    assert (lut.size, np.min_scalar_type(lut.size - 1), guide.dtype, lut.dtype) == (entries, index, key, state)
    steps, start = 3 * markov._BLOCK + 77, dim - 1
    uniforms = RngState(dim).random_block(steps)
    coupled = _record_lockstep(monkeypatch)
    out = np.empty(steps, dtype=state)
    _walk(table, start, out, StubRng(uniforms))
    assert out.tolist() == bisect_loop(matrix, start, uniforms.tolist())
    # every row is one law, so every batch couples at its first step
    assert coupled and all(coupled)


def _record_passes(monkeypatch):
    """The passes, the first and the fix-up ones, of each batch _couple walks from now on, in order."""
    couple, passes = markov._couple, []

    def recording(path, starts, advance):
        steps = []

        def counting(k, states, rows):
            steps.append(k)
            return advance(k, states, rows)

        first, coupled = couple(path, starts, counting)
        # each pass starts at step 0
        passes.append(steps.count(0))
        return first, coupled

    monkeypatch.setattr(markov, "_couple", recording)
    return passes


@pytest.mark.parametrize("name", ["spin25-2.84", "register-64-0.3"])
def test_later_fix_up_passes_of_wide_chains_match_the_bisect_loop(monkeypatch, name):
    # at the beta ends the tests' 16-step segments give up after the
    # first fix-up pass, but segments of _SEGMENT steps couple after two
    # or three, so these walks of two one-block batches and a tail take
    # the passes after the first at their own sizes
    matrix = COUPLING[name]
    steps, start = 2 * markov._BLOCK + 77, len(matrix) - 1
    uniforms = RngState(5).random_block(steps).tolist()
    coupled = _record_lockstep(monkeypatch)
    passes = _record_passes(monkeypatch)
    out = np.empty(steps, dtype=np.uint8)
    _walk(_cumulative(matrix), start, out, StubRng(uniforms))
    assert out.tolist() == bisect_loop(matrix, start, uniforms)
    assert coupled == [True, True]
    assert min(passes) >= 3, passes


@pytest.mark.parametrize("name", list(NON_COUPLING))
def test_a_walk_that_never_meets_is_finished_by_the_lut_walk(monkeypatch, name):
    matrix, start = NON_COUPLING[name]
    assert _key_bytes(matrix) == 1  # batches of 4 blocks of 160 segments
    segments = 4 * (BLOCK // SEGMENT)
    steps = segments * SEGMENT + 130 * SEGMENT + 5
    uniforms = RngState(3).random_block(steps).tolist()
    resumed = _record_walk_offsets(monkeypatch)
    states, coupled, offsets = _recorded_walk(monkeypatch, matrix, start, uniforms)
    assert states == bisect_loop(matrix, start, uniforms)
    # the first batch gives up and is finished through its stored keys
    # from a segment inside it, a draw's worth of segments at a time, 20
    # of them; the lut walk takes the rest of the walk from the batch's
    # end, an eighth of a block of uniforms at a time, cut to whole
    # segments, and bisect walks none of it
    draw, rest = BLOCK // 8 // SEGMENT * SEGMENT, steps - segments * SEGMENT
    assert draw == 20 * SEGMENT
    tail = [draw] * (rest // draw) + [rest % draw]
    finished = resumed[: -len(tail)]
    assert coupled == [False] and offsets == []
    assert 0 < sum(finished) < segments * SEGMENT and sum(finished) % SEGMENT == 0
    assert set(finished[:-1]) <= {draw} and 0 < finished[-1] <= draw
    assert resumed[-len(tail) :] == tail


def test_a_chain_over_the_lookup_cap_is_walked_by_bisect(monkeypatch):
    matrix = _random_rows(110, 3)
    assert markov._lookup_table(_cumulative(matrix)) is None  # 110 * (110 * 109 + 1) entries pass 2**20
    assert markov._lookup_table(_cumulative(_random_rows(101, 3))) is not None
    uniforms = RngState(4).random_block(LENGTHS[0]).tolist()
    states, coupled, offsets = _recorded_walk(monkeypatch, matrix, 0, uniforms)
    assert states == bisect_loop(matrix, 0, uniforms)
    # an eighth of a block of uniforms at a time, cut to whole segments
    assert coupled == [] and offsets == list(range(0, len(uniforms), BLOCK // 8 // SEGMENT * SEGMENT))


def test_bisect_walks_only_walks_under_the_lockstep_length(monkeypatch):
    # a walk of one step under MIN_SEGMENTS segments is bisect's alone, and
    # one of that many segments and a tail is the lut walk's alone
    short = MIN_SEGMENTS * SEGMENT
    # bisect walks an eighth of a block of uniforms at a time, cut to whole segments
    draw = BLOCK // 8 // SEGMENT * SEGMENT
    for steps, bisected in ((short - 1, list(range(0, short - 1, draw))), (short + SEGMENT - 1, [])):
        uniforms = RngState(steps).random_block(steps).tolist()
        states, _, offsets = _recorded_walk(monkeypatch, THREE_STATE, 0, uniforms)
        assert states == bisect_loop(THREE_STATE, 0, uniforms), steps
        assert offsets == bisected, steps


def _walk_peak(table, start, steps, seed):
    """The tracemalloc peak of a _walk of steps from start, in blocks of uniforms."""
    out = np.empty(steps, dtype=np.uint8)
    rng = RngState(seed)  # the first generator imports numpy.random's modules
    tracemalloc.start()
    try:
        _walk(table, start, out, rng)
        return tracemalloc.get_traced_memory()[1] / (8 * markov._BLOCK)
    finally:
        tracemalloc.stop()


# (rows, lockstep batches of the 4-block and the 8-block walk): batches
# of 1 block at 51 and 65 states and 4 at 9 and at 3
LOCKSTEP_MEMORY = {
    "spin25": (_spin_rows(50, 1.0), 12),
    "register-64": (_register_rows(64, 1.0), 12),
    "random-9": (_random_rows(9, 1), 3),
    "spin1": (_spin_rows(2, 1.0), 3),
}


def test_lockstep_memory_is_bounded_by_the_block(monkeypatch):
    # no per-step list and no table that grows with the walk: the peak of
    # a 4-block walk and of an 8-block one, one draw's uniforms with its
    # batch's keys and segment paths, and the lookup tables, stay under a
    # fixed multiple of one block of uniforms; 1.19, 1.42, 1.28 and 1.27
    # blocks at 51, 65, 9 and 3 states
    for name, (rows, batches) in LOCKSTEP_MEMORY.items():
        table = _cumulative(rows)
        coupled = _record_lockstep(monkeypatch)
        peaks = [_walk_peak(table, 0, blocks * markov._BLOCK, blocks) for blocks in (4, 8)]
        assert coupled == [True] * batches, name
        assert max(peaks) < 4.5, (name, peaks)
        assert abs(peaks[1] - peaks[0]) < 0.1, (name, peaks)


# (rows, start, steps, bound in blocks of uniforms) of walks read one
# step at a time: bisect walks the chain over the cap and the short walk;
# the fallback's one batch gives up and is finished from its stored
# keys, a draw's worth of segments at a time, and the lut walk takes the rest;
# the two-state scan walks the spin-1/2 chain
BISECT_WALKS = {
    "over-the-cap": (_random_rows(110, 3), 0, 4 * markov._BLOCK, 2.5),
    "fallback": (*NON_COUPLING["spin1-pi"], 4 * markov._BLOCK, 3.5),
    "short": (_spin_rows(2, 0.8), 0, 20001, 1.0),
    "two-state": (_spin_rows(1, 1.0), 0, 4 * markov._BLOCK, 1.0),
}


@pytest.mark.parametrize("name", list(BISECT_WALKS))
def test_bisect_walks_read_their_block_in_place(monkeypatch, name):
    matrix, start, steps, bound = BISECT_WALKS[name]
    # bisect reads its draw of uniforms in place, where a listed draw
    # alone would take about 4 times its uniforms, and the scan's arrays
    # are those of one draw, an eighth of a block
    coupled = _record_lockstep(monkeypatch)
    assert _walk_peak(_cumulative(matrix), start, steps, 5) < bound
    assert coupled == ([False] if name == "fallback" else [])


BATCH_SEGMENTS = markov._batch_segments


def _one_block_batches(step_bytes, table_bytes):
    """Batches of _BLOCK // _SEGMENT segments whatever their arrays and tables take: one block of a chain's steps."""
    return markov._BLOCK // markov._SEGMENT


# (rows, blocks in one batch) at 3, 9 and 51 states: keys of 1, 1 and 2
# bytes and a one-byte path, beside tables of under 0.01, 0.01 and 0.54
# blocks of uniforms, make batches of 4, 4 and 1 blocks
BATCH_CHAINS = {
    "3": (THREE_STATE, 4),
    "9": (_random_rows(9, 1), 4),
    "51": (_random_rows(51, 2), 1),
}


def _batch_edges(batch):
    """Walk lengths around the end of the first batch of `batch` steps, and two batches and a tail."""
    short = markov._MIN_SEGMENTS * markov._SEGMENT
    return (batch - 1, batch, batch + 1, batch + short - 1, batch + short + 3, 2 * batch + 5)


@pytest.mark.parametrize("name", list(BATCH_CHAINS))
def test_batch_width_changes_no_chain_walk(monkeypatch, name):
    matrix, blocks = BATCH_CHAINS[name]
    table = _cumulative(matrix)
    batch = blocks * markov._BLOCK
    bisect = markov._bisect_block
    monkeypatch.setattr(markov, "_bisect_block", None)  # the lut walk takes every step
    for steps in _batch_edges(batch):
        uniforms = RngState(steps).random_block(steps)
        walks = []
        for width in (BATCH_SEGMENTS, _one_block_batches):
            monkeypatch.setattr(markov, "_batch_segments", width)
            coupled = _record_lockstep(monkeypatch)
            out = np.empty(steps, dtype=np.uint8)
            _walk(table, 1, out, StubRng(uniforms))
            walks.append((out, len(coupled)))
        (wide, wide_batches), (narrow, narrow_batches) = walks
        assert np.array_equal(wide, narrow), steps
        if steps == 2 * batch + 5:
            # the budget is in effect: two batches against 2 * blocks; and
            # the states are the bisect walker's, so no lut offset wrapped
            assert (wide_batches, narrow_batches) == (2, 2 * blocks)
            reference = np.empty(steps, dtype=np.uint8)
            bisect(table.tolist(), uniforms, 1, reference)
            assert np.array_equal(wide, reference)


# n: blocks of segments in one register batch at beta = 1: 4 at n <= 9,
# whose tables take at most 0.01 blocks of uniforms, 3 at 16 and 17, 2 at
# 33 and 1 at 64, whose tables take 0.76; n = 1 is the two-state scan,
# never batched, walked to the edges of a 4-block batch
REGISTER_BATCHES = {1: 0, 8: 4, 9: 4, 16: 3, 17: 3, 33: 2, 64: 1}


@pytest.mark.parametrize("n", list(REGISTER_BATCHES))
def test_batch_width_changes_no_register_walk(monkeypatch, n):
    spec = QubitChainSpec(n_qubits=n, beta=1.0)
    blocks = REGISTER_BATCHES[n]
    batch = (blocks or 4) * markov._BLOCK
    for steps in _batch_edges(batch)[1:]:
        walks = []
        for width in (BATCH_SEGMENTS, _one_block_batches):
            monkeypatch.setattr(markov, "_batch_segments", width)
            coupled = _record_lockstep(monkeypatch)
            walks.append((simulate_register(spec, spec.labels[n // 3], steps, RngState(n)).states, len(coupled)))
        (wide, wide_batches), (narrow, narrow_batches) = walks
        assert np.array_equal(wide, narrow), steps
        if steps == 2 * batch + 5:
            assert (wide_batches, narrow_batches) == ((2, 2 * blocks) if blocks else (0, 0))


class _RecordingRng:
    """RngState(seed), recording the count of each block draw in draws."""

    def __init__(self, seed):
        self.rng, self.seed, self.draws = RngState(seed), seed, []

    def random_block(self, count):
        self.draws.append(count)
        return self.rng.random_block(count)


def _record_lockstep_sizes(monkeypatch, seed):
    """(rng, widths): a _RecordingRng of seed, and the batch width in segments of each _couple call from now on, in order."""
    couple, widths = markov._couple, []

    def recording(path, starts, advance):
        widths.append(path.shape[1])
        return couple(path, starts, advance)

    monkeypatch.setattr(markov, "_couple", recording)
    return _RecordingRng(seed), widths


# (batch width in segments, draw in steps) of each walk: chains at 3, 9
# and 51 states in batches of 4, 4 and 1 blocks of 512 segments, and
# registers, the chains of their own matrices at beta = 1, in 4 blocks
# at n <= 9, 3 at 16 and 17, 2 at 32 and 1 at 64; the register at n = 1
# is the two-state scan, never batched; every draw is an eighth of a
# block of uniforms, 64 whole segments
LOCKSTEP_SIZES = {
    "chain-3": (2048, 8192),
    "chain-9": (2048, 8192),
    "chain-51": (512, 8192),
    "register-1": (0, 8192),
    "register-8": (2048, 8192),
    "register-9": (2048, 8192),
    "register-16": (1536, 8192),
    "register-17": (1536, 8192),
    "register-32": (1024, 8192),
    "register-64": (512, 8192),
}


@pytest.mark.parametrize("name", list(LOCKSTEP_SIZES))
def test_the_driver_sizes_every_walk(monkeypatch, name):
    kind, size = name.split("-")
    width, draw = LOCKSTEP_SIZES[name]
    # one whole batch, then a whole draw and a tail
    steps = width * markov._SEGMENT + draw + 5
    rng, widths = _record_lockstep_sizes(monkeypatch, 1)
    if kind == "chain":
        _walk(_cumulative(_random_rows(int(size), 1)), 0, np.empty(steps, dtype=np.uint8), rng)
    else:
        spec = QubitChainSpec(n_qubits=int(size), beta=1.0)
        simulate_register(spec, spec.labels[0], steps, rng)
    # the scan is never batched
    assert (max(widths, default=0), max(rng.draws)) == (width, draw)


def _give_up_on_the_second_batch(monkeypatch):
    """Make _couple report coupled=False on its second call, with segments from 3 on unresolved."""
    couple, calls = markov._couple, []

    def second_gives_up(*args):
        first, coupled = couple(*args)
        calls.append(coupled)
        if len(calls) == 2:
            # the passes' path of segments 0..2 is right; the rest is walked again
            return min(first, 3), False
        return first, coupled

    monkeypatch.setattr(markov, "_couple", second_gives_up)
    return calls


def test_a_batch_that_gives_up_is_finished_from_what_it_stores(monkeypatch):
    # the second 4-block batch of a 3-state walk is finished one step at a
    # time through its stored keys from segment 3 on, a draw's worth of
    # segments, 64, per call, and the rest through the keys of an eighth
    # of a block of uniforms at a time
    table = _cumulative(THREE_STATE)
    steps = 9 * markov._BLOCK + 1001
    uniforms = RngState(12).random_block(steps)
    reference = np.empty(steps, dtype=np.uint8)
    bisect = markov._bisect_block
    bisect(table.tolist(), uniforms, 2, reference)
    calls = _give_up_on_the_second_batch(monkeypatch)
    resumed = _record_walk_offsets(monkeypatch)
    monkeypatch.setattr(markov, "_bisect_block", None)
    out = np.empty(steps, dtype=np.uint8)
    _walk(table, 2, out, StubRng(uniforms))
    assert calls == [True, True]
    assert np.array_equal(out, reference)
    seg, draw = markov._SEGMENT, markov._BLOCK // 8
    left, chunk = 4 * markov._BLOCK // seg - 3, draw // seg
    assert resumed == [chunk * seg] * (left // chunk) + [left % chunk * seg] + [draw] * 8 + [1001]
    assert out.tolist()[:20001] == bisect_loop(THREE_STATE, 2, uniforms[:20001].tolist())
    # so does an 8-qubit register, the 9-state chain of its own matrix,
    # from its stored keys in a second batch of 1024 segments; with
    # _MIN_SEGMENTS past the walk, bisect walks all of it
    calls.clear()
    spec = QubitChainSpec(n_qubits=8, beta=1.0)
    steps = 3 * 1024 * markov._SEGMENT + 1001
    given_up = simulate_register(spec, HalfInt(2), steps, RngState(13)).states
    assert calls == [True, True]
    monkeypatch.setattr(markov, "_bisect_block", bisect)
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", steps)
    assert np.array_equal(given_up, simulate_register(spec, HalfInt(2), steps, RngState(13)).states)
