import math
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
    _walk((_cumulative([row] * dim),), 0, states, StubRng(uniforms))
    assert states.tolist() == expected
    dist = Distribution(tuple(range(dim)), np.array(row))
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


def bisect_loop(matrices, start, uniforms):
    """States after each uniform by the clamped inverse CDF, step k using matrices[k % p]."""
    state, path = start, []
    for k, u in enumerate(uniforms):
        row = matrices[k % len(matrices)][state]
        state = clamped_pick(np.cumsum(row).tolist(), u, len(row))
        path.append(state)
    return path


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("first", list(TWO_STATE))
def test_two_state_scan_matches_the_bisect_loop(monkeypatch, first, period):
    default_block = markov._BLOCK
    for second in list(TWO_STATE) if period == 2 else [None]:
        matrices = [TWO_STATE[first]] if second is None else [TWO_STATE[first], TWO_STATE[second]]
        # every cumulative entry and its neighbours, where the maps change
        edges = {0.0, 1.0 - 2.0**-53}
        for c in np.cumsum(np.concatenate(matrices), axis=1).ravel().tolist():
            edges |= {math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)}
        edges = sorted(u for u in edges if 0.0 <= u < 1.0)
        tables = tuple(_cumulative(m) for m in matrices)
        for steps in (0, 1, 2, 3, 7, 8, 1000):
            uniforms = RngState(steps).random_block(steps).tolist()
            uniforms[::3] = (edges * steps)[: len(uniforms[::3])]
            for start in (0, 1):
                expected = bisect_loop(matrices, start, uniforms)
                for block in (default_block, 3):
                    monkeypatch.setattr(markov, "_BLOCK", block)
                    out = np.empty(steps, dtype=np.int64)
                    _walk(tables, start, out, StubRng(uniforms))
                    assert out.tolist() == expected, (second, steps, start, block)


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
    # the spin chain's two tables are transposes of a symmetric matrix, so
    # only distinct tables show which one a step used
    rows = (chain.rows, chain.rows[::-1])

    def alternating(steps):
        out = np.empty(steps, dtype=np.int64)
        _walk(tuple(_cumulative(r) for r in rows), 0, out, RngState(9))
        return out

    def trajectories():
        out = [alternating(steps) for steps in (100, 101)]
        out += [simulate_measurements(spin, spin_start, steps, RngState(5))[0].states for steps in (100, 101)]
        out += [simulate_measurements(spin_half, half_start, steps, RngState(5))[0].states for steps in (100, 101)]
        out.append(simulate_chain(chain, start, 101, RngState(6)).states)
        out.append(simulate_chain(pair, pair_start, 101, RngState(6)).states)
        for n in (3, 8):
            out.append(simulate_register(QubitChainSpec(n_qubits=n, beta=1.0), HalfInt(n), 60, RngState(7)).states)
        out += [coin_toss_stream(count, RngState(8)) for count in (100, 101)]
        return out

    default = trajectories()
    scalar, state, expected = RngState(9), 0, []
    for k in range(101):
        state = clamped_pick(np.cumsum(rows[k % 2][state]).tolist(), scalar.random(), 3)
        expected.append(state)
    assert default[1].tolist() == expected
    sizes = []
    random_block = RngState.random_block

    def recording(self, count):
        sizes.append(count)
        return random_block(self, count)

    monkeypatch.setattr(RngState, "random_block", recording)
    for block in (1, 7):
        monkeypatch.setattr(markov, "_BLOCK", block)
        sizes.clear()
        small = trajectories()
        assert 0 < max(sizes) <= 8  # a register block rounds to whole steps of 8 draws
        assert len(default) == len(small)
        for a, b in zip(default, small):
            assert np.array_equal(a, b)
