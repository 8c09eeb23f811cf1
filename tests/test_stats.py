import math
import tracemalloc

import numpy as np
import pytest

from qmarkov import (
    CHI2_CRIT_999,
    DimensionMismatchError,
    Distribution,
    HalfInt,
    InvalidArgumentError,
    RngState,
    SpinChainSpec,
    StochasticMatrix,
    Trajectory,
    TransitionCounts,
    UndefinedTestError,
    chi_square,
    empirical_matrix,
    per_row_tv,
    simulate_measurements,
    spin_transition_matrix,
    stats,
    transition_counts,
)


def make_trajectory(states, labels=("a", "b")):
    states = np.asarray(states)
    return Trajectory(labels=labels, states=states, seed=0)


def test_transition_counts_by_hand():
    t = make_trajectory([0, 1, 1, 0, 1])
    c = transition_counts(t)
    assert np.array_equal(c.counts, [[0, 2], [1, 1]])
    assert c.counts.sum() == 4
    assert np.array_equal(empirical_matrix(c).row_visits, [2, 2])


def test_transition_counts_single_state_trajectory():
    c = transition_counts(make_trajectory([0]))
    assert c.counts.sum() == 0


# dim 300 stores states as uint16, where prev * dim would wrap unwidened
@pytest.mark.parametrize("dim", [1, 2, 3, 9, 300])
@pytest.mark.parametrize("steps", [0, 1, 2, 500])
def test_transition_counts_match_a_plain_loop(dim, steps, monkeypatch):
    states = np.random.default_rng(dim * 1000 + steps).integers(0, dim, steps + 1)
    expected = [[0] * dim for _ in range(dim)]
    for prev, nxt in zip(states[:-1].tolist(), states[1:].tolist()):
        expected[prev][nxt] += 1
    t = make_trajectory(states, labels=tuple(range(dim)))
    c = transition_counts(t)
    assert c.counts.dtype == np.int64
    assert c.counts.tolist() == expected
    # a block of 7 pairs puts many block seams inside the trajectory
    monkeypatch.setattr(stats, "_BLOCK", 7)
    assert transition_counts(t).counts.tolist() == expected


def test_transition_counts_allocate_at_most_2_bytes_per_step():
    steps = 10**6
    t = make_trajectory(np.random.default_rng(5).integers(0, 51, steps + 1), labels=tuple(range(51)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        transition_counts(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / steps <= 2.0


def test_empirical_matrix_normalizes_rows():
    t = make_trajectory([0, 1, 1, 0, 1])
    e = empirical_matrix(transition_counts(t))
    assert np.allclose(e.rows, [[0.0, 1.0], [0.5, 0.5]], atol=1e-15)
    assert list(e.observed) == [True, True]


def test_empirical_matrix_keeps_unvisited_rows_at_zero():
    t = make_trajectory([0, 0, 0], labels=("a", "b"))
    e = empirical_matrix(transition_counts(t))
    assert np.array_equal(e.rows[1], [0.0, 0.0])
    assert list(e.observed) == [True, False]


def test_per_row_tv_reports_unvisited_rows_as_none():
    theory = StochasticMatrix(("a", "b"), np.array([[0.5, 0.5], [0.5, 0.5]]))
    e = empirical_matrix(transition_counts(make_trajectory([0, 0, 0])))
    tvs = per_row_tv(e, theory)
    assert tvs[1] is None
    assert tvs[0] == 0.5


@pytest.mark.parametrize(
    "counts,error,match",
    [
        (np.zeros((2, 3), dtype=int), DimensionMismatchError, "2x2"),
        (np.ones((2, 2)), InvalidArgumentError, "integers"),
        (np.array([[1, 0], [-1, 2]]), InvalidArgumentError, "non-negative"),
    ],
)
def test_transition_counts_validation(counts, error, match):
    with pytest.raises(error, match=match):
        TransitionCounts(labels=("a", "b"), counts=counts)


def test_per_row_tv_refuses_mismatched_labels():
    theory = StochasticMatrix(("a", "c"), np.array([[0.5, 0.5], [0.5, 0.5]]))
    e = empirical_matrix(transition_counts(make_trajectory([0, 1, 0])))
    with pytest.raises(DimensionMismatchError, match="different labels"):
        per_row_tv(e, theory)


def test_chi_square_fair_coin_by_hand():
    fair = Distribution((1, 0), np.array([0.5, 0.5]))
    r = chi_square(np.array([60.0, 40.0]), fair)
    # (60-50)^2/50 + (40-50)^2/50
    assert abs(r.statistic - 4.0) < 1e-12
    assert r.dof == 1


def test_chi_square_pools_rare_cells():
    expected = Distribution(("a", "b", "c", "d"), np.array([0.50, 0.03, 0.02, 0.45]))
    observed = np.array([49.0, 4.0, 2.0, 45.0])
    r = chi_square(observed, expected)
    # cells b and c (expected 3 and 2) merge into one, leaving three cells
    assert r.dof == 2


def test_chi_square_needs_at_least_two_cells():
    # every expected count sits below the pooling floor, so one cell remains
    even = Distribution(("a", "b"), np.array([0.6, 0.4]))
    with pytest.raises(UndefinedTestError):
        chi_square(np.array([3.0, 2.0]), even)


def test_chi_square_impossible_observation_is_infinite():
    point = Distribution(("a", "b", "c"), np.array([0.5, 0.5, 0.0]))
    r = chi_square(np.array([5.0, 5.0, 3.0]), point)
    assert math.isinf(r.statistic)


def test_chi_square_validates_observations():
    fair = Distribution((1, 0), np.array([0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        chi_square(np.array([1.0, -2.0]), fair)
    with pytest.raises(DimensionMismatchError):
        chi_square(np.array([1.0, 2.0, 3.0]), fair)
    with pytest.raises(InvalidArgumentError, match="at least one observation"):
        chi_square(np.array([0.0, 0.0]), fair)


def test_chi_square_critical_values_table():
    assert abs(CHI2_CRIT_999[1] - 10.827566170662733) < 1e-9
    assert abs(CHI2_CRIT_999[10] - 29.58829844507442) < 1e-9
    assert sorted(CHI2_CRIT_999) == list(range(1, 11))
    assert all(CHI2_CRIT_999[k] < CHI2_CRIT_999[k + 1] for k in range(1, 10))


def test_relabeling_leaves_statistics_unchanged():
    probs = np.array([0.2, 0.3, 0.5])
    observed = np.array([25.0, 28.0, 47.0])
    r1 = chi_square(observed, Distribution(("a", "b", "c"), probs))
    r2 = chi_square(observed[::-1].copy(), Distribution(("c", "b", "a"), probs[::-1].copy()))
    assert abs(r1.statistic - r2.statistic) < 1e-12


def test_longer_runs_track_theory_more_closely():
    spec = SpinChainSpec(s=HalfInt(1), beta=1.0)
    theory = spin_transition_matrix(spec)
    start = Distribution(spec.labels, np.array([0.5, 0.5]))

    def worst_tv(steps, seed):
        t, _ = simulate_measurements(spec, start, steps, RngState(seed))
        tvs = per_row_tv(empirical_matrix(transition_counts(t)), theory)
        return max(tv for tv in tvs if tv is not None)

    short = worst_tv(10_000, 21)
    long = worst_tv(1_000_000, 21)
    assert long < short
    assert long < 0.005
