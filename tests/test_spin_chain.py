import math
import tracemalloc

import numpy as np
import pytest

from qmarkov import (
    AXIS_N,
    AXIS_Z,
    DimensionMismatchError,
    Distribution,
    HalfInt,
    InternalConsistencyError,
    InvalidArgumentError,
    MeasurementRecord,
    RngState,
    SpinChainSpec,
    coin_toss_stream,
    empirical_matrix,
    m_values,
    per_row_tv,
    simulate_measurements,
    small_d,
    spin_transition_matrix,
    transition_counts,
)

from oracles import oracle_small_d

HALF = HalfInt(1)

# |d^1(1.0)|^2 transposed, frozen from the eigendecomposition oracle
SPIN1_BETA1 = np.array(
    [
        [0.5931327983656771, 0.354036709136786, 0.05283049249753742],
        [0.354036709136786, 0.2919265817264285, 0.3540367091367856],
        [0.05283049249753742, 0.3540367091367856, 0.5931327983656771],
    ]
)


def balanced(spec: SpinChainSpec) -> Distribution:
    """Born law of the balanced superposition: uniform over the z-outcomes."""
    dim = len(spec.labels)
    return Distribution(spec.labels, np.full(dim, 1.0 / dim))


def test_coin_matrix_is_fair():
    m = spin_transition_matrix(SpinChainSpec(s=HALF, beta=math.pi / 2.0))
    assert np.abs(m.rows - 0.5).max() < 1e-12
    assert m.labels == (HalfInt(1), HalfInt(-1))


def test_zero_angle_freezes_the_chain_exactly():
    m = spin_transition_matrix(SpinChainSpec(s=HalfInt(3), beta=0.0))
    assert np.array_equal(m.rows, np.eye(4))


def test_spin_one_matrix_matches_frozen_oracle_values():
    m = spin_transition_matrix(SpinChainSpec(s=HalfInt(2), beta=1.0))
    assert np.abs(m.rows - SPIN1_BETA1).max() < 1e-12


def test_matrix_is_transposed_squared_rotation():
    for twice, beta in [(1, 0.7), (2, 1.9), (5, 2.6)]:
        m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta))
        d = oracle_small_d(twice, beta)
        assert np.abs(m.rows - (d * d).T).max() < 1e-10


def test_matrix_is_bit_for_bit_the_transposed_square_of_small_d():
    # the phases of big_D at alpha = gamma = 0 change no bit of |D|^2, so
    # the chain could square small_d directly with the same matrix digests
    betas = (0.0, -0.0, 0.3, 1.0, math.pi / 2.0, 2.2, 2.7, math.pi, 7.0, -0.9)
    for twice in range(1, 51):
        for beta in betas:
            m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta))
            assert np.array_equal(m.rows, np.square(small_d(HalfInt(twice), beta).entries).T), (twice, beta)


@pytest.mark.parametrize("twice", [1, 2, 3, 5, 9])
def test_doubly_stochastic(twice):
    rng = np.random.default_rng(twice)
    for beta in rng.uniform(0.0, math.pi, size=5):
        m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=float(beta)))
        assert np.abs(m.rows.sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(m.rows.sum(axis=0) - 1.0).max() < 1e-10


def test_a_matrix_that_is_not_doubly_stochastic_is_an_internal_error(monkeypatch):
    from qmarkov import spin_chain

    # rows [[0.5, 0.5], [0.2, 0.8]] pass as a chain, but columns sum to 0.7 and 1.3
    monkeypatch.setattr(spin_chain, "_overlap_squared", lambda spec: np.array([[0.5, 0.2], [0.5, 0.8]]))
    with pytest.raises(InternalConsistencyError, match="column defect 3.000e-01"):
        spin_transition_matrix(SpinChainSpec(s=HalfInt(1), beta=1.0))


def test_matrix_is_symmetric():
    # |<a|R|b>| = |<b|R|a>| for rotations, so the chain is reversible
    for twice, beta in [(1, 1.3), (4, 0.4), (7, 2.8)]:
        m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta))
        assert np.abs(m.rows - m.rows.T).max() < 1e-10


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=HalfInt(0), beta=1.0)
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=HALF, beta=float("nan"))
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=0.5, beta=1.0)


def test_start_law_must_share_the_chain_labels():
    spec = SpinChainSpec(s=HALF, beta=1.0)
    # three outcomes for a two-outcome spin, then the right two in the wrong order
    for start in (
        Distribution(m_values(HalfInt(2)), [1.0, 0.0, 0.0]),
        Distribution(spec.labels[::-1], [0.36, 0.64]),
    ):
        with pytest.raises(DimensionMismatchError):
            simulate_measurements(spec, start, 5, RngState(0))


def test_measurement_record_kind_follows_step_parity():
    MeasurementRecord(step=0, kind=AXIS_Z, outcome=HALF)
    MeasurementRecord(step=1, kind=AXIS_N, outcome=HALF)
    with pytest.raises(InvalidArgumentError):
        MeasurementRecord(step=1, kind=AXIS_Z, outcome=HALF)
    with pytest.raises(InvalidArgumentError):
        MeasurementRecord(step=2, kind=AXIS_N, outcome=HALF)


def test_simulate_measurements_shapes_and_records():
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    trajectory, records = simulate_measurements(spec, balanced(spec), 7, RngState(1))
    assert trajectory.steps == 7
    assert trajectory.states.shape == (8,)
    assert len(records) == 8
    kinds = [r.kind for r in records]
    assert kinds == [AXIS_Z, AXIS_N, AXIS_Z, AXIS_N, AXIS_Z, AXIS_N, AXIS_Z, AXIS_N]
    for k, record in enumerate(records):
        assert record.step == k
        assert record.outcome == trajectory.labels[trajectory.states[k]]


def test_simulate_measurements_is_deterministic():
    spec = SpinChainSpec(s=HALF, beta=0.8)
    t1, _ = simulate_measurements(spec, balanced(spec), 1000, RngState(42))
    t2, _ = simulate_measurements(spec, balanced(spec), 1000, RngState(42))
    assert np.array_equal(t1.states, t2.states)


def test_pure_initial_state_pins_the_first_outcome():
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    trajectory, _ = simulate_measurements(spec, Distribution(spec.labels, [0.0, 1.0, 0.0]), 10, RngState(0))
    assert trajectory.states[0] == 1


@pytest.mark.parametrize(
    "twice,beta",
    [(1, math.pi / 6.0), (1, math.pi / 2.0), (2, math.pi / 2.0), (2, 2.5), (3, math.pi / 6.0), (3, 2.5)],
)
def test_measurement_frequencies_close_on_the_analytic_matrix(twice, beta):
    spec = SpinChainSpec(s=HalfInt(twice), beta=beta)
    dim = twice + 1
    trajectory, _ = simulate_measurements(spec, balanced(spec), 200_000, RngState(twice * 100 + 1))
    theory = spin_transition_matrix(spec)
    tvs = per_row_tv(empirical_matrix(transition_counts(trajectory)), theory)
    assert all(tv is not None for tv in tvs)
    assert max(tvs) < 0.03


def test_even_and_odd_steps_share_one_transition_law():
    # split transitions by the parity of the starting step: both halves
    # must follow the same matrix, i.e. the chain is time-homogeneous
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    trajectory, _ = simulate_measurements(spec, balanced(spec), 200_000, RngState(9))
    theory = spin_transition_matrix(spec)
    states = trajectory.states
    dim = 3
    for parity in (0, 1):
        counts = np.zeros((dim, dim), dtype=np.int64)
        src = states[parity:-1:2]
        dst = states[parity + 1 :: 2]
        np.add.at(counts, (src, dst), 1)
        rows = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(rows - theory.rows).max() < 0.03


def test_coin_toss_stream_basics():
    bits = coin_toss_stream(0, RngState(0))
    assert bits.shape == (0,)
    assert bits.dtype == np.uint8
    a = coin_toss_stream(5000, RngState(42))
    b = coin_toss_stream(5000, RngState(42))
    assert np.array_equal(a, b)
    assert set(np.unique(a)) == {0, 1}
    assert abs(a.mean() - 0.5) < 0.03


def test_coin_toss_stream_different_seeds_differ():
    a = coin_toss_stream(64, RngState(1))
    b = coin_toss_stream(64, RngState(2))
    assert not np.array_equal(a, b)


def test_records_are_a_read_only_view_of_the_trajectory():
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    trajectory, records = simulate_measurements(spec, balanced(spec), 9, RngState(4))
    assert len(records) == 10
    assert records[-1] == records[9]
    assert records[9].kind == AXIS_N
    assert records[9].outcome == trajectory.labels[trajectory.states[9]]
    assert records[2:7:2] == [records[2], records[4], records[6]]
    assert all(r.kind == AXIS_Z for r in records[::2])
    with pytest.raises(IndexError):
        records[10]
    with pytest.raises(IndexError):
        records[-11]
    with pytest.raises(TypeError):
        records[0] = records[1]


@pytest.mark.parametrize("dim", [2, 3, 51])
def test_simulation_allocates_at_most_16_bytes_per_step(dim):
    spec = SpinChainSpec(s=HalfInt(dim - 1), beta=1.0)
    start = balanced(spec)
    steps = 10**6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simulate_measurements(spec, start, steps, RngState(11))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / steps <= 16.0


def test_coin_toss_allocates_at_most_8_bytes_per_bit():
    count = 10**6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        coin_toss_stream(count, RngState(11))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / count <= 8.0
