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
    m_values,
    simulate_measurements,
    small_d,
    spin_transition_matrix,
)

from qmarkov import spin_chain
from qmarkov.cli import main

from oracles import measured_spin_walk, oracle_small_d
from test_qubit_chain import _fit_each_other_by_tv_bound, _fit_the_measured_steps, _steps_by_kind

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


# angles of the bit-for-bit sweeps over 2s = 1..50
SWEEP_BETAS = (0.0, -0.0, 0.3, 1.0, math.pi / 2.0, 2.2, 2.7, math.pi, 7.0, -0.9)


def test_matrix_is_bit_for_bit_the_transposed_square_of_small_d():
    # the phases of big_D at alpha = gamma = 0 change no bit of |D|^2, so
    # the chain could square small_d directly with the same matrix digests;
    # the overlap keeps the cells (i, k) with i <= k and i + k <= 2s and
    # mirrors them, so the matrix equals the square there, and the
    # symmetry tests pin every other cell to one of those
    for twice in range(1, 51):
        r = np.arange(twice + 1)
        kept = (r[:, None] <= r) & (r[:, None] + r <= twice)
        for beta in SWEEP_BETAS:
            m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta))
            square = np.square(small_d(HalfInt(twice), beta).entries)
            assert np.array_equal(m.rows[kept], square[kept]), (twice, beta)


@pytest.mark.parametrize("twice", [1, 2, 3, 5, 9])
def test_doubly_stochastic(twice):
    rng = np.random.default_rng(twice)
    for beta in rng.uniform(0.0, math.pi, size=5):
        m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=float(beta)))
        assert np.abs(m.rows.sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(m.rows.sum(axis=0) - 1.0).max() < 1e-10


def test_a_matrix_that_is_not_doubly_stochastic_is_an_internal_error(monkeypatch):
    # a rotation whose squared first row is [0.5, 0.2]: the builder keeps
    # the cells (0, 0) and (0, 1) and copies them into the rest, so both
    # rows and both columns of [[0.5, 0.2], [0.2, 0.5]] sum to 0.7
    rotation = np.sqrt(np.array([[0.5, 0.2], [0.8, 0.5]], dtype=complex))
    monkeypatch.setattr(spin_chain, "big_D", lambda *args: rotation)
    spin_transition_matrix.cache_clear()
    with pytest.raises(InternalConsistencyError, match="row defect 3.000e-01"):
        spin_transition_matrix(SpinChainSpec(s=HalfInt(1), beta=1.0))


def test_matrix_is_symmetric():
    # |<a|R|b>| = |<b|R|a>| for rotations, so the chain is reversible; the
    # floats of the two triangles can differ in their last bits, and the
    # matrix is built symmetric bit for bit, so that a step from either
    # measurement axis reads the same table.  d^s_{m'm} = d^s_{-m,-m'}, so
    # the matrix also equals its reflection in the anti-diagonal, and with
    # its transpose, its reverse; that holds bit for bit too
    for twice in range(1, 51):
        for beta in SWEEP_BETAS:
            m = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta))
            assert np.array_equal(m.rows, m.rows.T), (twice, beta)
            assert np.array_equal(m.rows, m.rows[::-1, ::-1]), (twice, beta)


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=HalfInt(0), beta=1.0)
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=HALF, beta=float("nan"))
    with pytest.raises(InvalidArgumentError):
        SpinChainSpec(s=0.5, beta=1.0)


def test_spec_labels_are_built_once():
    # labels is computed on first access and kept; equality, hashing and
    # repr read only the fields, before and after
    spec, twin = SpinChainSpec(s=HalfInt(3), beta=0.5), SpinChainSpec(s=HalfInt(3), beta=0.5)
    before = (repr(spec), hash(spec))
    assert spec.labels is spec.labels
    assert spec.labels == m_values(HalfInt(3))
    assert (repr(spec), hash(spec)) == before == ("SpinChainSpec(s=HalfInt(3), beta=0.5)", hash(twin))
    assert spec == twin


def test_simulate_spin_builds_the_overlap_once(monkeypatch, capsys):
    # simulate --kind spin builds the transition matrix, then simulates the
    # same chain: d^s is evaluated once, and an equal spec gets the kept
    # matrix itself, read-only
    calls = []

    def counting(*args):
        calls.append(args)
        return big_D(*args)

    big_D = spin_chain.big_D
    monkeypatch.setattr(spin_chain, "big_D", counting)
    spin_transition_matrix.cache_clear()
    assert main(["simulate", "--kind", "spin", "--s", "7/2", "--beta", "0.9", "--steps", "100", "--seed", "1"]) == 0
    assert len(calls) == 1
    kept = spin_transition_matrix(SpinChainSpec(s=HalfInt(7), beta=0.9))
    assert len(calls) == 1 and not kept.rows.flags.writeable
    assert spin_transition_matrix(SpinChainSpec(s=HalfInt(7), beta=0.9)) is kept


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
    # the library's walk steps as spins measured by the Born rule do, with
    # no matrix on the measured side: every row of its transition counts
    # lies within the sum of the two samples' BHC bounds at delta = 1e-9
    # of the measured walk's row
    spec = SpinChainSpec(s=HalfInt(twice), beta=beta)
    trajectory, _ = simulate_measurements(spec, balanced(spec), 200_000, RngState(twice * 100 + 1))
    walked = sum(_steps_by_kind(trajectory.states[:, None], twice + 1))
    measured = sum(_steps_by_kind(measured_spin_walk(twice, beta, 100, 4000, twice * 100 + 2), twice + 1))
    assert _fit_each_other_by_tv_bound(walked, measured) == twice + 1


def test_even_and_odd_steps_share_one_transition_law():
    # split transitions by the parity of the starting step: the library's
    # steps from even steps (z -> n) follow the measured spins' z -> n
    # steps, and those from odd steps the n -> z ones, each row within the
    # sum of the two samples' BHC bounds; and the two halves follow each
    # other, so the chain is time-homogeneous
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    trajectory, _ = simulate_measurements(spec, balanced(spec), 200_000, RngState(9))
    walked = _steps_by_kind(trajectory.states[:, None], 3)
    measured = _steps_by_kind(measured_spin_walk(2, 1.0, 100, 4000, 10), 3)
    for ours, theirs in zip(walked, measured):
        assert _fit_each_other_by_tv_bound(ours, theirs) == 3
    assert _fit_each_other_by_tv_bound(*walked) == 3


# (2s, beta) of the measurement-level checks: the four smallest spins
# at a small, a middle and a large angle
MEASURED = [(twice, beta) for twice in (1, 2, 3, 4) for beta in (0.4, 1.0, 2.6)]


@pytest.mark.parametrize("twice,beta", MEASURED)
def test_measured_spins_step_by_the_transition_matrix(twice, beta):
    # 4000 spins measured alternately along z and n by the Born rule on
    # their own state vectors, 100 steps from every z outcome alike, with
    # no rotation or transition matrix: every row of the z -> n steps and
    # of the n -> z steps lies within the BHC bound at delta = 1e-9 of the
    # library's matrix row, and the two kinds within the sum of their
    # bounds of each other, so both kinds follow one law; and given the
    # two steps before, each step follows the row of the last alone
    dim = twice + 1
    rows = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta)).rows
    outcomes = measured_spin_walk(twice, beta, 100, 4000, twice)
    *tested, pairs = _fit_the_measured_steps(outcomes, rows)
    assert tested == [dim] * 3 and pairs >= dim


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
