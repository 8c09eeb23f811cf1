"""The shared argument rules, and that every holder of a rule applies it."""

import math

import numpy as np
import pytest

from qmarkov import (
    DimensionMismatchError,
    Distribution,
    FormatError,
    HalfInt,
    InvalidArgumentError,
    InvalidDistributionError,
    QubitChainSpec,
    RangeLimitError,
    RngState,
    SpinChainSpec,
    StochasticMatrix,
    Trajectory,
    TransitionCounts,
    big_D,
    coin_toss_stream,
    flip_probability,
    simulate_chain,
    simulate_measurements,
    small_d,
    stationary,
)
from qmarkov.errors import check_int, check_real

HALF = HalfInt(1)


def test_every_input_error_is_an_invalid_argument():
    for cls in (RangeLimitError, InvalidDistributionError, DimensionMismatchError, FormatError):
        assert issubclass(cls, InvalidArgumentError)


def test_check_int():
    assert check_int("k", 0) == 0
    assert check_int("k", -5) == -5
    assert check_int("k", 3, minimum=3) == 3
    for bad in (True, False, 1.0, "1", None, np.int64(1)):
        with pytest.raises(InvalidArgumentError, match="k must be an integer"):
            check_int("k", bad)
    with pytest.raises(InvalidArgumentError, match="k must be at least 1, got 0"):
        check_int("k", 0, minimum=1)
    assert check_int("k", 5, 0, 5) == 5
    with pytest.raises(InvalidArgumentError, match="k must be at most 5, got 6"):
        check_int("k", 6, maximum=5)


def test_check_real():
    value = check_real("x", 2)
    assert value == 2.0 and type(value) is float
    assert check_real("x", -0.5) == -0.5
    for bad in (True, "1.0", None, 1j):
        with pytest.raises(InvalidArgumentError, match="x must be a real number"):
            check_real("x", bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="x must be finite"):
            check_real("x", bad)


def _chain():
    return StochasticMatrix(labels=("a", "b"), rows=np.array([[0.5, 0.5], [0.5, 0.5]]))


def _spin():
    return SpinChainSpec(s=HALF, beta=1.0)


# Trajectory and simulate_register have their own steps tests
COUNT_CHECKS = {
    "random_block": lambda n: RngState(0).random_block(n),
    "simulate_chain": lambda n: simulate_chain(
        _chain(), Distribution(("a", "b"), [1.0, 0.0]), n, RngState(0)
    ),
    "simulate_measurements": lambda n: simulate_measurements(
        _spin(), Distribution(_spin().labels, [1.0, 0.0]), n, RngState(0)
    ),
    "coin_toss_stream": lambda n: coin_toss_stream(n, RngState(0)),
}


@pytest.mark.parametrize("value", [-1, True, 1.0])
@pytest.mark.parametrize("holder", sorted(COUNT_CHECKS))
def test_counts_and_steps_are_non_negative_ints(holder, value):
    with pytest.raises(InvalidArgumentError):
        COUNT_CHECKS[holder](value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RngState(True),
        lambda: RngState(-1),
        lambda: RngState(2**64),
        lambda: QubitChainSpec(n_qubits=True, beta=1.0),
        lambda: stationary(_chain(), max_iters=True),
        lambda: stationary(_chain(), max_iters=0),
    ],
)
def test_other_integer_arguments(build):
    with pytest.raises(InvalidArgumentError):
        build()


@pytest.mark.parametrize("value", [True, math.nan, math.inf, "1.0"])
@pytest.mark.parametrize(
    "holder",
    [
        lambda x: small_d(HALF, x),
        lambda x: big_D(HALF, 0.0, 0.0, x),
        lambda x: SpinChainSpec(s=HALF, beta=x),
        lambda x: QubitChainSpec(n_qubits=1, beta=x),
        lambda x: flip_probability(x),
        lambda x: stationary(_chain(), tol=x),
        lambda x: big_D(HALF, x, 0.0, 0.0),
    ],
)
def test_real_arguments(holder, value):
    with pytest.raises(InvalidArgumentError):
        holder(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda labels: Distribution(labels, [0.5, 0.5]),
        lambda labels: StochasticMatrix(labels, np.eye(2)),
        lambda labels: Trajectory(labels=labels, states=np.array([0, 1]), seed=0),
        lambda labels: TransitionCounts(labels, np.zeros((2, 2), dtype=int)),
    ],
)
def test_label_sets_are_distinct_tuples(build):
    assert build(["a", "b"]).labels == ("a", "b")
    # a file gives each label's str its own line and reads labels back as
    # those strings, so the builders refuse what no reader would take back
    for labels, match in [
        (["a", "a"], "labels must be distinct"),
        ((HALF, HalfInt(1)), "labels must be distinct"),
        ((HalfInt(2), 1), r"labels must be distinct, got \('1', '1'\)"),
        (("a\nb", "c"), r"label 'a\\nb' contains a line break"),
        (("a\rb", "c"), r"label 'a\\rb' contains a line break"),
        (("c", "a\r\nb"), r"label 'a\\r\\nb' contains a line break"),
        ((), "at least one outcome label"),
    ]:
        with pytest.raises(InvalidArgumentError, match=match):
            build(labels)
