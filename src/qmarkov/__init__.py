"""Markov chains induced by alternating quantum measurements.

A spin measured along two alternating axes hops between outcomes with
probabilities given by squared rotation matrix elements; a register of
qubits read in two alternating product bases does the same on its total
spin projection.  This package computes those transition matrices in
closed form, simulates the chains at the individual-measurement level,
and checks simulation output against theory.
"""

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    FormatError,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidDistributionError,
    InvalidStateError,
    QmarkovError,
    RangeLimitError,
    UndefinedTestError,
)
from .halfint import HalfInt, m_values
from .markov import (
    Distribution,
    StationaryResult,
    StochasticMatrix,
    Trajectory,
    sample,
    simulate_chain,
    stationary,
)
from .qubit_chain import (
    N_MAX_BRUTE_FORCE,
    N_MAX_FORMULA,
    QubitChainSpec,
    brute_force_q,
    flip_probability,
    q_formula,
    qubit_transition_matrix,
    simulate_register,
)
from .rng import RNG_ALGORITHM, RngState
from .serialization import (
    FORMAT_VERSION,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_table,
    trajectory_from_text,
    write_trajectory,
)
from .spin_chain import (
    AXIS_N,
    AXIS_Z,
    MeasurementRecord,
    QuantumState,
    SpinChainSpec,
    coin_toss_stream,
    initial_distribution,
    simulate_measurements,
    spin_transition_matrix,
)
from .stats import (
    CHI2_CRIT_999,
    ChiSquareResult,
    EmpiricalMatrix,
    TransitionCounts,
    chi_square,
    empirical_matrix,
    per_row_tv,
    transition_counts,
)
from .wigner import (
    TWICE_S_MAX,
    BigDMatrix,
    EulerAngles,
    SmallDMatrix,
    big_D,
    small_d,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_N",
    "AXIS_Z",
    "BigDMatrix",
    "CHI2_CRIT_999",
    "ChiSquareResult",
    "ConvergenceError",
    "DimensionMismatchError",
    "Distribution",
    "EmpiricalMatrix",
    "EulerAngles",
    "FORMAT_VERSION",
    "FormatError",
    "HalfInt",
    "InternalConsistencyError",
    "InvalidArgumentError",
    "InvalidDistributionError",
    "InvalidStateError",
    "MeasurementRecord",
    "N_MAX_BRUTE_FORCE",
    "N_MAX_FORMULA",
    "QmarkovError",
    "QuantumState",
    "QubitChainSpec",
    "RangeLimitError",
    "RngState",
    "RNG_ALGORITHM",
    "SmallDMatrix",
    "SpinChainSpec",
    "StationaryResult",
    "StochasticMatrix",
    "Trajectory",
    "TransitionCounts",
    "TWICE_S_MAX",
    "UndefinedTestError",
    "big_D",
    "brute_force_q",
    "chi_square",
    "coin_toss_stream",
    "empirical_matrix",
    "flip_probability",
    "initial_distribution",
    "m_values",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_to_json",
    "matrix_to_table",
    "per_row_tv",
    "q_formula",
    "qubit_transition_matrix",
    "sample",
    "simulate_chain",
    "simulate_measurements",
    "simulate_register",
    "small_d",
    "spin_transition_matrix",
    "stationary",
    "trajectory_from_text",
    "transition_counts",
    "write_trajectory",
    "__version__",
]
