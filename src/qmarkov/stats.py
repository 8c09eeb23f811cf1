"""Empirical estimates from trajectories and closeness tests against theory.

Everything here verifies rather than estimates: rows a trajectory never
visited are excluded from comparisons, not filled with priors, and all
statistical assertions in the test suite pin their seeds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError, UndefinedTestError
from .markov import _BLOCK, Distribution, StochasticMatrix, Trajectory, _labels

# 0.999 quantiles of the chi-square distribution by degrees of freedom,
# hard-coded so no special-function dependency is needed
CHI2_CRIT_999 = {
    1: 10.827566170662733,
    2: 13.815510557964274,
    3: 16.26623619623813,
    4: 18.46682695290317,
    5: 20.515005652432873,
    6: 22.457744484825323,
    7: 24.321886347856854,
    8: 26.12448155837614,
    9: 27.877164871256568,
    10: 29.58829844507442,
}

# Cochran's rule: a cell expecting fewer counts than this is pooled
_MIN_EXPECTED = 5.0


@dataclass(frozen=True, eq=False)
class TransitionCounts:
    """Observed step counts: counts[i, j] = number of i -> j transitions."""

    labels: tuple
    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        labels = _labels(self.labels)
        n = len(labels)
        if arr.shape != (n, n):
            raise DimensionMismatchError(
                f"expected a {n}x{n} count matrix for {n} labels, got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidArgumentError("counts must be integers")
        if arr.min() < 0:
            raise InvalidArgumentError("counts must be non-negative")
        arr = arr.astype(np.int64, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True, eq=False)
class EmpiricalMatrix:
    """Row-normalized counts; rows with no visits are flagged, not invented."""

    labels: tuple
    rows: np.ndarray
    row_visits: np.ndarray

    @property
    def observed(self) -> np.ndarray:
        """Boolean mask of rows that were visited at least once."""
        return self.row_visits > 0


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int


def transition_counts(t: Trajectory) -> TransitionCounts:
    """Exact pairwise step counts of a trajectory."""
    n = len(t.labels)
    states = t.states
    counts = np.zeros(n * n, dtype=np.int64)
    # pair codes prev * n + next, one block at a time; each block is
    # widened to int64 first, since narrow state arithmetic would wrap
    for start in range(0, states.size - 1, _BLOCK):
        stop = min(start + _BLOCK, states.size - 1)
        pairs = states[start:stop].astype(np.int64)
        pairs *= n
        pairs += states[start + 1 : stop + 1]
        counts += np.bincount(pairs, minlength=n * n)
    return TransitionCounts(labels=t.labels, counts=counts.reshape(n, n))


def empirical_matrix(c: TransitionCounts) -> EmpiricalMatrix:
    """Row-normalize counts into transition frequency estimates.

    Unvisited rows come back all-zero with a zero visit count; consumers
    must skip them (the observed mask says which).
    """
    visits = c.counts.sum(axis=1)
    rows = np.zeros(c.counts.shape, dtype=float)
    seen = visits > 0
    rows[seen] = c.counts[seen] / visits[seen, None]
    rows.flags.writeable = False
    visits.flags.writeable = False
    return EmpiricalMatrix(labels=c.labels, rows=rows, row_visits=visits)


def per_row_tv(empirical: EmpiricalMatrix, theory: StochasticMatrix) -> list:
    """TV between each observed empirical row and the matching theory row.

    Returns one entry per label: a float for visited rows, None for rows
    the trajectory never left from.
    """
    if empirical.labels != theory.labels:
        raise DimensionMismatchError("empirical and theory matrices have different labels")
    out = []
    for i, seen in enumerate(empirical.observed):
        if seen:
            out.append(0.5 * float(np.abs(empirical.rows[i] - theory.rows[i]).sum()))
        else:
            out.append(None)
    return out


def chi_square(observed, expected: Distribution) -> ChiSquareResult:
    """Pearson goodness-of-fit statistic of observed counts against expected.

    Cells whose expected count falls below 5 (_MIN_EXPECTED) are pooled into a
    single cell before the statistic is formed; degrees of freedom are
    (effective cells - 1).  A test with fewer than two effective cells is
    undefined and reported as such.
    """
    counts = np.asarray(observed, dtype=float)
    if counts.ndim != 1 or counts.size != expected.dim:
        raise DimensionMismatchError(
            f"expected {expected.dim} observed cells, got shape {counts.shape}"
        )
    if counts.min() < 0:
        raise InvalidArgumentError("observed counts must be non-negative")
    total = float(counts.sum())
    if total <= 0:
        raise InvalidArgumentError("chi-square needs at least one observation")
    expected_counts = expected.probs * total
    # a zero-mass cell is below _MIN_EXPECTED, so it is pooled and no kept
    # cell can divide by zero
    keep = expected_counts >= _MIN_EXPECTED
    statistic = 0.0
    cells = 0
    for o, e in zip(counts[keep], expected_counts[keep]):
        statistic += (o - e) ** 2 / e
        cells += 1
    pooled = int(np.count_nonzero(~keep))
    if pooled:
        o = float(counts[~keep].sum())
        e = float(expected_counts[~keep].sum())
        if e > 0:
            statistic += (o - e) ** 2 / e
            cells += 1
        elif o > 0:
            # observations where the model puts zero mass: reject outright
            statistic = float("inf")
            cells += 1
    if cells < 2:
        raise UndefinedTestError(
            f"only {cells} effective cell(s) after pooling below {_MIN_EXPECTED}"
        )
    return ChiSquareResult(statistic=float(statistic), dof=cells - 1)
