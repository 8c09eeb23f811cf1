"""Markov chain of the collective z-component of N independent qubits.

Alternately measuring every qubit along z and along a rotated axis n
makes the total outcome j (half the difference between up and down
counts) a Markov chain on {N/2, N/2-1, ..., -N/2}.  Each measurement
flips each qubit independently with probability sin^2(beta/2), so the
transition probability from j to j' is a sum of binomial terms over the
number of up-to-down flips.

Three independent routes are implemented: the closed-form single-sum
formulas as printed (two branches, j >= j' and j <= j'), the matrix
builder (each row a convolution of two binomial distributions), and a
brute-force double-sum enumeration over flip counts.  Each returns the
whole (N+1)x(N+1) matrix, row j and column j' with labels descending,
in one call, and each is a few whole-array numpy passes with no loop
over cells: the single sums and the enumeration form all their terms
in one array each and add them into their cells with np.bincount, and
the builder forms every row's two binomial laws in one product each,
with binomials from a float table built once per process, then
convolves each pair, adding the terms in a fixed order with
elementwise numpy only.  Flipping every qubit maps j to -j, so the
chain is centrosymmetric, P[i, k] = P[N - i, N - k]; the builder
convolves only the rows with at most N/2 up qubits and mirrors them,
so that symmetry holds bit for bit.  Tests close the loops between
them, against their scalar forms one term at a time, and against the
spin-1/2 chain at N = 1.  The simulator walks the builder's matrix; a
per-qubit walk in the tests checks its law.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError, RangeLimitError, check_int, check_real
from .halfint import HalfInt, m_values
from . import markov
from .markov import StochasticMatrix, Trajectory
from .rng import RngState

N_MAX_FORMULA = 64
N_MAX_BRUTE_FORCE = 20

_BRANCH_SEAM_TOL = 1e-12


@dataclass(frozen=True)
class QubitChainSpec:
    """Register parameters: qubit count and the axis rotation angle."""

    n_qubits: int
    beta: float

    def __post_init__(self):
        check_int("n_qubits", self.n_qubits, 1)
        check_real("beta", self.beta)

    @functools.cached_property
    def labels(self) -> tuple[HalfInt, ...]:
        """Outcome labels N/2, N/2-1, ..., -N/2 (N+1 of them), built once per spec."""
        return m_values(HalfInt(self.n_qubits))


def flip_probability(beta: float) -> float:
    """Probability sin^2(beta/2) that one qubit crosses between the bases.

    The four cross-basis overlaps come in two values, cos^2(beta/2) for
    staying and sin^2(beta/2) for flipping, identical in both measurement
    directions.
    """
    sh = math.sin(check_real("beta", beta) / 2.0)
    return sh * sh


def _check_formula_range(spec: QubitChainSpec) -> int:
    """The register size, if the closed forms cover it."""
    n = spec.n_qubits
    if n > N_MAX_FORMULA:
        raise RangeLimitError(f"closed form limited to N <= {N_MAX_FORMULA}, got N={n}")
    return n


@functools.lru_cache(maxsize=1)
def _binomials(size: int) -> np.ndarray:
    """The read-only float table C(m, k) for m and k in 0..size, zero for k > m.

    Each entry is float(math.comb(m, k)), the correctly rounded binomial,
    so the table is exact wherever a double holds C(m, k).  The routes
    ask for size N_MAX_FORMULA, which covers every N they accept, so it
    is built once per process.
    """
    table = np.zeros((size + 1, size + 1))
    # one row of Python integers at a time keeps few of them alive at once
    for m in range(size + 1):
        table[m, : m + 1] = [math.comb(m, k) for k in range(m + 1)]
    table.flags.writeable = False
    return table


def _power_tables(n: int, beta: float) -> tuple:
    """cos^2(beta/2) and sin^2(beta/2) to the powers 0..n, each a running product."""
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    powers = np.empty((n + 1, 2))
    powers[0] = 1.0
    powers[1:] = ch * ch, sh * sh
    powers = np.cumprod(powers, axis=0)
    return powers[:, 0], powers[:, 1]


def _branch_sums(start: np.ndarray, other: np.ndarray, delta: np.ndarray, cpow: np.ndarray, spow: np.ndarray) -> np.ndarray:
    """One printed branch per cell: the sum over m of C(start, m) C(other, K - m) terms.

    Cell c has start[c] qubits that can make the "toward j'" flip,
    delta[c] of which are forced; the cos/sin exponents count unflipped
    and flipped qubits.  K = other + delta is the printed upper limit of
    m; only m from delta to min(K, start) is formed, where every binomial
    and power index is in range, and each cell's terms are summed in
    order of m.
    """
    n = cpow.size - 1
    binom = _binomials(N_MAX_FORMULA)
    count = np.minimum(other, start - delta) + 1
    cell = np.repeat(np.arange(count.size), count)
    m = np.arange(cell.size) - (np.cumsum(count) - count - delta)[cell]
    start, other, delta = start[cell], other[cell], delta[cell]
    terms = binom[start, m] * binom[other, other + delta - m] * cpow[n + delta - 2 * m] * spow[2 * m - delta]
    return np.bincount(cell, weights=terms, minlength=count.size)


def q_formula(spec: QubitChainSpec) -> np.ndarray:
    """The chain matrix from the closed-form sums; row j, column j', labels descending.

    Each cell evaluates the printed branch for the sign of j - j'; on the
    diagonal both branches are evaluated and must agree to 1e-12, a
    standing tripwire for transcription errors in either formula.
    """
    n = _check_formula_range(spec)
    cpow, spow = _power_tables(n, spec.beta)
    # labels descend, so row i starts from n - i up qubits and i down;
    # where j >= j' (i <= k), m counts up qubits that flip down
    r = np.arange(n + 1)
    i, k = np.nonzero(r[:, None] <= r)
    values = _branch_sums(n - i, i, k - i, cpow, spow)
    # where j <= j', m counts down qubits that flip up: the branch at
    # (n - i, n - k) takes the same start, other and delta as at (i, k)
    q = np.empty((n + 1, n + 1))
    q[n - i, n - k] = values
    value_low = q.diagonal().copy()
    q[i, k] = values
    value_high = q.diagonal()
    seam = np.flatnonzero(np.abs(value_high - value_low) > _BRANCH_SEAM_TOL)
    if seam.size:
        i = int(seam[0])
        raise InternalConsistencyError(
            f"branch formulas disagree at j=j'={spec.labels[i]} for N={n}, beta={spec.beta}: "
            f"{float(value_high[i])!r} vs {float(value_low[i])!r}"
        )
    return q


def qubit_transition_matrix(spec: QubitChainSpec) -> StochasticMatrix:
    """The (N+1)x(N+1) chain matrix; row = current j, column = next j'.

    From ups up qubits, the next up count is the number of ups that stay
    up plus the number of downs that flip up: the sum of two independent
    binomials, so each row is the convolution of their distributions,
    reversed because labels descend.

    Flipping every qubit maps ups to n - ups, so the matrix is
    centrosymmetric: P[i, k] = P[n - i, n - k].  Only the rows from
    ups = 0..n // 2 are convolved, and the first half of the flat
    (n+1)^2 entries, read backwards, is copied over the second half; at
    even n that also makes the middle row a palindrome, whose two halves
    would otherwise differ in their last bits.  P == P[::-1, ::-1] holds
    bit for bit, and at most half of P's entries, rounded up, are
    distinct.
    """
    n = _check_formula_range(spec)
    # cos^2 and sin^2 as q_formula forms them, not 1 - p: the N = 1 rows
    # then equal the spin-1/2 rows bit for bit
    stay_pow, flip_pow = _power_tables(n, spec.beta)
    binom = _binomials(N_MAX_FORMULA)[: n + 1, : n + 1]
    # lag[u, k] = u - k, the qubits of u that do not do what k of them do;
    # entries past k = u have a zero binomial and are never read
    k = np.arange(n + 1)
    lag = np.maximum(k[:, None] - k, 0)
    # stay_up[u, k]: the chance that k of u up qubits stay up, and
    # flip_up[u, k] that k of u down qubits flip up
    stay_up = binom * stay_pow * flip_pow[lag]
    flip_up = binom * flip_pow * stay_pow[lag]
    # row ups of `ups_after` is the law of the next up count, 0..n; it is
    # formed for ups <= n / 2, and the flat array is mirrored end to end.
    # The convolution adds its terms in the order of j, the ups that stay
    # up, one elementwise pass each over the rows with ups >= j, so its
    # bits do not depend on a BLAS kernel's order of summation
    formed = n // 2 + 1
    flips = flip_up[n - np.arange(formed)]
    ups_after = np.zeros((n + 1, n + 1))
    for j in range(formed):
        ups_after[j:formed, j:] += flips[j:, : n + 1 - j] * stay_up[j:formed, j, None]
    flat = ups_after.reshape(-1)
    half = flat.size // 2
    flat[-half:] = flat[half - 1 :: -1]
    # labels descend, so rows and columns run from n up qubits down to 0:
    # ups_after[::-1, ::-1], which the mirror makes equal to ups_after
    return StochasticMatrix(labels=spec.labels, rows=ups_after)


def brute_force_q(spec: QubitChainSpec) -> np.ndarray:
    """The chain matrix by enumerating flip counts directly; rows and columns as q_formula.

    Starting from ups up qubits, a of them flip down and b of the downs
    flip up, each qubit independently with probability p; every (a, b)
    adds C(ups,a) C(downs,b) p^(a+b) (1-p)^(N-a-b) to the cell of
    ups' = ups - a + b, in order of ups, then a, then b.  Deliberately
    shares no structure with the single-sum closed form; kept within
    exact enumeration range.
    """
    n = spec.n_qubits
    if n > N_MAX_BRUTE_FORCE:
        raise RangeLimitError(f"enumeration limited to N <= {N_MAX_BRUTE_FORCE}, got N={n}")
    p = flip_probability(spec.beta)
    k = np.arange(n + 1)
    # every (ups, a, b) with a <= ups and b <= downs, and only those, so
    # no power below takes a negative exponent
    ups, a, b = np.nonzero((k[:, None, None] >= k[:, None]) & (k[:, None, None] + k <= n))
    binom = _binomials(N_MAX_FORMULA)
    weights = binom[ups, a] * binom[n - ups, b] * p ** (a + b) * (1.0 - p) ** (n - a - b)
    cells = (n - ups) * (n + 1) + n - (ups - a + b)
    return np.bincount(cells, weights=weights, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


def simulate_register(
    spec: QubitChainSpec,
    initial_j: HalfInt,
    steps: int,
    rng: RngState,
) -> Trajectory:
    """Realize the chain from initial_j, one of spec.labels, through the rows of qubit_transition_matrix(spec).

    Each step flips each qubit independently with probability p =
    sin^2(beta/2), and which qubits are up never matters because the
    flips are i.i.d., which is exactly why the aggregate is Markov in j.
    So the register is walked as the chain it is: markov._walk steps
    from the start's label index over the running sums of the matrix's
    rows, one uniform a step and none for the start, as every other
    chain walks.  A step's law is the law of the matrix's floats, within
    about 1e-15 of the binomial convolution, as the spin chain's is of
    |d^s|^2; tests check it against a per-qubit walk that shares no code
    with this one.  N = 1 takes the two-state scan; a larger register
    takes bisect in walks too short to repay a lookup table, and the
    lookup-table lockstep otherwise: 4 blocks of segments a batch up to
    N = 15, and fewer as the tables grow with N, 1 or 2 at N = 64.  A
    slowly mixing small register, such as N = 8 at beta = 0.1, may
    couple in no batch and go one step at a time.

    Registers of more than N_MAX_FORMULA = 64 qubits are refused with
    RangeLimitError, as the closed forms and the builder refuse them,
    before anything is allocated.
    """
    table = markov._cumulative(qubit_transition_matrix(spec).rows)
    check_int("steps", steps, 0)
    labels = spec.labels
    try:
        index = labels.index(initial_j)
    except ValueError:
        raise InvalidArgumentError(f"initial_j={initial_j!r} is not an outcome label for {spec.n_qubits} qubits") from None
    states = np.empty(steps + 1, dtype=markov._state_dtype(len(labels)))
    states[0] = index
    markov._walk(table, index, states[1:], rng)
    return Trajectory(labels=labels, states=states, seed=rng.seed)
