"""Markov chain of the collective z-component of N independent qubits.

Alternately measuring every qubit along z and along a rotated axis n
makes the total outcome j (half the difference between up and down
counts) a Markov chain on {N/2, N/2-1, ..., -N/2}.  Each measurement
flips each qubit independently with probability sin^2(beta/2), so the
transition probability from j to j' is a sum of binomial terms over the
number of up-to-down flips.

Four independent routes are implemented: the closed-form single-sum
formulas as printed (two branches, j >= j' and j <= j'), the matrix
builder (each row a convolution of two binomial distributions), a
brute-force double-sum enumeration over flip counts, and a per-qubit
simulator.  The first three each return the whole (N+1)x(N+1) matrix,
row j and column j' with labels descending, in one call.  Tests close
the loops between them and against the spin-1/2 chain at N = 1.
"""

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

    @property
    def labels(self) -> tuple[HalfInt, ...]:
        """Outcome labels N/2, N/2-1, ..., -N/2 (N+1 of them)."""
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


def _branch_sum(start_count: int, other_count: int, delta: int, cpow: list, spow: list) -> float:
    """One printed branch: sum over m of C(start_count, m) C(other_count, K - m) terms.

    start_count qubits can make the "toward j'" flip, delta of which are
    forced; the cos/sin exponents count unflipped and flipped qubits.
    K = other_count + delta is the printed upper limit of m; terms above
    min(K, start_count) carry a zero binomial and are skipped so the
    power tables are never indexed negatively.
    """
    n = start_count + other_count
    total = 0.0
    for m in range(delta, min(other_count + delta, start_count) + 1):
        coeff = math.comb(start_count, m) * math.comb(other_count, other_count + delta - m)
        total += coeff * cpow[n + delta - 2 * m] * spow[2 * m - delta]
    return total


def q_formula(spec: QubitChainSpec) -> np.ndarray:
    """The chain matrix from the closed-form sums; row j, column j', labels descending.

    Each cell evaluates the printed branch for the sign of j - j'; on the
    diagonal both branches are evaluated and must agree to 1e-12, a
    standing tripwire for transcription errors in either formula.
    """
    n = _check_formula_range(spec)
    ch = math.cos(spec.beta / 2.0)
    sh = math.sin(spec.beta / 2.0)
    cc = ch * ch
    ss = sh * sh
    cpow = [1.0]
    spow = [1.0]
    for _ in range(n):
        cpow.append(cpow[-1] * cc)
        spow.append(spow[-1] * ss)
    q = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        # labels descend, so row i starts from n - i up qubits
        ups = n - i
        downs = i
        for k in range(n + 1):
            if i < k:
                q[i, k] = _branch_sum(ups, downs, k - i, cpow, spow)
            elif i > k:
                q[i, k] = _branch_sum(downs, ups, i - k, cpow, spow)
            else:
                value_high = _branch_sum(ups, downs, 0, cpow, spow)
                value_low = _branch_sum(downs, ups, 0, cpow, spow)
                if abs(value_high - value_low) > _BRANCH_SEAM_TOL:
                    raise InternalConsistencyError(
                        f"branch formulas disagree at j=j'={spec.labels[i]} for N={n}, beta={spec.beta}: "
                        f"{value_high!r} vs {value_low!r}"
                    )
                q[i, k] = value_high
    return q


def qubit_transition_matrix(spec: QubitChainSpec) -> StochasticMatrix:
    """The (N+1)x(N+1) chain matrix; row = current j, column = next j'.

    From ups up qubits, the next up count is the number of ups that stay
    up plus the number of downs that flip up: the sum of two independent
    binomials, so each row is the convolution of their distributions,
    reversed because labels descend.
    """
    n = _check_formula_range(spec)
    ch = math.cos(spec.beta / 2.0)
    sh = math.sin(spec.beta / 2.0)
    # cos^2 and sin^2 as q_formula forms them, not 1 - p: the N = 1 rows
    # then equal the spin-1/2 rows bit for bit
    stay_pow = np.cumprod([1.0] + [ch * ch] * n)
    flip_pow = np.cumprod([1.0] + [sh * sh] * n)
    # Pascal's triangle, row m = C(m, 0..m), in Python integers, so exact
    # at any N; each float is float(math.comb(m, k)), correctly rounded
    binom = np.zeros((n + 1, n + 1), dtype=object)
    binom[:, 0] = 1
    for m in range(1, n + 1):
        binom[m, 1:] = binom[m - 1, 1:] + binom[m - 1, :-1]
    binom = binom.astype(float)
    rows = np.empty((n + 1, n + 1))
    for ups in range(n + 1):
        downs = n - ups
        stay_up = binom[ups, : ups + 1] * stay_pow[: ups + 1] * flip_pow[ups::-1]
        flip_up = binom[downs, : downs + 1] * flip_pow[: downs + 1] * stay_pow[downs::-1]
        rows[downs] = np.convolve(stay_up, flip_up)[::-1]
    return StochasticMatrix(labels=spec.labels, rows=rows)


def _flip_words(flips: np.ndarray) -> list:
    """One int per row of a boolean flip array, with bit q set when qubit q flips."""
    packed = np.packbits(flips, axis=1, bitorder="little")
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")
    rows = words[:, -1].tolist()
    # fold wider registers in 64-bit limbs, most significant first
    for limb in range(words.shape[1] - 2, -1, -1):
        rows = [(high << 64) | low for high, low in zip(rows, words[:, limb].tolist())]
    return rows


def brute_force_q(spec: QubitChainSpec) -> np.ndarray:
    """The chain matrix by enumerating flip counts directly; rows and columns as q_formula.

    Starting from ups up qubits, a of them flip down and b of the downs
    flip up, each qubit independently with probability p; every (a, b)
    adds C(ups,a) C(downs,b) p^(a+b) (1-p)^(N-a-b) to the cell of
    ups' = ups - a + b.  Deliberately shares no structure with the
    single-sum closed form; kept within exact enumeration range.
    """
    n = spec.n_qubits
    if n > N_MAX_BRUTE_FORCE:
        raise RangeLimitError(f"enumeration limited to N <= {N_MAX_BRUTE_FORCE}, got N={n}")
    p = flip_probability(spec.beta)
    q = 1.0 - p
    rows = [[0.0] * (n + 1) for _ in range(n + 1)]
    for ups in range(n + 1):
        downs = n - ups
        row = rows[n - ups]
        for a in range(ups + 1):
            for b in range(downs + 1):
                row[n - (ups - a + b)] += math.comb(ups, a) * math.comb(downs, b) * p ** (a + b) * q ** (n - a - b)
    return np.array(rows)


def simulate_register(
    spec: QubitChainSpec,
    initial_j: HalfInt,
    steps: int,
    rng: RngState,
) -> Trajectory:
    """Realize the chain at the per-qubit level from initial_j, one of spec.labels.

    Each step draws one uniform per qubit and flips it when the draw
    falls below sin^2(beta/2); the recorded outcome is the resulting up
    count minus N/2.  Which qubits are up never matters because the
    flips are i.i.d., which is exactly why the aggregate is Markov in j;
    the simulator therefore tracks only the count, with the up qubits
    notionally listed first.
    """
    n = spec.n_qubits
    check_int("steps", steps, 0)
    labels = spec.labels
    try:
        start = labels.index(initial_j)
    except ValueError:
        raise InvalidArgumentError(f"initial_j={initial_j!r} is not an outcome label for {n} qubits") from None
    ups = n - start  # labels descend, so index = N - ups
    p = flip_probability(spec.beta)
    states = np.empty(steps + 1, dtype=markov._state_dtype(n + 1))
    states[0] = start
    # up_mask[u] selects the u up qubits, bits 0..u-1, of a step's flip word
    up_mask = [(1 << u) - 1 for u in range(n + 1)]
    block_steps = max(1, markov._BLOCK // n)
    done = 0
    while done < steps:
        count = min(block_steps, steps - done)
        flips = rng.random_block(count * n).reshape(count, n) < p
        path = []
        append = path.append
        for word in _flip_words(flips):
            # each up qubit that flips goes down, each other flip goes up
            ups += word.bit_count() - 2 * (word & up_mask[ups]).bit_count()
            append(n - ups)
        states[done + 1 : done + count + 1] = np.fromiter(path, dtype=states.dtype, count=count)
        done += count
    return Trajectory(labels=labels, states=states, seed=rng.seed)
