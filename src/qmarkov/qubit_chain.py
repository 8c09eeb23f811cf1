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
row j and column j' with labels descending, in one call, and each is a
few whole-array numpy passes with no loop over cells: the single sums
and the enumeration form all their terms in one array each and add
them into their cells with np.bincount, and the builder forms every
row's two binomial laws in one product each, with binomials from a
float table built once per process, then convolves each pair, adding
the terms in a fixed order with elementwise numpy only.  Flipping
every qubit maps j to -j, so the chain is centrosymmetric, P[i, k] =
P[N - i, N - k]; the builder convolves only the rows with at most N/2
up qubits and mirrors them, so that symmetry holds bit for bit.  Tests
close the loops between them, against their scalar forms one term at
a time, and against the spin-1/2 chain at N = 1.
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
# raw 64-bit words of the main stream per group of 64 flip lanes, one
# bit plane each, most significant first
_PLANES = 8


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
    """Realize the chain at the per-qubit level from initial_j, one of spec.labels.

    Each step flips each qubit independently with probability p =
    sin^2(beta/2); the recorded outcome is the resulting up count minus
    N/2.  Which qubits are up never matters because the flips are
    i.i.d., which is exactly why the aggregate is Markov in j; the
    simulator therefore tracks only the label index i = N - ups, with
    the up qubits notionally listed first and the i down qubits last.

    A step's flips form an N-bit word w, bit q set when qubit q flips.
    A qubit is up after the step exactly when it was up and did not
    flip, or was down and flipped, so the qubits down after it are the
    set bits of w ^ top[i], where top[i] masks the top i of the N bits:
    the next index is popcount(w ^ top[i]).

    The flips are drawn as bits, exactly in law.  A qubit flips when a
    uniform u falls below p, and u's binary digits, most significant
    first, decide that at the first one that differs from p's: u < p
    where p's digit is 1.  Each step's word is padded with zeros to 8,
    16, 32 or 64 bits, and every 8 bytes of words are a group of 64
    lanes, one per bit.  A group takes the next _PLANES = 8 raw 64-bit
    words of rng's main stream, one plane of bits each, one bit per
    lane.  Padding lanes never flip.  A lane whose 8 bits all equal p's
    first 8 digits, 2^-8 of them, takes the next uniform of rng's
    fallback stream, in group then lane order, and flips when it falls
    below the rest of p, p * 2^8 less those digits, which a double holds
    exactly.  So a qubit flips with probability p exactly when p is a
    multiple of 2^-61, as every p >= 2^-9 is, and otherwise with less
    than 2^-61 more; at p = 1, beta = pi, every digit is 1 and the rest
    is 1, so every lane flips.  The steps left of a draw's last group
    start the next draw, so the flips do not depend on how the walk is
    cut into draws.

    Registers of more than N_MAX_FORMULA = 64 qubits are refused with
    RangeLimitError, as the closed forms and the builder refuse them,
    before anything is allocated.  Each step's word is one unsigned
    integer, and markov._lockstep, the driver of every chain walk too,
    walks the whole walk from three parts: a draw of flip words, a
    guess of a batch's starts, and a walk of words one step at a time.
    A step takes as many raw words as its word has bytes, and the
    driver sizes its batches and draws from that and the word: batches
    of 4 blocks of segments at N <= 8, 2 at N <= 16 and 1 at N <= 64,
    and draws of a quarter block of raw words, 16384 steps at N <= 8 and
    2048 at N > 32.  A batch's segments are walked side by side by
    markov._couple, one gather of top and one popcount per
    segment-step.  Walks of different parity never meet, since i' = i +
    popcount(w) (mod 2); so each segment is guessed to start at the
    index nearest N/2 with the parity that the flips before it give, and
    at N = 1 every guess is right.  The walk goes one step at a time, in
    Python: through the stored flip words of a batch that fails to
    couple (beta = 0 keeps every index, and beta = pi maps i to N - i,
    so no guessed start ever meets the true one), and one draw of flips
    at a time in walks too short for a batch, in the tail after the
    last batch, and in the rest of a walk after a batch that failed.
    """
    n = _check_formula_range(spec)
    check_int("steps", steps, 0)
    labels = spec.labels
    try:
        index = labels.index(initial_j)
    except ValueError:
        raise InvalidArgumentError(f"initial_j={initial_j!r} is not an outcome label for {n} qubits") from None
    states = np.empty(steps + 1, dtype=markov._state_dtype(n + 1))
    states[0] = index
    _walk_register(n, flip_probability(spec.beta), index, states[1:], rng)
    return Trajectory(labels=labels, states=states, seed=rng.seed)


def _walk_register(n: int, p: float, index: int, out: np.ndarray, rng: RngState) -> None:
    """Write the label indices after steps 1..out.size of an n-qubit walk from index into out."""
    # a step's flips are padded with zeros to one word of 1, 2, 4 or 8 bytes
    word = np.dtype(f"<u{1 << (-(-n // 8) - 1).bit_length()}")
    top = [((1 << i) - 1) << (n - i) for i in range(n + 1)]
    top_words = np.array(top, dtype=word)
    bit_count = int.bit_count
    # a group is 8 bytes of flip words, 64 lanes, bit l of the group's
    # little-endian word lane l; the lanes past n in each word are padding
    group_steps = 8 // word.itemsize
    qubits = np.uint64(sum(((1 << n) - 1) << (8 * word.itemsize * s) for s in range(group_steps)))
    # p's first _PLANES binary digits and the rest, p * 2**_PLANES less
    # them, in [0, 1]; at p = 1, whose digits never end, the digits are
    # all ones and the rest is 1
    scaled = math.ldexp(p, _PLANES)
    lead = min(int(scaled), (1 << _PLANES) - 1)
    rest = scaled - lead
    digits = [lead >> k & 1 for k in reversed(range(_PLANES))]
    spare = np.empty(0, dtype=word)

    def decide(groups: int) -> np.ndarray:
        """The flip lanes of the next groups groups, one 64-bit word each."""
        planes = rng.raw_block(groups * _PLANES).reshape(groups, _PLANES)
        undecided = np.full(groups, qubits, dtype="<u8")
        flips = np.zeros(groups, dtype="<u8")
        ones = np.empty(groups, dtype="<u8")
        for k, digit in enumerate(digits):
            # a lane is decided at its first bit that differs from p's
            # digit, and flips, u < p, where that digit is 1 and its bit 0
            np.bitwise_and(planes[:, k], undecided, out=ones)
            np.bitwise_xor(undecided, ones, out=undecided)
            if digit:
                np.bitwise_or(flips, undecided, out=flips)
                undecided, ones = ones, undecided
        # freed before the fallback's arrays are made, which bounds the draw's peak
        del planes, ones
        # a lane still undecided flips when a uniform of the fallback
        # stream, taken in group then lane order, falls below the rest
        left = np.flatnonzero(undecided)
        if left.size:
            lanes = np.unpackbits(undecided[left].view(np.uint8), bitorder="little").view(bool)
            hits = np.zeros(lanes.size, dtype=bool)
            hits[lanes] = rng.fallback_block(int(np.count_nonzero(lanes))) < rest
            flips[left] |= np.packbits(hits, bitorder="little").view("<u8")
        return flips

    def draw(count: int) -> np.ndarray:
        """The flip words of the next count steps; the rest of the last group's steps start the next draw."""
        nonlocal spare
        words = np.concatenate((spare, decide(max(0, -(-(count - spare.size) // group_steps))).view(word)))
        spare = words[count:].copy()
        return words[:count]

    def walk(flips: np.ndarray, index: int, into: np.ndarray) -> int:
        """Walk the flip words from index one step at a time into `into`; returns the last index."""
        # at most 65 labels, so every index is one byte
        into[:] = np.frombuffer(bytes([index := bit_count(w ^ top[index]) for w in flips.tolist()]), np.uint8)
        return index

    def guess(index, batch):
        flips = np.empty(batch.shape[1], dtype=word)
        # the parity of the flips before each segment fixes the parity of
        # its start
        parity = np.bitwise_count(np.bitwise_xor.reduce(batch, axis=0)) & 1
        np.bitwise_xor.accumulate(parity, out=parity)
        starts = np.empty(batch.shape[1], dtype=out.dtype)
        starts[0] = index
        half = n // 2
        starts[1:] = half + ((half + index + parity[:-1]) & 1)

        def advance(k, states, into):
            top_words.take(states, out=flips, mode="clip")
            return np.bitwise_count(np.bitwise_xor(batch[k], flips, out=flips), out=into)

        return starts, advance

    markov._lockstep(out, index, _PLANES * word.itemsize // 8, word, draw, guess, walk)
