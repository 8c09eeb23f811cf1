"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths under test: rotation
matrices come from an eigendecomposition of the angular momentum
operator, or exactly in rational arithmetic from Wigner's explicit sum,
rather than from the library's recursion, and register transition
probabilities come from enumerating every flip pattern of every qubit,
or exactly in rational arithmetic as a convolution of two binomial laws.
The register's walk has a per-qubit route here too: every qubit of the
register flipped on its own at each step.  The spin's and the register's
walks have a measurement-level route: state vectors measured alternately
along z and along n by the Born rule, with no rotation or transition
matrix at all.
The register matrix oracle is the exception: it repeats the builder's
float arithmetic with binomials from math.comb, to pin the builder's
output bit for bit.  The library's closed-form sums and flip-count
enumeration are whole-array passes; their scalar forms live here, one
cell and one term at a time with exact integer binomials.
The trajectory parser splits the whole file into lines and looks each
label up on its own, and the matrix writers render every entry on its
own.  Slow is fine; different is the point.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from qmarkov.errors import FormatError, InvalidArgumentError, check_int
from qmarkov.halfint import HalfInt
from qmarkov.markov import Trajectory, _labels
from qmarkov.serialization import FORMAT_VERSION


def _raising(twice_s: int) -> np.ndarray:
    """The raising operator S_+ in the basis m = s..-s."""
    dim = twice_s + 1
    s = twice_s / 2.0
    ms = [s - i for i in range(dim)]
    raising = np.zeros((dim, dim))
    for i in range(dim - 1):
        m = ms[i + 1]
        raising[i, i + 1] = math.sqrt(s * (s + 1) - m * (m + 1))
    return raising


def sy_matrix(twice_s: int) -> np.ndarray:
    """Spin-y operator in the basis m = s..-s via ladder operators."""
    raising = _raising(twice_s)
    return (raising - raising.T) / 2j


def sx_matrix(twice_s: int) -> np.ndarray:
    """Spin-x operator in the basis m = s..-s via ladder operators."""
    raising = _raising(twice_s)
    return (raising + raising.T) / 2


def measured_spin_walk(twice_s: int, beta: float, steps: int, walkers: int, seed: int) -> np.ndarray:
    """Outcome indices, shape (steps + 1, walkers), of spins measured alternately along z and n.

    Walker w starts in the S_z eigenstate of index w % (2s + 1), which is
    row 0's outcome; at step k it is measured in the eigenbasis of S_z
    for even k and of cos(beta) S_z + sin(beta) S_x for odd k, each basis
    from eigh and listed by descending eigenvalue, as the library's
    labels m = s..-s are.  Each walker's state vector is a column of one
    array: its outcome is drawn by the Born rule, |<e_k|psi>|^2 against a
    uniform of numpy's own generator, and psi collapses to e_k.  No
    rotation or transition matrix takes part.
    """
    dim = twice_s + 1
    sz = np.diag(twice_s / 2.0 - np.arange(dim))
    # eigh lists eigenvalues ascending, so each basis is read back to front
    bases = [np.linalg.eigh(axis)[1][:, ::-1] for axis in (sz, math.cos(beta) * sz + math.sin(beta) * sx_matrix(twice_s))]
    generator = np.random.default_rng(seed)
    outcomes = np.empty((steps + 1, walkers), dtype=np.intp)
    outcomes[0] = np.arange(walkers) % dim
    psi = bases[0][:, outcomes[0]].astype(complex)
    for k in range(1, steps + 1):
        basis = bases[k % 2]
        born = np.abs(basis.conj().T @ psi) ** 2
        cdf = np.cumsum(born, axis=0)
        outcome = np.minimum((cdf < generator.random(walkers) * cdf[-1]).sum(axis=0), dim - 1)
        outcomes[k] = outcome
        psi = basis[:, outcome].astype(complex)
    return outcomes


def oracle_small_d(twice_s: int, beta: float) -> np.ndarray:
    """d^s(beta) = exp(-i beta S_y) by eigendecomposition; real part."""
    w, v = np.linalg.eigh(sy_matrix(twice_s))
    d = v @ np.diag(np.exp(-1j * beta * w)) @ v.conj().T
    assert np.abs(d.imag).max() < 1e-12
    return d.real


def oracle_big_D(twice_s: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    d = oracle_small_d(twice_s, beta)
    ms = np.array([(twice_s - 2 * i) / 2.0 for i in range(twice_s + 1)])
    return np.exp(-1j * ms * alpha)[:, None] * d * np.exp(-1j * ms * gamma)[None, :]


def exact_small_d_squared(twice_s: int, t: Fraction) -> list:
    """|d^s_{m'm}|^2 as exact Fractions at cos(beta/2) = (1-t^2)/(1+t^2), sin(beta/2) = 2t/(1+t^2).

    Rows m' and columns m run s..-s.  Wigner's explicit sum gives
    d^s_{m'm} = sqrt((s+m')!(s-m')!(s+m)!(s-m)!) times
    sum_q (-1)^(q-m+m') c^(2s-2q+m-m') s^(2q-m+m') / ((s+m-q)! q! (s-m'-q)! (q-m+m')!).
    Squaring removes the root, and c^2 + s^2 = 1 holds exactly at these
    Pythagorean points, so every entry and every row sum is exact.
    With row i and column k, s+m' = n-i, s-m' = i, s+m = n-k, s-m = k
    for n = 2s; every term has total power n, so c^a s^b is an integer
    over (1+t^2)^n, kept as numerators cos_num^a sin_num^b.
    """
    n = twice_s
    cos_num = t.denominator**2 - t.numerator**2
    sin_num = 2 * t.numerator * t.denominator
    scale = Fraction(1, (t.denominator**2 + t.numerator**2) ** n)
    fact = [math.factorial(k) for k in range(n + 1)]
    rows = []
    for i in range(n + 1):
        row = []
        for k in range(n + 1):
            amplitude = Fraction(0)
            for q in range(max(0, i - k), min(n - k, i) + 1):
                term = Fraction(
                    cos_num ** (n - 2 * q + i - k) * sin_num ** (2 * q + k - i),
                    fact[n - k - q] * fact[q] * fact[i - q] * fact[q + k - i],
                )
                amplitude += -term if q % 2 else term
            row.append(fact[n - i] * fact[i] * fact[n - k] * fact[k] * (amplitude * scale) ** 2)
        rows.append(row)
    return rows


def exact_register_row(n_qubits: int, ups: int, t: Fraction) -> list:
    """Row ups of the register matrix as exact Fractions, at the Pythagorean point of t.

    With c = cos(beta/2) = (1-t^2)/(1+t^2) and s = sin(beta/2) = 2t/(1+t^2),
    the next up count is the sum of Binomial(ups, c^2), the ups that stay
    up, and Binomial(N - ups, s^2), the downs that flip up; the row is the
    convolution of the two laws, listed for next up counts N..0 so that
    labels descend.  c^2 + s^2 = 1 exactly, so the row sums to exactly 1.
    """
    downs = n_qubits - ups
    stay = ((1 - t * t) / (1 + t * t)) ** 2
    flip = (2 * t / (1 + t * t)) ** 2
    stay_up = [math.comb(ups, k) * stay**k * flip ** (ups - k) for k in range(ups + 1)]
    flip_up = [math.comb(downs, k) * flip**k * stay ** (downs - k) for k in range(downs + 1)]
    row = [Fraction(0)] * (n_qubits + 1)
    for a, weight_a in enumerate(stay_up):
        for b, weight_b in enumerate(flip_up):
            row[a + b] += weight_a * weight_b
    return row[::-1]


def enumerate_q(n_qubits: int, beta: float, j: HalfInt, j_prime: HalfInt) -> float:
    """Transition probability by summing over every flip mask of the register.

    Each qubit independently flips its reading between the two bases
    with probability sin^2(beta/2).  O(2^N); keep N small.
    """
    p = math.sin(beta / 2.0) ** 2
    ups = (n_qubits + j.twice) // 2
    if ups < 0 or ups > n_qubits or (n_qubits + j.twice) % 2:
        raise ValueError(f"j={j} impossible for {n_qubits} qubits")
    total = 0.0
    for mask in itertools.product((0, 1), repeat=n_qubits):
        weight = 1.0
        for bit in mask:
            weight *= p if bit else (1.0 - p)
        flipped_down = sum(mask[:ups])
        flipped_up = sum(mask[ups:])
        ups_after = ups - flipped_down + flipped_up
        if 2 * ups_after - n_qubits == j_prime.twice:
            total += weight
    return total


def _branch_sum(start_count: int, other_count: int, delta: int, cpow: list, spow: list) -> float:
    """One printed branch: sum over m of C(start_count, m) C(other_count, K - m) terms.

    start_count qubits can make the "toward j'" flip, delta of which are
    forced; K = other_count + delta is the printed upper limit of m, and
    terms above min(K, start_count) carry a zero binomial.
    """
    n = start_count + other_count
    total = 0.0
    for m in range(delta, min(other_count + delta, start_count) + 1):
        coeff = math.comb(start_count, m) * math.comb(other_count, other_count + delta - m)
        total += coeff * cpow[n + delta - 2 * m] * spow[2 * m - delta]
    return total


def scalar_q_formula(n_qubits: int, beta: float) -> np.ndarray:
    """The printed single sums one cell at a time, rows j and columns j' descending.

    Each cell takes the branch for the sign of j - j', the one for j > j'
    on the diagonal.
    """
    n = n_qubits
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    cc = ch * ch
    ss = sh * sh
    cpow = [1.0]
    spow = [1.0]
    for _ in range(n):
        cpow.append(cpow[-1] * cc)
        spow.append(spow[-1] * ss)
    q = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        ups, downs = n - i, i
        for k in range(n + 1):
            if i <= k:
                q[i, k] = _branch_sum(ups, downs, k - i, cpow, spow)
            else:
                q[i, k] = _branch_sum(downs, ups, i - k, cpow, spow)
    return q


def scalar_brute_force_q(n_qubits: int, beta: float) -> np.ndarray:
    """Every (ups, a, b) flip count one term at a time, in exact integer binomials; rows and columns as q_formula."""
    n = n_qubits
    sh = math.sin(beta / 2.0)
    p = sh * sh
    q = 1.0 - p
    rows = [[0.0] * (n + 1) for _ in range(n + 1)]
    for ups in range(n + 1):
        downs = n - ups
        row = rows[n - ups]
        for a in range(ups + 1):
            for b in range(downs + 1):
                row[n - (ups - a + b)] += math.comb(ups, a) * math.comb(downs, b) * p ** (a + b) * q ** (n - a - b)
    return np.array(rows)


def oracle_register_matrix(n_qubits: int, beta: float) -> np.ndarray:
    """The register matrix built row by row from math.comb binomial lists.

    The builder's arithmetic in the builder's order, with each binomial
    row a fresh list of math.comb values converted to float, so the two
    must agree bit for bit whatever table the builder takes them from.
    Rows from at most n // 2 up qubits are formed; every other cell
    takes the value of the cell that flipping every qubit maps it to,
    with the cells read in row-major order and the later cell of each
    pair taking the earlier one's value.
    """
    n = n_qubits
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    stay_pow = np.cumprod([1.0] + [ch * ch] * n)
    flip_pow = np.cumprod([1.0] + [sh * sh] * n)
    rows = np.empty((n + 1, n + 1))
    for ups in range(n // 2 + 1):
        downs = n - ups
        comb_ups = np.array([math.comb(ups, k) for k in range(ups + 1)], dtype=float)
        comb_downs = np.array([math.comb(downs, k) for k in range(downs + 1)], dtype=float)
        stay_up = comb_ups * stay_pow[: ups + 1] * flip_pow[ups::-1]
        flip_up = comb_downs * flip_pow[: downs + 1] * stay_pow[downs::-1]
        # the convolution's terms added in the builder's order, that of
        # the ups that stay up
        row = np.zeros(n + 1)
        for j in range(ups + 1):
            row[j : j + downs + 1] += stay_up[j] * flip_up
        rows[downs] = row[::-1]
    # rows[downs] holds the law of ups, so the formed cells are the last
    # ones in row-major order; each earlier cell copies its image
    for i in range(n + 1):
        for k in range(n + 1):
            if (i, k) < (n - i, n - k):
                rows[i, k] = rows[n - i, n - k]
    return rows


def per_qubit_register_walk(n_qubits: int, beta: float, ups: int, steps: int, seed: int) -> np.ndarray:
    """The label indices, n - ups, of steps steps of a register of qubits flipped one by one.

    Qubit q is up where its entry is True; the first ups qubits start up.
    Each step flips every qubit on its own, where a fresh uniform of
    numpy's own generator falls below sin^2(beta/2), so the qubits after
    step k are the start XOR the running XOR of the flips.  No binomial,
    matrix or library walker takes part.
    """
    p = math.sin(beta / 2.0) ** 2
    generator = np.random.default_rng(seed)
    qubits = np.arange(n_qubits) < ups
    states = [np.array([n_qubits - ups])]
    for done in range(0, steps, 4096):
        flips = generator.random((min(4096, steps - done), n_qubits)) < p
        after = np.bitwise_xor.accumulate(flips, axis=0) ^ qubits
        states.append(n_qubits - after.sum(axis=1))
        qubits = after[-1]
    return np.concatenate(states)


def measured_register_walk(n_qubits: int, beta: float, rounds: int, walkers: int, seed: int) -> np.ndarray:
    """Up counts j, shape (rounds + 1, walkers), of registers whose qubits are measured one by one along z or n.

    Walker w starts in the sigma_z eigenstate whose first w % (N + 1)
    qubits are up, and row 0 counts them.  Round k measures every qubit
    in turn in the eigenbasis of sigma_z for even k and of sigma_n =
    cos(beta) sigma_z + sin(beta) sigma_x for odd k, each basis from eigh
    of the 2 x 2 matrix and listed up first; row k counts the ups of
    round k.  Each walker's 2^N state vector is a row of one array, its
    leading qubit on the axis of length 2 in shape (walkers, 2, 2^(N-1)):
    the qubit's outcome is drawn by the Born rule, the squared norm of
    the state's part along each basis vector against a uniform of numpy's
    own generator, the state collapses to that part, renormalized, and
    the next qubit is rotated to the front.  Every operator and start
    state is real, and so is every state.  No binomial, transition matrix
    or library walker takes part.
    """
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    # eigh lists eigenvalues ascending, so each basis is read back to front
    bases = [np.linalg.eigh(axis)[1][:, ::-1] for axis in (sz, math.cos(beta) * sz + math.sin(beta) * sx)]
    generator = np.random.default_rng(seed)
    ups = np.empty((rounds + 1, walkers), dtype=np.intp)
    ups[0] = np.arange(walkers) % (n_qubits + 1)
    # basis state i holds qubit q down where bit n - 1 - q of i is set, so
    # the first u qubits up and the rest down is state 2^(n - u) - 1
    psi = np.zeros((walkers, 2**n_qubits))
    psi[np.arange(walkers), 2 ** (n_qubits - ups[0]) - 1] = 1.0
    every = np.arange(walkers)
    for k in range(1, rounds + 1):
        basis = bases[k % 2]
        ups[k] = 0
        for _ in range(n_qubits):
            # each state's parts along the leading qubit's two basis vectors
            parts = basis.T @ psi.reshape(walkers, 2, -1)
            born = np.square(parts).sum(axis=2)
            outcome = (generator.random(walkers) * born.sum(axis=1) >= born[:, 0]).astype(np.intp)
            ups[k] += outcome == 0
            kept = parts[every, outcome] / np.sqrt(born[every, outcome])[:, None]
            collapsed = basis[:, outcome].T[:, :, None] * kept[:, None, :]
            # the measured qubit goes last, and the next one leads
            psi = collapsed.transpose(0, 2, 1).reshape(walkers, -1)
    return ups


def oracle_trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    """Parse a trajectory file one whole-file line list at a time."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty trajectory file", line=1)
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid header JSON: {exc}", line=1) from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object", line=1)
    labels = header.get("labels")
    seed = header.get("seed")
    steps = header.get("steps")
    rng_name = header.get("rng")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("header 'labels' must be a list of strings", line=1)
    try:
        labels = _labels(labels)
        check_int("header 'seed'", seed, 0)
        check_int("header 'steps'", steps, 0)
    except InvalidArgumentError as exc:
        raise FormatError(str(exc), line=1) from None
    if seed >= 2**64:
        raise FormatError(f"header 'seed' must be at most {2**64 - 1}, got {seed}", line=1)
    if not isinstance(rng_name, str):
        raise FormatError("header 'rng' must be a string", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header.get('version')!r}", line=1)
    index = {label: i for i, label in enumerate(labels)}
    if len(lines) - 1 != steps + 1:
        raise FormatError(
            f"expected {steps + 1} outcome lines for {steps} steps, found {len(lines) - 1}",
            line=len(lines),
        )
    states = np.empty(steps + 1, dtype=np.int64)
    for offset, line in enumerate(lines[1:]):
        i = index.get(line)
        if i is None:
            raise FormatError(f"unknown outcome label {line!r}", line=offset + 2)
        states[offset] = i
    trajectory = Trajectory(labels=labels, states=states, seed=seed)
    return trajectory, header


def oracle_matrix_json(m, kind: str = "generic", params: dict | None = None) -> str:
    """json.dumps of the whole payload, with the rows as nested lists of floats."""
    payload = {
        "kind": kind,
        "labels": [str(label) for label in m.labels],
        "rows": m.rows.tolist(),
        "params": dict(params or {}),
        "version": FORMAT_VERSION,
    }
    return json.dumps(payload) + "\n"


def oracle_matrix_csv(m) -> str:
    """The quoted label header, then the repr of every entry, a row to a line."""
    quoted = ['"' + x.replace('"', '""') + '"' if x == "" or "," in x or '"' in x else x for x in map(str, m.labels)]
    lines = [",".join(quoted)] + [",".join(map(repr, row)) for row in m.rows.tolist()]
    return "\n".join(lines) + "\n"


def oracle_matrix_table(m) -> str:
    """The label header, then each row's label and every entry to 6 places, right-aligned."""
    labels = [str(label) for label in m.labels]
    width = max(max(len(x) for x in labels), 9)
    lines = [" " * (width + 2) + "  ".join(f"{x:>{width}}" for x in labels)]
    for label, row in zip(labels, m.rows.tolist()):
        lines.append(f"{label:>{width}}  " + "  ".join(f"{x:>{width}.6f}" for x in row))
    return "\n".join(lines) + "\n"
