import functools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qmarkov import (
    Distribution,
    HalfInt,
    InvalidArgumentError,
    N_MAX_BRUTE_FORCE,
    N_MAX_FORMULA,
    QubitChainSpec,
    RangeLimitError,
    RngState,
    SpinChainSpec,
    brute_force_q,
    chi_square,
    empirical_matrix,
    flip_probability,
    markov,
    per_row_tv,
    q_formula,
    qubit_chain,
    qubit_transition_matrix,
    simulate_register,
    spin_transition_matrix,
    transition_counts,
)
from qmarkov.cli import main
from qmarkov.stats import CHI2_CRIT_999

from oracles import (
    enumerate_q,
    exact_register_row,
    oracle_register_matrix,
    scalar_brute_force_q,
    scalar_q_formula,
)
from test_markov import SEGMENT, _record_lockstep

# q_{j'j} for N=3, beta=0.7, rows j = 3/2..-3/2, frozen from the
# bitmask-enumeration oracle
Q3_BETA07 = np.array(
    [
        [0.6871121738146535, 0.2746644380703622, 0.0365978833420474, 0.00162550477293677],
        [0.09155481269012074, 0.7115107627093518, 0.18473513015317827, 0.01219929444734913],
        [0.01219929444734913, 0.18473513015317827, 0.7115107627093518, 0.09155481269012075],
        [0.00162550477293677, 0.0365978833420474, 0.2746644380703622, 0.6871121738146535],
    ]
)

BETAS = (0.3, 1.0, math.pi / 2.0, 2.2, 2.7)


def labels_for(n: int):
    return QubitChainSpec(n_qubits=n, beta=1.0).labels


def test_flip_probability():
    assert flip_probability(0.0) == 0.0
    assert abs(flip_probability(math.pi) - 1.0) < 1e-15
    assert abs(flip_probability(0.7) - math.sin(0.35) ** 2) < 1e-16


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        QubitChainSpec(n_qubits=0, beta=1.0)
    with pytest.raises(InvalidArgumentError):
        QubitChainSpec(n_qubits=2.0, beta=1.0)
    with pytest.raises(InvalidArgumentError):
        QubitChainSpec(n_qubits=2, beta=float("inf"))
    assert labels_for(2) == (HalfInt(2), HalfInt(0), HalfInt(-2))


def test_spec_labels_are_built_once():
    spec, twin = QubitChainSpec(n_qubits=5, beta=0.5), QubitChainSpec(n_qubits=5, beta=0.5)
    before = (repr(spec), hash(spec))
    assert spec.labels is spec.labels
    assert spec.labels == tuple(HalfInt(t) for t in (5, 3, 1, -1, -3, -5))
    assert (repr(spec), hash(spec)) == before == ("QubitChainSpec(n_qubits=5, beta=0.5)", hash(twin))
    assert spec == twin


def test_outcome_validation():
    spec = QubitChainSpec(n_qubits=3, beta=1.0)
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(2), 10, RngState(0))  # wrong parity for N=3
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(5), 10, RngState(0))  # |j| > N/2
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(-5), 10, RngState(0))
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, 1.5, 10, RngState(0))  # not a HalfInt
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, "1/2", 10, RngState(0))  # a label's text, not the label
    # every label starts the trajectory at its own index
    for index, label in enumerate(spec.labels):
        assert simulate_register(spec, label, 0, RngState(0)).states[0] == index


def test_matches_frozen_enumeration_values():
    m = qubit_transition_matrix(QubitChainSpec(n_qubits=3, beta=0.7))
    assert np.abs(m.rows - Q3_BETA07).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_formula_matches_bitmask_enumeration(n):
    for beta in BETAS:
        spec = QubitChainSpec(n_qubits=n, beta=beta)
        rows = qubit_transition_matrix(spec).rows
        formula = q_formula(spec)
        assert formula.shape == (n + 1, n + 1)
        for i, j in enumerate(spec.labels):
            for k, j_prime in enumerate(spec.labels):
                expected = enumerate_q(n, beta, j, j_prime)
                assert abs(formula[i, k] - expected) < 1e-10
                assert abs(rows[i, k] - expected) < 1e-12


@pytest.mark.parametrize("n", [33, 64])
def test_matrix_matches_formula_beyond_enumeration_range(n):
    # the printed single sums and the convolution builder share no code
    for beta in BETAS:
        spec = QubitChainSpec(n_qubits=n, beta=beta)
        rows = qubit_transition_matrix(spec).rows
        assert np.abs(rows - q_formula(spec)).max() < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2.0, 2.7, math.pi])
def test_builder_equals_the_math_comb_oracle_bit_for_bit(beta):
    for n in range(1, N_MAX_FORMULA + 1):
        rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
        expected = oracle_register_matrix(n, beta)
        assert np.array_equal(rows, expected), n
        assert rows.tobytes() == expected.tobytes(), n  # signed zeros too


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.4, 1.0, math.pi / 2.0, 2.2, 2.5, 2.7, math.pi])
def test_matrix_is_centrosymmetric(beta):
    # flipping every qubit maps j to -j, so P[i, k] = P[N - i, N - k]; the
    # builder makes that hold bit for bit, the middle row of an even N too
    for n in range(1, N_MAX_FORMULA + 1):
        rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
        assert np.array_equal(rows, rows[::-1, ::-1]), n


@pytest.mark.parametrize("n", [67, 100])
def test_builder_binomials_stay_exact_past_int64(monkeypatch, n):
    # C(67, 33) > 2^63: a Pascal table in int64 wraps and gives negative entries
    monkeypatch.setattr(qubit_chain, "N_MAX_FORMULA", 128)
    for beta in (0.4, 1.0, 2.5):
        rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
        assert rows.tobytes() == oracle_register_matrix(n, beta).tobytes(), beta


@pytest.mark.parametrize(
    "t,rows",
    [
        (
            Fraction(1, 3),
            [(n, ups) for n in range(1, 21) for ups in range(n + 1)]
            + [(63, ups) for ups in (0, 14, 32, 49, 63)]
            + [(64, ups) for ups in (0, 16, 32, 48, 64)],
        ),
        (Fraction(1, 2), [(n, ups) for n in range(1, 21) for ups in range(n + 1)]),
        (Fraction(2, 7), [(n, ups) for n in range(1, 21) for ups in range(n + 1)]),
    ],
)
def test_builder_matches_the_exact_rational_oracle(t, rows):
    # at cos(beta/2), sin(beta/2) rational with c^2 + s^2 = 1 exactly, each
    # row is an exact convolution of two binomial laws in Fractions; the
    # worst error over every row of N = 1..64 at these t is 8.06e-16
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    beta = 2.0 * math.atan2(float(s), float(c))
    bound = Fraction(1e-15)
    matrices = {}
    for n, ups in rows:
        if n not in matrices:
            matrices[n] = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows.tolist()
        exact = exact_register_row(n, ups, t)
        assert sum(exact) == 1
        for got, want in zip(matrices[n][n - ups], exact):
            assert abs(Fraction(got) - want) <= bound, (n, ups, got, float(want))


@pytest.mark.parametrize("n", range(1, 9))
def test_binomial_oracle_matches_bitmask_enumeration(n):
    # two independent enumeration strategies agree essentially exactly
    for beta in (0.3, 2.2):
        spec = QubitChainSpec(n_qubits=n, beta=beta)
        oracle = brute_force_q(spec)
        assert oracle.shape == (n + 1, n + 1)
        for i, j in enumerate(spec.labels):
            for k, j_prime in enumerate(spec.labels):
                assert abs(oracle[i, k] - enumerate_q(n, beta, j, j_prime)) < 1e-12


@pytest.mark.parametrize("n", [*range(1, N_MAX_BRUTE_FORCE + 1), 33, N_MAX_FORMULA])
def test_array_sums_equal_their_scalar_forms(n):
    # the closed form and the enumeration, one cell and one term at a time
    for beta in BETAS:
        spec = QubitChainSpec(n_qubits=n, beta=beta)
        assert np.abs(q_formula(spec) - scalar_q_formula(n, beta)).max() <= 1e-15, beta
        if n <= N_MAX_BRUTE_FORCE:
            assert np.abs(brute_force_q(spec) - scalar_brute_force_q(n, beta)).max() <= 1e-15, beta


def test_edge_angles_give_the_identity_and_the_anti_identity(capsys):
    # the flip probability is 0 or 1, so the sums meet 0.0 ** 0 and powers
    # that vanish, and no cell outside the sums' ranges may take a power
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in range(1, N_MAX_BRUTE_FORCE + 1):
            for beta, expected in ((0.0, np.eye(n + 1)), (math.pi, np.eye(n + 1)[::-1])):
                spec = QubitChainSpec(n_qubits=n, beta=beta)
                assert np.abs(q_formula(spec) - expected).max() < 1e-12, (n, beta)
                assert np.abs(brute_force_q(spec) - expected).max() < 1e-12, (n, beta)
        code = main(["verify", "--n-max", str(N_MAX_BRUTE_FORCE), "--beta", "0", "--beta", repr(math.pi)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_rows_are_probability_distributions():
    for n in (1, 4, 9):
        m = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=1.3))
        assert np.abs(m.rows.sum(axis=1) - 1.0).max() < 1e-12
        assert m.rows.min() >= 0.0


def test_negating_both_outcomes_preserves_q():
    # relabeling up<->down swaps the roles of the two branch formulas
    for n in (2, 5, 8):
        formula = q_formula(QubitChainSpec(n_qubits=n, beta=1.1))
        # labels descend, so negating both outcomes reverses rows and columns
        assert np.abs(formula - formula[::-1, ::-1]).max() < 1e-12


def test_stretched_row_is_binomial():
    # starting all-up, exactly k flips land at j' = N/2 - k
    n = 6
    beta = 1.9
    p = flip_probability(beta)
    top_row = q_formula(QubitChainSpec(n_qubits=n, beta=beta))[0]
    for k in range(n + 1):
        expected = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        assert abs(top_row[k] - expected) < 1e-12


@pytest.mark.parametrize("beta", [0.3, 0.9, math.pi / 2.0, 2.7])
def test_single_qubit_equals_spin_half_chain(beta):
    register = qubit_transition_matrix(QubitChainSpec(n_qubits=1, beta=beta))
    spin = spin_transition_matrix(SpinChainSpec(s=HalfInt(1), beta=beta))
    assert np.array_equal(register.rows, spin.rows)
    assert [str(a) for a in register.labels] == [str(b) for b in spin.labels]


def test_range_limits():
    with pytest.raises(RangeLimitError):
        q_formula(QubitChainSpec(n_qubits=N_MAX_FORMULA + 1, beta=1.0))
    with pytest.raises(RangeLimitError):
        qubit_transition_matrix(QubitChainSpec(n_qubits=N_MAX_FORMULA + 1, beta=1.0))
    with pytest.raises(RangeLimitError):
        brute_force_q(QubitChainSpec(n_qubits=N_MAX_BRUTE_FORCE + 1, beta=1.0))
    # the closed form still works where enumeration cannot go
    wide = q_formula(QubitChainSpec(n_qubits=N_MAX_FORMULA, beta=0.8))
    assert wide.shape == (N_MAX_FORMULA + 1, N_MAX_FORMULA + 1)
    # row j = 0, column j' = 1: the cell the per-pair form checked
    assert 0.0 <= wide[N_MAX_FORMULA // 2, N_MAX_FORMULA // 2 - 1] <= 1.0


def test_simulate_register_shapes_and_determinism():
    spec = QubitChainSpec(n_qubits=4, beta=1.0)
    t1 = simulate_register(spec, HalfInt(4), 500, RngState(3))
    t2 = simulate_register(spec, HalfInt(4), 500, RngState(3))
    assert t1.steps == 500
    assert t1.states.shape == (501,)
    assert t1.states[0] == 0  # all-up is the first label
    assert np.array_equal(t1.states, t2.states)
    assert t1.labels == spec.labels


def test_simulate_register_validation():
    spec = QubitChainSpec(n_qubits=4, beta=1.0)
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(3), 10, RngState(0))  # parity
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(4), -1, RngState(0))
    with pytest.raises(InvalidArgumentError):
        simulate_register(spec, HalfInt(4), True, RngState(0))


def test_register_frequencies_close_on_the_analytic_matrix():
    spec = QubitChainSpec(n_qubits=2, beta=1.0)
    t = simulate_register(spec, HalfInt(2), 200_000, RngState(8))
    theory = qubit_transition_matrix(spec)
    tvs = per_row_tv(empirical_matrix(transition_counts(t)), theory)
    assert all(tv is not None for tv in tvs)
    assert max(tvs) < 0.03


def _plane_digits(p, planes):
    """p's first `planes` binary digits and the rest, p * 2**planes less them, as exact fractions.

    At p = 1 every digit is 1 and the rest is 1.
    """
    rest, digits = Fraction(p), []
    for _ in range(planes):
        rest *= 2
        digits.append(int(rest >= 1))
        rest -= digits[-1]
    return digits, rest


@functools.lru_cache(maxsize=8)
def _reference_flips(n, p, steps, seed):
    """Each step's flip word, qubit q at bit q, read one qubit at a time from the seed's raw words.

    A step's n flips are padded to a word of 8, 16, 32 or 64 bits, and
    each 64 bits of words are a group of lanes that read _PLANES raw
    words of the seed's stream, one bit each, most significant first.  A
    lane flips at its first bit that differs from p's binary digit when
    that digit is 1.  A lane whose bits all equal the digits takes the
    next uniform of the seed's spawned stream, and flips when it is
    below the rest of p.
    """
    planes = qubit_chain._PLANES
    width = next(w for w in (8, 16, 32, 64) if w >= n)
    group_steps = 64 // width
    raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(-(-steps // group_steps) * planes).tolist()
    spawned = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    digits, rest = _plane_digits(p, planes)
    flips = []
    for step in range(steps):
        group, slot = divmod(step, group_steps)
        words = raw[group * planes : (group + 1) * planes]
        flip_word = 0
        for q in range(n):
            lane = slot * width + q
            for word, digit in zip(words, digits):
                if (word >> lane) & 1 != digit:
                    flip = digit
                    break
            else:
                flip = int(Fraction(spawned.random()) < rest)
            flip_word |= flip << q
        flips.append(flip_word)
    return tuple(flips)


def _reference_register(n, p, ups, steps, seed):
    # the up qubits are listed first, so those that flip are the set bits below bit ups
    states = [n - ups]
    for word in _reference_flips(n, p, steps, seed):
        ups += word.bit_count() - 2 * (word & ((1 << ups) - 1)).bit_count()
        states.append(n - ups)
    return states


def test_simulate_register_refuses_registers_past_the_closed_form():
    spec = QubitChainSpec(n_qubits=N_MAX_FORMULA + 1, beta=1.0)
    with pytest.raises(RangeLimitError) as builder:
        qubit_transition_matrix(spec)
    # 10**15 steps of states would be a MemoryError, so the refusal comes
    # before anything is allocated
    for steps in (10, 10**15):
        with pytest.raises(RangeLimitError) as walker:
            simulate_register(spec, spec.labels[0], steps, RngState(0))
        assert str(walker.value) == str(builder.value)


# 17 and 24 qubits take 3 bytes a step, padded to a 4-byte word, and 40
# take 5, padded to an 8-byte word
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 24, 40, 63, 64])
def test_simulate_register_matches_a_per_qubit_reference(n):
    # walks inside one draw and across draws, the longer ones at n < 64
    # ending partway into a group of lanes; flip probabilities 0, 1 and in
    # between, from the first, a middle and the last label
    for beta in (1.3, 0.0, math.pi):
        spec = QubitChainSpec(n_qubits=n, beta=beta)
        p = flip_probability(beta)
        for steps in (300, 2 * (markov._BLOCK // n) + 3):
            for ups in (n, n - n // 3, 0):
                t = simulate_register(spec, HalfInt(2 * ups - n), steps, RngState(n))
                assert t.states.tolist() == _reference_register(n, p, ups, steps, n), (beta, steps, ups)


def test_a_register_draw_of_less_than_a_segment_is_drawn_a_segment_at_a_time(monkeypatch):
    # at these sizes a quarter block of raw words is 10 steps of 64 qubits,
    # under one 16-step segment, so each lockstep batch, of 20 segments, is
    # filled a segment at a time
    monkeypatch.setattr(markov, "_SEGMENT", SEGMENT)
    monkeypatch.setattr(markov, "_BLOCK", 20 * SEGMENT + 7)
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", 16)
    assert markov._BLOCK // 4 // qubit_chain._PLANES < markov._SEGMENT
    coupled = _record_lockstep(monkeypatch)
    spec = QubitChainSpec(n_qubits=64, beta=1.3)
    t = simulate_register(spec, HalfInt(64), 4000, RngState(64))
    assert coupled == [True] * (4000 // (20 * SEGMENT))
    assert t.states.tolist() == _reference_register(64, flip_probability(1.3), 64, 4000, 64)


class _PlaneRng:
    """Raw words from a list, in turn, and the uniform u for each lane that the planes leave undecided."""

    def __init__(self, words, u):
        self.words, self.u, self.fallbacks = list(words), u, 0

    def raw_block(self, count):
        block, self.words = self.words[:count], self.words[count:]
        return np.array(block, dtype=np.uint64)

    def fallback_block(self, count):
        self.fallbacks += count
        return np.full(count, self.u)


def _captured_draw(monkeypatch, n, p, rng):
    """The draw of flip words that an n-qubit walk at flip probability p hands the lockstep driver."""
    drawn = []
    monkeypatch.setattr(markov, "_lockstep", lambda out, state, per_step, dtype, draw, guess, walk: drawn.append(draw))
    qubit_chain._walk_register(n, p, 0, np.empty(1, dtype=np.uint8), rng)
    return drawn[0]


# a uniform is k / 2**53 for k in 0..2**53 - 1
GRID = 2**53


def _plane_law(monkeypatch, p, planes):
    """The chance of each pattern of plane bits to flip a lane of a 64-qubit step, in order of the pattern.

    Lane l of group g reads pattern (64 g + l) mod 2**planes, most
    significant bit first.  An undecided lane is drawn once with the
    uniform just below the rest of p and once with the uniform at it; a
    pattern that flips on the first and not on the second has the chance
    of a uniform below the rest, ceil(rest * 2**53) / 2**53.
    """
    monkeypatch.setattr(qubit_chain, "_PLANES", planes)
    patterns = 1 << planes
    groups = -(-patterns // 64)
    words = [
        sum(((((64 * g + lane) % patterns) >> (planes - 1 - k)) & 1) << lane for lane in range(64))
        for g in range(groups)
        for k in range(planes)
    ]
    # the first uniform at or past the rest
    at = math.ceil(_plane_digits(p, planes)[1] * GRID)
    outcomes = []
    for k in (at - 1, at):
        if 0 <= k < GRID:
            rng = _PlaneRng(words, k / GRID)
            flips = _captured_draw(monkeypatch, 64, p, rng)(groups).tolist()
            # one pattern equals p's digits, and only its lanes are left to the fallback
            assert rng.fallbacks == groups * 64 // patterns
            outcomes.append([(flips[i // 64] >> (i % 64)) & 1 for i in range(patterns)])
    return [Fraction(f[0]) if len(set(f)) == 1 else Fraction(at, GRID) for f in zip(*outcomes)]


# p at 1/2, 3/8, 11/16 and 2^-3 + 2^-10, whose binary digits end before
# or after 2 and 8 planes, and within 12; 0, 1 at beta = pi, and 2^-60,
# which a uniform on the 2^-53 grid compared with p would flip at 2^-53,
# and whose rest past 8 planes or more is on that grid
EXACT = [
    *((p, planes) for p in (0.5, 0.375, 0.6875, 2.0**-3 + 2.0**-10, 0.0, 1.0) for planes in (2, 8, 12)),
    (2.0**-60, 8),
    (2.0**-60, 12),
]


@pytest.mark.parametrize("p, planes", EXACT)
def test_the_bit_planes_flip_a_lane_with_probability_p_exactly(monkeypatch, p, planes):
    assert flip_probability(math.pi) == 1.0
    chance = _plane_law(monkeypatch, p, planes)
    digits, rest = _plane_digits(p, planes)
    lead = int("".join(map(str, digits)), 2)
    # a lane is decided at its first bit that differs from p's digit, and
    # flips where that digit is 1: the patterns below p's leading digits
    assert chance == [1] * lead + [Fraction(math.ceil(rest * GRID), GRID)] + [0] * ((1 << planes) - lead - 1)
    assert sum(chance) / len(chance) == Fraction(p)


@pytest.mark.parametrize("planes", [2, 8, 12])
@pytest.mark.parametrize("p", [flip_probability(0.3), 2.0**-60, 3 * 2.0**-70])
def test_the_bit_planes_err_by_less_than_a_uniform_past_the_planes(monkeypatch, p, planes):
    # past the planes the rest of p may fall between two uniforms, so an
    # undecided lane's chance is over the rest by under 2^-53, and p's by
    # under 2^-(53 + planes)
    error = sum(_plane_law(monkeypatch, p, planes)) / (1 << planes) - Fraction(p)
    assert 0 <= error < Fraction(1, 2 ** (53 + planes))


@pytest.mark.parametrize("n", [1, 3, 9, 17, 64])
def test_a_draw_takes_the_steps_its_last_group_left(monkeypatch, n):
    # a group holds 8, 4, 2 or 1 steps; draws of any sizes in turn give
    # the flip words of one draw of their total
    p = flip_probability(1.1)
    sizes = [3, 5, 1, 7, 13, 2]
    parts = _captured_draw(monkeypatch, n, p, RngState(n))
    whole = _captured_draw(monkeypatch, n, p, RngState(n))
    assert np.concatenate([parts(size) for size in sizes]).tolist() == whole(sum(sizes)).tolist()


@pytest.mark.parametrize("beta", [0.06, math.pi / 2, math.pi - 0.06])
def test_flip_counts_pass_a_chi_square_test(monkeypatch, beta):
    # p near 0, 1/2 and 1: the flips of each 9-qubit step, 7 padding lanes
    # in its 16-bit word, against Binomial(9, p), and the flipped lanes of
    # 64-qubit steps against Bernoulli(p)
    p = flip_probability(beta)
    steps = 20_000
    flips = np.bitwise_count(_captured_draw(monkeypatch, 9, p, RngState(9))(steps))
    binomial = Distribution(tuple(range(10)), [math.comb(9, k) * p**k * (1 - p) ** (9 - k) for k in range(10)])
    result = chi_square(np.bincount(flips, minlength=10), binomial)
    assert result.statistic < CHI2_CRIT_999[result.dof], result
    flipped = int(np.bitwise_count(_captured_draw(monkeypatch, 64, p, RngState(64))(steps)).sum())
    result = chi_square([flipped, 64 * steps - flipped], Distribution((1, 0), [p, 1 - p]))
    assert result.statistic < CHI2_CRIT_999[1], result


def _walk_peak(n, steps):
    """The tracemalloc peak of a register walk of steps, less its states, in blocks of uniforms."""
    spec = QubitChainSpec(n_qubits=n, beta=1.0)
    rng = RngState(n)  # the first generator imports numpy.random's modules
    tracemalloc.start()
    try:
        t = simulate_register(spec, spec.labels[0], steps, rng)
        return (tracemalloc.get_traced_memory()[1] - t.states.nbytes) / (8 * markov._BLOCK)
    finally:
        tracemalloc.stop()


def _register_peak(n, blocks):
    """The tracemalloc peak of a register walk of blocks * (_BLOCK // n) steps, less its states, in blocks of uniforms."""
    return _walk_peak(n, blocks * (markov._BLOCK // n))


@pytest.mark.parametrize("n", [1, 8, 24, 64])
def test_register_memory_is_bounded_by_the_block(monkeypatch, n):
    # the per-step walk: with _MIN_SEGMENTS above any of these walks'
    # segment counts, no batch goes to the lockstep; a draw's quarter
    # block of raw words and its lanes, each step's flips padded to one
    # word of 1, 2, 4 or 8 bytes, and the listed flip words stay under a
    # fixed multiple of one block of uniforms however long the walk: 0.55
    # blocks at n = 1 and 8, 0.39 at n = 24 (a 3-byte step in a 4-byte
    # word) and 0.37 at n = 64
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", 8 * markov._BLOCK // markov._SEGMENT + 1)
    peaks = [_register_peak(n, blocks) for blocks in (4, 8)]
    assert max(peaks) < 1.6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


# lockstep batches of walks of 4 and 8 blocks of steps, 1024 and 2048
# segments, in batches of 1024 segments at n <= 8, 512 at 16 and 256 at
# 17 and 64
LOCKSTEP_BATCHES = {1: 3, 8: 3, 16: 6, 17: 12, 64: 12}


@pytest.mark.parametrize("n", list(LOCKSTEP_BATCHES))
def test_lockstep_register_memory_is_bounded_by_the_block(monkeypatch, n):
    # walks of 4 and 8 blocks of _BLOCK steps: the batch of flip words
    # and its segment paths, one draw of raw words and its lanes stay
    # under the same bound, however many batches the walk crosses; 1.36,
    # 1.36, 1.11, 0.99 and 1.50 blocks at n = 1, 8, 16, 17 and 64
    coupled = _record_lockstep(monkeypatch)
    peaks = [_walk_peak(n, blocks * markov._BLOCK) for blocks in (4, 8)]
    assert coupled == [True] * LOCKSTEP_BATCHES[n]
    assert max(peaks) < 1.6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks
