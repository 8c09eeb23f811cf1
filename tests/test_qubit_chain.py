import math
from fractions import Fraction

import numpy as np
import pytest

from qmarkov import (
    HalfInt,
    InvalidArgumentError,
    N_MAX_BRUTE_FORCE,
    N_MAX_FORMULA,
    QubitChainSpec,
    RangeLimitError,
    RngState,
    SpinChainSpec,
    brute_force_q,
    empirical_matrix,
    flip_probability,
    per_row_tv,
    q_formula,
    qubit_transition_matrix,
    simulate_register,
    spin_transition_matrix,
    transition_counts,
)

from oracles import enumerate_q, exact_register_row, oracle_register_matrix

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


@pytest.mark.parametrize("n", [67, 100])
def test_builder_binomials_stay_exact_past_int64(monkeypatch, n):
    # C(67, 33) > 2^63: a Pascal table in int64 wraps and gives negative entries
    import qmarkov.qubit_chain as qubit_chain

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


def _reference_register(n, p, ups, steps, rng):
    # the per-step prefix count of flips among the up qubits, listed first
    states = [n - ups]
    flips = rng.random_block(steps * n).reshape(steps, n) < p
    for row in flips:
        down_flips = int(row[:ups].sum())
        ups += int(row.sum()) - 2 * down_flips
        states.append(n - ups)
    return states


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 130])
def test_simulate_register_matches_a_per_qubit_reference(n):
    spec = QubitChainSpec(n_qubits=n, beta=1.3)
    initial = HalfInt(n - 2 * (n // 3))  # n // 3 qubits start down
    t = simulate_register(spec, initial, 300, RngState(n))
    expected = _reference_register(n, flip_probability(spec.beta), n - n // 3, 300, RngState(n))
    assert t.states.tolist() == expected
