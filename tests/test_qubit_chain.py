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
    measured_register_walk,
    oracle_register_matrix,
    per_qubit_register_walk,
    scalar_brute_force_q,
    scalar_q_formula,
)
from test_markov import SEGMENT, _record_lockstep, _recording

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


def test_simulate_qubit_builds_the_register_matrix_once(monkeypatch, capsys):
    # simulate --kind qubit builds the matrix for its theory rows and walks
    # that same matrix, so the builder runs once, whichever module calls it
    import qmarkov.cli as cli

    calls = []

    def counting(spec):
        calls.append(spec)
        return build(spec)

    build = qubit_chain.qubit_transition_matrix
    monkeypatch.setattr(qubit_chain, "qubit_transition_matrix", counting)
    monkeypatch.setattr(cli, "qubit_transition_matrix", counting)
    assert main(["simulate", "--kind", "qubit", "--n", "8", "--beta", "1.0", "--steps", "100", "--seed", "1"]) == 0
    capsys.readouterr()
    assert calls == [QubitChainSpec(n_qubits=8, beta=1.0)]


def _transitions(states, dim):
    """counts[i, k], the steps of states from label index i to k, counted with numpy alone."""
    states = np.asarray(states, dtype=np.int64)
    return np.bincount(states[:-1] * dim + states[1:], minlength=dim * dim).reshape(dim, dim)


def _fits_by_chi_square(counts, rows):
    """Every row of counts visited 1000 times or more passes Pearson's test against its matrix row at the 0.999 level.

    Returns how many rows were tested.
    """
    tested = 0
    for observed, row in zip(counts, rows):
        if observed.sum() >= 1000:
            result = chi_square(observed, Distribution(tuple(range(row.size)), row))
            assert result.statistic < CHI2_CRIT_999[result.dof], (tested, result)
            tested += 1
    return tested


def _tv_bound(cells, visits, delta=1e-9):
    """The Bretagnolle-Huber-Carol bound: the empirical law of visits draws from a law on cells is further than it from that law in total variation with probability at most delta."""
    return math.sqrt((cells * math.log(2) + math.log(1 / delta)) / (2 * visits))


def _fits_by_tv_bound(counts, rows):
    """Every visited row of counts is within _tv_bound of its matrix row.

    Returns how many rows were tested.
    """
    tested = 0
    for observed, row in zip(counts, rows):
        visits = int(observed.sum())
        if visits:
            tv = 0.5 * np.abs(observed / visits - row).sum()
            assert tv <= _tv_bound(row.size, visits), (tested, tv)
            tested += 1
    return tested


def _fit_each_other_by_tv_bound(counts, others):
    """Every row visited in both counts and others is within the sum of their _tv_bounds of the other's row.

    Both lie within their bounds of the one law they are drawn from.
    Returns how many rows were tested.
    """
    tested = 0
    for observed, other in zip(counts, others):
        visits, other_visits = int(observed.sum()), int(other.sum())
        if visits and other_visits:
            tv = 0.5 * np.abs(observed / visits - other / other_visits).sum()
            assert tv <= _tv_bound(observed.size, visits) + _tv_bound(other.size, other_visits), (tested, tv)
            tested += 1
    return tested


def _fit_the_measured_steps(outcomes, rows):
    """The BHC checks of a measured walk's outcome indices, one walker a column, against the matrix rows.

    The steps from even rows of outcomes (z -> n) and from odd rows
    (n -> z) are counted apart: every visited row of each kind is within
    _tv_bound of its matrix row, and of the other kind within the sum of
    their bounds, so both kinds follow one law.  And the law of x_{t+1}
    given (x_{t-1}, x_t), for every pair visited, is within _tv_bound of
    row x_t: the step before adds nothing, as the Markov property says.
    Returns how many rows of each check were tested.
    """
    dim = len(rows)
    kinds = []
    for first in (0, 1):
        pairs = outcomes[first:-1:2] * dim + outcomes[first + 1 :: 2]
        kinds.append(np.bincount(pairs.ravel(), minlength=dim * dim).reshape(dim, dim))
    triples = (outcomes[:-2] * dim + outcomes[1:-1]) * dim + outcomes[2:]
    given = np.bincount(triples.ravel(), minlength=dim**3).reshape(dim * dim, dim)
    return (
        *(_fits_by_tv_bound(kind, rows) for kind in kinds),
        _fit_each_other_by_tv_bound(*kinds),
        # row (x_{t-1}, x_t) of given is x_{t-1} * dim + x_t, and tiling
        # the rows dim times puts row x_t there
        _fits_by_tv_bound(given, np.tile(rows, (dim, 1))),
    )


# (N, beta) of the measurement-level register checks
MEASURED = [(n, beta) for n in (1, 2, 4, 6) for beta in (0.4, 1.0, 2.6)]


@pytest.mark.parametrize("n,beta", MEASURED)
def test_measured_registers_step_by_the_transition_matrix(n, beta):
    # 2000 registers whose qubits are measured one by one, 40 rounds
    # alternately along z and n, by the Born rule on each register's 2^n
    # state vector, from every up count alike, with no binomial or
    # transition matrix: the up counts step by the library's matrix, in
    # both kinds of step, and given the two rounds before, by the row of
    # the last alone; label index n - j holds j up qubits
    dim = n + 1
    rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
    states = n - measured_register_walk(n, beta, 40, 2000, n)
    *tested, pairs = _fit_the_measured_steps(states, rows)
    assert tested == [dim] * 3 and pairs >= dim


@pytest.mark.parametrize("beta", [0.7, math.pi / 2, 2.6])
@pytest.mark.parametrize("n", [1, 2, 8, 9])
def test_a_per_qubit_walk_fits_the_matrix_by_chi_square(n, beta):
    # qubits flipped one by one, with no binomial and no library walker,
    # step between up counts by the matrix's rows; n <= 9 keeps every
    # row's test within 9 degrees of freedom
    rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
    states = per_qubit_register_walk(n, beta, n, 100_000, n)
    assert _fits_by_chi_square(_transitions(states, n + 1), rows) >= min(n + 1, 5)


@pytest.mark.parametrize("beta", [0.3, 1.0, math.pi / 2, 2.84])
@pytest.mark.parametrize("n", [63, 64])
def test_a_per_qubit_walk_fits_the_matrix_by_a_tv_bound(n, beta):
    # past the chi-square table's 10 degrees of freedom, each visited
    # row's total variation from its matrix row is bounded instead
    rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
    states = per_qubit_register_walk(n, beta, n // 3, 100_000, n)
    assert _fits_by_tv_bound(_transitions(states, n + 1), rows) >= 20


@pytest.mark.parametrize("beta", [0.3, 1.0, math.pi / 2, 2.84])
@pytest.mark.parametrize("n", [8, 64])
def test_simulate_register_counts_fit_the_matrix(n, beta):
    # the walker's own steps, by chi-square at 8 qubits and by the bound
    # at 64, from a start that is not the stationary mode
    spec = QubitChainSpec(n_qubits=n, beta=beta)
    t = simulate_register(spec, spec.labels[1], 100_000, RngState(n))
    fits = _fits_by_chi_square if n == 8 else _fits_by_tv_bound
    assert fits(_transitions(t.states, n + 1), qubit_transition_matrix(spec).rows) >= 5


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 24, 40, 63, 64])
def test_simulate_register_matches_a_per_qubit_reference(n):
    # from the first, a middle and the last label, walks inside one draw
    # and across draws: at beta = 0 no qubit flips and at pi every one
    # does, so the walker and the per-qubit walk agree step for step; in
    # between, each row both visit steps alike in both, within their bounds
    for ups in (n, n - n // 3, 0):
        for beta in (0.0, math.pi):
            spec = QubitChainSpec(n_qubits=n, beta=beta)
            for steps in (300, 2 * markov._BLOCK + 3):
                t = simulate_register(spec, HalfInt(2 * ups - n), steps, RngState(n))
                assert t.states.tolist() == per_qubit_register_walk(n, beta, ups, steps, n).tolist(), (beta, ups, steps)
    ups = n - n // 3
    t = simulate_register(QubitChainSpec(n_qubits=n, beta=1.3), HalfInt(2 * ups - n), 100_000, RngState(n))
    reference = per_qubit_register_walk(n, 1.3, ups, 100_000, n)
    assert _fit_each_other_by_tv_bound(_transitions(t.states, n + 1), _transitions(reference, n + 1)) >= min(n + 1, 5)


@pytest.mark.parametrize("beta", [0.06, math.pi / 2, math.pi - 0.06])
def test_flip_counts_pass_a_chi_square_test(beta):
    # p near 0, 1/2 and 1.  Out of all up or all down, a step's flips are
    # the qubits that leave that state, so the 9-qubit register's steps
    # from there go against Binomial(9, p).  At 64 qubits, where those
    # states are rare, a step's up count less n/2 is (1 - 2p) times the
    # last one's plus flips of variance n p (1 - p), so the sum of those
    # residuals over the walk, scaled, is about a standard normal
    p = flip_probability(beta)
    states = simulate_register(QubitChainSpec(n_qubits=9, beta=beta), HalfInt(9), 200_000, RngState(9)).states
    before, after = states[:-1], states[1:]
    flips = np.concatenate([after[before == 0], 9 - after[before == 9]])
    binomial = Distribution(tuple(range(10)), [math.comb(9, k) * p**k * (1 - p) ** (9 - k) for k in range(10)])
    result = chi_square(np.bincount(flips, minlength=10), binomial)
    assert result.statistic < CHI2_CRIT_999[result.dof], result
    steps = 200_000
    states = simulate_register(QubitChainSpec(n_qubits=64, beta=beta), HalfInt(64), steps, RngState(64)).states
    centred = 32.0 - states
    z = (centred[1:] - (1 - 2 * p) * centred[:-1]).sum() / math.sqrt(steps * 64 * p * (1 - p))
    assert z**2 < CHI2_CRIT_999[1], z


def test_a_register_draw_of_less_than_a_segment_is_drawn_a_segment_at_a_time(monkeypatch):
    # at these sizes a draw, an eighth of a block, is 15 uniforms, under
    # one 16-step segment, so each lockstep batch of the 64-qubit
    # register, 7 segments, is filled a segment at a time; the 80 steps
    # past the last whole batch are drawn 15 at a time, and the walk is
    # the one of the default sizes
    spec = QubitChainSpec(n_qubits=64, beta=1.3)
    default = simulate_register(spec, HalfInt(64), 4000, RngState(64)).states
    monkeypatch.setattr(markov, "_SEGMENT", SEGMENT)
    monkeypatch.setattr(markov, "_BLOCK", 8 * SEGMENT - 1)
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", 7)
    assert markov._BLOCK // 8 < markov._SEGMENT
    coupled = _record_lockstep(monkeypatch)
    drawn = []
    monkeypatch.setattr(RngState, "random_block", _recording(RngState.random_block, drawn))
    t = simulate_register(spec, HalfInt(64), 4000, RngState(64))
    assert coupled == [True] * 35
    assert drawn == [SEGMENT] * (35 * 7) + [15] * 5 + [5]
    assert np.array_equal(t.states, default)


def _walk_peak(n, steps, beta=1.0):
    """The tracemalloc peak of a register walk of steps, less its states, in blocks of uniforms."""
    spec = QubitChainSpec(n_qubits=n, beta=beta)
    rng = RngState(n)  # the first generator imports numpy.random's modules
    tracemalloc.start()
    try:
        t = simulate_register(spec, spec.labels[0], steps, rng)
        return (tracemalloc.get_traced_memory()[1] - t.states.nbytes) / (8 * markov._BLOCK)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 8, 24, 64])
def test_register_memory_is_bounded_by_the_block(monkeypatch, n):
    # the per-step walk: with _MIN_SEGMENTS above any of these walks'
    # segment counts, no batch goes to the lockstep, so n = 1 takes the
    # two-state scan and every larger register bisect; a step takes one
    # uniform, and a draw's eighth of a block of them, its states and
    # the matrix's running sums as lists stay under a fixed multiple of
    # one block of uniforms however long the walk: 0.38 blocks at n = 1,
    # 0.26 at 8, 0.31 at 24 and 0.59 at 64
    monkeypatch.setattr(markov, "_MIN_SEGMENTS", 8 * markov._BLOCK // markov._SEGMENT + 1)
    peaks = [_walk_peak(n, blocks * markov._BLOCK) for blocks in (4, 8)]
    assert max(peaks) < 1.6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks


# (n, beta): lockstep batches of walks of 4 and 8 blocks of steps, 2048
# and 4096 segments, in batches of 2048 segments at n = 8, 1536 at 16
# and 17, 512 at 64 and beta = 0.3 or 1, and 1024 at 64 and beta = pi/2,
# whose tables are the smallest; n = 1 is the two-state scan, never batched
LOCKSTEP_BATCHES = {
    (1, 1.0): 0,
    (8, 1.0): 3,
    (16, 1.0): 5,
    (17, 1.0): 5,
    (64, 1.0): 12,
    (64, math.pi / 2): 6,
    (64, 0.3): 12,
}


@pytest.mark.parametrize(
    "n, beta", list(LOCKSTEP_BATCHES), ids=[str(n) if beta == 1.0 else f"{n}-{beta}" for n, beta in LOCKSTEP_BATCHES]
)
def test_lockstep_register_memory_is_bounded_by_the_block(monkeypatch, n, beta):
    # walks of 4 and 8 blocks of _BLOCK steps: the batch of keys and its
    # segment paths, the lookup tables and one draw of uniforms with its
    # keys stay under the same bound, however many batches the walk
    # crosses; 0.45, 1.28, 1.46, 1.47, 1.50, 1.50 and 1.39 blocks in the
    # order above
    coupled = _record_lockstep(monkeypatch)
    peaks = [_walk_peak(n, blocks * markov._BLOCK, beta) for blocks in (4, 8)]
    assert coupled == [True] * LOCKSTEP_BATCHES[n, beta]
    assert max(peaks) < 1.6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.1, peaks
