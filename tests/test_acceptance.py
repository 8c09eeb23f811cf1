"""Acceptance checks.

Each test prints one PASS/FAIL line (visible even under capture) and
enforces the stated tolerance and runtime budget with plain asserts.
"""

import math
import time

import numpy as np

from qmarkov import (
    N_MAX_FORMULA,
    TWICE_S_MAX,
    Distribution,
    HalfInt,
    QubitChainSpec,
    RngState,
    SpinChainSpec,
    brute_force_q,
    chi_square,
    coin_toss_stream,
    empirical_matrix,
    per_row_tv,
    q_formula,
    qubit_transition_matrix,
    simulate_measurements,
    simulate_register,
    small_d,
    spin_transition_matrix,
    transition_counts,
)
from qmarkov.cli import main
from qmarkov.stats import CHI2_CRIT_999


def report(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"criterion {number} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_fair_coin_matrix(capsys):
    spec = SpinChainSpec(s=HalfInt(1), beta=math.pi / 2.0)
    spin_transition_matrix(spec)  # warm-up outside the clock
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        matrix = spin_transition_matrix(spec)
        best = min(best, time.perf_counter() - t0)
    defect = float(np.abs(matrix.rows - 0.5).max())
    ok = defect < 1e-12 and best < 1e-3
    report(
        capsys, 1, ok,
        f"coin matrix entries within {defect:.2e} of 0.5 (tol 1e-12), {best * 1e3:.3f} ms (budget 1 ms)",
    )


def _spin_sweep():
    rng = np.random.default_rng(2024)
    for twice in range(1, 26):
        for beta in rng.uniform(1e-3, math.pi - 1e-3, size=20):
            yield twice, float(beta)


def test_criterion_2_doubly_stochastic_sweep(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for twice, beta in _spin_sweep():
        rows = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta)).rows
        worst = max(
            worst,
            float(np.abs(rows.sum(axis=1) - 1.0).max()),
            float(np.abs(rows.sum(axis=0) - 1.0).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        capsys, 2, ok,
        f"row/column sums within {worst:.2e} of 1 (tol 1e-10) over s=1/2..25/2 x 20 beta, "
        f"{elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_3_index_swap_symmetry(capsys):
    worst = 0.0
    for twice, beta in _spin_sweep():
        d = small_d(HalfInt(twice), beta).entries
        dim = twice + 1
        signs = (-1.0) ** np.subtract.outer(np.arange(dim), np.arange(dim))
        worst = max(worst, float(np.abs(d - signs * d.T).max()))
    ok = worst < 1e-10
    report(
        capsys, 3, ok,
        f"d(m1,m2) = (-1)^(m1-m2) d(m2,m1) within {worst:.2e} (tol 1e-10) over the same sweep",
    )


def test_criterion_4_formula_matches_enumeration(capsys):
    betas = (0.3, 1.0, math.pi / 2.0, 2.2, 2.7)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        for beta in betas:
            spec = QubitChainSpec(n_qubits=n, beta=beta)
            # q_formula evaluates both branch formulas on every diagonal
            # cell and raises if they disagree beyond 1e-12
            worst = max(worst, float(np.abs(q_formula(spec) - brute_force_q(spec)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    report(
        capsys, 4, ok,
        f"q_formula vs brute force within {worst:.2e} (tol 1e-10) for N=1..12 x 5 beta, "
        f"seam agreement 1e-12 enforced on every diagonal, {elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_5_single_qubit_is_the_spin_half_chain(capsys):
    rng = np.random.default_rng(55)
    worst = 0.0
    for beta in rng.uniform(1e-3, math.pi - 1e-3, size=20):
        register = qubit_transition_matrix(QubitChainSpec(n_qubits=1, beta=float(beta)))
        spin = spin_transition_matrix(SpinChainSpec(s=HalfInt(1), beta=float(beta)))
        worst = max(worst, float(np.abs(register.rows - spin.rows).max()))
    ok = worst < 1e-12
    report(
        capsys, 5, ok,
        f"qubit_transition_matrix(1, beta) = spin_transition_matrix(1/2, beta) within {worst:.2e} "
        f"(tol 1e-12) for 20 random beta",
    )


def _closure_case(name, theory, trajectory, elapsed):
    empirical = empirical_matrix(transition_counts(trajectory))
    tvs = per_row_tv(empirical, theory)
    checked = [
        tv for tv, visits in zip(tvs, empirical.row_visits) if visits >= 10_000 and tv is not None
    ]
    worst = max(checked)
    return f"{name}: {len(checked)} rows with >=1e4 visits, worst TV {worst:.4f}, {elapsed:.2f} s", (
        bool(checked) and worst <= 0.02 and elapsed < 5.0
    )


def test_criterion_6_measurement_chain_closure(capsys):
    steps = 1_000_000
    details = []
    all_ok = True

    spec = SpinChainSpec(s=HalfInt(1), beta=math.pi / 2.0)
    start = Distribution(spec.labels, np.full(2, 0.5))
    t0 = time.perf_counter()
    trajectory, _ = simulate_measurements(spec, start, steps, RngState(101))
    detail, ok = _closure_case(
        "s=1/2 beta=pi/2", spin_transition_matrix(spec), trajectory, time.perf_counter() - t0
    )
    details.append(detail)
    all_ok &= ok

    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    start = Distribution(spec.labels, np.full(3, 1.0 / 3.0))
    t0 = time.perf_counter()
    trajectory, _ = simulate_measurements(spec, start, steps, RngState(102))
    detail, ok = _closure_case(
        "s=1 beta=1.0", spin_transition_matrix(spec), trajectory, time.perf_counter() - t0
    )
    details.append(detail)
    all_ok &= ok

    spec = QubitChainSpec(n_qubits=8, beta=1.0)
    t0 = time.perf_counter()
    trajectory = simulate_register(spec, HalfInt(0), steps, RngState(103))
    detail, ok = _closure_case(
        "N=8 beta=1.0", qubit_transition_matrix(spec), trajectory, time.perf_counter() - t0
    )
    details.append(detail)
    all_ok &= ok

    report(capsys, 6, bool(all_ok), "; ".join(details) + " (TV tol 0.02, budget 5 s each)")


def test_criterion_7_coin_stream_statistics(capsys):
    bits = coin_toss_stream(1_000_000, RngState(42))
    mean = float(bits.mean())
    x = bits.astype(float) - mean
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    ones = int(bits.sum())
    fair = Distribution((1, 0), [0.5, 0.5])
    stat = chi_square(np.array([ones, bits.size - ones], dtype=float), fair).statistic
    crit = CHI2_CRIT_999[1]
    ok = abs(mean - 0.5) < 0.002 and abs(lag1) < 0.003 and stat < crit
    report(
        capsys, 7, ok,
        f"10^6 bits at seed 42: mean {mean:.5f} (0.5 +/- 0.002), lag-1 {lag1:+.5f} (+/- 0.003), "
        f"chi2(1) {stat:.3f} < {crit:.3f}",
    )


def test_criterion_8_cli_reruns_are_byte_identical(capsys, tmp_path):
    cases = [
        ["spin-matrix", "--s", "5/2", "--beta", "1.3"],
        ["qubit-matrix", "--n", "6", "--beta-pi", "0.35", "--format", "csv"],
        ["simulate", "--kind", "spin", "--s", "1", "--beta", "1.2", "--steps", "3000", "--seed", "11"],
        ["simulate", "--kind", "qubit", "--n", "5", "--beta", "0.9", "--steps", "3000", "--seed", "12"],
        ["verify", "--n-max", "3"],
        ["stationary", "--kind", "qubit", "--n", "4", "--beta", "1.0"],
        ["coin-toss", "--count", "5000", "--seed", "42"],
    ]
    identical = True
    for argv in cases:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        identical &= first.encode() == second.encode() and first != ""

    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    base = ["simulate", "--kind", "qubit", "--n", "3", "--beta", "1.1", "--steps", "5000", "--seed", "9"]
    main(base + ["--out", str(file_a)])
    main(base + ["--out", str(file_b)])
    capsys.readouterr()
    identical &= file_a.read_bytes() == file_b.read_bytes()

    report(
        capsys, 8, bool(identical),
        f"{len(cases)} CLI commands rerun byte-identically, trajectory files included",
    )


def _legendre_values(x: float, degree: int) -> list:
    """P_0(x) .. P_degree(x) by Bonnet's three-term recurrence."""
    values = [1.0, x]
    for ell in range(1, degree):
        values.append(((2 * ell + 1) * x * values[ell] - ell * values[ell - 1]) / (ell + 1))
    return values[: degree + 1]


def test_criterion_9_spectra_match_the_closed_forms(capsys):
    betas = (0.3, 1.0, math.pi / 2.0, 2.2, 2.7)
    spin_worst = 0.0
    for twice in range(1, TWICE_S_MAX + 1):
        for beta in betas:
            rows = spin_transition_matrix(SpinChainSpec(s=HalfInt(twice), beta=beta)).rows
            expected = np.sort(_legendre_values(math.cos(beta), twice))
            spin_worst = max(spin_worst, float(np.abs(np.linalg.eigvalsh(rows) - expected).max()))
    register_worst = 0.0
    for n in range(1, N_MAX_FORMULA + 1):
        # reversible against Binomial(N, 1/2): sqrt(C(N,k)) weights make it symmetric
        weights = np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])
        for beta in betas:
            rows = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta)).rows
            symmetric = weights[:, None] * rows / weights[None, :]
            expected = np.sort((1.0 - 2.0 * math.sin(beta / 2.0) ** 2) ** np.arange(n + 1))
            register_worst = max(
                register_worst, float(np.abs(np.linalg.eigvalsh(symmetric) - expected).max())
            )
    ok = spin_worst < 1e-12 and register_worst < 1e-12
    report(
        capsys, 9, ok,
        f"spin eigenvalues = P_L(cos beta), L=0..2s, within {spin_worst:.2e} for 2s=1..{TWICE_S_MAX}; "
        f"register eigenvalues = (1-2p)^k, k=0..N, within {register_worst:.2e} for N=1..{N_MAX_FORMULA} "
        f"(tol 1e-12, 5 beta each)",
    )
