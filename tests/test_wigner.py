import math

import numpy as np
import pytest

from qmarkov import (
    EulerAngles,
    HalfInt,
    InvalidArgumentError,
    RangeLimitError,
    TWICE_S_MAX,
    big_D,
    small_d,
)

from oracles import oracle_big_D, oracle_small_d

HALF = HalfInt(1)
ONE = HalfInt(2)

# rotating a spin-1/2 by beta about y mixes the two outcomes with
# amplitude cos(beta/2) on the diagonal and -sin(beta/2) above it
R2 = 0.7071067811865476  # cos(pi/4) to the last bit


def test_spin_half_convention():
    beta = 1.1
    d = small_d(HALF, beta).entries
    c, s = math.cos(0.55), math.sin(0.55)
    assert np.allclose(d, [[c, -s], [s, c]], atol=1e-15, rtol=0.0)


def test_spin_one_quarter_turn_matches_frozen_values():
    d = small_d(ONE, math.pi / 2.0).entries
    expected = np.array(
        [
            [0.5, -R2, 0.5],
            [R2, 0.0, -R2],
            [0.5, R2, 0.5],
        ]
    )
    assert np.abs(d - expected).max() < 1e-12


def test_big_d_quarter_turns_matches_frozen_values():
    D = big_D(HALF, EulerAngles(math.pi / 2.0, math.pi / 2.0, 0.0)).entries
    expected = np.array([[0.5 - 0.5j, -0.5 + 0.5j], [0.5 + 0.5j, 0.5 + 0.5j]])
    assert np.abs(D - expected).max() < 1e-12


def test_zero_rotation_is_exactly_the_identity():
    for twice in (1, 2, 5, 27):
        d = small_d(HalfInt(twice), 0.0).entries
        assert np.array_equal(d, np.eye(twice + 1))


def test_full_turn_flips_half_odd_spins_exactly():
    two_pi = 2.0 * math.pi
    # sin(pi) != 0 in floats, so nudge to the exact branch via the point
    # where both half-angle values are exact
    d_half = small_d(HALF, two_pi).entries
    d_one = small_d(ONE, two_pi).entries
    # at floating 2*pi the half-angle sine is ~1e-16, not 0; the matrix
    # must still be within a few ulp of the spinor sign rule
    assert np.abs(d_half - (-np.eye(2))).max() < 1e-15
    assert np.abs(d_one - np.eye(3)).max() < 1e-15


@pytest.mark.parametrize("twice", [1, 2, 3, 4, 6])
def test_matches_eigendecomposition_oracle(twice):
    rng = np.random.default_rng(twice)
    for beta in rng.uniform(0.0, 2.0 * math.pi, size=10):
        d = small_d(HalfInt(twice), float(beta)).entries
        assert np.abs(d - oracle_small_d(twice, float(beta))).max() < 1e-9


@pytest.mark.parametrize("twice", [27, 33, 50])
def test_exact_core_matches_oracle_at_large_spin(twice):
    for beta in (0.4, 2.0):
        d = small_d(HalfInt(twice), beta).entries
        assert np.abs(d - oracle_small_d(twice, beta)).max() < 1e-9


def test_big_d_matches_oracle_with_all_three_angles():
    angles = EulerAngles(0.6, 1.3, -0.9)
    for twice in (1, 2, 5):
        D = big_D(HalfInt(twice), angles).entries
        assert np.abs(D - oracle_big_D(twice, 0.6, 1.3, -0.9)).max() < 1e-9


@pytest.mark.parametrize("twice", [1, 2, 5, 10, 19, 25])
def test_orthogonality(twice):
    rng = np.random.default_rng(100 + twice)
    eye = np.eye(twice + 1)
    betas = list(rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=20))
    for beta in betas:
        d = small_d(HalfInt(twice), float(beta)).entries
        assert np.abs(d.T @ d - eye).max() < 1e-10


@pytest.mark.parametrize("twice", [1, 2, 5, 10, 25])
def test_index_swap_symmetry(twice):
    # d[m2, m1] = (-1)^(m2 - m1) d[m1, m2]
    dim = twice + 1
    signs = np.array([[(-1.0) ** (i - j) for j in range(dim)] for i in range(dim)])
    rng = np.random.default_rng(200 + twice)
    for beta in rng.uniform(0.0, math.pi, size=10):
        d = small_d(HalfInt(twice), float(beta)).entries
        assert np.abs(d - signs * d.T).max() < 1e-10


def test_big_d_is_unitary():
    angles = EulerAngles(1.0, 0.8, 2.2)
    for twice in (1, 3, 8):
        D = big_D(HalfInt(twice), angles).entries
        assert np.abs(D @ D.conj().T - np.eye(twice + 1)).max() < 1e-10


def test_negative_beta_transposes():
    # d(-beta) = d(beta)^T by orthogonality plus the index-swap symmetry
    for twice in (1, 2, 7, 30):
        d_pos = small_d(HalfInt(twice), 0.9).entries
        d_neg = small_d(HalfInt(twice), -0.9).entries
        assert np.abs(d_neg - d_pos.T).max() < 1e-12


def test_spin_range_limit():
    assert TWICE_S_MAX == 50
    small_d(HalfInt(50), 1.0)
    with pytest.raises(RangeLimitError):
        small_d(HalfInt(51), 1.0)


def test_argument_validation():
    with pytest.raises(InvalidArgumentError):
        small_d(HalfInt(-1), 1.0)
    with pytest.raises(InvalidArgumentError):
        small_d(0.5, 1.0)  # must be a HalfInt
    with pytest.raises(InvalidArgumentError):
        small_d(HALF, float("nan"))
    with pytest.raises(InvalidArgumentError):
        EulerAngles(0.0, float("inf"), 0.0)


def test_other_euler_angles_do_not_change_the_chain():
    # alpha and gamma only multiply entries by phases, so a spin chain is (s, beta)
    for twice in (1, 3, 10, 50):
        D = big_D(HalfInt(twice), EulerAngles(1.3, 1.1, -0.4)).entries
        d = small_d(HalfInt(twice), 1.1).entries
        assert np.abs(np.abs(D) ** 2 - d**2).max() <= 1e-15


def test_entries_are_read_only():
    d = small_d(ONE, 1.0)
    with pytest.raises(ValueError):
        d.entries[0, 0] = 2.0
    D = big_D(ONE, EulerAngles(0.1, 1.0, 0.2))
    with pytest.raises(ValueError):
        D.entries[0, 0] = 2.0
