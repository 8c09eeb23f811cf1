"""Independent reference values for checking qmarkov outputs.

Nothing here imports qmarkov or follows its code paths:

* d^s(beta) comes from an eigendecomposition of S_y, not from the
  alternating factorial sum;
* register rows are a numpy convolution of two binomial laws, not the
  printed single-sum formula;
* stationary vectors are the exact ones: uniform for the (doubly
  stochastic) spin chain, Binomial(N, 1/2) for the register;
* simulated rows are held to a concentration bound scaled to their
  visit counts.

Row i of every matrix is the current outcome, column j the next one, and
outcomes descend (m = s, s-1, ..., -s; j = N/2, ..., -N/2).
"""

import math

import numpy as np

# per-row false-alarm probability of the TV bound
TV_DELTA = 1e-9


def label(twice: int) -> str:
    """Exact label text of the half-integer twice/2, e.g. "3/2", "-1", "0"."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def descending_labels(twice_top: int) -> list:
    """Labels top, top-1, ..., -top for top = twice_top/2."""
    return [label(twice_top - 2 * k) for k in range(twice_top + 1)]


def spin_small_d(twice_s: int, beta: float) -> np.ndarray:
    """d^s(beta) = exp(-i beta S_y) from the eigenvectors of S_y."""
    dim = twice_s + 1
    s = twice_s / 2.0
    m = s - np.arange(dim)
    # <m+1|S_+|m> sits above the diagonal in descending-m order
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    raising = np.diag(ladder, k=1)
    sy = (raising - raising.T) / 2j
    w, v = np.linalg.eigh(sy)
    return (v @ np.diag(np.exp(-1j * beta * w)) @ v.conj().T).real


def spin_matrix(twice_s: int, beta: float) -> np.ndarray:
    """Spin-chain transition matrix |d^s(beta)|^2 (symmetric)."""
    d = spin_small_d(twice_s, beta)
    return (d * d).T


def binomial_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    coeff = np.array([float(math.comb(n, int(i))) for i in k])
    return coeff * p**k * (1.0 - p) ** (n - k)


def register_matrix(n_qubits: int, beta: float) -> np.ndarray:
    """Register-chain matrix: ups' = (ups that stay) + (downs that flip)."""
    p = math.sin(beta / 2.0) ** 2
    dim = n_qubits + 1
    out = np.empty((dim, dim))
    for i in range(dim):
        ups = n_qubits - i
        law = np.convolve(binomial_pmf(ups, 1.0 - p), binomial_pmf(n_qubits - ups, p))
        # law[u] is P(ups' = u); column k holds ups' = N - k
        out[i] = law[::-1]
    return out


def spin_stationary(twice_s: int) -> np.ndarray:
    return np.full(twice_s + 1, 1.0 / (twice_s + 1))


def register_stationary(n_qubits: int) -> np.ndarray:
    return binomial_pmf(n_qubits, 0.5)[::-1]


def tv_bound(visits: int, dim: int, delta: float = TV_DELTA) -> float:
    """TV level an empirical row of `visits` i.i.d. draws exceeds with probability <= delta.

    Bretagnolle-Huber-Carol: P(||p_hat - p||_1 >= 2t) <= 2^dim exp(-2 visits t^2).
    By the strong Markov property the exits from one state are i.i.d.
    draws of that state's row, so the bound applies to chain rows too.
    """
    return math.sqrt((dim * math.log(2.0) + math.log(1.0 / delta)) / (2.0 * visits))


def fair_coin_lag1_bound(count: int) -> float:
    """|lag-1 autocorrelation| of fair bits stays below this except with tiny probability."""
    return 6.0 / math.sqrt(count)
