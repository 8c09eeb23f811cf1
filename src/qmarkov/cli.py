"""Command-line interface.

Subcommands: spin-matrix, qubit-matrix, simulate, verify, stationary,
coin-toss.  Machine output is deterministic JSON (CSV and a plain table
are available for matrices); identical flags and seed always produce
byte-identical output.  No timestamps, no environment reads or echoes,
nothing that varies between runs: the seed comes from --seed alone
(default 0).  Every input is checked before an --out file is opened, so
a rejected command leaves an existing file as it was.

Exit codes: 0 success, 2 usage or input error, 3 convergence failure
(from stationary only), 4 verification failure.  Every input error,
malformed files included, is an InvalidArgumentError or an OSError, and
main turns each into one "error:" line on stderr and exit 2.
"""

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidDistributionError,
    UndefinedTestError,
    check_int,
    check_real,
)
from .halfint import HalfInt
from .markov import Distribution, _check_tol, _realize, sample, stationary
from .qubit_chain import N_MAX_BRUTE_FORCE, QubitChainSpec, brute_force_q, q_formula, qubit_transition_matrix
from .rng import RNG_ALGORITHM, RngState
from .serialization import (
    FORMAT_VERSION,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_table,
    write_trajectory,
)
from .spin_chain import SpinChainSpec, coin_toss_stream, spin_transition_matrix
from .stats import CHI2_CRIT_999, chi_square, empirical_matrix, per_row_tv, transition_counts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

STEPS_MAX = 10**8
# stationary's power iteration takes a few microseconds per iteration at
# the analytic sizes, so the cap bounds a run to under a minute
ITERS_MAX = 10**7

_DEFAULT_VERIFY_BETAS = (0.3, 1.0, math.pi / 2.0, 2.2, 2.7)


def _resolve_beta(args) -> float:
    if args.beta is not None:
        return args.beta
    if args.beta_pi is not None:
        return args.beta_pi * math.pi
    raise InvalidArgumentError("--beta or --beta-pi is required here")


def _opened(out):
    """--out opened for writing in UTF-8, or stdout when it is None, as a context manager.

    Commands open it after their inputs are checked and before the work,
    so a bad path is reported before anything is computed.  The file is
    UTF-8 whatever the locale, as matrix files are read.
    """
    return open(out, "w", encoding="utf-8") if out is not None else nullcontext(sys.stdout)


def _chain(args) -> tuple:
    """(matrix, source) for --kind spin, qubit or matrix-file.

    source is the ordered dict of the flags that name the chain, echoed
    into every output.
    """
    if args.kind == "spin":
        if args.s is None:
            raise InvalidArgumentError("--kind spin requires --s")
        spec = SpinChainSpec(s=HalfInt.parse(args.s), beta=_resolve_beta(args))
        source = {"kind": "spin", "s": str(spec.s), "beta": spec.beta}
        return spin_transition_matrix(spec), source
    if args.kind == "qubit":
        if args.n is None:
            raise InvalidArgumentError("--kind qubit requires --n")
        spec = QubitChainSpec(n_qubits=args.n, beta=_resolve_beta(args))
        source = {"kind": "qubit", "n": spec.n_qubits, "beta": spec.beta}
        return qubit_transition_matrix(spec), source
    if args.file is None:
        raise InvalidArgumentError("--kind matrix-file requires --file")
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return matrix_from_json(text), {"kind": "matrix-file", "file": str(args.file)}


def cmd_matrix(args) -> int:
    matrix, source = _chain(args)
    with _opened(args.out) as stream:
        if args.format == "json":
            params = {key: value for key, value in source.items() if key != "kind"}
            stream.write(matrix_to_json(matrix, kind=source["kind"], params=params))
        elif args.format == "csv":
            stream.write(matrix_to_csv(matrix))
        else:
            stream.write(matrix_to_table(matrix))
    return EXIT_OK


def _initial_index(labels: tuple, initial: str) -> int:
    """Position of the --initial text among a chain's labels.

    Half-integer labels (spin, qubit) match by value, so "+1" names 1;
    the labels of a matrix file match only as the exact string.
    """
    key = HalfInt.parse(initial) if isinstance(labels[0], HalfInt) else initial
    try:
        return labels.index(key)
    except ValueError:
        raise InvalidArgumentError(f"initial outcome {initial!r} is not one of the chain's labels") from None


def cmd_simulate(args) -> int:
    steps = check_int("steps", args.steps, 0, STEPS_MAX)
    rng = RngState(args.seed)
    # the matrix is built, the start resolved and --out opened before the
    # first draw, so every input error surfaces before any work
    theory, source = _chain(args)
    labels, dim = theory.labels, theory.dim
    index = None if args.initial is None else _initial_index(labels, args.initial)
    law = None
    if args.kind == "qubit":
        # all qubits up by default; the register starts at its label index, with no draw
        index = 0 if index is None else index
        initial = str(labels[index])
    else:
        # the start is one draw from its law: uniform by default (for spin,
        # the Born law of the balanced superposition), else all weight on
        # the named label
        probs = np.full(dim, 1.0 / dim)
        if index is not None:
            probs = np.zeros(dim)
            probs[index] = 1.0
        law = Distribution(labels, probs)
        default = "balanced" if args.kind == "spin" else "uniform"
        initial = default if index is None else str(labels[index])
    config = {"command": "simulate", **source, "initial": initial, "steps": steps, "seed": rng.seed}
    with _opened(args.out) as stream:
        start = index if law is None else sample(law, rng)
        trajectory = _realize(theory, start, steps, rng)
        if args.out is not None:
            write_trajectory(trajectory, stream, config=config)

    counts = transition_counts(trajectory)
    empirical = empirical_matrix(counts)
    row_tv = per_row_tv(empirical, theory)
    observed = [tv for tv in row_tv if tv is not None]
    summary = {
        "config": config,
        "rng": RNG_ALGORITHM,
        "version": FORMAT_VERSION,
        "labels": [str(label) for label in trajectory.labels],
        "visits": empirical.row_visits.tolist(),
        "empirical_rows": [
            row if seen else None for row, seen in zip(empirical.rows.tolist(), empirical.observed.tolist())
        ],
        "row_tv": row_tv,
        "max_row_tv": max(observed) if observed else None,
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    check_int("n_max", args.n_max, 1, N_MAX_BRUTE_FORCE)
    betas = [check_real("beta", beta) for beta in args.beta] if args.beta else list(_DEFAULT_VERIFY_BETAS)
    with _opened(args.out) as stream:
        checks, failures = _verify_sweep(args.n_max, betas)
        report = {
            "n_max": args.n_max,
            "betas": betas,
            "checks": checks,
            "failures": failures,
            "pass": not failures,
            "version": FORMAT_VERSION,
        }
        stream.write(json.dumps(report) + "\n")
    return EXIT_OK if not failures else EXIT_VERIFICATION


def _verify_sweep(n_max: int, betas: list) -> tuple:
    """(checks, failures) of the closed form and the builder against the oracle."""
    failures = []
    checks = 0
    for n in range(1, n_max + 1):
        for beta in betas:
            spec = QubitChainSpec(n_qubits=n, beta=beta)
            labels = spec.labels
            try:
                formula = q_formula(spec)
                rows = qubit_transition_matrix(spec).rows
            except InternalConsistencyError as exc:
                failures.append({"check": "branch_seam", "n": n, "beta": beta, "detail": str(exc)})
                continue
            except InvalidDistributionError as exc:
                failures.append({"check": "row_sum", "n": n, "beta": beta, "detail": str(exc)})
                continue
            oracle = brute_force_q(spec)
            # per (N, beta): one seam check per diagonal entry, then per
            # row one sum check (made by StochasticMatrix) and two cell
            # checks per column
            checks += 2 * (n + 1) * (n + 2)
            for check, route in (("formula_vs_oracle", formula), ("matrix_vs_oracle", rows)):
                diff = np.abs(route - oracle)
                for i, k in np.argwhere(diff > 1e-10):
                    cell = {"j": str(labels[i]), "j_prime": str(labels[k]), "diff": float(diff[i, k])}
                    failures.append({"check": check, "n": n, "beta": beta, **cell})
            if n == 1:
                checks += 1
                spin = spin_transition_matrix(SpinChainSpec(s=HalfInt(1), beta=beta))
                diff = float(np.abs(rows - spin.rows).max())
                if diff > 1e-12:
                    failures.append({"check": "spin_identity", "n": 1, "beta": beta, "diff": diff})
    return checks, failures


def cmd_stationary(args) -> int:
    max_iters = check_int("max_iters", args.max_iters, 1, ITERS_MAX)
    _check_tol(args.tol)
    matrix, source = _chain(args)
    config = {
        "command": "stationary",
        "source": source,
        "tol": args.tol,
        "max_iters": args.max_iters,
    }
    base = {
        "config": config,
        "version": FORMAT_VERSION,
        "labels": [str(label) for label in matrix.labels],
    }
    with _opened(args.out) as stream:
        try:
            result = stationary(matrix, tol=args.tol, max_iters=max_iters)
        except ConvergenceError as exc:
            code = EXIT_CONVERGENCE
            payload = {
                **base,
                "converged": False,
                "iterations": exc.iterations,
                "residual": float(exc.residual),
                "last_iterate": exc.last_iterate.tolist(),
            }
        else:
            code = EXIT_OK
            payload = {
                **base,
                "converged": True,
                "iterations": result.iterations,
                "residual": float(result.residual),
                "probs": result.distribution.probs.tolist(),
            }
        stream.write(json.dumps(payload) + "\n")
    return code


def cmd_coin_toss(args) -> int:
    count = check_int("count", args.count, 0, STEPS_MAX)
    rng = RngState(args.seed)
    with _opened(args.out) as stream:
        bits = coin_toss_stream(count, rng)
        ones = int(bits.sum())
        payload = {
            "config": {"command": "coin-toss", "count": count, "seed": rng.seed},
            "rng": RNG_ALGORITHM,
            "version": FORMAT_VERSION,
            "bits": (bits + ord("0")).tobytes().decode("ascii"),
            "ones": ones,
            "mean": ones / count if count else None,
            "lag1_autocorrelation": _lag1_autocorrelation(bits, ones),
            "chi_square": _fair_coin_chi_square(ones, count),
        }
        stream.write(json.dumps(payload) + "\n")
    return EXIT_OK


def _lag1_autocorrelation(bits, ones: int) -> float | None:
    """The lag-1 autocorrelation of the bits, from integer counts, rounded once.

    With n bits, k ones, c11 adjacent pairs of ones and end bits b0 and
    bl, the centred sums are n^2 c11 - n k (2k - b0 - bl) + (n - 1) k^2
    over n k (n - k), so Python's int true division gives the value
    correctly rounded, whatever order a float dot product would sum in.
    None when every bit is the same.
    """
    n, k = bits.size, ones
    if k * (n - k) == 0:
        return None
    pairs = int(np.count_nonzero(bits[:-1] & bits[1:]))
    ends = int(bits[0]) + int(bits[-1])
    return (n * n * pairs - n * k * (2 * k - ends) + (n - 1) * k * k) / (n * k * (n - k))


def _fair_coin_chi_square(ones: int, count: int):
    if count == 0:
        return None
    fair = Distribution(labels=(1, 0), probs=np.array([0.5, 0.5]))
    try:
        result = chi_square(np.array([ones, count - ones], dtype=float), fair)
    except UndefinedTestError:
        return None
    # two cells with equal expected counts: dof 1, or UndefinedTestError
    critical = CHI2_CRIT_999[result.dof]
    return {
        "statistic": result.statistic,
        "dof": result.dof,
        "critical_999": critical,
        "pass": bool(result.statistic < critical),
    }


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default="json",
        help="output format (json is canonical; default json)",
    )


def _add_out(parser, what: str = "output") -> None:
    parser.add_argument("--out", default=None, metavar="PATH", help=f"write {what} to PATH instead of stdout")


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="U64",
        help="64-bit RNG seed (default 0)",
    )


def _add_beta(parser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--beta", type=float, metavar="RAD", help="rotation angle in radians")
    group.add_argument("--beta-pi", type=float, metavar="X", help="rotation angle as X*pi")


def _add_source(parser) -> None:
    parser.add_argument(
        "--kind",
        required=True,
        choices=("spin", "qubit", "matrix-file"),
        help="chain source: analytic spin or qubit parameters, or a matrix JSON file",
    )
    parser.add_argument("--s", metavar="FRAC", help='spin as an exact string, e.g. "1/2" or "2"')
    parser.add_argument("--n", type=int, metavar="N", help="number of qubits")
    parser.add_argument("--file", metavar="PATH", help="matrix JSON file (for --kind matrix-file)")
    _add_beta(parser, required=False)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qmarkov argument parser, built on the first call and shared after it.

    parse_args keeps no state between calls (each returns a new
    namespace), so repeated main calls in one process reuse it; it is
    not built at import, which keeps importing the module cheap.
    """
    parser = argparse.ArgumentParser(
        prog="qmarkov",
        description="Markov chains induced by alternating quantum measurements.",
        epilog=(
            f"All randomness comes from the {RNG_ALGORITHM} generator; a 64-bit seed "
            "(--seed, default 0) makes every output bit-reproducible.  Every input is "
            "checked before an --out file is opened."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("spin-matrix", help="analytic transition matrix of the spin chain")
    p.add_argument("--s", required=True, metavar="FRAC", help='spin as an exact string, e.g. "1/2" or "2"')
    _add_beta(p, required=True)
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_matrix, kind="spin")

    p = sub.add_parser("qubit-matrix", help="analytic transition matrix of the qubit register chain")
    p.add_argument("--n", required=True, type=int, metavar="N", help="number of qubits")
    _add_beta(p, required=True)
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_matrix, kind="qubit")

    p = sub.add_parser("simulate", help="realize a trajectory and summarize it against theory")
    _add_source(p)
    p.add_argument("--steps", required=True, type=int, help=f"number of transitions (at most {STEPS_MAX})")
    p.add_argument(
        "--initial",
        default=None,
        metavar="LABEL",
        help=(
            "starting outcome, one of the chain's labels: a half-integer such as -1 or 1/2 "
            "(spin, qubit) or the exact label string (matrix-file); a negative fraction needs "
            "the = form, --initial=-1/2; defaults: balanced state (spin), all up (qubit), "
            "uniform (matrix-file)"
        ),
    )
    _add_seed(p)
    _add_out(p, what="the trajectory file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="sweep the closed form and the matrix builder against the enumeration oracle")
    p.add_argument("--n-max", type=int, default=12, metavar="N", help="largest register size to sweep (default 12)")
    p.add_argument(
        "--beta",
        type=float,
        action="append",
        metavar="RAD",
        help="angle to include (repeatable; default sweep 0.3, 1.0, pi/2, 2.2, 2.7)",
    )
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stationary", help="power-iterate a matrix to its stationary distribution")
    _add_source(p)
    p.add_argument("--tol", type=float, default=1e-10, help="residual total variation target (default 1e-10)")
    p.add_argument(
        "--max-iters", type=int, default=100_000, help=f"iteration cap (default 100000, at most {ITERS_MAX})"
    )
    _add_out(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("coin-toss", help="fair bits from the spin-1/2 chain at beta = pi/2")
    p.add_argument("--count", required=True, type=int, help=f"number of bits (at most {STEPS_MAX})")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(func=cmd_coin_toss)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
