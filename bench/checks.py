"""Output checks for every op kind, against the references in reference.py.

`references(op, run_dir)` builds an op's reference values once (they
are the same on every pass); `check(op, result, ref, seen)` then parses
the op's output and returns (errors, max_abs_err).  An empty error list
means the op passed.  max_abs_err is the largest entry error of a
full-precision matrix or stationary vector the op produced, or None.
"""

import json
from pathlib import Path

import numpy as np

import reference

MATRIX_TOL = 1e-10
# `--format table` prints six decimals
TABLE_TOL = 5.1e-7
# power iteration stops at TV residual 1e-10; the iterate lags pi by
# residual / (1 - lambda_2), about 2e-9 at the slow-mixing angles used
STATIONARY_TOL = 1e-7
# the program's row TV and ours differ only by the matrix error
ROW_TV_TOL = 1e-8


def _simulate_reference(op, run_dir):
    e = op["expect"]
    if op["kind"] == "simulate.spin" or op["kind"] == "reload":
        return reference.descending_labels(e["twice_s"]), reference.spin_matrix(e["twice_s"], e["beta"])
    if op["kind"] == "simulate.qubit":
        return reference.descending_labels(e["n"]), reference.register_matrix(e["n"], e["beta"])
    if "spin" in e:
        twice_s, beta = e["spin"]
        return reference.descending_labels(twice_s), reference.spin_matrix(twice_s, beta)
    # a generated file: the rows the benchmark wrote are the reference
    payload = json.loads((Path(run_dir) / e["file"]).read_text())
    return payload["labels"], np.array(payload["rows"])


def references(op, run_dir) -> dict:
    kind, e = op["kind"], op["expect"]
    if kind.startswith("simulate.") or kind == "reload":
        labels, matrix = _simulate_reference(op, run_dir)
        return {"labels": labels, "matrix": matrix}
    if kind == "spin-matrix":
        return {"labels": reference.descending_labels(e["twice_s"]),
                "matrix": reference.spin_matrix(e["twice_s"], e["beta"])}
    if kind == "qubit-matrix":
        return {"labels": reference.descending_labels(e["n"]),
                "matrix": reference.register_matrix(e["n"], e["beta"])}
    if kind == "stationary":
        if e["source"] == "spin":
            return {"labels": reference.descending_labels(e["size"]),
                    "probs": reference.spin_stationary(e["size"])}
        return {"labels": reference.descending_labels(e["size"]),
                "probs": reference.register_stationary(e["size"])}
    return {}


def _row_errors(labels, visits, rows, program_tv, ref) -> list:
    """Each visited row within its TV bound, and the program's TV agreeing with ours."""
    if labels != ref["labels"]:
        return [f"labels {labels[:4]}... differ from the reference"]
    errors = []
    dim = len(labels)
    for i, (n, row, theirs, ref_row) in enumerate(zip(visits, rows, program_tv, ref["matrix"])):
        if n == 0:
            if theirs is not None:
                errors.append(f"row {i} never visited but has TV {theirs}")
            continue
        mine = 0.5 * float(np.abs(np.asarray(row, dtype=float) - ref_row).sum())
        if theirs is None or abs(mine - theirs) > ROW_TV_TOL:
            errors.append(f"row {i}: program TV {theirs!r} differs from reference TV {mine!r}")
        bound = reference.tv_bound(n, dim)
        if mine > bound:
            errors.append(f"row {i}: TV {mine:.4g} above bound {bound:.4g} at {n} visits")
    return errors


def _check_simulate(op, text, ref, seen):
    e = op["expect"]
    summary = json.loads(text)
    visits = summary["visits"]
    errors = []
    if sum(visits) != e["steps"]:
        errors.append(f"visits sum to {sum(visits)}, not {e['steps']} steps")
    config = summary["config"]
    if config["steps"] != e["steps"] or config["seed"] != e["seed"]:
        errors.append("config does not echo the requested steps and seed")
    errors += _row_errors(summary["labels"], visits, summary["empirical_rows"], summary["row_tv"], ref)
    seen[op["id"]] = visits
    return errors, None


def _check_reload(op, payload, ref, seen):
    e = op["expect"]
    errors = []
    if payload["steps"] != e["steps"] or payload["seed"] != e["seed"]:
        errors.append("reloaded header does not match the simulate op")
    counts = np.array(payload["counts"], dtype=float)
    visits = [int(n) for n in counts.sum(axis=1)]
    if visits != seen.get(e["from_op"]):
        errors.append("reloaded visit counts differ from the simulate op's summary")
    rows = [c / n if n else c for c, n in zip(counts, visits)]
    errors += _row_errors(payload["labels"], visits, rows, payload["row_tv"], ref)
    return errors, None


def _parse_matrix(text, fmt):
    if fmt == "json":
        payload = json.loads(text)
        return payload["labels"], np.array(payload["rows"])
    if fmt == "csv":
        lines = text.splitlines()
        return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    lines = text.splitlines()
    return lines[0].split(), np.array([[float(x) for x in line.split()[1:]] for line in lines[1:]])


def _check_matrix(text, fmt, ref):
    labels, rows = _parse_matrix(text, fmt)
    if labels != ref["labels"]:
        return [f"labels {labels[:4]}... differ from the reference"], None
    if rows.shape != ref["matrix"].shape:
        return [f"matrix shape {rows.shape} is not {ref['matrix'].shape}"], None
    err = float(np.abs(rows - ref["matrix"]).max())
    tol = TABLE_TOL if fmt == "table" else MATRIX_TOL
    errors = [f"max entry error {err:.3g} above {tol:g}"] if err > tol else []
    # six-decimal tables measure rounding, not the program
    return errors, (None if fmt == "table" else err)


def _check_stationary(text, ref):
    payload = json.loads(text)
    if not payload["converged"]:
        return ["power iteration did not converge"], None
    if payload["labels"] != ref["labels"]:
        return ["labels differ from the reference"], None
    err = float(np.abs(np.array(payload["probs"]) - ref["probs"]).max())
    return ([f"stationary error {err:.3g} above {STATIONARY_TOL:g}"] if err > STATIONARY_TOL else []), err


def _check_coin(op, text):
    payload = json.loads(text)
    bits = payload["bits"]
    count = op["expect"]["count"]
    errors = []
    if len(bits) != count or bits.count("0") + bits.count("1") != count:
        errors.append(f"expected {count} bits of 0/1")
    if payload["ones"] != bits.count("1"):
        errors.append("'ones' does not count the bits")
    if not (payload["chi_square"] or {}).get("pass"):
        errors.append(f"fair-coin chi-square failed: {payload['chi_square']}")
    lag1 = payload["lag1_autocorrelation"]
    if lag1 is None or abs(lag1) > reference.fair_coin_lag1_bound(count):
        errors.append(f"lag-1 autocorrelation {lag1} out of range")
    return errors, None


def _check_verify(text):
    payload = json.loads(text)
    if payload["pass"] is not True or payload["failures"] or payload["checks"] <= 0:
        return [f"verify reported failures: {payload['failures'][:3]}"], None
    return [], None


def check(op, result, ref, seen, run_dir) -> tuple:
    """(errors, max_abs_err) for one op's result.

    `result` holds the exit code, captured stdout and stderr, and for
    `reload` the library payload.  `seen` carries visit counts from a
    simulate op to the reload of its trajectory in the same pass.
    """
    if result["error"] is not None:
        return [result["error"]], None
    if result["code"] != 0:
        return [f"exit code {result['code']}: {result['stderr'].strip()[:200]}"], None
    kind, e = op["kind"], op["expect"]
    text = result["stdout"]
    if kind == "coin-toss":
        return _check_coin(op, text)
    if kind.startswith("simulate."):
        return _check_simulate(op, text, ref, seen)
    if kind == "reload":
        return _check_reload(op, result["payload"], ref, seen)
    if kind == "spin-matrix":
        if e["out"] is not None:
            text = (Path(run_dir) / e["out"]).read_text()
        return _check_matrix(text, e["format"], ref)
    if kind == "qubit-matrix":
        return _check_matrix(text, "json", ref)
    if kind == "stationary":
        return _check_stationary(text, ref)
    return _check_verify(text)
