"""Spans around calls into qmarkov's public functions, and the layer metrics built from them.

The tracer wraps public functions in place, at every module attribute
that refers to them, so calls the CLI makes and calls the library makes
to its own layers (for example `wigner.big_D` -> `wigner.small_d`) are
both seen, nested, with no extra calls and no change to the program's
files.  Spans live in memory until the pass ends.

A span's self time is its duration minus the time of its direct
children.  Scalar functions called thousands of times per op get no
span of their own: `brute_force_q` and `RngState.random` are aggregated
into a call count and total time (which still counts as child time of
the span that called them), and `q_formula` only into a call count,
since timing each of its ~10^5 calls would slow the register builder
around it by more than half.
"""

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, function, span name, attrs taken from (args, result))
SPANNED = [
    ("qmarkov.wigner", "small_d", "wigner.small_d",
     lambda a, r: {"twice_s": a[0].twice, "entries": r.entries}),
    ("qmarkov.wigner", "big_D", "wigner.big_D", None),
    ("qmarkov.spin_chain", "spin_transition_matrix", "spin_chain.transition_matrix", None),
    ("qmarkov.spin_chain", "simulate_measurements", "spin_chain.simulate",
     lambda a, r: {"steps": a[2], "dim": a[0].s.twice + 1, "records": len(r[1])}),
    ("qmarkov.spin_chain", "coin_toss_stream", "spin_chain.coin_toss", lambda a, r: {"bits": a[0]}),
    ("qmarkov.markov", "simulate_chain", "markov.simulate_chain", lambda a, r: {"steps": a[2], "dim": a[0].dim}),
    ("qmarkov.markov", "stationary", "markov.stationary", lambda a, r: {"iterations": r.iterations}),
    ("qmarkov.qubit_chain", "qubit_transition_matrix", "qubit_chain.transition_matrix", None),
    ("qmarkov.qubit_chain", "simulate_register", "qubit_chain.simulate",
     lambda a, r: {"steps": a[2], "n": a[0].n_qubits}),
    ("qmarkov.stats", "transition_counts", "stats.transition_counts", None),
    ("qmarkov.stats", "empirical_matrix", "stats.empirical_matrix", None),
    ("qmarkov.stats", "per_row_tv", "stats.per_row_tv", None),
    ("qmarkov.stats", "chi_square", "stats.chi_square", None),
    ("qmarkov.serialization", "write_trajectory", "serialization.write_trajectory", None),
    ("qmarkov.serialization", "trajectory_from_text", "serialization.trajectory_from_text", None),
    ("qmarkov.serialization", "matrix_to_json", "serialization.matrix_to_json", None),
    ("qmarkov.serialization", "matrix_from_json", "serialization.matrix_from_json", None),
    ("qmarkov.serialization", "matrix_to_csv", "serialization.matrix_to_csv", None),
    ("qmarkov.serialization", "matrix_to_table", "serialization.matrix_to_table", None),
]
AGGREGATED = [("qmarkov.qubit_chain", "brute_force_q", "qubit_chain.brute_force")]
COUNTED = [("qmarkov.qubit_chain", "q_formula", "qubit_chain.q_formula")]
RNG_BLOCK = "rng.random_block"
RNG_SCALAR = "rng.random"

# the library evaluates d^s with its float core up to 2s = 26, exact integers above
FLOAT_CORE_MAX_TWICE_S = 26
SPIN_DIMS = (2, 3, 51)
CHAIN_DIMS = (9, 51)
REGISTER_SIZES = (8, 64)


class Span:
    __slots__ = ("id", "name", "op_id", "op_kind", "parent", "start", "end", "child_ns", "attrs")

    def __init__(self, span_id, name, op_id, op_kind, parent, start):
        self.id, self.name, self.op_id, self.op_kind, self.parent = span_id, name, op_id, op_kind, parent
        self.start, self.end, self.child_ns, self.attrs = start, start, 0, {}

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns

    def as_dict(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "entries"}
        return {"id": self.id, "name": self.name, "op": self.op_id, "kind": self.op_kind,
                "parent": self.parent, "start_ns": self.start, "end_ns": self.end,
                "self_ns": self.self_ns, "attrs": attrs}


def _rebind(replacements: dict) -> list:
    """Point every qmarkov module attribute bound to a replaced function at its replacement.

    `replacements` maps id(original) -> (original, replacement); returns
    (module, attribute, original) triples for restoring.
    """
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qmarkov" or mod_name.startswith("qmarkov.")):
            continue
        for attr, value in list(vars(mod).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, entry[1])
    return patched


def _restore(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


class Tracer:
    """Records nested spans; `install()` wraps the library, `uninstall()` restores it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.aggregates = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.op_id = None
        self.op_kind = None
        self._patched = []

    def reset(self) -> None:
        self.spans = []
        self.aggregates = defaultdict(lambda: [0, 0])

    def begin(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, self.op_id, self.op_kind, parent, time.perf_counter_ns())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_ns += span.dur_ns

    @contextmanager
    def op(self, op: dict):
        """The root span of one op; its self time is the CLI's own time."""
        self.op_id, self.op_kind = op["id"], op["kind"]
        span = self.begin("op")
        try:
            yield
        finally:
            self.end(span)

    def _spanned(self, fn, name, describe):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        return wrapper

    def _aggregated(self, fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                entry = self.aggregates[name]
                entry[0] += 1
                entry[1] += elapsed
                if self.stack:
                    self.stack[-1].child_ns += elapsed

        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.aggregates[name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from qmarkov.rng import RngState

        replacements = {}
        for module, func, name, describe in SPANNED:
            original = getattr(importlib.import_module(module), func)
            replacements[id(original)] = (original, self._spanned(original, name, describe))
        for module, func, name in AGGREGATED:
            original = getattr(importlib.import_module(module), func)
            replacements[id(original)] = (original, self._aggregated(original, name))
        for module, func, name in COUNTED:
            original = getattr(importlib.import_module(module), func)
            replacements[id(original)] = (original, self._counted(original, name))
        self._patched = _rebind(replacements)
        self._patched.append((RngState, "random_block", RngState.random_block))
        self._patched.append((RngState, "random", RngState.random))
        RngState.random_block = self._spanned(RngState.random_block, RNG_BLOCK, lambda a, r: {"count": a[1]})
        RngState.random = self._aggregated(RngState.random, RNG_SCALAR)

    def uninstall(self) -> None:
        _restore(self._patched)
        self._patched = []


class MemoryProbe:
    """tracemalloc peaks of the step kernel and the trajectory parser, in their own pass.

    tracemalloc slows allocation-heavy code many times over, so its pass
    is never timed.
    """

    TARGETS = [
        ("qmarkov.spin_chain", "simulate_measurements", "spin_chain.simulate", lambda a: a[2]),
        ("qmarkov.serialization", "trajectory_from_text", "serialization.trajectory_from_text", lambda a: 0),
    ]

    def __init__(self):
        self.records = defaultdict(list)  # name -> [(peak bytes above start, steps)]
        self._patched = []

    def _probe(self, fn, name, steps_of):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            self.records[name].append((tracemalloc.get_traced_memory()[1] - base, steps_of(args)))
            return result

        return wrapper

    def __enter__(self):
        replacements = {}
        for module, func, name, steps_of in self.TARGETS:
            original = getattr(importlib.import_module(module), func)
            replacements[id(original)] = (original, self._probe(original, name, steps_of))
        self._patched = _rebind(replacements)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        _restore(self._patched)
        self._patched = []
        return False

    def metrics(self) -> dict:
        sim = self.records["spin_chain.simulate"]
        steps = sum(s for _, s in sim)
        parse = self.records["serialization.trajectory_from_text"]
        return {
            "spin_chain.simulate.alloc_b_per_step": sum(b for b, _ in sim) / steps if steps else 0.0,
            "serialization.trajectory_from_text.peak_mb": max((b for b, _ in parse), default=0) / 2**20,
        }


def _per_unit_ns(spans, unit_key) -> float:
    units = sum(s.attrs.get(unit_key, 0) for s in spans)
    return sum(s.self_ns for s in spans) / units if units else 0.0


def layer_metrics(spans, aggregates, pass_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass; a layer the pass never entered reads 0."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_s(name, use_self=False):
        return sum(s.self_ns if use_self else s.dur_ns for s in by_name[name]) / 1e9

    small_d = by_name["wigner.small_d"]
    defects = [
        float(np.abs(s.attrs["entries"] @ s.attrs["entries"].T - np.eye(s.attrs["twice_s"] + 1)).max())
        for s in small_d if "entries" in s.attrs
    ]
    spin_sim = [s for s in by_name["spin_chain.simulate"] if s.op_kind == "simulate.spin"]
    chain_sim = by_name["markov.simulate_chain"]
    register_sim = by_name["qubit_chain.simulate"]
    coin = by_name["spin_chain.coin_toss"]
    blocks = by_name[RNG_BLOCK]
    block_uniforms = sum(s.attrs.get("count", 0) for s in blocks)
    ops = [s for s in spans if s.name == "op"]
    spin_ops = [s for s in ops if s.op_kind == "simulate.spin"]
    spin_op_ns = sum(s.dur_ns for s in spin_ops)
    builder_s = total_s("wigner.small_d") + total_s("qubit_chain.transition_matrix")

    out = {
        "wigner.small_d.float_s": sum(s.dur_ns for s in small_d if s.attrs.get("twice_s", 0) <= FLOAT_CORE_MAX_TWICE_S) / 1e9,
        "wigner.small_d.exact_s": sum(s.dur_ns for s in small_d if s.attrs.get("twice_s", 0) > FLOAT_CORE_MAX_TWICE_S) / 1e9,
        "wigner.small_d.calls": len(small_d),
        "wigner.orthogonality_defect": max(defects, default=0.0),
        "spin_chain.transition_matrix.self_s": total_s("spin_chain.transition_matrix", use_self=True),
        "spin_chain.records": sum(s.attrs.get("records", 0) for s in by_name["spin_chain.simulate"]),
        "spin_chain.coin_toss.ns_per_bit": (
            sum(s.dur_ns for s in coin) / sum(s.attrs.get("bits", 0) for s in coin) if coin else 0.0),
        "spin_chain.simulate.share_of_cmd": (
            sum(s.dur_ns for s in spin_sim) / spin_op_ns if spin_op_ns else 0.0),
        "markov.stationary_s": total_s("markov.stationary"),
        "markov.stationary.iterations": sum(s.attrs.get("iterations", 0) for s in by_name["markov.stationary"]),
        "qubit_chain.transition_matrix_s": total_s("qubit_chain.transition_matrix"),
        "qubit_chain.q_formula.calls": aggregates["qubit_chain.q_formula"][0],
        "qubit_chain.brute_force_s": aggregates["qubit_chain.brute_force"][1] / 1e9,
        "rng.uniforms": block_uniforms + aggregates[RNG_SCALAR][0],
        "rng.random_block.ns_per_uniform": (
            sum(s.dur_ns for s in blocks) / block_uniforms if block_uniforms else 0.0),
        "stats.transition_counts_s": total_s("stats.transition_counts"),
        "stats.empirical_tv_s": total_s("stats.empirical_matrix") + total_s("stats.per_row_tv"),
        "stats.chi_square_s": total_s("stats.chi_square"),
        "serialization.write_trajectory_s": total_s("serialization.write_trajectory"),
        "serialization.trajectory_from_text_s": total_s("serialization.trajectory_from_text"),
        "serialization.matrix_json_s": total_s("serialization.matrix_to_json") + total_s("serialization.matrix_from_json"),
        "serialization.matrix_text_s": total_s("serialization.matrix_to_csv") + total_s("serialization.matrix_to_table"),
        "cli.self_s.coin-toss": sum(s.self_ns for s in ops if s.op_kind == "coin-toss") / 1e9,
        "cli.self_s.simulate": sum(s.self_ns for s in ops if s.op_kind.startswith("simulate.")) / 1e9,
        "builders.share_of_wall": builder_s / pass_wall_s if pass_wall_s > 0 else 0.0,
    }
    for dim in SPIN_DIMS:
        out[f"spin_chain.simulate.ns_per_step.d{dim}"] = _per_unit_ns(
            [s for s in spin_sim if s.attrs.get("dim") == dim], "steps")
    for dim in CHAIN_DIMS:
        out[f"markov.simulate_chain.ns_per_step.d{dim}"] = _per_unit_ns(
            [s for s in chain_sim if s.attrs.get("dim") == dim], "steps")
    for n in REGISTER_SIZES:
        out[f"qubit_chain.simulate.ns_per_step.n{n}"] = _per_unit_ns(
            [s for s in register_sim if s.attrs.get("n") == n], "steps")
    return out
