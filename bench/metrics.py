"""The benchmark's metric catalogue: name -> (unit, better, bound or None).

END_TO_END are printed with --trace 0 and are the gated metrics: each
exists on every workload and is never 0.  REPORTED are the remaining
end-to-end figures; they exist only on some workloads, so they are
printed in the table of an untraced run and carried as per-layer
metrics of a traced run, where a workload without them reads 0.
PER_LAYER is everything a traced run prints.
"""

END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

OP_KINDS = (
    "coin-toss",
    "simulate.spin",
    "simulate.qubit",
    "simulate.matrix-file",
    "reload",
    "spin-matrix",
    "qubit-matrix",
    "stationary",
    "verify",
)

REPORTED = {
    "setup_raw_s": ("s", "lower", None),
    "wall_raw_s": ("s", "lower", None),
    "calibration_s": ("s", "lower", None),
    "steps_per_s": ("1/s", "higher", None),
    "ops_failed": ("ratio", "lower", None),
    "max_abs_err": ("abs", "lower", None),
    **{f"cmd.{kind}_s": ("s", "lower", None) for kind in OP_KINDS},
}

_LAYERS = {
    "wigner.small_d.float_s": "s",
    "wigner.small_d.exact_s": "s",
    "wigner.small_d.calls": "count",
    "wigner.orthogonality_defect": "abs",
    "spin_chain.transition_matrix.self_s": "s",
    "spin_chain.simulate.ns_per_step.d2": "ns",
    "spin_chain.simulate.ns_per_step.d3": "ns",
    "spin_chain.simulate.ns_per_step.d51": "ns",
    "spin_chain.simulate.alloc_b_per_step": "B",
    "spin_chain.records": "count",
    "spin_chain.coin_toss.ns_per_bit": "ns",
    "markov.simulate_chain.ns_per_step.d9": "ns",
    "markov.simulate_chain.ns_per_step.d51": "ns",
    "markov.stationary_s": "s",
    "markov.stationary.iterations": "count",
    "qubit_chain.transition_matrix_s": "s",
    "qubit_chain.q_formula.calls": "count",
    "qubit_chain.brute_force_s": "s",
    "qubit_chain.simulate.ns_per_step.n8": "ns",
    "qubit_chain.simulate.ns_per_step.n64": "ns",
    "rng.uniforms": "count",
    "rng.random_block.ns_per_uniform": "ns",
    "stats.transition_counts_s": "s",
    "stats.empirical_tv_s": "s",
    "stats.chi_square_s": "s",
    "serialization.write_trajectory_s": "s",
    "serialization.trajectory_bytes": "B",
    "serialization.trajectory_from_text_s": "s",
    "serialization.trajectory_from_text.peak_mb": "MB",
    "serialization.matrix_json_s": "s",
    "serialization.matrix_text_s": "s",
    "cli.self_s.coin-toss": "s",
    "cli.self_s.simulate": "s",
    "cli.stdout_bytes": "B",
    "spin_chain.simulate.share_of_cmd": "ratio",
    "builders.share_of_wall": "ratio",
    "trace.overhead_s": "s",
}

PER_LAYER = {
    **{name: (unit, "lower", None) for name, unit in _LAYERS.items()},
    **REPORTED,
}
