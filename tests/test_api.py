"""The package's public names: what `from qmarkov import *` gives, and the README example that uses them."""

import dataclasses
from pathlib import Path

import qmarkov

# names and members that nothing in the package used, since deleted
REMOVED = (
    "check_magnetic_number",
    "evolve",
    "validate_distribution",
    "total_variation",
    "trajectory_to_text",
    "QuantumState",
    "initial_distribution",
    "InvalidStateError",
    "EulerAngles",
    "BigDMatrix",
)
REMOVED_MEMBERS = (
    (qmarkov.RngState, ("spawn", "stream", "raw_block", "fallback_block")),
    (qmarkov.HalfInt, ("from_int", "is_integer", "__add__", "__sub__", "__lt__", "__neg__", "as_float")),
    (qmarkov.StochasticMatrix, ("row_distribution",)),
    (qmarkov.Trajectory, ("outcomes",)),
    (qmarkov.SmallDMatrix, ("labels", "dim")),
    (qmarkov.TransitionCounts, ("total", "row_visits")),
    (qmarkov.SpinChainSpec, ("alpha", "gamma", "angles")),
)
# dataclass fields without a default live in dataclasses.fields, not in
# vars(owner); Trajectory.steps stays as a property computed from states
REMOVED_FIELDS = (
    (qmarkov.SmallDMatrix, ("s", "beta")),
    (qmarkov.Trajectory, ("steps",)),
    (qmarkov.ChiSquareResult, ("cells", "pooled")),
)


def test_public_api():
    namespace = {}
    exec("from qmarkov import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(qmarkov.__all__))
    assert len(qmarkov.__all__) == len(namespace)  # no name listed twice
    for name in qmarkov.__all__:
        assert getattr(qmarkov, name) is namespace[name]
    for name in REMOVED:
        assert not hasattr(qmarkov, name)
    for owner, members in REMOVED_MEMBERS:
        for member in members:
            assert member not in vars(owner), f"{owner.__name__}.{member}"
    for owner, members in REMOVED_FIELDS:
        fields = {field.name for field in dataclasses.fields(owner)}
        for member in members:
            assert member not in fields, f"{owner.__name__}.{member}"
    # the line number lives only in the message
    error = qmarkov.FormatError("bad header", line=1)
    assert str(error) == "bad header (line 1)"
    assert not hasattr(error, "line")


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library)", "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    # records[1] reads the n axis, and there is one record per step plus the start
    assert "step=1, kind='n'" in last
    assert last.endswith(" 10001")
