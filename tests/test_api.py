"""The package's public names: what `from qmarkov import *` gives."""

import qmarkov

# names and members that nothing in the package used, since deleted
REMOVED = ("check_magnetic_number", "evolve", "validate_distribution", "total_variation", "trajectory_to_text")
REMOVED_MEMBERS = (
    (qmarkov.RngState, ("spawn", "stream")),
    (qmarkov.HalfInt, ("from_int", "is_integer", "__add__", "__sub__", "__lt__")),
    (qmarkov.StochasticMatrix, ("row_distribution",)),
    (qmarkov.Trajectory, ("outcomes",)),
    (qmarkov.SmallDMatrix, ("labels", "dim")),
    (qmarkov.BigDMatrix, ("labels", "dim")),
    (qmarkov.TransitionCounts, ("total",)),
    (qmarkov.SpinChainSpec, ("alpha", "gamma", "angles")),
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
