import io
import json
import tracemalloc

import numpy as np
import pytest

from qmarkov import (
    FORMAT_VERSION,
    Distribution,
    FormatError,
    HalfInt,
    InvalidArgumentError,
    RngState,
    SpinChainSpec,
    StochasticMatrix,
    Trajectory,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_table,
    serialization,
    simulate_chain,
    simulate_measurements,
    spin_transition_matrix,
    trajectory_from_text,
    write_trajectory,
)

from oracles import oracle_trajectory_from_text


def spin_matrix():
    return spin_transition_matrix(SpinChainSpec(s=HalfInt(3), beta=1.234))


def test_matrix_json_round_trip_is_exact():
    m = spin_matrix()
    text = matrix_to_json(m, kind="spin", params={"s": "3/2", "beta": 1.234})
    parsed = matrix_from_json(text)
    assert np.array_equal(parsed.rows, m.rows)  # repr round-trips doubles
    assert parsed.labels == ("3/2", "1/2", "-1/2", "-3/2")


def test_matrix_json_is_one_deterministic_line():
    m = spin_matrix()
    a = matrix_to_json(m)
    b = matrix_to_json(m)
    assert a == b
    assert a.endswith("\n")
    assert "\n" not in a[:-1]
    payload = json.loads(a)
    assert payload["kind"] == "generic"
    assert payload["params"] == {}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("labels"),
        lambda p: p.pop("rows"),
        lambda p: p.pop("kind"),
        lambda p: p.update(version=99),
        lambda p: p.update(labels=[1, 2]),
        lambda p: p.update(rows=[["a", "b"], ["c", "d"]]),
        lambda p: p.update(rows=[[True, False], [False, True]]),
        lambda p: p.update(labels=["a", "b"], rows=[[1.0], [0.5, 0.5]]),  # ragged
        lambda p: p.update(params=[1]),
        # a trajectory file gives each label one line
        lambda p: p.update(labels=["3/2", "1/2\n", "-1/2", "-3/2"]),
        lambda p: p.update(labels=["3/2", "1/2", "-1\r/2", "-3/2"]),
    ],
)
def test_matrix_json_structural_errors(mutate):
    payload = json.loads(matrix_to_json(spin_matrix()))
    mutate(payload)
    with pytest.raises(FormatError):
        matrix_from_json(json.dumps(payload))


def test_matrix_json_rejects_garbage():
    with pytest.raises(FormatError):
        matrix_from_json("{not json")
    with pytest.raises(FormatError):
        matrix_from_json("[1, 2, 3]")


# texts past the parser's limits: nesting deeper than the recursion
# limit, an integer past Python's digit limit, an integer past a double
TOO_DEEP = "[" * 10**5 + "]" * 10**5
TOO_MANY_DIGITS = "1" * 5000
TOO_LARGE = "1" + "0" * 400
TWO_STATES = '{"kind": "generic", "labels": ["a", "b"], "rows": [[0.5, 0.5], [0.5, 0.5]], "params": {}, "version": 1}'


@pytest.mark.parametrize(
    "text",
    [TOO_DEEP, TWO_STATES.replace("0.5", TOO_MANY_DIGITS, 1), TWO_STATES.replace("0.5", TOO_LARGE, 1)],
    ids=["nesting", "digits", "overflow"],
)
def test_matrix_json_past_the_parser_limits(text):
    with pytest.raises(FormatError):
        matrix_from_json(text)


def test_trajectory_header_past_the_parser_limits():
    t = Trajectory(labels=("a", "b"), states=np.array([0, 1]), seed=7)
    header, *body = trajectory_text(t).splitlines()
    assert '"seed": 7' in header
    # seeds past 64 bits are refused, as RngState refuses them
    seeds = (TOO_MANY_DIGITS, 2**64, 2**200)
    for bad in (TOO_DEEP, *(header.replace('"seed": 7', f'"seed": {seed}') for seed in seeds)):
        with pytest.raises(FormatError) as info:
            trajectory_from_text("\n".join([bad, *body]) + "\n")
        assert str(info.value).endswith(" (line 1)")
    top = header.replace('"seed": 7', f'"seed": {2**64 - 1}')
    assert trajectory_from_text("\n".join([top, *body]) + "\n")[0].seed == 2**64 - 1


def test_matrix_json_rejects_non_stochastic_rows():
    from qmarkov import InvalidDistributionError

    payload = json.loads(matrix_to_json(spin_matrix()))
    payload["rows"][0][0] += 0.5
    with pytest.raises(InvalidDistributionError):
        matrix_from_json(json.dumps(payload))


def test_matrix_csv_parses_back():
    m = spin_matrix()
    lines = matrix_to_csv(m).splitlines()
    assert lines[0] == "3/2,1/2,-1/2,-3/2"
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, m.rows)


def test_matrix_table_is_aligned_text():
    text = matrix_to_table(spin_matrix())
    lines = text.splitlines()
    assert len(lines) == 5
    assert "3/2" in lines[0]
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def trajectory_text(t, config=None):
    buffer = io.StringIO()
    write_trajectory(t, buffer, config=config)
    return buffer.getvalue()


def make_trajectory(steps=25, seed=4):
    spec = SpinChainSpec(s=HalfInt(2), beta=1.0)
    start = Distribution(spec.labels, np.full(3, 1.0 / 3.0))
    trajectory, _ = simulate_measurements(spec, start, steps, RngState(seed))
    return trajectory


def test_trajectory_round_trip():
    t = make_trajectory()
    text = trajectory_text(t, config={"note": 1})
    parsed, header = trajectory_from_text(text)
    assert np.array_equal(parsed.states, t.states)
    assert parsed.labels == ("1", "0", "-1")
    assert parsed.seed == t.seed
    assert parsed.steps == t.steps
    assert header["rng"] == "pcg64"
    assert header["config"] == {"note": 1}
    assert trajectory_text(t, config={"note": 1}) == text
    # 300 labels take two bytes per state; the top labels must come back unwrapped
    rows = np.random.default_rng(3).random((300, 300))
    P = StochasticMatrix(labels=tuple(f"x{i}" for i in range(300)), rows=rows / rows.sum(axis=1, keepdims=True))
    wide = simulate_chain(P, Distribution(P.labels, np.full(300, 1 / 300)), 3000, RngState(8))
    parsed, _ = trajectory_from_text(trajectory_text(wide))
    assert parsed.states.dtype == np.uint16
    assert parsed.states.max() > 255
    assert np.array_equal(parsed.states, wide.states)


def test_trajectory_file_layout():
    t = Trajectory(labels=("1/2", "-1/2"), states=np.array([0, 1, 1]), seed=7)
    text = trajectory_text(t)
    lines = text.splitlines()
    assert len(lines) == 4
    header = json.loads(lines[0])
    assert header == {
        "labels": ["1/2", "-1/2"],
        "seed": 7,
        "steps": 2,
        "rng": "pcg64",
        "version": FORMAT_VERSION,
    }
    assert lines[1:] == ["1/2", "-1/2", "-1/2"]


def test_trajectory_header_errors_point_at_line_one():
    for bad in ["", "not json", '["list"]']:
        with pytest.raises(FormatError) as info:
            trajectory_from_text(bad + "\n1/2\n")
        assert str(info.value).endswith(" (line 1)")


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", -1), ("seed", True), ("steps", -2), ("labels", []), ("rng", 3), ("version", 0),
        ("steps", True),
        ("labels", ["a", "a"]),  # the body's "b" would otherwise fail at line 3
    ],
)
def test_trajectory_header_field_errors(field, value):
    t = Trajectory(labels=("a", "b"), states=np.array([0, 1]), seed=1)
    lines = trajectory_text(t).splitlines()
    header = json.loads(lines[0])
    header[field] = value
    with pytest.raises(FormatError) as info:
        trajectory_from_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert str(info.value).endswith(" (line 1)")


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb"])
def test_a_label_with_a_line_break_is_refused_on_both_sides(label):
    # written, such a label would break the one-label-per-line body
    t = Trajectory(labels=(label, "c"), states=np.array([0, 1]), seed=3)
    buffer = io.StringIO()
    with pytest.raises(InvalidArgumentError, match="line break"):
        write_trajectory(t, buffer)
    assert buffer.getvalue() == ""
    header = json.dumps({"labels": [label, "c"], "seed": 3, "steps": 1, "rng": "pcg64", "version": FORMAT_VERSION})
    with pytest.raises(FormatError, match="line break") as info:
        trajectory_from_text(f"{header}\n{label}\nc\n")
    assert str(info.value).endswith(" (line 1)")


@pytest.mark.parametrize("labels,match", [((HalfInt(2), 1), "distinct"), (("a\nb", "c"), "line break")])
def test_writers_refuse_labels_that_their_readers_refuse(labels, match):
    # HalfInt(2) and 1 are distinct labels that both render as "1"
    m = StochasticMatrix(labels=labels, rows=np.eye(2))
    with pytest.raises(InvalidArgumentError, match=match):
        matrix_to_json(m)
    buffer = io.StringIO()
    with pytest.raises(InvalidArgumentError, match=match):
        write_trajectory(Trajectory(labels=labels, states=np.array([0, 1]), seed=1), buffer)
    assert buffer.getvalue() == ""


def test_trajectory_unknown_label_reports_its_line():
    t = Trajectory(labels=("a", "b"), states=np.array([0, 1, 0]), seed=1)
    lines = trajectory_text(t).splitlines()
    lines[2] = "zzz"  # second outcome, file line 3
    with pytest.raises(FormatError) as info:
        trajectory_from_text("\n".join(lines) + "\n")
    assert str(info.value).endswith(" (line 3)")


def test_trajectory_length_mismatch_is_an_error():
    t = Trajectory(labels=("a", "b"), states=np.array([0, 1, 0]), seed=1)
    lines = trajectory_text(t).splitlines()
    with pytest.raises(FormatError):
        trajectory_from_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        trajectory_from_text("\n".join(lines + ["a"]) + "\n")


def test_long_trajectory_round_trip():
    t = make_trajectory(steps=5000, seed=11)
    parsed, _ = trajectory_from_text(trajectory_text(t))
    assert np.array_equal(parsed.states, t.states)


def parse_outcome(parse, text):
    """Everything a parse gives back, or the FormatError's message, which ends with its line."""
    try:
        t, header = parse(text)
    except FormatError as exc:
        return ("error", str(exc))
    return ("ok", t.labels, t.seed, t.steps, t.states.tolist(), header)


def first_cut(text, block):
    """0-based body lines on each side of the parser's first slice cut."""
    body = text.find("\n") + 1
    cut = text.find("\n", body + block)
    assert cut > 0, "the text is too short to be cut"
    last = text.count("\n", body, cut)
    return last, last + 1


def parser_corpus(block):
    cases = {"empty": ""}
    for steps in (0, 1, 1000):
        text = trajectory_text(make_trajectory(steps=steps, seed=steps + 1), config={"steps": steps})
        cases[f"{steps} steps"] = text
        cases[f"{steps} steps, no final newline"] = text[:-1]
    # long enough for a cut at the default block as well
    text = trajectory_text(make_trajectory(steps=30_000, seed=2))
    header, *body = text.splitlines()
    join = lambda lines: "\n".join([header, *lines]) + "\n"  # noqa: E731
    for where in (0, len(body) - 1, *first_cut(text, block)):
        cases[f"unknown label at body line {where}"] = join(body[:where] + ["zz"] + body[where + 1 :])
    middle = len(body) // 2
    cases["blank line added in the middle"] = join(body[:middle] + [""] + body[middle:])
    cases["blank line in place of a label"] = join(body[:middle] + [""] + body[middle + 1 :])
    cases["two newlines at the end"] = text + "\n"
    cases["CRLF endings"] = text.replace("\n", "\r\n")
    cases["one line too few"] = join(body[:-1])
    cases["one line too many"] = join(body + [body[0]])
    cases["seed past 64 bits"] = text.replace('"seed": 2,', f'"seed": {2**64},', 1)
    cases["header only"] = header + "\n"
    cases["header only, no final newline"] = header
    return cases


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_trajectory_parser_matches_the_oracle(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(serialization, "_BLOCK", block)
    for name, text in parser_corpus(serialization._BLOCK).items():
        expected = parse_outcome(oracle_trajectory_from_text, text)
        assert parse_outcome(trajectory_from_text, text) == expected, name


def test_trajectory_parse_allocates_at_most_8_bytes_per_line():
    steps = 10**6
    states = np.random.default_rng(6).integers(0, 3, steps + 1)
    text = trajectory_text(Trajectory(labels=("1", "0", "-1"), states=states, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trajectory_from_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (steps + 1) <= 8.0
