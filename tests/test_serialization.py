import csv
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from qmarkov import (
    FORMAT_VERSION,
    Distribution,
    FormatError,
    HalfInt,
    InvalidArgumentError,
    QubitChainSpec,
    RngState,
    SpinChainSpec,
    StochasticMatrix,
    Trajectory,
    TransitionCounts,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_table,
    qubit_transition_matrix,
    serialization,
    simulate_chain,
    simulate_measurements,
    spin_transition_matrix,
    trajectory_from_text,
    write_trajectory,
)

from oracles import oracle_matrix_csv, oracle_matrix_json, oracle_matrix_table, oracle_trajectory_from_text


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


ROWS = "'rows' must be a list of numeric lists"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p.pop("labels"), "'labels' must be a list of strings"),
        (lambda p: p.pop("rows"), ROWS),
        (lambda p: p.pop("kind"), "missing or non-string 'kind'"),
        (lambda p: p.update(version=99), "unsupported format version 99"),
        (lambda p: p.update(labels=[1, 2]), "'labels' must be a list of strings"),
        (lambda p: p.update(rows=[["a", "b"], ["c", "d"]]), ROWS),
        (lambda p: p.update(rows=[[True, False], [False, True]]), ROWS),
        (lambda p: p.update(labels=["a", "b"], rows=[[1.0], [0.5, 0.5]]), "'rows' must all have the same length"),
        (lambda p: p.update(params=[1]), "'params' must be an object"),
        # a trajectory file gives each label one line
        (lambda p: p.update(labels=["3/2", "1/2\n", "-1/2", "-3/2"]), "label '1/2\\n' contains a line break"),
        (lambda p: p.update(labels=["3/2", "1/2", "-1\r/2", "-3/2"]), "label '-1\\r/2' contains a line break"),
        (lambda p: p.update(labels=["a", "b"], rows=[[0.5, None], [0.5, 0.5]]), ROWS),
        (lambda p: p.update(labels=["a", "b"], rows=[[0.5, [0.5]], [0.5, 0.5]]), ROWS),
        (lambda p: p.update(labels=["a", "b"], rows=[[0.5, {"p": 0.5}], [0.5, 0.5]]), ROWS),
        (lambda p: p.update(labels=["a", "b"], rows=[[0.5, 0.5], 0.5]), ROWS),
        (lambda p: p.update(labels=["a", "b"], rows={"a": [0.5, 0.5], "b": [0.5, 0.5]}), ROWS),
        # the lengths are checked by the float conversion, after params
        (lambda p: p.update(labels=["a", "b"], rows=[[1.0], [0.5, 0.5]], params=[1]), "'params' must be an object"),
    ],
)
def test_matrix_json_structural_errors(mutate, message):
    payload = json.loads(matrix_to_json(spin_matrix()))
    mutate(payload)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
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


@pytest.mark.parametrize("labels", [("a,b", 'say "c"', "d"), ("",), ("", "e")])
def test_matrix_csv_quotes_labels_that_are_empty_or_hold_a_comma_or_a_quote(labels):
    rows = np.full((len(labels), len(labels)), 1.0 / len(labels))
    m = StochasticMatrix(labels=labels, rows=rows)
    parsed = list(csv.reader(io.StringIO(matrix_to_csv(m))))
    assert parsed[0] == list(labels)
    assert np.array_equal(np.array(parsed[1:], dtype=float), m.rows)


def test_matrix_table_is_aligned_text():
    text = matrix_to_table(spin_matrix())
    lines = text.splitlines()
    assert len(lines) == 5
    assert "3/2" in lines[0]
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def _assert_writers_match_the_oracles(m, kind="generic", params=None):
    assert matrix_to_json(m, kind=kind, params=params) == oracle_matrix_json(m, kind=kind, params=params)
    assert matrix_to_csv(m) == oracle_matrix_csv(m)
    assert matrix_to_table(m) == oracle_matrix_table(m)


@pytest.mark.parametrize("beta", [0.3, 2.84])
def test_matrix_writers_match_the_per_cell_oracles_on_every_chain(beta):
    # a spin matrix, symmetric bit for bit, repeats about half its entries
    for twice_s in range(1, 51):
        spec = SpinChainSpec(s=HalfInt(twice_s), beta=beta)
        params = {"s": str(spec.s), "beta": beta}
        _assert_writers_match_the_oracles(spin_transition_matrix(spec), "spin", params)
    for n in range(1, 65):
        m = qubit_transition_matrix(QubitChainSpec(n_qubits=n, beta=beta))
        _assert_writers_match_the_oracles(m, "qubit", {"n": n, "beta": beta})


@pytest.mark.parametrize(
    "labels, rows",
    [
        (("a",), [[1.0]]),
        # 0.0 and -0.0 are equal values with their own texts
        (("a", "b", "c"), [[0.0, -0.0, 1.0], [-0.0, 1.0, 0.0], [0.25, 0.75, -0.0]]),
        # labels that JSON escapes and that CSV quotes
        (('"', "\\", "\u03b1", "a,b"), np.full((4, 4), 0.25)),
    ],
)
def test_matrix_writers_match_the_per_cell_oracles_at_the_edges(labels, rows):
    m = StochasticMatrix(labels=labels, rows=np.array(rows))
    _assert_writers_match_the_oracles(m, "generic", {"note": '"\u03b1"'})


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
    # written, such a label would break the one-label-per-line body, so
    # no trajectory holds one (see test_errors) and no file gives one
    with pytest.raises(InvalidArgumentError, match="line break"):
        Trajectory(labels=(label, "c"), states=np.array([0, 1]), seed=3)
    header = json.dumps({"labels": [label, "c"], "seed": 3, "steps": 1, "rng": "pcg64", "version": FORMAT_VERSION})
    with pytest.raises(FormatError, match="line break") as info:
        trajectory_from_text(f"{header}\n{label}\nc\n")
    assert str(info.value).endswith(" (line 1)")


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


# a dim whose dim**2 pairs pass the writer's table cap, so it writes one label at a time
PAST_THE_PAIR_CAP = math.isqrt(serialization._PAIRS_MAX) + 1


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 51, 65, PAST_THE_PAIR_CAP])
def test_written_trajectories_match_the_one_label_per_line_oracle(dim):
    # step counts of 0, 1 and 2, and lines on each side of the pair rule,
    # dim**2 * _PAIR_LINES, odd and even; at 65 states and past the cap
    # they span two blocks of states
    labels = tuple(f"{'½' * (i % 3)}{i - dim // 2}" for i in range(dim))
    rule = dim * dim * serialization._PAIR_LINES
    rng = np.random.default_rng(dim)
    for lines in (1, 2, 3, 4, rule - 1, rule, rule + 1, rule + 2):
        # every third state of a longer array, so the writer reads a strided view
        t = Trajectory(labels=labels, states=rng.integers(0, dim, 3 * lines)[::3], seed=dim)
        header, _, body = trajectory_text(t, config={"dim": dim}).partition("\n")
        assert json.loads(header)["steps"] == lines - 1
        # compared first, so a failure does not diff two long texts
        same = body == "".join(labels[s] + "\n" for s in t.states.tolist())
        assert same, (dim, lines)


def test_a_header_that_claims_more_lines_than_the_body_has_characters_allocates_nothing():
    steps = 10**15
    header = {"labels": ["a", "b"], "seed": 1, "steps": steps, "rng": "pcg64", "version": FORMAT_VERSION}
    text = f"{json.dumps(header)}\na\nb\na\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            trajectory_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"expected {steps + 1} outcome lines for {steps} steps, found 3 (line 4)"
    assert peak < 64 * 1024


def test_long_trajectory_round_trip():
    t = make_trajectory(steps=5000, seed=11)
    parsed, _ = trajectory_from_text(trajectory_text(t))
    assert np.array_equal(parsed.states, t.states)


def test_what_the_builders_accept_comes_back_and_the_rest_is_never_written():
    # HalfInt(2), 1 and "1" render alike, as do HalfInt(1) and "1/2", and
    # HalfInt(0) and 0; two entries hold a line break; picks may repeat
    pool = [HalfInt(t) for t in range(-3, 4)] + [0, 1, -2, 7]
    pool += ["", "1", "1/2", "a,b", 'say "c"', "\u03b1", "x\ny", "\r"]
    rng = np.random.default_rng(30)
    accepted = refused = 0
    for case in range(300):
        labels = tuple(pool[i] for i in rng.choice(len(pool), size=rng.integers(0, 6)))
        seed = (0, 1, 2**64 - 1)[case % 3]
        rows = rng.random((len(labels), len(labels)))
        try:
            m = StochasticMatrix(labels=labels, rows=rows / rows.sum(axis=1, keepdims=True))
        except InvalidArgumentError:
            refused += 1
            with pytest.raises(InvalidArgumentError):
                Trajectory(labels=labels, states=np.zeros(2, dtype=int), seed=seed)
            continue
        accepted += 1
        strings = tuple(str(label) for label in labels)
        back = matrix_from_json(matrix_to_json(m))
        assert back.labels == strings
        assert np.array_equal(back.rows.view(np.uint64), m.rows.view(np.uint64))
        t = Trajectory(labels=labels, states=rng.integers(0, len(labels), 40), seed=seed)
        parsed, _ = trajectory_from_text(trajectory_text(t))
        assert (parsed.labels, parsed.seed) == (strings, seed)
        assert np.array_equal(parsed.states, t.states)
    assert accepted > 50 and refused > 50
    # what no reader takes back is refused before there is anything to write
    for labels in [(), (HalfInt(2), 1)]:
        with pytest.raises(InvalidArgumentError, match="label"):
            StochasticMatrix(labels=labels, rows=np.eye(len(labels)))
    with pytest.raises(InvalidArgumentError, match="label"):
        TransitionCounts(labels=(), counts=np.zeros((0, 0), dtype=int))
    for seed in (-1, 2**64, True, 1.5, "7"):
        with pytest.raises(InvalidArgumentError, match="seed"):
            Trajectory(labels=("a",), states=np.array([0]), seed=seed)
    for kind in (5, None):
        with pytest.raises(InvalidArgumentError, match="kind must be a string"):
            matrix_to_json(StochasticMatrix(labels=("a",), rows=[[1.0]]), kind=kind)


@pytest.mark.parametrize("value", [{1, 2}, np.float32(1.0), float("nan"), float("inf")], ids=["set", "float32", "nan", "inf"])
def test_params_and_config_that_strict_json_cannot_hold_are_refused(value):
    # a set and a float32 have no JSON form, and json.dumps would write NaN
    # and Infinity, which strict JSON readers refuse; nothing is written
    m = StochasticMatrix(labels=("a",), rows=[[1.0]])
    with pytest.raises(InvalidArgumentError, match="params must hold only JSON values"):
        matrix_to_json(m, params={"x": [0, value]})
    stream = io.StringIO()
    t = Trajectory(labels=("a",), states=np.zeros(3, dtype=np.int64), seed=1)
    with pytest.raises(InvalidArgumentError, match="config must hold only JSON values"):
        write_trajectory(t, stream, config={"x": {"y": value}})
    assert stream.getvalue() == ""
    # a float64 is a float, and plain values still go through
    assert json.loads(matrix_to_json(m, params={"x": np.float64(0.5)}))["params"] == {"x": 0.5}
    write_trajectory(t, stream, config={"x": 0.5, "y": [None, True, "z"]})
    assert trajectory_from_text(stream.getvalue())[1]["config"] == {"x": 0.5, "y": [None, True, "z"]}


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
    # a wrong count is reported before an unknown label, in a slice before the last or in it
    for where in (0, len(body) - 2):
        wrong = body[:where] + ["zz"] + body[where + 1 :]
        cases[f"unknown label at body line {where}, one line too few"] = join(wrong[:-1])
        cases[f"unknown label at body line {where}, one line too many"] = join(wrong + [body[0]])
    # steps at most the body's characters are parsed until the lines run
    # out, and more are refused before the parse
    chars = len(text) - text.find("\n") - 2
    for claimed in (chars - 1, chars, chars + 1):
        cases[f"steps claimed at {claimed - chars} from the body's characters"] = text.replace(
            '"steps": 30000,', f'"steps": {claimed},', 1
        )
    cases["seed past 64 bits"] = text.replace('"seed": 2,', f'"seed": {2**64},', 1)
    cases["header only"] = header + "\n"
    cases["header only, no final newline"] = header
    cases["a body line longer than every label"] = join(body[:middle] + ["-1" * 20] + body[middle + 1 :])
    for name, labels in MATCHER_LABEL_SETS.items():
        states = np.random.default_rng(len(labels)).integers(0, len(labels), 3000)
        text = trajectory_text(Trajectory(labels=labels, states=states, seed=1))
        cases[name] = text
        # the longest label with its last character moved on by one
        longest = max(labels, key=len)
        near = longest[:-1] + chr(ord(longest[-1]) + 1)
        header, *body = text.splitlines()
        cases[f"{name}, with {near!r} in the middle"] = join(body[:middle] + [near] + body[middle + 1 :])
    return cases


# label sets that the parser's word keys and slot table could confuse
MATCHER_LABEL_SETS = {
    "the empty label": ("", "a", "bb"),
    "labels of 8, 9, 16 and 17 bytes": ("a" * 8, "a" * 9, "b" * 16, "b" * 17),
    "two labels that share their first 8 bytes": ("prefix--one", "prefix--two", "prefix--"),
    "multi-byte UTF-8 labels": ("α", "½", "-½"),
    "a and a NUL after it": ("a", "a\x00"),
    "a lone surrogate": ("\ud800", "x", "\ud800y"),
}


# one slot sends every line of a file with two or more labels to the dict
@pytest.mark.parametrize(
    "patch", [{}, {"_SLICE": 7}, {"_SLOTS_MAX": 1}], ids=["default-block", "block-7", "one-slot"]
)
def test_trajectory_parser_matches_the_oracle(patch, monkeypatch):
    for name, value in patch.items():
        monkeypatch.setattr(serialization, name, value)
    for name, text in parser_corpus(serialization._SLICE).items():
        expected = parse_outcome(oracle_trajectory_from_text, text)
        assert parse_outcome(trajectory_from_text, text) == expected, name


def test_a_slot_holds_a_label_only_when_no_other_label_shares_it(monkeypatch):
    monkeypatch.setattr(serialization, "_SLOTS_MAX", 1)
    for labels in MATCHER_LABEL_SETS.values():
        assert serialization._matcher(labels)[0].tolist() == [len(labels)]
        assert serialization._matcher(labels[:1])[0].tolist() == [0]


def near_misses(label):
    """Strings close to label: cut short, run on, and with each character in turn moved on by one."""
    changed = [label[:i] + chr(ord(label[i]) + 1) + label[i + 1 :] for i in range(len(label))]
    return [label[:-1], label + "a", label + "\x00", *changed]


def test_one_label_in_one_slot_leaves_near_misses_to_the_confirmation(monkeypatch):
    # the one slot holds the one label, so every line is its candidate
    monkeypatch.setattr(serialization, "_SLOTS_MAX", 1)
    for label in {label for labels in MATCHER_LABEL_SETS.values() for label in labels}:
        for near in near_misses(label):
            text = trajectory_text(Trajectory(labels=(label,), states=np.zeros(4, dtype=int), seed=1))
            header, *body = text.splitlines()
            body[2] = near
            text = "\n".join([header, *body]) + "\n"
            expected = parse_outcome(oracle_trajectory_from_text, text)
            assert parse_outcome(trajectory_from_text, text) == expected, (label, near)


def test_the_matcher_confirms_every_label_without_the_dict():
    # _codes has no dict: a slice of labels of at most 8 bytes is confirmed
    # by each line's key, length and word alone, and a slice with one line
    # that is not a label is turned down whole
    short = [
        labels
        for labels in MATCHER_LABEL_SETS.values()
        if all(len(label.encode("utf-8", "surrogatepass")) <= 8 for label in labels)
    ]
    assert len(short) == 4
    for labels in short:
        matcher = serialization._matcher(labels)
        lines = list(labels) * 3
        data = "\n".join(lines).encode("utf-8", "surrogatepass")
        assert serialization._codes(data, matcher).tolist() == list(range(len(labels))) * 3
        for near in {near for label in labels for near in near_misses(label)} - set(labels):
            lines[len(labels)] = near
            data = "\n".join(lines).encode("utf-8", "surrogatepass")
            assert serialization._codes(data, matcher) is None, (labels, near)


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_a_slice_with_one_long_line_matches_its_later_words(block, monkeypatch):
    # a file with a label over 8 bytes is split into lines slice by slice;
    # here one line is that label, or close to it, among lines of one byte
    if block is not None:
        monkeypatch.setattr(serialization, "_SLICE", block)
    labels = ("0", "a-label-of-17-bytes")
    for line in (labels[1], labels[1][:-1] + "X", labels[1][:8], "0" * 9):
        text = trajectory_text(Trajectory(labels=labels, states=np.zeros(60, dtype=int), seed=1))
        header, *body = text.splitlines()
        body[30] = line
        text = "\n".join([header, *body]) + "\n"
        expected = parse_outcome(oracle_trajectory_from_text, text)
        assert parse_outcome(trajectory_from_text, text) == expected, line


def refuse(*args):
    raise AssertionError("this reader was not to be called")


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_the_labels_choose_the_reader_of_every_slice(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(serialization, "_SLICE", block)
    # labels of at most 8 bytes: every slice of a spin-25 file is matched
    # with numpy, none is split
    spec = SpinChainSpec(s=HalfInt(50), beta=1.0)
    spin, _ = simulate_measurements(spec, Distribution(spec.labels, np.eye(51)[0]), 10_000, RngState(3))
    text = trajectory_text(spin)
    with monkeypatch.context() as patched:
        patched.setattr(serialization, "_split_codes", refuse)
        assert np.array_equal(trajectory_from_text(text)[0].states, spin.states)
    # a 9-byte label: every slice is split, and no matcher is built
    monkeypatch.setattr(serialization, "_matcher", refuse)
    monkeypatch.setattr(serialization, "_codes", refuse)
    labels = ("a" * 9, "1", "0")
    states = np.random.default_rng(9).integers(0, 3, 3000)
    text = trajectory_text(Trajectory(labels=labels, states=states, seed=1))
    header, *body = text.splitlines()
    unknown = "\n".join([header, *body[:1500], "a" * 8, *body[1501:]]) + "\n"
    for case in (text, unknown):
        expected = parse_outcome(oracle_trajectory_from_text, case)
        assert parse_outcome(trajectory_from_text, case) == expected


def random_label(rng):
    """Up to 20 characters from a few that UTF-8 encodes in 1 to 4 bytes, NUL and a lone surrogate among them."""
    alphabet = ["a", "b", "0", "-", "/", "\x00", "é", "½", "α", "€", "😀", "\udc80"]
    return "".join(rng.choice(alphabet, size=rng.integers(0, 21)))


@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_trajectory_parser_matches_the_oracle_on_random_label_sets(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(serialization, "_SLICE", block)
    rng = np.random.default_rng(21)
    for case in range(200):
        labels = tuple(dict.fromkeys(random_label(rng) for _ in range(rng.integers(1, 7))))
        if rng.random() < 0.5:
            # labels that share a long prefix and differ in a late word
            labels = tuple(dict.fromkeys(labels[0] * 3 + label for label in labels))
        states = rng.integers(0, len(labels), rng.integers(1, 400))
        text = trajectory_text(Trajectory(labels=labels, states=states, seed=case))
        header, *body = text.splitlines()
        # one line corrupted: a label cut short, run on, or with one character changed, or a fresh string
        where = int(rng.integers(0, len(body)))
        line = body[where]
        body[where] = [
            line[:-1],
            line + random_label(rng)[:1],
            line[:-1] + random_label(rng)[:1],
            random_label(rng),
        ][rng.integers(0, 4)]
        text = "\n".join([header, *body]) + "\n"
        expected = parse_outcome(oracle_trajectory_from_text, text)
        assert parse_outcome(trajectory_from_text, text) == expected, (case, labels, body[where])


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


def test_trajectory_parse_memory_does_not_grow_with_the_longest_label():
    steps = 10**6
    states = np.random.default_rng(7).integers(1, 3, steps + 1)
    text = trajectory_text(Trajectory(labels=("x" * 4096, "1", "0"), states=states, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trajectory_from_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (steps + 1) <= 8.0
