"""File formats for matrices and trajectories.

JSON is the canonical machine format and round-trips at full double
precision; CSV and a plain-text table exist for spreadsheets and eyes.
All formats are deterministic: the same object always renders to the
same bytes, so outputs can be compared byte for byte.

A trajectory file is one JSON header line followed by one outcome label
per line, so no label may hold a line break, and labels are read back
as strings, so no two may render alike: matrix files, trajectory files
and every writer of them refuse both.  CSV quotes a label that is empty
or holds a comma or a quote.  Labels are exact strings ("1/2", "-3/2",
"0"), never floats.
"""

import json

import numpy as np

from .errors import FormatError, InvalidArgumentError, check_int
from .markov import _BLOCK, StochasticMatrix, Trajectory, _state_dtype
from .rng import _SEED_MAX, RNG_ALGORITHM

FORMAT_VERSION = 1


def _label_lines(labels, error=InvalidArgumentError) -> list:
    """The labels as strings; error if one holds a line break or two are the same string, as a file gives each its own line."""
    strings = [str(label) for label in labels]
    for label in strings:
        if "\n" in label or "\r" in label:
            raise error(f"label {label!r} contains a line break")
    if len(set(strings)) != len(strings):
        raise error(f"outcome labels must be distinct, got {tuple(strings)!r}")
    return strings


def matrix_to_json(m: StochasticMatrix, kind: str = "generic", params: dict | None = None) -> str:
    """Render a matrix as one JSON object with full float precision.

    Labels that matrix_from_json would refuse are refused here first.
    """
    payload = {
        "kind": kind,
        "labels": _label_lines(m.labels),
        "rows": m.rows.tolist(),
        "params": dict(params or {}),
        "version": FORMAT_VERSION,
    }
    return json.dumps(payload) + "\n"


def matrix_from_json(text: str) -> StochasticMatrix:
    """Parse a matrix rendered by matrix_to_json; labels become plain strings.

    kind, params and version are checked but not returned.  A label may
    not hold a line break.  Structural violations raise FormatError;
    probability violations surface from the matrix constructor.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a ValueError is a JSONDecodeError, with a line, or an integer
        # past Python's digit limit; a RecursionError is nesting too deep
        raise FormatError(f"invalid JSON: {exc}", line=getattr(exc, "lineno", None)) from None
    if not isinstance(payload, dict):
        raise FormatError("expected a JSON object at top level")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version!r}")
    labels = payload.get("labels")
    rows = payload.get("rows")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise FormatError("missing or non-string 'kind'")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("'labels' must be a list of strings")
    _label_lines(labels, FormatError)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in r)
        for r in rows
    ):
        raise FormatError("'rows' must be a list of numeric lists")
    if len({len(r) for r in rows}) > 1:
        raise FormatError("'rows' must all have the same length")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise FormatError("'params' must be an object")
    try:
        rows = np.array(rows, dtype=float)
    except OverflowError:
        raise FormatError("'rows' entries must fit in a double") from None
    return StochasticMatrix(labels=tuple(labels), rows=rows)


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: in quotes, each quote doubled, if it is empty or holds a comma or a quote."""
    if not text or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(m: StochasticMatrix) -> str:
    """Label header row, then one row of full-precision entries per line.

    A label that is empty or holds a comma or a quote is quoted as RFC
    4180 says, so csv.reader reads back one column per label.  A label
    with a line break, or two labels that render alike, are refused.
    Entries are float reprs, which never need quoting.
    """
    lines = [",".join(_csv_field(label) for label in _label_lines(m.labels))]
    for row in m.rows.tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def matrix_to_table(m: StochasticMatrix) -> str:
    """Aligned human-readable table; not meant to be parsed back.

    Labels are refused as matrix_to_csv refuses them.
    """
    labels = _label_lines(m.labels)
    width = max(max(len(x) for x in labels), 9)
    header = " " * (width + 2) + "  ".join(f"{x:>{width}}" for x in labels)
    lines = [header]
    for label, row in zip(labels, m.rows.tolist()):
        cells = "  ".join(f"{x:>{width}.6f}" for x in row)
        lines.append(f"{label:>{width}}  {cells}")
    return "\n".join(lines) + "\n"


def write_trajectory(t: Trajectory, stream, config: dict | None = None) -> None:
    """Write the header line and outcome labels to a text stream.

    A label that holds a line break, or two labels with the same string,
    are refused before anything is written.
    """
    labels = _label_lines(t.labels)
    header = {
        "labels": labels,
        "seed": t.seed,
        "steps": t.steps,
        "rng": RNG_ALGORITHM,
        "version": FORMAT_VERSION,
    }
    if config is not None:
        header["config"] = config
    stream.write(json.dumps(header))
    stream.write("\n")
    label_strings = np.array(labels, dtype=object)
    # one step kernel block per join keeps memory flat for long trajectories
    states = t.states
    for start in range(0, states.size, _BLOCK):
        stream.write("\n".join(label_strings.take(states[start : start + _BLOCK]).tolist()))
        stream.write("\n")


def trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    """Parse a trajectory file; FormatError carries the offending line number.

    The body is read in slices of about _BLOCK characters, each cut at a
    newline, so the parse holds one slice's lines at a time besides the
    text and the states.
    """
    if not text:
        raise FormatError("empty trajectory file", line=1)
    body = text.find("\n") + 1
    try:
        header = json.loads(text[: body - 1] if body else text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid header JSON: {exc}", line=1) from None
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object", line=1)
    labels = header.get("labels")
    seed = header.get("seed")
    steps = header.get("steps")
    rng_name = header.get("rng")
    if not isinstance(labels, list) or not labels or not all(isinstance(x, str) for x in labels):
        raise FormatError("header 'labels' must be a non-empty list of strings", line=1)
    try:
        labels = tuple(_label_lines(labels))
        if check_int("header 'seed'", seed, 0) > _SEED_MAX:
            raise InvalidArgumentError(f"header 'seed' must fit in 64 bits, got {seed}")
        check_int("header 'steps'", steps, 0)
    except InvalidArgumentError as exc:
        raise FormatError(str(exc), line=1) from None
    if not isinstance(rng_name, str):
        raise FormatError("header 'rng' must be a string", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header.get('version')!r}", line=1)
    # a final newline ends the last line rather than starting an empty one
    end = len(text) - text.endswith("\n")
    line_count = text.count("\n", 0, end) + 1
    if line_count - 1 != steps + 1:
        raise FormatError(
            f"expected {steps + 1} outcome lines for {steps} steps, found {line_count - 1}",
            line=line_count,
        )
    index = {label: i for i, label in enumerate(labels)}
    states = np.empty(steps + 1, dtype=_state_dtype(len(labels)))
    done = 0
    # body..end holds exactly steps + 1 lines, so the slices fill states
    while done < states.size:
        cut = text.find("\n", body + _BLOCK, end)
        cut = end if cut < 0 else cut
        words = text[body:cut].split("\n")
        codes = list(map(index.get, words))
        try:
            states[done : done + len(codes)] = codes
        except TypeError:
            bad = codes.index(None)
            raise FormatError(f"unknown outcome label {words[bad]!r}", line=done + bad + 2) from None
        done += len(codes)
        body = cut + 1
    trajectory = Trajectory(labels=labels, states=states, seed=seed)
    return trajectory, header
