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

# characters of trajectory body parsed at a time; each slice is cut at a newline
_SLICE = _BLOCK // 4
# most slots in the table that maps a line's key to a label
_SLOTS_MAX = 1 << 16
# odd multiplier that mixes a line's words into its key
_MIX = np.uint64(0x9E3779B97F4A7C15)
# _MASKS[r] keeps the low r bytes of a word, all eight at r = 8
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
# the later words of a slice whose lines all fit in one word
_NO_WORDS = np.empty(0, dtype=np.uint64)


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


def _lines(data: bytes, cap: int) -> tuple:
    """The lines of data, split at b"\\n", each with its start, length, words and key.

    Word k of a line is its bytes 8k to 8k + 8 read as one little-endian
    uint64, zeroed past the line's end.  A line has ceil(length / 8)
    words, at least one and at most cap.  Every line's first word is in
    `head`; the later words of lines over 8 bytes come flat, rest[i]
    being word k[i] of line at[i], so no array grows with the longest
    line.  A line's key sums (word ^ remaining length) * _MIX over its
    words, where word k's remaining length is the length less 8k.  When
    no line is over 8 bytes, as in every spin and register file, the
    later words are not looked for.
    """
    raw = np.frombuffer(data + bytes(8), np.uint8)
    ends = np.flatnonzero(raw[: len(data)] == 10)
    starts = np.concatenate(([0], ends + 1))
    lengths = np.append(ends, len(data)) - starts
    # the uint64 at every byte offset, through a stride of one byte, so each
    # word is one gather (an index, as take would copy the whole view first)
    view = np.ndarray(len(data) + 1, "<u8", raw, 0, (1,))
    head = view[starts] & _MASKS.take(np.minimum(lengths, 8))
    keys = (head ^ lengths.astype(np.uint64)) * _MIX
    long = np.flatnonzero(lengths > 8)
    if not long.size:
        return starts, lengths, head, keys, long, long, _NO_WORDS
    more = np.minimum((lengths[long] - 1) >> 3, cap - 1)
    at = np.repeat(long, more)
    k = np.arange(1, at.size + 1) - np.repeat(np.cumsum(more) - more, more)
    remaining = lengths[at] - 8 * k
    rest = view[starts[at] + 8 * k] & _MASKS.take(np.minimum(remaining, 8))
    np.add.at(keys, at, (rest ^ remaining.astype(np.uint64)) * _MIX)
    return starts, lengths, head, keys, at, k, rest


def _matcher(labels: tuple) -> tuple:
    """What _codes needs of the labels: the slot table, its shift, their lengths and words, and the word cap.

    The table has the fewest slots, a power of two and at least 16 a
    label, at which no two label keys share a slot, but no more than
    _SLOTS_MAX.  A slot holds the one label whose key's top bits name
    it.  An empty slot, or one that labels still share at the cap, holds
    len(labels), whose length of -1 no line has.  Label i's first word
    is head[i] and its word k > 0 is rest[offset[i] + k].
    """
    data = "\n".join(labels).encode("utf-8", "surrogatepass")
    _, lengths, head, keys, at, _, rest = _lines(data, len(data) // 8 + 1)
    top = _SLOTS_MAX.bit_length() - 1
    for bits in range(min((16 * len(labels) - 1).bit_length(), top), top + 1):
        slots = (keys >> (64 - bits)).astype(np.intp)
        if np.bincount(slots).max() == 1:
            break
    alone = np.bincount(slots)[slots] == 1
    table = np.full(1 << bits, len(labels), dtype=_state_dtype(len(labels) + 1))
    table[slots[alone]] = np.flatnonzero(alone)
    # label i's word 1 is the first entry of rest whose line is i or later
    offset = np.searchsorted(at, np.arange(len(labels) + 1)) - 1
    cap = (int(lengths.max()) + 7) // 8 or 1
    return table, 64 - bits, np.append(lengths, -1), np.append(head, np.uint64(0)), offset, rest, cap


def _codes(data: bytes, matcher: tuple, index: dict, line: int) -> np.ndarray:
    """The label index of each line of data, whose first line is file line `line`.

    A line's key picks a candidate label from the slot table, and the
    candidate stands only if its length and every word equal the line's.
    Any other line is decoded and looked up in index, so the result is
    exact for every label set.  The first line in neither raises
    FormatError.
    """
    table, shift, label_lengths, label_head, label_offset, label_rest, cap = matcher
    # a line longer than every label keeps only the words a label can have
    starts, lengths, head, keys, at, k, rest = _lines(data, cap)
    codes = table.take(keys >> shift)
    confirmed = (label_lengths.take(codes) == lengths) & (label_head.take(codes) == head)
    if at.size:
        expected = label_rest.take(label_offset.take(codes[at]) + k, mode="clip")
        confirmed[at[rest != expected]] = False
    for i in np.flatnonzero(~confirmed).tolist():
        start = starts[i]
        label = data[start : start + lengths[i]].decode("utf-8", "surrogatepass")
        code = index.get(label)
        if code is None:
            raise FormatError(f"unknown outcome label {label!r}", line=line + i)
        codes[i] = code
    return codes


def trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    """Parse a trajectory file; FormatError carries the offending line number.

    The body is read in slices of about _SLICE characters, each cut at a
    newline and encoded to UTF-8, so the parse holds one slice's arrays
    at a time besides the text and the states.  Each slice is matched
    with numpy (see _codes): every line gets one integer key from its
    length and its 8-byte words, the key's top bits pick a candidate
    label from a small slot table, and the candidate stands only if the
    line's length and every word equal the label's.  A line that no
    label confirms, an unknown label or one whose slot other labels
    share, is decoded on its own and looked up in a dict, so the result
    is exact for every label set and the first unknown label is
    reported at its line.
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
    matcher = _matcher(labels)
    states = np.empty(steps + 1, dtype=_state_dtype(len(labels)))
    done = 0
    # body..end holds exactly steps + 1 lines, so the slices fill states
    while done < states.size:
        cut = text.find("\n", body + _SLICE, end)
        cut = end if cut < 0 else cut
        codes = _codes(text[body:cut].encode("utf-8", "surrogatepass"), matcher, index, done + 2)
        states[done : done + codes.size] = codes
        done += codes.size
        body = cut + 1
    trajectory = Trajectory(labels=labels, states=states, seed=seed)
    return trajectory, header
