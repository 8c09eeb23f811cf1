"""File formats for matrices and trajectories.

JSON is the canonical machine format and round-trips at full double
precision; CSV and a plain-text table exist for spreadsheets and eyes.
All formats are deterministic: the same object always renders to the
same bytes, so outputs can be compared byte for byte.  The matrix
writers render each distinct entry once (see _cell_texts).

A trajectory file is one JSON header line followed by one outcome label
per line, and labels are read back as strings; the readers hold labels
to the rule every labelled object is built under (markov._labels).  CSV
quotes a label that is empty or holds a comma or a quote.  Labels are
exact strings ("1/2", "-3/2", "0"), never floats.
"""

import itertools
import json

import numpy as np

from .errors import FormatError, InvalidArgumentError, check_int
from .markov import _BLOCK, StochasticMatrix, Trajectory, _labels, _state_dtype
from .rng import _SEED_MAX, RNG_ALGORITHM

FORMAT_VERSION = 1

# characters of trajectory body parsed at a time; each slice is cut at a newline
_SLICE = _BLOCK // 4
# the table of label pairs is built for at most _PAIRS_MAX entries, and
# for at most one entry per _PAIR_LINES trajectory lines: past either, a
# write ran slower with the table than without it
_PAIRS_MAX = 1 << 13
_PAIR_LINES = 16
# most slots in the table that maps a line's key to a label
_SLOTS_MAX = 1 << 16
# odd multiplier that mixes a line's length and first word into its key
_MIX = np.uint64(0x9E3779B97F4A7C15)
# _MASKS[r] keeps the low r bytes of a word, all eight at r = 8
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _cell_texts(rows: np.ndarray, fmt) -> list:
    """fmt of each entry of rows, as nested row lists, with fmt run once per distinct entry.

    Entries are keyed by their 64 bits, not their values, so 0.0 and
    -0.0 keep their own texts and the lists equal fmt of every entry in
    turn.  fmt is given each entry as a Python float.  A spin matrix,
    symmetric and persymmetric bit for bit, has about a quarter of its
    entries distinct, and a register matrix, centrosymmetric bit for
    bit, half of them.
    """
    bits, where = np.unique(rows.view(np.uint64), return_inverse=True)
    texts = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    # numpy releases differ in the shape of the inverse
    return texts.take(where.reshape(rows.shape)).tolist()


def _json(payload: dict, name: str) -> str:
    """json.dumps of payload; a value that strict JSON cannot hold, in the caller's `name` field, is refused.

    NaN and the infinities are refused with the rest, as json.dumps
    would write them as the non-standard NaN and Infinity.
    """
    try:
        return json.dumps(payload, allow_nan=False)
    except (TypeError, ValueError, RecursionError) as exc:
        raise InvalidArgumentError(f"{name} must hold only JSON values: {exc}") from None


def matrix_to_json(m: StochasticMatrix, kind: str = "generic", params: dict | None = None) -> str:
    """Render a matrix as one JSON object with full float precision.

    The bytes equal json.dumps of the whole payload: the rows are joined
    from the float reprs of _cell_texts and spliced between json.dumps
    of the fields before them and of the fields after them, so key
    order, separators and label escaping are json.dumps's own.  A kind
    that is not a string is refused, as matrix_from_json would refuse it,
    and so are params that strict JSON cannot hold (see _json).
    """
    if not isinstance(kind, str):
        raise InvalidArgumentError(f"kind must be a string, got {kind!r}")
    head = json.dumps({"kind": kind, "labels": list(map(str, m.labels))})
    tail = _json({"params": dict(params or {}), "version": FORMAT_VERSION}, "params")
    rows = ", ".join("[" + ", ".join(row) + "]" for row in _cell_texts(m.rows, repr))
    return f'{head[:-1]}, "rows": [{rows}], {tail[1:]}\n'


def matrix_from_json(text: str) -> StochasticMatrix:
    """Parse a matrix rendered by matrix_to_json; labels become plain strings.

    kind, params and version are checked but not returned.  Structural
    violations, and labels that break the label rule, raise FormatError;
    probability violations surface from the matrix constructor.  rows
    must be a list of lists of numbers, checked before params, and its
    rows of one length, which the float conversion checks after params.
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
    try:
        labels = _labels(labels)
    except InvalidArgumentError as exc:
        raise FormatError(str(exc)) from None
    # json.loads gives a number only as an exact int or float, and a
    # boolean as bool, so the entry types are checked as one set
    rows_ok = isinstance(rows, list) and all(type(r) is list for r in rows)
    if not rows_ok or not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise FormatError("'rows' must be a list of numeric lists")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise FormatError("'params' must be an object")
    try:
        rows = np.array(rows, dtype=float)
    except OverflowError:
        raise FormatError("'rows' entries must fit in a double") from None
    except ValueError:
        # numbers only, so the conversion refuses nothing but ragged rows
        raise FormatError("'rows' must all have the same length") from None
    return StochasticMatrix(labels=labels, rows=rows)


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: in quotes, each quote doubled, if it is empty or holds a comma or a quote."""
    if not text or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(m: StochasticMatrix) -> str:
    """Label header row, then one row of full-precision entries per line.

    A label that is empty or holds a comma or a quote is quoted as RFC
    4180 says, so csv.reader reads back one column per label.  Entries
    are float reprs from _cell_texts, which never need quoting.
    """
    lines = [",".join(_csv_field(str(label)) for label in m.labels)]
    lines += [",".join(row) for row in _cell_texts(m.rows, repr)]
    return "\n".join(lines) + "\n"


def matrix_to_table(m: StochasticMatrix) -> str:
    """Aligned human-readable table; not meant to be parsed back.

    Entries are fixed-point texts from _cell_texts, right-aligned to
    the longest label's width and at least 9.
    """
    labels = list(map(str, m.labels))
    width = max(max(len(x) for x in labels), 9)
    header = " " * (width + 2) + "  ".join(f"{x:>{width}}" for x in labels)
    lines = [header]
    cells = _cell_texts(m.rows, lambda x: format(x, f">{width}.6f"))
    for label, row in zip(labels, cells):
        lines.append(f"{label:>{width}}  {'  '.join(row)}")
    return "\n".join(lines) + "\n"


def write_trajectory(t: Trajectory, stream, config: dict | None = None) -> None:
    """Write the header line and outcome labels to a text stream.

    A config that strict JSON cannot hold is refused (see _json) before
    anything is written.  The body is written one _BLOCK of states at a
    time, joined from a table of texts that each end in a newline: of
    two labels, indexed by first state * dim + second, when that table
    repays itself, which is when its dim**2 entries are at most
    _PAIRS_MAX and at most one per _PAIR_LINES lines; else of one
    label.  A last state left without a partner is written alone.
    """
    labels = list(map(str, t.labels))
    header = {
        "labels": labels,
        "seed": t.seed,
        "steps": t.steps,
        "rng": RNG_ALGORITHM,
        "version": FORMAT_VERSION,
    }
    if config is not None:
        header["config"] = config
    stream.write(_json(header, "config"))
    stream.write("\n")
    states, dim = t.states, len(labels)
    texts = np.array([label + "\n" for label in labels], dtype=object)
    pairs = dim * dim <= min(_PAIRS_MAX, states.size // _PAIR_LINES)
    if pairs:
        texts = np.add.outer(texts, texts).ravel()
    # _BLOCK and whole are even, so every block holds whole pairs
    whole = states.size - states.size % 2 if pairs else states.size
    for start in range(0, whole, _BLOCK):
        codes = states[start : min(start + _BLOCK, whole)]
        if pairs:
            # formed in the narrowest dtype that holds dim * dim - 1, as the
            # states' own dtype would wrap
            codes = np.multiply(codes[0::2], dim, dtype=_state_dtype(dim * dim)) + codes[1::2]
        stream.write("".join(texts.take(codes).tolist()))
    if whole < states.size:
        stream.write(labels[states[-1]] + "\n")


def _lines(data: bytes) -> tuple:
    """Each line of data, split at b"\\n": its length, its first word and its key.

    A line's first word is its bytes 0 to 8 read as one little-endian
    uint64, zeroed past the line's end, and its key is (word ^ length) *
    _MIX.  A line of at most 8 bytes is its length and its first word.
    """
    raw = np.frombuffer(data + bytes(8), np.uint8)
    ends = np.flatnonzero(raw[: len(data)] == 10)
    starts = np.concatenate(([0], ends + 1))
    lengths = np.append(ends, len(data)) - starts
    # the uint64 at every byte offset, through a stride of one byte, so the
    # first words are one gather (an index, as take would copy the whole view first)
    view = np.ndarray(len(data) + 1, "<u8", raw, 0, (1,))
    head = view[starts] & _MASKS.take(np.minimum(lengths, 8))
    return lengths, head, (head ^ lengths.astype(np.uint64)) * _MIX


def _matcher(labels: tuple) -> tuple:
    """What _codes needs of labels of at most 8 UTF-8 bytes each: the slot table, its shift, their lengths and words.

    The table has the fewest slots, a power of two and at least 16 a
    label, at which no two label keys share a slot, but no more than
    _SLOTS_MAX.  A slot holds the one label whose key's top bits name
    it.  An empty slot, or one that labels still share at the cap, holds
    len(labels), whose length of -1 no line has.
    """
    lengths, head, keys = _lines("\n".join(labels).encode("utf-8", "surrogatepass"))
    top = _SLOTS_MAX.bit_length() - 1
    for bits in range(min((16 * len(labels) - 1).bit_length(), top), top + 1):
        slots = (keys >> (64 - bits)).astype(np.intp)
        if np.bincount(slots).max() == 1:
            break
    alone = np.bincount(slots)[slots] == 1
    table = np.full(1 << bits, len(labels), dtype=_state_dtype(len(labels) + 1))
    table[slots[alone]] = np.flatnonzero(alone)
    return table, 64 - bits, np.append(lengths, -1), np.append(head, np.uint64(0))


def _codes(data: bytes, matcher: tuple) -> np.ndarray | None:
    """The label index of each line of data, or None unless every line is confirmed.

    A line's key picks a candidate label from the slot table, and the
    candidate stands only if its length and its one word equal the
    line's, which for labels of at most 8 bytes is an exact match.
    """
    table, shift, label_lengths, label_head = matcher
    lengths, head, keys = _lines(data)
    codes = table.take(keys >> shift)
    if (label_lengths.take(codes) == lengths).all() and (label_head.take(codes) == head).all():
        return codes
    return None


def _split_codes(text: str, index: dict, line: int) -> np.ndarray:
    """The label index of each line of text, whose first line is file line `line`, looked up in index.

    The first line that is not a label raises FormatError.
    """
    lines = text.split("\n")
    try:
        return np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
    except KeyError:
        i, label = next((i, label) for i, label in enumerate(lines) if label not in index)
        raise FormatError(f"unknown outcome label {label!r}", line=line + i) from None


def _check_line_count(text: str, end: int, steps: int) -> None:
    """Refuse a file whose lines up to end, but its header line, are other than steps + 1."""
    found = text.count("\n", 0, end)
    if found != steps + 1:
        raise FormatError(f"expected {steps + 1} outcome lines for {steps} steps, found {found}", line=found + 1)


def trajectory_from_text(text: str) -> tuple[Trajectory, dict]:
    """Parse a trajectory file; FormatError carries the offending line number.

    The body is read in slices of about _SLICE characters, each cut at a
    newline, so the parse holds one slice's arrays at a time besides the
    text and the states.  When every label is at most 8 UTF-8 bytes, as
    in every spin and register file, each slice is encoded and matched
    with numpy (see _codes): a line's key, from its length and its one
    8-byte word, picks a candidate label from a small slot table, and
    the candidate stands only if the line's length and word equal the
    label's.  A slice with a line that no label confirms, and every
    slice of a file with a longer label, is split into lines and looked
    up in a dict (see _split_codes), which reports the first unknown
    label at its line.

    The lines are not counted before the parse.  A header whose steps
    exceed the body's characters is refused before states is allocated,
    as steps + 1 lines take at least steps newlines, and the lines are
    counted only once the parse finds too many or too few of them, or a
    line that is not a label: a wrong count is reported, at the file's
    last line, before any line's content.
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
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("header 'labels' must be a list of strings", line=1)
    try:
        labels = _labels(labels)
        check_int("header 'seed'", seed, 0, _SEED_MAX)
        check_int("header 'steps'", steps, 0)
    except InvalidArgumentError as exc:
        raise FormatError(str(exc), line=1) from None
    if not isinstance(rng_name, str):
        raise FormatError("header 'rng' must be a string", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {header.get('version')!r}", line=1)
    # a final newline ends the last line rather than starting an empty one
    end = len(text) - text.endswith("\n")
    # steps + 1 lines take at least steps newlines, so a header that claims
    # more lines than the body has characters is refused before states is
    # allocated; so is a file with no body at all
    if not body or steps > end - body:
        _check_line_count(text, end, steps)
    index = {label: i for i, label in enumerate(labels)}
    one_word = all(len(label.encode("utf-8", "surrogatepass")) <= 8 for label in labels)
    matcher = _matcher(labels) if one_word else None
    states = np.empty(steps + 1, dtype=_state_dtype(len(labels)))
    done = 0
    while True:
        cut = text.find("\n", body + _SLICE, end)
        cut = end if cut < 0 else cut
        piece = text[body:cut]
        codes = None if matcher is None else _codes(piece.encode("utf-8", "surrogatepass"), matcher)
        if codes is None:
            try:
                codes = _split_codes(piece, index, done + 2)
            except FormatError:
                # a wrong line count is reported before any line's content
                _check_line_count(text, end, steps)
                raise
        if done + codes.size > states.size:
            _check_line_count(text, end, steps)
        states[done : done + codes.size] = codes
        done += codes.size
        if cut == end:
            break
        body = cut + 1
    if done < states.size:
        _check_line_count(text, end, steps)
    trajectory = Trajectory(labels=labels, states=states, seed=seed)
    return trajectory, header
