"""Exact half-integer arithmetic.

Spin magnitudes, magnetic quantum numbers and register outcomes are all
half-integers (..., -1, -1/2, 0, 1/2, 1, ...).  Storing twice the value
as a plain int keeps every index computation exact; floats never enter
the bookkeeping.
"""

import re
from dataclasses import dataclass

from .errors import InvalidArgumentError, check_int

_HALF_INT_RE = re.compile(r"([+-]?[0-9]+)(/2)?")


@dataclass(frozen=True)
class HalfInt:
    """A half-integer stored as twice its value (s=1/2 has twice=1)."""

    twice: int

    def __post_init__(self):
        check_int("HalfInt.twice", self.twice)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse an exact string form: "2", "-1", "1/2", "-3/2".

        ASCII digits only, no inner whitespace; the only accepted
        denominator is a literal 2.
        """
        match = _HALF_INT_RE.fullmatch(text.strip())
        if match is None:
            raise InvalidArgumentError(
                f"not a half-integer string: {text!r} (expected e.g. '2', '1/2', '-3/2')"
            )
        try:
            value = int(match.group(1))
        except ValueError:  # more digits than Python converts
            raise InvalidArgumentError(f"half-integer string too long: {len(text)} characters") from None
        return cls(value if match.group(2) else 2 * value)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def m_values(s: HalfInt) -> tuple[HalfInt, ...]:
    """Projection labels for spin s in descending order s, s-1, ..., -s."""
    if s.twice < 0:
        raise InvalidArgumentError(f"spin must be non-negative, got s={s}")
    return tuple(HalfInt(s.twice - 2 * k) for k in range(s.twice + 1))
