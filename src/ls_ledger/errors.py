"""Error types raised by the library.

Everything derives from :class:`LedgerError`, a :class:`ValueError`, so
callers can catch the whole family at once; the CLI maps any of these to a
non-zero exit status. A fault with nothing to carry but its message is a
plain ``LedgerError``.
"""

from __future__ import annotations


class LedgerError(ValueError):
    """Base class for all errors raised by this package."""


class IntervalError(LedgerError):
    """A link breaks a stream invariant: a self-link, a time outside the
    stream interval, an endpoint outside the node set or links out of order.

    Carries ``index`` when the offending item is a link of a sequence.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(LedgerError):
    """A malformed input line, fatal in strict mode. Carries ``line_no`` and
    the ``reason`` without the line number."""

    def __init__(self, reason: str, line_no: int):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class StateError(LedgerError, RuntimeError):
    """A CLI command needs a snapshot that is missing or unreadable."""
