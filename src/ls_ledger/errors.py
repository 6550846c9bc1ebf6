"""Error types raised by the library.

Everything derives from :class:`LedgerError` so callers can catch the whole
family at once; the CLI maps any of these to a non-zero exit status.
"""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for all errors raised by this package."""


class SelfLinkError(LedgerError, ValueError):
    """A link with identical source and target."""


class IntervalError(LedgerError, ValueError):
    """A time lies outside a stream interval.

    Carries ``index`` when the offending item is a link of a sequence.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class IntegrityError(LedgerError, ValueError):
    """A record violates a dataset-level constraint (e.g. a certification
    endpoint without an identity)."""


class ParseError(LedgerError, ValueError):
    """A malformed input line, fatal in strict mode. Carries ``line_no`` and
    the ``reason`` without the line number."""

    def __init__(self, reason: str, line_no: int):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UndefinedCorrelationError(LedgerError, ValueError):
    """Pearson correlation requested on a degenerate (zero-variance) series."""


class DegenerateModelError(LedgerError, ValueError):
    """The null model cannot perform any rewiring on this graph."""


class StateError(LedgerError, RuntimeError):
    """A CLI command needs a snapshot that is missing or unreadable."""
