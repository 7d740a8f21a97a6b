"""Exception types shared across the library and the CLI."""

from __future__ import annotations


class GermlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GermlabError):
    """Malformed polynomial expression or problem file."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(message)
        self.line = line
        self.column = column


class ICISViolation(GermlabError):
    """A germ (or a truncation of its generator chain) is not an ICIS."""

    def __init__(self, reason: str, index: int | None = None):
        super().__init__(f"ICIS violation: {reason}")
        self.reason = reason
        self.index = index


class InfiniteColength(GermlabError):
    """A colength that must be finite for the requested computation is not."""


class GenericityExhausted(GermlabError):
    """No admissible generic linear form was found within the retry budget."""


class PreconditionViolation(GermlabError):
    """An operation was invoked outside its stated domain."""


class ReductionLimitExceeded(GermlabError):
    """The reduction-step cap was hit; aborted with a diagnostic.

    Legitimate runs at desk scale stay far below the cap, so hitting it
    almost always indicates a runaway input or an implementation bug.
    """


class DegreeLimitExceeded(GermlabError):
    """A term of a standard-basis computation reached the degree limit of
    the kernel's packed term representation; raised instead of letting a
    packed field wrap around."""
