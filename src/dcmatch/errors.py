"""Exception types shared across the package."""

from __future__ import annotations


class MatchingError(ValueError):
    """A set of edges is not a valid non-crossing perfect matching."""


class ParseError(MatchingError):
    """A matching string or JSON object is malformed."""


class LabelError(MatchingError):
    """Point labels are out of range, repeated, or not fully covered."""


class CrossingError(MatchingError):
    """Two edges cross.  Carries one offending pair as a witness."""

    def __init__(self, first: tuple[int, int], second: tuple[int, int]):
        self.first = first
        self.second = second
        super().__init__(f"edges {first} and {second} cross")


class DomainError(ValueError):
    """A counting formula was evaluated outside its range of validity."""


class ResourceLimitError(RuntimeError):
    """A requested size exceeds the configured cap (``DCM_MAX_K``)."""
