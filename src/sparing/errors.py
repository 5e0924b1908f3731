"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it: 2 (bad input) unless
it says otherwise.
"""


class SparingError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class IndexOutOfRange(SparingError):
    """A vertex index is outside 0..n-1."""


class SelfLoop(SparingError):
    """An edge joins a vertex to itself."""


class EdgeNotFound(SparingError):
    """A referenced edge is not present in the graph."""


class InvalidParam(SparingError):
    """A family parameter violates its domain constraint."""


class MissingLabel(SparingError):
    """A labeling does not assign a set to every vertex."""


class TooLarge(SparingError):
    """The input exceeds a documented size limit."""

    exit_code = 3


class NotIndependent(SparingError):
    """A vertex set required to be independent spans an edge."""


class CertificationFailed(SparingError):
    """A constructed witness labeling failed re-verification."""

    exit_code = 1


class DomainError(SparingError):
    """Claim parameters lie outside the claim's stated domain."""


class MissingGraph(SparingError):
    """A graph-dependent claim was evaluated without its instance graph."""


class GraphFormatError(SparingError):
    """A graph or labeling file does not parse."""
