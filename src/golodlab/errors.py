"""Shared exception types. CLI exit codes key off these."""

# the one message for a unit generator, from R/I and from a monomial ideal
UNIT_IDEAL = "unit generator: the ideal is the whole ring"


class GolodlabError(Exception):
    pass


class InputError(GolodlabError):
    """Bad user input: parse failures, ring mismatches, violated preconditions."""


class ParseError(InputError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = " (line %d%s)" % (line, ", col %d" % col if col is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.col = col


class RingMismatchError(InputError):
    pass


class CapExceededError(GolodlabError):
    """A configured size/degree budget was hit; the result would be truncated."""


class InconsistencyError(GolodlabError):
    """Two independent computations of the same value disagreed. Always a bug."""
