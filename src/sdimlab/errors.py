"""Exception taxonomy shared across the package.

Every error that can surface through the CLI carries a short machine tag so
scripts can match on stderr without parsing prose.
"""

from __future__ import annotations


class SdimlabError(Exception):
    """Base class; `tag` is the machine-readable stderr label."""

    tag = "ERROR"


class ParseError(SdimlabError):
    """Malformed input file, rational string, or option value."""

    tag = "PARSE"


class DisconnectedInput(SdimlabError):
    """Arrangement input or a loaded host is not one connected graph."""

    tag = "DISCONNECTED"


class OverlapError(SdimlabError):
    """Nondegenerate segment overlap that collinear merging could not absorb."""

    tag = "OVERLAP"


class EmptySubset(SdimlabError):
    """Diameter of a subset with no points is undefined."""

    tag = "EMPTY"


class CrossingAssertionFailure(SdimlabError):
    """Two teeth intersect at positive height; the level sequence is invalid."""

    tag = "CROSSING"


class HostMismatch(SdimlabError):
    """Certificate references a different host graph than the one supplied."""

    tag = "HOSTMISMATCH"


class TooLarge(SdimlabError):
    """Instance exceeds the hard size limit of the brute-force oracle."""

    tag = "TOOLARGE"


class SizeLimit(SdimlabError):
    """Requested enumeration would exceed the word/point budget."""

    tag = "SIZE"


class BudgetExceeded(SdimlabError):
    """A configured work budget (edges, pair checks, words) was exhausted."""

    tag = "BUDGET"


class TooFewScales(SdimlabError):
    """Dimension proxy needs at least three scales."""

    tag = "SCALES"


class VerificationFailure(SdimlabError):
    """A certificate failed verification (CLI exit path)."""

    tag = "VERIFY"
