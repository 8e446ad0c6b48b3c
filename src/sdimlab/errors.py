"""Exception taxonomy shared across the package.

Every error that can surface through the CLI carries a short machine tag so
scripts can match on stderr without parsing prose.  An improper host is
the plain `ValueError` of `PLGraph.validate_proper`, which the host check
turns into a `ParseError`.
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


class HostMismatch(SdimlabError):
    """Certificate references a different host graph than the one supplied."""

    tag = "HOSTMISMATCH"


class SizeLimit(SdimlabError):
    """A shark-teeth spec past the builder's tooth-count or level cap."""

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


def expect_format(data, name: str, version: int) -> None:
    """Refuse a decoded document that is not an object with this `format`
    and `version`."""
    if not isinstance(data, dict) or data.get("format") != name:
        raise ParseError(f"not a {name} document")
    if data.get("version") != version:
        raise ParseError(f"unsupported version {data.get('version')!r}")
