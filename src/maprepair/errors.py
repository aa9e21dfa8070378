"""Exception types shared across the package."""


class MapRepairError(Exception):
    """Base class for all package errors."""


class UnknownNode(MapRepairError):
    """An edge endpoint or query target is not in the graph."""


class DuplicateEdge(MapRepairError):
    """An edge with the same (src, direction, step_id) already exists."""


class DuplicateNode(MapRepairError):
    """A node with the same id already exists."""


class UnknownVersion(MapRepairError):
    """A version index is outside the commit chain."""


class CorruptLog(MapRepairError):
    """A commit log line does not parse, or its commits are out of order."""


class InvalidDelta(MapRepairError):
    """A commit step does not apply to the current graph state."""


class MalformedBlock(MapRepairError):
    """A walkthrough block is missing a required header."""


class NonMonotonicStep(MapRepairError):
    """Walkthrough step numbers are not strictly increasing from 0."""


class Unreachable(MapRepairError):
    """A conflict participant has no path from the origin."""


class EmptyCandidates(MapRepairError):
    """Scoring was asked to rank an empty candidate list."""


class IllegalAction(MapRepairError):
    """A repair action is not applicable to the current graph."""


class StaleContext(MapRepairError):
    """A repair context part was read after the chain head moved."""


class AdvisorFailure(MapRepairError):
    """The advisor could not produce a usable action (transport or parse)."""
