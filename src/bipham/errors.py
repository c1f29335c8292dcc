"""Typed errors shared across the package.

Failures of randomized constructions and search backends are ordinary,
expected outcomes at small scale, so they get their own exception types and
carry enough context (witness vertex, failing condition) to be reported.
"""


class BiphamError(Exception):
    """Base class for all package errors."""


class BadParams(BiphamError):
    """Parameters of a generator or constant set are inconsistent."""


class InputFileError(BiphamError):
    """An input file is missing, unreadable or malformed."""


class PartitionMismatch(BiphamError):
    """A vertex partition does not cover the graph's vertex set."""


class NotBipartite(BiphamError):
    """A bipartite operation received overlapping or non-covering classes."""


class PreconditionViolated(BiphamError):
    """A stated precondition fails; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RetryBudgetExceeded(BiphamError):
    """A randomized construction did not verify within the retry budget.

    Signals parameters outside the concentration regime at this scale.
    """

    def __init__(self, message, attempts=None, last_failures=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_failures = last_failures or []


class InsufficientNeighbors(PreconditionViolated):
    """A greedy extension step found no usable neighbor for a vertex."""


class MatchingShortfall(BiphamError):
    """Fewer disjoint matchings of the required size exist than needed."""


class MatchingFailure(BiphamError):
    """A required (perfect) matching does not exist."""


class AuxMatchingFailure(MatchingFailure):
    """The auxiliary bipartite graph used to assign exceptional-vertex
    edges to path systems has no perfect matching; carries the deficient
    side if identified."""

    def __init__(self, message, deficient=None):
        super().__init__(message)
        self.deficient = deficient


class SolverFailure(BiphamError):
    """A search backend reported failure (with statistics) instead of a
    structure."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class Timeout(SolverFailure):
    """A search exhausted its node or time budget."""


class WallClockExceeded(Timeout):
    """The wall-clock safety net stopped a search before its node budget
    did.  Where it trips depends on machine speed, so unlike every other
    failure the result is not reproducible."""


class BackendFailure(BiphamError):
    """The split-and-switch engine could not close its decomposition."""


class DivisibilityError(BadParams):
    """An exact divisibility requirement fails."""
