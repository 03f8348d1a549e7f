"""Exception hierarchy shared across the package.

Analytic errors (Infeasible, InvalidStats, ...) signal bad inputs to the
delay model or the rate solver; simulation errors signal bad scenario
configs or runtime blow-ups.
"""


class BandsplitError(Exception):
    """Base class for all package errors."""


class InvalidStats(BandsplitError):
    """Band statistics violate their invariants (mu <= 0, x2 < mean^2, ...)."""


class Infeasible(BandsplitError):
    """A per-band arrival rate at or beyond the stability limit."""


class LengthMismatch(BandsplitError):
    """Allocation and band-statistics vectors differ in length."""


class OptimizerError(BandsplitError):
    """Base class for rate-solver failures."""


class Overload(OptimizerError):
    """Total offered rate at or beyond aggregate capacity."""


class NoFeasibleBranch(OptimizerError):
    """The stationary rates at a multiplier are undefined (non-positive
    radicand) or infeasible (a rate outside (0, rho_max * mu))."""


class BracketFailure(OptimizerError):
    """Root bracketing for the multiplier search never found a sign change."""


class DimensionTooLarge(OptimizerError):
    """Grid search requested beyond its supported dimensionality."""


class OptimizerFailure(BandsplitError):
    """A scheduler needed a rate split but the solver chain never succeeded."""


class InsufficientSamples(BandsplitError):
    """Too few samples in the measurement window to estimate moments."""


class DuplicateSeq(BandsplitError):
    """A sequence number was delivered to the reorder buffer twice."""


class ConfigInvalid(BandsplitError):
    """Scenario configuration failed validation; message names the field."""


class ConservationViolated(BandsplitError):
    """Packet accounting does not balance at the end of a run (an engine bug)."""


class OverloadDetected(BandsplitError):
    """A simulated queue exceeded its configured occupancy cap."""


class MismatchedSeeds(BandsplitError):
    """Record sets being compared do not share a common seed set."""
