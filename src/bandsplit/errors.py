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
    radicand), the heavy-traffic split leaves (0, rho_max * mu), or the
    exact split's bound bands fail their KKT sign check."""


class BracketFailure(OptimizerError):
    """Root bracketing for the multiplier search never found a sign change."""


class InsufficientSamples(BandsplitError):
    """Too few samples in the measurement window to estimate moments."""


class DuplicateSeq(BandsplitError):
    """A sequence number was delivered to the reorder buffer twice."""


class ConfigInvalid(BandsplitError):
    """Scenario configuration failed validation; message names the field."""


class ConservationViolated(BandsplitError):
    """A run ended short of some flow's packet budget, with a packet not
    received exactly once, or with a packet left in a queue or a server
    (an engine bug)."""


class OverloadDetected(BandsplitError):
    """A band queue grew longer than the engine's occupancy cap
    (``engine.QUEUE_CAP``).  It is checked once, from the run's per-packet
    buffers after the run ends and before any metric is derived, and
    names the band and the earliest arrival that overflowed (the lowest
    band index when several overflow at one instant)."""


class InvalidRecords(BandsplitError):
    """A records file has a line or a field that no record can hold."""


class MismatchedSeeds(BandsplitError):
    """Record sets being compared do not share a common seed set."""
