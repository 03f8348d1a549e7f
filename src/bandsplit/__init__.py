"""bandsplit: split one packet stream across heterogeneous wireless bands.

Library surface:

* model        per-band delay formula, aggregate objective
* optimizer    optimal rate split (exact solver, heavy-traffic closed form,
               grid oracle)
* schedulers   per-packet band selection policies (token bucket and rivals)
* engine       deterministic discrete-event simulator
* runner       schemes x seeds orchestration, CSV/JSONL records, compare
* cli          `bandsplit run` / `bandsplit compare`
"""

from .config import BandConfig, FlowConfig, ScenarioConfig
from .distributions import DistributionSpec
from .engine import Packet, SimState, run_scenario
from .errors import (
    BandsplitError,
    BracketFailure,
    ConfigInvalid,
    ConservationViolated,
    DimensionTooLarge,
    DuplicateSeq,
    Infeasible,
    InsufficientSamples,
    InvalidStats,
    LengthMismatch,
    MismatchedSeeds,
    NoFeasibleBranch,
    OptimizerError,
    OptimizerFailure,
    Overload,
    OverloadDetected,
)
from .estimators import MomentEstimator, band_stats_from_windows
from .metrics import MetricsReport
from .model import (
    BandStats,
    DelayBreakdown,
    FlowKey,
    RateAllocation,
    aggregate_delay,
    band_delay,
    objective,
)
from .optimizer import (
    LagrangeSolution,
    gamma_approx,
    lambda_star_given_gamma,
    optimize,
    solve_closed_form,
    solve_grid,
)
from .reorder import ReorderBuffer
from .runner import compare, read_records, run_suite, write_records
from .schedulers import SchedulerSpec, make_scheduler

__version__ = "0.1.0"
