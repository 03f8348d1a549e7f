"""The paper's heavy-traffic closed form of the rate split: the
stationary rates at the approximate multiplier ``gamma_approx``,
rescaled onto the sum constraint.  Close to the optimum only when 2*lam
is much larger than every mu_j; the tests hold ``optimize`` against it.
"""

from __future__ import annotations

from typing import Sequence

from bandsplit.errors import NoFeasibleBranch
from bandsplit.model import RHO_MAX, BandStats
from bandsplit.optimizer import (
    LagrangeSolution,
    _validate_instance,
    gamma_approx,
    lambda_star_given_gamma,
)

CLOSED_FORM = "closed_form_approx"


def solve_closed_form(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Heavy-traffic split: lam_j(gamma_approx), rescaled onto the sum
    constraint.  Raises NoFeasibleBranch when the candidate is infeasible."""
    _validate_instance(lambda_total, stats)
    gamma = gamma_approx(lambda_total, [st.mu for st in stats])
    cand = lambda_star_given_gamma(gamma, stats, lambda_total)
    if any(lam <= 0.0 for lam in cand):
        raise NoFeasibleBranch(f"non-positive rate at gamma={gamma}")
    # The approximate gamma does not satisfy sum(cand) == lam exactly;
    # project onto the constraint before the feasibility check.
    scale = lambda_total / sum(cand)
    cand = [lam * scale for lam in cand]
    if any(lam > RHO_MAX * st.mu for lam, st in zip(cand, stats)):
        raise NoFeasibleBranch(f"rate above the utilisation cap at gamma={gamma}")
    return LagrangeSolution(gamma, tuple(cand), CLOSED_FORM)
