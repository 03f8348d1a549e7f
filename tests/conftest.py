"""Shared test helpers: random feasible instances, the feasibility check
of a split, and the acceptance summary hook (one PASS/FAIL line per
criterion in the terminal summary).
"""

from __future__ import annotations

import numpy as np

from bandsplit.errors import LengthMismatch
from bandsplit.model import BandStats, RateAllocation

ACCEPTANCE_RESULTS: dict[int, str] = {}
ACCEPTANCE_TOTAL = 9


def record_criterion(number: int, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = detail


def random_stats(rng: np.random.Generator) -> BandStats:
    """One random band: moderate rate, service CoV in [~0, ~1.4],
    vacation second moment above the Jensen floor."""
    mu = float(rng.uniform(5.0, 50.0))
    shape = float(rng.uniform(1.0, 3.0))  # x2 = shape/mu^2 (1 = deterministic)
    vbar = float(rng.uniform(0.005, 0.2))
    v2 = float(rng.uniform(1.0, 2.5)) * vbar**2
    return BandStats(mu=mu, x2=shape / mu**2, vbar=vbar, v2=v2)


def random_instance(
    rng: np.random.Generator, m: int, load: tuple[float, float] = (0.35, 0.85)
) -> tuple[float, list[BandStats]]:
    stats = [random_stats(rng) for _ in range(m)]
    lam = float(rng.uniform(*load)) * sum(st.mu for st in stats)
    return lam, stats


def feasible(alloc: RateAllocation, stats: list[BandStats], lambda_total: float) -> bool:
    """True iff the split satisfies the constraint set: every component
    strictly positive and strictly under its service rate, and the
    components summing to ``lambda_total`` within 1e-9 relative."""
    if len(alloc) != len(stats):
        raise LengthMismatch(f"{len(alloc)} rates vs {len(stats)} band stats")
    for lam_j, st in zip(alloc.lambdas, stats):
        if not 0.0 < lam_j < st.mu:
            return False
    return abs(alloc.total - lambda_total) <= 1e-9 * abs(lambda_total)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in range(1, ACCEPTANCE_TOTAL + 1):
        if n in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(f"criterion {n}: PASS — {ACCEPTANCE_RESULTS[n]}")
        else:
            terminalreporter.write_line(f"criterion {n}: FAIL or not run")
