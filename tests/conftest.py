"""Shared test helpers: random feasible instances, the feasibility check
of a split, a log of the schedulers' solves, a copy of each run's
per-seq buffers, and the acceptance summary hook (one PASS/FAIL line per
criterion in the terminal summary).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from bandsplit import schedulers
from bandsplit.engine import SimState
from bandsplit.errors import LengthMismatch
from bandsplit.model import BandStats
from bandsplit.optimizer import optimize

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


def feasible(lambdas: tuple[float, ...], stats: list[BandStats], lambda_total: float) -> bool:
    """True iff the split satisfies the constraint set: every component
    strictly positive and strictly under its service rate, and the
    components summing to ``lambda_total`` within 1e-9 relative."""
    if len(lambdas) != len(stats):
        raise LengthMismatch(f"{len(lambdas)} rates vs {len(stats)} band stats")
    for lam_j, st in zip(lambdas, stats):
        if not 0.0 < lam_j < st.mu:
            return False
    return abs(sum(lambdas) - lambda_total) <= 1e-9 * abs(lambda_total)


class SolveLog(Counter):
    """The schedulers' optimize calls, counted under "optimize", with
    each call's (lam, stats) kept in order in ``calls``."""

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[float, list[BandStats]]] = []


@pytest.fixture
def solves(monkeypatch):
    """A SolveLog of the schedulers' optimize calls."""
    count = SolveLog()

    def spy(lam, stats):
        count["optimize"] += 1
        count.calls.append((lam, list(stats)))
        return optimize(lam, stats)

    monkeypatch.setattr(schedulers, "optimize", spy)
    return count


BUFFERS = ("arrival", "start", "receipt", "band")


@pytest.fixture
def buffers(monkeypatch):
    """A spy on SimState._report.  Each report appends, per flow, a dict
    of numpy copies of the flow's per-seq buffers, taken before the
    report overwrites them."""
    runs = []
    report = SimState._report

    def spy(self):
        runs.append([{name: np.array(getattr(fr, name)) for name in BUFFERS} for fr in self.flows])
        return report(self)

    monkeypatch.setattr(SimState, "_report", spy)
    return runs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in range(1, ACCEPTANCE_TOTAL + 1):
        if n in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(f"criterion {n}: PASS — {ACCEPTANCE_RESULTS[n]}")
        else:
            terminalreporter.write_line(f"criterion {n}: FAIL or not run")
