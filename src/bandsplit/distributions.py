"""Concrete service / vacation time distributions.

The queueing model only needs a mean and a second moment, but the
simulator needs actual draws.  Three shapes cover the test matrix:
deterministic (zero variance), exponential (memoryless), and lognormal
(heavy-ish tail with tunable spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigInvalid

# Each kind with the parameters its JSON object must give.
KINDS = {
    "deterministic": ("mean",),
    "exponential": ("mean",),
    "lognormal": ("mu_log", "sigma_log"),
}

# Draws a Sampler takes from its stream per refill.
_BLOCK = 4096


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    mean: float = 0.0  # deterministic / exponential
    mu_log: float = 0.0  # lognormal
    sigma_log: float = 0.0  # lognormal

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigInvalid(f"unknown distribution kind {self.kind!r}")
        if self.kind == "lognormal":
            if self.sigma_log < 0:
                raise ConfigInvalid("lognormal sigma_log must be >= 0")
        elif not self.mean > 0:
            raise ConfigInvalid(f"{self.kind} mean must be > 0, got {self.mean}")
        # The delay model and the engine divide by the mean and square
        # it: a mean or second moment that overflows or vanishes in
        # floats cannot run.
        try:
            mean, m2 = self.moments()
            ok = 0.0 < mean < math.inf and 1.0 / mean < math.inf and 0.0 < m2 < math.inf
        except (OverflowError, ZeroDivisionError):
            ok = False
        if not ok:
            raise ConfigInvalid(f"{self.kind} mean and second moment must be finite and > 0 in floats")

    def moments(self) -> tuple[float, float]:
        """Exact (mean, second moment)."""
        if self.kind == "deterministic":
            return self.mean, self.mean**2
        if self.kind == "exponential":
            return self.mean, 2.0 * self.mean**2
        m1 = math.exp(self.mu_log + 0.5 * self.sigma_log**2)
        m2 = math.exp(2.0 * self.mu_log + 2.0 * self.sigma_log**2)
        return m1, m2

    @staticmethod
    def from_dict(d: dict, where: str = "distribution") -> "DistributionSpec":
        """Parse a JSON object: ``kind`` plus exactly that kind's parameters."""
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigInvalid(f"{where}: expected an object with a 'kind' field")
        kind = d["kind"]
        params = KINDS.get(kind) if isinstance(kind, str) else None
        if params is None:
            raise ConfigInvalid(f"{where}.kind: unknown distribution kind {kind!r}")
        for key in d:
            if key != "kind" and key not in params:
                raise ConfigInvalid(f"{where}.{key}: unknown field (known: kind, {', '.join(params)})")
        values = {}
        for key in params:
            if key not in d:
                raise ConfigInvalid(f"{where}.{key}: missing required field")
            v = d[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ConfigInvalid(f"{where}.{key}: expected a finite number, got {v!r}")
            values[key] = float(v)
        try:
            return DistributionSpec(kind=kind, **values)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{where}: {exc}") from None


def _draw(spec: DistributionSpec, rng: np.random.Generator | None, n: int) -> np.ndarray:
    """The next ``n`` draws of ``spec`` from ``rng``, in stream order.

    Each value reads the stream on its own (no draw buffers state for
    the next), so one call for n values reads it exactly as any split of
    n into several calls does, bit for bit.
    """
    if spec.kind == "deterministic":
        return np.full(n, spec.mean)
    if spec.kind == "exponential":
        return rng.exponential(spec.mean, n)
    return rng.lognormal(spec.mu_log, spec.sigma_log, n)


def _blocks(spec: DistributionSpec, rng: np.random.Generator | None, constant: float | None):
    """Endless ``_BLOCK``-draw lists from ``rng`` in stream order, or of
    a deterministic spec's ``constant``.

    A module-level generator over ``(spec, rng, constant)``, not a
    method: a generator frame holding its ``Sampler`` would make a
    reference cycle, and every finished run's samplers would then wait
    for the cyclic GC.
    """
    if constant is not None:
        block = [constant] * _BLOCK
        while True:
            yield block
    while True:
        yield _draw(spec, rng, _BLOCK).tolist()


class Sampler:
    """Chunked draws from one distribution, one RNG stream.

    The stream is ``_BLOCK``-draw blocks, kept as lists of Python floats
    and flattened by ``itertools.chain``, so pre-drawing keeps the
    consumption order of the RNG and runs stay reproducible.  ``take``
    is that chain's C-level ``__next__``: a draw through it runs no
    Python frame, and only a refill resumes the block generator.  The
    engine calls ``take``; ``draw`` is the same stream as a method.
    ``many(n)`` returns the next n draws as one array, equal to n
    ``take()`` calls on a sampler that ``take`` has not read; a run
    reads each sampler through one of the two.  A deterministic spec
    never reads ``rng``, which may then be None; ``constant`` is the one
    value its every draw returns (None for any other kind), which a
    caller may add in place of reading the stream.
    """

    __slots__ = ("take", "spec", "rng", "constant")

    def __init__(self, spec: DistributionSpec, rng: np.random.Generator | None):
        self.constant = float(spec.mean) if spec.kind == "deterministic" else None
        self.take = chain.from_iterable(_blocks(spec, rng, self.constant)).__next__
        self.spec = spec
        self.rng = rng

    def draw(self) -> float:
        return self.take()

    def many(self, n: int) -> np.ndarray:
        return _draw(self.spec, self.rng, n)
