"""Concrete service / vacation time distributions.

The queueing model only needs a mean and a second moment, but the
simulator needs actual draws.  Three shapes cover the test matrix:
deterministic (zero variance), exponential (memoryless), and lognormal
(heavy-ish tail with tunable spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid

# Each kind with the parameters its JSON object must give.
KINDS = {
    "deterministic": ("mean",),
    "exponential": ("mean",),
    "lognormal": ("mu_log", "sigma_log"),
}


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
        return DistributionSpec(kind=kind, **values)


class Sampler:
    """Chunked draws from one distribution, one RNG stream.

    Pre-drawing in blocks keeps the per-event cost down without changing
    the consumption order of the stream, so runs stay reproducible.  A
    block is kept as a list of Python floats, so a draw is one list
    index rather than a numpy scalar.
    """

    __slots__ = ("_spec", "_rng", "_chunk", "_buf", "_idx")

    def __init__(self, spec: DistributionSpec, rng: np.random.Generator, chunk: int = 4096):
        self._spec = spec
        self._rng = rng
        self._chunk = chunk
        self._buf: list[float] = []
        self._idx = chunk

    def _refill(self) -> None:
        spec = self._spec
        if spec.kind == "deterministic":
            self._buf = [spec.mean] * self._chunk
        elif spec.kind == "exponential":
            self._buf = self._rng.exponential(spec.mean, self._chunk).tolist()
        else:
            self._buf = self._rng.lognormal(spec.mu_log, spec.sigma_log, self._chunk).tolist()
        self._idx = 0

    def draw(self) -> float:
        if self._idx >= self._chunk:
            self._refill()
        val = self._buf[self._idx]
        self._idx += 1
        return val
