"""Scenario configuration: the dataclasses, their validation, and the
strict JSON loader.

A scenario file is a single JSON document; this one gives only the
required keys and one optional key:

    {
      "name": "two_band_asym",
      "bands": [
        {"service": {"kind": "deterministic", "mean": 0.0571}},
        {"service": {"kind": "deterministic", "mean": 0.1}, "prop_latency_s": 0.015}
      ],
      "flows": [{"sta": 0, "ac": 0, "lambda_pps": 8.0, "packets": 30000}],
      "schedulers": ["even_split", {"kind": "single_band", "band": 0}],
      "replications": 10
    }

The dataclasses below are the one schema.  A JSON key names a dataclass
field and is passed on only when present, so every default lives in its
dataclass; a key that names no field is rejected with its path (say
``bands[0].prop_latency``), at every level, and so is a missing field
that has no default.  Every failure raises ConfigInvalid, which the CLI
turns into exit code 2.

``acs`` lists the active access categories in priority order (first entry
is served first).  A flow may restrict itself to a subset of bands with
``available_bands``.  The JSON key ``vacation_mode`` sets the field
``vacation``: either "emergent" (``None``: idle bands wait for work;
vacations arise from serving other queues) or
{"kind": "parametric", "dist": {...}} (idle bands take vacations drawn
from the given distribution, back to back while idle).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .distributions import DistributionSpec
from .errors import ConfigInvalid
from .model import RHO_MAX, FlowKey
from .schedulers import SchedulerSpec


@dataclass(frozen=True)
class BandConfig:
    service: DistributionSpec
    prop_latency_s: float = 0.0


@dataclass(frozen=True)
class FlowConfig:
    sta: int
    ac: int
    lambda_pps: float
    packets: int
    available_bands: tuple[int, ...] | None = None

    @property
    def key(self) -> FlowKey:
        return FlowKey(sta_id=self.sta, ac=self.ac)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    bands: tuple[BandConfig, ...]
    flows: tuple[FlowConfig, ...]
    schedulers: tuple[SchedulerSpec, ...]
    stas: int = 1
    acs: tuple[int, ...] = (0,)
    vacation: DistributionSpec | None = None  # None: emergent vacations
    feedback_interval_pkts: int = 100
    warmup_frac: float = 0.1
    seed_base: int = 1
    replications: int = 1
    queue_cap: int = 1_000_000
    max_sim_time_s: float | None = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigInvalid("name: must be non-empty")
        if not self.bands:
            raise ConfigInvalid("bands: need at least one band")
        if not self.flows:
            raise ConfigInvalid("flows: need at least one flow")
        if not self.schedulers:
            raise ConfigInvalid("schedulers: need at least one scheduler")
        if self.stas < 1:
            raise ConfigInvalid("stas: must be >= 1")
        if not self.acs:
            raise ConfigInvalid("acs: must list at least one access category")
        if len(set(self.acs)) != len(self.acs):
            raise ConfigInvalid("acs: duplicate access category")
        for ac in self.acs:
            if not 0 <= ac < 4:
                raise ConfigInvalid(f"acs: access category {ac} outside 0..3")
        for i, band in enumerate(self.bands):
            if band.prop_latency_s < 0:
                raise ConfigInvalid(f"bands[{i}].prop_latency_s: must be >= 0")
        seen_keys = set()
        for i, fl in enumerate(self.flows):
            where = f"flows[{i}]"
            if not 0 <= fl.sta < self.stas:
                raise ConfigInvalid(f"{where}.sta: {fl.sta} outside 0..{self.stas - 1}")
            if fl.ac not in self.acs:
                raise ConfigInvalid(f"{where}.ac: {fl.ac} not among active acs {self.acs}")
            if not fl.lambda_pps > 0:
                raise ConfigInvalid(f"{where}.lambda_pps: must be > 0")
            if fl.packets < 1:
                raise ConfigInvalid(f"{where}.packets: must be >= 1")
            if (fl.sta, fl.ac) in seen_keys:
                raise ConfigInvalid(f"{where}: duplicate (sta, ac) queue")
            seen_keys.add((fl.sta, fl.ac))
            if fl.available_bands is not None:
                if not fl.available_bands:
                    raise ConfigInvalid(f"{where}.available_bands: must not be empty")
                for b in fl.available_bands:
                    if not 0 <= b < len(self.bands):
                        raise ConfigInvalid(f"{where}.available_bands: band {b} out of range")
                if len(set(fl.available_bands)) != len(fl.available_bands):
                    raise ConfigInvalid(f"{where}.available_bands: duplicate band")
        for spec in self.schedulers:
            if spec.kind != "single_band":
                continue
            if not 0 <= spec.band < len(self.bands):
                raise ConfigInvalid(f"schedulers: single_band index {spec.band} out of range")
            for i, fl in enumerate(self.flows):
                if fl.available_bands is not None and spec.band not in fl.available_bands:
                    raise ConfigInvalid(
                        f"schedulers: {spec.name} uses band {spec.band}, "
                        f"which flows[{i}].available_bands excludes"
                    )
        if not 0 <= self.warmup_frac < 0.5:
            raise ConfigInvalid("warmup_frac: must be in [0, 0.5)")
        if self.feedback_interval_pkts < 1:
            raise ConfigInvalid("feedback_interval_pkts: must be >= 1")
        if self.seed_base < 0:
            raise ConfigInvalid("seed_base: must be >= 0")
        if self.replications < 1:
            raise ConfigInvalid("replications: must be >= 1")
        if self.queue_cap < 1:
            raise ConfigInvalid("queue_cap: must be >= 1")
        if self.max_sim_time_s is not None and not self.max_sim_time_s > 0:
            raise ConfigInvalid("max_sim_time_s: must be > 0 when set")
        # Stability margin: keep total offered load clear of the capacity pole.
        offered = sum(fl.lambda_pps for fl in self.flows)
        capacity = sum(1.0 / b.service.moments()[0] for b in self.bands)
        if offered >= RHO_MAX * capacity:
            raise ConfigInvalid(
                f"flows: total offered load {offered:g} pps >= "
                f"{RHO_MAX:g} * capacity ({RHO_MAX * capacity:g} pps)"
            )

    # -- JSON form -----------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        kw = _parse_object(d, "", _SCENARIO_KEYS)
        if "vacation_mode" in kw:
            kw["vacation"] = kw.pop("vacation_mode")
        cfg = _construct(ScenarioConfig, kw, "")
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        return ScenarioConfig.from_dict(data)

    @staticmethod
    def from_file(path: str | Path) -> "ScenarioConfig":
        return ScenarioConfig.from_json(Path(path).read_text(encoding="utf-8"))


def _parse_object(d, where: str, parsers: dict) -> dict:
    """Each key of the JSON object ``d`` parsed by ``parsers[key](value,
    path)``; a key with no parser is rejected with its path."""
    if not isinstance(d, dict):
        raise ConfigInvalid(f"{where or 'config'}: expected a JSON object")
    kw = {}
    for key, value in d.items():
        path = _path(where, key)
        if key not in parsers:
            raise ConfigInvalid(f"{path}: unknown field (known: {', '.join(parsers)})")
        kw[key] = parsers[key](value, path)
    return kw


def _construct(cls, kw: dict, where: str):
    """``cls(**kw)``; a field with no dataclass default must be in ``kw``."""
    for f in fields(cls):
        if f.default is MISSING and f.name not in kw:
            raise ConfigInvalid(f"{_path(where, f.name)}: missing required field")
    return cls(**kw)


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _object_of(cls, parsers: dict):
    return lambda v, where: _construct(cls, _parse_object(v, where, parsers), where)


def _tuple_of(parse):
    def parse_list(v, where: str) -> tuple:
        return tuple(parse(x, f"{where}[{i}]") for i, x in enumerate(_as_list(v, where)))

    return parse_list


def _optional(parse):
    return lambda v, where: None if v is None else parse(v, where)


def _vacation(v, where: str) -> DistributionSpec | None:
    if v == "emergent":
        return None
    if not isinstance(v, dict) or v.get("kind") != "parametric":
        raise ConfigInvalid(f'{where}: expected "emergent" or {{"kind": "parametric", "dist": {{...}}}}')
    parsed = _parse_object(v, where, {"kind": lambda k, _: k, "dist": DistributionSpec.from_dict})
    if "dist" not in parsed:
        raise ConfigInvalid(f"{where}.dist: missing required field")
    return parsed["dist"]


def _as_list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ConfigInvalid(f"{where}: expected a list")
    return v


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{where}: expected an integer, got {v!r}")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigInvalid(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigInvalid(f"{where}: expected a string, got {v!r}")
    return v


_BAND_KEYS = {"service": DistributionSpec.from_dict, "prop_latency_s": _as_float}
_FLOW_KEYS = {
    "sta": _as_int,
    "ac": _as_int,
    "lambda_pps": _as_float,
    "packets": _as_int,
    "available_bands": _optional(_tuple_of(_as_int)),
}
_SCENARIO_KEYS = {
    "name": _as_str,
    "bands": _tuple_of(_object_of(BandConfig, _BAND_KEYS)),
    "flows": _tuple_of(_object_of(FlowConfig, _FLOW_KEYS)),
    "schedulers": _tuple_of(SchedulerSpec.parse),
    "stas": _as_int,
    "acs": _tuple_of(_as_int),
    "vacation_mode": _vacation,
    "feedback_interval_pkts": _as_int,
    "warmup_frac": _as_float,
    "seed_base": _as_int,
    "replications": _as_int,
    "queue_cap": _as_int,
    "max_sim_time_s": _optional(_as_float),
}
