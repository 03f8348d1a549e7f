"""Scenario configuration: parsing, validation, round-trippable JSON form.

A scenario file is a single JSON document:

    {
      "name": "two_band_asym",
      "bands": [
        {"service": {"kind": "deterministic", "mean": 0.0571}, "prop_latency_s": 0.0},
        {"service": {"kind": "deterministic", "mean": 0.1}}
      ],
      "stas": 1,
      "acs": [0],
      "flows": [{"sta": 0, "ac": 0, "lambda_pps": 8.0, "packets": 30000}],
      "schedulers": ["even_split", {"kind": "single_band", "band": 0}],
      "vacation_mode": "emergent",
      "feedback_interval_pkts": 100,
      "warmup_frac": 0.1,
      "seed_base": 1,
      "replications": 10
    }

``acs`` lists the active access categories in priority order (first entry
is served first).  A flow may restrict itself to a subset of bands with
``available_bands``.  ``vacation_mode`` is either "emergent" (idle bands
wait for work; vacations arise from serving other queues) or
{"kind": "parametric", "dist": {...}} (idle bands take vacations drawn
from the given distribution, back to back while idle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .distributions import DistributionSpec
from .errors import ConfigInvalid
from .model import RHO_MAX, FlowKey
from .schedulers import SchedulerSpec

VACATION_MODES = ("emergent", "parametric")


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
    vacation_mode: str = "emergent"
    vacation_dist: DistributionSpec | None = None
    feedback_interval_pkts: int = 100
    warmup_frac: float = 0.1
    seed_base: int = 1
    replications: int = 1
    queue_cap: int = 1_000_000
    estimator_window: int = 512
    min_samples: int = 30
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
        if self.estimator_window < 1:
            raise ConfigInvalid("estimator_window: must be >= 1")
        if self.min_samples < 1:
            raise ConfigInvalid("min_samples: must be >= 1")
        if self.max_sim_time_s is not None and not self.max_sim_time_s > 0:
            raise ConfigInvalid("max_sim_time_s: must be > 0 when set")
        if self.vacation_mode not in VACATION_MODES:
            raise ConfigInvalid(f"vacation_mode: unknown mode {self.vacation_mode!r}")
        if self.vacation_mode == "parametric" and self.vacation_dist is None:
            raise ConfigInvalid("vacation_mode: parametric mode needs a vacation distribution")
        # Stability margin: keep total offered load clear of the capacity pole.
        offered = sum(fl.lambda_pps for fl in self.flows)
        capacity = sum(1.0 / b.service.moments()[0] for b in self.bands)
        if offered >= RHO_MAX * capacity:
            raise ConfigInvalid(
                f"flows: total offered load {offered:g} pps >= "
                f"{RHO_MAX:g} * capacity ({RHO_MAX * capacity:g} pps)"
            )

    # -- JSON form -----------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "bands": [
                {"service": b.service.to_dict(), "prop_latency_s": b.prop_latency_s}
                for b in self.bands
            ],
            "stas": self.stas,
            "acs": list(self.acs),
            "flows": [],
            "schedulers": [
                {"kind": s.kind, "band": s.band} if s.kind == "single_band" else s.kind
                for s in self.schedulers
            ],
            "vacation_mode": self.vacation_mode,
            "feedback_interval_pkts": self.feedback_interval_pkts,
            "warmup_frac": self.warmup_frac,
            "seed_base": self.seed_base,
            "replications": self.replications,
            "queue_cap": self.queue_cap,
            "estimator_window": self.estimator_window,
            "min_samples": self.min_samples,
        }
        for fl in self.flows:
            fd = {
                "sta": fl.sta,
                "ac": fl.ac,
                "lambda_pps": fl.lambda_pps,
                "packets": fl.packets,
            }
            if fl.available_bands is not None:
                fd["available_bands"] = list(fl.available_bands)
            d["flows"].append(fd)
        if self.vacation_dist is not None:
            d["vacation_dist"] = self.vacation_dist.to_dict()
        if self.max_sim_time_s is not None:
            d["max_sim_time_s"] = self.max_sim_time_s
        return d

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ConfigInvalid("config: expected a JSON object")

        def need(key: str):
            if key not in d:
                raise ConfigInvalid(f"{key}: missing required field")
            return d[key]

        bands = []
        for i, bd in enumerate(_as_list(need("bands"), "bands")):
            if not isinstance(bd, dict) or "service" not in bd:
                raise ConfigInvalid(f"bands[{i}]: expected an object with 'service'")
            bands.append(
                BandConfig(
                    service=DistributionSpec.from_dict(bd["service"], f"bands[{i}].service"),
                    prop_latency_s=_as_float(bd.get("prop_latency_s", 0.0), f"bands[{i}].prop_latency_s"),
                )
            )
        flows = []
        for i, fd in enumerate(_as_list(need("flows"), "flows")):
            if not isinstance(fd, dict):
                raise ConfigInvalid(f"flows[{i}]: expected an object")
            avail = fd.get("available_bands")
            flows.append(
                FlowConfig(
                    sta=_as_int(fd.get("sta", 0), f"flows[{i}].sta"),
                    ac=_as_int(fd.get("ac", 0), f"flows[{i}].ac"),
                    lambda_pps=_as_float(fd.get("lambda_pps"), f"flows[{i}].lambda_pps"),
                    packets=_as_int(fd.get("packets"), f"flows[{i}].packets"),
                    available_bands=None if avail is None else tuple(
                        _as_int(b, f"flows[{i}].available_bands") for b in _as_list(avail, f"flows[{i}].available_bands")
                    ),
                )
            )
        schedulers = tuple(
            SchedulerSpec.parse(s, f"schedulers[{i}]")
            for i, s in enumerate(_as_list(need("schedulers"), "schedulers"))
        )
        vmode = d.get("vacation_mode", "emergent")
        vdist = None
        if isinstance(vmode, dict):
            if vmode.get("kind") != "parametric":
                raise ConfigInvalid("vacation_mode: object form must have kind 'parametric'")
            vdist = DistributionSpec.from_dict(vmode.get("dist", {}), "vacation_mode.dist")
            vmode = "parametric"
        elif "vacation_dist" in d:
            vdist = DistributionSpec.from_dict(d["vacation_dist"], "vacation_dist")
        cfg = ScenarioConfig(
            name=str(need("name")),
            bands=tuple(bands),
            flows=tuple(flows),
            schedulers=schedulers,
            stas=_as_int(d.get("stas", 1), "stas"),
            acs=tuple(_as_int(a, "acs") for a in _as_list(d.get("acs", [0]), "acs")),
            vacation_mode=vmode,
            vacation_dist=vdist,
            feedback_interval_pkts=_as_int(d.get("feedback_interval_pkts", 100), "feedback_interval_pkts"),
            warmup_frac=_as_float(d.get("warmup_frac", 0.1), "warmup_frac"),
            seed_base=_as_int(d.get("seed_base", 1), "seed_base"),
            replications=_as_int(d.get("replications", 1), "replications"),
            queue_cap=_as_int(d.get("queue_cap", 1_000_000), "queue_cap"),
            estimator_window=_as_int(d.get("estimator_window", 512), "estimator_window"),
            min_samples=_as_int(d.get("min_samples", 30), "min_samples"),
            max_sim_time_s=None if d.get("max_sim_time_s") is None else _as_float(d["max_sim_time_s"], "max_sim_time_s"),
        )
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


def _as_list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ConfigInvalid(f"{where}: expected a list")
    return v


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{where}: expected an integer, got {v!r}")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid(f"{where}: expected a number, got {v!r}")
    return float(v)
